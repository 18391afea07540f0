//! Allocation budgets of the host: what it allocates to build, run and
//! read back one more pipeline copy of compiled coverage, and the bytes
//! it allocates to execute a cache-hit request.
//!
//! A counting global allocator wraps the system one and counts on the
//! allocating thread, so the tests, which run on one host thread each,
//! never see each other's allocations. Compiled coverage runs on the
//! genomics catalog at 8 and at 16 replicas, and the difference over the
//! 8 added replicas is the per-replica cost: module and queue labels, the
//! engine's per-module tables, memory-port buffers, the sink's
//! read-back. The binding runs once per request at either factor, so it
//! cancels.
//!
//! A replica cost 147 allocations here before the budget (labels formatted
//! three times and copied twice, a fresh queue list per module per run, a
//! stall report that copied every label, growing line and response
//! buffers, a two-step read-back); it costs 56 now.
//!
//! The byte budgets execute the three plan shapes of the `serve_hot`
//! benchmark workload over its 8,192-row `U32` table, and one round of
//! the `serve_genomics` workload (three pileups and one mate-distance
//! histogram) over the genomics catalog. Bind widened every bound column
//! to `u64` and listed every row before it selected any; the three
//! `serve_hot` executes took 624,418 bytes then. Selecting in place and
//! copying the survivors of the streamed columns once, at their width,
//! cut that to 324,734 bytes, and answering a shard's scanned rows from
//! the row mask instead of a list of survivors cut it to the budget
//! below. The gather decoded every output word into a 32-byte `Value`;
//! building each column at its output type from the words cut the
//! genomics round from 2,947,756 bytes to its budget.

use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::sql::Catalog;
use genesis::types::{Column, DataType, Field, Schema, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Most heap allocations one added replica of compiled coverage may cost.
const PER_REPLICA_BUDGET: u64 = 60;

/// Most bytes the three `serve_hot` executes may allocate together.
const SERVE_HOT_BYTES: u64 = 263_302;

/// Most bytes one `serve_genomics` round may allocate.
const GENOMICS_ROUND_BYTES: u64 = 2_196_716;

struct Counting;

thread_local! {
    /// Heap allocations and bytes requested on this thread (a `realloc`
    /// counts its growth only, so a vector doubling to n bytes requests
    /// n in total).
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // A thread being torn down has no counter left; its frees are not
    // counted, and nothing it allocates then is measured.
    let _ = COUNTS.try_with(|c| {
        let (allocs, total) = c.get();
        c.set((allocs + 1, total + bytes as u64));
    });
}

/// This thread's `(allocations, bytes)` so far.
fn counts() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn an_added_replica_stays_within_its_allocation_budget() {
    let catalog = genesis_bench::scenarios::genomics_catalog();
    let cfg = DeviceConfig::default().with_host_threads(1);
    let plan = Compiler::new(cfg)
        .compile_sql(include_str!("../scripts/coverage.sql"), &catalog)
        .expect("coverage compiles");
    let allocs = |factor: usize| {
        // The first run warms whatever is allocated once per process.
        let (warm, _) = plan.execute_replicated(&catalog, factor).expect("coverage runs");
        let (before, _) = counts();
        let (table, _) = plan.execute_replicated(&catalog, factor).expect("coverage runs");
        let spent = counts().0 - before;
        assert_eq!(table, warm, "a rerun at {factor}x returns the same table");
        (table, spent)
    };
    let (eight, at_8) = allocs(8);
    let (sixteen, at_16) = allocs(16);
    assert_eq!(eight, sixteen, "the factor changes no row");
    let per_replica = at_16.saturating_sub(at_8) / 8;
    println!("allocations: {at_8} at 8x, {at_16} at 16x, {per_replica} per added replica");
    assert!(
        per_replica <= PER_REPLICA_BUDGET,
        "an added replica costs {per_replica} allocations, over the budget of {PER_REPLICA_BUDGET} \
         ({at_8} at 8x, {at_16} at 16x)"
    );
}

/// The `serve_hot` table: `X` holds the multiples of 64 below 8,192 × 64
/// in a fixed scrambled order, `K` is the row index mod 64, both `U32`.
fn serve_hot_catalog() -> Catalog {
    const ROWS: u32 = 8_192;
    let x = (0..ROWS).map(|i| (i * 5_003 % ROWS) * 64).collect();
    let k = (0..ROWS).map(|i| i % 64).collect();
    let schema = Schema::new(vec![
        Field::new("X", DataType::U32),
        Field::new("K", DataType::U32),
    ]);
    let table = Table::from_columns(schema, vec![Column::U32(x), Column::U32(k)])
        .expect("two columns of one length");
    let mut catalog = Catalog::new();
    catalog.register("T", table);
    catalog
}

#[test]
fn serve_hot_executes_stay_within_their_byte_budget() {
    const SHAPES: [&str; 3] = [
        "INSERT INTO Out SELECT SUM(X) FROM T",
        // Half the rows.
        "INSERT INTO Out SELECT SUM(X) FROM T WHERE X < 262144",
        // A tenth of the rows.
        "INSERT INTO Out SELECT K FROM T WHERE X > 471859",
    ];
    let catalog = serve_hot_catalog();
    let cfg = DeviceConfig::small().with_host_threads(1);
    let mut total = 0;
    let mut spent = Vec::new();
    for sql in SHAPES {
        let plan = Compiler::new(cfg.clone()).compile_sql(sql, &catalog).expect("shape compiles");
        // The first run warms whatever is allocated once per process.
        let (warm, _) = plan.execute(&catalog).expect("shape runs");
        let (_, before) = counts();
        let (table, _) = plan.execute(&catalog).expect("shape runs");
        let bytes = counts().1 - before;
        assert_eq!(table, warm, "a rerun returns the same table");
        total += bytes;
        spent.push(bytes);
    }
    println!("serve_hot execute bytes: {spent:?}, {total} in all");
    assert!(
        total <= SERVE_HOT_BYTES,
        "the three serve_hot executes allocate {total} bytes ({spent:?}), over the budget of \
         {SERVE_HOT_BYTES}"
    );
}

#[test]
fn a_serve_genomics_round_stays_within_its_byte_budget() {
    let catalog = genesis_bench::scenarios::genomics_catalog();
    let compiler = Compiler::new(DeviceConfig::default().with_host_threads(1));
    let compile = |sql| compiler.compile_sql(sql, &catalog).expect("the script compiles");
    let coverage = compile(include_str!("../scripts/coverage.sql"));
    let mate_distance = compile(include_str!("../scripts/mate_distance.sql"));
    let round = [&coverage, &coverage, &coverage, &mate_distance];
    // The first round warms whatever is allocated once per process.
    let warm: Vec<Table> =
        round.iter().map(|plan| plan.execute(&catalog).expect("the script runs").0).collect();
    let (_, before) = counts();
    for (plan, warm) in round.iter().zip(&warm) {
        let (table, _) = plan.execute(&catalog).expect("the script runs");
        assert_eq!(&table, warm, "a rerun returns the same table");
    }
    let bytes = counts().1 - before;
    println!("serve_genomics round bytes: {bytes}");
    assert!(
        bytes <= GENOMICS_ROUND_BYTES,
        "one serve_genomics round allocates {bytes} bytes, over the budget of \
         {GENOMICS_ROUND_BYTES}"
    );
}
