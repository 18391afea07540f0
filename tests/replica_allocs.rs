//! Allocation budget of a replica: what the host allocates to build, run
//! and read back one more pipeline copy of compiled coverage.
//!
//! A counting global allocator wraps the system one. Compiled coverage
//! runs on the genomics catalog at 8 and at 16 replicas, one host thread,
//! and the difference over the 8 added replicas is the per-replica cost:
//! module and queue labels, the engine's per-module tables, memory-port
//! buffers, the sink's read-back. The binding runs once per request at
//! either factor, so it cancels.
//!
//! A replica cost 147 allocations here before the budget (labels formatted
//! three times and copied twice, a fresh queue list per module per run, a
//! stall report that copied every label, growing line and response
//! buffers, a two-step read-back); it costs 56 now.

use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Most heap allocations one added replica of compiled coverage may cost.
const PER_REPLICA_BUDGET: u64 = 60;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
        let before = ALLOCS.load(Ordering::Relaxed);
        let (table, _) = plan.execute_replicated(&catalog, factor).expect("coverage runs");
        let spent = ALLOCS.load(Ordering::Relaxed) - before;
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
