//! Differential tests of the bind path: the typed pass that takes a
//! request's columns from the catalog to device memory and its results
//! back.
//!
//! For random tables over every column type a scan accepts (`U8`, `U16`,
//! `U32`, `U64`, `Bool` and uniform `Cell` columns; `ListU8`, `ListU16`,
//! `ListBool` and `Cell` lists under the explodes), row counts from zero
//! up, values at the type limits, random pushable conjuncts, pushdown on
//! and off, replication 1/3/8 and 1/2/3 shards, the table a
//! `GenesisServer` returns must equal the software engine's, and the
//! scanned-row count must tile across the shards exactly. A fixed block
//! pins whole `AccelStats` values recorded before the bind path was
//! rewritten: the simulator must see the same bytes at the same
//! addresses, so nothing it counts may move; a fourth pins a scan that
//! projection pushdown pruned. Two more fixed cases hold a table wider
//! than a flit, with columns no Memory Reader can stream, and the spine's
//! partition key cutting the shards when the scan does not stream it.
//!
//! Pushed conjuncts compare where the catalog holds the columns, each
//! element widened to `u64`, before any row is copied. A second
//! generator holds that selection to the SQL engine over one column of
//! every width, with conjuncts on streamed and on host-only columns,
//! column against column, and literals wider than their column, which
//! drop every row or none (a fixed case pins both ends).

mod common;

use common::{
    agg, aggregate, bin, catalog_of, check, col, filter, item, pos_explode, project, read_explode,
    scan, table_of, u32_table, Axes, Road, CMP_OPS,
};
use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::core::perf::AccelStats;
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::sql::ast::{AggFn, BinOp, Expr};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::{Column, Value};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const REPLICATION: [usize; 3] = [1, 3, 8];

/// A numeric value from a seed: the type's limits and a small domain the
/// random literals also draw from, so every comparison outcome occurs.
fn numeric(seed: u64, max: u64) -> u64 {
    match seed % 8 {
        0 => max,
        1 => 0,
        2 => max - 1,
        _ => (seed / 8) % 13,
    }
}

/// Largest value of the `kind`-th numeric scan type.
fn numeric_max(kind: usize) -> u64 {
    match kind % 5 {
        0 => u64::from(u8::MAX),
        1 => u64::from(u16::MAX),
        2 => u64::from(u32::MAX),
        _ => u64::MAX,
    }
}

/// `vals` (each within [`numeric_max`]) as a column of the `kind`-th
/// numeric scan type: the four unsigned widths and uniform numeric cells.
fn numeric_column(kind: usize, vals: impl Iterator<Item = u64>) -> Column {
    match kind % 5 {
        0 => Column::U8(vals.map(|v| v as u8).collect()),
        1 => Column::U16(vals.map(|v| v as u16).collect()),
        2 => Column::U32(vals.map(|v| v as u32).collect()),
        3 => Column::U64(vals.collect()),
        _ => Column::Cell(vals.map(Value::U64).collect()),
    }
}

/// A column of the `kind`-th numeric type holding the seeds' values.
fn seeded_column(kind: usize, seeds: &[u64]) -> Column {
    numeric_column(kind, seeds.iter().map(|&s| numeric(s, numeric_max(kind))))
}

/// A boolean column, typed or dynamically typed.
fn flag_column(cells: bool, seeds: &[u64], bit: u32) -> Column {
    let flags = seeds.iter().map(move |&s| (s >> bit) & 1 == 1);
    if cells {
        Column::Cell(flags.map(Value::Bool).collect())
    } else {
        Column::Bool(flags.collect())
    }
}

/// One pushable conjunct over the columns `A`, `B` (numeric) and `P`, `Q`
/// (boolean): the four operand shapes the scan absorbs.
fn conjunct(shape: usize, op: usize, literal: u64) -> Expr {
    let literal = Expr::Number(numeric(literal, u64::MAX));
    match shape % 4 {
        0 => bin(CMP_OPS[op % 6], col("A"), literal),
        1 => bin(CMP_OPS[op % 6], literal, col("B")),
        2 => bin(CMP_OPS[op % 6], col("A"), col("B")),
        _ => bin(CMP_OPS[op % 2], col("P"), col("Q")),
    }
}

/// The table served on `shards` shards at `replication`, and executed
/// again after a run over the reversed tables, equals the software
/// engine's, and the spine's `spine_rows` scanned rows tile across the
/// shards.
fn differential(
    plan: &LogicalPlan,
    catalog: &Catalog,
    pushdown: &[bool],
    spine_rows: usize,
    (shards, replication): (&[usize], usize),
) -> Result<Vec<(String, AccelStats)>, TestCaseError> {
    let mut roads: Vec<Road> = shards.iter().map(|&s| Road::Served(s)).collect();
    roads.push(Road::Direct);
    let axes = Axes { roads, ..Axes::at(replication).pushdown(pushdown).reused() };
    let runs = check(plan, catalog, &axes)?;
    for (what, stats) in &runs {
        prop_assert!(
            stats.rows_scanned == spine_rows as u64,
            "{what}: {} rows scanned of a {spine_rows}-row spine",
            stats.rows_scanned
        );
    }
    Ok(runs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SELECT * FROM T WHERE <conjuncts>` over every fixed-width scan
    /// type, with each conjunct either absorbed by the scan or lowered to
    /// a Filter module.
    #[test]
    fn served_scan_differential(
        seeds in proptest::collection::vec(0u64..u64::MAX, 0..24),
        kind_a in 0usize..5,
        kind_b in 0usize..5,
        flag_cells in 0usize..2,
        conjuncts in proptest::collection::vec((0usize..4, 0usize..6, 0u64..u64::MAX), 0..3),
        pushdown in 0usize..2,
        shards in 1usize..4,
        rep_i in 0usize..3,
    ) {
        let mixed: Vec<u64> = seeds.iter().map(|s| s.rotate_left(17) ^ 0x9E37_79B9).collect();
        let catalog = catalog_of(vec![("T", table_of(vec![
            ("A", seeded_column(kind_a, &seeds)),
            ("B", seeded_column(kind_b, &mixed)),
            ("P", flag_column(flag_cells == 1, &seeds, 5)),
            ("Q", flag_column(flag_cells == 1, &seeds, 9)),
        ]))]);
        let plan = conjuncts
            .iter()
            .map(|&(shape, op, literal)| conjunct(shape, op, literal))
            .reduce(|acc, e| bin(BinOp::And, acc, e))
            .map_or(scan("T"), |pred| filter(scan("T"), pred));
        let runs = differential(
            &plan,
            &catalog,
            &[pushdown == 1],
            seeds.len(),
            (&[shards], REPLICATION[rep_i]),
        )?;
        if pushdown == 0 {
            prop_assert_eq!(runs[0].1.rows_emitted, runs[0].1.rows_scanned);
        }
    }

    /// `PosExplode` over every list type a scan flattens, positions from
    /// a literal or from a column of each numeric type.
    #[test]
    fn served_pos_explode_differential(
        lists in proptest::collection::vec(proptest::collection::vec(0u64..u64::MAX, 0..6), 0..10),
        list_kind in 0usize..4,
        pos_kind in 0usize..6,
        shards in 1usize..4,
        rep_i in 0usize..3,
    ) {
        let array = match list_kind {
            0 => Column::ListU8(
                lists.iter().map(|l| l.iter().map(|&s| numeric(s, 255) as u8).collect()).collect(),
            ),
            1 => Column::ListU16(
                lists.iter().map(|l| l.iter().map(|&s| numeric(s, 65535) as u16).collect()).collect(),
            ),
            2 => Column::ListBool(
                lists.iter().map(|l| l.iter().map(|&s| s & 1 == 1).collect()).collect(),
            ),
            _ => Column::Cell(
                lists
                    .iter()
                    .map(|l| Value::List(l.iter().map(|&s| Value::U64(numeric(s, u64::MAX))).collect()))
                    .collect(),
            ),
        };
        // Small start positions: no row's run of positions nears a limit.
        let starts = lists.iter().enumerate().map(|(i, l)| (i * 7 + l.len()) as u64 % 200);
        let init_pos = if pos_kind == 5 { Expr::Number(3) } else { col("P") };
        let table = table_of(vec![("ITEMS", array), ("P", numeric_column(pos_kind, starts))]);
        let plan = pos_explode("T", "ITEMS", init_pos);
        let catalog = catalog_of(vec![("T", table)]);
        differential(&plan, &catalog, &[true], lists.len(), (&[shards], REPLICATION[rep_i]))?;
    }

    /// `ReadExplode` with the sequence held as a typed list or as
    /// dynamically-typed cells, with and without a quality column.
    #[test]
    fn served_read_explode_differential(
        reads in proptest::collection::vec((0usize..5, 0u32..6), 0..10),
        seq_cells in 0usize..2,
        with_qual in 0usize..2,
        shards in 1usize..4,
        rep_i in 0usize..3,
    ) {
        // (CIGAR, query bases it consumes).
        const CIGARS: [(&str, usize); 5] =
            [("4M", 4), ("2M1I1M", 4), ("1S3M", 4), ("2M2D2M", 4), ("1S2M1N1M1I1M", 6)];
        let mut pos = Vec::new();
        let mut next = 1u32;
        for &(_, gap) in &reads {
            next += gap;
            pos.push(next);
        }
        let cigars = reads
            .iter()
            .map(|&(c, _)| CIGARS[c].0.parse::<genesis::types::Cigar>().unwrap().pack().unwrap())
            .collect();
        let bases = |salt: usize| -> Vec<Vec<u8>> {
            reads
                .iter()
                .enumerate()
                .map(|(i, &(c, _))| (0..CIGARS[c].1).map(|j| ((i + j + salt) % 4) as u8).collect())
                .collect()
        };
        let seq = if seq_cells == 1 {
            Column::Cell(
                bases(0)
                    .into_iter()
                    .map(|b| Value::List(b.into_iter().map(Value::from).collect()))
                    .collect(),
            )
        } else {
            Column::ListU8(bases(0))
        };
        let catalog = catalog_of(vec![("READS", table_of(vec![
            ("POS", Column::U32(pos)),
            ("CIGAR", Column::ListU16(cigars)),
            ("SEQ", seq),
            ("QUAL", Column::ListU8(bases(1))),
        ]))]);
        let plan = read_explode("READS", with_qual == 1);
        differential(&plan, &catalog, &[true], reads.len(), (&[shards], REPLICATION[rep_i]))?;
    }
}

/// Literals a selection conjunct draws from: each width's limits, the
/// values just past them, and the two the wide-literal cases name.
const SELECT_LITERALS: [u64; 11] =
    [0, 1, 7, 255, 256, 300, 65_535, 65_536, 4_294_967_295, 4_294_967_296, u64::MAX];

/// The selection table: `A: U8`, `B: U16`, `X: U32`, `W: U64`, `P` and
/// `Q: Bool` and `C`, uniform numeric cells, from the seeds.
fn select_table(seeds: &[u64]) -> genesis::types::Table {
    let seeded = |kind: usize, salt: u32| {
        let mixed: Vec<u64> = seeds.iter().map(|s| s.rotate_left(salt) ^ u64::from(salt)).collect();
        seeded_column(kind, &mixed)
    };
    table_of(vec![
        ("A", seeded(0, 0)),
        ("B", seeded(1, 7)),
        ("X", seeded(2, 13)),
        ("W", seeded(3, 29)),
        ("P", flag_column(false, seeds, 3)),
        ("Q", flag_column(false, seeds, 11)),
        ("C", seeded(4, 41)),
    ])
}

/// One pushable conjunct over [`select_table`]: on a column the plan
/// streams (`A`, `X`), on one only the selection reads (`B`, `W`, `C`,
/// and the booleans), or column against column across widths.
fn select_conjunct(shape: usize, op: usize, literal: usize) -> Expr {
    let (cmp, lit) = (CMP_OPS[op % 6], Expr::Number(SELECT_LITERALS[literal % 11]));
    match shape % 9 {
        0 => bin(cmp, col("A"), lit),
        1 => bin(cmp, col("X"), lit),
        2 => bin(cmp, lit, col("B")),
        3 => bin(cmp, col("W"), lit),
        4 => bin(cmp, col("C"), lit),
        5 => bin(cmp, col("A"), col("B")),
        6 => bin(cmp, col("X"), col("C")),
        7 => bin(cmp, col("W"), col("X")),
        // Booleans compare for equality only.
        _ => bin(CMP_OPS[op % 2], col("P"), col("Q")),
    }
}

/// `SELECT A, X` (every other column read by the selection alone),
/// `SELECT *` or `SELECT SUM(X)` over `T WHERE pred`.
fn select_plan(kind: usize, pred: Option<Expr>) -> LogicalPlan {
    let input = pred.map_or(scan("T"), |pred| filter(scan("T"), pred));
    match kind % 3 {
        0 => project(input, vec![item("A"), item("X")]),
        1 => input,
        _ => aggregate(input, vec![agg(AggFn::Sum, Some("X"))]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pushed conjuncts over every scan width select, before any copy,
    /// exactly the rows the SQL engine keeps, pushdown on and off.
    #[test]
    fn served_select_differential(
        seeds in proptest::collection::vec(0u64..u64::MAX, 0..40),
        conjuncts in proptest::collection::vec((0usize..9, 0usize..6, 0usize..11), 0..4),
        kind in 0usize..3,
        shards in 1usize..4,
        rep_i in 0usize..3,
    ) {
        let catalog = catalog_of(vec![("T", select_table(&seeds))]);
        let pred = conjuncts
            .iter()
            .map(|&(shape, op, literal)| select_conjunct(shape, op, literal))
            .reduce(|acc, e| bin(BinOp::And, acc, e));
        let plan = select_plan(kind, pred);
        let at = (&[shards][..], REPLICATION[rep_i]);
        differential(&plan, &catalog, &[true, false], seeds.len(), at)?;
    }
}

/// Literals wider than their column: `A < 300` on a `U8` and
/// `X <= 4294967296` on a `U32` keep every row (the literal is never
/// narrowed to the column's width, where it would read 44 and 0), and
/// `A > 300` drops every one; each through a streamed and a host-only
/// operand, at 1–3 shards.
#[test]
fn wide_literals_select_all_rows_or_none() {
    let seeds: Vec<u64> = (0..48u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let catalog = catalog_of(vec![("T", select_table(&seeds))]);
    let lit = |n: u64| Expr::Number(n);
    let cases = [
        (bin(BinOp::Lt, col("A"), lit(300)), seeds.len()),
        (bin(BinOp::Le, col("X"), lit(4_294_967_296)), seeds.len()),
        (bin(BinOp::Gt, col("A"), lit(300)), 0),
    ];
    for (pred, kept) in cases {
        for kind in 0..3 {
            let plan = select_plan(kind, Some(pred.clone()));
            let runs = differential(&plan, &catalog, &[true], seeds.len(), (&[1, 2, 3], 3)).unwrap();
            for (what, stats) in runs {
                assert_eq!(stats.rows_emitted, kept as u64, "{what}: {pred:?} over plan {kind}");
            }
        }
    }
}

/// Whole-`AccelStats` pins, recorded at the commit before the bind path
/// became one typed pass (c81e6f2): cycles, flits, stall buckets, memory
/// and DMA traffic and the scan counters of three fixed jobs. The module
/// tick census was added later, at its value then. The fourth job, the
/// `serve_hot` `SUM(X)` shape, was pinned with projection pushdown: its
/// scan streams `X` alone, where streaming both columns through a Zip
/// took 77 cycles, 800 DMA-in bytes, 1,152 device bytes and 304 flits.
/// The two filtered-scan jobs were re-pinned when a two-column scan
/// became one multi-lane Memory Reader: the same cycles, traffic and
/// rows, and a third of the flits (90 → 30) with half the ticks and stall
/// cycles, the per-column readers' and the Zip's hops gone. The explode
/// job was re-pinned when ReadToBases began to overlap read boundaries:
/// the same traffic, rows and flits in 61 cycles (69 before), 213 ticks
/// (234) and 305 active and 268 input-starved cycles (405 and 288).
#[test]
fn accel_stats_are_what_they_were() {
    let xs: Vec<u32> = (0..100u32).map(|i| i * 37 % 101).collect();
    let ks: Vec<u32> = (0..100).map(|i| i % 7).collect();
    let catalog = catalog_of(vec![("T", u32_table(vec![("X", xs), ("K", ks)]))]);
    let filtered = filter(scan("T"), bin(BinOp::Lt, col("X"), Expr::Number(30)));
    let lists = (0..12u8).map(|i| (0..i % 5).collect()).collect();
    let exploded_catalog =
        catalog_of(vec![("R", table_of(vec![("ITEMS", Column::ListU8(lists))]))]);
    let exploded = pos_explode("R", "ITEMS", Expr::Number(10));
    let summed = aggregate(scan("T"), vec![agg(AggFn::Sum, Some("X"))]);
    let cases: [(&str, &LogicalPlan, &Catalog, usize, usize, &str); 4] = [
        ("filtered scan, unsharded", &filtered, &catalog, 1, 2, PIN_FILTERED),
        ("filtered scan, 3 shards", &filtered, &catalog, 3, 2, PIN_FILTERED_SHARDED),
        ("explode, 2 shards", &exploded, &exploded_catalog, 2, 3, PIN_EXPLODED),
        ("pruned scan, unsharded", &summed, &catalog, 1, 2, PIN_PRUNED),
    ];
    for (what, plan, cat, shards, replication, pin) in cases {
        let axes = Axes { roads: vec![Road::Served(shards)], ..Axes::at(replication) };
        let (_, mut stats) = check(plan, cat, &axes).unwrap().remove(0);
        // The first run of a plan misses the pipeline cache; the penalty
        // is the server's, not the bind path's.
        stats.cycles -= stats.reconfig_cycles;
        stats.reconfig_cycles = 0;
        assert_eq!(format!("{stats:?}"), pin, "{what}");
    }
    // The synchronous road binds through the same pass.
    let (_, stats) = check(&filtered, &catalog, &Axes::at(2)).unwrap().remove(0);
    assert_eq!(format!("{stats:?}"), PIN_FILTERED, "filtered scan, PipelinePlan::execute");
}

const PIN_FILTERED: &str = "\
    AccelStats { cycles: 37, dma_in_bytes: 240, dma_out_bytes: 480, dma_transfers: 4, \
    device_mem_bytes: 768, invocations: 1, backpressure_stalls: 0, total_flits: 30, \
    module_ticks: 69, active_cycles: 70, input_starved_cycles: 40, backpressured_cycles: 0, \
    memory_wait_cycles: 38, spill_wait_cycles: 0, tier_pages_filled: 0, tier_pages_spilled: 0, \
    tier_prefetch_hits: 0, tier_pcie_bytes: 0, rows_scanned: 100, rows_emitted: 30, \
    reconfig_cycles: 0, faults: FaultReport { dma_errors: 0, dma_timeouts: 0, device_faults: 0, \
    mem_spikes: 0, retries: 0, backoff_ns: 0, fallback_batches: 0, fallback_jobs: 0 } }";
const PIN_FILTERED_SHARDED: &str = "\
    AccelStats { cycles: 81, dma_in_bytes: 240, dma_out_bytes: 480, dma_transfers: 12, \
    device_mem_bytes: 1536, invocations: 3, backpressure_stalls: 0, total_flits: 30, \
    module_ticks: 87, active_cycles: 87, input_starved_cycles: 123, backpressured_cycles: 0, \
    memory_wait_cycles: 114, spill_wait_cycles: 0, tier_pages_filled: 0, tier_pages_spilled: 0, \
    tier_prefetch_hits: 0, tier_pcie_bytes: 0, rows_scanned: 100, rows_emitted: 30, \
    reconfig_cycles: 0, faults: FaultReport { dma_errors: 0, dma_timeouts: 0, device_faults: 0, \
    mem_spikes: 0, retries: 0, backoff_ns: 0, fallback_batches: 0, fallback_jobs: 0 } }";
const PIN_EXPLODED: &str = "\
    AccelStats { cycles: 61, dma_in_bytes: 135, dma_out_bytes: 336, dma_transfers: 12, \
    device_mem_bytes: 1920, invocations: 2, backpressure_stalls: 0, total_flits: 99, \
    module_ticks: 213, active_cycles: 305, input_starved_cycles: 268, backpressured_cycles: 0, \
    memory_wait_cycles: 342, spill_wait_cycles: 0, tier_pages_filled: 0, tier_pages_spilled: 0, \
    tier_prefetch_hits: 0, tier_pcie_bytes: 0, rows_scanned: 12, rows_emitted: 12, \
    reconfig_cycles: 0, faults: FaultReport { dma_errors: 0, dma_timeouts: 0, device_faults: 0, \
    mem_spikes: 0, retries: 0, backoff_ns: 0, fallback_batches: 0, fallback_jobs: 0 } }";
const PIN_PRUNED: &str = "\
    AccelStats { cycles: 74, dma_in_bytes: 400, dma_out_bytes: 8, dma_transfers: 4, \
    device_mem_bytes: 640, invocations: 1, backpressure_stalls: 0, total_flits: 104, \
    module_ticks: 228, active_cycles: 230, input_starved_cycles: 182, backpressured_cycles: 0, \
    memory_wait_cycles: 32, spill_wait_cycles: 0, tier_pages_filled: 0, \
    tier_pages_spilled: 0, tier_prefetch_hits: 0, tier_pcie_bytes: 0, \
    rows_scanned: 100, rows_emitted: 100, reconfig_cycles: 0, \
    faults: FaultReport { dma_errors: 0, dma_timeouts: 0, device_faults: 0, \
    mem_spikes: 0, retries: 0, backoff_ns: 0, fallback_batches: 0, fallback_jobs: 0 } }";

/// A ten-column table, two of them lists and one a string, scanned for
/// two numeric columns: wider than a flit and holding columns no Memory
/// Reader streams, it lowers because only the two are bound, and matches
/// the SQL engine with pushdown on and off at 1–3 shards.
#[test]
fn wide_table_scanned_for_two_columns() {
    let rows = 40u32;
    let mut cols: Vec<(String, Column)> = (0..7u32)
        .map(|c| (format!("C{c}"), Column::U32((0..rows).map(|r| (r * 7 + c * 13) % 50).collect())))
        .collect();
    cols.push(("NAME".into(), Column::Str((0..rows).map(|r| format!("r{r}")).collect())));
    cols.push(("SEQ".into(), Column::ListU8((0..rows).map(|r| vec![r as u8; 3]).collect())));
    cols.push(("FLAGS".into(), Column::ListBool((0..rows).map(|r| vec![r % 2 == 0]).collect())));
    let table = table_of(cols.iter().map(|(n, c)| (n.as_str(), c.clone())).collect());
    let catalog = catalog_of(vec![("T", table)]);
    let plan = aggregate(
        filter(scan("T"), bin(BinOp::Lt, col("C2"), Expr::Number(30))),
        vec![agg(AggFn::Sum, Some("C5")), agg(AggFn::Sum, Some("C2"))],
    );
    let compiled = Compiler::new(DeviceConfig::small()).compile(&plan, &catalog).unwrap();
    assert!(
        compiled.explain().contains("Scan(T) -> MemoryReader (2 of 10 columns)"),
        "{}",
        compiled.explain()
    );
    differential(&plan, &catalog, &[true, false], rows as usize, (&[1, 2, 3], 2)).unwrap();
}

/// `SUM(X)` streams `X` alone, yet its four shards are still cut on the
/// spine's (chromosome, position window) key: chromosome runs of 40, 20,
/// 20 and 20 rows give three shards of 40, 40 and 20, where an equal
/// split would give four of 25.
#[test]
fn partition_key_cuts_shards_without_streaming() {
    let chr: Vec<u8> = [(1, 40), (2, 20), (3, 20), (4, 20)]
        .iter()
        .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
        .collect();
    let pos: Vec<u32> = (0..100).map(|i| i * 10).collect();
    let xs: Vec<u32> = (0..100).collect();
    let table =
        table_of(vec![("CHR", Column::U8(chr)), ("POS", Column::U32(pos)), ("X", Column::U32(xs))]);
    let catalog = catalog_of(vec![("R", table)]);
    let plan = aggregate(scan("R"), vec![agg(AggFn::Sum, Some("X"))]);
    let compiled = Compiler::new(DeviceConfig::small()).compile(&plan, &catalog).unwrap();
    assert!(compiled.explain().contains("(1 of 3 columns)"), "{}", compiled.explain());
    let server = GenesisServer::new(
        ServerConfig::default().with_devices(4, DeviceConfig::small()).with_shards(4),
    );
    let (table, stats) = server
        .submit(Request::new("t", plan.clone()), &catalog)
        .and_then(|ticket| ticket.wait())
        .unwrap();
    assert_eq!(table.row(0), vec![Value::U64((0..100).sum())]);
    assert_eq!(stats.rows_scanned, 100);
    let log = server.schedule_log();
    assert_eq!(log.len(), 3, "{log:?}");
    assert!(log.iter().all(|r| r.shards == 3), "{log:?}");
    let span = |i: usize| log[i].modeled_end - log[i].modeled_start;
    assert_eq!(span(0), span(1), "the two 40-row shards take the same time");
    assert!(span(2) < span(0), "the 20-row shard is shorter");
}
