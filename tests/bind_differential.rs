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
//! addresses, so nothing it counts may move.

use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::core::perf::AccelStats;
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::sql::ast::{BinOp, ColRef, Expr};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::{Column, Field, Schema, Table, Value};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const REPLICATION: [usize; 3] = [1, 3, 8];
const CMP_OPS: [BinOp; 6] = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];

fn table_of(cols: Vec<(&str, Column)>) -> Table {
    let schema = Schema::new(cols.iter().map(|(n, c)| Field::new(n, c.dtype())).collect());
    Table::from_columns(schema, cols.into_iter().map(|(_, c)| c).collect()).unwrap()
}

fn catalog_of(name: &str, cols: Vec<(&str, Column)>) -> Catalog {
    let mut cat = Catalog::new();
    cat.register(name, table_of(cols));
    cat
}

fn scan(t: &str) -> LogicalPlan {
    LogicalPlan::Scan { table: t.to_owned(), partition: None }
}

fn col(name: &str) -> Expr {
    Expr::Col(ColRef::bare(name))
}

fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
}

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

fn assert_tables(hw: &Table, sw: &Table, what: &str) -> Result<(), TestCaseError> {
    let names = |t: &Table| -> Vec<String> {
        t.schema().fields().iter().map(|f| f.name.clone()).collect()
    };
    if names(hw) != names(sw) {
        return Err(TestCaseError::fail(format!(
            "{what}: schema differs: hw {:?} sw {:?}",
            names(hw),
            names(sw)
        )));
    }
    if hw.num_rows() != sw.num_rows() {
        return Err(TestCaseError::fail(format!(
            "{what}: row count differs: hw {} sw {}",
            hw.num_rows(),
            sw.num_rows()
        )));
    }
    for r in 0..hw.num_rows() {
        if hw.row(r) != sw.row(r) {
            return Err(TestCaseError::fail(format!(
                "{what}: row {r} differs: hw {:?} sw {:?}",
                hw.row(r),
                sw.row(r)
            )));
        }
    }
    Ok(())
}

/// Serves `plan` on a one-device pool and returns the table and stats.
fn serve(
    plan: &LogicalPlan,
    catalog: &Catalog,
    device: DeviceConfig,
    shards: usize,
    replication: usize,
) -> Result<(Table, AccelStats), TestCaseError> {
    let server =
        GenesisServer::new(ServerConfig::default().with_devices(1, device).with_shards(shards));
    server
        .submit(Request::new("t", plan.clone()).with_replication(replication), catalog)
        .and_then(|ticket| ticket.wait())
        .map_err(|e| TestCaseError::fail(format!("served run failed: {e}")))
}

/// The served table equals the software engine's, and the spine's
/// `spine_rows` scanned rows tile across the shards.
fn differential(
    plan: &LogicalPlan,
    catalog: &Catalog,
    device: DeviceConfig,
    spine_rows: usize,
    (shards, replication): (usize, usize),
) -> Result<AccelStats, TestCaseError> {
    let what = format!("{shards} shard(s) at {replication}x, pushdown {}", device.pushdown);
    let sw = execute_plan(plan, catalog, &Env::default())
        .map_err(|e| TestCaseError::fail(format!("software run failed: {e}")))?;
    let (hw, stats) = serve(plan, catalog, device, shards, replication)?;
    assert_tables(&hw, &sw, &what)?;
    if stats.rows_scanned != spine_rows as u64 {
        return Err(TestCaseError::fail(format!(
            "{what}: {} rows scanned of a {spine_rows}-row spine",
            stats.rows_scanned
        )));
    }
    Ok(stats)
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
        let catalog = catalog_of("T", vec![
            ("A", seeded_column(kind_a, &seeds)),
            ("B", seeded_column(kind_b, &mixed)),
            ("P", flag_column(flag_cells == 1, &seeds, 5)),
            ("Q", flag_column(flag_cells == 1, &seeds, 9)),
        ]);
        let plan = conjuncts
            .iter()
            .map(|&(shape, op, literal)| conjunct(shape, op, literal))
            .reduce(|acc, e| bin(BinOp::And, acc, e))
            .map_or(scan("T"), |pred| LogicalPlan::Filter { input: Box::new(scan("T")), pred });
        let device = DeviceConfig::small().with_pushdown(pushdown == 1);
        let stats =
            differential(&plan, &catalog, device, seeds.len(), (shards, REPLICATION[rep_i]))?;
        if pushdown == 0 {
            prop_assert_eq!(stats.rows_emitted, stats.rows_scanned);
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
        let catalog =
            catalog_of("T", vec![("ITEMS", array), ("P", numeric_column(pos_kind, starts))]);
        let plan = LogicalPlan::PosExplode {
            input: Box::new(scan("T")),
            array: ColRef::bare("ITEMS"),
            init_pos,
        };
        differential(
            &plan,
            &catalog,
            DeviceConfig::small(),
            lists.len(),
            (shards, REPLICATION[rep_i]),
        )?;
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
        let catalog = catalog_of("READS", vec![
            ("POS", Column::U32(pos)),
            ("CIGAR", Column::ListU16(cigars)),
            ("SEQ", seq),
            ("QUAL", Column::ListU8(bases(1))),
        ]);
        let plan = LogicalPlan::ReadExplode {
            input: Box::new(scan("READS")),
            pos: col("POS"),
            cigar: ColRef::bare("CIGAR"),
            seq: ColRef::bare("SEQ"),
            qual: (with_qual == 1).then(|| ColRef::bare("QUAL")),
        };
        differential(
            &plan,
            &catalog,
            DeviceConfig::small(),
            reads.len(),
            (shards, REPLICATION[rep_i]),
        )?;
    }
}

/// Whole-`AccelStats` pins, recorded at the commit before the bind path
/// became one typed pass (c81e6f2): cycles, flits, stall buckets, memory
/// and DMA traffic and the scan counters of three fixed jobs. The module
/// tick census was added later, at its value then.
#[test]
fn accel_stats_are_what_they_were() {
    let xs: Vec<u32> = (0..100u32).map(|i| i * 37 % 101).collect();
    let ks: Vec<u32> = (0..100).map(|i| i % 7).collect();
    let catalog = catalog_of("T", vec![("X", Column::U32(xs)), ("K", Column::U32(ks))]);
    let filtered = LogicalPlan::Filter {
        input: Box::new(scan("T")),
        pred: bin(BinOp::Lt, col("X"), Expr::Number(30)),
    };
    let lists = (0..12u8).map(|i| (0..i % 5).collect()).collect();
    let exploded_catalog = catalog_of("R", vec![("ITEMS", Column::ListU8(lists))]);
    let exploded = LogicalPlan::PosExplode {
        input: Box::new(scan("R")),
        array: ColRef::bare("ITEMS"),
        init_pos: Expr::Number(10),
    };
    let cases: [(&str, &LogicalPlan, &Catalog, usize, usize, &str); 3] = [
        ("filtered scan, unsharded", &filtered, &catalog, 1, 2, PIN_FILTERED),
        ("filtered scan, 3 shards", &filtered, &catalog, 3, 2, PIN_FILTERED_SHARDED),
        ("explode, 2 shards", &exploded, &exploded_catalog, 2, 3, PIN_EXPLODED),
    ];
    for (what, plan, cat, shards, replication, pin) in cases {
        let (_, mut stats) = serve(plan, cat, DeviceConfig::small(), shards, replication).unwrap();
        // The first run of a plan misses the pipeline cache; the penalty
        // is the server's, not the bind path's.
        stats.cycles -= stats.reconfig_cycles;
        stats.reconfig_cycles = 0;
        assert_eq!(format!("{stats:?}"), pin, "{what}");
    }
    // The synchronous road binds through the same pass.
    let compiled = Compiler::new(DeviceConfig::small()).compile(&filtered, &catalog).unwrap();
    let (_, stats) = compiled.execute_replicated(&catalog, 2).unwrap();
    assert_eq!(format!("{stats:?}"), PIN_FILTERED, "filtered scan, PipelinePlan::execute");
}

const PIN_FILTERED: &str = "\
    AccelStats { cycles: 37, dma_in_bytes: 240, dma_out_bytes: 480, dma_transfers: 4, \
    device_mem_bytes: 768, invocations: 1, backpressure_stalls: 0, total_flits: 150, \
    module_ticks: 206, active_cycles: 208, input_starved_cycles: 160, backpressured_cycles: 0, \
    memory_wait_cycles: 76, spill_wait_cycles: 0, tier_pages_filled: 0, \
    tier_pages_spilled: 0, tier_prefetch_hits: 0, tier_pcie_bytes: 0, \
    rows_scanned: 100, rows_emitted: 30, reconfig_cycles: 0, \
    faults: FaultReport { dma_errors: 0, dma_timeouts: 0, device_faults: 0, \
    mem_spikes: 0, retries: 0, backoff_ns: 0, fallback_batches: 0, fallback_jobs: 0 } }";
const PIN_FILTERED_SHARDED: &str = "\
    AccelStats { cycles: 81, dma_in_bytes: 240, dma_out_bytes: 480, dma_transfers: 12, \
    device_mem_bytes: 1536, invocations: 3, backpressure_stalls: 0, total_flits: 150, \
    module_ticks: 258, active_cycles: 252, input_starved_cycles: 492, backpressured_cycles: 0, \
    memory_wait_cycles: 228, spill_wait_cycles: 0, tier_pages_filled: 0, \
    tier_pages_spilled: 0, tier_prefetch_hits: 0, tier_pcie_bytes: 0, \
    rows_scanned: 100, rows_emitted: 30, reconfig_cycles: 0, \
    faults: FaultReport { dma_errors: 0, dma_timeouts: 0, device_faults: 0, \
    mem_spikes: 0, retries: 0, backoff_ns: 0, fallback_batches: 0, fallback_jobs: 0 } }";
const PIN_EXPLODED: &str = "\
    AccelStats { cycles: 73, dma_in_bytes: 135, dma_out_bytes: 336, dma_transfers: 12, \
    device_mem_bytes: 1920, invocations: 2, backpressure_stalls: 0, total_flits: 174, \
    module_ticks: 396, active_cycles: 600, input_starved_cycles: 810, backpressured_cycles: 0, \
    memory_wait_cycles: 342, spill_wait_cycles: 0, tier_pages_filled: 0, \
    tier_pages_spilled: 0, tier_prefetch_hits: 0, tier_pcie_bytes: 0, rows_scanned: 12, \
    rows_emitted: 12, reconfig_cycles: 0, faults: FaultReport { dma_errors: 0, \
    dma_timeouts: 0, device_faults: 0, mem_spikes: 0, retries: 0, backoff_ns: 0, \
    fallback_batches: 0, fallback_jobs: 0 } }";
