//! Differential tests of a replica's reach: each replica of a compiled
//! merge join streams only the right rows its spine slice can match — a
//! binary-searched row range of a plain scan, or the positions of a
//! `PosExplode` with its edge rows trimmed — and the tables must stay
//! the SQL engine's at every replication factor and shard count.
//!
//! A proptest draws the right input (an ascending-key scan or the
//! `PosExplode` of a 1–3-row reference), the join kind, optional filters
//! on either side, a factor of 1–16 and 1–3 served shards. Fixed cases
//! hold the negatives: a right key that ascends inside every replica's
//! cut but not over the whole table is refused as before, a computed left
//! key and a right key renamed by a `Project` are not cut, and a replica
//! whose cut is empty still runs. A pinned case holds the mate-distance
//! histogram's fall in flits.

use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::core::perf::AccelStats;
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::sql::ast::{BinOp, ColRef, Expr, JoinKind, SelectItem};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::{Column, Field, Schema, Table};
use genesis_bench::scenarios::{genomics_catalog, genomics_workloads};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const CMP_OPS: [BinOp; 6] = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];

fn table_of(cols: Vec<(&str, Column)>) -> Table {
    let schema = Schema::new(cols.iter().map(|(n, c)| Field::new(n, c.dtype())).collect());
    Table::from_columns(schema, cols.into_iter().map(|(_, c)| c).collect()).unwrap()
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

/// `input`, under `column <op> literal` when a filter is drawn.
fn filtered(input: LogicalPlan, column: &str, filter: Option<(usize, u64)>) -> LogicalPlan {
    match filter {
        None => input,
        Some((op, lit)) => LogicalPlan::Filter {
            input: Box::new(input),
            pred: bin(CMP_OPS[op % 6], col(column), Expr::Number(lit)),
        },
    }
}

/// `REF`'s `PosExplode`: one row per position, `POS` and `SEQ`.
fn ref_explode() -> LogicalPlan {
    LogicalPlan::PosExplode {
        input: Box::new(scan("REF")),
        array: ColRef::bare("SEQ"),
        init_pos: col("POS"),
    }
}

fn join(kind: JoinKind, left: LogicalPlan, right: LogicalPlan, keys: (&str, &str)) -> LogicalPlan {
    LogicalPlan::Join {
        kind,
        left: Box::new(left),
        right: Box::new(right),
        left_key: ColRef::bare(keys.0),
        right_key: ColRef::bare(keys.1),
    }
}

/// Strictly ascending keys from `start`, each `gap + 1` past the last.
fn ascending(start: u32, gaps: &[u32]) -> Vec<u32> {
    gaps.iter()
        .scan(start, |k, &gap| {
            let at = *k;
            *k += gap + 1;
            Some(at)
        })
        .collect()
}

/// `L(LK, LV)` over `lk`, `R(RK, RW)` over `rk`, and a `REF(POS, SEQ)` of
/// chained rows `(items, gap)`: each row's positions start `gap` past the
/// last row's end, so the explode's positions ascend.
fn catalog(lk: Vec<u32>, rk: Vec<u32>, ref_start: u32, ref_rows: &[(usize, u32)]) -> Catalog {
    let lv = lk.iter().map(|k| (k * 7 + 3) % 23).collect();
    let rw = rk.iter().map(|k| (k * 5 + 1) % 19).collect();
    let mut pos = Vec::new();
    let mut seq = Vec::new();
    let mut next = ref_start;
    for (i, &(items, gap)) in ref_rows.iter().enumerate() {
        pos.push(next);
        seq.push((0..items).map(|j| ((i + j) % 4) as u8).collect::<Vec<u8>>());
        next += items as u32 + gap;
    }
    let mut cat = Catalog::new();
    cat.register("L", table_of(vec![("LK", Column::U32(lk)), ("LV", Column::U32(lv))]));
    cat.register("R", table_of(vec![("RK", Column::U32(rk)), ("RW", Column::U32(rw))]));
    cat.register("REF", table_of(vec![("POS", Column::U32(pos)), ("SEQ", Column::ListU8(seq))]));
    cat
}

fn assert_tables(hw: &Table, sw: &Table, what: &str) -> Result<(), TestCaseError> {
    let names = |t: &Table| -> Vec<String> {
        t.schema().fields().iter().map(|f| f.name.clone()).collect()
    };
    prop_assert!(names(hw) == names(sw), "{what}: schema {:?} vs {:?}", names(hw), names(sw));
    prop_assert!(
        hw.num_rows() == sw.num_rows(),
        "{what}: {} rows vs {}",
        hw.num_rows(),
        sw.num_rows()
    );
    for r in 0..hw.num_rows() {
        prop_assert!(hw.row(r) == sw.row(r), "{what}: row {r}: {:?} vs {:?}", hw.row(r), sw.row(r));
    }
    Ok(())
}

/// The compiled plan at `factor` and served at `shards` (same factor)
/// both equal the software engine; every leaf row is still scanned, and
/// no replica streams more than the rows it scanned. Returns the
/// unsharded stats.
fn differential(
    plan: &LogicalPlan,
    catalog: &Catalog,
    factor: usize,
    shards: usize,
) -> Result<AccelStats, TestCaseError> {
    let sw = execute_plan(plan, catalog, &Env::default())
        .map_err(|e| TestCaseError::fail(format!("software run failed: {e}")))?;
    let compiled = Compiler::new(DeviceConfig::small())
        .compile(plan, catalog)
        .map_err(|e| TestCaseError::fail(format!("compile failed: {e}")))?;
    let (hw, stats) = compiled
        .execute_replicated(catalog, factor)
        .map_err(|e| TestCaseError::fail(format!("run at {factor}x failed: {e}")))?;
    assert_tables(&hw, &sw, &format!("{factor}x"))?;
    let server = GenesisServer::new(
        ServerConfig::default().with_devices(1, DeviceConfig::small()).with_shards(shards),
    );
    let (served, served_stats) = server
        .submit(Request::new("t", plan.clone()).with_replication(factor), catalog)
        .and_then(|ticket| ticket.wait())
        .map_err(|e| TestCaseError::fail(format!("served run failed: {e}")))?;
    assert_tables(&served, &sw, &format!("{shards} shard(s) at {factor}x"))?;
    for s in [&stats, &served_stats] {
        prop_assert!(s.rows_emitted <= s.rows_scanned, "{:?}", s);
    }
    Ok(stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `L ⋈ R` or `L ⋈ PosExplode(REF)`, inner or left, with optional
    /// filters on either side, at 1–16 replicas and 1–3 shards.
    #[test]
    fn cut_joins_match_the_sql_engine(
        lstart in 0u32..24,
        lgaps in proptest::collection::vec(0u32..4, 1..40),
        rstart in 0u32..24,
        rgaps in proptest::collection::vec(0u32..4, 0..40),
        ref_start in 0u32..24,
        ref_rows in proptest::collection::vec((1usize..30, 0u32..5), 1..4),
        explode in 0usize..2,
        left_join in 0usize..2,
        lfilter in (0usize..8, 0u64..23),
        rfilter in (0usize..8, 0u64..19),
        factor in 1usize..17,
        shards in 1usize..4,
    ) {
        let cat = catalog(ascending(lstart, &lgaps), ascending(rstart, &rgaps), ref_start, &ref_rows);
        let kind = if left_join == 1 { JoinKind::Left } else { JoinKind::Inner };
        // Six comparators, or (one time in four) no filter.
        let (lfilter, rfilter) = (Some(lfilter).filter(|f| f.0 < 6), Some(rfilter).filter(|f| f.0 < 6));
        let left = filtered(scan("L"), "LV", lfilter);
        let plan = if explode == 1 {
            let rfilter = rfilter.map(|(op, lit)| (op, lit % 4));
            join(kind, left, filtered(ref_explode(), "SEQ", rfilter), ("LK", "POS"))
        } else {
            join(kind, left, filtered(scan("R"), "RW", rfilter), ("LK", "RK"))
        };
        differential(&plan, &cat, factor, shards)?;
    }
}

/// The error text of compiling `plan` over `catalog`.
fn compile_error(plan: &LogicalPlan, catalog: &Catalog) -> String {
    match Compiler::new(DeviceConfig::small()).compile(plan, catalog) {
        Ok(_) => panic!("the plan compiled"),
        Err(e) => e.to_string(),
    }
}

/// Right keys 10, 9 break the order past every left key: each replica's
/// cut, `[1, 3]`, ascends, the whole table does not. The plan is refused
/// at compile time, and a plan compiled over ordered data is refused at
/// run time over these, both with the uncut build's text.
#[test]
fn right_key_ascending_only_inside_the_cuts_is_refused() {
    let plan = join(JoinKind::Inner, scan("L"), scan("R"), ("LK", "RK"));
    let bad = catalog(vec![1, 2, 3], vec![1, 2, 3, 10, 9], 0, &[(1, 0)]);
    let text = compile_error(&plan, &bad);
    assert!(text.contains("right key RK is not strictly increasing"), "{text}");
    let good = catalog(vec![1, 2, 3], vec![1, 2, 3, 10, 11], 0, &[(1, 0)]);
    let compiled = Compiler::new(DeviceConfig::small()).compile(&plan, &good).unwrap();
    for factor in 1..=3 {
        let err = compiled.execute_replicated(&bad, factor).unwrap_err();
        assert_eq!(err.to_string(), text, "{factor}x");
    }
}

/// `LK + 1 AS K` streams from no spine column, so nothing bounds a cut:
/// a computed key does not ascend as far as the lowering knows, and the
/// join is refused exactly as it was before any cut.
#[test]
fn computed_left_key_is_not_cut() {
    let computed = LogicalPlan::Project {
        input: Box::new(scan("L")),
        items: vec![
            SelectItem::Expr {
                expr: bin(BinOp::Add, col("LK"), Expr::Number(1)),
                alias: Some("K".into()),
            },
            SelectItem::Expr { expr: col("LV"), alias: None },
        ],
    };
    let cat = catalog(vec![1, 2, 3], (0..40).collect(), 0, &[(1, 0)]);
    let plan = join(JoinKind::Inner, computed, scan("R"), ("K", "RK"));
    let text = compile_error(&plan, &cat);
    assert!(text.contains("left key K is not strictly increasing"), "{text}");
}

/// Left keys 10..20 reach 10 of `R`'s 40 rows. Joined on `RK` itself the
/// replicas stream about those ten; joined on `RK` renamed by a
/// `Project`, the right input is no leaf, and every replica streams all
/// 40 — with the same rows out either way.
#[test]
fn right_key_renamed_by_a_project_is_not_cut() {
    let cat = catalog((10..20).collect(), (0..40).collect(), 0, &[(1, 0)]);
    let renamed = LogicalPlan::Project {
        input: Box::new(scan("R")),
        items: vec![
            SelectItem::Expr { expr: col("RK"), alias: Some("K2".into()) },
            SelectItem::Expr { expr: col("RW"), alias: None },
        ],
    };
    let run = |plan: &LogicalPlan| {
        let compiled = Compiler::new(DeviceConfig::small()).compile(plan, &cat).unwrap();
        let (table, stats) = compiled.execute_replicated(&cat, 2).unwrap();
        let sw = execute_plan(plan, &cat, &Env::default()).unwrap();
        assert_tables(&table, &sw, "2x").unwrap();
        stats
    };
    let cut = run(&join(JoinKind::Inner, scan("L"), scan("R"), ("LK", "RK")));
    let uncut = run(&join(JoinKind::Inner, scan("L"), renamed, ("LK", "K2")));
    assert_eq!(cut.rows_scanned, 50);
    assert_eq!(cut.rows_emitted, 10 + 10, "two replicas reach R.RK 10..15 and 15..20");
    assert_eq!(uncut.rows_emitted, 10 + 40);
    assert!(cut.dma_in_bytes < uncut.dma_in_bytes);
}

/// Left keys 0..8 and 1000..1008 over right keys 0..16: at two or more
/// replicas the upper slice's cut holds no right row (and no reference
/// position), and a filter that drops every left row leaves every cut
/// empty. Inner and left joins still equal the SQL engine.
#[test]
fn a_replica_whose_cut_is_empty_runs() {
    let lk: Vec<u32> = (0..8).chain(1000..1008).collect();
    let cat = catalog(lk, (0..16).collect(), 0, &[(16, 0)]);
    let none = Some((4, 100)); // LV > 100: no left row passes
    for kind in [JoinKind::Inner, JoinKind::Left] {
        for (lfilter, factor) in [(None, 2), (None, 5), (none, 3)] {
            let left = || filtered(scan("L"), "LV", lfilter);
            for plan in [
                join(kind, left(), scan("R"), ("LK", "RK")),
                join(kind, left(), ref_explode(), ("LK", "POS")),
            ] {
                differential(&plan, &cat, factor, 2).unwrap();
            }
        }
    }
}

/// The mate-distance histogram at its chosen 8 replicas: each replica
/// streams only the reference positions its 1,000 pairs can match. Whole,
/// every replica streamed all 24,064 positions: 883,112 flits, when every
/// consumer still read its fields through a selecting Zip. The
/// explain text still describes the whole explode. Each replica's
/// histogram starts at the distances' proven floor of 40, so its drain
/// skips the 40 keys below it.
#[test]
fn mate_distance_streams_only_its_reach() {
    let cat = genomics_catalog();
    let workload = genomics_workloads().into_iter().find(|w| w.label == "mate_distance").unwrap();
    let plan = workload.compile(&cat);
    assert!(plan.explain().contains("(24064 rows from 1)"), "{}", plan.explain());
    let (_, stats) = plan.execute_replicated(&cat, 8).unwrap();
    assert_eq!(stats.total_flits, 120_536);
    assert!(stats.total_flits < 883_112);
    // 8,000 pairs plus the one reference row, every one scanned and
    // streamed; the reference positions streamed are the pairs' reach.
    assert_eq!((stats.rows_scanned, stats.rows_emitted), (8_001, 8_001));
}
