//! Differential tests of a replica's reach: each replica of a compiled
//! merge join streams only the right rows its spine slice can match — a
//! binary-searched row range of a plain scan, or the positions of a
//! `PosExplode` with its edge rows trimmed — and the tables must stay
//! the SQL engine's at every replication factor and shard count.
//!
//! A proptest draws the right input (an ascending-key scan or the
//! `PosExplode` of a 1–3-row reference), the join kind, optional filters
//! on either side, a factor of 1–16, 1–3 served shards and, half the
//! time, a seeded fault schedule: under faults a run returns the SQL
//! engine's table or a structured error, never a panic. Fixed cases
//! hold the negatives: a right key that ascends inside every replica's
//! cut but not over the whole table is refused as before, a computed left
//! key and a right key renamed by a `Project` are not cut, and a replica
//! whose cut is empty still runs. Pinned cases hold the mate-distance
//! histogram's fall in flits and a faulted 3-shard cut join that
//! recovers.

mod common;

use common::{arb_faults, ascending, bin, catalog_of, check, col, filtered, item, join};
use common::{pos_explode, project, ref_table, scan, seeded_faults, u32_table, Axes, Road, CMP_OPS};
use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::core::perf::AccelStats;
use genesis::sql::ast::{BinOp, Expr, JoinKind, SelectItem};
use genesis::sql::{Catalog, LogicalPlan};
use genesis_bench::scenarios::{genomics_catalog, genomics_workloads};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// `input`, under `column <op> literal` when a filter is drawn.
fn cmp_filter(input: LogicalPlan, column: &str, filter: Option<(usize, u64)>) -> LogicalPlan {
    filtered(input, column, filter.map(|(op, lit)| (CMP_OPS[op % 6], lit)))
}

/// `REF`'s `PosExplode`: one row per position, `POS` and `SEQ`.
fn ref_explode() -> LogicalPlan {
    pos_explode("REF", "SEQ", col("POS"))
}

/// `L(LK, LV)` over `lk`, `R(RK, RW)` over `rk`, and a `REF(POS, SEQ)` of
/// chained rows `(items, gap)` from `ref_start`.
fn catalog(lk: Vec<u32>, rk: Vec<u32>, ref_start: u32, ref_rows: &[(usize, u32)]) -> Catalog {
    let lv = lk.iter().map(|k| (k * 7 + 3) % 23).collect();
    let rw = rk.iter().map(|k| (k * 5 + 1) % 19).collect();
    catalog_of(vec![
        ("L", u32_table(vec![("LK", lk), ("LV", lv)])),
        ("R", u32_table(vec![("RK", rk), ("RW", rw)])),
        ("REF", ref_table(ref_start, ref_rows)),
    ])
}

/// Every run `axes` sweeps equals the software engine, and no replica
/// streams more than the rows it scanned. Returns each run's stats.
fn differential(
    plan: &LogicalPlan,
    catalog: &Catalog,
    axes: &Axes,
) -> Result<Vec<(String, AccelStats)>, TestCaseError> {
    let runs = check(plan, catalog, axes)?;
    for (what, s) in &runs {
        prop_assert!(s.rows_emitted <= s.rows_scanned, "{what}: {:?}", s);
    }
    Ok(runs)
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
        faults in (0usize..2, arb_faults()),
    ) {
        let cat = catalog(ascending(lstart, &lgaps), ascending(rstart, &rgaps), ref_start, &ref_rows);
        let kind = if left_join == 1 { JoinKind::Left } else { JoinKind::Inner };
        // Six comparators, or (one time in four) no filter.
        let (lfilter, rfilter) = (Some(lfilter).filter(|f| f.0 < 6), Some(rfilter).filter(|f| f.0 < 6));
        let left = cmp_filter(scan("L"), "LV", lfilter);
        let plan = if explode == 1 {
            let rfilter = rfilter.map(|(op, lit)| (op, lit % 4));
            join(kind, left, cmp_filter(ref_explode(), "SEQ", rfilter), ("LK", "POS"))
        } else {
            join(kind, left, cmp_filter(scan("R"), "RW", rfilter), ("LK", "RK"))
        };
        // Seeded faults half the time: the SQL engine's table or a
        // structured error, never a panic.
        let faults = (faults.0 == 1).then_some(faults.1);
        differential(&plan, &cat, &Axes::at(factor).served(shards).faults(faults))?;
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
    let key = SelectItem::Expr {
        expr: bin(BinOp::Add, col("LK"), Expr::Number(1)),
        alias: Some("K".into()),
    };
    let computed = project(scan("L"), vec![key, item("LV")]);
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
    let key = SelectItem::Expr { expr: col("RK"), alias: Some("K2".into()) };
    let renamed = project(scan("R"), vec![key, item("RW")]);
    let run = |plan: &LogicalPlan| check(plan, &cat, &Axes::at(2)).unwrap().remove(0).1;
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
            let left = || cmp_filter(scan("L"), "LV", lfilter);
            for plan in [
                join(kind, left(), scan("R"), ("LK", "RK")),
                join(kind, left(), ref_explode(), ("LK", "POS")),
            ] {
                differential(&plan, &cat, &Axes::at(factor).served(2)).unwrap();
            }
        }
    }
}

/// The mate-distance histogram at its chosen 8 replicas: each replica
/// streams only the reference positions its 1,000 pairs can match, and
/// not their bases, which nothing reads. Whole, every replica streamed
/// all 24,064 positions: 883,112 flits, when every consumer still read
/// its fields through a selecting Zip; with the bases, the reach alone
/// streamed 88,144. The explain text still describes the whole explode.
/// Each replica's histogram starts at the distances' proven floor of 40,
/// so its drain skips the 40 keys below it.
#[test]
fn mate_distance_streams_only_its_reach() {
    let cat = genomics_catalog();
    let workload = genomics_workloads().into_iter().find(|w| w.label == "mate_distance").unwrap();
    let plan = workload.compile(&cat);
    assert!(plan.explain().contains("(24064 rows from 1)"), "{}", plan.explain());
    let (_, stats) = plan.execute_replicated(&cat, 8).unwrap();
    assert_eq!(stats.total_flits, 64_152);
    assert!(stats.total_flits < 883_112);
    // 8,000 pairs plus the one reference row, every one scanned and
    // streamed; the reference positions streamed are the pairs' reach.
    assert_eq!((stats.rows_scanned, stats.rows_emitted), (8_001, 8_001));
}

/// Seed 4 faults two of a 3-shard cut join's transfers (one error, one
/// timeout); each faulted shard retries alone and the table is still the
/// SQL engine's.
#[test]
fn faulted_cut_join_recovers_on_three_shards() {
    let cat = catalog(ascending(0, &[1; 30]), (0..60).collect(), 0, &[(1, 0)]);
    let plan = join(JoinKind::Inner, scan("L"), scan("R"), ("LK", "RK"));
    let faults = seeded_faults(4, 300_000, 100_000, 2_000);
    let axes = Axes { roads: vec![Road::Served(3)], ..Axes::at(2).faults(Some(faults)) };
    let runs = differential(&plan, &cat, &axes).unwrap();
    assert_eq!(runs.len(), 1, "the run recovered");
    let f = &runs[0].1.faults;
    assert_eq!((f.dma_errors, f.dma_timeouts, f.device_faults, f.retries), (1, 1, 0, 2), "{f:?}");
}
