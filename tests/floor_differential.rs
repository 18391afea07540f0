//! Differential tests of a grouped aggregate's key window: each replica's
//! scratchpad holds `[floor, max]` of the keys its slice can produce —
//! the updaters subtract the floor, the drain adds it back — and the
//! tables must stay the SQL engine's at every replication factor, shard
//! count and tiering.
//!
//! A proptest draws (a) a plain-scan `GROUP BY K` with `COUNT` and `SUM`
//! over keys from `[lo, lo + w)` under random `K >= a` / `K < b`
//! conjuncts, pushed into the scan or filtered in hardware, and (b) a
//! `ReadExplode` pileup over position-sorted or shuffled reads whose
//! CIGARs hold `S`, `I` and `D` runs, at 1–16 replicas, 1–3 served shards
//! and tiers on or off. Fixed cases hold a far window that runs on chip
//! only because its floor is subtracted, and the over-budget text.

mod common;

use common::{bin, catalog_of, check, col, filter, grouped, read_explode, read_spec, reads_table};
use common::{same_table, scan, tiny_tiers, u32_table, Axes, ReadSpec};
use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::sql::ast::{BinOp, Expr};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::Table;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// `input` under `key >= a AND key < b`, either bound left out when `None`.
fn window(input: LogicalPlan, key: &str, a: Option<u64>, b: Option<u64>) -> LogicalPlan {
    let ge = a.map(|a| bin(BinOp::Ge, col(key), Expr::Number(a)));
    let lt = b.map(|b| bin(BinOp::Lt, col(key), Expr::Number(b)));
    match (ge, lt) {
        (Some(ge), Some(lt)) => filter(input, bin(BinOp::And, ge, lt)),
        (Some(p), None) | (None, Some(p)) => filter(input, p),
        (None, None) => input,
    }
}

/// The pileup of `READS` under the position window `[a, b)`.
fn pileup(a: Option<u64>, b: Option<u64>) -> LogicalPlan {
    grouped(window(read_explode("READS", false), "POS", a, b), "POS", &[])
}

/// `READS(POS, CIGAR, SEQ)` from `specs`, the first read at `lo`; the rows
/// are shuffled by `shuffle` (0 keeps them position-sorted).
fn reads_catalog(lo: u32, specs: &[ReadSpec], shuffle: u64) -> Catalog {
    let mut reads = reads_table(lo, specs, false);
    if shuffle > 0 {
        let key = |i: usize| (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ shuffle;
        let mut order: Vec<usize> = (0..reads.num_rows()).collect();
        order.sort_by_key(|&i| key(i));
        let mut shuffled = Table::new(reads.schema().clone());
        for i in order {
            shuffled.push_row(reads.row(i)).unwrap();
        }
        reads = shuffled;
    }
    catalog_of(vec![("READS", reads)])
}

/// The compiled plan at `factor`, executed again after a run over the
/// reversed tables, and served at `shards` (same factor), with tiers and
/// pushdown as drawn, both equal the software engine.
fn differential(
    plan: &LogicalPlan,
    catalog: &Catalog,
    (tiers, pushdown): (bool, bool),
    factor: usize,
    shards: usize,
) -> Result<(), TestCaseError> {
    let axes = Axes {
        tiers: tiers.then(tiny_tiers),
        empty_group_refused: true,
        ..Axes::at(factor).served(shards).pushdown(&[pushdown]).reused()
    };
    check(plan, catalog, &axes).map(drop)
}

/// A bound drawn as `(kind, offset)`: kinds 0 and 1 leave it out.
fn bound(lo: u64, (kind, off): (usize, u64)) -> Option<u64> {
    (kind >= 2).then_some(lo + off)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `GROUP BY K` with `COUNT` and `SUM(V)` over keys in `[lo, lo + w)`,
    /// under random window conjuncts, pushed into the scan or not.
    #[test]
    fn scan_group_by_matches_the_sql_engine(
        lo in 0u64..1_000_000,
        w in 1u64..300,
        picks in proptest::collection::vec((0u64..1_000, 0u32..50), 0..60),
        a in (0usize..4, 0u64..300),
        b in (0usize..4, 0u64..300),
        factor in 1usize..17,
        shards in 1usize..4,
        tiers in 0usize..2,
        pushdown in 0usize..2,
    ) {
        let keys: Vec<u32> = picks.iter().map(|&(k, _)| (lo + k % w) as u32).collect();
        let vals: Vec<u32> = picks.iter().map(|&(_, v)| v).collect();
        let cat = catalog_of(vec![("T", u32_table(vec![("K", keys), ("V", vals)]))]);
        let plan = grouped(window(scan("T"), "K", bound(lo, a), bound(lo, b)), "K", &["V"]);
        differential(&plan, &cat, (tiers == 1, pushdown == 1), factor, shards)?;
    }

    /// The pileup over sorted or shuffled reads from `lo` on, under a
    /// window that has at least one bound (an insertion's marker never
    /// survives a bound, so the position key is proven non-nullable).
    #[test]
    fn pileup_matches_the_sql_engine(
        lo in 0u32..200_000,
        specs in proptest::collection::vec(read_spec(8, 3, 4), 1..14),
        shuffle in 0u64..3,
        a in (0usize..4, 0u64..40),
        b in (0usize..4, 0u64..80),
        factor in 1usize..17,
        shards in 1usize..4,
        tiers in 0usize..2,
    ) {
        let cat = reads_catalog(lo, &specs, shuffle);
        let (a, b) = match (bound(lo.into(), a), bound(lo.into(), b)) {
            (None, None) => (Some(u64::from(lo)), None),
            ab => ab,
        };
        differential(&pileup(a, b), &cat, (tiers == 1, true), factor, shards)?;
    }
}

/// 240 reads from 149,990 to about 200,000: a `[150000, 199846)` window
/// is 49,846 keys, which fits the untiered 65,536-entry budget once its
/// floor is subtracted (counted from 0 it was 199,846 keys, refused
/// without tiers). Every replica holds its own slice's part of it.
#[test]
fn far_window_runs_on_chip() {
    let read = |i: u32| (u32::from(i > 0) * 209, (i % 3, 1), vec![(i as usize % 3, 2)]);
    let specs: Vec<ReadSpec> = (0..240).map(read).collect();
    let cat = reads_catalog(149_990, &specs, 0);
    let plan = pileup(Some(150_000), Some(199_846));
    let compiled = Compiler::new(DeviceConfig::small()).compile(&plan, &cat).expect("fits on chip");
    let sw = execute_plan(&plan, &cat, &Env::default()).unwrap();
    let (hw, stats) = compiled.execute(&cat).unwrap();
    same_table(&hw, &sw, "chosen factor").unwrap();
    assert!(hw.num_rows() > 500, "{} rows", hw.num_rows());
    assert_eq!((stats.tier_pages_filled, stats.spill_wait_cycles), (0, 0), "nothing pages");
    differential(&plan, &cat, (false, true), 8, 2).unwrap();
}

/// A window wider than the budget is refused with its own width.
#[test]
fn over_budget_window_reports_its_width() {
    let specs: Vec<ReadSpec> = (0..240).map(|i| (u32::from(i > 0) * 839, (0, 0), vec![])).collect();
    let cat = reads_catalog(100, &specs, 0);
    let plan = pileup(Some(100), Some(199_846));
    let err = Compiler::new(DeviceConfig::small()).compile(&plan, &cat).unwrap_err().to_string();
    assert!(
        err.contains("key domain 199746 exceeds the 65536-entry scratchpad budget"),
        "{err}"
    );
}
