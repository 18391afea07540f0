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

use genesis::core::compile::Compiler;
use genesis::core::device::{DeviceConfig, TierConfig};
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::sql::ast::{AggFn, BinOp, ColRef, Expr, SelectItem};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::{Cigar, Column, Field, Schema, Table};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::time::Duration;

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

/// `input` under `key >= a AND key < b`, either bound left out when `None`.
fn window(input: LogicalPlan, key: &str, a: Option<u64>, b: Option<u64>) -> LogicalPlan {
    let ge = a.map(|a| bin(BinOp::Ge, col(key), Expr::Number(a)));
    let lt = b.map(|b| bin(BinOp::Lt, col(key), Expr::Number(b)));
    let pred = match (ge, lt) {
        (Some(ge), Some(lt)) => bin(BinOp::And, ge, lt),
        (Some(p), None) | (None, Some(p)) => p,
        (None, None) => return input,
    };
    LogicalPlan::Filter { input: Box::new(input), pred }
}

/// `SELECT key, COUNT(*)[, SUM(sum)] … GROUP BY key ORDER BY key`.
fn grouped(input: LogicalPlan, key: &str, sum: Option<&str>) -> LogicalPlan {
    let mut items = vec![
        SelectItem::Expr { expr: col(key), alias: None },
        SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
    ];
    let sum_of = |c| SelectItem::Agg { func: AggFn::Sum, arg: Some(col(c)), alias: None };
    items.extend(sum.map(sum_of));
    let group_by = vec![ColRef::bare(key)];
    let agg = LogicalPlan::Aggregate { input: Box::new(input), items, group_by };
    LogicalPlan::Sort { input: Box::new(agg), keys: vec![(ColRef::bare(key), false)] }
}

/// The pileup of `READS` under the position window `[a, b)`.
fn pileup(a: Option<u64>, b: Option<u64>) -> LogicalPlan {
    let bases = LogicalPlan::ReadExplode {
        input: Box::new(scan("READS")),
        pos: col("POS"),
        cigar: ColRef::bare("CIGAR"),
        seq: ColRef::bare("SEQ"),
        qual: None,
    };
    grouped(window(bases, "POS", a, b), "POS", None)
}

/// One read, `(delta, (lead, tail), middle)`: it starts `delta` past the
/// read before it, and its CIGAR soft-clips `lead` and `tail` bases around
/// a `1M … 1M` that holds the `(op, len)` runs of `middle` over `M I D`.
type ReadSpec = (u32, (u32, u32), Vec<(usize, u32)>);

fn read_spec() -> impl Strategy<Value = ReadSpec> {
    (0u32..8, (0u32..3, 0u32..3), proptest::collection::vec((0usize..3, 1u32..4), 0..4))
}

/// `READS(POS, CIGAR, SEQ)` from `specs`, the first read at `lo`; the rows
/// are shuffled by `shuffle` (0 keeps them position-sorted).
fn reads_catalog(lo: u32, specs: &[ReadSpec], shuffle: u64) -> Catalog {
    let mut rows = Vec::new();
    let mut pos = lo;
    for (i, (delta, (lead, tail), mid)) in specs.iter().enumerate() {
        pos += delta;
        let mut cigar = if *lead > 0 { format!("{lead}S1M") } else { "1M".to_owned() };
        for &(op, len) in mid {
            cigar.push_str(&format!("{len}{}", ['M', 'I', 'D'][op]));
        }
        cigar.push_str("1M");
        if *tail > 0 {
            cigar.push_str(&format!("{tail}S"));
        }
        let query = lead + tail + 2 + mid.iter().filter(|m| m.0 < 2).map(|m| m.1).sum::<u32>();
        let seq: Vec<u8> = (0..query).map(|j| ((i as u32 + j) % 4) as u8).collect();
        rows.push((pos, cigar.parse::<Cigar>().unwrap().pack().unwrap(), seq));
    }
    if shuffle > 0 {
        let key = |i: usize| (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ shuffle;
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| key(i));
        rows = order.into_iter().map(|i| rows[i].clone()).collect();
    }
    let mut cat = Catalog::new();
    cat.register(
        "READS",
        table_of(vec![
            ("POS", Column::U32(rows.iter().map(|r| r.0).collect())),
            ("CIGAR", Column::ListU16(rows.iter().map(|r| r.1.clone()).collect())),
            ("SEQ", Column::ListU8(rows.into_iter().map(|r| r.2).collect())),
        ]),
    );
    cat
}

/// Pages of 64 bytes and no on-chip quota: every histogram pages on its
/// first touch of each page.
fn tiny_tiers() -> TierConfig {
    TierConfig {
        spm_bytes: 0,
        page_bytes: 64,
        pcie_latency: Duration::from_nanos(40),
        dram_latency: Duration::from_nanos(16),
        ..TierConfig::default()
    }
}

fn assert_tables(hw: &Table, sw: &Table, what: &str) -> Result<(), TestCaseError> {
    let (hs, ss) = (hw.schema(), sw.schema());
    prop_assert!(hs == ss, "{what}: schema {hs:?} vs {ss:?}");
    let (hn, sn) = (hw.num_rows(), sw.num_rows());
    prop_assert!(hn == sn, "{what}: {hn} rows vs {sn}");
    for r in 0..hw.num_rows() {
        prop_assert!(hw.row(r) == sw.row(r), "{what}: row {r}: {:?} vs {:?}", hw.row(r), sw.row(r));
    }
    Ok(())
}

/// The compiled plan at `factor` and served at `shards` (same factor) on
/// `cfg` both equal the software engine.
fn differential(
    plan: &LogicalPlan,
    catalog: &Catalog,
    cfg: &DeviceConfig,
    factor: usize,
    shards: usize,
) -> Result<(), TestCaseError> {
    let sw = execute_plan(plan, catalog, &Env::default())
        .map_err(|e| TestCaseError::fail(format!("software run failed: {e}")))?;
    let compiled = match Compiler::new(cfg.clone()).compile(plan, catalog) {
        Ok(compiled) => compiled,
        // A grouped aggregate over a scan that binds no row has no key
        // bound to size its scratchpad, and is refused (`serve_edges.rs`
        // holds that refusal).
        Err(e) if sw.num_rows() == 0 && e.to_string().contains("no derivable domain bound") => {
            return Ok(())
        }
        Err(e) => return Err(TestCaseError::fail(format!("compile failed: {e}"))),
    };
    let (hw, _) = compiled
        .execute_replicated(catalog, factor)
        .map_err(|e| TestCaseError::fail(format!("run at {factor}x failed: {e}")))?;
    assert_tables(&hw, &sw, &format!("{factor}x"))?;
    let pool = ServerConfig::default().with_devices(1, cfg.clone()).with_shards(shards);
    let server = GenesisServer::new(pool);
    let (served, _) = server
        .submit(Request::new("t", plan.clone()).with_replication(factor), catalog)
        .and_then(|ticket| ticket.wait())
        .map_err(|e| TestCaseError::fail(format!("served run failed: {e}")))?;
    assert_tables(&served, &sw, &format!("{shards} shard(s) at {factor}x"))
}

fn device(tiers: bool, pushdown: bool) -> DeviceConfig {
    let cfg = DeviceConfig::small().with_pushdown(pushdown);
    if tiers { cfg.with_tiers(tiny_tiers()) } else { cfg }
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
        let mut cat = Catalog::new();
        cat.register("T", table_of(vec![("K", Column::U32(keys)), ("V", Column::U32(vals))]));
        let plan = grouped(window(scan("T"), "K", bound(lo, a), bound(lo, b)), "K", Some("V"));
        differential(&plan, &cat, &device(tiers == 1, pushdown == 1), factor, shards)?;
    }

    /// The pileup over sorted or shuffled reads from `lo` on, under a
    /// window that has at least one bound (an insertion's marker never
    /// survives a bound, so the position key is proven non-nullable).
    #[test]
    fn pileup_matches_the_sql_engine(
        lo in 0u32..200_000,
        specs in proptest::collection::vec(read_spec(), 1..14),
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
        differential(&pileup(a, b), &cat, &device(tiers == 1, true), factor, shards)?;
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
    assert_tables(&hw, &sw, "chosen factor").unwrap();
    assert!(hw.num_rows() > 500, "{} rows", hw.num_rows());
    assert_eq!((stats.tier_pages_filled, stats.spill_wait_cycles), (0, 0), "nothing pages");
    differential(&plan, &cat, &DeviceConfig::small(), 8, 2).unwrap();
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
