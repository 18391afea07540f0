//! Differential tests of parameterised plan shapes: the serving cache keys
//! a plan by its shape, and the literal operands of the conjuncts
//! predicate pushdown moves into a scan are bind-time parameters.
//!
//! For random literals under all six comparators — a filtered `SUM`, a
//! streamed `SELECT K`, a two-conjunct `AND` and a join with a pushed
//! conjunct — one server at 1–3 shards compiles each shape once, pays one
//! reconfiguration and serves every other literal from the cache. Every
//! table equals the software engine's, and every `AccelStats` minus the
//! reconfiguration equals a fresh compile of the literal plan run at the
//! factor that compile chose. Literals that can reach hardware stay part
//! of the shape: a grouped shape, a residual Filter over an explode, an
//! ALU immediate, a `LIMIT` count and a plan with pushdown off each get a
//! key per literal. Replication is chosen when a plan binds, from the
//! compile's profile at the bound selectivity, and the result is typed by
//! the data the plan runs on, never by the data it compiled over; a bind
//! that reads a column at another type than the compile did is refused.

mod common;

use common::{agg, aggregate, bin, catalog_of, col, filter, item, join, project, read_explode};
use common::{same_table, scan, table_of, u32_table, CMP_OPS};
use genesis::core::compile::Compiler;
use genesis::core::CoreError;
use genesis::core::device::DeviceConfig;
use genesis::core::perf::AccelStats;
use genesis::core::serve::{fingerprint, GenesisServer, Request, ServerConfig};
use genesis::sql::ast::{AggFn, BinOp, Expr, JoinKind, SelectItem};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::{Cigar, Column, Table, Value};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const PENALTY: u64 = 2_500_000;

/// `column op literal`, or the mirrored `literal op' column` when `flip`.
fn cmp(column: Expr, op: BinOp, literal: u64, flip: bool) -> Expr {
    if !flip {
        return bin(op, column, Expr::Number(literal));
    }
    let mirrored = match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    };
    bin(mirrored, Expr::Number(literal), column)
}

fn sum(input: LogicalPlan, column: &str) -> LogicalPlan {
    aggregate(input, vec![agg(AggFn::Sum, Some(column))])
}

fn select(input: LogicalPlan, column: &str) -> LogicalPlan {
    project(input, vec![item(column)])
}

/// `T(X, K)`: `X` scattered over `0..100` with repeats, `K` strictly
/// increasing (a join key); `B(K, V)` joins every other `K`.
fn catalog() -> Catalog {
    let x: Vec<u32> = (0..64u32).map(|i| (i * 37 + 11) % 100).collect();
    let k: Vec<u32> = (0..64).collect();
    let b = u32_table(vec![
        ("K", (0..64).step_by(2).collect()),
        ("V", (0..32).map(|i| i * 3).collect()),
    ]);
    catalog_of(vec![("T", u32_table(vec![("X", x), ("K", k)])), ("B", b)])
}

/// One of the four parameterised shapes over `literals` (each shape
/// reads what it needs, in order).
fn shape(kind: usize, ops: [BinOp; 2], flip: bool, literals: [u64; 2]) -> LogicalPlan {
    let first = cmp(col("X"), ops[0], literals[0], flip);
    match kind {
        0 => sum(filter(scan("T"), first), "X"),
        1 => select(filter(scan("T"), first), "K"),
        2 => {
            let second = cmp(col("K"), ops[1], literals[1], !flip);
            sum(filter(scan("T"), bin(BinOp::And, first, second)), "X")
        }
        _ => join(JoinKind::Inner, filter(scan("T"), first), scan("B"), ("T.K", "B.K")),
    }
}

fn server(shards: usize, device: DeviceConfig) -> GenesisServer {
    GenesisServer::new(ServerConfig::default().with_devices(1, device).with_shards(shards))
}

/// `stats` as a run without the reconfiguration charged to it.
fn unconfigured(mut stats: AccelStats) -> AccelStats {
    stats.cycles -= stats.reconfig_cycles;
    stats.reconfig_cycles = 0;
    stats
}

/// A fresh compile of `plan` served precompiled at the factor the compile
/// chose: what a cache that keyed every literal would have run.
fn fresh(
    reference: &GenesisServer,
    plan: &LogicalPlan,
    cat: &Catalog,
) -> Result<(Table, AccelStats), TestCaseError> {
    let compiled = Compiler::new(DeviceConfig::small()).compile(plan, cat).map_err(fail)?;
    let factor = compiled.replication().factor;
    let req = Request::precompiled("ref", compiled).with_replication(factor);
    reference.submit(req, cat).and_then(|t| t.wait()).map_err(fail)
}

fn fail(e: impl std::fmt::Display) -> TestCaseError {
    TestCaseError::fail(e.to_string())
}

/// A literal near the data (`0..100`), or at either end of `u64`.
fn literal() -> impl Strategy<Value = u64> {
    (0u64..112).prop_map(|v| match v {
        110 => 0,
        111 => u64::MAX,
        v => v,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One shape, four literal sets, one server: one miss and one
    /// reconfiguration, three hits, and every answer and every stat as
    /// if each literal plan had been compiled on its own.
    #[test]
    fn one_cached_shape_serves_every_literal(
        kind in 0usize..4,
        ops in (0usize..6, 0usize..6),
        flip in 0u8..2,
        shards in 1usize..=3,
        literals in proptest::collection::vec((literal(), literal()), 4..5),
    ) {
        let cat = catalog();
        let ops = [CMP_OPS[ops.0], CMP_OPS[ops.1]];
        let served = server(shards, DeviceConfig::small());
        let reference = server(shards, DeviceConfig::small());
        let mut reconfig = 0;
        for (i, &(a, b)) in literals.iter().enumerate() {
            let plan = shape(kind, ops, flip == 1, [a, b]);
            let (hw, stats) = served
                .submit(Request::new("t", plan.clone()), &cat)
                .and_then(|t| t.wait())
                .map_err(fail)?;
            let sw = execute_plan(&plan, &cat, &Env::default()).map_err(fail)?;
            same_table(&hw, &sw, &format!("table of literal set {i} of {plan:?}"))?;
            let expected_penalty = if i == 0 { PENALTY } else { 0 };
            prop_assert!(
                stats.reconfig_cycles == expected_penalty,
                "request {} paid {}", i, stats.reconfig_cycles
            );
            reconfig += stats.reconfig_cycles;
            let (fresh_table, fresh_stats) = fresh(&reference, &plan, &cat)?;
            same_table(&fresh_table, &sw, "fresh compile")?;
            prop_assert!(
                unconfigured(stats) == fresh_stats,
                "stats of literal set {} of {:?}: {:?} vs {:?}", i, plan, stats, fresh_stats
            );
            if shards == 1 {
                let compiled =
                    Compiler::new(DeviceConfig::small()).compile(&plan, &cat).map_err(fail)?;
                let (_, direct) = compiled.execute(&cat).map_err(fail)?;
                prop_assert_eq!(direct, fresh_stats);
            }
        }
        let cache = served.cache_stats();
        prop_assert_eq!((cache.misses, cache.hits, cache.len), (1, 3, 1));
        prop_assert_eq!(reconfig, PENALTY);
    }
}

/// Submits `plans` in order to one server; returns the penalty each paid.
fn penalties(device: DeviceConfig, cat: &Catalog, plans: &[LogicalPlan]) -> Vec<u64> {
    let srv = server(1, device);
    plans
        .iter()
        .map(|p| {
            let (hw, stats) =
                srv.submit(Request::new("t", p.clone()), cat).unwrap().wait().unwrap();
            let sw = execute_plan(p, cat, &Env::default()).unwrap();
            same_table(&hw, &sw, &format!("{p:?}")).unwrap();
            stats.reconfig_cycles
        })
        .collect()
}

/// `SELECT K, COUNT(*) FROM T WHERE X < n GROUP BY K ORDER BY K`.
fn grouped(n: u64) -> LogicalPlan {
    common::grouped(filter(scan("T"), cmp(col("X"), BinOp::Lt, n, false)), "K", &[])
}

/// `SELECT X + n AS Y FROM T WHERE X < 50`: `n` is an ALU immediate.
fn shifted(n: u64) -> LogicalPlan {
    let y = bin(BinOp::Add, col("X"), Expr::Number(n));
    let y = SelectItem::Expr { expr: y, alias: Some("Y".into()) };
    project(filter(scan("T"), cmp(col("X"), BinOp::Lt, 50, false)), vec![y])
}

/// `SELECT K FROM T WHERE X < 50 LIMIT 0, n`.
fn limited(n: u64) -> LogicalPlan {
    LogicalPlan::Limit {
        input: Box::new(select(filter(scan("T"), cmp(col("X"), BinOp::Lt, 50, false)), "K")),
        offset: Expr::Number(0),
        count: Expr::Number(n),
    }
}

/// `SELECT POS FROM (ReadExplode … FROM READS) WHERE POS < n`: a
/// residual Filter over an explode.
fn exploded(n: u64) -> LogicalPlan {
    select(filter(read_explode("READS", false), cmp(col("POS"), BinOp::Lt, n, false)), "POS")
}

fn reads_catalog() -> Catalog {
    let cigar: Cigar = "4M".parse().unwrap();
    let reads = table_of(vec![
        ("POS", Column::U32(vec![1, 10])),
        ("CIGAR", Column::ListU16(vec![cigar.pack().unwrap(); 2])),
        ("SEQ", Column::ListU8(vec![vec![0, 1, 2, 3]; 2])),
    ]);
    catalog_of(vec![("READS", reads)])
}

/// Literals that can reach hardware or size it stay in the key: each pair
/// differs only in one such literal, fingerprints apart, and pays a
/// reconfiguration per plan.
#[test]
fn literals_that_reach_hardware_stay_in_the_shape() {
    let cat = catalog();
    let reads = reads_catalog();
    let small = DeviceConfig::small;
    let [below_30, below_60] =
        [30, 60].map(|n| sum(filter(scan("T"), cmp(col("X"), BinOp::Lt, n, false)), "X"));
    let pairs = [
        ("grouped shape, pushed literal", [grouped(30), grouped(60)], &cat),
        ("residual Filter over an explode", [exploded(3), exploded(12)], &reads),
        ("ALU immediate", [shifted(1), shifted(2)], &cat),
        ("LIMIT count", [limited(3), limited(5)], &cat),
    ];
    for (what, plans, cat) in pairs {
        assert_ne!(fingerprint(&plans[0], cat), fingerprint(&plans[1], cat), "{what}");
        assert_eq!(penalties(small(), cat, &plans), [PENALTY, PENALTY], "{what}");
    }
    // With pushdown off every literal is in the key...
    let plans = [below_30.clone(), below_60.clone()];
    assert_eq!(penalties(small().with_pushdown(false), &cat, &plans), [PENALTY, PENALTY]);
    // ...and with it on, the same pair is one shape.
    assert_eq!(fingerprint(&below_30, &cat), fingerprint(&below_60, &cat));
    assert_eq!(penalties(small(), &cat, &plans), [PENALTY, 0]);
}

/// Replication follows the data a plan binds, not the data it compiled
/// over: `SUM(X) WHERE X < 400` keeps every row of `0..400` but 5 % of
/// `0..8000`, and a plan compiled over the first runs over the second at
/// the factor, and with the stats, of a fresh compile over the second —
/// run directly, precompiled, or from the server's cache.
#[test]
fn replication_is_chosen_from_the_bound_selectivity() {
    let plan = sum(filter(scan("T"), cmp(col("X"), BinOp::Lt, 400, false)), "X");
    let compiler = Compiler::new(DeviceConfig::small());
    let [dense, sparse] = [400, 8_000]
        .map(|rows| catalog_of(vec![("T", u32_table(vec![("X", (0..rows).collect())]))]));
    let stale = compiler.compile(&plan, &dense).unwrap();
    let fresh = compiler.compile(&plan, &sparse).unwrap();
    assert!(
        fresh.replication().factor < stale.replication().factor,
        "a 5 % selective scan replicates less: {} vs {}",
        fresh.replication().summary(),
        stale.replication().summary()
    );
    let (want_table, want) = fresh.execute_replicated(&sparse, fresh.replication().factor).unwrap();
    assert_eq!(fresh.execute(&sparse).unwrap().1, want);

    let (table, stats) = stale.execute(&sparse).unwrap();
    same_table(&table, &want_table, "PipelinePlan::execute").unwrap();
    assert_eq!(stats, want, "PipelinePlan::execute over changed data");

    let srv = server(1, DeviceConfig::small());
    let (_, stats) = srv
        .submit(Request::precompiled("t", stale.clone()), &sparse)
        .and_then(|t| t.wait())
        .unwrap();
    assert_eq!(stats, want, "Request::precompiled over changed data");

    let first = srv.submit(Request::new("t", plan.clone()), &dense).unwrap().wait().unwrap();
    assert_eq!(first.1.reconfig_cycles, PENALTY);
    let (table, stats) = srv.submit(Request::new("t", plan), &sparse).unwrap().wait().unwrap();
    assert_eq!(srv.cache_stats().hits, 1);
    same_table(&table, &want_table, "a cache hit").unwrap();
    assert_eq!(stats, want, "a cache hit over changed data");
}

/// A plan types its result by the data it runs on, not the data it
/// compiled over: a `ReadExplode` compiled over a `4M` read runs over a
/// `2M1I2M` read, whose inserted base has the position `Ins`, and a scan
/// compiled over a `Cell` column of numbers runs over one of booleans.
/// Each equals the SQL engine's table run directly, precompiled, or from
/// the server's cache.
#[test]
fn a_stale_plan_decodes_by_the_data_it_runs_on() {
    let reads = |cigar: &str| {
        let cigar: Cigar = cigar.parse().unwrap();
        let reads = table_of(vec![
            ("POS", Column::U32(vec![1])),
            ("CIGAR", Column::ListU16(vec![cigar.pack().unwrap()])),
            ("SEQ", Column::ListU8(vec![vec![0, 1, 2, 3, 0]])),
        ]);
        catalog_of(vec![("READS", reads)])
    };
    let cells = |cells: Vec<Value>| catalog_of(vec![("T", table_of(vec![("C", Column::Cell(cells))]))]);
    let cases = [
        ("an Ins position", read_explode("READS", false), reads("4M"), reads("2M1I2M")),
        (
            "Bool cells",
            scan("T"),
            cells(vec![Value::U64(0), Value::U64(1)]),
            cells(vec![Value::Bool(false), Value::Bool(true)]),
        ),
    ];
    for (what, plan, compiled_over, run_over) in cases {
        let want = execute_plan(&plan, &run_over, &Env::default()).unwrap();
        let stale = Compiler::new(DeviceConfig::small()).compile(&plan, &compiled_over).unwrap();
        let (table, _) = stale.execute(&run_over).unwrap();
        same_table(&table, &want, &format!("{what}: PipelinePlan::execute")).unwrap();

        let srv = server(1, DeviceConfig::small());
        let req = Request::precompiled("t", stale);
        let (table, _) = srv.submit(req, &run_over).and_then(|t| t.wait()).unwrap();
        same_table(&table, &want, &format!("{what}: Request::precompiled")).unwrap();

        srv.submit(Request::new("t", plan.clone()), &compiled_over).unwrap().wait().unwrap();
        let (table, _) = srv.submit(Request::new("t", plan), &run_over).unwrap().wait().unwrap();
        assert_eq!(srv.cache_stats().hits, 1, "{what}: the second request hits the cache");
        same_table(&table, &want, &format!("{what}: a cache hit")).unwrap();
    }
}

/// A plan types its output by the column types it was compiled over, so
/// a bind that reads a column at another type is refused, naming the
/// table and the column: `Scan(T)` compiled over `T.C U32` and run over
/// `T.C Bool` would return the `U32`s `0, 1` where the SQL engine returns
/// `Bool`s. The server's cache keys a plan by its tables' schemas, so a
/// request over the changed table compiles afresh and returns the
/// engine's table.
#[test]
fn a_bind_over_a_changed_column_type_is_refused() {
    let t = |c: Column| catalog_of(vec![("T", table_of(vec![("C", c)]))]);
    let (compiled_over, run_over) = (t(Column::U32(vec![0, 1])), t(Column::Bool(vec![false, true])));
    let plan = scan("T");
    let stale = Compiler::new(DeviceConfig::small()).compile(&plan, &compiled_over).unwrap();
    let refused = |what: &str, e: CoreError| {
        let text = e.to_string();
        assert!(matches!(e, CoreError::Plan { .. }), "{what}: {text}");
        assert!(text.contains("Scan(T)") && text.contains("column C is Bool"), "{what}: {text}");
    };
    refused("PipelinePlan::execute", stale.execute(&run_over).unwrap_err());
    // The same plan still runs over the data it was compiled for.
    let want = execute_plan(&plan, &compiled_over, &Env::default()).unwrap();
    same_table(&stale.execute(&compiled_over).unwrap().0, &want, "the compiled types").unwrap();

    let srv = server(1, DeviceConfig::small());
    let req = Request::precompiled("t", stale);
    refused("Request::precompiled", srv.submit(req, &run_over).and_then(|t| t.wait()).unwrap_err());

    let want = execute_plan(&plan, &run_over, &Env::default()).unwrap();
    srv.submit(Request::new("t", plan.clone()), &compiled_over).unwrap().wait().unwrap();
    let (table, _) = srv.submit(Request::new("t", plan), &run_over).unwrap().wait().unwrap();
    assert_eq!(srv.cache_stats().hits, 0, "the changed schema is another shape");
    same_table(&table, &want, "a request over the changed table").unwrap();
}
