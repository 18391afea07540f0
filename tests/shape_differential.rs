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
//! key per literal. Replication is chosen when a plan binds, so a plan
//! compiled over other data runs at the factor a fresh compile would pick.

use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::core::perf::AccelStats;
use genesis::core::serve::{fingerprint, GenesisServer, Request, ServerConfig};
use genesis::sql::ast::{AggFn, BinOp, ColRef, Expr, JoinKind, SelectItem};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::{Cigar, Column, DataType, Field, Schema, Table};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const CMP_OPS: [BinOp; 6] = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
const PENALTY: u64 = 2_500_000;

fn scan(t: &str) -> LogicalPlan {
    LogicalPlan::Scan { table: t.to_owned(), partition: None }
}

fn col(name: &str) -> Expr {
    Expr::Col(ColRef::bare(name))
}

fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
}

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

fn filter(input: LogicalPlan, pred: Expr) -> LogicalPlan {
    LogicalPlan::Filter { input: Box::new(input), pred }
}

fn sum(input: LogicalPlan, column: &str) -> LogicalPlan {
    LogicalPlan::Aggregate {
        input: Box::new(input),
        items: vec![SelectItem::Agg { func: AggFn::Sum, arg: Some(col(column)), alias: None }],
        group_by: vec![],
    }
}

fn select(input: LogicalPlan, column: &str) -> LogicalPlan {
    LogicalPlan::Project {
        input: Box::new(input),
        items: vec![SelectItem::Expr { expr: col(column), alias: None }],
    }
}

fn table(cols: Vec<(&str, Vec<u32>)>) -> Table {
    let schema = Schema::new(cols.iter().map(|(n, _)| Field::new(n, DataType::U32)).collect());
    Table::from_columns(schema, cols.into_iter().map(|(_, c)| Column::U32(c)).collect()).unwrap()
}

/// `T(X, K)`: `X` scattered over `0..100` with repeats, `K` strictly
/// increasing (a join key); `B(K, V)` joins every other `K`.
fn catalog() -> Catalog {
    let x: Vec<u32> = (0..64u32).map(|i| (i * 37 + 11) % 100).collect();
    let k: Vec<u32> = (0..64).collect();
    let mut cat = Catalog::new();
    cat.register("T", table(vec![("X", x), ("K", k)]));
    cat.register(
        "B",
        table(vec![("K", (0..64).step_by(2).collect()), ("V", (0..32).map(|i| i * 3).collect())]),
    );
    cat
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
        _ => LogicalPlan::Join {
            kind: JoinKind::Inner,
            left: Box::new(filter(scan("T"), first)),
            right: Box::new(scan("B")),
            left_key: ColRef::qualified("T", "K"),
            right_key: ColRef::qualified("B", "K"),
        },
    }
}

fn server(shards: usize, device: DeviceConfig) -> GenesisServer {
    GenesisServer::new(ServerConfig::default().with_devices(1, device).with_shards(shards))
}

fn rows(t: &Table) -> Vec<Vec<genesis::types::Value>> {
    (0..t.num_rows()).map(|r| t.row(r)).collect()
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
            prop_assert!(rows(&hw) == rows(&sw), "table of literal set {} of {:?}", i, plan);
            let expected_penalty = if i == 0 { PENALTY } else { 0 };
            prop_assert!(
                stats.reconfig_cycles == expected_penalty,
                "request {} paid {}", i, stats.reconfig_cycles
            );
            reconfig += stats.reconfig_cycles;
            let (fresh_table, fresh_stats) = fresh(&reference, &plan, &cat)?;
            prop_assert_eq!(rows(&fresh_table), rows(&sw));
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
            assert_eq!(rows(&hw), rows(&sw), "{p:?}");
            stats.reconfig_cycles
        })
        .collect()
}

/// `SELECT K, COUNT(*) FROM T WHERE X < n GROUP BY K ORDER BY K`.
fn grouped(n: u64) -> LogicalPlan {
    LogicalPlan::Sort {
        input: Box::new(LogicalPlan::Aggregate {
            input: Box::new(filter(scan("T"), cmp(col("X"), BinOp::Lt, n, false))),
            items: vec![
                SelectItem::Expr { expr: col("K"), alias: None },
                SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
            ],
            group_by: vec![ColRef::bare("K")],
        }),
        keys: vec![(ColRef::bare("K"), false)],
    }
}

/// `SELECT X + n AS Y FROM T WHERE X < 50`: `n` is an ALU immediate.
fn shifted(n: u64) -> LogicalPlan {
    LogicalPlan::Project {
        input: Box::new(filter(scan("T"), cmp(col("X"), BinOp::Lt, 50, false))),
        items: vec![SelectItem::Expr {
            expr: bin(BinOp::Add, col("X"), Expr::Number(n)),
            alias: Some("Y".into()),
        }],
    }
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
    select(
        filter(
            LogicalPlan::ReadExplode {
                input: Box::new(scan("READS")),
                pos: col("POS"),
                cigar: ColRef::bare("CIGAR"),
                seq: ColRef::bare("SEQ"),
                qual: None,
            },
            cmp(col("POS"), BinOp::Lt, n, false),
        ),
        "POS",
    )
}

fn reads_catalog() -> Catalog {
    let cigar: Cigar = "4M".parse().unwrap();
    let reads = Table::from_columns(
        Schema::new(vec![
            Field::new("POS", DataType::U32),
            Field::new("CIGAR", DataType::ListU16),
            Field::new("SEQ", DataType::ListU8),
        ]),
        vec![
            Column::U32(vec![1, 10]),
            Column::ListU16(vec![cigar.pack().unwrap(); 2]),
            Column::ListU8(vec![vec![0, 1, 2, 3]; 2]),
        ],
    )
    .unwrap();
    let mut cat = Catalog::new();
    cat.register("READS", reads);
    cat
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
    let [dense, sparse] = [400, 8_000].map(|rows| {
        let mut cat = Catalog::new();
        cat.register("T", table(vec![("X", (0..rows).collect())]));
        cat
    });
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
    assert_eq!(rows(&table), rows(&want_table));
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
    assert_eq!(rows(&table), rows(&want_table));
    assert_eq!(stats, want, "a cache hit over changed data");
}
