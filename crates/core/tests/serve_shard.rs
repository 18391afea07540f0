//! Scatter-gather sharding and cross-request batching properties of the
//! serving layer.
//!
//! Sharding: for random genomic-shaped tables and plan shapes, a sharded
//! multi-device `GenesisServer` run must produce a table bit-identical
//! to both the unsharded single-device server and the synchronous
//! `PipelinePlan::execute` — shards split on (chromosome, PSIZE-window)
//! boundaries and merge in partition order, so the split is invisible in
//! the output.
//!
//! Batching: coalesced same-fingerprint (and same-data) requests all
//! receive identical results from a single device run.

use genesis_core::serve::{GenesisServer, Request, ServerConfig};
use genesis_core::{Compiler, DeviceConfig};
use genesis_sql::ast::{AggFn, BinOp, ColRef, Expr, SelectItem};
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::{Column, DataType, Field, Schema, Table};

use proptest::prelude::*;

/// A reads-like table: chromosome ids, positions spanning several PSIZE
/// (1 M) windows, and a payload column.
fn genomic_catalog(rows: &[(u8, u32, u32)]) -> Catalog {
    let schema = Schema::new(vec![
        Field::new("CHR", DataType::U8),
        Field::new("POS", DataType::U32),
        Field::new("X", DataType::U32),
    ]);
    let table = Table::from_columns(
        schema,
        vec![
            Column::U8(rows.iter().map(|r| r.0).collect()),
            Column::U32(rows.iter().map(|r| r.1).collect()),
            Column::U32(rows.iter().map(|r| r.2).collect()),
        ],
    )
    .unwrap();
    let mut cat = Catalog::new();
    cat.register("R", table);
    cat
}

fn scan() -> LogicalPlan {
    LogicalPlan::Scan { table: "R".into(), partition: None }
}

fn col(name: &str) -> Expr {
    Expr::Col(ColRef::bare(name))
}

fn agg(func: AggFn, arg: Option<Expr>) -> SelectItem {
    SelectItem::Agg { func, arg, alias: None }
}

/// Four plan shapes spanning every merge path: streamed rows under host
/// epilogues (concat at gather, then one sort+limit), scalar aggregates
/// (sum/min/max/count folds), and grouped aggregates (key-wise merge).
fn shaped_plan(shape: usize, threshold: u32) -> LogicalPlan {
    match shape % 4 {
        // SELECT SUM(X) FROM R WHERE POS > threshold*3000
        0 => LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan()),
                pred: Expr::Bin {
                    op: BinOp::Gt,
                    lhs: Box::new(col("POS")),
                    rhs: Box::new(Expr::Number(u64::from(threshold) * 3000)),
                },
            }),
            items: vec![agg(AggFn::Sum, Some(col("X")))],
            group_by: vec![],
        },
        // SELECT CHR, SUM(X) FROM R GROUP BY CHR ORDER BY CHR
        1 => LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Aggregate {
                input: Box::new(scan()),
                items: vec![
                    SelectItem::Expr { expr: col("CHR"), alias: None },
                    agg(AggFn::Sum, Some(col("X"))),
                ],
                group_by: vec![ColRef::bare("CHR")],
            }),
            keys: vec![(ColRef::bare("CHR"), false)],
        },
        // SELECT MIN(X), MAX(X), COUNT(*) FROM R
        2 => LogicalPlan::Aggregate {
            input: Box::new(scan()),
            items: vec![
                agg(AggFn::Min, Some(col("X"))),
                agg(AggFn::Max, Some(col("X"))),
                agg(AggFn::Count, None),
            ],
            group_by: vec![],
        },
        // SELECT * FROM R WHERE X > threshold ORDER BY POS LIMIT 16
        _ => LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(LogicalPlan::Filter {
                    input: Box::new(scan()),
                    pred: Expr::Bin {
                        op: BinOp::Gt,
                        lhs: Box::new(col("X")),
                        rhs: Box::new(Expr::Number(u64::from(threshold))),
                    },
                }),
                keys: vec![(ColRef::bare("POS"), false), (ColRef::bare("X"), false)],
            }),
            offset: Expr::Number(0),
            count: Expr::Number(16),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A sharded multi-device run is bit-identical to the unsharded
    /// single-device run *and* to the synchronous `PipelinePlan::execute`,
    /// for every plan shape and 1/2/4-device pools.
    #[test]
    fn sharded_run_is_bit_identical_to_unsharded(
        rows in proptest::collection::vec(
            (0u8..4, 0u32..3_000_000, 0u32..1000), 1..120,
        ),
        shape in 0usize..4,
        threshold in 0u32..1000,
        shards in 2usize..6,
    ) {
        let cat = genomic_catalog(&rows);
        let plan = shaped_plan(shape, threshold);

        // Reference 1: the compiled plan run synchronously, no server.
        let compiled =
            Compiler::new(DeviceConfig::small()).compile(&plan, &cat).unwrap();
        let (direct_out, _) = compiled.execute(&cat).unwrap();

        // Reference 2: an unsharded single-device server.
        let unsharded = GenesisServer::new(
            ServerConfig::default().with_devices(1, DeviceConfig::small()),
        );
        let (base_out, _) = unsharded
            .submit(Request::new("ref", plan.clone()), &cat)
            .unwrap()
            .wait()
            .unwrap();
        prop_assert!(base_out == direct_out, "server vs direct execute disagree unsharded");
        // The same plan handed over precompiled skips the cache, not the pool.
        let (pre_out, _) = unsharded
            .submit(Request::precompiled("ref", compiled), &cat)
            .unwrap()
            .wait()
            .unwrap();
        prop_assert!(pre_out == base_out, "precompiled vs inline plan disagree");

        for devices in [1usize, 2, 4] {
            let srv = GenesisServer::new(
                ServerConfig::default()
                    .with_devices(devices, DeviceConfig::small())
                    .with_shards(shards),
            );
            let (out, _) = srv
                .submit(Request::new("shard", plan.clone()), &cat)
                .unwrap()
                .wait()
                .unwrap();
            prop_assert!(
                out == base_out,
                "sharded ({} shards, {} devices) output diverged", shards, devices
            );
        }
    }

    /// Every request coalesced onto one device run receives an identical
    /// result, the group dispatches exactly once, and non-matching plans
    /// are untouched.
    #[test]
    fn coalesced_requests_receive_identical_results(
        rows in proptest::collection::vec(
            (0u8..4, 0u32..3_000_000, 0u32..1000), 1..60,
        ),
        dup in 2usize..6,
        others in 0usize..3,
    ) {
        let cat = genomic_catalog(&rows);
        let srv = GenesisServer::new(
            ServerConfig::default()
                .with_devices(1, DeviceConfig::small())
                .with_batching(true)
                .start_paused(),
        );
        let dup_plan = shaped_plan(1, 0);
        let tickets: Vec<_> = (0..dup)
            .map(|i| {
                srv.submit(Request::new(format!("t{i}"), dup_plan.clone()), &cat)
                    .unwrap()
            })
            .collect();
        let other_tickets: Vec<_> = (0..others)
            .map(|i| {
                srv.submit(Request::new(format!("o{i}"), shaped_plan(2, 0)), &cat)
                    .unwrap()
            })
            .collect();
        srv.resume();
        let outs: Vec<Table> =
            tickets.into_iter().map(|t| t.wait().unwrap().0).collect();
        for o in other_tickets {
            o.wait().unwrap();
        }
        for out in &outs[1..] {
            prop_assert!(out == &outs[0], "coalesced results must be identical");
        }
        let snap = srv.metrics_snapshot();
        // The `t*` followers coalesce onto their leader — and the `o*`
        // requests (which also share a plan) coalesce among themselves.
        prop_assert_eq!(
            snap.counters.get("server.batch.coalesced").copied().unwrap_or(0),
            (dup - 1 + others.saturating_sub(1)) as u64
        );
        prop_assert_eq!(snap.counters["server.jobs.completed"], (dup + others) as u64);
        let dup_dispatches = srv
            .schedule_log()
            .iter()
            .filter(|r| r.tenant.starts_with('t'))
            .count();
        prop_assert_eq!(dup_dispatches, 1);
    }
}

/// Deterministic smoke check that sharding actually fans out: a 4-device
/// pool with 4 shards dispatches multiple shard records for one job and
/// reports them in the schedule log and metrics.
#[test]
fn sharding_fans_out_across_the_pool() {
    // 4 chromosomes × 2 PSIZE windows each: plenty of shard boundaries.
    let rows: Vec<(u8, u32, u32)> = (0..256)
        .map(|i| (i as u8 / 64, u32::from(i as u8 % 64) * 40_000, u32::from(i as u8)))
        .collect();
    let cat = genomic_catalog(&rows);
    let srv = GenesisServer::new(
        ServerConfig::default().with_devices(4, DeviceConfig::small()).with_shards(4),
    );
    let (out, _) = srv
        .submit(Request::new("g", shaped_plan(1, 0)), &cat)
        .unwrap()
        .wait()
        .unwrap();
    assert!(out.num_rows() >= 1);
    let log = srv.schedule_log();
    assert!(log.len() > 1, "expected multiple shard dispatches, got {}", log.len());
    assert!(log.iter().all(|r| r.job_id == 0 && r.shards == log.len()));
    let mut shards: Vec<usize> = log.iter().map(|r| r.shard).collect();
    shards.sort_unstable();
    assert_eq!(shards, (0..log.len()).collect::<Vec<_>>());
    let snap = srv.metrics_snapshot();
    assert_eq!(snap.counters["server.shards.dispatched"], log.len() as u64);
}
