//! Scatter-gather sharding properties of the serving layer.
//!
//! For random genomic-shaped tables and plan shapes, a sharded
//! multi-device `GenesisServer` run must produce a table bit-identical
//! to both the unsharded single-device server and the synchronous
//! `PipelinePlan::execute` — shards split on (chromosome, PSIZE-window)
//! boundaries and merge in partition order, so the split is invisible in
//! the output.
//!
//! Two fixed cases pin the modeled device timeline's placement — a shard
//! goes to the device on which it can start first, ties to the lowest
//! index, from its job's modeled arrival — that `modeled_device_time` and
//! the modeled rows of `BENCH_serve.json` rest on. A third serves the
//! paper's compiled Figure 4 sharded.

use genesis_core::compile::figure4_script;
use genesis_core::serve::{GenesisServer, Request, ServerConfig};
use genesis_core::{Compiler, DeviceConfig};
use genesis_datagen::{DatagenConfig, Dataset};
use genesis_sql::ast::{AggFn, BinOp, ColRef, Expr, SelectItem};
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::table::{reads_to_table, ref_segment_to_table};
use genesis_types::{Column, DataType, Field, Schema, Table};
use std::time::Duration;

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
}

/// 4 chromosomes × 3 PSIZE windows each: plenty of shard boundaries.
fn four_chromosomes() -> Catalog {
    let rows: Vec<(u8, u32, u32)> = (0..256)
        .map(|i| (i as u8 / 64, u32::from(i as u8 % 64) * 40_000, u32::from(i as u8)))
        .collect();
    genomic_catalog(&rows)
}

/// Sharding fans out, and in index order: on an idle 4-device pool a
/// 4-shard job dispatches one record per shard — reported in the schedule
/// log and metrics — and shard `i` runs on device `i`, on every fresh
/// server.
#[test]
fn sharding_fans_out_across_the_pool() {
    let cat = four_chromosomes();
    for _ in 0..50 {
        let srv = GenesisServer::new(
            ServerConfig::default().with_devices(4, DeviceConfig::small()).with_shards(4),
        );
        let (out, _) =
            srv.submit(Request::new("g", shaped_plan(1, 0)), &cat).unwrap().wait().unwrap();
        assert_eq!(out.num_rows(), 4);
        let log = srv.schedule_log();
        assert_eq!(log.len(), 4, "one shard per chromosome");
        for (i, r) in log.iter().enumerate() {
            assert_eq!((r.job_id, r.shard, r.shards, r.device), (0, i, 4, i));
        }
        assert_eq!(srv.metrics_snapshot().counters["server.shards.dispatched"], 4);
    }
}

/// A sequential stream never spreads: each request finds the whole pool
/// idle again and takes device 0, so the other devices model no busy time.
#[test]
fn a_sequential_stream_stays_on_device_zero() {
    let cat = four_chromosomes();
    let srv =
        GenesisServer::new(ServerConfig::default().with_devices(4, DeviceConfig::small()));
    for _ in 0..200 {
        srv.submit(Request::new("g", shaped_plan(2, 0)), &cat).unwrap().wait().unwrap();
    }
    let log = srv.schedule_log();
    assert_eq!(log.len(), 200);
    assert!(log.iter().all(|r| r.device == 0), "a request left device 0");
    let busy = srv.modeled_device_time();
    assert!(!busy[0].is_zero());
    assert!(busy[1..].iter().all(Duration::is_zero), "idle devices modeled busy: {busy:?}");
}

/// The compiled Figure 4 served sharded: only the `READS` spine splits —
/// every shard's replicas load the whole `REF` window, here one starting at
/// 5 kbp — so 1 and 3 shards on a 2-device pool both return
/// `PipelinePlan::execute`'s table.
#[test]
fn figure4_serves_sharded_bit_identical() {
    const START: u32 = 5_000;
    let dataset = Dataset::generate(&DatagenConfig::tiny());
    let chrom = dataset.genome.iter().next().unwrap();
    let reads: Vec<_> =
        dataset.reads.iter().filter(|r| r.chr == chrom.chrom && r.pos >= START).cloned().collect();
    let snp: Vec<bool> = chrom.is_snp.iter().skip(START as usize).collect();
    let window = ref_segment_to_table(chrom.chrom.id(), START, &chrom.seq[START as usize..], &snp);
    let mut cat = Catalog::new();
    cat.register_partition("READS", 0, reads_to_table(&reads).unwrap());
    cat.register_partition("REF", 0, window);
    let plan = Compiler::new(DeviceConfig::small()).compile_sql(figure4_script(), &cat).unwrap();
    let (direct, _) = plan.execute(&cat).unwrap();
    assert_eq!(direct.num_rows(), reads.len());
    for shards in [1, 3] {
        let srv = GenesisServer::new(
            ServerConfig::default().with_devices(2, DeviceConfig::small()).with_shards(shards),
        );
        let ticket = srv.submit(Request::precompiled("fig4", plan.clone()), &cat).unwrap();
        let (out, _) = ticket.wait().unwrap();
        assert!(out == direct, "{shards} shard(s) diverged from PipelinePlan::execute");
        assert_eq!(srv.schedule_log().len(), shards, "the READS spine splits into the shards");
    }
}
