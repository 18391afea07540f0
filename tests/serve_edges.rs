//! Edges of the serving path (ROADMAP D-iv).
//!
//! Empty inputs: a zero-row table, a filter that drops every row, and a
//! spine with fewer rows than shards — each through `GenesisServer` at 1
//! and 2 shards. Every request must resolve exactly once, without a
//! panic, to the table the software engine computes. The one shape that
//! does not lower over an empty stream — a grouped aggregate, whose
//! scratchpad domain comes from the scanned keys — must be refused at
//! `submit` with a structured error, never queued.
//!
//! Lifecycle: a server dropped with jobs still queued, a zero deadline and
//! a zero queue bound — no ordering of these may panic, hang or lose a
//! ticket.

use genesis::core::device::DeviceConfig;
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::core::CoreError;
use genesis::sql::ast::{AggFn, BinOp, ColRef, Expr, SelectItem};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::{Column, DataType, Field, Schema, Table};
use std::time::Duration;

fn catalog(xs: Vec<u32>) -> Catalog {
    let ks = xs.iter().map(|x| x % 3).collect();
    let table = Table::from_columns(
        Schema::new(vec![Field::new("X", DataType::U32), Field::new("K", DataType::U32)]),
        vec![Column::U32(xs), Column::U32(ks)],
    )
    .unwrap();
    let mut cat = Catalog::new();
    cat.register("T", table);
    cat
}

fn col(name: &str) -> Expr {
    Expr::Col(ColRef::bare(name))
}

/// `FROM T WHERE X < bound`
fn below(bound: u64) -> LogicalPlan {
    LogicalPlan::Filter {
        input: Box::new(LogicalPlan::Scan { table: "T".into(), partition: None }),
        pred: Expr::Bin {
            op: BinOp::Lt,
            lhs: Box::new(col("X")),
            rhs: Box::new(Expr::Number(bound)),
        },
    }
}

fn agg(func: AggFn, arg: Option<Expr>) -> SelectItem {
    SelectItem::Agg { func, arg, alias: None }
}

/// `SELECT K, COUNT(*) FROM <input> GROUP BY K ORDER BY K`
fn grouped(input: &LogicalPlan) -> LogicalPlan {
    LogicalPlan::Sort {
        input: Box::new(LogicalPlan::Aggregate {
            input: Box::new(input.clone()),
            items: vec![SelectItem::Expr { expr: col("K"), alias: None }, agg(AggFn::Count, None)],
            group_by: vec![ColRef::bare("K")],
        }),
        keys: vec![(ColRef::bare("K"), false)],
    }
}

/// Streamed rows and scalar aggregates over `input`.
fn stream_and_scalar(input: &LogicalPlan) -> Vec<LogicalPlan> {
    vec![
        input.clone(),
        LogicalPlan::Aggregate {
            input: Box::new(input.clone()),
            items: vec![
                agg(AggFn::Count, None),
                agg(AggFn::Sum, Some(col("X"))),
                agg(AggFn::Min, Some(col("X"))),
                agg(AggFn::Max, Some(col("X"))),
            ],
            group_by: vec![],
        },
    ]
}

/// Submits every plan twice to a paused server, resumes, and checks
/// every ticket against the software engine. `refused` must not pass
/// `submit`.
fn check(what: &str, cat: &Catalog, plans: &[LogicalPlan], refused: Option<&LogicalPlan>) {
    for shards in [1, 2] {
        let server = GenesisServer::new(
            ServerConfig::default()
                .with_devices(2, DeviceConfig::small())
                .with_shards(shards)
                .start_paused(),
        );
        let tickets: Vec<_> = plans
            .iter()
            .flat_map(|p| [p, p])
            .map(|p| (p, server.submit(Request::new("t", p.clone()), cat).unwrap()))
            .collect();
        if let Some(plan) = refused {
            let err = server.submit(Request::new("t", plan.clone()), cat).unwrap_err();
            let CoreError::Unsupported { node, reason } = err else { panic!("{what}: {err}") };
            assert_eq!(node, "Aggregate(GROUP BY)");
            assert_eq!(reason, "group key K has no derivable domain bound");
        }
        server.resume();
        let submitted = tickets.len() as u64;
        for (plan, ticket) in tickets {
            let (hw, _) =
                ticket.wait().unwrap_or_else(|e| panic!("{what}, {shards} shard(s): {e}"));
            let sw = execute_plan(plan, cat, &Env::default()).unwrap();
            let names = |t: &Table| -> Vec<String> {
                t.schema().fields().iter().map(|f| f.name.clone()).collect()
            };
            assert_eq!(names(&hw), names(&sw), "{what}: schema");
            let rows = |t: &Table| (0..t.num_rows()).map(|r| t.row(r)).collect::<Vec<_>>();
            assert_eq!(rows(&hw), rows(&sw), "{what}, {shards} shard(s)");
        }
        assert_eq!(server.completed(), submitted, "{what}: every ticket resolves once");
        assert_eq!(
            server.metrics_snapshot().counters["server.jobs.completed"],
            submitted,
            "{what}: completions counted once"
        );
    }
}

#[test]
fn zero_row_table() {
    let input = below(10);
    check("zero-row table", &catalog(vec![]), &stream_and_scalar(&input), Some(&grouped(&input)));
}

#[test]
fn filter_that_drops_every_row() {
    let input = below(0);
    let cat = catalog((0..40).collect());
    check("all rows dropped", &cat, &stream_and_scalar(&input), Some(&grouped(&input)));
}

#[test]
fn spine_shorter_than_the_shard_count() {
    let input = below(10);
    let mut plans = stream_and_scalar(&input);
    plans.push(grouped(&input));
    check("one-row spine", &catalog(vec![7]), &plans, None);
}

/// `SELECT COUNT(*) FROM T WHERE X < 10` over `0..40`.
fn count_below_ten() -> (Catalog, LogicalPlan) {
    let plan = LogicalPlan::Aggregate {
        input: Box::new(below(10)),
        items: vec![agg(AggFn::Count, None)],
        group_by: vec![],
    };
    (catalog((0..40).collect()), plan)
}

#[test]
fn dropping_a_paused_server_drains_its_queue() {
    let (cat, plan) = count_below_ten();
    let server = GenesisServer::new(
        ServerConfig::default()
            .with_devices(2, DeviceConfig::small())
            .with_shards(2)
            .start_paused(),
    );
    let tickets: Vec<_> = (0..6)
        .map(|i| server.submit(Request::new(format!("t{}", i % 3), plan.clone()), &cat).unwrap())
        .collect();
    assert_eq!(server.queue_depth(), 6);
    drop(server);
    // Every admitted job is owed a result, and tickets outlive the server.
    for ticket in tickets {
        assert!(ticket.is_done());
        let (out, _) = ticket.wait().unwrap();
        assert_eq!(out.row(0)[0], genesis::types::Value::U64(10));
    }
}

#[test]
fn zero_deadline_is_a_structured_error_counted_once() {
    let (cat, plan) = count_below_ten();
    let server =
        GenesisServer::new(ServerConfig::default().with_devices(1, DeviceConfig::small()));
    let err = server
        .submit(Request::new("t", plan).with_deadline(Duration::ZERO), &cat)
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(matches!(err, CoreError::Host(_)), "got: {err:?}");
    assert!(err.to_string().contains("deadline"), "got: {err}");
    // The queue-side prune settles the job whether or not its ticket gave
    // up first; either way it counts once and never reaches a device.
    while server.completed() < 1 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let snap = server.metrics_snapshot();
    assert_eq!(snap.counters["server.jobs.completed"], 1);
    assert_eq!(snap.counters["server.deadline.misses"], 1);
    assert!(server.schedule_log().is_empty());
}

#[test]
fn zero_queue_bound_rejects_every_submit() {
    let (cat, plan) = count_below_ten();
    let server = GenesisServer::new(
        ServerConfig::default().with_devices(2, DeviceConfig::small()).with_max_pending(0),
    );
    for _ in 0..3 {
        let err = server.submit(Request::new("t", plan.clone()), &cat).unwrap_err();
        let CoreError::Overloaded { queued, limit, .. } = err else { panic!("got: {err:?}") };
        assert_eq!((queued, limit), (0, 0));
    }
    assert_eq!(server.queue_depth(), 0);
    assert_eq!(server.completed(), 0);
    drop(server); // must not hang on workers that never saw a job
}
