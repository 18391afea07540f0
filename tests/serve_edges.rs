//! Edges of the serving path (ROADMAP D-iv).
//!
//! Empty inputs: a zero-row table, a filter that drops every row, a spine
//! with fewer rows than shards and a cached plan bound to a table emptied
//! since it was compiled — each through `GenesisServer` at 1 and 2
//! shards. Every request, streamed rows, scalar aggregates and a grouped
//! aggregate alike, must resolve exactly once, without a panic, to the
//! table the software engine computes: a key with no value to hold sizes
//! a one-key scratchpad no update touches, and its drain emits nothing.
//!
//! Lifecycle: a server dropped with jobs still queued, a zero deadline and
//! a zero queue bound — no ordering of these may panic, hang or lose a
//! ticket.

mod common;

use common::{agg, aggregate, bin, catalog_of, col, filter, grouped, same_table, scalar_aggs};
use common::{scan, u32_table};
use genesis::core::device::DeviceConfig;
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::core::CoreError;
use genesis::sql::ast::{AggFn, BinOp, Expr};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan};
use std::time::Duration;

/// `T(X, K)` over `xs`, `K = X % 3`.
fn catalog(xs: Vec<u32>) -> Catalog {
    let ks = xs.iter().map(|x| x % 3).collect();
    catalog_of(vec![("T", u32_table(vec![("X", xs), ("K", ks)]))])
}

/// `FROM T WHERE X < bound`
fn below(bound: u64) -> LogicalPlan {
    filter(scan("T"), bin(BinOp::Lt, col("X"), Expr::Number(bound)))
}

/// Streamed rows, scalar aggregates and `COUNT(*)` grouped by `K` over
/// `input`.
fn every_sink(input: &LogicalPlan) -> Vec<LogicalPlan> {
    let scalar = aggregate(input.clone(), scalar_aggs("X"));
    vec![input.clone(), scalar, grouped(input.clone(), "K", &[])]
}

/// Submits every plan twice over each of `cats` in turn to a paused
/// server, resumes, and checks every ticket against the software engine.
fn check(what: &str, cats: &[&Catalog], plans: &[LogicalPlan]) {
    for shards in [1, 2] {
        let server = GenesisServer::new(
            ServerConfig::default()
                .with_devices(2, DeviceConfig::small())
                .with_shards(shards)
                .start_paused(),
        );
        let mut tickets = Vec::new();
        for cat in cats {
            for plan in plans.iter().flat_map(|p| [p, p]) {
                let ticket = server.submit(Request::new("t", plan.clone()), cat).unwrap();
                tickets.push((plan, *cat, ticket));
            }
        }
        let cache = server.cache_stats();
        assert_eq!(cache.misses as usize, plans.len(), "{what}: each plan compiles once");
        server.resume();
        let submitted = tickets.len() as u64;
        for (plan, cat, ticket) in tickets {
            let (hw, _) =
                ticket.wait().unwrap_or_else(|e| panic!("{what}, {shards} shard(s): {e}"));
            let sw = execute_plan(plan, cat, &Env::default()).unwrap();
            same_table(&hw, &sw, &format!("{what}, {shards} shard(s)")).unwrap();
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
    check("zero-row table", &[&catalog(vec![])], &every_sink(&below(10)));
}

#[test]
fn filter_that_drops_every_row() {
    check("all rows dropped", &[&catalog((0..40).collect())], &every_sink(&below(0)));
}

#[test]
fn spine_shorter_than_the_shard_count() {
    check("one-row spine", &[&catalog(vec![7])], &every_sink(&below(10)));
}

/// Each plan compiles over forty rows and is then bound, from the cache,
/// to the same table with no rows.
#[test]
fn a_cached_plan_bound_to_an_emptied_table() {
    let plans = every_sink(&below(10));
    check("emptied table", &[&catalog((0..40).collect()), &catalog(vec![])], &plans);
}

/// `SELECT COUNT(*) FROM T WHERE X < 10` over `0..40`.
fn count_below_ten() -> (Catalog, LogicalPlan) {
    let plan = aggregate(below(10), vec![agg(AggFn::Count, None)]);
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
