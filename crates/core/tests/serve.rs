//! Integration tests for the multi-tenant serving layer: schedule
//! determinism and fairness across pool sizes (property-based, mirroring
//! the engine determinism suite), deterministic modeled device placement,
//! compiled-pipeline cache eviction order,
//! hit-after-evict correctness, deadline-aware admission, and the
//! per-request policy knobs (replication override, oracle rescue).

use genesis_core::sched::{fair_order, modeled_timeline};
use genesis_core::serve::{GenesisServer, Request, ServerConfig};
use genesis_core::{Compiler, CoreError, DeviceConfig, DispatchRecord};
use genesis_sql::ast::{AggFn, BinOp, ColRef, Expr, SelectItem};
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::{Column, DataType, Field, Schema, Table, Value};
use proptest::prelude::*;
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

fn catalog(rows: u32) -> Catalog {
    let schema = Schema::new(vec![Field::new("X", DataType::U32)]);
    let table = Table::from_columns(schema, vec![Column::U32((1..=rows).collect())]).unwrap();
    let mut cat = Catalog::new();
    cat.register("T", table);
    cat
}

fn scan() -> LogicalPlan {
    LogicalPlan::Scan { table: "T".into(), partition: None }
}

/// `SELECT SUM(X) FROM T WHERE X > threshold` — the threshold varies the
/// plan structure, so distinct thresholds get distinct cache fingerprints.
fn sum_above(threshold: u64) -> LogicalPlan {
    LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::Filter {
            input: Box::new(scan()),
            pred: Expr::Bin {
                op: BinOp::Gt,
                lhs: Box::new(Expr::Col(ColRef::bare("X"))),
                rhs: Box::new(Expr::Number(threshold)),
            },
        }),
        items: vec![SelectItem::Agg {
            func: AggFn::Sum,
            arg: Some(Expr::Col(ColRef::bare("X"))),
            alias: None,
        }],
        group_by: vec![],
    }
}

fn expected_sum(rows: u32, threshold: u64) -> u64 {
    (1..=u64::from(rows)).filter(|&x| x > threshold).sum()
}

fn server(devices: usize, paused: bool) -> GenesisServer {
    let mut cfg = ServerConfig::default().with_devices(devices, DeviceConfig::small());
    cfg.paused = paused;
    GenesisServer::new(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The dispatch order is a pure function of the submission sequence:
    /// the same tenant mix yields the identical `(tenant, job_id)`
    /// schedule — matching the fair-queue reference model — at any device
    /// pool size and shard count, each job's shards dispatch back to back
    /// in shard order, and every job computes the same result. Device
    /// placement is a pure function of it too: three fresh servers log the
    /// identical schedule, device and modeled interval included, equal to
    /// the reference timeline recomputed from the logged durations (every
    /// job arrives at 0: no ticket was collected before any submit), so no
    /// device ever runs two shards at once.
    #[test]
    fn schedule_is_deterministic_at_any_pool_size(
        mix in proptest::collection::vec(0usize..4, 1..14),
        shards in 1usize..=3,
    ) {
        let cat = catalog(16);
        let tenants = ["alice", "bob", "carol", "dave"];
        let reference = fair_order(
            &mix.iter()
                .enumerate()
                .map(|(i, &t)| (tenants[t].to_owned(), i as u64))
                .collect::<Vec<_>>(),
        );
        for devices in [1, 2, 4] {
            let mut runs = Vec::new();
            for _ in 0..3 {
                let srv = GenesisServer::new(
                    ServerConfig::default()
                        .with_devices(devices, DeviceConfig::small())
                        .with_shards(shards)
                        .start_paused(),
                );
                let tickets: Vec<_> = mix
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| {
                        srv.submit(Request::new(tenants[t], sum_above(i as u64 % 3)), &cat)
                            .unwrap()
                    })
                    .collect();
                srv.resume();
                for (i, ticket) in tickets.into_iter().enumerate() {
                    let (out, _) = ticket.wait().unwrap();
                    prop_assert_eq!(
                        out.row(0)[0].clone(),
                        Value::U64(expected_sum(16, i as u64 % 3))
                    );
                }
                // Everything but the wall-clock instants.
                runs.push(
                    srv.schedule_log()
                        .into_iter()
                        .map(|r| DispatchRecord { queued_us: 0, start_us: 0, end_us: 0, ..r })
                        .collect::<Vec<_>>(),
                );
            }
            let full = &runs[0];
            prop_assert!(
                runs.iter().all(|run| run == full),
                "placement moved at {} devices, {} shards", devices, shards
            );
            // One job at a time reaches the pool: its shard records are
            // contiguous in the log and ascend from 0.
            let mut log: Vec<(String, u64)> = Vec::new();
            let mut expected_shard = 0;
            for r in full {
                prop_assert!(
                    r.shard == expected_shard && r.shards == shards,
                    "shard {}/{} of job {} where shard {}/{} belongs",
                    r.shard, r.shards, r.job_id, expected_shard, shards
                );
                if r.shard == 0 {
                    log.push((r.tenant.clone(), r.job_id));
                } else {
                    prop_assert_eq!(log.last().map(|l| l.1), Some(r.job_id));
                }
                expected_shard = (r.shard + 1) % shards;
            }
            prop_assert_eq!(expected_shard, 0);
            prop_assert!(
                log == reference,
                "schedule diverged from the fair-order reference at {} devices, \
                 {} shards: {:?} vs {:?}", devices, shards, log, reference
            );
            let durations: Vec<(Duration, Duration)> =
                full.iter().map(|r| (Duration::ZERO, r.modeled_end - r.modeled_start)).collect();
            let placed: Vec<_> =
                full.iter().map(|r| (r.device, r.modeled_start, r.modeled_end)).collect();
            prop_assert_eq!(placed, modeled_timeline(devices, &durations));
            for d in 0..devices {
                let mut spans: Vec<_> = full
                    .iter()
                    .filter(|r| r.device == d)
                    .map(|r| (r.modeled_start, r.modeled_end))
                    .collect();
                spans.sort();
                prop_assert!(
                    spans.windows(2).all(|w| w[0].1 <= w[1].0),
                    "device {} overlaps itself: {:?}", d, spans
                );
            }
        }
    }

    /// No tenant is starved: in any prefix of the schedule, a tenant with
    /// jobs still queued is at most one dispatch behind every other
    /// tenant's count (round-robin bound).
    #[test]
    fn fair_queue_bounds_tenant_skew(
        mix in proptest::collection::vec(0usize..3, 2..14),
    ) {
        let cat = catalog(8);
        let tenants = ["a", "b", "c"];
        let srv = server(1, true);
        let tickets: Vec<_> = mix
            .iter()
            .map(|&t| srv.submit(Request::new(tenants[t], sum_above(0)), &cat).unwrap())
            .collect();
        srv.resume();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let log = srv.schedule_log();
        let total = |t: &str| mix.iter().filter(|&&i| tenants[i] == t).count();
        for prefix in 1..=log.len() {
            let served =
                |t: &str| log[..prefix].iter().filter(|r| r.tenant == t).count();
            for a in tenants {
                for b in tenants {
                    // While `a` still has queued jobs, `b` cannot get more
                    // than one full round ahead of it.
                    if served(a) < total(a) {
                        prop_assert!(
                            served(b) <= served(a) + 1,
                            "tenant {} starved: {} served {} vs {} served {}",
                            a, b, served(b), a, served(a)
                        );
                    }
                }
            }
        }
    }
}

/// The timeline's placement rule on fixed cases: a shard goes to the
/// device on which it can start first, ties to the lowest index.
#[test]
fn timeline_places_where_a_shard_starts_first() {
    let us = Duration::from_micros;
    // Four equal shards on two idle devices alternate d0, d1, d0, d1.
    let placed = modeled_timeline(2, &[(us(0), us(5)); 4]);
    assert_eq!(
        placed,
        [(0, us(0), us(5)), (1, us(0), us(5)), (0, us(5), us(10)), (1, us(5), us(10))]
    );
    // A job that arrives after the pool drained starts on device 0 at its
    // arrival, though device 1 has been free for longer...
    let placed = modeled_timeline(2, &[(us(0), us(4)), (us(0), us(2)), (us(9), us(1))]);
    assert_eq!(placed[2], (0, us(9), us(10)));
    // ...and a job already waiting takes the device that frees first.
    let placed = modeled_timeline(2, &[(us(0), us(4)), (us(0), us(2)), (us(0), us(1))]);
    assert_eq!(placed[2], (1, us(2), us(3)));
}

#[test]
fn cache_evicts_in_lru_order() {
    let cat = catalog(8);
    let srv = GenesisServer::new(
        ServerConfig::default()
            .with_devices(1, DeviceConfig::small())
            .with_cache_capacity(2),
    );
    let submit = |t: u64| srv.submit(Request::new("a", sum_above(t)), &cat).unwrap().wait();
    submit(0).unwrap(); // miss: {0}
    submit(1).unwrap(); // miss: {0,1}
    submit(0).unwrap(); // hit — refreshes 0, so 1 is now least recent
    submit(2).unwrap(); // miss: evicts 1 (LRU), not the refreshed 0
    let stats = srv.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 3, 1));
    submit(0).unwrap(); // still cached — proof 0 survived the eviction
    assert_eq!(srv.cache_stats().hits, 2);
    submit(1).unwrap(); // miss — proof 1 was the victim
    let stats = srv.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 4, 2));
    assert_eq!(stats.len, 2);
    assert_eq!(stats.capacity, 2);
}

#[test]
fn evicted_plan_recompiles_correctly_and_hits_again() {
    let rows = 12;
    let cat = catalog(rows);
    let srv = GenesisServer::new(
        ServerConfig::default()
            .with_devices(1, DeviceConfig::small())
            .with_cache_capacity(1)
            .with_reconfig_penalty(1_000),
    );
    let run = |t: u64| {
        let (out, stats) = srv.submit(Request::new("a", sum_above(t)), &cat).unwrap().wait().unwrap();
        assert_eq!(out.row(0)[0], Value::U64(expected_sum(rows, t)));
        stats.reconfig_cycles
    };
    assert_eq!(run(0), 1_000, "cold: pays the reconfiguration penalty");
    assert_eq!(run(5), 1_000, "capacity 1: evicts the first plan");
    // The evicted plan recompiles (penalty again) and computes the same
    // answer as before eviction...
    assert_eq!(run(0), 1_000, "re-entry after eviction is a fresh miss");
    // ...and once re-cached, repeats are free.
    assert_eq!(run(0), 0, "hit after re-insert");
    let stats = srv.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 3, 2));
}

#[test]
fn admission_rejects_unmeetable_deadline_under_backlog() {
    let cat = catalog(8);
    let srv = server(1, false);
    // Establish a service-time estimate, then build a backlog.
    srv.submit(Request::new("warm", sum_above(0)), &cat).unwrap().wait().unwrap();
    srv.pause();
    for _ in 0..6 {
        srv.submit(Request::new("bulk", sum_above(0)), &cat).unwrap();
    }
    // A deadline far below the estimated queue wait is rejected up front
    // rather than queued to certain failure...
    let err = srv
        .submit(Request::new("late", sum_above(0)).with_deadline(Duration::from_nanos(1)), &cat)
        .unwrap_err();
    let CoreError::Overloaded { tenant, queued, reason, .. } = &err else {
        panic!("expected Overloaded, got {err:?}");
    };
    assert_eq!(tenant, "late");
    assert_eq!(*queued, 6);
    assert!(reason.contains("deadline"), "got: {reason}");
    // ...while the same submission without a deadline is admitted.
    let ok = srv.submit(Request::new("late", sum_above(0)), &cat).unwrap();
    srv.resume();
    ok.wait().unwrap();
    assert_eq!(srv.metrics_snapshot().counters["server.admission.rejected"], 1);
}

/// Regression: a stampede of concurrent submits that all miss on the
/// same fingerprint must compile exactly once (single-flight). Pre-fix,
/// every thread that missed before the first insert compiled its own
/// duplicate (`compile` ran outside the cache lock with no in-flight
/// marker).
#[test]
fn concurrent_same_plan_submits_compile_once() {
    let srv = server(2, false);
    let n = 8;
    let barrier = Barrier::new(n);
    std::thread::scope(|scope| {
        for i in 0..n {
            let srv = &srv;
            let barrier = &barrier;
            scope.spawn(move || {
                let cat = catalog(16);
                barrier.wait();
                let (out, _) = srv
                    .submit(Request::new(format!("t{i}"), sum_above(7)), &cat)
                    .unwrap()
                    .wait()
                    .unwrap();
                assert_eq!(out.row(0)[0], Value::U64(expected_sum(16, 7)));
            });
        }
    });
    let snap = srv.metrics_snapshot();
    assert_eq!(
        snap.counters["server.cache.compiles"], 1,
        "8 concurrent same-plan submits must share one compile"
    );
    assert_eq!(snap.histograms["server.compile_ns"].count, 1);
    assert_eq!(snap.counters["server.cache.misses"], 1);
    assert_eq!(snap.counters["server.cache.hits"], n as u64 - 1);
    let stats = srv.cache_stats();
    assert_eq!(stats.len, 1, "one cached entry, not {}", stats.len);
}

/// Regression: deadline admission must count in-flight jobs, not just
/// queued ones. Pre-fix, `waves = queued.div_ceil(devices)` saw a
/// saturated pool with an empty queue as "no backlog" and admitted
/// deadlines the pool provably could not meet.
#[test]
fn admission_counts_in_flight_jobs() {
    let cat = catalog(8);
    let srv = server(1, false);
    // Establish the EWMA service-time estimate.
    srv.submit(Request::new("warm", sum_above(0)), &cat).unwrap().wait().unwrap();
    // Occupy the pool with a job that parks in its oracle: the
    // precompiled plan binds against an empty catalog, so the device run
    // fails and the gated oracle rescue holds the job in flight.
    let compiled =
        Compiler::new(DeviceConfig::small()).compile(&sum_above(0), &cat).unwrap();
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let blocker_gate = Arc::clone(&gate);
    let empty = Catalog::new();
    let blocker = srv
        .submit(
            Request::precompiled("block", compiled).with_oracle(move || {
                let (lock, cv) = &*blocker_gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(Table::from_columns(
                    Schema::new(vec![Field::new("S", DataType::U64)]),
                    vec![Column::U64(vec![0])],
                )
                .unwrap())
            }),
            &empty,
        )
        .unwrap();
    // Wait for the exact pre-fix blind spot: blocker dispatched (so the
    // queue is empty) but still in flight.
    let start = std::time::Instant::now();
    while srv.queue_depth() > 0 || srv.schedule_log().len() < 2 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "blocker was never dispatched"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // A 1 ns deadline cannot outlast a full service time behind the
    // in-flight job; admission must reject it despite the empty queue.
    let err = srv
        .submit(
            Request::new("late", sum_above(0)).with_deadline(Duration::from_nanos(1)),
            &cat,
        )
        .unwrap_err();
    assert!(
        matches!(err, CoreError::Overloaded { .. }),
        "saturated pool with empty queue must reject a doomed deadline: {err:?}"
    );
    let (lock, cv) = &*gate;
    *lock.lock().unwrap() = true;
    cv.notify_all();
    blocker.wait().unwrap();
}

/// Regression: a queued job whose submit-anchored deadline lapses must be
/// pruned at scheduling time — no dispatch record, no device or
/// reconfiguration time — and counted under `server.deadline.misses`
/// exactly once. Pre-fix the job reached a device before the deadline
/// check ran.
#[test]
fn expired_queued_job_is_pruned_before_reaching_a_device() {
    let cat = catalog(8);
    let srv = server(1, true); // paused: the job expires while queued
    let ticket = srv
        .submit(
            Request::new("late", sum_above(0)).with_deadline(Duration::from_millis(5)),
            &cat,
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    srv.resume();
    let start = std::time::Instant::now();
    while !ticket.is_done() {
        assert!(start.elapsed() < Duration::from_secs(10), "prune never settled");
        std::thread::sleep(Duration::from_millis(1));
    }
    let err = ticket.wait().unwrap_err();
    assert!(err.to_string().contains("missed its"), "got: {err}");
    assert!(
        srv.schedule_log().is_empty(),
        "an expired job must never reach a device"
    );
    assert!(srv.modeled_device_time().iter().all(Duration::is_zero));
    let snap = srv.metrics_snapshot();
    assert_eq!(snap.counters["server.deadline.misses"], 1);
    assert_eq!(snap.counters["server.jobs.completed"], 1);
}

#[test]
fn per_tenant_latency_histograms_are_published() {
    let cat = catalog(8);
    let srv = server(2, false);
    for tenant in ["alice", "bob"] {
        for _ in 0..2 {
            srv.submit(Request::new(tenant, sum_above(0)), &cat).unwrap().wait().unwrap();
        }
    }
    let snap = srv.metrics_snapshot();
    for tenant in ["alice", "bob"] {
        let h = &snap.histograms[&format!("server.tenant.{tenant}.latency_ns")];
        assert_eq!(h.count, 2, "two latency samples for {tenant}");
        assert!(h.max > 0);
    }
    assert!(snap.histograms["server.queue_depth"].count >= 4);
    assert_eq!(snap.counters["server.jobs.completed"], 4);
}

/// Regression: an order-less grouped `COUNT(*)` used to be admitted on
/// the strength of a kernel tag that nothing could run, took a cache
/// slot and failed at `Ticket::wait`. It is a structured compile error at
/// submit, before the cache or a device sees it.
#[test]
fn grouped_count_without_order_by_is_rejected_at_submit() {
    let srv = server(1, false);
    srv.register_script("hist", "INSERT INTO O SELECT X, COUNT(*) FROM T GROUP BY X").unwrap();
    let err = srv.submit(Request::script("a", "hist"), &catalog(8)).unwrap_err();
    let CoreError::Unsupported { node, reason } = &err else {
        panic!("expected Unsupported, got {err:?}");
    };
    assert_eq!(node, "Aggregate(GROUP BY)");
    assert!(reason.contains("ORDER BY"), "reason must suggest the fix: {reason}");
    assert_eq!(srv.cache_stats().len, 0, "a failed compile takes no cache slot");
    let snap = srv.metrics_snapshot();
    assert!(!snap.counters.contains_key("server.cache.compiles"));
    // Nothing was queued or dispatched, so nothing was reconfigured.
    assert_eq!(srv.queue_depth(), 0);
    assert!(srv.schedule_log().is_empty());
    assert!(srv.modeled_device_time().iter().all(Duration::is_zero));
}

#[test]
fn replication_override_reaches_the_run() {
    let cat = catalog(512);
    let compiled = Compiler::new(DeviceConfig::small()).compile(&sum_above(0), &cat).unwrap();
    assert_ne!(compiled.replication().factor, 2, "the override must differ from the default");
    let (_, chosen) = compiled.execute(&cat).unwrap();
    let (_, halved) = compiled.execute_replicated(&cat, 2).unwrap();
    assert_ne!(chosen.cycles, halved.cycles);
    let srv = server(1, false);
    let (out, stats) = srv
        .submit(Request::precompiled("a", compiled).with_replication(2), &cat)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(out.row(0)[0], Value::U64(expected_sum(512, 0)));
    assert_eq!(stats, halved, "the served run is the 2x run, not the cost model's choice");
}

#[test]
fn oracle_rescues_a_job_that_fails_to_bind() {
    let compiled =
        Compiler::new(DeviceConfig::small()).compile(&sum_above(0), &catalog(8)).unwrap();
    // Bound to a catalog missing the scanned table, the job fails on the
    // device; without an oracle that error surfaces at the ticket...
    let empty = Catalog::new();
    let srv = server(1, false);
    let bare = srv.submit(Request::precompiled("a", compiled.clone()), &empty).unwrap();
    assert!(bare.wait().is_err());
    let failed = |srv: &GenesisServer| srv.metrics_snapshot().counters["server.jobs.failed"];
    assert_eq!(failed(&srv), 1, "a ticket that resolves to Err is a failed job");
    // ...and with one, the oracle's table is the result.
    let rescued = Request::precompiled("a", compiled).with_oracle(|| {
        Ok(Table::from_columns(
            Schema::new(vec![Field::new("SUM", DataType::U64)]),
            vec![Column::U64(vec![36])],
        )?)
    });
    let (table, stats) = srv.submit(rescued, &empty).unwrap().wait().unwrap();
    assert_eq!(table.row(0)[0], Value::U64(36));
    assert_eq!(stats.faults.fallback_jobs, 1);
    assert_eq!(srv.metrics_snapshot().counters["server.faults.fallback_jobs"], 1);
    assert_eq!(failed(&srv), 1, "a rescued job is a served one");
}

/// The oracle is the caller's code: a panic in it costs its own ticket a
/// structured error and the device pool nothing. Both requests carry a
/// deadline so a lost ticket or a dead worker fails the test instead of
/// hanging it.
#[test]
fn panicking_oracle_is_contained_and_the_device_survives() {
    let compiled =
        Compiler::new(DeviceConfig::small()).compile(&sum_above(0), &catalog(8)).unwrap();
    let srv = server(1, false);
    let deadline = Duration::from_secs(2);
    let doomed = Request::precompiled("a", compiled.clone())
        .with_deadline(deadline)
        .with_oracle(|| panic!("boom"));
    // Bound to a catalog missing the scanned table, the job needs its oracle.
    let err = srv.submit(doomed, &Catalog::new()).unwrap().wait().unwrap_err();
    let CoreError::Host(msg) = &err else { panic!("expected a host error, got {err:?}") };
    assert!(msg.contains("oracle panicked: boom"), "got: {msg}");
    // The one device still serves the next, healthy request.
    let healthy = Request::precompiled("a", compiled).with_deadline(deadline);
    let (table, _) = srv.submit(healthy, &catalog(8)).unwrap().wait().unwrap();
    assert_eq!(table.row(0)[0], Value::U64(expected_sum(8, 0)));
    let counters = srv.metrics_snapshot().counters;
    assert_eq!(counters["server.jobs.failed"], 1);
    assert_eq!(counters["server.jobs.completed"], 2);
}
