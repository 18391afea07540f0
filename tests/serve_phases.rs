//! The per-request latency budget: `server.phase.*` histograms must tile
//! each request's latency exactly, the way stall buckets tile cycles.
//!
//! Every phase is the gap between two neighbouring instants on one chain
//! from `submit` entry to delivery, so over any set of completed requests
//! the phase sums add up to the summed tenant latency to the nanosecond,
//! and every histogram holds one observation per completed request —
//! including requests that expired in the queue.

mod common;

use common::{agg, aggregate, bin, catalog_of, col, filter, scan, u32_table};
use genesis::core::device::DeviceConfig;
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::obs::metrics::MetricsSnapshot;
use genesis::sql::ast::{AggFn, BinOp, Expr};
use genesis::sql::{Catalog, LogicalPlan};
use std::time::Duration;

const PHASES: [&str; 5] = ["prepare", "admit", "queue_wait", "run", "gather"];
const RUN_STEPS: [&str; 3] = ["build", "simulate", "extract"];

fn catalog(rows: u32) -> Catalog {
    let table = u32_table(vec![("X", (0..rows).collect()), ("K", (0..rows).map(|i| i % 5).collect())]);
    catalog_of(vec![("T", table)])
}

/// `SELECT SUM(X) FROM T WHERE X < bound`
fn sum_below(bound: u64) -> LogicalPlan {
    let below = filter(scan("T"), bin(BinOp::Lt, col("X"), Expr::Number(bound)));
    aggregate(below, vec![agg(AggFn::Sum, Some("X"))])
}

/// Asserts the tiling invariant over everything `snap` has recorded.
fn assert_phases_tile(snap: &MetricsSnapshot, completed: u64) {
    assert_eq!(snap.counters["server.jobs.completed"], completed);
    let mut phase_sum = 0u64;
    for phase in PHASES {
        let h = &snap.histograms[&format!("server.phase.{phase}_ns")];
        assert_eq!(h.count, completed, "server.phase.{phase}_ns count");
        phase_sum += h.sum;
    }
    for step in RUN_STEPS {
        let h = &snap.histograms[&format!("server.run.{step}_ns")];
        assert_eq!(h.count, completed, "server.run.{step}_ns count");
    }
    let (latency_count, latency_sum) = snap
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("server.tenant.") && name.ends_with(".latency_ns"))
        .fold((0, 0), |(c, s), (_, h)| (c + h.count, s + h.sum));
    assert_eq!(latency_count, completed, "one latency observation per request");
    assert_eq!(phase_sum, latency_sum, "phases must tile end-to-end latency exactly");
}

#[test]
fn phases_tile_latency_over_a_closed_loop() {
    let cat = catalog(256);
    for shards in [1, 2] {
        let server = GenesisServer::new(
            ServerConfig::default().with_devices(2, DeviceConfig::small()).with_shards(shards),
        );
        for i in 0..200u64 {
            let tenant = if i % 3 == 0 { "a" } else { "b" };
            let (out, _) = server
                .submit(Request::new(tenant, sum_below(16 + i % 4)), &cat)
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(out.num_rows(), 1);
        }
        let snap = server.metrics_snapshot();
        assert_phases_tile(&snap, 200);
        // Every request did real work in every phase but the queue.
        for name in ["server.phase.prepare_ns", "server.phase.run_ns", "server.run.simulate_ns"] {
            assert!(snap.histograms[name].sum > 0, "{name} recorded nothing");
        }
        // One shard at a time: the run steps happen inside the run phase.
        // (Shards of one job overlap on a pool, so their summed steps may
        // exceed it.)
        if shards == 1 {
            let run = snap.histograms["server.phase.run_ns"].sum;
            let steps: u64 = RUN_STEPS
                .iter()
                .map(|s| snap.histograms[&format!("server.run.{s}_ns")].sum)
                .sum();
            assert!(steps <= run, "run steps ({steps} ns) exceed the run phase ({run} ns)");
        }
    }
}

#[test]
fn expired_requests_tile_too() {
    let cat = catalog(64);
    let server = GenesisServer::new(
        ServerConfig::default()
            .with_devices(1, DeviceConfig::small())
            .with_shards(2)
            .start_paused(),
    );
    // Six identical requests queue up behind one device; the seventh
    // expires in the queue and never reaches a device.
    let mut tickets: Vec<_> = (0..6)
        .map(|i| server.submit(Request::new(format!("t{}", i % 2), sum_below(32)), &cat).unwrap())
        .collect();
    let late = server
        .submit(Request::new("late", sum_below(8)).with_deadline(Duration::from_nanos(1)), &cat)
        .unwrap();
    server.resume();
    assert!(late.wait().is_err(), "a 1 ns deadline cannot be met");
    let (first, _) = tickets.remove(0).wait().unwrap();
    for t in tickets {
        assert_eq!(t.wait().unwrap().0, first);
    }
    // The expired job is settled when it reaches the head of the queue,
    // possibly after its ticket gave up.
    while server.completed() < 7 {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_phases_tile(&server.metrics_snapshot(), 7);
}
