//! Serving-layer benchmark (`cargo bench --bench serve_throughput`).
//!
//! Three questions (`genesis_bench::scenarios`):
//!
//! 1. **Cache value.** The same plans submitted with the compiled-pipeline
//!    cache disabled (every submit recompiles and pays the reconfiguration
//!    penalty) vs. enabled. Gate: warm-cache per-job compile+reconfigure
//!    overhead ≥ 5× lower than cold.
//! 2. **Pool value.** A mixed three-tenant job set on a 1-device vs. a
//!    4-device server. The 1-device modeled makespan is a sum of
//!    simulated cycles; the 4-device one depends on which worker thread
//!    frees first, so it is reported on the wall clock and not gated.
//! 3. **Serving under load.** The closed/open-loop load generator
//!    (`genesis_bench::load`) drives ≥ 100 k requests: one sequential
//!    client against a 4-device pool unsharded vs. 4-shard scatter-gather
//!    (gate: sharding ≥ 2× modeled goodput — the pool-scaling gate), and
//!    an open-loop row that overloads one device against a deadline SLO
//!    to show load shedding while in-SLO goodput holds.
//!
//! Snapshot: `BENCH_serve.json`, whose modeled rows `tests/golden.rs`
//! regenerates.

use genesis_bench::scenarios::{
    cache_runs, closed_loop_run, open_overload_run, serve_modeled_rows, shard_gain, PoolRun,
};
use genesis_bench::snapshot::{self, Row, Value};
use std::time::Duration;

/// Requests per closed-loop row (two rows) and for the open-loop row;
/// together ≥ 100 k requests through the serving layer.
const CLOSED_REQUESTS: usize = 12_000;
const OPEN_REQUESTS: usize = 80_000;

fn ms(d: Duration) -> Value {
    Value::Fixed(d.as_secs_f64() * 1e3, 1)
}

fn us(d: Duration) -> Value {
    Value::Fixed(d.as_secs_f64() * 1e6, 1)
}

fn main() {
    println!("serve_throughput — pipeline cache, device pool, load\n");
    let cache = cache_runs();
    for run in &cache {
        println!(
            "  {:<22} {:>2} jobs: {:>2} misses / {:>2} hits, compile {:>10.3?}, \
             reconfig {:>9} cycles -> {:>12.3?} overhead/job",
            run.label,
            run.jobs,
            run.misses,
            run.hits,
            run.compile,
            run.reconfig_cycles,
            run.overhead_per_job,
        );
    }
    let [cold, warm] = &cache;
    let cache_gain =
        cold.overhead_per_job.as_secs_f64() / warm.overhead_per_job.as_secs_f64().max(1e-12);
    println!("\n  warm-cache overhead reduction: {cache_gain:.1}x (gate: >= 5x)");
    assert!(
        cache_gain >= 5.0,
        "warm cache must cut compile+reconfigure overhead by >= 5x, got {cache_gain:.1}x"
    );

    println!();
    let pools = [PoolRun::run(1), PoolRun::run(4)];
    for run in &pools {
        println!(
            "  {} device(s): {:>2} jobs, modeled makespan {:>10.3?} \
             ({:>8.0} jobs/modeled-sec), wall {:>10.3?}",
            run.devices,
            run.jobs,
            run.modeled_makespan,
            run.modeled_jobs_per_sec(),
            run.wall,
        );
    }

    println!();
    let load = [
        closed_loop_run(1, CLOSED_REQUESTS),
        closed_loop_run(4, CLOSED_REQUESTS),
        open_overload_run(OPEN_REQUESTS),
    ];
    for r in &load {
        println!(
            "  {:<22} [{}] {:>6} req: {:>6} ok / {:>5} rejected / {:>5} missed, \
             p50 {:>9.1?} p99 {:>9.1?}, {:>7.0} ok/s wall, {:>9.0} ok/modeled-sec",
            r.label,
            r.mode,
            r.requests,
            r.completed,
            r.rejected,
            r.failed,
            r.p50,
            r.p99,
            r.goodput_per_sec,
            r.modeled_goodput_per_sec,
        );
    }
    let [unsharded, sharded, open] = &load;
    let total_requests: usize = load.iter().map(|r| r.requests).sum();
    let gain = shard_gain(unsharded, sharded);
    println!(
        "\n  load generator drove {total_requests} requests (gate: >= 100k); \
         4-shard modeled goodput gain over unsharded: {gain:.1}x (gate: >= 2x)"
    );
    assert!(
        gain >= 2.0,
        "4-way sharding must deliver >= 2x modeled goodput for a sequential \
         request stream on a 4-device pool, got {gain:.1}x"
    );
    assert!(open.rejected > 0, "overload row must shed load at admission");
    assert!(open.completed > 0, "overload row must complete in-SLO requests");

    let mut rows = serve_modeled_rows(&cache, &pools[0], unsharded, sharded);
    for run in &cache {
        rows.push(Row::wall(run.label, "compile_us", us(run.compile)));
        rows.push(Row::wall(run.label, "overhead_per_job_us", us(run.overhead_per_job)));
    }
    rows.push(Row::wall(warm.label, "overhead_reduction", Value::Fixed(cache_gain, 1)));
    let (one, four) = (&pools[0], &pools[1]);
    let pool_gain = four.modeled_jobs_per_sec() / one.modeled_jobs_per_sec();
    rows.extend([
        Row::wall(&four.label(), "modeled_makespan_us", us(four.modeled_makespan)),
        Row::wall(
            &four.label(),
            "modeled_jobs_per_sec",
            Value::Fixed(four.modeled_jobs_per_sec(), 0),
        ),
        Row::wall(&four.label(), "modeled_throughput_gain", Value::Fixed(pool_gain, 1)),
        Row::wall(&one.label(), "wall_ms", ms(one.wall)),
        Row::wall(&four.label(), "wall_ms", ms(four.wall)),
    ]);
    // A load run's counts ride on the wall clock: under the open loop's
    // deadline they depend on host speed, and a short regeneration loop
    // cannot repeat a 12,000-request count.
    for r in &load {
        rows.extend([
            Row::wall(&r.label, "requests", r.requests),
            Row::wall(&r.label, "completed", r.completed),
            Row::wall(&r.label, "rejected", r.rejected),
            Row::wall(&r.label, "deadline_missed", r.failed),
            Row::wall(&r.label, "wall_ms", ms(r.wall)),
            Row::wall(&r.label, "p50_us", us(r.p50)),
            Row::wall(&r.label, "p99_us", us(r.p99)),
            Row::wall(&r.label, "goodput_per_sec", Value::Fixed(r.goodput_per_sec, 0)),
        ]);
    }
    let open_goodput = Value::Fixed(open.modeled_goodput_per_sec, 0);
    rows.push(Row::wall(&open.label, "modeled_goodput_per_sec", open_goodput));
    snapshot::emit("serve_throughput", "BENCH_serve.json", &rows);
}
