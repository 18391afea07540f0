//! One benchmark run: set-ups, the measured pass in calibration-bracketed
//! blocks, the optional traced pass, and the reduction to named metrics.

use crate::calib::{
    block_speeds, iqr_share, median, percentile_sorted, steady_blocks, Calibrator, Phase,
    PhaseClock, NOISY_SHARE, PHASES,
};
use crate::host;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::trace::Recorder;
use crate::workloads::{self, OpOutcome, RunPlan, ServeCounters, Spec, Verdict, Workload};
use genesis_core::perf::AccelStats;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::Instant;

pub struct Config {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    /// Shrinks inputs and set-up count; only the smoke test sets it.
    pub smoke: bool,
}

pub struct Report {
    pub plan: RunPlan,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// Latency samples behind `latency_p50_us`.
    pub samples: usize,
    /// Blocks of the measured pass, and how many the noisy-host guard
    /// left out of the timing statistics.
    pub blocks: usize,
    pub blocks_discarded: usize,
    pub end_to_end: Values,
    /// Filled only by a traced run.
    pub per_layer: Option<Values>,
}

struct BlockSample {
    /// Host speed while the block ran.
    speed: f64,
    span_ns: u64,
    /// Latencies of the operations that succeeded.
    lat_ns: Vec<u64>,
}

/// What the measured pass leaves behind.
struct Pass {
    /// The blocks the timing statistics are taken over.
    steady: Vec<BlockSample>,
    /// Blocks left out because their two calibrations disagree.
    discarded: usize,
    blocks: usize,
    cal_ns: Vec<f64>,
    attempted: usize,
    failed: usize,
    /// Device statistics and allocator bytes of every operation: counts
    /// do not depend on which blocks the host spoiled.
    totals: AccelStats,
    alloc_bytes: u64,
    /// Device-statistics signature of the first `trace_ops` operations.
    sigs: Vec<u64>,
    cpu_us: u64,
    serve: ServeCounters,
}

impl Report {
    /// True when the guard left out so many blocks that the host, not the
    /// program, decided the timings.
    pub fn noisy_host(&self) -> bool {
        self.blocks_discarded as f64 > NOISY_SHARE * self.blocks as f64
    }
}

impl BlockSample {
    /// Succeeded operations per second of the block's span.
    fn goodput(&self, speed: f64) -> f64 {
        self.lat_ns.len() as f64 / (self.span_ns as f64 * speed / 1e9)
    }
}

impl Pass {
    /// Per-block goodput and the pooled latencies (µs, ascending) of the
    /// steady blocks, on the reference host's clock or the raw one.
    fn timings(&self, normalised: bool) -> (Vec<f64>, Vec<f64>) {
        let speed = |b: &BlockSample| if normalised { b.speed } else { 1.0 };
        let goodputs = self.steady.iter().map(|b| b.goodput(speed(b))).collect();
        let mut lat_us: Vec<f64> = self
            .steady
            .iter()
            .flat_map(|b| b.lat_ns.iter().map(move |&l| l as f64 / 1e3 * speed(b)))
            .collect();
        lat_us.sort_by(f64::total_cmp);
        (goodputs, lat_us)
    }
}

fn sig(s: &AccelStats) -> u64 {
    let mut h = DefaultHasher::new();
    [
        s.cycles,
        s.total_flits,
        s.device_mem_bytes,
        s.dma_in_bytes,
        s.dma_out_bytes,
        s.active_cycles,
        s.input_starved_cycles,
        s.backpressured_cycles,
        s.memory_wait_cycles,
        s.spill_wait_cycles,
        s.rows_scanned,
        s.rows_emitted,
        s.reconfig_cycles,
    ]
    .hash(&mut h);
    h.finish()
}

fn judge(w: &dyn Workload, idx: usize, outcome: OpOutcome) -> bool {
    match outcome.verdict {
        Verdict::Known(ok) => ok,
        Verdict::Table(table) => w.check(idx, &table),
    }
}

/// The measured pass: `plan.ops` operations in blocks, a calibration
/// before, between and after.
fn measure(w: &mut dyn Workload, plan: &RunPlan, cal: &mut Calibrator) -> Pass {
    let blocks = plan.ops / plan.block;
    let mut pass = Pass {
        steady: Vec::new(),
        discarded: 0,
        blocks,
        cal_ns: Vec::with_capacity(blocks + 1),
        attempted: 0,
        failed: 0,
        totals: AccelStats::default(),
        alloc_bytes: 0,
        sigs: Vec::with_capacity(plan.trace_ops),
        cpu_us: 0,
        serve: ServeCounters::default(),
    };
    let serve0 = w.serve_counters();
    let cpu0 = host::cpu_us().unwrap_or(0);
    let mut cal_total_ns = 0.0;
    pass.cal_ns.push(cal.measure(plan.cal_reps));
    let mut timings = Vec::with_capacity(blocks);
    for block in 0..blocks {
        let first = block * plan.block;
        let mut outcomes = Vec::with_capacity(plan.block);
        let span = Instant::now();
        for idx in first..first + plan.block {
            outcomes.push(w.run_op(idx));
        }
        let span_ns = span.elapsed().as_nanos() as u64;
        let after_ns = cal.measure(plan.cal_reps);
        pass.cal_ns.push(after_ns);
        cal_total_ns += after_ns * f64::from(plan.cal_reps * crate::calib::CAL_RUNS);

        // Between the closing calibration and the next block: nothing
        // here is inside a measured span.
        let mut lat_ns = Vec::with_capacity(plan.block);
        for (idx, outcome) in (first..).zip(outcomes) {
            let latency_ns = outcome.latency_ns;
            pass.totals.absorb(outcome.stats);
            pass.alloc_bytes += outcome.alloc_bytes;
            if idx < plan.trace_ops {
                pass.sigs.push(sig(&outcome.stats));
            }
            pass.attempted += 1;
            // A failed operation adds nothing to goodput or to the
            // latency pool; it is counted, and the run exits non-zero.
            if judge(w, idx, outcome) {
                lat_ns.push(latency_ns);
            } else {
                pass.failed += 1;
            }
        }
        timings.push((span_ns, lat_ns));
    }
    let steady = steady_blocks(&pass.cal_ns);
    pass.discarded = steady.iter().filter(|s| !**s).count();
    // A pass without one steady block still has to report something.
    let keep_all = pass.discarded == blocks;
    pass.steady = timings
        .into_iter()
        .zip(block_speeds(&pass.cal_ns))
        .zip(steady)
        .filter(|(_, steady)| *steady || keep_all)
        .map(|(((span_ns, lat_ns), speed), _)| BlockSample {
            speed,
            span_ns,
            lat_ns,
        })
        .collect();
    let cpu = host::cpu_us().unwrap_or(0).saturating_sub(cpu0);
    pass.cpu_us = cpu.saturating_sub((cal_total_ns / 1e3) as u64);
    let serve1 = w.serve_counters();
    pass.serve = ServeCounters {
        hits: serve1.hits - serve0.hits,
        misses: serve1.misses - serve0.misses,
        evictions: serve1.evictions - serve0.evictions,
        compile_ns: serve1.compile_ns - serve0.compile_ns,
        dispatches: serve1.dispatches - serve0.dispatches,
        queue_depth_max: serve1.queue_depth_max,
    };
    pass
}

/// What the traced pass leaves behind.
struct Traced {
    rec: Recorder,
    speeds: Vec<f64>,
    attempted: usize,
    failed: usize,
    /// Traced operations whose device statistics differ from the same
    /// operation in the measured pass.
    hw_mismatches: usize,
}

fn trace(w: &mut dyn Workload, plan: &RunPlan, cal: &mut Calibrator, sigs: &[u64]) -> Traced {
    let mut t = Traced {
        rec: Recorder::new(),
        speeds: Vec::new(),
        attempted: 0,
        failed: 0,
        hw_mismatches: 0,
    };
    let mut cal_ns = vec![cal.measure(plan.cal_reps)];
    for block in 0..plan.trace_ops / plan.block {
        t.rec.set_block(block as u32);
        for idx in block * plan.block..(block + 1) * plan.block {
            let outcome = w.trace_op(idx, &mut t.rec);
            t.hw_mismatches += usize::from(sigs.get(idx) != Some(&sig(&outcome.stats)));
            t.attempted += 1;
            t.failed += usize::from(!judge(w, idx, outcome));
        }
        cal_ns.push(cal.measure(plan.cal_reps));
    }
    t.speeds = block_speeds(&cal_ns);
    t
}

/// Median over the set-ups of one phase (or of their sum), in
/// reference-host µs.
fn setup_us(setups: &[[f64; PHASES]], phase: Option<Phase>) -> f64 {
    let of = |phases: &[f64; PHASES]| match phase {
        Some(p) => phases[p as usize],
        None => phases.iter().sum(),
    };
    median(
        &setups
            .iter()
            .map(|phases| of(phases) / 1e3)
            .collect::<Vec<_>>(),
    )
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let plan = RunPlan::new(cfg.spec, cfg.seconds, cfg.smoke);
    let mut cal = Calibrator::new();
    cal.measure(1); // touch the buffer once before any bracket

    // Fresh set-ups, each inside its own bracket; the last one is measured.
    let mut setups: Vec<[f64; PHASES]> = Vec::with_capacity(plan.setups);
    let mut workload = None;
    for _ in 0..plan.setups {
        drop(workload.take());
        let mut clock = PhaseClock::new(&mut cal);
        workload = Some(workloads::set_up(
            cfg.spec.kind,
            cfg.seed,
            &plan,
            &mut clock,
        )?);
        setups.push(clock.finish());
    }
    let mut workload = workload.ok_or("no set-up ran")?;
    let w = workload.as_mut();

    let (_, mut oracle_failures) = w.verify(0);
    let pass = measure(w, &plan, &mut cal);
    oracle_failures += w.verify(plan.ops).1;

    // --- end to end
    let mut e2e = Values::new(&END_TO_END);
    let ops = plan.ops as f64;
    let (goodputs, lat_us) = pass.timings(true);
    let p50 = percentile_sorted(&lat_us, 0.50);
    e2e.set("setup_s", setup_us(&setups, None) / 1e6);
    e2e.set("goodput_rps", median(&goodputs));
    e2e.set("latency_p50_us", p50);
    e2e.set("modeled_cycles_per_op", pass.totals.cycles as f64 / ops);
    e2e.set("alloc_kb_per_op", pass.alloc_bytes as f64 / ops / 1024.0);

    let mut report = Report {
        plan,
        correct: true,
        attempted: pass.attempted,
        failed: pass.failed,
        samples: lat_us.len(),
        blocks: pass.blocks,
        blocks_discarded: pass.discarded,
        end_to_end: e2e,
        per_layer: None,
    };

    if cfg.trace {
        let traced = trace(w, &plan, &mut cal, &pass.sigs);
        report.attempted += traced.attempted;
        report.failed += traced.failed;
        if traced.hw_mismatches > 0 {
            eprintln!(
                "genesis_e2e: {} traced operation(s) read different device statistics than \
                 the same operation untraced",
                traced.hw_mismatches
            );
            report.correct = false;
        }
        report.per_layer = Some(per_layer(w, &plan, &pass, &traced, &setups, &lat_us));
        let path = cfg.trace_out.clone().or_else(default_trace_path);
        if let Some(path) = path {
            traced
                .rec
                .write_chrome(&path, cfg.spec.name)
                .map_err(|e| format!("trace to {}: {e}", path.display()))?;
            eprintln!(
                "genesis_e2e: {} spans written to {}",
                traced.rec.len(),
                path.display()
            );
        }
    }
    // Read last: the high-water mark covers every pass of this run.
    report
        .end_to_end
        .set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    report.correct &= report.failed == 0 && oracle_failures == 0;
    if oracle_failures > 0 {
        eprintln!("genesis_e2e: {oracle_failures} oracle check(s) failed");
    }
    Ok(report)
}

/// Beside the executable, which is inside the (git-ignored) build directory.
fn default_trace_path() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.join("genesis_e2e.trace.json"))
}

fn per_layer(
    w: &dyn Workload,
    plan: &RunPlan,
    pass: &Pass,
    traced: &Traced,
    setups: &[[f64; PHASES]],
    lat_us: &[f64],
) -> Values {
    let mut v = Values::new(&PER_LAYER);
    let ops = plan.ops as f64;
    let speeds: Vec<f64> = pass.steady.iter().map(|b| b.speed).collect();
    let host_speed = median(&speeds);
    let p50 = percentile_sorted(lat_us, 0.50);

    // load
    let (raw_goodputs, raw_lat) = pass.timings(false);
    v.set("load.host_speed", host_speed);
    v.set("load.calib_iqr_share", iqr_share(&pass.cal_ns));
    v.set("load.blocks_discarded", pass.discarded as f64);
    v.set("load.raw_goodput_rps", median(&raw_goodputs));
    v.set("load.raw_latency_p50_us", percentile_sorted(&raw_lat, 0.50));
    v.set("load.latency_p90_us", percentile_sorted(lat_us, 0.90));
    v.set("load.latency_p99_us", percentile_sorted(lat_us, 0.99));
    v.set(
        "load.cpu_us_per_op",
        pass.cpu_us as f64 / pass.attempted as f64,
    );

    // Spans: per operation, per name, normalised µs.
    let per_op = traced.rec.per_op_us(&traced.speeds);
    let of = |name: &str| -> Vec<f64> {
        per_op
            .values()
            .filter_map(|spans| spans.get(name).copied())
            .collect()
    };
    for (metric, span) in [
        ("sql.parse_us", "sql.parse"),
        ("sql.plan_us", "sql.plan"),
        ("sql.exec_us", "sql.exec"),
        ("serve.fingerprint_us", "serve.fingerprint"),
        ("serve.submit_us", "serve.submit"),
        ("serve.wait_us", "serve.wait"),
        ("compile.compile_us", "compile.compile"),
        ("exec.execute_us", "exec.execute"),
        ("accel.markdup_us", "accel.markdup"),
        ("accel.metadata_us", "accel.metadata"),
        ("accel.bqsr_us", "accel.bqsr"),
        ("gatk.markdup_us", "gatk.markdup"),
        ("gatk.metadata_us", "gatk.metadata"),
        ("gatk.bqsr_us", "gatk.bqsr"),
    ] {
        v.set(metric, median(&of(span)));
    }
    type Spans = std::collections::BTreeMap<&'static str, f64>;
    let get = |spans: &Spans, name: &str| spans.get(name).copied().unwrap_or(0.0);
    let compile_on_miss = |spans: &Spans| {
        if w.compiles_every_op() {
            get(spans, "compile.compile")
        } else {
            0.0
        }
    };
    let served: Vec<_> = per_op
        .values()
        .filter(|s| s.contains_key("serve.submit"))
        .collect();
    let rest: Vec<f64> = served
        .iter()
        .map(|s| get(s, "serve.submit") - get(s, "serve.fingerprint") - compile_on_miss(s))
        .collect();
    let handoff: Vec<f64> = served
        .iter()
        .map(|s| {
            get(s, "serve.submit") + get(s, "serve.wait")
                - get(s, "serve.fingerprint")
                - compile_on_miss(s)
                - get(s, "exec.execute")
        })
        .collect();
    v.set("serve.submit_rest_us", median(&rest));
    v.set("serve.handoff_us", median(&handoff));
    // The traced end-to-end call against the same call untraced.
    let end_to_end: Vec<f64> = per_op
        .values()
        .map(|s| {
            [
                "serve.submit",
                "serve.wait",
                "accel.markdup",
                "accel.metadata",
                "accel.bqsr",
            ]
            .iter()
            .map(|n| get(s, n))
            .sum()
        })
        .collect();
    v.set(
        "trace.overhead_share",
        (median(&end_to_end) - p50).abs() / p50,
    );
    v.set("trace.span_count", traced.rec.len() as f64);

    // serve counters over the measured pass
    let jobs = (pass.serve.hits + pass.serve.misses) as f64;
    if jobs > 0.0 {
        v.set("serve.cache_hit_share", pass.serve.hits as f64 / jobs);
        v.set(
            "serve.cache_evictions_per_op",
            pass.serve.evictions as f64 / jobs,
        );
        v.set("serve.shards_per_op", pass.serve.dispatches as f64 / jobs);
        v.set("serve.queue_depth_max", pass.serve.queue_depth_max as f64);
    }
    if pass.serve.misses > 0 {
        v.set(
            "serve.compile_ns_per_miss",
            pass.serve.compile_ns as f64 / pass.serve.misses as f64 * host_speed,
        );
    }

    // compile / exec
    v.set("compile.alloc_kb", traced.rec.alloc_kb("compile.compile"));
    v.set("exec.alloc_kb", traced.rec.alloc_kb("exec.execute"));
    v.set(
        "compile.replication_factor",
        median(&traced.rec.replication_factors),
    );
    let t = &pass.totals;
    v.set("exec.rows_scanned_per_op", t.rows_scanned as f64 / ops);
    v.set("exec.rows_emitted_per_op", t.rows_emitted as f64 / ops);
    v.set(
        "exec.dma_bytes_per_op",
        (t.dma_in_bytes + t.dma_out_bytes) as f64 / ops,
    );

    // hw: exact counts, then simulator speed on the host clock.
    let sim_cycles = (t.cycles - t.reconfig_cycles) as f64;
    v.set("hw.cycles_per_op", sim_cycles / ops);
    v.set("hw.reconfig_cycles_per_op", t.reconfig_cycles as f64 / ops);
    v.set("hw.flits_per_op", t.total_flits as f64 / ops);
    v.set(
        "hw.device_mem_bytes_per_op",
        t.device_mem_bytes as f64 / ops,
    );
    let [active, input, backpressure, memory, spill] = t.stall_fractions();
    v.set("hw.stall_active_share", active);
    v.set("hw.stall_input_share", input);
    v.set("hw.stall_backpressure_share", backpressure);
    v.set("hw.stall_memory_share", memory);
    v.set("hw.stall_spill_share", spill);
    let mean_lat_us = lat_us.iter().sum::<f64>() / lat_us.len().max(1) as f64;
    v.set(
        "hw.mflits_per_host_s",
        t.total_flits as f64 / ops / mean_lat_us,
    );
    v.set(
        "hw.host_ns_per_cycle",
        mean_lat_us * 1e3 / (sim_cycles / ops),
    );

    // accel: per stage, modeled time against the software twin.
    let mut speedups = Vec::new();
    for stage in ["markdup", "metadata", "bqsr"] {
        let notes: Vec<_> = traced
            .rec
            .stages
            .iter()
            .filter(|n| n.stage == stage)
            .collect();
        if notes.is_empty() {
            continue;
        }
        let cycles: Vec<f64> = notes.iter().map(|n| n.cycles as f64).collect();
        v.set(&format!("accel.{stage}_cycles"), median(&cycles));
        let modeled_us: Vec<f64> = notes
            .iter()
            .map(|n| {
                n.modeled.as_secs_f64() * 1e6
                    + n.host.as_secs_f64() * 1e6 * traced.speeds[n.block as usize]
            })
            .collect();
        speedups.push(v.get(&format!("gatk.{stage}_us")) / median(&modeled_us));
    }
    if !speedups.is_empty() {
        let geomean = speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64;
        v.set("accel.modeled_speedup_geomean", geomean.exp());
    }

    // setup
    v.set("setup.datagen_us", setup_us(setups, Some(Phase::Datagen)));
    v.set("setup.catalog_us", setup_us(setups, Some(Phase::Catalog)));
    v.set(
        "setup.server_start_us",
        setup_us(setups, Some(Phase::ServerStart)),
    );
    v.set("setup.warmup_us", setup_us(setups, Some(Phase::Warmup)));
    v.set(
        "setup.first_request_us",
        setup_us(setups, Some(Phase::FirstRequest)),
    );
    v.set("obs.snapshot_us", setup_us(setups, Some(Phase::Snapshot)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_counts_succeeded_operations_on_the_reference_clock() {
        // A block of four operations, one of which failed (no latency
        // kept), that took 1 s on a host half as fast as the reference.
        let block = BlockSample {
            speed: 0.5,
            span_ns: 1_000_000_000,
            lat_ns: vec![200, 300, 250],
        };
        assert_eq!(block.goodput(block.speed), 6.0);
        assert_eq!(block.goodput(1.0), 3.0);
    }
}
