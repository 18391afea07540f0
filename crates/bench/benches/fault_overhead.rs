//! Fault-plane overhead benchmark (`cargo bench --bench fault_overhead`).
//!
//! Times the metadata pipeline on the default engine (the exact
//! `obs_overhead` trace-off configuration) in three modes — fault plane
//! inert (the default), fault plane active with zero injection rates,
//! and an aggressive seeded schedule exercising retry + fallback — and
//! snapshots the results to `BENCH_faults.json`. The inert mode is
//! compared against the trace-off sample recorded in `BENCH_obs.json`:
//! the acceptance budget for the always-compiled-in fault plane is a
//! ≤2% regression with faults disabled.

use genesis_core::accel::metadata::MetadataAccel;
use genesis_core::device::DeviceConfig;
use genesis_core::fault::FaultConfig;
use genesis_core::perf::AccelStats;
use genesis_datagen::{DatagenConfig, Dataset};
use genesis_obs::json::Json;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Sample {
    label: String,
    wall: Duration,
    sim_cycles: u64,
    retries: u64,
    fallback_batches: u64,
}

fn run_metadata(dataset: &Dataset, label: &str, faults: FaultConfig) -> Sample {
    let accel = MetadataAccel::new(
        DeviceConfig::small().with_psize(5_000).with_host_threads(1).with_faults(faults),
    );
    // Median of three, matching obs_overhead's measurement protocol.
    let mut runs: Vec<(Duration, AccelStats)> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let (_, stats) =
                accel.run(&dataset.reads, &dataset.genome).expect("metadata accel");
            (start.elapsed(), stats)
        })
        .collect();
    runs.sort_by_key(|(wall, _)| *wall);
    let (wall, stats) = runs.swap_remove(runs.len() / 2);
    Sample {
        label: label.to_owned(),
        wall,
        sim_cycles: stats.cycles,
        retries: stats.faults.retries,
        fallback_batches: stats.faults.fallback_batches,
    }
}

/// The trace-off wall-clock recorded by the last `obs_overhead` run.
fn baseline_trace_off_ms(repo_root: &std::path::Path) -> Option<f64> {
    let text = std::fs::read_to_string(repo_root.join("BENCH_obs.json")).ok()?;
    let parsed = Json::parse(&text).ok()?;
    parsed
        .get("samples")?
        .as_array()?
        .iter()
        .find(|s| s.get("label").and_then(Json::as_str) == Some("trace-off"))?
        .get("wall_ms")?
        .as_f64()
}

fn main() {
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dataset = Dataset::generate(&DatagenConfig {
        num_reads: 4_000,
        chrom_len: 100_000,
        num_chromosomes: 2,
        ..DatagenConfig::tiny()
    });
    println!("fault_overhead — metadata pipeline, fast/1t (default engine)\n");

    // Active-but-silent: the plane is armed (per-attempt rolls happen on
    // every batch) but every rate is zero, so no fault ever fires.
    let armed_silent = FaultConfig { max_retries: 3, ..FaultConfig::default() };
    // Aggressive seeded schedule: ~15% DMA failures, 5% device faults,
    // instant backoff so we time recovery work, not sleeps.
    let recovery = FaultConfig {
        seed: 7,
        dma_fail_ppm: 150_000,
        device_fail_ppm: 50_000,
        mem_spike_ppm: 1_000,
        mem_spike_cycles: 200,
        max_retries: 3,
        backoff_base: Duration::ZERO,
        backoff_cap: Duration::ZERO,
        fallback: true,
    };

    let samples = [
        run_metadata(&dataset, "faults-off", FaultConfig::default()),
        run_metadata(&dataset, "faults-armed", armed_silent),
        run_metadata(&dataset, "faults-recovering", recovery),
    ];
    for s in &samples {
        println!(
            "  {:<18} {:>9.1} ms   ({} cycles, {} retries, {} fallback batches)",
            s.label,
            s.wall.as_secs_f64() * 1e3,
            s.sim_cycles,
            s.retries,
            s.fallback_batches
        );
    }
    let off_ms = samples[0].wall.as_secs_f64() * 1e3;
    let armed_ms = samples[1].wall.as_secs_f64() * 1e3;
    println!("\n  armed-but-silent overhead vs off: {:+.1}%", (armed_ms / off_ms - 1.0) * 100.0);

    let baseline = baseline_trace_off_ms(&repo_root);
    if let Some(b) = baseline {
        println!(
            "  faults-off vs BENCH_obs.json trace-off ({b:.1} ms): {:+.1}% (budget ≤ +2%)",
            (off_ms / b - 1.0) * 100.0
        );
    } else {
        println!("  (no BENCH_obs.json trace-off baseline found; skipping comparison)");
    }

    let mut json = String::from("{\n  \"bench\": \"fault_overhead\",\n  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"label\": \"{}\", \"wall_ms\": {:.1}, \"sim_cycles\": {}, \
             \"retries\": {}, \"fallback_batches\": {}}}",
            s.label,
            s.wall.as_secs_f64() * 1e3,
            s.sim_cycles,
            s.retries,
            s.fallback_batches
        );
        json.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"armed_overhead_pct\": {:.1},",
        (armed_ms / off_ms - 1.0) * 100.0
    );
    match baseline {
        Some(b) => {
            let _ = write!(
                json,
                "  \"baseline_trace_off_ms\": {b:.1},\n  \"faults_off_vs_baseline_pct\": {:.1}\n",
                (off_ms / b - 1.0) * 100.0
            );
        }
        None => json.push_str("  \"baseline_trace_off_ms\": null\n"),
    }
    json.push_str("}\n");
    let out = repo_root.join("BENCH_faults.json");
    std::fs::write(&out, &json).expect("write BENCH_faults.json");
    println!("\nsnapshot written to {}", out.display());
}
