//! Observability overhead benchmark (`cargo bench --bench obs_overhead`).
//!
//! Times the metadata pipeline on the default engine (the exact
//! `engine_throughput` fast/1t configuration) in three modes — tracing
//! disabled, tracing enabled in-memory, tracing enabled with Chrome-trace
//! export — and snapshots the results to `BENCH_obs.json`. The disabled
//! mode is additionally compared against the fast/1t sample recorded in
//! `BENCH_engine.json`: the acceptance budget for the always-on stall
//! attribution is a ≤2% regression with tracing off.

use genesis_core::accel::metadata::MetadataAccel;
use genesis_core::device::DeviceConfig;
use genesis_datagen::{DatagenConfig, Dataset};
use genesis_obs::json::Json;
use genesis_obs::TraceConfig;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Sample {
    label: String,
    wall: Duration,
    sim_cycles: u64,
    total_flits: u64,
}

fn run_metadata(dataset: &Dataset, label: &str, trace: TraceConfig) -> Sample {
    let accel = MetadataAccel::new(
        DeviceConfig::small().with_psize(5_000).with_host_threads(1).with_trace(trace),
    );
    // Median of three, matching engine_throughput's measurement protocol.
    let mut runs: Vec<(Duration, genesis_core::perf::AccelStats)> = (0..3)
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
        total_flits: stats.total_flits,
    }
}

/// The fast/1t wall-clock recorded by the last `engine_throughput` run.
fn baseline_fast_1t_ms(repo_root: &std::path::Path) -> Option<f64> {
    let text = std::fs::read_to_string(repo_root.join("BENCH_engine.json")).ok()?;
    let parsed = Json::parse(&text).ok()?;
    parsed
        .get("samples")?
        .as_array()?
        .iter()
        .find(|s| s.get("label").and_then(Json::as_str) == Some("fast/1t"))?
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
    println!("obs_overhead — metadata pipeline, fast/1t (default engine)\n");

    let export_path = std::env::temp_dir().join("genesis_obs_overhead_trace.json");
    let samples = [
        run_metadata(&dataset, "trace-off", TraceConfig::off()),
        run_metadata(&dataset, "trace-on", TraceConfig::on()),
        run_metadata(&dataset, "trace-export", TraceConfig::to_path(&export_path)),
    ];
    for s in &samples {
        println!(
            "  {:<14} {:>9.1} ms   ({} flits, {} cycles)",
            s.label,
            s.wall.as_secs_f64() * 1e3,
            s.total_flits,
            s.sim_cycles
        );
    }
    let off_ms = samples[0].wall.as_secs_f64() * 1e3;
    let on_ms = samples[1].wall.as_secs_f64() * 1e3;
    println!("\n  tracing-enabled overhead vs disabled: {:+.1}%", (on_ms / off_ms - 1.0) * 100.0);

    let baseline = baseline_fast_1t_ms(&repo_root);
    if let Some(b) = baseline {
        println!(
            "  tracing-disabled vs BENCH_engine.json fast/1t ({b:.1} ms): {:+.1}% (budget ≤ +2%)",
            (off_ms / b - 1.0) * 100.0
        );
    } else {
        println!("  (no BENCH_engine.json fast/1t baseline found; skipping comparison)");
    }
    let _ = std::fs::remove_file(&export_path);
    let _ = std::fs::remove_file(format!("{}.stalls.txt", export_path.display()));

    let mut json = String::from("{\n  \"bench\": \"obs_overhead\",\n  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"label\": \"{}\", \"wall_ms\": {:.1}, \"sim_cycles\": {}, \"total_flits\": {}}}",
            s.label,
            s.wall.as_secs_f64() * 1e3,
            s.sim_cycles,
            s.total_flits
        );
        json.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"trace_on_overhead_pct\": {:.1},",
        (on_ms / off_ms - 1.0) * 100.0
    );
    match baseline {
        Some(b) => {
            let _ = write!(
                json,
                "  \"baseline_fast_1t_ms\": {b:.1},\n  \"trace_off_vs_baseline_pct\": {:.1}\n",
                (off_ms / b - 1.0) * 100.0
            );
        }
        None => json.push_str("  \"baseline_fast_1t_ms\": null\n"),
    }
    json.push_str("}\n");
    let out = repo_root.join("BENCH_obs.json");
    std::fs::write(&out, &json).expect("write BENCH_obs.json");
    println!("\nsnapshot written to {}", out.display());
}
