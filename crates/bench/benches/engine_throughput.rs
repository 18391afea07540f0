//! Engine throughput benchmark (`cargo bench --bench engine_throughput`).
//!
//! Measures host wall-clock and simulated flits/sec for the metadata
//! pipeline under (a) the naive reference engine — the pre-optimization
//! baseline — and (b) the fast (park/wake) engine at 1/2/4/8 host batch
//! worker threads (`DeviceConfig::with_host_threads`). When a release build of the
//! `fig13_speedup` binary is present, it is also timed end to end in both
//! configurations. Each configuration runs three
//! iterations and reports the median. Results are printed and snapshotted
//! to `BENCH_engine.json` at the repository root so the performance
//! trajectory is tracked across PRs.

use genesis_core::accel::metadata::MetadataAccel;
use genesis_core::device::DeviceConfig;
use genesis_datagen::{DatagenConfig, Dataset};
use genesis_hw::EngineMode;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Sample {
    label: String,
    wall: Duration,
    sim_cycles: u64,
    total_flits: u64,
}

impl Sample {
    fn mflits_per_sec(&self) -> f64 {
        self.total_flits as f64 / self.wall.as_secs_f64() / 1e6
    }

    fn json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"label\": \"{}\", \"wall_ms\": {:.1}, \"sim_cycles\": {}, \
             \"total_flits\": {}, \"mflits_per_sec\": {:.2}}}",
            self.label,
            self.wall.as_secs_f64() * 1e3,
            self.sim_cycles,
            self.total_flits,
            self.mflits_per_sec()
        );
    }
}

/// Times one full metadata-accelerator run at the given engine and host
/// batch-thread count.
fn run_metadata(dataset: &Dataset, engine: EngineMode, threads: usize) -> Sample {
    let accel = MetadataAccel::new(
        DeviceConfig::small().with_psize(5_000).with_engine(engine).with_host_threads(threads),
    );
    // Median of three: single-shot wall clocks wobble by ~10% on small
    // hosts, and a median is honest about the typical run where a min
    // would report the luckiest.
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
        label: format!("{engine:?}/{threads}t").to_lowercase(),
        wall,
        sim_cycles: stats.cycles,
        total_flits: stats.total_flits,
    }
}

/// End-to-end wall-clock of the `fig13_speedup` binary, when built.
fn time_fig13(bin: &Path, engine: Option<&str>, threads: Option<usize>) -> Option<Duration> {
    let mut cmd = std::process::Command::new(bin);
    cmd.stdout(std::process::Stdio::null()).stderr(std::process::Stdio::null());
    if let Some(e) = engine {
        cmd.env("GENESIS_ENGINE", e);
    }
    if let Some(t) = threads {
        cmd.env("GENESIS_HOST_THREADS", t.to_string());
    }
    let start = Instant::now();
    let status = cmd.status().ok()?;
    status.success().then(|| start.elapsed())
}

fn main() {
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dataset = Dataset::generate(&DatagenConfig {
        num_reads: 4_000,
        chrom_len: 100_000,
        num_chromosomes: 2,
        ..DatagenConfig::tiny()
    });
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("engine_throughput — metadata pipeline, {host_cores} host core(s)\n");

    let baseline = run_metadata(&dataset, EngineMode::Reference, 1);
    let mut samples = vec![baseline];
    for threads in [1usize, 2, 4, 8] {
        samples.push(run_metadata(&dataset, EngineMode::Fast, threads));
    }
    for s in &samples {
        println!(
            "  {:<14} {:>9.1} ms   {:>8.2} Mflit/s   ({} flits, {} cycles)",
            s.label,
            s.wall.as_secs_f64() * 1e3,
            s.mflits_per_sec(),
            s.total_flits,
            s.sim_cycles
        );
    }
    println!(
        "\n  fast/1t vs reference/1t: {:.2}x",
        samples[0].wall.as_secs_f64() / samples[1].wall.as_secs_f64()
    );

    let fig13_bin = repo_root.join("target/release/fig13_speedup");
    let fig13 = if fig13_bin.exists() {
        let before = time_fig13(&fig13_bin, Some("reference"), Some(1));
        let after = time_fig13(&fig13_bin, None, None);
        if let (Some(b), Some(a)) = (&before, &after) {
            println!(
                "\n  fig13_speedup end-to-end: before {:.1} s -> after {:.1} s ({:.2}x)",
                b.as_secs_f64(),
                a.as_secs_f64(),
                b.as_secs_f64() / a.as_secs_f64()
            );
        }
        before.zip(after)
    } else {
        println!("\n  (fig13_speedup release binary not built; skipping end-to-end timing)");
        None
    };

    let mut json = String::from("{\n  \"bench\": \"engine_throughput\",\n");
    let _ = write!(json, "  \"host_cores\": {host_cores},\n  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        json.push_str("    ");
        s.json(&mut json);
        json.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]");
    if let Some((before, after)) = fig13 {
        let _ = write!(
            json,
            ",\n  \"fig13_speedup\": {{\"before_s\": {:.2}, \"after_s\": {:.2}, \
             \"speedup\": {:.2}}}",
            before.as_secs_f64(),
            after.as_secs_f64(),
            before.as_secs_f64() / after.as_secs_f64()
        );
    }
    json.push_str("\n}\n");
    let out = repo_root.join("BENCH_engine.json");
    std::fs::write(&out, &json).expect("write BENCH_engine.json");
    println!("\nsnapshot written to {}", out.display());
}
