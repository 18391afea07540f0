//! Engine throughput benchmark (`cargo bench --bench engine_throughput`).
//!
//! The metadata pipeline under the reference and fast engines, at 1/2/4/8
//! host batch threads, with tracing on and exporting, with every
//! scratchpad pinned under tiers, with the fault plane armed and
//! recovering, plus the compiled spill-heavy aggregate
//! (`genesis_bench::scenarios::EngineScenario`). After one untimed
//! warm-up round the variants run in interleaved rounds, each round
//! starting one variant later, so a host that speeds up or slows down
//! over minutes moves every variant alike. Each variant reports its
//! median wall time; each overhead is the median over rounds of the
//! variant's ratio to `fast/1t` in the same round — printed beside its
//! budget, never asserted: wall numbers gate only through
//! `tools/bench_ab.sh`. Snapshot: `BENCH_engine.json`, whose modeled rows
//! `tests/golden.rs` regenerates.

use genesis_bench::scenarios::{EngineScenario, ENGINE_BASE};
use genesis_bench::snapshot::{self, Row, Value};
use std::time::{Duration, Instant};

const ROUNDS: usize = 7;

/// The overhead budget of a variant, where ROADMAP or DESIGN.md sets one.
fn budget(label: &str) -> Option<f64> {
    match label {
        "trace-on" => Some(6.0),
        "trace-export" => Some(25.0),
        "tiers-pinned" | "faults-armed" => Some(2.0),
        _ => None,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let trace_path = std::env::temp_dir().join("genesis_engine_throughput_trace.json");
    let scenario = EngineScenario::new(&trace_path);
    let variants = &scenario.variants;
    let base = variants.iter().position(|v| v.label == ENGINE_BASE).expect("base variant");
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "engine_throughput — {} variants, {ROUNDS} rounds, {host_cores} host core(s)\n",
        variants.len()
    );

    let stats: Vec<_> = variants.iter().map(|v| scenario.run(v)).collect();
    let mut walls = vec![Vec::with_capacity(ROUNDS); variants.len()];
    for round in 0..ROUNDS {
        for k in 0..variants.len() {
            let i = (round + k) % variants.len();
            let start = Instant::now();
            let _ = scenario.run(&variants[i]);
            walls[i].push(start.elapsed());
        }
    }
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(format!("{}.stalls.txt", trace_path.display()));

    let mut rows = Vec::new();
    for (i, v) in variants.iter().enumerate() {
        let wall = median(walls[i].iter().map(Duration::as_secs_f64).collect());
        let mflits = stats[i].total_flits as f64 / wall / 1e6;
        let mut line = format!(
            "  {:<18} {:>8.1} ms {:>8.2} Mflit/s  ({} flits, {} cycles)",
            v.label,
            wall * 1e3,
            mflits,
            stats[i].total_flits,
            stats[i].cycles
        );
        rows.extend(v.modeled_rows(&stats[i]));
        rows.push(Row::wall(v.label, "wall_ms", Value::Fixed(wall * 1e3, 1)));
        rows.push(Row::wall(v.label, "mflits_per_sec", Value::Fixed(mflits, 2)));
        if i != base {
            let ratios =
                walls[i].iter().zip(&walls[base]).map(|(w, b)| w.as_secs_f64() / b.as_secs_f64());
            let pct = (median(ratios.collect()) - 1.0) * 100.0;
            line += &format!("  {pct:+6.1}% vs {ENGINE_BASE}");
            if let Some(b) = budget(v.label) {
                line += &format!(" (budget ≤ +{b:.0}%)");
            }
            rows.push(Row::wall(v.label, "vs_base_pct", Value::Fixed(pct, 1)));
        }
        println!("{line}");
    }
    snapshot::emit("engine_throughput", "BENCH_engine.json", &rows);
}
