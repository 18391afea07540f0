//! Tiered-memory overhead benchmark (`cargo bench --bench tier_overhead`).
//!
//! Answers two questions about the tier subsystem:
//!
//! 1. **What does it cost when it does nothing?** The metadata pipeline
//!    (the `engine_throughput` fast/1t workload) runs with tiering off
//!    and with tiering enabled at the default 4 MiB quota where every
//!    scratchpad pins — the tier gate must be within noise (≤2%) of the
//!    committed `BENCH_engine.json` fast/1t row.
//! 2. **What does a spill-heavy run look like?** A 256Ki-group aggregate
//!    whose two 2 MiB histograms run against a 256 KiB modeled SPM
//!    (16× oversubscribed), reporting page traffic, modeled PCIe GB/s,
//!    and the spill-wait share of all module-cycles.
//!
//! Each configuration runs five timed iterations (after an untimed
//! warmup) and reports the median.
//! Results are snapshotted to `BENCH_tier.json` at the repository root
//! (gated by `tools/perf_gate.sh` alongside the engine snapshot).

use genesis_core::accel::metadata::MetadataAccel;
use genesis_core::compile::Compiler;
use genesis_core::device::{DeviceConfig, TierConfig};
use genesis_core::perf::AccelStats;
use genesis_datagen::{DatagenConfig, Dataset};
use genesis_sql::ast::{AggFn, ColRef, Expr, SelectItem};
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::{Column, DataType, Field, Schema, Table};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Sample {
    label: String,
    wall: Duration,
    stats: AccelStats,
}

impl Sample {
    fn mflits_per_sec(&self) -> f64 {
        self.stats.total_flits as f64 / self.wall.as_secs_f64() / 1e6
    }

    fn json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"label\": \"{}\", \"wall_ms\": {:.1}, \"sim_cycles\": {}, \
             \"total_flits\": {}, \"mflits_per_sec\": {:.2}}}",
            self.label,
            self.wall.as_secs_f64() * 1e3,
            self.stats.cycles,
            self.stats.total_flits,
            self.mflits_per_sec()
        );
    }
}

/// Median of five timed runs of `f`, after one untimed warmup (first
/// runs pay allocator and page-cache warmup that would smear the
/// tiers-off vs tiers-pinned comparison).
fn median5(label: &str, mut f: impl FnMut() -> AccelStats) -> Sample {
    let _ = f();
    let mut runs: Vec<(Duration, AccelStats)> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let stats = f();
            (start.elapsed(), stats)
        })
        .collect();
    runs.sort_by_key(|(wall, _)| *wall);
    let (wall, stats) = runs.swap_remove(runs.len() / 2);
    Sample { label: label.to_owned(), wall, stats }
}

/// The `engine_throughput` fast/1t workload, with or without tiering.
fn run_metadata(dataset: &Dataset, tiers: Option<TierConfig>) -> AccelStats {
    let mut cfg = DeviceConfig::small().with_psize(5_000).with_host_threads(1);
    if let Some(t) = tiers {
        cfg = cfg.with_tiers(t);
    }
    let accel = MetadataAccel::new(cfg);
    let (_, stats) = accel.run(&dataset.reads, &dataset.genome).expect("metadata accel");
    stats
}

/// A 256Ki-group GROUP BY whose histograms are 16× the modeled SPM.
fn run_spill_heavy(plan: &LogicalPlan, catalog: &Catalog) -> AccelStats {
    const DOMAIN: u32 = 1 << 18;
    let tiers = TierConfig { spm_bytes: 256 << 10, ..TierConfig::default() };
    let cfg = DeviceConfig::small().with_tiers(tiers).with_psize(DOMAIN + 1);
    let compiled = Compiler::new(cfg).compile(plan, catalog).expect("compiles under tiers");
    let (_, stats) = compiled.execute_replicated(catalog, 1).expect("tiered run");
    stats
}

fn spill_plan() -> (LogicalPlan, Catalog) {
    const DOMAIN: u32 = 1 << 18;
    let ks: Vec<u32> = (0..DOMAIN).collect();
    let ws: Vec<u32> = ks.iter().map(|k| k % 251).collect();
    let schema =
        Schema::new(vec![Field::new("K", DataType::U32), Field::new("W", DataType::U32)]);
    let table =
        Table::from_columns(schema, vec![Column::U32(ks), Column::U32(ws)]).expect("table");
    let mut catalog = Catalog::new();
    catalog.register("T", table);
    let plan = LogicalPlan::Sort {
        input: Box::new(LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan { table: "T".into(), partition: None }),
            items: vec![
                SelectItem::Expr { expr: Expr::Col(ColRef::bare("K")), alias: None },
                SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
                SelectItem::Agg {
                    func: AggFn::Sum,
                    arg: Some(Expr::Col(ColRef::bare("W"))),
                    alias: None,
                },
            ],
            group_by: vec![ColRef::bare("K")],
        }),
        keys: vec![(ColRef::bare("K"), false)],
    };
    (plan, catalog)
}

/// The committed fast/1t throughput from `BENCH_engine.json`, if present.
fn engine_fast1t_mflits(repo_root: &std::path::Path) -> Option<f64> {
    let text = std::fs::read_to_string(repo_root.join("BENCH_engine.json")).ok()?;
    let row = text.lines().find(|l| l.contains("\"fast/1t\""))?;
    let key = "\"mflits_per_sec\": ";
    let at = row.find(key)? + key.len();
    row[at..].trim_end_matches(['}', ',', ' ']).parse().ok()
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
    println!("tier_overhead — tiering off/pinned/spilling, {host_cores} host core(s)\n");

    let off = median5("tiers-off/fast/1t", || run_metadata(&dataset, None));
    let pinned =
        median5("tiers-pinned/fast/1t", || run_metadata(&dataset, Some(TierConfig::default())));
    let (plan, catalog) = spill_plan();
    let spill = median5("spill-heavy/fast/1t", || run_spill_heavy(&plan, &catalog));
    assert!(
        spill.stats.spill_wait_cycles > 0 && spill.stats.tier_pcie_bytes > 0,
        "the spill-heavy row must actually spill: {}",
        spill.stats
    );

    for s in [&off, &pinned, &spill] {
        println!(
            "  {:<22} {:>9.1} ms   {:>8.2} Mflit/s   ({} flits, {} cycles)",
            s.label,
            s.wall.as_secs_f64() * 1e3,
            s.mflits_per_sec(),
            s.stats.total_flits,
            s.stats.cycles
        );
    }

    // Overhead of the (idle) tier gate, measured back to back in-process.
    let gate_pct = (1.0 - pinned.mflits_per_sec() / off.mflits_per_sec()) * 100.0;
    println!("\n  pinned-tier gate overhead vs tiers-off: {gate_pct:.2}%");
    // Overhead of the tiers-off build vs the committed engine baseline.
    let engine_pct = engine_fast1t_mflits(&repo_root).map(|base| {
        let pct = (1.0 - off.mflits_per_sec() / base) * 100.0;
        println!("  tiers-off vs BENCH_engine.json fast/1t: {pct:.2}% ({base:.2} Mflit/s baseline)");
        pct
    });

    let clock_hz = DeviceConfig::small().clock_hz;
    let modeled_secs = spill.stats.cycles as f64 / clock_hz;
    let pcie_gbps = spill.stats.tier_pcie_bytes as f64 / modeled_secs / 1e9;
    let spill_pct = spill.stats.stall_fractions()[4] * 100.0;
    println!(
        "  spill-heavy: {} pages filled / {} spilled, {} prefetch hits, \
         {:.2} GB/s modeled PCIe, {spill_pct:.1}% module-cycles in spill-wait",
        spill.stats.tier_pages_filled,
        spill.stats.tier_pages_spilled,
        spill.stats.tier_prefetch_hits,
        pcie_gbps
    );

    let mut json = String::from("{\n  \"bench\": \"tier_overhead\",\n");
    let _ = write!(json, "  \"host_cores\": {host_cores},\n  \"samples\": [\n");
    let samples = [&off, &pinned, &spill];
    for (i, s) in samples.iter().enumerate() {
        json.push_str("    ");
        s.json(&mut json);
        json.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"tier_gate_overhead_pct\": {gate_pct:.2},");
    if let Some(pct) = engine_pct {
        let _ = writeln!(json, "  \"tiers_off_vs_engine_fast1t_pct\": {pct:.2},");
    }
    let _ = write!(
        json,
        "  \"spill\": {{\"pages_filled\": {}, \"pages_spilled\": {}, \
         \"prefetch_hits\": {}, \"pcie_bytes\": {}, \"modeled_pcie_gbps\": {pcie_gbps:.2}, \
         \"spill_wait_pct\": {spill_pct:.1}}}\n}}\n",
        spill.stats.tier_pages_filled,
        spill.stats.tier_pages_spilled,
        spill.stats.tier_prefetch_hits,
        spill.stats.tier_pcie_bytes,
    );
    let out = repo_root.join("BENCH_tier.json");
    std::fs::write(&out, &json).expect("write BENCH_tier.json");
    println!("\nsnapshot written to {}", out.display());
}
