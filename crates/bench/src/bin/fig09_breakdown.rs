//! Figure 9: runtime breakdown of the GATK4-analog preprocessing pipeline,
//! with and without an alignment accelerator.
//!
//! The second bar applies the paper's what-if: an alignment accelerator in
//! the GenAx class sustaining 4 058 K reads/s replaces the software
//! alignment stage (§IV-A).

use genesis_bench::{env_scale, fmt_dur, print_fraction_bar};
use genesis_datagen::{DatagenConfig, Dataset};
use genesis_gatk::{PreprocessingPipeline, StageTimings};
use std::time::Duration;

/// GenAx throughput assumed by the paper (reads per second).
const GENAX_READS_PER_SEC: f64 = 4_058_000.0;

fn main() {
    // Alignment is the expensive stage; use a smaller data set than the
    // other harnesses so the k-mer index + banded extension stay fast.
    let cfg = match env_scale() {
        "tiny" => DatagenConfig { num_reads: 500, chrom_len: 50_000, ..DatagenConfig::tiny() },
        "small" => DatagenConfig {
            num_reads: 5_000,
            chrom_len: 200_000,
            num_chromosomes: 2,
            ..DatagenConfig::default()
        },
        // medium and large
        _ => DatagenConfig {
            num_reads: 20_000,
            chrom_len: 500_000,
            num_chromosomes: 2,
            ..DatagenConfig::default()
        },
    };
    println!(
        "Figure 9 — GATK4 preprocessing runtime breakdown\n\
         data set: {} reads x {} bp, {} x {} bp reference\n",
        cfg.num_reads, cfg.read_len, cfg.num_chromosomes, cfg.chrom_len
    );
    let mut dataset = Dataset::generate(&cfg);
    let pipeline = PreprocessingPipeline::new(cfg.read_groups, cfg.read_len).with_alignment();
    let report = pipeline
        .run(&mut dataset.reads, &dataset.genome)
        .expect("pipeline runs");
    let t = report.timings;

    println!("measured stage times (single thread):");
    for (name, _) in t.fractions() {
        let d = match name {
            "Alignment" => t.alignment,
            "Duplicate Marking" => t.mark_duplicates,
            "Metadata Update" => t.metadata_update,
            "BQSR (covariate table construction)" => t.bqsr_table,
            _ => t.bqsr_update,
        };
        println!("  {name:<38} {}", fmt_dur(d));
    }
    println!("  {:<38} {}\n", "total", fmt_dur(t.total()));

    print_fraction_bar("GATK4 Data Preprocessing:", &t.fractions());

    // What-if: alignment handled by a GenAx-class accelerator.
    let accel_alignment =
        Duration::from_secs_f64(cfg.num_reads as f64 / GENAX_READS_PER_SEC);
    let accel = StageTimings { alignment: accel_alignment, ..t };
    println!();
    print_fraction_bar(
        "GATK4 Data Preprocessing (with alignment accelerator, 4058K reads/s):",
        &accel.fractions(),
    );

    let rest: f64 = accel.fractions().iter().skip(1).map(|(_, f)| f).sum();
    println!(
        "\nwith alignment accelerated, the three data-manipulation stages account\n\
         for {:.1}% of the remaining runtime (paper: ~93%) — the Amdahl argument\n\
         motivating Genesis (§IV-A).",
        rest * 100.0
    );
}
