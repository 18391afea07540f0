//! The accelerated BQSR stage (paper §IV-D, Figure 12): covariate-table
//! construction in hardware, quality-score update in host software, and a
//! demonstration that recalibration recovers the injected lane bias.
//!
//! Run with: `cargo run --release --example bqsr`

use genesis::core::accel::bqsr::accelerated_bqsr_table;
use genesis::core::device::DeviceConfig;
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::gatk::bqsr::{apply_recalibration, build_covariate_table};
use genesis::types::ReadRecord;

fn mean_qual(reads: &[ReadRecord], rg: u8) -> f64 {
    let mut sum = 0u64;
    let mut n = 0u64;
    for r in reads.iter().filter(|r| r.read_group == rg) {
        for q in &r.qual {
            sum += u64::from(q.value());
            n += 1;
        }
    }
    sum as f64 / n.max(1) as f64
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = DatagenConfig::small();
    let mut dataset = Dataset::generate(&cfg);
    println!(
        "{} reads across {} read groups (lanes); lane biases injected by the\n\
         generator: lane 0: none, lane 1: -2.5 Phred, lane 2: +1.5, lane 3: -4.0",
        dataset.reads.len(),
        cfg.read_groups
    );

    // Covariate-table construction on the simulated accelerator.
    let device = DeviceConfig::from_env()?.with_pipelines(8).with_psize(250_000);
    let result = accelerated_bqsr_table(
        &dataset.reads,
        &dataset.genome,
        cfg.read_groups,
        cfg.read_len,
        &device,
    )?;
    println!("\naccelerator : {} observations, {} errors", result.table.total_observations(), result.table.total_errors());
    println!("  cycles    : {}", result.stats.cycles);
    println!("  breakdown : {}", result.breakdown);

    // The software stage must agree exactly.
    let sw = build_covariate_table(&dataset.reads, &dataset.genome, cfg.read_groups, cfg.read_len);
    assert_eq!(result.table, sw, "hardware covariate table must equal software's");
    println!("covariate table identical to software construction ✓");

    // Quality update (host software, §IV-D) and bias recovery.
    let before: Vec<f64> = (0..cfg.read_groups).map(|g| mean_qual(&dataset.reads, g)).collect();
    let _ = apply_recalibration(&mut dataset.reads, &dataset.genome, &result.table);
    let after: Vec<f64> = (0..cfg.read_groups).map(|g| mean_qual(&dataset.reads, g)).collect();

    println!("\nlane   reported-mean   recalibrated-mean   injected bias");
    for g in 0..cfg.read_groups as usize {
        let bias = ["0.0", "-2.5", "+1.5", "-4.0"][g % 4];
        println!("  {g}        {:6.2}            {:6.2}          {bias}", before[g], after[g]);
    }
    println!(
        "\nrecalibrated scores order lanes by their true error rates — the\n\
         empirical-quality match the paper cites ([18], §IV-D)."
    );
    Ok(())
}
