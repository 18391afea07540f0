//! The accelerated Mark Duplicates stage (paper §IV-B, Figure 10) on a
//! synthetic flow cell, using the paper's non-blocking host API shape.
//!
//! Run with: `cargo run --release --example mark_duplicates`

use genesis::core::accel::markdup::accelerated_mark_duplicates;
use genesis::core::device::DeviceConfig;
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::gatk::markdup::mark_duplicates;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = DatagenConfig::small();
    let dataset = Dataset::generate(&cfg);
    println!(
        "{} reads ({} duplicate-set members by construction)",
        dataset.reads.len(),
        dataset.truth.iter().filter(|t| t.is_pcr_copy).count()
    );

    // Software baseline (the GATK4-analog stage).
    let mut sw_reads = dataset.reads.clone();
    let t = Instant::now();
    let sw_report = mark_duplicates(&mut sw_reads);
    let sw_time = t.elapsed();
    println!("\nsoftware:   {sw_report:?} in {sw_time:?}");

    // Accelerated stage: quality sums in hardware, resolution on the host.
    let mut hw_reads = dataset.reads.clone();
    let result = accelerated_mark_duplicates(&mut hw_reads, &DeviceConfig::from_env()?)?;
    println!("accelerated: {:?}", result.report);
    println!("  breakdown : {}", result.breakdown);
    println!(
        "  (host portion dominates — the paper's §V-B observation that the\n\
         \u{20}  un-accelerated software part of mark duplicates bounds its speedup)"
    );

    assert_eq!(result.report, sw_report);
    assert_eq!(sw_reads, hw_reads);
    println!("\naccelerated output identical to software output ✓");

    // Ground-truth sanity: every read the generator duplicated shares its
    // template with at least one surviving read.
    let flagged = hw_reads.iter().filter(|r| r.flags.is_duplicate()).count();
    println!(
        "flagged {} of {} reads as duplicates ({:.1}%)",
        flagged,
        hw_reads.len(),
        100.0 * flagged as f64 / hw_reads.len() as f64
    );
    Ok(())
}
