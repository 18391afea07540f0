//! The accelerated Metadata Update stage (paper §IV-C, Figure 11):
//! NM / MD / UQ tags computed by the simulated hardware pipeline and
//! checked against the GATK-analog software stage.
//!
//! Run with: `cargo run --release --example metadata_update`

use genesis::core::accel::metadata::accelerated_metadata_update;
use genesis::core::device::DeviceConfig;
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::gatk::metadata::set_nm_md_uq_tags;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = DatagenConfig::small();
    let dataset = Dataset::generate(&cfg);
    println!("{} reads x {} bp", dataset.reads.len(), cfg.read_len);

    // Software stage.
    let mut sw = dataset.reads.clone();
    let t = Instant::now();
    let report = set_nm_md_uq_tags(&mut sw, &dataset.genome)?;
    let sw_time = t.elapsed();
    println!("\nsoftware    : updated {} reads in {sw_time:?}", report.updated);
    println!("              total NM {} / total UQ {}", report.total_nm, report.total_uq);

    // Accelerated stage (Figure 11 pipeline per partition).
    let mut hw = dataset.reads.clone();
    let device = DeviceConfig::from_env()?.with_pipelines(16).with_psize(250_000);
    let result = accelerated_metadata_update(&mut hw, &dataset.genome, &device)?;
    println!("accelerated : updated {} reads", result.updated);
    println!("  cycles    : {}", result.stats.cycles);
    println!("  breakdown : {}", result.breakdown);
    if !result.stats.faults.is_empty() {
        println!("  faults    : {}", result.stats.faults);
    }

    // Every tag must be identical.
    let mut checked = 0;
    for (s, h) in sw.iter().zip(&hw) {
        assert_eq!(s.nm, h.nm, "NM mismatch on {}", s.name);
        assert_eq!(s.md, h.md, "MD mismatch on {}", s.name);
        assert_eq!(s.uq, h.uq, "UQ mismatch on {}", s.name);
        checked += 1;
    }
    println!("\nall NM/MD/UQ tags identical across {checked} reads ✓");

    // Show the paper's Figure 2 example read worked through the system.
    let sample = sw
        .iter()
        .find(|r| r.nm.unwrap_or(0) >= 2 && r.md.is_some())
        .expect("some read has mismatches");
    println!(
        "\nexample read {}: POS {} CIGAR {} -> NM {:?} MD {:?} UQ {:?}",
        sample.name, sample.pos, sample.cigar, sample.nm, sample.md, sample.uq
    );
    Ok(())
}
