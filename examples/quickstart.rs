//! Quickstart: the paper's running example end-to-end.
//!
//! Generates a synthetic data set, expresses the "count matching bases"
//! operation as the Figure 4 extended-SQL script, compiles it once into
//! the Figure 7 hardware pipeline, and runs it partition by partition on
//! the cycle-level simulation — checking every read's count against the
//! software engine running the same script (paper Figure 5) and against a
//! direct computation over the reads.
//!
//! Run with: `cargo run --release --example quickstart`

#[path = "../tests/common/mod.rs"]
mod common;

use common::count_matching_bases_sw;
use genesis::core::compile::{figure4_script, Compiler};
use genesis::core::device::DeviceConfig;
use genesis::core::perf::AccelStats;
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::sql::Script;
use genesis::types::Value;
use genesis_bench::scenarios::figure4_partitions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic stand-in for the paper's Illumina data set, split
    //    into (chromosome, 10 kbp window) partitions (§III-B).
    let cfg = DatagenConfig::small();
    println!(
        "generating {} reads x {} bp over {} chromosomes of {} bp ...",
        cfg.num_reads, cfg.read_len, cfg.num_chromosomes, cfg.chrom_len
    );
    let dataset = Dataset::generate(&cfg);
    let mut parts = figure4_partitions(&dataset, 10_000);

    // 2. The Figure 4 extended-SQL script, compiled once: node -> hardware
    //    module (§III-D), then the lowered Figure 7 pipeline.
    let script = figure4_script(0);
    println!("\n--- extended SQL (paper Figure 4) ---\n{script}\n");
    let device = DeviceConfig::from_env()?;
    let plan = Compiler::new(device.clone()).compile_sql(&script, &parts[0].1)?;
    println!("--- compiled pipeline (paper Figure 7) ---\n{}", plan.explain());

    // 3. Run it per partition, beside the software engine on the same
    //    script and the direct computation.
    let oracle = count_matching_bases_sw(&dataset.reads, &dataset.genome);
    let mut stats = AccelStats::default();
    for (read_indices, cat) in &mut parts {
        let (hw, run) = plan.execute(cat)?;
        stats.absorb(run);
        Script::parse(&script)?.run(cat)?;
        let sw = cat.table("Output").expect("the script inserts into Output");
        for (row, &idx) in read_indices.iter().enumerate() {
            let want = Value::U64(u64::from(oracle[idx as usize]));
            assert_eq!(sw.get(row, "SUM")?, want, "read {idx}: SQL engine");
            assert_eq!(hw.get(row, "SUM")?, want, "read {idx}: compiled pipeline");
        }
    }

    println!("first reads of partition 0 (one Output row per read):");
    for &idx in parts[0].0.iter().take(5) {
        let (r, n) = (&dataset.reads[idx as usize], oracle[idx as usize]);
        let cigar = r.cigar.to_string();
        println!("  read {:<12} POS {:>6} CIGAR {cigar:<12} matching bases = {n}", r.name, r.pos);
    }
    let total_bases: u64 = dataset.reads.iter().map(|r| u64::from(r.len())).sum();
    let matched: u64 = oracle.iter().map(|&c| u64::from(c)).sum();
    println!("\npartitions             : {}", parts.len());
    println!("reads processed        : {}", dataset.reads.len());
    println!("bases processed        : {total_bases}");
    println!("bases matching ref     : {matched} ({:.2}%)", 100.0 * matched as f64 / total_bases as f64);
    println!("accelerator invocations: {}", stats.invocations);
    println!("simulated cycles       : {}", stats.cycles);
    println!("modeled accel time     : {:?}", device.cycles_to_time(stats.cycles));
    println!("DMA                    : {} B in, {} B out", stats.dma_in_bytes, stats.dma_out_bytes);
    println!("\nSQL engine == compiled pipeline == direct count for every read ✓");
    Ok(())
}
