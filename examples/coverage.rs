//! Extending Genesis beyond the paper's three stages (§IV-E): a
//! depth-of-coverage accelerator assembled from the same library modules,
//! driven through the paper's non-blocking host API so the host overlaps
//! its own work with the accelerator run.
//!
//! Run with: `cargo run --release --example coverage`

use genesis::core::accel::coverage::{coverage_sw, CoverageAccel, CoverageRun};
use genesis::core::device::DeviceConfig;
use genesis::core::host::{GenesisHost, JobOutput};
use genesis::datagen::{DatagenConfig, Dataset};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = DatagenConfig::small();
    let dataset = Arc::new(Dataset::generate(&cfg));
    println!("{} reads over {} bp of reference", dataset.reads.len(), dataset.genome.total_bases());

    // Drive the accelerator through the §III-E host API: configure inputs,
    // launch non-blocking, overlap host work, then flush results.
    let host = GenesisHost::new();
    host.configure_mem(0, "READS", vec![0], 1); // inputs are staged by name
    let ds = Arc::clone(&dataset);
    let device = DeviceConfig::from_env()?.with_psize(250_000);
    host.run_genesis(
        0,
        Box::new(move |_inputs| {
            let accel = CoverageAccel::new(device);
            let run: CoverageRun = accel
                .run(&ds.reads, &ds.genome)
                .map_err(|e| genesis::core::CoreError::Host(e.to_string()))?;
            let mut out = JobOutput { stats: run.stats, ..JobOutput::default() };
            for (chrom, lane) in run.depth {
                out.outputs.insert(
                    chrom.to_string(),
                    lane.iter().flat_map(|d| d.to_le_bytes()).collect(),
                );
            }
            Ok(out)
        }),
    )?;

    // Host does useful work while the accelerator runs: compute the
    // software oracle concurrently.
    println!("accelerator launched (check_genesis = {})", host.check_genesis(0));
    let oracle = coverage_sw(&dataset.reads, &dataset.genome);
    println!("host finished its own work; polling accelerator ...");

    let out = host.genesis_flush(0)?;
    println!("accelerator done: {} cycles simulated", out.stats.cycles);

    // Verify and summarize.
    let mut max_depth = 0u32;
    let mut covered = 0u64;
    let mut total = 0u64;
    for (chrom, lane) in &oracle {
        let hw_bytes = &out.outputs[&chrom.to_string()];
        let hw: Vec<u32> = hw_bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        assert_eq!(&hw, lane, "{chrom} depth mismatch");
        for &d in lane {
            max_depth = max_depth.max(d);
            covered += u64::from(d > 0);
            total += 1;
        }
    }
    println!("\ncoverage identical to software oracle across {} chromosomes ✓", oracle.len());
    println!(
        "breadth of coverage: {:.1}%   max depth: {max_depth}x   mean depth: {:.1}x",
        100.0 * covered as f64 / total as f64,
        dataset.reads.len() as f64 * f64::from(cfg.read_len) / total as f64
    );
    Ok(())
}
