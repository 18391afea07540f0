//! Fault-tolerant host runtime demo: a seeded fault schedule injects DMA
//! errors, transient device faults, and memory-latency spikes while the
//! metadata accelerator runs; the retry/backoff loop and the software
//! oracle fallback recover bit-identical output, and the recovery is
//! visible in the run's `FaultReport`.
//!
//! Run with: `cargo run --release --example fault_tolerance`
//!
//! The schedule is pinned in code and the ground truth is a plain
//! `DeviceConfig::small()`, so an exported `GENESIS_FAULTS` reaches
//! neither. An entry point that starts from `DeviceConfig::from_env()`
//! takes the same schedule from the environment:
//! `GENESIS_FAULTS="dma=0.15,device=0.05,mem=0.002:200,seed=7" \
//!  cargo run --release --example metadata_update`

use genesis::core::accel::metadata::MetadataAccel;
use genesis::core::device::DeviceConfig;
use genesis::core::fault::FaultConfig;
use genesis::datagen::{DatagenConfig, Dataset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Dataset::generate(&DatagenConfig::tiny());

    // Ground truth: a fault-free run.
    let clean_dev = DeviceConfig::small();
    let (clean, _) = MetadataAccel::new(clean_dev).run(&dataset.reads, &dataset.genome)?;

    // A deterministic, seed-replayable schedule: 15% of DMA transfers
    // fail, 5% of jobs hit a transient device fault, 0.2% of memory
    // reads take a 200-cycle latency spike. Same seed → same faults.
    let faults = FaultConfig::from_spec("dma=0.15,device=0.05,mem=0.002:200,seed=7")
        .expect("valid fault spec");
    println!("fault schedule: {faults:?}\n");

    let dev = DeviceConfig::small().with_faults(faults);
    let (tags, stats) = MetadataAccel::new(dev).run(&dataset.reads, &dataset.genome)?;

    // Despite the injected faults, the recovered output is bit-identical.
    assert_eq!(tags, clean, "recovered NM/MD/UQ tags match the fault-free run");
    println!("recovered output bit-identical to the fault-free run ✓\n");

    println!("fault report: {}", stats.faults);
    Ok(())
}
