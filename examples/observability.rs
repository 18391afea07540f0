//! Observability walk-through: trace an accelerated metadata-update run,
//! export a Perfetto-loadable Chrome trace plus a stall flame table, and
//! print the host-side metrics the `GenesisHost` API records.
//!
//! Run with: `cargo run --release --example observability`
//!
//! This example pins its trace path in code. An entry point that starts
//! from `DeviceConfig::from_env()` is traced without code changes:
//! `GENESIS_TRACE=trace.json cargo run --release --example
//! metadata_update`, then load `trace.json` at <https://ui.perfetto.dev>.

use genesis::core::accel::metadata::accelerated_metadata_update;
use genesis::core::device::DeviceConfig;
use genesis::core::host::{GenesisHost, JobOutput};
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::obs::TraceConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Dataset::generate(&DatagenConfig::tiny());
    let trace_path = std::env::temp_dir().join("genesis_observability_trace.json");

    // 1. A traced accelerator run: every batch system records per-module
    //    active/stall spans and queue-depth samples, merged into one
    //    Chrome trace on completion.
    let device = DeviceConfig::small().with_trace(TraceConfig::to_path(&trace_path));
    let mut reads = dataset.reads.clone();
    let result = accelerated_metadata_update(&mut reads, &dataset.genome, &device)?;
    println!("accelerated metadata update: {}", result.stats);
    println!("\nChrome trace written to {}", trace_path.display());
    println!("  -> load it at https://ui.perfetto.dev (or chrome://tracing)");

    // 2. The sibling flame table: per-module cycle attribution, sorted by
    //    parked cycles, written next to the trace.
    let stalls_path = format!("{}.stalls.txt", trace_path.display());
    println!("\nstall flame table ({stalls_path}):\n");
    println!("{}", std::fs::read_to_string(&stalls_path)?);

    // 3. Host-side metrics: the GenesisHost records wall-clock spans for
    //    every API call into a lock-free registry.
    let host = GenesisHost::new();
    host.configure_mem(0, "READS.QUAL", vec![7; 4096], 1);
    host.run_genesis(
        0,
        Box::new(|inputs| {
            let mut out = JobOutput::default();
            out.outputs.insert("n_cols".into(), vec![inputs.len() as u8]);
            Ok(out)
        }),
    )?;
    host.wait_genesis(0)?;
    let _ = host.genesis_flush(0)?;
    println!("host metrics snapshot:\n\n{}", host.metrics_snapshot());
    Ok(())
}
