//! Observability walk-through: trace an accelerated metadata-update run,
//! export a Perfetto-loadable Chrome trace plus a stall flame table, and
//! print the metrics a `GenesisServer` records for one served request.
//!
//! Run with: `cargo run --release --example observability`
//!
//! This example pins its trace path in code. An entry point that starts
//! from `DeviceConfig::from_env()` is traced without code changes:
//! `GENESIS_TRACE=trace.json cargo run --release --example
//! metadata_update`, then load `trace.json` at <https://ui.perfetto.dev>.

use genesis::core::accel::metadata::accelerated_metadata_update;
use genesis::core::device::DeviceConfig;
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::obs::TraceConfig;
use genesis::sql::Catalog;
use genesis::types::{Column, DataType, Field, Schema, Table};

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

    // 3. Server-side metrics: one request through a one-device server.
    //    `server.phase.*` tile its latency from `submit` to delivery,
    //    `server.run.*` split the device run, `server.scan.*` count rows.
    let mut catalog = Catalog::new();
    catalog.register(
        "READS",
        Table::from_columns(
            Schema::new(vec![Field::new("CHR", DataType::U8), Field::new("POS", DataType::U32)]),
            vec![
                Column::U8(dataset.reads.iter().map(|r| r.chr.id()).collect()),
                Column::U32(dataset.reads.iter().map(|r| r.pos).collect()),
            ],
        )?,
    );
    let server =
        GenesisServer::new(ServerConfig::default().with_devices(1, DeviceConfig::small()));
    server.register_script(
        "reads_per_chromosome",
        "INSERT INTO PerChr SELECT CHR, COUNT(*) FROM READS GROUP BY CHR ORDER BY CHR",
    )?;
    let ticket = server.submit(Request::script("demo", "reads_per_chromosome"), &catalog)?;
    let (per_chr, _) = ticket.wait()?;
    println!("reads per chromosome:\n{per_chr}");
    println!("server metrics snapshot:\n\n{}", server.metrics_snapshot());
    Ok(())
}
