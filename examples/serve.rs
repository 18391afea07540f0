//! The multi-tenant serving layer: three tenants drive mixed SQL
//! workloads through one [`GenesisServer`] — scripts registered by name,
//! compiled once through the pipeline cache, scheduled fairly across the
//! simulated device pool.
//!
//! Run with: `cargo run --release --example serve`
//! Scale the pool with: `GENESIS_DEVICES=4 cargo run --release --example serve`

use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::sql::{Catalog, Script};
use genesis::types::{Column, DataType, Field, Schema, Table};
use std::time::Duration;

const SUM_QUALITY: &str = "INSERT INTO Out SELECT SUM(QUAL) FROM READS";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small quality-score table standing in for a READS partition.
    const ROWS: u32 = 4_096;
    let qual: Vec<u32> = (0..ROWS).map(|i| i.wrapping_mul(2654435761) % 64).collect();
    let pos: Vec<u32> = (0..ROWS).map(|i| i % 128).collect();
    let table = Table::from_columns(
        Schema::new(vec![Field::new("QUAL", DataType::U32), Field::new("POS", DataType::U32)]),
        vec![Column::U32(qual), Column::U32(pos)],
    )?;
    let mut catalog = Catalog::new();
    catalog.register("READS", table);

    // The pool size comes from GENESIS_DEVICES (default 1).
    let server = GenesisServer::new(ServerConfig::from_env()?.start_paused());
    println!("serving on {} simulated device(s)", server.devices());

    // Named workloads tenants submit by name — parsed once here,
    // compiled per-submit through the LRU cache.
    server.register_script("sum_quality", SUM_QUALITY)?;
    server.register_script(
        "high_quality",
        "INSERT INTO Out SELECT POS, QUAL FROM READS WHERE QUAL > 48",
    )?;
    server.register_script("min_max", "INSERT INTO Out SELECT MIN(QUAL), MAX(QUAL) FROM READS")?;

    // Three tenants, mixed workloads, submitted while dispatch is paused
    // so the fair-queue order is easy to see in the schedule log.
    let mix = [
        ("alice", "sum_quality"),
        ("alice", "high_quality"),
        ("alice", "sum_quality"),
        ("bob", "min_max"),
        ("bob", "sum_quality"),
        ("carol", "high_quality"),
        ("carol", "min_max"),
    ];
    let tickets: Vec<_> = mix
        .iter()
        .map(|(tenant, script)| server.submit(Request::script(*tenant, *script), &catalog))
        .collect::<Result<_, _>>()?;
    server.resume();

    println!("\nresults:");
    for ((tenant, script), ticket) in mix.iter().zip(tickets) {
        let (out, stats) = ticket.wait()?;
        println!(
            "  {tenant:<6} {script:<13} -> {:>4} rows, {:>7} cycles{}",
            out.num_rows(),
            stats.cycles,
            if stats.reconfig_cycles > 0 { " (cache miss: paid reconfig)" } else { "" }
        );
    }

    // A deadline bounds the wait (time queued counts), and a software
    // oracle is what the job degrades to if the hardware run fails. The
    // oracle runs on a worker thread, so it captures a precomputed table,
    // not the catalog.
    let mut software = catalog.clone_tables();
    Script::parse(SUM_QUALITY)?.run(&mut software)?;
    let oracle_result = software.remove("Out").ok_or("the script writes Out")?;
    let request = Request::script("alice", "sum_quality")
        .with_deadline(Duration::from_secs(60))
        .with_oracle(move || Ok(oracle_result));
    let (out, stats) = server.submit(request, &catalog)?.wait()?;
    println!(
        "  alice  sum_quality   -> {:>4} rows with a deadline and an oracle (fallback jobs: {})",
        out.num_rows(),
        stats.faults.fallback_jobs
    );

    // The schedule log: round-robin across tenants, FIFO within each, and
    // where and when each job ran on the modeled device timeline.
    println!("\ndispatch order (fair queuing):");
    for rec in server.schedule_log() {
        println!(
            "  #{:<2} {:<6} job {:<2} on device {} at {:.3?}..{:.3?} modeled ({} us queued)",
            rec.seq,
            rec.tenant,
            rec.job_id,
            rec.device,
            rec.modeled_start,
            rec.modeled_end,
            rec.start_us.saturating_sub(rec.queued_us)
        );
    }

    let cache = server.cache_stats();
    println!(
        "\npipeline cache: {} hits / {} misses / {} evictions ({} of {} entries live)",
        cache.hits, cache.misses, cache.evictions, cache.len, cache.capacity
    );

    let busy = server.modeled_device_time();
    println!("modeled device busy time:");
    for (d, t) in busy.iter().enumerate() {
        println!("  device {d}: {t:.3?}");
    }

    let snap = server.metrics_snapshot();
    println!("\nper-tenant latency (ns):");
    for tenant in ["alice", "bob", "carol"] {
        let h = &snap.histograms[&format!("server.tenant.{tenant}.latency_ns")];
        println!("  {tenant:<6} n={} mean={:.0} max={}", h.count, h.mean(), h.max);
    }
    Ok(())
}
