//! Spilling a million-group aggregate through the memory tiers
//! (`cargo run --release --example tiered_spill`).
//!
//! Historically the compiler rejected GROUP BY domains beyond 65,536
//! keys: the histogram scratchpads had to fit the modeled on-chip SPM.
//! With tiered memory (`DeviceConfig::with_tiers`, pinned in code here;
//! `GENESIS_TIERS` on an entry point that starts from
//! `DeviceConfig::from_env()`) oversized scratchpads page against device DRAM and host DRAM behind a
//! PCIe link model instead, so the same pipeline runs a 2^20-group
//! aggregate whose two ~8 MiB histograms are 8× the 1 MiB modeled SPM —
//! bit-identical to the software engine, with the added latency
//! attributed to the `spill-wait` stall bucket and the page traffic
//! reported in the `tier.*` counters.

use genesis::core::compile::Compiler;
use genesis::core::{DeviceConfig, GenesisServer, Request, ServerConfig, TierConfig};
use genesis::sql::ast::{AggFn, ColRef, Expr, SelectItem};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::{Column, DataType, Field, Schema, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 2^20 groups, one row per group: SELECT K, COUNT, SUM(W) FROM T
    // GROUP BY K ORDER BY K. The histogram domain is max(K)+1 = 1,048,576,
    // so each of the two per-group scratchpads is ~8 MiB.
    const DOMAIN: u32 = 1 << 20;
    let ks: Vec<u32> = (0..DOMAIN).collect();
    let ws: Vec<u32> = ks.iter().map(|k| k % 251).collect();
    let schema =
        Schema::new(vec![Field::new("K", DataType::U32), Field::new("W", DataType::U32)]);
    let table = Table::from_columns(schema, vec![Column::U32(ks), Column::U32(ws)])?;
    let mut catalog = Catalog::new();
    catalog.register("T", table);
    let plan = LogicalPlan::Sort {
        input: Box::new(LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan { table: "T".into(), partition: None }),
            items: vec![
                SelectItem::Expr { expr: Expr::Col(ColRef::bare("K")), alias: None },
                SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
                SelectItem::Agg { func: AggFn::Sum, arg: Some(Expr::Col(ColRef::bare("W"))), alias: None },
            ],
            group_by: vec![ColRef::bare("K")],
        }),
        keys: vec![(ColRef::bare("K"), false)],
    };

    // Without tiers this domain is rejected outright.
    let untiered = Compiler::new(DeviceConfig::small()).compile(&plan, &catalog);
    println!("without tiers: {}\n", untiered.err().map(|e| e.to_string()).unwrap_or_default());

    // 1 MiB of modeled SPM — 8× oversubscribed by the two histograms.
    let tiers = TierConfig { spm_bytes: 1 << 20, ..TierConfig::default() };
    let cfg = DeviceConfig::small().with_tiers(tiers).with_psize(DOMAIN + 1);
    let compiled = Compiler::new(cfg.clone()).compile(&plan, &catalog)?;
    println!("with tiers:    {}", compiled.replication().summary());

    // Run on a one-device server and check against the software engine
    // bit for bit.
    let server = GenesisServer::new(ServerConfig::default().with_devices(1, cfg));
    let (hw, stats) = server.submit(Request::precompiled("example", compiled), &catalog)?.wait()?;
    let sw = execute_plan(&plan, &catalog, &Env::default())?;
    assert_eq!(hw.num_rows(), sw.num_rows());
    for r in 0..hw.num_rows() {
        assert_eq!(hw.row(r), sw.row(r), "row {r} diverged from the software engine");
    }
    println!("result:        {} groups, bit-identical to the software engine", hw.num_rows());

    println!("stats:         {stats}");
    let [active, input, backpr, mem, spill] = stats.stall_fractions();
    println!(
        "module-cycles: active {:.1}% / input {:.1}% / backpressure {:.1}% / \
         memory {:.1}% / spill-wait {:.1}%",
        active * 100.0,
        input * 100.0,
        backpr * 100.0,
        mem * 100.0,
        spill * 100.0
    );

    println!("\ntier.* counters from the server metrics registry:");
    for (name, value) in server.metrics_snapshot().counters {
        if name.contains("tier.") {
            println!("  {name} = {value}");
        }
    }
    Ok(())
}
