//! Compiling a novel query to hardware (`cargo run --release --example compile_query`).
//!
//! Builds a query outside the paper's three hand-built accelerator
//! shapes — a filtered per-partition GROUP BY with a computed projection —
//! compiles it through the general plan→pipeline compiler, runs it on the
//! simulated device at the cost-model-chosen replication factor, and
//! checks the result against the software engine bit for bit. The same
//! compiled plan is then resubmitted through a one-device `GenesisServer`
//! with a deadline and software oracle.

use genesis::core::compile::Compiler;
use genesis::core::{DeviceConfig, GenesisServer, Request, ServerConfig};
use genesis::sql::ast::{AggFn, BinOp, ColRef, Expr, SelectItem};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::{Catalog, LogicalPlan};
use genesis::types::{Column, DataType, Field, Schema, Table};
use std::time::Duration;

fn col(name: &str) -> Expr {
    Expr::Col(ColRef::bare(name))
}

fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic event table: 10k rows of (BIN, VALUE).
    let n = 10_000u32;
    let bins: Vec<u32> = (0..n).map(|i| i.wrapping_mul(2654435761) % 64).collect();
    let values: Vec<u32> = (0..n).map(|i| i.wrapping_mul(40503) % 1_000).collect();
    let schema = Schema::new(vec![Field::new("BIN", DataType::U32), Field::new("VALUE", DataType::U32)]);
    let table = Table::from_columns(schema, vec![Column::U32(bins), Column::U32(values)])?;
    let mut catalog = Catalog::new();
    catalog.register("EVENTS", table);

    // SELECT BIN, COUNT, SUM(VALUE) FROM EVENTS
    //  WHERE VALUE < 500 GROUP BY BIN ORDER BY BIN
    // — none of the three seed kernels match this shape.
    let plan = LogicalPlan::Sort {
        input: Box::new(LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(LogicalPlan::Scan { table: "EVENTS".into(), partition: None }),
                pred: bin(BinOp::Lt, col("VALUE"), Expr::Number(500)),
            }),
            items: vec![
                SelectItem::Expr { expr: col("BIN"), alias: None },
                SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
                SelectItem::Agg {
                    func: AggFn::Sum,
                    arg: Some(col("VALUE")),
                    alias: Some("TOTAL".into()),
                },
            ],
            group_by: vec![ColRef::bare("BIN")],
        }),
        keys: vec![(ColRef::bare("BIN"), false)],
    };

    // 1. Compile: node → module graph, replication from the cost model.
    let device = DeviceConfig::from_env()?;
    let compiler = Compiler::new(device.clone());
    let compiled = compiler.compile(&plan, &catalog)?;
    println!("--- compiled pipeline ---");
    println!("{}", compiled.explain());

    // 2. Simulate at the chosen factor and diff against the software engine.
    let (hw, stats) = compiled.execute(&catalog)?;
    let sw = execute_plan(&plan, &catalog, &Env::default())?;
    assert_eq!(hw.num_rows(), sw.num_rows());
    for r in 0..hw.num_rows() {
        assert_eq!(hw.row(r), sw.row(r), "row {r} differs");
    }
    println!(
        "hardware == software for all {} groups ({} simulated cycles, {} B DMA in)",
        hw.num_rows(),
        stats.cycles,
        stats.dma_in_bytes
    );

    // 3. The same plan through the serving layer: device worker thread,
    //    deadline, software oracle as the graceful-degradation path.
    let server = GenesisServer::new(ServerConfig::default().with_devices(1, device));
    // The oracle must be `Send` (it runs on the worker thread), so it
    // captures a pre-computed software result, not the catalog.
    let oracle_result = sw.clone();
    let request = Request::precompiled("example", compiled)
        .with_deadline(Duration::from_secs(60))
        .with_oracle(move || Ok(oracle_result));
    let (table, stats) = server.submit(request, &catalog)?.wait()?;
    assert_eq!(table.num_rows(), sw.num_rows());
    println!(
        "GenesisServer returned the same {} groups (fallback jobs: {})",
        table.num_rows(),
        stats.faults.fallback_jobs
    );
    Ok(())
}
