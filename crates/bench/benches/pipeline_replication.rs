//! Pipeline replication benchmark (`cargo bench --bench pipeline_replication`).
//!
//! Compiles three query shapes through the plan→pipeline compiler, lets
//! the cost model pick the replication factor (paper Figure 8), and
//! compares simulated-cycle throughput at the chosen factor against a
//! single pipeline. Results are snapshotted to `BENCH_compile.json`; the
//! acceptance gate is a ≥2× cycle-throughput improvement at the
//! cost-model-chosen factor on at least one workload.

use genesis_core::compile::Compiler;
use genesis_core::device::DeviceConfig;
use genesis_sql::ast::{AggFn, BinOp, ColRef, Expr, SelectItem};
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::{Column, DataType, Field, Schema, Table};
use std::fmt::Write as _;
use std::path::PathBuf;

struct Workload {
    label: &'static str,
    chosen_factor: usize,
    limited_by: String,
    rows: usize,
    cycles_1x: u64,
    cycles_chosen: u64,
}

impl Workload {
    fn speedup(&self) -> f64 {
        self.cycles_1x as f64 / self.cycles_chosen as f64
    }
}

fn table_u32(cols: &[(&str, Vec<u32>)]) -> Table {
    let schema = Schema::new(cols.iter().map(|(n, _)| Field::new(n, DataType::U32)).collect());
    let columns = cols.iter().map(|(_, v)| Column::U32(v.clone())).collect();
    Table::from_columns(schema, columns).unwrap()
}

fn scan(t: &str) -> LogicalPlan {
    LogicalPlan::Scan { table: t.to_owned(), partition: None }
}

fn col(name: &str) -> Expr {
    Expr::Col(ColRef::bare(name))
}

fn run_workload(
    label: &'static str,
    plan: &LogicalPlan,
    catalog: &Catalog,
    rows: usize,
) -> Workload {
    let compiler = Compiler::new(DeviceConfig::default());
    let compiled = compiler.compile(plan, catalog).expect("workload must compile");
    let chosen = compiled.replication().factor;
    let (_, base) = compiled.execute_replicated(catalog, 1).expect("1x run");
    let (_, repl) = compiled.execute_replicated(catalog, chosen).expect("chosen run");
    Workload {
        label,
        chosen_factor: chosen,
        limited_by: format!("{:?}", compiled.replication().limited_by),
        rows,
        cycles_1x: base.cycles,
        cycles_chosen: repl.cycles,
    }
}

fn main() {
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    const ROWS: usize = 24_000;
    let xs: Vec<u32> = (0..ROWS as u32).map(|i| i.wrapping_mul(2654435761) % 10_000).collect();
    let ks: Vec<u32> = (0..ROWS as u32).map(|i| i % 512).collect();
    let mut catalog = Catalog::new();
    catalog.register("T", table_u32(&[("X", xs), ("K", ks)]));

    // 1. Scalar reduction (16×, policy cap).
    let sum_plan = LogicalPlan::Aggregate {
        input: Box::new(scan("T")),
        items: vec![SelectItem::Agg { func: AggFn::Sum, arg: Some(col("X")), alias: None }],
        group_by: vec![],
    };
    // 2. Grouped count under a host-side ORDER BY (8×, memory channels).
    let group_plan = LogicalPlan::Sort {
        input: Box::new(LogicalPlan::Aggregate {
            input: Box::new(scan("T")),
            items: vec![
                SelectItem::Expr { expr: col("K"), alias: None },
                SelectItem::Agg { func: AggFn::Count, arg: None, alias: None },
            ],
            group_by: vec![ColRef::bare("K")],
        }),
        keys: vec![(ColRef::bare("K"), false)],
    };
    // 3. Filtered projection with a computed column; the filter is pushed
    //    into the scan, so its selectivity bounds the factor (8×).
    let novel_plan = LogicalPlan::Project {
        input: Box::new(LogicalPlan::Filter {
            input: Box::new(scan("T")),
            pred: Expr::Bin {
                op: BinOp::Lt,
                lhs: Box::new(col("X")),
                rhs: Box::new(Expr::Number(5_000)),
            },
        }),
        items: vec![
            SelectItem::Expr { expr: col("K"), alias: None },
            SelectItem::Expr {
                expr: Expr::Bin {
                    op: BinOp::Add,
                    lhs: Box::new(col("X")),
                    rhs: Box::new(col("K")),
                },
                alias: Some("XK".to_owned()),
            },
        ],
    };

    println!("pipeline_replication — cost-model-chosen factor vs 1x\n");
    let workloads = [
        run_workload("scalar_sum", &sum_plan, &catalog, ROWS),
        run_workload("grouped_count", &group_plan, &catalog, ROWS),
        run_workload("filtered_projection", &novel_plan, &catalog, ROWS),
    ];
    for w in &workloads {
        println!(
            "  {:<20} {:>3}x ({:<12}) {:>9} cycles @1x, {:>9} cycles @chosen — {:.2}x",
            w.label,
            w.chosen_factor,
            w.limited_by,
            w.cycles_1x,
            w.cycles_chosen,
            w.speedup()
        );
    }

    let best_kernel_speedup =
        workloads.iter().map(Workload::speedup).fold(0.0f64, f64::max);
    println!(
        "\n  best workload speedup at chosen factor: {best_kernel_speedup:.2}x (gate: >= 2x)"
    );
    assert!(
        best_kernel_speedup >= 2.0,
        "cost-model-chosen replication must deliver >= 2x cycle throughput on a workload"
    );

    let mut json = String::from("{\n  \"bench\": \"pipeline_replication\",\n  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"label\": \"{}\", \"chosen_factor\": {}, \
             \"limited_by\": \"{}\", \"rows\": {}, \"cycles_1x\": {}, \
             \"cycles_chosen\": {}, \"speedup\": {:.2}}}",
            w.label,
            w.chosen_factor,
            w.limited_by,
            w.rows,
            w.cycles_1x,
            w.cycles_chosen,
            w.speedup()
        );
        json.push_str(if i + 1 < workloads.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(json, "  ],\n  \"best_kernel_speedup\": {best_kernel_speedup:.2}\n}}");
    let out = repo_root.join("BENCH_compile.json");
    std::fs::write(&out, &json).expect("write BENCH_compile.json");
    println!("\nsnapshot written to {}", out.display());
}
