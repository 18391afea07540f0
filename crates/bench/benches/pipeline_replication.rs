//! Pipeline replication benchmark (`cargo bench --bench pipeline_replication`).
//!
//! Compiles three query shapes through the general plan→pipeline compiler,
//! lets the cost model pick the replication factor (paper Figure 8:
//! 16×/16×/8× for the three kernels), and compares simulated-cycle
//! throughput at the chosen factor against a single pipeline. Results are
//! snapshotted to `BENCH_compile.json`; the acceptance gate is a ≥2×
//! cycle-throughput improvement at the cost-model-chosen factor on at
//! least one workload.

use genesis_core::compile::{kernel_profile, CompiledKernel, Compiler};
use genesis_core::cost::{choose_replication, PipelineProfile, MAX_REPLICATION};
use genesis_hw::ResourceUsage;
use genesis_core::device::DeviceConfig;
use genesis_sql::ast::{AggFn, BinOp, ColRef, Expr, SelectItem};
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::{Column, DataType, Field, Schema, Table};
use std::fmt::Write as _;
use std::path::PathBuf;

struct Workload {
    label: &'static str,
    kernel: Option<String>,
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
        kernel: compiled.kernel().map(|k| format!("{k:?}")),
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

    // 1. Scalar reduction: matches the ColumnReduce fast path (16×).
    let sum_plan = LogicalPlan::Aggregate {
        input: Box::new(scan("T")),
        items: vec![SelectItem::Agg { func: AggFn::Sum, arg: Some(col("X")), alias: None }],
        group_by: vec![],
    };
    // 2. Grouped count: matches the GroupCount fast path (8×).
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
    // 3. A novel query outside the three seed shapes: filtered projection,
    //    lowered entirely by the general compiler.
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

    // Figure 8 cross-check: the pre-characterized kernel profiles and the
    // factors the cost model assigns them on the default memory system.
    let mem = DeviceConfig::default().mem;
    // The retired ColumnReduce fast path's pre-characterized profile, kept
    // inline so the Figure 8 factor stays pinned (the general path now
    // serves that shape at the same cycle count — see the
    // `column_reduce_retired_with_cycle_parity` test).
    let column_reduce_retired = PipelineProfile {
        read_port_bytes: vec![1],
        write_port_bytes: vec![],
        fabric: ResourceUsage { luts: 3_500, registers: 4_900, bram_bytes: 2_304 },
        expansion: 1.0,
        selectivity: 1.0,
    };
    let fig8: Vec<(&str, usize, String)> = [
        ("column_reduce (retired)", column_reduce_retired),
        ("count_matching_bases", kernel_profile(&CompiledKernel::CountMatchingBases)),
        (
            "group_count",
            kernel_profile(&CompiledKernel::GroupCount {
                table: "READS".into(),
                key: "POS".into(),
            }),
        ),
    ]
    .into_iter()
    .map(|(label, profile)| {
        let c = choose_replication(&profile, &mem, MAX_REPLICATION);
        (label, c.factor, format!("{:?}", c.limited_by))
    })
    .collect();
    println!("\n  figure 8 factors:");
    for (label, factor, limit) in &fig8 {
        println!("    {label:<22} {factor:>3}x (limited by {limit})");
    }

    // With the ColumnReduce fast path retired, every shape here rides the
    // general compile path, so the gate covers all workloads.
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
        let kernel = w
            .kernel
            .as_ref()
            .map_or("null".to_owned(), |k| format!("\"{}\"", k.replace('"', "'")));
        let _ = write!(
            json,
            "    {{\"label\": \"{}\", \"kernel\": {}, \"chosen_factor\": {}, \
             \"limited_by\": \"{}\", \"rows\": {}, \"cycles_1x\": {}, \
             \"cycles_chosen\": {}, \"speedup\": {:.2}}}",
            w.label,
            kernel,
            w.chosen_factor,
            w.limited_by,
            w.rows,
            w.cycles_1x,
            w.cycles_chosen,
            w.speedup()
        );
        json.push_str(if i + 1 < workloads.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"figure8_factors\": {\n");
    for (i, (label, factor, limit)) in fig8.iter().enumerate() {
        let _ = write!(json, "    \"{label}\": {{\"factor\": {factor}, \"limited_by\": \"{limit}\"}}");
        json.push_str(if i + 1 < fig8.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(
        json,
        "  }},\n  \"best_kernel_speedup\": {best_kernel_speedup:.2}\n}}"
    );
    let out = repo_root.join("BENCH_compile.json");
    std::fs::write(&out, &json).expect("write BENCH_compile.json");
    println!("\nsnapshot written to {}", out.display());
}
