//! Pipeline replication benchmark (`cargo bench --bench pipeline_replication`).
//!
//! Compiles three query shapes through the plan→pipeline compiler, lets
//! the cost model pick the replication factor (paper Figure 8), and
//! compares simulated cycles at the chosen factor against a single
//! pipeline (`genesis_bench::scenarios::replication_workloads`). Every
//! value is modeled, so `BENCH_compile.json` regenerates byte-identically
//! and `tests/golden.rs` holds it; the gate is a ≥2× cycle-throughput
//! improvement at the cost-model-chosen factor on at least one workload.

use genesis_bench::scenarios::{replication_rows, replication_workloads, Replication};
use genesis_bench::snapshot;

fn main() {
    println!("pipeline_replication — cost-model-chosen factor vs 1x\n");
    let workloads = replication_workloads();
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
    let best = workloads.iter().map(Replication::speedup).fold(0.0f64, f64::max);
    println!("\n  best workload speedup at chosen factor: {best:.2}x (gate: >= 2x)");
    assert!(
        best >= 2.0,
        "cost-model-chosen replication must deliver >= 2x cycle throughput on a workload"
    );
    snapshot::emit("pipeline_replication", "BENCH_compile.json", &replication_rows(&workloads));
}
