//! Genomics-workload benchmark (`cargo bench --bench workloads`).
//!
//! The two workloads opened by lowering the explode operators through the
//! general compiler — per-position coverage/pileup (grouped aggregate
//! over `ReadExplode`) and mate-distance histograms (`PosExplode` + join)
//! — plus a selective scan with pushdown on and off, compiled from
//! extended SQL and run at the cost-model-chosen replication factor
//! (`genesis_bench::scenarios::genomics_workloads`). Median-of-three wall
//! clock. Snapshot: `BENCH_workloads.json`, whose modeled rows
//! `tests/golden.rs` regenerates.

use genesis_bench::scenarios::{genomics_catalog, genomics_workloads, GenomicsWorkload};
use genesis_bench::snapshot::{self, Row, Value};
use std::time::Instant;

fn main() {
    let cat = genomics_catalog();
    println!("workloads — genomics shapes through the general compiler\n");

    let mut rows = Vec::new();
    let mut pushdown = Vec::new();
    for w in genomics_workloads() {
        let plan = w.compile(&cat);
        let mut runs: Vec<_> = (0..3)
            .map(|_| {
                let start = Instant::now();
                let run = GenomicsWorkload::execute(&plan, &cat);
                (start.elapsed(), run)
            })
            .collect();
        runs.sort_by_key(|(wall, _)| *wall);
        let (wall, run) = runs.swap_remove(1);
        let mflits = run.stats.total_flits as f64 / wall.as_secs_f64() / 1e6;
        println!(
            "  {:<18} {:>2}x {:>9} cycles {:>9} flits {:>6} rows {:>8.1} ms  {:>8.2} Mflit/s",
            w.label,
            run.factor,
            run.stats.cycles,
            run.stats.total_flits,
            run.out_rows,
            wall.as_secs_f64() * 1e3,
            mflits
        );
        rows.extend(w.modeled_rows(&run));
        rows.push(Row::wall(w.label, "wall_ms", Value::Fixed(wall.as_secs_f64() * 1e3, 1)));
        rows.push(Row::wall(w.label, "mflits_per_sec", Value::Fixed(mflits, 2)));
        if w.label.starts_with("pushdown") {
            pushdown.push(run);
        }
    }
    let [on, off] = &pushdown[..] else { panic!("two pushdown rows") };
    assert_eq!(on.out_rows, off.out_rows, "pushdown must not change the result");
    assert!(
        on.factor < off.factor,
        "a ~10%-selective pushed scan must choose strictly fewer replicas \
         (on {}x vs off {}x)",
        on.factor,
        off.factor
    );
    snapshot::emit("workloads", "BENCH_workloads.json", &rows);
}
