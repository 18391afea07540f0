//! Regenerates the paper's pipeline diagrams (Figures 10, 11, 12) as
//! Graphviz dot from the actual constructed hardware — the wiring printed
//! here is the wiring the simulator executes — and Figure 7 as the
//! compiled Figure 4 script's node → module mapping.
//!
//! Run with: `cargo run --release --example pipeline_graphs > pipelines.dot`
//! then e.g. `dot -Tsvg -O pipelines.dot`.

use genesis::core::accel::bqsr::BqsrAccel;
use genesis::core::accel::markdup::QualitySumAccel;
use genesis::core::accel::metadata::MetadataAccel;
use genesis::core::compile::{figure4_script, Compiler};
use genesis::core::device::DeviceConfig;
use genesis::datagen::{DatagenConfig, Dataset};
use genesis_bench::scenarios::figure4_partitions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny dataset gives the builders real jobs to wire up. One pipeline
    // instance keeps the graphs readable.
    let mut cfg = DatagenConfig::tiny();
    cfg.num_reads = 20;
    let dataset = Dataset::generate(&cfg);
    let device = DeviceConfig::small().with_pipelines(1);

    // Figure 7 is compiled, not hand-wired: its mapping goes to stderr so
    // stdout stays one dot file.
    let partition = &figure4_partitions(&dataset, 20_000)[0].1;
    let figure7 = Compiler::new(device.clone()).compile_sql(figure4_script(), partition)?;
    eprintln!("--- Figure 7 — example query (count matching bases), compiled ---");
    eprint!("{}", figure7.explain());

    // Each accelerator exposes its system via a probe run; we rebuild the
    // systems and print before simulating (the graph is wiring, not state).
    let graphs: Vec<(String, String)> = vec![
        (
            "Figure 10 — Mark Duplicates (quality-sum offload)".into(),
            QualitySumAccel::new(device.clone()).dot_graph(&dataset.reads)?,
        ),
        (
            "Figure 11 — Metadata Update (NM/MD/UQ)".into(),
            MetadataAccel::new(device.clone()).dot_graph(&dataset.reads, &dataset.genome)?,
        ),
        (
            "Figure 12 — BQSR covariate table construction".into(),
            BqsrAccel::new(device, cfg.read_len).dot_graph(&dataset.reads, &dataset.genome)?,
        ),
    ];
    for (title, dot) in graphs {
        eprintln!("--- {title} ---");
        println!("{dot}");
    }
    Ok(())
}
