//! Quickstart: the paper's running example end-to-end.
//!
//! Generates a synthetic data set, expresses the "count matching bases"
//! operation as the Figure 4 extended-SQL script, maps its plan to
//! hardware modules, runs the hand-wired Figure 7 pipeline on the
//! cycle-level simulation, and checks the result against the software
//! oracle.
//!
//! Run with: `cargo run --release --example quickstart`

use genesis::core::accel::example::{count_matching_bases_sw, CountMatchingBases};
use genesis::core::compile::{explain, figure4_script, script_to_plan, Compiler};
use genesis::core::device::DeviceConfig;
use genesis::core::library::ModuleRegistry;
use genesis::sql::Catalog;
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::sql::parser::parse_script;
use genesis::sql::plan::lower_query;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic stand-in for the paper's Illumina data set.
    let cfg = DatagenConfig::small();
    println!(
        "generating {} reads x {} bp over {} chromosomes of {} bp ...",
        cfg.num_reads, cfg.read_len, cfg.num_chromosomes, cfg.chrom_len
    );
    let dataset = Dataset::generate(&cfg);

    // 2. The Figure 4 extended-SQL script.
    let script = figure4_script(0);
    println!("\n--- extended SQL (paper Figure 4) ---\n{script}\n");

    // 3. The logical plan of the inner query, node -> hardware module.
    let stmts = parse_script(&script)?;
    if let Some(genesis::sql::ast::Statement::ForLoop { body, .. }) =
        stmts.iter().find(|s| matches!(s, genesis::sql::ast::Statement::ForLoop { .. }))
    {
        if let Some(genesis::sql::ast::Statement::Insert { query, .. }) =
            body.iter().find(|s| matches!(s, genesis::sql::ast::Statement::Insert { .. }))
        {
            println!("--- logical plan of Q3 (module mapping, §III-D) ---");
            println!("{}", explain(&lower_query(query), &ModuleRegistry::with_builtins()));
        }
    }

    // 4. The whole script as one plan, node -> hardware module. The
    //    compiler does not lower this shape yet, and says where it stops:
    //    Figure 4 -> Figure 7 is the paper's manual mapping (§III-D),
    //    hand-wired in `accel::example` and run in step 5.
    let registry = ModuleRegistry::with_builtins();
    let plan = script_to_plan(&script, &registry)?;
    println!("--- logical plan of the whole script (module mapping) ---");
    println!("{}", explain(&plan, &registry));
    let gap = Compiler::new(DeviceConfig::default()).compile(&plan, &Catalog::new()).unwrap_err();
    println!("Figure 4 -> Figure 7 is the paper's manual mapping; the compiler stops at:\n  {gap}");
    println!();

    // 5. Run the simulated accelerator and verify against software.
    let device = DeviceConfig::from_env()?.with_pipelines(8).with_psize(250_000);
    let accel = CountMatchingBases::new(device.clone());
    let run = accel.run(&dataset.reads, &dataset.genome)?;
    let oracle = count_matching_bases_sw(&dataset.reads, &dataset.genome);
    assert_eq!(run.counts, oracle, "hardware result must match the software oracle");

    let total_bases: u64 = dataset.reads.iter().map(|r| u64::from(r.len())).sum();
    let matched: u64 = run.counts.iter().map(|&c| u64::from(c)).sum();
    println!("reads processed        : {}", dataset.reads.len());
    println!("bases processed        : {total_bases}");
    println!("bases matching ref     : {matched} ({:.2}%)", 100.0 * matched as f64 / total_bases as f64);
    println!("accelerator invocations: {}", run.stats.invocations);
    println!("simulated cycles       : {}", run.stats.cycles);
    println!("modeled accel time     : {:?}", device.cycles_to_time(run.stats.cycles));
    println!(
        "DMA                    : {} B in, {} B out",
        run.stats.dma_in_bytes, run.stats.dma_out_bytes
    );
    println!("\nhardware result == software oracle for all {} reads ✓", run.counts.len());
    Ok(())
}
