//! The paper's core claim, tested directly: the extended-SQL query (run
//! on the software engine) and the hand-mapped Figure 7 hardware pipeline
//! (run on the cycle-level simulator) produce the same answers.

use genesis::core::accel::example::CountMatchingBases;
use genesis::core::compile::{figure4_script, Compiler};
use genesis::core::device::DeviceConfig;
use genesis::core::CoreError;
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::sql::{Catalog, Script};
use genesis::types::table::{reads_to_table, ref_segment_to_table};
use genesis::types::{PartitionScheme, ReadRecord};

#[test]
fn figure4_sql_equals_figure7_hardware() {
    let cfg = DatagenConfig::tiny();
    let dataset = Dataset::generate(&cfg);
    let psize = 20_000u32;

    // --- Software side: run the Figure 4 script per partition. ---
    let scheme = PartitionScheme::new(psize, cfg.read_len);
    let parts = scheme.partition_reads(&dataset.reads);
    let mut sql_counts: Vec<(u32, u64)> = Vec::new(); // (read index, count)
    let compiler = Compiler::new(DeviceConfig::small());
    for part in &parts {
        let ref_part = scheme.reference_partition(&dataset.genome, part.pid).unwrap();
        let reads: Vec<ReadRecord> =
            part.read_indices.iter().map(|&i| dataset.reads[i as usize].clone()).collect();
        let mut cat = Catalog::new();
        cat.register_partition("READS", 0, reads_to_table(&reads).unwrap());
        let snp: Vec<bool> = ref_part.is_snp.iter().collect();
        cat.register_partition(
            "REF",
            0,
            ref_segment_to_table(part.pid.chrom.id(), ref_part.start, &ref_part.seq, &snp),
        );
        Script::parse(&figure4_script(0)).unwrap().run(&mut cat).unwrap();
        // Figure 4 → Figure 7 is the paper's manual mapping (§III-D): the
        // compiler does not lower the script's explode over a derived
        // stream or its mid-plan `LIMIT` window, and says so with a
        // structured error instead of returning a plan that cannot run.
        let err = compiler.compile_sql(&figure4_script(0), &cat).unwrap_err();
        assert!(matches!(err, CoreError::Unsupported { .. }), "got: {err}");
        let out = cat.table("Output").unwrap();
        assert_eq!(out.num_rows(), reads.len());
        for (row, &idx) in part.read_indices.iter().enumerate() {
            let v = out.get(row, "SUM").unwrap().as_u64().unwrap();
            sql_counts.push((idx, v));
        }
    }
    sql_counts.sort_unstable();

    // --- Hardware side: the hand-wired Figure 7 pipeline. ---
    let accel =
        CountMatchingBases::new(DeviceConfig::small().with_psize(psize));
    let run = accel.run(&dataset.reads, &dataset.genome).unwrap();

    assert_eq!(sql_counts.len(), run.counts.len());
    for (idx, sql_count) in sql_counts {
        assert_eq!(
            u64::from(run.counts[idx as usize]),
            sql_count,
            "read {idx}: SQL engine and hardware disagree"
        );
    }
}
