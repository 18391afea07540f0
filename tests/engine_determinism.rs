//! Host-parallelism determinism: `run_batches` distributes independent
//! partition batches over worker threads, and the result must be
//! bit-identical regardless of the thread count — per-job results in input
//! order, statistics aggregated in batch order, same outputs byte for byte.

use genesis::core::accel::markdup::QualitySumAccel;
use genesis::core::accel::metadata::MetadataAccel;
use genesis::core::compile::Compiler;
use genesis::core::device::DeviceConfig;
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::sql::Catalog;
use genesis::types::{Column, DataType, Field, Schema, Table};

/// A device config small enough that `tiny` data still splits into several
/// partition batches, so the parallel path actually fans out.
fn device() -> DeviceConfig {
    DeviceConfig::small().with_pipelines(2).with_psize(4_000)
}

#[test]
fn metadata_thread_count_invariant() {
    let dataset = Dataset::generate(&DatagenConfig::tiny());
    let accel = |threads| MetadataAccel::new(device().with_host_threads(threads));
    let (tags_1, stats_1) = accel(1).run(&dataset.reads, &dataset.genome).unwrap();
    for threads in [2, 4, 8] {
        let (tags_n, stats_n) = accel(threads).run(&dataset.reads, &dataset.genome).unwrap();
        assert_eq!(tags_1, tags_n, "outputs diverged at {threads} host threads");
        assert_eq!(stats_1, stats_n, "stats diverged at {threads} host threads");
    }
}

#[test]
fn markdup_thread_count_invariant() {
    let dataset = Dataset::generate(&DatagenConfig::tiny());
    let run_1 = QualitySumAccel::new(device().with_host_threads(1))
        .run(&dataset.reads)
        .unwrap();
    let run_4 = QualitySumAccel::new(device().with_host_threads(4))
        .run(&dataset.reads)
        .unwrap();
    assert_eq!(run_1, run_4);
}

#[test]
fn group_count_thread_count_invariant() {
    let keys: Vec<u32> = (0..5_000u32).map(|i| i * 7 % 64).collect();
    let schema = Schema::new(vec![Field::new("K", DataType::U32)]);
    let mut catalog = Catalog::new();
    catalog.register("T", Table::from_columns(schema, vec![Column::U32(keys)]).unwrap());
    let run = |threads| {
        Compiler::new(device().with_host_threads(threads))
            .compile_sql("INSERT INTO O SELECT K, COUNT(*) FROM T GROUP BY K ORDER BY K", &catalog)
            .unwrap()
            .execute_replicated(&catalog, 2)
            .unwrap()
    };
    let (table_1, stats_1) = run(1);
    let (table_4, stats_4) = run(4);
    assert_eq!(table_1.num_rows(), 64);
    assert_eq!(table_1, table_4);
    assert_eq!(stats_1, stats_4);
}
