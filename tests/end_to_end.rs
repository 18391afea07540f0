//! End-to-end integration: the full GATK4-analog preprocessing pipeline
//! run in pure software versus the same stages with every Genesis
//! accelerator substituted — identical outputs required.

use genesis::core::accel::bqsr::accelerated_bqsr_table;
use genesis::core::accel::markdup::accelerated_mark_duplicates;
use genesis::core::accel::metadata::accelerated_metadata_update;
use genesis::core::device::DeviceConfig;
use genesis::datagen::{DatagenConfig, Dataset};
use genesis::gatk::bqsr::{apply_recalibration, build_covariate_table_parallel, CovariateTable};
use genesis::gatk::metadata::{set_nm_md_uq_tags_parallel, MetadataReport};
use genesis::gatk::{PipelineReport, PreprocessingPipeline};

fn small_device() -> DeviceConfig {
    DeviceConfig::small()
}

fn run_software(dataset: &Dataset) -> (Vec<genesis::types::ReadRecord>, PipelineReport) {
    let mut reads = dataset.reads.clone();
    let pipeline =
        PreprocessingPipeline::new(dataset.config.read_groups, dataset.config.read_len);
    let report = pipeline.run(&mut reads, &dataset.genome).unwrap();
    (reads, report)
}

#[test]
fn accelerated_pipeline_equals_software_pipeline() {
    let dataset = Dataset::generate(&DatagenConfig::tiny());
    let (sw_reads, sw_report) = run_software(&dataset);

    // Accelerated flow: markdup (accel sums) → metadata (accel tags) →
    // BQSR table (accel) → recalibration (host software).
    let cfg = small_device();
    let mut hw_reads = dataset.reads.clone();
    let md = accelerated_mark_duplicates(&mut hw_reads, &cfg).unwrap();
    assert_eq!(md.report, sw_report.markdup);

    accelerated_metadata_update(&mut hw_reads, &dataset.genome, &cfg).unwrap();

    let bqsr = accelerated_bqsr_table(
        &hw_reads,
        &dataset.genome,
        dataset.config.read_groups,
        dataset.config.read_len,
        &cfg,
    )
    .unwrap();
    assert_eq!(
        bqsr.table, sw_report.covariates,
        "accelerated covariate table must equal the software pipeline's"
    );
    let _ = apply_recalibration(&mut hw_reads, &dataset.genome, &bqsr.table);

    assert_eq!(sw_reads.len(), hw_reads.len());
    for (s, h) in sw_reads.iter().zip(&hw_reads) {
        assert_eq!(s, h, "record diverged: {}", s.name);
    }
}

#[test]
fn pipeline_timings_are_all_nonzero() {
    let dataset = Dataset::generate(&DatagenConfig::tiny());
    let (_, report) = run_software(&dataset);
    let t = report.timings;
    assert!(t.mark_duplicates.as_nanos() > 0);
    assert!(t.metadata_update.as_nanos() > 0);
    assert!(t.bqsr_table.as_nanos() > 0);
    assert!(t.bqsr_update.as_nanos() > 0);
    let fr: f64 = t.fractions().iter().map(|(_, f)| f).sum();
    assert!((fr - 1.0).abs() < 1e-9);
}

#[test]
fn per_chromosome_runs_compose_to_whole_genome() {
    // The Figure 13(c)/(d) per-chromosome methodology: running the
    // metadata accelerator chromosome-by-chromosome gives the same tags
    // as one whole-genome run.
    let dataset = Dataset::generate(&DatagenConfig::tiny());
    let cfg = small_device();

    let mut whole = dataset.reads.clone();
    accelerated_metadata_update(&mut whole, &dataset.genome, &cfg).unwrap();

    let mut per_chrom = dataset.reads.clone();
    for chrom in dataset.genome.iter() {
        let mut subset: Vec<genesis::types::ReadRecord> = per_chrom
            .iter()
            .filter(|r| r.chr == chrom.chrom)
            .cloned()
            .collect();
        accelerated_metadata_update(&mut subset, &dataset.genome, &cfg).unwrap();
        let mut it = subset.into_iter();
        for r in per_chrom.iter_mut().filter(|r| r.chr == chrom.chrom) {
            *r = it.next().unwrap();
        }
    }
    assert_eq!(whole, per_chrom);
}

#[test]
fn parallel_software_stages_accept_no_reads() {
    let dataset = Dataset::generate(&DatagenConfig::tiny());
    let report = set_nm_md_uq_tags_parallel(&mut [], &dataset.genome, 4).unwrap();
    assert_eq!(report, MetadataReport::default());
    let table = build_covariate_table_parallel(&[], &dataset.genome, 4, 151, 4);
    assert_eq!(table, CovariateTable::new(4, 151));
}
