//! # genesis-bench
//!
//! The benchmark harness: one binary per paper figure/table (DESIGN.md §4)
//! plus Criterion micro-benchmarks, sharing data-set scales and reporting
//! helpers from this library.
//!
//! Scale selection: set `GENESIS_SCALE` to `tiny`, `small`, `medium`
//! (default) or `large`. All harness binaries honor it.

#![warn(missing_docs)]

pub mod load;
pub mod scenarios;
pub mod snapshot;

use genesis_core::accel::bqsr::{accelerated_bqsr_table, BqsrAccel};
use genesis_core::accel::markdup::{accelerated_mark_duplicates, QualitySumAccel};
use genesis_core::accel::metadata::{accelerated_metadata_update, MetadataAccel};
use genesis_core::device::DeviceConfig;
use genesis_core::env::GenesisEnv;
use genesis_core::perf::{AccelStats, Breakdown};
use genesis_datagen::{DatagenConfig, Dataset};
use genesis_gatk::bqsr::build_covariate_table;
use genesis_gatk::markdup::mark_duplicates;
use genesis_gatk::metadata::set_nm_md_uq_tags;
use genesis_hw::resource::{VU9P_BRAM_BYTES, VU9P_LUTS, VU9P_REGISTERS};
use std::time::{Duration, Instant};

/// Measures `f` three times and returns the minimum — robust against
/// scheduler noise on shared machines.
fn best_of_3<R>(mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best: Option<(Duration, R)> = None;
    for _ in 0..3 {
        let t = Instant::now();
        let r = f();
        let d = t.elapsed();
        match &best {
            Some((b, _)) if *b <= d => {}
            _ => best = Some((d, r)),
        }
    }
    best.expect("three runs happened")
}

/// Returns the experiment data-set configuration for the selected scale.
#[must_use]
pub fn scale_config() -> DatagenConfig {
    let scale = std::env::var("GENESIS_SCALE").unwrap_or_else(|_| "medium".to_owned());
    match scale.as_str() {
        "tiny" => DatagenConfig::tiny(),
        "small" => DatagenConfig::small(),
        "large" => DatagenConfig {
            num_chromosomes: 4,
            chrom_len: 2_000_000,
            num_reads: 200_000,
            ..DatagenConfig::default()
        },
        _ => DatagenConfig {
            num_chromosomes: 4,
            chrom_len: 1_000_000,
            num_reads: 100_000,
            ..DatagenConfig::default()
        },
    }
}

/// The harness's base device: the F1-like defaults plus whatever the
/// `GENESIS_*` environment asks for. A malformed variable prints the error
/// and the knob reference, then exits non-zero.
#[must_use]
pub fn env_device() -> DeviceConfig {
    DeviceConfig::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{}", GenesisEnv::help());
        std::process::exit(2);
    })
}

/// The paper's device configurations per stage (§V-A: 16×/16×/8×
/// pipelines). Partition windows are scaled down from the paper's 1 Mbp in
/// proportion to our scaled-down genome, so the number of partitions stays
/// well above the pipeline count and the replicated pipelines actually
/// fill — the same partitions ≫ pipelines regime the paper's 3 Gbp / 1 Mbp
/// configuration operates in (see EXPERIMENTS.md).
#[must_use]
pub fn device_for(stage: Stage) -> DeviceConfig {
    match stage {
        Stage::MarkDuplicates => env_device().with_pipelines(16),
        Stage::MetadataUpdate => env_device().with_pipelines(16).with_psize(125_000),
        Stage::BqsrTable => env_device().with_pipelines(8).with_psize(125_000),
    }
}

/// The three accelerated stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// §IV-B.
    MarkDuplicates,
    /// §IV-C.
    MetadataUpdate,
    /// §IV-D (covariate table construction).
    BqsrTable,
}

impl Stage {
    /// Paper row label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stage::MarkDuplicates => "Mark Duplicates",
            Stage::MetadataUpdate => "Metadata Update",
            Stage::BqsrTable => "BQSR (Table Construction)",
        }
    }
}

/// Measured comparison of one stage: software baseline vs Genesis.
#[derive(Debug, Clone)]
pub struct StageComparison {
    /// Which stage.
    pub stage: Stage,
    /// Single-thread software baseline time.
    pub baseline: Duration,
    /// Accelerated-stage breakdown.
    pub breakdown: Breakdown,
    /// Accelerator statistics.
    pub stats: AccelStats,
}

impl StageComparison {
    /// Speedup over the single-thread baseline.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.breakdown.speedup_over(self.baseline)
    }
}

/// Measures all three stages on (a copy of) the data set. The input reads
/// are preprocessed in stage order (markdup output feeds metadata, etc.),
/// matching the paper's per-stage measurement points.
///
/// # Panics
///
/// Panics on simulation failure (the harness treats that as fatal).
#[must_use]
pub fn measure_stages(dataset: &Dataset) -> Vec<StageComparison> {
    // Before any measurement, so a malformed knob stops the run at once.
    let [markdup_dev, metadata_dev, bqsr_dev] =
        [Stage::MarkDuplicates, Stage::MetadataUpdate, Stage::BqsrTable].map(device_for);
    let mut out = Vec::new();

    // --- Mark Duplicates ---
    let mut sw = dataset.reads.clone();
    let (base_md, sw_report) = best_of_3(|| {
        sw = dataset.reads.clone();
        mark_duplicates(&mut sw)
    });
    let mut hw = dataset.reads.clone();
    let md = accelerated_mark_duplicates(&mut hw, &markdup_dev).expect("markdup accel");
    assert_eq!(md.report, sw_report, "markdup outputs must agree");
    out.push(StageComparison {
        stage: Stage::MarkDuplicates,
        baseline: base_md,
        breakdown: md.breakdown,
        stats: md.stats,
    });

    // --- Metadata Update (on the sorted, duplicate-marked reads) ---
    let mut sw_meta = sw.clone();
    let (base_meta, _) = best_of_3(|| {
        sw_meta = sw.clone();
        set_nm_md_uq_tags(&mut sw_meta, &dataset.genome).expect("sw metadata")
    });
    let mut hw_meta = sw.clone();
    let meta = accelerated_metadata_update(&mut hw_meta, &dataset.genome, &metadata_dev)
        .expect("metadata accel");
    out.push(StageComparison {
        stage: Stage::MetadataUpdate,
        baseline: base_meta,
        breakdown: meta.breakdown,
        stats: meta.stats,
    });

    // --- BQSR covariate table construction ---
    let (base_bqsr, sw_table) = best_of_3(|| {
        build_covariate_table(
            &sw_meta,
            &dataset.genome,
            dataset.config.read_groups,
            dataset.config.read_len,
        )
    });
    let bq = accelerated_bqsr_table(
        &sw_meta,
        &dataset.genome,
        dataset.config.read_groups,
        dataset.config.read_len,
        &bqsr_dev,
    )
    .expect("bqsr accel");
    assert_eq!(bq.table, sw_table, "covariate tables must agree");
    out.push(StageComparison {
        stage: Stage::BqsrTable,
        baseline: base_bqsr,
        breakdown: bq.breakdown,
        stats: bq.stats,
    });
    out
}

/// Table IV: FPGA resource usage of the three accelerators on the VU9P,
/// from the analytical resource model (DESIGN.md §2) — the text of
/// `results/table4_resources.txt`.
///
/// # Panics
///
/// Panics if the BQSR design no longer fits the VU9P.
#[must_use]
pub fn table4_resources() -> String {
    // Table IV documents the full-scale deployment: the paper's pipeline
    // counts with 1 Mbp partition windows (BQSR uses a smaller window —
    // its four count buffers per pipeline compete for BRAM).
    let markdup_cfg = DeviceConfig::default().with_pipelines(16);
    let metadata_cfg = DeviceConfig::default().with_pipelines(16).with_psize(1_000_000);
    let bqsr_cfg = DeviceConfig::default().with_pipelines(8).with_psize(250_000);
    let bqsr = BqsrAccel::new(bqsr_cfg.clone(), 151).resource_report();
    assert!(bqsr.fits(), "BQSR design must fit the VU9P");
    format!(
        "Table IV — FPGA resource usage of Genesis (analytical model):\n\n\
         device: Xilinx Virtex UltraScale+ VU9P — {VU9P_LUTS} LUTs, {VU9P_REGISTERS} registers, \
         {:.2} MB BRAM\n\n\
         Mark Duplicates ({}x pipelines):\n{}\n\n\
         \x20 paper: 228K LUTs (25.4%), 272K regs (15.2%), 0.34MB BRAM (4.6%)\n\n\
         Metadata Update ({}x pipelines, {} bp partitions):\n{}\n\n\
         \x20 paper: 333K LUTs (37.2%), 424K regs (23.7%), 4.95MB BRAM (65.5%)\n\n\
         Base Quality Score Recalibration ({}x pipelines, {} bp partitions):\n{bqsr}\n\n\
         \x20 paper: 502K LUTs (56.1%), 257K regs (14.4%), 1.69MB BRAM (22.4%)\n\n\
         all three designs fit the VU9P with headroom — the paper's\n\
         under-utilization observation enabling multi-accelerator placement (§V-B).\n",
        VU9P_BRAM_BYTES as f64 / 1e6,
        markdup_cfg.pipelines,
        QualitySumAccel::new(markdup_cfg.clone()).resource_report(),
        metadata_cfg.pipelines,
        metadata_cfg.psize,
        MetadataAccel::new(metadata_cfg.clone()).resource_report(),
        bqsr_cfg.pipelines,
        bqsr_cfg.psize,
    )
}

/// Formats a duration in engineering style.
#[must_use]
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.0} µs", s * 1e6)
    }
}

/// Prints a simple aligned table: header row then rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(headers.iter().map(|s| (*s).to_owned()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Prints a horizontal percentage bar of labeled fractions.
pub fn print_fraction_bar(title: &str, fractions: &[(&str, f64)]) {
    println!("  {title}");
    for (label, f) in fractions {
        let width = (f * 50.0).round() as usize;
        println!("    {label:<38} {:>5.1}% |{}|", f * 100.0, "#".repeat(width));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_resolve() {
        std::env::remove_var("GENESIS_SCALE");
        let cfg = scale_config();
        assert!(cfg.num_reads >= 1000);
    }

    #[test]
    fn fmt_dur_ranges() {
        assert!(fmt_dur(Duration::from_secs(2)).ends_with(" s"));
        assert!(fmt_dur(Duration::from_millis(5)).ends_with(" ms"));
        assert!(fmt_dur(Duration::from_micros(7)).ends_with(" µs"));
    }

    #[test]
    fn stages_measure_on_tiny_data() {
        std::env::set_var("GENESIS_SCALE", "tiny");
        let mut cfg = DatagenConfig::tiny();
        cfg.num_reads = 200;
        let dataset = Dataset::generate(&cfg);
        let comparisons = measure_stages(&dataset);
        assert_eq!(comparisons.len(), 3);
        for c in &comparisons {
            assert!(c.stats.cycles > 0, "{:?} has no cycles", c.stage);
        }
        std::env::remove_var("GENESIS_SCALE");
    }
}
