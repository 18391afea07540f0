//! The Mark Duplicates accelerator (paper §IV-B, Figure 10): offloads the
//! per-read sum-of-quality-scores computation; duplicate-set resolution
//! stays on the host.

use crate::device::{run_batches_with_oracle, split_ranges, SystemPool};
use crate::builder::PipelineBuilder;
use crate::columns::bytes_to_u64;
use crate::device::DeviceConfig;
use crate::error::CoreError;
use crate::perf::{AccelStats, Breakdown};
use genesis_gatk::markdup::{mark_duplicates_with_sums, MarkDupReport};
use genesis_hw::modules::reducer::{ReduceOp, Reducer};
use genesis_types::ReadRecord;
use std::time::Instant;

/// The quality-sum offload: Memory Reader → Reducer(SUM) → Memory Writer
/// (Figure 10), replicated across pipelines.
#[derive(Debug, Clone)]
pub struct QualitySumAccel {
    cfg: DeviceConfig,
}

/// Result of the offloaded computation.
#[derive(Debug, Clone, PartialEq)]
pub struct QualitySumRun {
    /// One quality sum per read, in input order.
    pub sums: Vec<u64>,
    /// Aggregate accelerator statistics.
    pub stats: AccelStats,
}

#[derive(Debug)]
struct Job {
    qual: Vec<u8>,
    lens: Vec<u32>,
}

impl Job {
    /// The quality scores of `reads`, concatenated, with each read's length.
    fn of(reads: &[ReadRecord]) -> Job {
        Job {
            qual: reads.iter().flat_map(|rd| rd.qual.iter().map(|q| q.value())).collect(),
            lens: reads.iter().map(|rd| rd.len()).collect(),
        }
    }
}

struct Handles {
    out_addr: u64,
    n_reads: usize,
}

impl QualitySumAccel {
    /// Creates the accelerator on a device configuration.
    #[must_use]
    pub fn new(cfg: DeviceConfig) -> QualitySumAccel {
        QualitySumAccel { cfg }
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Analytical FPGA resource usage of the full replicated design
    /// (paper Table IV row "Mark Duplicates").
    #[must_use]
    pub fn resource_report(&self) -> genesis_hw::ResourceReport {
        let job = Job { qual: vec![0; 4], lens: vec![4] };
        let mut sys = genesis_hw::System::with_memory(self.cfg.mem.clone());
        for group in 0..self.cfg.pipelines {
            let _ = Self::build(&mut sys, group as u32, &job);
        }
        sys.resource_report()
    }

    /// Builds the Figure 10 pipeline for one job.
    fn build(sys: &mut genesis_hw::System, group: u32, job: &Job) -> Handles {
        let mut b = PipelineBuilder::new(sys, group);
        let rows = PipelineBuilder::rows_from_lens(&job.lens);
        let q = b.upload_column("READS.QUAL", &job.qual, 1, rows);
        let sums_q = b.queue("sums");
        let (_, out_addr) = b.writer("sums.out", sums_q, 8, job.lens.len() * 8);
        sys.add_module(Box::new(Reducer::new("sum", ReduceOp::Sum, 0, q, sums_q)));
        Handles { out_addr, n_reads: job.lens.len() }
    }

    /// Renders the Figure 10 pipeline wiring (one instance) as Graphviz dot.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Table`] on malformed reads.
    pub fn dot_graph(&self, reads: &[ReadRecord]) -> Result<String, CoreError> {
        let mut sys = genesis_hw::System::with_memory(self.cfg.mem.clone());
        let _ = Self::build(&mut sys, 0, &Job::of(&reads[..reads.len().min(4)]));
        Ok(sys.to_dot("Mark Duplicates pipeline (Figure 10)"))
    }

    /// Computes the per-read quality sums on the simulated accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Sim`] on simulation failure.
    pub fn run(&self, reads: &[ReadRecord]) -> Result<QualitySumRun, CoreError> {
        let ranges = split_ranges(reads.len(), self.cfg.pipelines);
        let jobs: Vec<Job> = ranges.iter().map(|r| Job::of(&reads[r.clone()])).collect();
        let mut dma_in = 0u64;
        let mut dma_out = 0u64;
        let mut transfers = 0u64;
        for j in &jobs {
            dma_in += j.qual.len() as u64 + j.lens.len() as u64 * 4;
            dma_out += j.lens.len() as u64 * 8;
            transfers += 2;
        }
        let (chunks, mut stats) = run_batches_with_oracle(
            &self.cfg,
            &SystemPool::default(),
            0,
            &jobs,
            |sys, group, job| Ok(Self::build(sys, group, job)),
            |sys, h, _| Ok(bytes_to_u64(sys.host_read(h.out_addr, h.n_reads * 8))),
            // Software oracle for graceful degradation: the same per-read
            // quality sums computed directly from the job payload.
            Some(|_, job: &Job| {
                let mut sums = Vec::with_capacity(job.lens.len());
                let mut offset = 0usize;
                for &len in &job.lens {
                    let end = offset + len as usize;
                    sums.push(job.qual[offset..end].iter().map(|&q| u64::from(q)).sum());
                    offset = end;
                }
                Ok(sums)
            }),
        )?;
        stats.dma_in_bytes = dma_in;
        stats.dma_out_bytes = dma_out;
        stats.dma_transfers = transfers;
        let sums: Vec<u64> = chunks.into_iter().flatten().collect();
        debug_assert_eq!(sums.len(), reads.len());
        Ok(QualitySumRun { sums, stats })
    }
}

/// Outcome of the full accelerated Mark Duplicates stage.
#[derive(Debug)]
pub struct MarkdupStageResult {
    /// The stage report (identical to the software stage's).
    pub report: MarkDupReport,
    /// Wall-clock breakdown (Figure 13(b)).
    pub breakdown: Breakdown,
    /// Accelerator statistics.
    pub stats: AccelStats,
}

/// Runs the accelerated Mark Duplicates stage: quality sums on the
/// accelerator, duplicate resolution and sorting on the host (paper
/// §IV-B: "the host core simply utilizes these sums of quality scores to
/// determine duplicate reads").
///
/// # Errors
///
/// Returns [`CoreError`] on simulation failure.
pub fn accelerated_mark_duplicates(
    reads: &mut [ReadRecord],
    cfg: &DeviceConfig,
) -> Result<MarkdupStageResult, CoreError> {
    let accel = QualitySumAccel::new(cfg.clone());
    let run = accel.run(reads)?;
    let host_start = Instant::now();
    let report = mark_duplicates_with_sums(reads, &run.sums);
    let host = host_start.elapsed();
    let breakdown = Breakdown {
        host,
        dma: cfg
            .dma
            .transfer_time(run.stats.dma_in_bytes + run.stats.dma_out_bytes, run.stats.dma_transfers),
        accel: cfg.cycles_to_time(run.stats.cycles),
    };
    Ok(MarkdupStageResult { report, breakdown, stats: run.stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis_datagen::{DatagenConfig, Dataset};
    use genesis_gatk::markdup::{mark_duplicates, quality_sums};

    #[test]
    fn accelerated_sums_match_software() {
        let dataset = Dataset::generate(&DatagenConfig::tiny());
        let accel = QualitySumAccel::new(DeviceConfig::small());
        let run = accel.run(&dataset.reads).unwrap();
        assert_eq!(run.sums, quality_sums(&dataset.reads));
        assert!(run.stats.cycles > 0);
        assert!(run.stats.dma_in_bytes > 0);
    }

    #[test]
    fn accelerated_stage_matches_software_stage() {
        let dataset = Dataset::generate(&DatagenConfig::tiny());
        let mut sw = dataset.reads.clone();
        let sw_report = mark_duplicates(&mut sw);
        let mut hw = dataset.reads.clone();
        let result =
            accelerated_mark_duplicates(&mut hw, &DeviceConfig::small()).unwrap();
        assert_eq!(result.report, sw_report);
        assert_eq!(sw, hw, "duplicate flags and order must match software");
        assert!(result.breakdown.total().as_nanos() > 0);
    }

    #[test]
    fn pipeline_count_bounds_batches() {
        let dataset = Dataset::generate(&DatagenConfig::tiny());
        let cfg = DeviceConfig::small().with_pipelines(2);
        let run = QualitySumAccel::new(cfg).run(&dataset.reads).unwrap();
        assert_eq!(run.stats.invocations, 1, "2 jobs fit one batch of 2 pipelines");
        assert_eq!(run.sums.len(), dataset.reads.len());
    }
}
