//! The paper's running example (Figures 4, 5 and 7): count, for every
//! read, the number of bases matching the reference.

use crate::accel::frontend::{build_frontend, make_partition_jobs, JobOptions, PartitionJob};
use crate::accel::run_batches;
use crate::builder::PipelineBuilder;
use crate::columns::bytes_to_u32;
use crate::device::DeviceConfig;
use crate::error::CoreError;
use crate::perf::AccelStats;
use genesis_hw::modules::filter::{CmpOp, Filter, Predicate};
use genesis_hw::modules::joiner::{JoinKind, Joiner};
use genesis_hw::modules::reducer::{ReduceOp, Reducer};
use genesis_types::{ReadRecord, ReferenceGenome};

/// The Figure 7 pipeline: front end → inner Joiner → Filter
/// (read bp == ref bp) → Reducer(COUNT) → Memory Writer.
#[derive(Debug, Clone)]
pub struct CountMatchingBases {
    cfg: DeviceConfig,
}

/// Result of a [`CountMatchingBases`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct CountRun {
    /// Matching-base count per read, aligned with the input read order.
    pub counts: Vec<u32>,
    /// Aggregate accelerator statistics.
    pub stats: AccelStats,
}

struct Handles {
    out_addr: u64,
    n_reads: usize,
}

impl CountMatchingBases {
    /// Creates the accelerator.
    #[must_use]
    pub fn new(cfg: DeviceConfig) -> CountMatchingBases {
        CountMatchingBases { cfg }
    }

    /// Builds the Figure 7 pipeline for one job; returns result handles.
    fn build(sys: &mut genesis_hw::System, group: u32, job: &PartitionJob) -> Handles {
        let mut b = PipelineBuilder::new(sys, group);
        let fe = build_frontend(&mut b, job, false);
        let joined = b.queue("joined");
        let matched = b.queue("matched");
        let counts = b.queue("counts");
        let (_, out_addr) = b.writer("counts.out", counts, 4, job.read_indices.len() * 4);
        let sys = b.system();
        // bases: [pos, bp, qual, idx] (3 data fields); refs: [pos, refbp].
        sys.add_module(Box::new(Joiner::new(
            "join",
            JoinKind::Inner,
            fe.bases,
            fe.refs,
            joined,
            3,
            1,
        )));
        // joined: [pos, bp, qual, idx, refbp] — keep matching bases.
        sys.add_module(Box::new(Filter::new(
            "match",
            Predicate::fields(1, CmpOp::Eq, 4),
            joined,
            matched,
        )));
        sys.add_module(Box::new(Reducer::new("count", ReduceOp::Count, 0, matched, counts)));
        Handles { out_addr, n_reads: job.read_indices.len() }
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
        let jobs = make_partition_jobs(reads, genome, self.cfg.psize, JobOptions::default())?;
        let job = jobs
            .into_iter()
            .next()
            .ok_or_else(|| CoreError::Host("no partition jobs to draw".into()))?;
        let mut sys = genesis_hw::System::with_memory(self.cfg.mem.clone());
        let _ = Self::build(&mut sys, 0, &job);
        Ok(sys.to_dot("Example query pipeline (Figure 7)"))
    }

    /// Runs the example query over all reads, one invocation per
    /// partition, and scatters per-read counts back to input order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on marshalling or simulation failure.
    pub fn run(
        &self,
        reads: &[ReadRecord],
        genome: &ReferenceGenome,
    ) -> Result<CountRun, CoreError> {
        let jobs = make_partition_jobs(reads, genome, self.cfg.psize, JobOptions::default())?;
        let mut dma_in = 0u64;
        for j in &jobs {
            dma_in += j.dma_in_bytes();
        }
        let (outs, mut stats) = run_batches(
            &self.cfg,
            0,
            &jobs,
            |sys, group, job| Ok(Self::build(sys, group, job)),
            |sys, h, _| Ok(bytes_to_u32(&sys.host_read(h.out_addr, h.n_reads * 4))),
        )?;
        stats.dma_in_bytes = dma_in;
        stats.dma_out_bytes = reads.len() as u64 * 4;
        stats.dma_transfers = jobs.len() as u64 * 2; // scatter-gather DMA: one batched transfer each way
        let mut counts = vec![0u32; reads.len()];
        for (job, out) in jobs.iter().zip(&outs) {
            if out.len() != job.read_indices.len() {
                return Err(CoreError::Verification(format!(
                    "partition returned {} counts for {} reads",
                    out.len(),
                    job.read_indices.len()
                )));
            }
            for (&idx, &c) in job.read_indices.iter().zip(out) {
                counts[idx as usize] = c;
            }
        }
        Ok(CountRun { counts, stats })
    }
}

/// Software oracle for the example query: per-read count of aligned bases
/// equal to the reference base.
#[must_use]
pub fn count_matching_bases_sw(reads: &[ReadRecord], genome: &ReferenceGenome) -> Vec<u32> {
    reads
        .iter()
        .map(|r| {
            let Some(chrom) = genome.chromosome(r.chr) else { return 0 };
            if r.end_pos() as usize > chrom.len() {
                return 0;
            }
            let mut count = 0u32;
            let mut ref_pos = r.pos as usize;
            let mut seq_i = 0usize;
            for e in r.cigar.iter() {
                match e.op {
                    genesis_types::CigarOp::Match
                    | genesis_types::CigarOp::SeqMatch
                    | genesis_types::CigarOp::SeqMismatch => {
                        for _ in 0..e.len {
                            if r.seq[seq_i] == chrom.seq[ref_pos] {
                                count += 1;
                            }
                            seq_i += 1;
                            ref_pos += 1;
                        }
                    }
                    genesis_types::CigarOp::Ins | genesis_types::CigarOp::SoftClip => {
                        seq_i += e.len as usize;
                    }
                    genesis_types::CigarOp::Del | genesis_types::CigarOp::RefSkip => {
                        ref_pos += e.len as usize;
                    }
                    genesis_types::CigarOp::HardClip => {}
                }
            }
            count
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis_datagen::{DatagenConfig, Dataset};

    #[test]
    fn accelerator_matches_software_oracle() {
        let dataset = Dataset::generate(&DatagenConfig::tiny());
        let accel = CountMatchingBases::new(DeviceConfig::small());
        let run = accel.run(&dataset.reads, &dataset.genome).unwrap();
        let oracle = count_matching_bases_sw(&dataset.reads, &dataset.genome);
        assert_eq!(run.counts, oracle);
        assert!(run.stats.cycles > 0);
        assert!(run.stats.invocations >= 1);
    }

    #[test]
    fn counts_are_plausible() {
        let dataset = Dataset::generate(&DatagenConfig::tiny());
        let oracle = count_matching_bases_sw(&dataset.reads, &dataset.genome);
        // Most bases match the reference for a low-error simulator.
        let total: u64 = oracle.iter().map(|&c| u64::from(c)).sum();
        let bases: u64 = dataset.reads.iter().map(|r| u64::from(r.len())).sum();
        assert!(total * 10 > bases * 8, "match fraction unexpectedly low");
    }
}
