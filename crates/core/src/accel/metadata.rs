//! The Metadata Update accelerator (paper §IV-C, Figure 11): computes the
//! NM, MD and UQ tags for every read in hardware.

use crate::accel::frontend::{build_frontend, make_partition_jobs, JobOptions, PartitionJob};
use crate::accel::run_batches_with_oracle;
use crate::builder::PipelineBuilder;
use crate::columns::bytes_to_u32;
use crate::device::DeviceConfig;
use crate::error::CoreError;
use crate::perf::{AccelStats, Breakdown};
use genesis_hw::modules::fanout::Fanout;
use genesis_hw::modules::filter::{CmpOp, Filter, Predicate};
use genesis_hw::modules::joiner::{JoinKind, Joiner};
use genesis_hw::modules::mdgen::{MdGen, MdGenConfig};
use genesis_hw::modules::mem_writer::MemWriter;
use genesis_hw::modules::reducer::{ReduceOp, Reducer};
use genesis_hw::system::ModuleId;
use genesis_types::{ReadRecord, ReferenceGenome};
use std::time::Instant;

/// Per-read tag outputs of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadTagsOut {
    /// NM per read.
    pub nm: Vec<u32>,
    /// UQ per read.
    pub uq: Vec<u32>,
    /// MD string per read.
    pub md: Vec<String>,
}

/// The Figure 11 accelerator.
#[derive(Debug, Clone)]
pub struct MetadataAccel {
    cfg: DeviceConfig,
}

struct Handles {
    nm_addr: u64,
    uq_addr: u64,
    md_addr: u64,
    md_writer: ModuleId,
    n_reads: usize,
}

impl MetadataAccel {
    /// Creates the accelerator.
    #[must_use]
    pub fn new(cfg: DeviceConfig) -> MetadataAccel {
        MetadataAccel { cfg }
    }

    /// Analytical FPGA resource usage of the full replicated design
    /// (paper Table IV row "Metadata Update").
    #[must_use]
    pub fn resource_report(&self) -> genesis_hw::ResourceReport {
        let job = crate::accel::frontend::representative_job(self.cfg.psize, 151, false);
        let mut sys = genesis_hw::System::with_memory(self.cfg.mem.clone());
        for group in 0..self.cfg.pipelines {
            let _ = Self::build(&mut sys, group as u32, &job);
        }
        sys.resource_report()
    }

    /// Builds the Figure 11 pipeline for one partition job.
    fn build(sys: &mut genesis_hw::System, group: u32, job: &PartitionJob) -> Handles {
        let n = job.read_indices.len();
        let mut b = PipelineBuilder::new(sys, group);
        let fe = build_frontend(&mut b, job, false);
        let joined = b.queue("joined");
        let join_filter = b.queue("joined.filter");
        let join_md = b.queue("joined.md");
        let mismatches = b.queue("mismatches");
        let mm_nm = b.queue("mm.nm");
        let mm_uq = b.queue("mm.uq");
        let uq_posval = b.queue("uq.posval");
        let uq_vals = b.queue("uq.vals");
        let nm_counts = b.queue("nm.counts");
        let uq_sums = b.queue("uq.sums");
        let md_bytes = b.queue("md.bytes");
        let (_, nm_addr) = b.writer("NM.out", nm_counts, 4, n * 4);
        let (_, uq_addr) = b.writer("UQ.out", uq_sums, 4, n * 4);
        // MD output: generous capacity (reads are short; mismatches few).
        let md_cap = (job.columns.seq.len() + 16 * n).max(64);
        let (md_writer, md_addr) = b.writer("MD.out", md_bytes, 1, md_cap);
        let sys = b.system();
        // Left join preserves insertions and deletions (paper §IV-C).
        sys.add_module(Box::new(Joiner::new(
            "leftjoin",
            JoinKind::Left,
            fe.bases,
            fe.refs,
            joined,
            3,
            1,
        )));
        // joined: [pos, bp, qual, idx, refbp].
        sys.add_module(Box::new(Fanout::new("join.fan", joined, vec![join_filter, join_md])));
        // Mismatch filter: Ins/Del compare unequal, so indels count in NM.
        sys.add_module(Box::new(Filter::new(
            "mismatch",
            Predicate::fields(1, CmpOp::Ne, 4),
            join_filter,
            mismatches,
        )));
        sys.add_module(Box::new(Fanout::new("mm.fan", mismatches, vec![mm_nm, mm_uq])));
        // NM: count of all mismatching positions (incl. indels).
        sys.add_module(Box::new(Reducer::new("NM", ReduceOp::Count, 0, mm_nm, nm_counts)));
        // UQ: sum of qualities at mismatching *aligned* bases only — strip
        // insertions (Ins position) then deletions (Del quality).
        sys.add_module(Box::new(Filter::new(
            "uq.aligned",
            Predicate::field_is_value(0),
            mm_uq,
            uq_posval,
        )));
        sys.add_module(Box::new(Filter::new(
            "uq.hasqual",
            Predicate::field_is_value(2),
            uq_posval,
            uq_vals,
        )));
        sys.add_module(Box::new(
            Reducer::new("UQ", ReduceOp::Sum, 2, uq_vals, uq_sums),
        ));
        // MD generation from the full joined stream.
        sys.add_module(Box::new(MdGen::new(
            "MDGen",
            MdGenConfig { read_field: 1, ref_field: 4 },
            join_md,
            md_bytes,
        )));
        Handles { nm_addr, uq_addr, md_addr, md_writer, n_reads: n }
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
        Ok(sys.to_dot("Metadata Update pipeline (Figure 11)"))
    }

    /// Runs the accelerator over all reads (one invocation per partition)
    /// and returns per-read tags in input order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on marshalling or simulation failure.
    pub fn run(
        &self,
        reads: &[ReadRecord],
        genome: &ReferenceGenome,
    ) -> Result<(ReadTagsOut, AccelStats), CoreError> {
        let jobs = make_partition_jobs(reads, genome, self.cfg.psize, JobOptions::default())?;
        let dma_in: u64 = jobs.iter().map(PartitionJob::dma_in_bytes).sum();
        let (outs, mut stats) = run_batches_with_oracle(
            &self.cfg,
            0,
            &jobs,
            |sys, group, job| Ok(Self::build(sys, group, job)),
            |sys, h, _| {
                let nm = bytes_to_u32(&sys.host_read(h.nm_addr, h.n_reads * 4));
                let uq = bytes_to_u32(&sys.host_read(h.uq_addr, h.n_reads * 4));
                let writer = sys
                    .module_as::<MemWriter>(h.md_writer)
                    .expect("MD writer handle");
                let md_len = writer.elems_written() as usize;
                let md_raw = sys.host_read(h.md_addr, md_len);
                let mut md = Vec::with_capacity(h.n_reads);
                let mut off = 0usize;
                for &len in writer.row_lens() {
                    let bytes = &md_raw[off..off + len as usize];
                    md.push(String::from_utf8_lossy(bytes).into_owned());
                    off += len as usize;
                }
                Ok((nm, uq, md))
            },
            // Software oracle for graceful degradation: GATK tag
            // computation on the job's read subset. Partition jobs carry
            // only mapped, in-bounds reads, so every read gets tags.
            Some(|_, job: &PartitionJob| {
                let mut subset: Vec<ReadRecord> = job
                    .read_indices
                    .iter()
                    .map(|&idx| reads[idx as usize].clone())
                    .collect();
                genesis_gatk::metadata::set_nm_md_uq_tags(&mut subset, genome)?;
                let nm = subset.iter().map(|r| r.nm.unwrap_or(0)).collect();
                let uq = subset.iter().map(|r| r.uq.unwrap_or(0)).collect();
                let md = subset.iter().map(|r| r.md.clone().unwrap_or_default()).collect();
                Ok((nm, uq, md))
            }),
        )?;
        stats.dma_in_bytes = dma_in;
        stats.dma_transfers = jobs.len() as u64 * 2; // scatter-gather DMA: one batched transfer each way
        let mut nm = vec![0u32; reads.len()];
        let mut uq = vec![0u32; reads.len()];
        let mut md = vec![String::new(); reads.len()];
        let mut dma_out = 0u64;
        for (job, (jnm, juq, jmd)) in jobs.iter().zip(outs) {
            if jnm.len() != job.read_indices.len() || jmd.len() != job.read_indices.len() {
                return Err(CoreError::Verification(format!(
                    "partition returned {}/{} tag rows for {} reads",
                    jnm.len(),
                    jmd.len(),
                    job.read_indices.len()
                )));
            }
            for (k, (&idx, jm)) in job.read_indices.iter().zip(jmd).enumerate() {
                nm[idx as usize] = jnm[k];
                uq[idx as usize] = juq[k];
                dma_out += 8 + jm.len() as u64;
                md[idx as usize] = jm;
            }
        }
        stats.dma_out_bytes = dma_out;
        Ok((ReadTagsOut { nm, uq, md }, stats))
    }
}

/// Outcome of the accelerated Metadata Update stage.
#[derive(Debug)]
pub struct MetadataStageResult {
    /// Wall-clock breakdown.
    pub breakdown: Breakdown,
    /// Accelerator statistics.
    pub stats: AccelStats,
    /// Reads whose tags were set.
    pub updated: usize,
}

/// The full accelerated stage: tags computed in hardware, attached to the
/// records by the host.
///
/// # Errors
///
/// Returns [`CoreError`] on simulation failure.
pub fn accelerated_metadata_update(
    reads: &mut [ReadRecord],
    genome: &ReferenceGenome,
    cfg: &DeviceConfig,
) -> Result<MetadataStageResult, CoreError> {
    let accel = MetadataAccel::new(cfg.clone());
    let (tags, stats) = accel.run(reads, genome)?;
    let host_start = Instant::now();
    let mut updated = 0;
    for (i, r) in reads.iter_mut().enumerate() {
        if r.flags.is_unmapped() || r.cigar.is_empty() {
            continue;
        }
        r.nm = Some(tags.nm[i]);
        r.uq = Some(tags.uq[i]);
        r.md = Some(tags.md[i].clone());
        updated += 1;
    }
    let host = host_start.elapsed();
    let breakdown = Breakdown {
        host,
        dma: cfg.dma.transfer_time(stats.dma_in_bytes + stats.dma_out_bytes, stats.dma_transfers),
        accel: cfg.cycles_to_time(stats.cycles),
    };
    Ok(MetadataStageResult { breakdown, stats, updated })
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis_datagen::{DatagenConfig, Dataset};
    use genesis_gatk::metadata::set_nm_md_uq_tags;

    #[test]
    fn hardware_tags_match_gatk_software() {
        let dataset = Dataset::generate(&DatagenConfig::tiny());
        let mut sw = dataset.reads.clone();
        set_nm_md_uq_tags(&mut sw, &dataset.genome).unwrap();

        let mut hw = dataset.reads.clone();
        accelerated_metadata_update(&mut hw, &dataset.genome, &DeviceConfig::small()).unwrap();

        for (s, h) in sw.iter().zip(&hw) {
            assert_eq!(s.nm, h.nm, "NM mismatch for {}", s.name);
            assert_eq!(s.uq, h.uq, "UQ mismatch for {}", s.name);
            assert_eq!(s.md, h.md, "MD mismatch for {}", s.name);
        }
    }

    #[test]
    fn stats_are_populated() {
        let dataset = Dataset::generate(&DatagenConfig::tiny());
        let accel = MetadataAccel::new(DeviceConfig::small());
        let (_, stats) = accel.run(&dataset.reads, &dataset.genome).unwrap();
        assert!(stats.cycles > 0);
        assert!(stats.dma_in_bytes > 0);
        assert!(stats.device_mem_bytes > 0);
    }
}
