//! The shared front end of the hand-wired partitioned pipelines (Figures
//! 11, 12): read-column memory readers, the reference window
//! (`PipelineBuilder::ref_window`) supplying reference bases per read,
//! and ReadToBases.

use crate::builder::PipelineBuilder;
use crate::columns::ReadColumns;
use genesis_hw::modules::fanout::Fanout;
use genesis_hw::modules::mem_reader::RowSpec;
use genesis_hw::modules::read_to_bases::{ReadToBases, ReadToBasesInputs};
use genesis_hw::QueueId;

/// One per-partition accelerator job.
#[derive(Debug, Clone)]
pub struct PartitionJob {
    /// Flattened read columns for the partition's reads.
    pub columns: ReadColumns,
    /// Indices of those reads in the caller's read vector.
    pub read_indices: Vec<u32>,
    /// Reference base codes covering `[pstart, pstart + PSIZE + LEN)`.
    pub ref_codes: Vec<u8>,
    /// Known-SNP flags aligned with `ref_codes` (BQSR only).
    pub snp_bits: Option<Vec<u8>>,
    /// Absolute position of `ref_codes[0]`.
    pub pstart: u32,
    /// The read group this job covers, when partitioned by read group
    /// (BQSR, paper §IV-D).
    pub read_group: Option<u8>,
}

/// Options controlling partition-job construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobOptions {
    /// Include the `IS_SNP` column (BQSR).
    pub with_snp: bool,
    /// Split partitions further by read group (BQSR).
    pub by_read_group: bool,
    /// Drop duplicate-flagged reads (BQSR observes only non-duplicates).
    pub exclude_duplicates: bool,
}

/// Builds the per-partition jobs for a read set: partitions reads by
/// (chromosome, position window), extracts each partition's reference
/// segment (with the `LEN` overlap), and flattens the read columns
/// (paper §III-B partitioning).
///
/// # Errors
///
/// Returns [`crate::CoreError::Table`] if a CIGAR cannot be packed.
pub fn make_partition_jobs(
    reads: &[genesis_types::ReadRecord],
    genome: &genesis_types::ReferenceGenome,
    psize: u32,
    opts: JobOptions,
) -> Result<Vec<PartitionJob>, crate::CoreError> {
    let max_len = reads.iter().map(genesis_types::ReadRecord::len).max().unwrap_or(151);
    let scheme = genesis_types::PartitionScheme::new(psize, max_len);
    let mut jobs = Vec::new();
    for part in scheme.partition_reads(reads) {
        let Some(ref_part) = scheme.reference_partition(genome, part.pid) else {
            continue;
        };
        let ref_codes: Vec<u8> = ref_part.seq.iter().map(|b| b.code()).collect();
        let snp_bits: Option<Vec<u8>> =
            opts.with_snp.then(|| ref_part.is_snp.iter().map(u8::from).collect());
        // Optionally split by read group.
        let groups: Vec<Option<u8>> = if opts.by_read_group {
            let mut gs: Vec<u8> =
                part.read_indices.iter().map(|&i| reads[i as usize].read_group).collect();
            gs.sort_unstable();
            gs.dedup();
            gs.into_iter().map(Some).collect()
        } else {
            vec![None]
        };
        for rg in groups {
            let read_indices: Vec<u32> = part
                .read_indices
                .iter()
                .copied()
                .filter(|&i| {
                    let r = &reads[i as usize];
                    (rg.is_none() || Some(r.read_group) == rg)
                        && !(opts.exclude_duplicates && r.flags.is_duplicate())
                        && r.end_pos() as u64
                            <= u64::from(ref_part.start) + ref_part.len() as u64
                })
                .collect();
            if read_indices.is_empty() {
                continue;
            }
            let columns =
                ReadColumns::from_reads(read_indices.iter().map(|&i| &reads[i as usize]))?;
            jobs.push(PartitionJob {
                columns,
                read_indices,
                ref_codes: ref_codes.clone(),
                snp_bits: snp_bits.clone(),
                pstart: ref_part.start,
                read_group: rg,
            });
        }
    }
    Ok(jobs)
}

impl PartitionJob {
    /// Host→device DMA bytes for this job.
    #[must_use]
    pub fn dma_in_bytes(&self) -> u64 {
        self.columns.total_bytes()
            + self.ref_codes.len() as u64
            + self.snp_bits.as_ref().map_or(0, |s| s.len() as u64)
    }
}

/// A representative job for resource estimation: one minimal read over a
/// full-size (`psize + read_len`) reference window, so scratchpad BRAM is
/// charged at its real capacity.
#[must_use]
pub fn representative_job(psize: u32, read_len: u32, with_snp: bool) -> PartitionJob {
    let ref_len = (psize + read_len) as usize;
    let read = genesis_types::ReadRecord::builder("rep", genesis_types::Chrom::new(1), 0)
        .cigar("4M".parse().expect("static CIGAR"))
        .seq(vec![genesis_types::Base::A; 4])
        .qual(vec![genesis_types::Qual::MIN; 4])
        .build()
        .expect("static read");
    PartitionJob {
        columns: ReadColumns::from_reads([&read]).expect("static read packs"),
        read_indices: vec![0],
        ref_codes: vec![0; ref_len],
        snp_bits: with_snp.then(|| vec![0; ref_len]),
        pstart: 0,
        read_group: with_snp.then_some(0),
    }
}

/// Queues produced by the front end.
#[derive(Debug, Clone, Copy)]
pub struct Frontend {
    /// Per-base stream from ReadToBases: `[pos|Ins, bp|Del, qual|Del, idx]`.
    pub bases: QueueId,
    /// Per-read reference stream from the scratchpad:
    /// `[pos, ref_bp(, is_snp)]` over each read's `[POS, ENDPOS)`.
    pub refs: QueueId,
    /// Per-read reverse-strand flags (present when requested).
    pub flags: Option<QueueId>,
}

/// Builds the shared front end for `job` inside one pipeline.
/// `with_flags` additionally streams the per-read reverse flag (the BQSR
/// pipeline's cycle covariate needs it).
pub fn build_frontend(
    b: &mut PipelineBuilder<'_>,
    job: &PartitionJob,
    with_flags: bool,
) -> Frontend {
    let c = &job.columns;
    // Memory readers for each read column (Figure 7's five readers, plus
    // QUAL and optionally the flags column).
    let pos_q = b.upload_column("READS.POS", &c.pos, 4, RowSpec::Fixed(1));
    let endpos_q = b.upload_column("READS.ENDPOS", &c.endpos, 4, RowSpec::Fixed(1));
    let cigar_q =
        b.upload_column("READS.CIGAR", &c.cigar, 2, PipelineBuilder::rows_from_lens(&c.cigar_lens));
    let seq_q = b.upload_column(
        "READS.SEQ",
        &c.seq,
        1,
        PipelineBuilder::rows_from_lens(&c.seq_lens),
    );
    let qual_q = b.upload_column(
        "READS.QUAL",
        &c.qual,
        1,
        PipelineBuilder::rows_from_lens(&c.seq_lens),
    );
    let flags = with_flags.then(|| b.upload_column("READS.FLAGS", &c.flags, 1, RowSpec::Fixed(1)));

    // POS feeds both ReadToBases and the SPM range reader.
    let pos_rtb = b.queue("pos.rtb");
    let pos_spm = b.queue("pos.spm");
    let fan = Fanout::new("pos.fan", pos_q, vec![pos_rtb, pos_spm]);
    b.system().add_module(Box::new(fan));

    // Reference window over each read's [POS, ENDPOS). Bases pack at 2
    // bits in hardware, SNP flags at 1 (BRAM accounting).
    let mut cols = vec![("REF.SEQ", job.ref_codes.as_slice(), 1, 2)];
    if let Some(snp) = &job.snp_bits {
        cols.push(("REF.IS_SNP", snp.as_slice(), 1, 1));
    }
    let refs = b.ref_window(&cols, pos_spm, endpos_q, u64::from(job.pstart));

    // ReadToBases (the ReadExplode hardware).
    let bases = b.queue("bases");
    let rtb = ReadToBases::new(
        "ReadToBases",
        ReadToBasesInputs { pos: pos_rtb, cigar: cigar_q, seq: Some(seq_q), qual: Some(qual_q) },
        bases,
    );
    b.system().add_module(Box::new(rtb));

    Frontend { bases, refs, flags }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis_hw::modules::sink::StreamSink;
    use genesis_hw::word::HwWord;
    use genesis_hw::System;
    use genesis_types::{Base, Chrom, Qual, ReadRecord};

    fn job() -> PartitionJob {
        let reads = vec![
            ReadRecord::builder("a", Chrom::new(1), 1002)
                .cigar("4M".parse().unwrap())
                .seq(Base::seq_from_str("ACGT").unwrap())
                .qual(vec![Qual::new(30).unwrap(); 4])
                .build()
                .unwrap(),
        ];
        PartitionJob {
            columns: ReadColumns::from_reads(&reads).unwrap(),
            read_indices: vec![0],
            ref_codes: vec![0, 1, 2, 3, 0, 1, 2, 3],
            snp_bits: Some(vec![0, 0, 1, 0, 0, 0, 0, 0]),
            pstart: 1000,
            read_group: None,
        }
    }

    #[test]
    fn frontend_streams_align() {
        let job = job();
        let mut sys = System::new();
        let fe = {
            let mut b = PipelineBuilder::new(&mut sys, 0);
            build_frontend(&mut b, &job, true)
        };
        let bases_sink = sys.add_module(Box::new(StreamSink::new("b", fe.bases)));
        let refs_sink = sys.add_module(Box::new(StreamSink::new("r", fe.refs)));
        let flags_sink = sys.add_module(Box::new(StreamSink::new("f", fe.flags.unwrap())));
        sys.run(1_000_000).unwrap();
        let bases = sys.module_as::<StreamSink>(bases_sink).unwrap().items();
        let refs = sys.module_as::<StreamSink>(refs_sink).unwrap().items();
        assert_eq!(bases.len(), 1);
        assert_eq!(refs.len(), 1);
        assert_eq!(bases[0].len(), 4);
        assert_eq!(refs[0].len(), 4);
        // Read at 1002 covers ref offsets 2..6 = codes 2,3,0,1.
        assert_eq!(refs[0][0].field(0), HwWord::Val(1002));
        assert_eq!(refs[0][0].field(1), HwWord::Val(2));
        // The SNP bit at absolute position 1002 (offset 2) is set.
        assert_eq!(refs[0][0].field(2), HwWord::Val(1));
        assert_eq!(refs[0][3].field(1), HwWord::Val(1));
        assert_eq!(sys.sink_values(flags_sink), vec![HwWord::Val(0)]);
    }
}
