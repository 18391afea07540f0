//! The software oracle for the paper's Figure 4 query, shared by the tests
//! that hold the compiled pipeline to it.

use genesis::types::{CigarOp, ReadRecord, ReferenceGenome};

/// Per-read count of aligned bases equal to the reference base (0 for a
/// read past its chromosome's end).
pub fn count_matching_bases_sw(reads: &[ReadRecord], genome: &ReferenceGenome) -> Vec<u32> {
    reads
        .iter()
        .map(|r| {
            let Some(chrom) = genome.chromosome(r.chr) else { return 0 };
            if r.end_pos() as usize > chrom.len() {
                return 0;
            }
            let (mut count, mut ref_pos, mut seq_i) = (0u32, r.pos as usize, 0usize);
            for e in r.cigar.iter() {
                let n = e.len as usize;
                match e.op {
                    CigarOp::Match | CigarOp::SeqMatch | CigarOp::SeqMismatch => {
                        count += (0..n)
                            .filter(|&i| r.seq[seq_i + i] == chrom.seq[ref_pos + i])
                            .count() as u32;
                        seq_i += n;
                        ref_pos += n;
                    }
                    CigarOp::Ins | CigarOp::SoftClip => seq_i += n,
                    CigarOp::Del | CigarOp::RefSkip => ref_pos += n,
                    CigarOp::HardClip => {}
                }
            }
            count
        })
        .collect()
}
