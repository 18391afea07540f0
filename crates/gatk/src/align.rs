//! Read alignment: k-mer seeding plus banded Smith–Waterman extension.
//!
//! The paper treats alignment as an already-accelerated stage (GenAx,
//! Darwin, BWA-MEM — §IV-A) and focuses on the stages after it. This
//! module provides the *baseline software aligner* needed to reproduce the
//! Figure 9 runtime breakdown: a seed-and-extend design in the BWA-MEM
//! family — exact-match k-mer seeds voted by diagonal, then a banded
//! dynamic-programming extension that emits `POS` + CIGAR.

use genesis_types::{Base, Chrom, Cigar, CigarElem, CigarOp, ReadRecord, ReferenceGenome};
use std::collections::HashMap;

/// Alignment scoring parameters (BWA-MEM-like defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scoring {
    /// Score for a matching base.
    pub match_score: i32,
    /// Penalty for a mismatching base (positive number).
    pub mismatch: i32,
    /// Penalty for opening or extending a gap (linear gaps).
    pub gap: i32,
}

impl Default for Scoring {
    fn default() -> Scoring {
        Scoring { match_score: 1, mismatch: 4, gap: 6 }
    }
}

/// The result of aligning one read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Chromosome of the best hit.
    pub chr: Chrom,
    /// 0-based leftmost reference position.
    pub pos: u32,
    /// Alignment CIGAR (M/I/D with optional soft clips).
    pub cigar: Cigar,
    /// Alignment score.
    pub score: i32,
    /// Mapping quality estimate (0–60), from the margin to the runner-up.
    pub mapq: u8,
}

/// A k-mer index over a reference genome.
#[derive(Debug)]
pub struct KmerIndex<'g> {
    genome: &'g ReferenceGenome,
    k: usize,
    /// k-mer code → (chromosome ordinal, position) hit list.
    map: HashMap<u64, Vec<(u32, u32)>>,
    /// Hits per k-mer beyond which the seed is considered repetitive.
    max_hits: usize,
}

/// Packs `k` bases into a 2-bit-per-base code; `None` when any base is `N`.
fn kmer_code(window: &[Base]) -> Option<u64> {
    let mut code = 0u64;
    for &b in window {
        if b == Base::N {
            return None;
        }
        code = (code << 2) | u64::from(b.code());
    }
    Some(code)
}

impl<'g> KmerIndex<'g> {
    /// Builds an index with k-mer length `k` over every position of every
    /// chromosome.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= 31`.
    #[must_use]
    pub fn build(genome: &'g ReferenceGenome, k: usize) -> KmerIndex<'g> {
        assert!((1..=31).contains(&k), "k must be 1..=31");
        let mut map: HashMap<u64, Vec<(u32, u32)>> = HashMap::new();
        for (ci, chrom) in genome.iter().enumerate() {
            if chrom.len() < k {
                continue;
            }
            for pos in 0..=(chrom.len() - k) {
                if let Some(code) = kmer_code(&chrom.seq[pos..pos + k]) {
                    map.entry(code).or_default().push((ci as u32, pos as u32));
                }
            }
        }
        KmerIndex { genome, k, map, max_hits: 64 }
    }

    /// The k-mer length.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Aligns a read sequence; `None` when no seed anchors it.
    #[must_use]
    pub fn align(&self, seq: &[Base], scoring: Scoring) -> Option<Alignment> {
        if seq.len() < self.k {
            return None;
        }
        // Seed at a few offsets across the read.
        let offsets = [0, seq.len() / 2, seq.len() - self.k];
        // Candidate diagonals: (chrom ordinal, read start on reference).
        let mut votes: HashMap<(u32, i64), u32> = HashMap::new();
        for &off in &offsets {
            let Some(code) = kmer_code(&seq[off..off + self.k]) else {
                continue;
            };
            let Some(hits) = self.map.get(&code) else {
                continue;
            };
            if hits.len() > self.max_hits {
                continue; // repetitive seed
            }
            for &(ci, pos) in hits {
                let diag = i64::from(pos) - off as i64;
                *votes.entry((ci, diag)).or_insert(0) += 1;
            }
        }
        // Evaluate the best few diagonals with banded DP.
        let mut cands: Vec<((u32, i64), u32)> = votes.into_iter().collect();
        cands.sort_by_key(|&((ci, diag), n)| (std::cmp::Reverse(n), ci, diag));
        let mut best: Option<Alignment> = None;
        let mut second_score = i32::MIN;
        for &((ci, diag), _) in cands.iter().take(4) {
            let chrom = self.genome.iter().nth(ci as usize).expect("indexed chromosome");
            let Some(aln) = banded_align(seq, chrom.chrom, &chrom.seq, diag, scoring) else {
                continue;
            };
            match &best {
                Some(b) if aln.score <= b.score => second_score = second_score.max(aln.score),
                _ => {
                    if let Some(b) = &best {
                        second_score = second_score.max(b.score);
                    }
                    best = Some(aln);
                }
            }
        }
        best.map(|mut aln| {
            let margin = if second_score == i32::MIN {
                60
            } else {
                ((aln.score - second_score).clamp(0, 60)) as u8
            };
            aln.mapq = margin;
            aln
        })
    }
}

/// Half-width of the DP band around the seed diagonal.
const BAND: i64 = 8;

/// Global-in-read, banded alignment of `seq` against the reference around
/// diagonal `diag` (read offset 0 maps near reference position `diag`).
fn banded_align(
    seq: &[Base],
    chrom: Chrom,
    reference: &[Base],
    diag: i64,
    scoring: Scoring,
) -> Option<Alignment> {
    let n = seq.len() as i64;
    let ref_start = (diag - BAND).max(0);
    let ref_end = (diag + n + BAND).min(reference.len() as i64);
    if ref_start >= ref_end {
        return None;
    }
    let m = (ref_end - ref_start) as usize; // reference window length
    let width = m + 1;
    let neg = i32::MIN / 2;
    // DP over full (n+1) x (m+1) with band enforcement; reads are short so
    // this stays small.
    let rows = seq.len() + 1;
    let mut score = vec![neg; rows * width];
    let mut from = vec![0u8; rows * width]; // 0 diag, 1 up(del in read=ins?), 2 left
    // Row 0: free start anywhere on the reference (local in reference).
    score[..width].fill(0);
    for i in 1..rows {
        for j in 0..width {
            let idx = i * width + j;
            // Band check relative to the seed diagonal.
            let rpos = ref_start + j as i64; // ref consumed so far
            let drift = rpos - (diag + i as i64);
            if drift.abs() > BAND + 2 {
                continue;
            }
            let mut best = neg;
            let mut dir = 0u8;
            if j > 0 {
                let sub = if seq[i - 1] == reference[(ref_start + j as i64 - 1) as usize]
                    && seq[i - 1] != Base::N
                {
                    scoring.match_score
                } else {
                    -scoring.mismatch
                };
                let d = score[(i - 1) * width + j - 1];
                if d > neg / 2 && d + sub > best {
                    best = d + sub;
                    dir = 0;
                }
                let l = score[i * width + j - 1];
                if l > neg / 2 && l - scoring.gap > best {
                    best = l - scoring.gap;
                    dir = 2; // consumed reference only: deletion in read
                }
            }
            let u = score[(i - 1) * width + j];
            if u > neg / 2 && u - scoring.gap > best {
                best = u - scoring.gap;
                dir = 1; // consumed read only: insertion
            }
            score[idx] = best;
            from[idx] = dir;
        }
    }
    // Best end cell on the last row (read fully consumed; free end in ref).
    let last = seq.len();
    let (mut j, best_score) = (0..width)
        .map(|j| (j, score[last * width + j]))
        .max_by_key(|&(_, s)| s)?;
    if best_score <= neg / 2 {
        return None;
    }
    // Traceback.
    let mut i = last;
    let mut elems_rev: Vec<CigarElem> = Vec::new();
    let push = |elems_rev: &mut Vec<CigarElem>, op: CigarOp| {
        if let Some(last) = elems_rev.last_mut() {
            if last.op == op {
                last.len += 1;
                return;
            }
        }
        elems_rev.push(CigarElem::new(1, op));
    };
    while i > 0 {
        let idx = i * width + j;
        if score[idx] <= neg / 2 {
            return None;
        }
        match from[idx] {
            0 => {
                push(&mut elems_rev, CigarOp::Match);
                i -= 1;
                j -= 1;
            }
            1 => {
                push(&mut elems_rev, CigarOp::Ins);
                i -= 1;
            }
            _ => {
                push(&mut elems_rev, CigarOp::Del);
                j -= 1;
            }
        }
    }
    elems_rev.reverse();
    let cigar: Cigar = elems_rev.into_iter().collect();
    let pos = (ref_start + j as i64) as u32;
    Some(Alignment { chr: chrom, pos, cigar, score: best_score, mapq: 0 })
}

/// Aligns every read's sequence from scratch, returning fresh records (the
/// Figure 9 "alignment" stage). Reads that fail to align keep their input
/// coordinates but get mapping quality 0.
#[must_use]
pub fn align_all(index: &KmerIndex<'_>, reads: &[ReadRecord]) -> Vec<ReadRecord> {
    let scoring = Scoring::default();
    reads
        .iter()
        .map(|r| {
            let mut out = r.clone();
            if let Some(aln) = index.align(&r.seq, scoring) {
                out.chr = aln.chr;
                out.pos = aln.pos;
                out.cigar = aln.cigar;
                out.mapq = aln.mapq;
            } else {
                out.mapq = 0;
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis_types::Chromosome;

    fn genome_from(seq: &str) -> ReferenceGenome {
        [Chromosome::without_snps(Chrom::new(1), Base::seq_from_str(seq).unwrap())]
            .into_iter()
            .collect()
    }

    fn rand_seq(len: usize, seed: u64) -> String {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4]
            })
            .collect()
    }

    #[test]
    fn exact_read_aligns_at_origin() {
        let s = rand_seq(500, 7);
        let genome = genome_from(&s);
        let index = KmerIndex::build(&genome, 15);
        let read = Base::seq_from_str(&s[100..180]).unwrap();
        let aln = index.align(&read, Scoring::default()).unwrap();
        assert_eq!(aln.pos, 100);
        assert_eq!(aln.cigar.to_string(), "80M");
        assert!(aln.mapq > 0);
    }

    #[test]
    fn mismatches_still_align() {
        let s = rand_seq(500, 8);
        let genome = genome_from(&s);
        let index = KmerIndex::build(&genome, 15);
        let mut read = Base::seq_from_str(&s[200..280]).unwrap();
        read[40] = read[40].complement(); // guaranteed different
        let aln = index.align(&read, Scoring::default()).unwrap();
        assert_eq!(aln.pos, 200);
        assert_eq!(aln.cigar.to_string(), "80M");
    }

    #[test]
    fn deletion_detected() {
        let s = rand_seq(600, 9);
        let genome = genome_from(&s);
        let index = KmerIndex::build(&genome, 15);
        // Read skips reference bases 250..252 (a 2-base deletion).
        let mut read_seq = Base::seq_from_str(&s[210..250]).unwrap();
        read_seq.extend(Base::seq_from_str(&s[252..292]).unwrap());
        let aln = index.align(&read_seq, Scoring::default()).unwrap();
        assert_eq!(aln.pos, 210);
        assert_eq!(aln.cigar.to_string(), "40M2D40M");
    }

    #[test]
    fn insertion_detected() {
        let s = rand_seq(600, 10);
        let genome = genome_from(&s);
        let index = KmerIndex::build(&genome, 15);
        let mut read_seq = Base::seq_from_str(&s[300..340]).unwrap();
        read_seq.push(Base::A);
        read_seq.push(Base::C);
        read_seq.extend(Base::seq_from_str(&s[340..380]).unwrap());
        let aln = index.align(&read_seq, Scoring::default()).unwrap();
        assert_eq!(aln.pos, 300);
        // A 2-base insertion (occasionally placed ±1 by equal-score paths).
        assert!(aln.cigar.to_string().contains("2I"), "{}", aln.cigar);
        assert_eq!(aln.cigar.ref_len(), 80);
    }

    #[test]
    fn unalignable_read_returns_none() {
        let genome = genome_from(&rand_seq(300, 11));
        let index = KmerIndex::build(&genome, 15);
        // A read of all-N bases has no valid k-mer.
        let read = vec![Base::N; 60];
        assert!(index.align(&read, Scoring::default()).is_none());
    }

    #[test]
    fn align_all_recovers_positions() {
        let s = rand_seq(2000, 12);
        let genome = genome_from(&s);
        let index = KmerIndex::build(&genome, 15);
        let reads: Vec<ReadRecord> = (0..20)
            .map(|i| {
                let start = i * 90;
                let seq = Base::seq_from_str(&s[start..start + 80]).unwrap();
                ReadRecord::builder(&format!("r{i}"), Chrom::new(1), 0)
                    .cigar("80M".parse().unwrap())
                    .seq(seq)
                    .qual(vec![genesis_types::Qual::new(30).unwrap(); 80])
                    .build()
                    .unwrap()
            })
            .collect();
        let aligned = align_all(&index, &reads);
        for (i, r) in aligned.iter().enumerate() {
            assert_eq!(r.pos as usize, i * 90, "read {i}");
        }
    }
}
