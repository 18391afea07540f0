//! Position-window partitioning of reads and reference (paper §III-B).
//!
//! The read table is partitioned first by chromosome and then by position so
//! that the *n*-th window of a chromosome holds reads whose positions fall in
//! `[n * PSIZE, (n+1) * PSIZE)`. The reference is partitioned so that the
//! *n*-th window holds the sequence for `[n * PSIZE, (n+1) * PSIZE + LEN)` —
//! the `LEN` overlap lets a read near the window boundary find all the
//! reference bases it spans within its own partition.

use crate::base::Base;
use crate::bitvec::BitVec;
use crate::read::{Chrom, ReadRecord};
use crate::reference::ReferenceGenome;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of one (chromosome, position-window) partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId {
    /// Chromosome of the window.
    pub chrom: Chrom,
    /// Window ordinal within the chromosome (`pos / PSIZE`).
    pub window: u32,
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:w{}", self.chrom, self.window)
    }
}

/// Partitioning parameters.
///
/// The paper configures `PSIZE` to about one million base pairs and `LEN`
/// to the read length (151 for the evaluated data set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionScheme {
    /// Window size in base pairs (`PSIZE`).
    pub psize: u32,
    /// Maximum read length (`LEN`): the reference-window overlap.
    pub read_len: u32,
}

impl Default for PartitionScheme {
    /// The paper's configuration: `PSIZE` = 1 Mbp, `LEN` = 151.
    fn default() -> PartitionScheme {
        PartitionScheme { psize: 1_000_000, read_len: 151 }
    }
}

/// Reads assigned to one partition (indices into the caller's read slice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPartition {
    /// The partition this group belongs to.
    pub pid: PartitionId,
    /// Indices of member reads in the original slice, in input order.
    pub read_indices: Vec<u32>,
}

/// The reference segment backing one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferencePartition {
    /// The partition this segment belongs to.
    pub pid: PartitionId,
    /// Absolute position of `seq[0]` on the chromosome.
    pub start: u32,
    /// Sequence covering `[start, start + PSIZE + LEN)` clamped to the
    /// chromosome end.
    pub seq: Vec<Base>,
    /// Known-SNP bits aligned with `seq`.
    pub is_snp: BitVec,
}

impl ReferencePartition {
    /// Base at absolute chromosome position `pos`, if covered.
    #[must_use]
    pub fn base_at(&self, pos: u32) -> Option<Base> {
        pos.checked_sub(self.start).and_then(|off| self.seq.get(off as usize).copied())
    }

    /// Length of the segment in base pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True when the segment holds no bases.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

impl PartitionScheme {
    /// Creates a scheme.
    ///
    /// # Panics
    ///
    /// Panics if `psize == 0`.
    #[must_use]
    pub fn new(psize: u32, read_len: u32) -> PartitionScheme {
        assert!(psize > 0, "PSIZE must be positive");
        PartitionScheme { psize, read_len }
    }

    /// Window ordinal for a position.
    #[must_use]
    pub fn window_of(&self, pos: u32) -> u32 {
        pos / self.psize
    }

    /// Partition id for a read (by its chromosome and leftmost position).
    #[must_use]
    pub fn partition_of(&self, read: &ReadRecord) -> PartitionId {
        PartitionId { chrom: read.chr, window: self.window_of(read.pos) }
    }

    /// Groups reads into partitions, ordered by (chromosome, window).
    ///
    /// Unmapped reads (empty CIGAR *and* unmapped flag) are skipped.
    #[must_use]
    pub fn partition_reads(&self, reads: &[ReadRecord]) -> Vec<ReadPartition> {
        let mut groups: BTreeMap<PartitionId, Vec<u32>> = BTreeMap::new();
        for (i, r) in reads.iter().enumerate() {
            if r.flags.is_unmapped() {
                continue;
            }
            groups.entry(self.partition_of(r)).or_default().push(i as u32);
        }
        groups
            .into_iter()
            .map(|(pid, read_indices)| ReadPartition { pid, read_indices })
            .collect()
    }

    /// Extracts the reference segment for a partition.
    ///
    /// Returns `None` when the genome lacks the chromosome or the window
    /// starts past the chromosome end.
    #[must_use]
    pub fn reference_partition(
        &self,
        genome: &ReferenceGenome,
        pid: PartitionId,
    ) -> Option<ReferencePartition> {
        let chrom = genome.chromosome(pid.chrom)?;
        let start = pid.window.checked_mul(self.psize)?;
        if start as usize >= chrom.len() {
            return None;
        }
        let end = ((start as u64 + u64::from(self.psize) + u64::from(self.read_len)) as usize)
            .min(chrom.len());
        let seq = chrom.seq[start as usize..end].to_vec();
        let is_snp: BitVec = (start as usize..end).map(|i| chrom.is_snp.get(i)).collect();
        Some(ReferencePartition { pid, start, seq, is_snp })
    }

    /// Enumerates every partition id covering the genome.
    #[must_use]
    pub fn all_partitions(&self, genome: &ReferenceGenome) -> Vec<PartitionId> {
        let mut out = Vec::new();
        for chrom in genome {
            let windows = (chrom.len() as u64).div_ceil(u64::from(self.psize)) as u32;
            for window in 0..windows {
                out.push(PartitionId { chrom: chrom.chrom, window });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qual::Qual;
    use crate::reference::Chromosome;

    fn read_at(chr: u8, pos: u32) -> ReadRecord {
        ReadRecord::builder("r", Chrom::new(chr), pos)
            .cigar("4M".parse().unwrap())
            .seq(Base::seq_from_str("ACGT").unwrap())
            .qual(vec![Qual::new(30).unwrap(); 4])
            .build()
            .unwrap()
    }

    fn genome(len: usize) -> ReferenceGenome {
        let seq: Vec<Base> = (0..len).map(|i| Base::from_code((i % 4) as u8)).collect();
        [Chromosome::without_snps(Chrom::new(1), seq)].into_iter().collect()
    }

    #[test]
    fn window_assignment() {
        let s = PartitionScheme::new(100, 10);
        assert_eq!(s.window_of(0), 0);
        assert_eq!(s.window_of(99), 0);
        assert_eq!(s.window_of(100), 1);
    }

    #[test]
    fn reads_grouped_in_order() {
        let s = PartitionScheme::new(100, 10);
        let reads = vec![read_at(1, 250), read_at(1, 5), read_at(2, 30), read_at(1, 7)];
        let parts = s.partition_reads(&reads);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].pid, PartitionId { chrom: Chrom::new(1), window: 0 });
        assert_eq!(parts[0].read_indices, vec![1, 3]);
        assert_eq!(parts[1].pid.window, 2);
        assert_eq!(parts[2].pid.chrom, Chrom::new(2));
    }

    #[test]
    fn reference_window_has_overlap() {
        let s = PartitionScheme::new(100, 10);
        let g = genome(250);
        let p0 = s
            .reference_partition(&g, PartitionId { chrom: Chrom::new(1), window: 0 })
            .unwrap();
        assert_eq!(p0.start, 0);
        assert_eq!(p0.len(), 110); // PSIZE + LEN
        let p2 = s
            .reference_partition(&g, PartitionId { chrom: Chrom::new(1), window: 2 })
            .unwrap();
        assert_eq!(p2.start, 200);
        assert_eq!(p2.len(), 50); // clamped at chromosome end
        assert!(s
            .reference_partition(&g, PartitionId { chrom: Chrom::new(1), window: 3 })
            .is_none());
    }

    #[test]
    fn base_at_uses_absolute_positions() {
        let s = PartitionScheme::new(100, 10);
        let g = genome(250);
        let p = s
            .reference_partition(&g, PartitionId { chrom: Chrom::new(1), window: 1 })
            .unwrap();
        let chrom = g.chromosome(Chrom::new(1)).unwrap();
        assert_eq!(p.base_at(150).unwrap(), chrom.base_at(150).unwrap());
        assert_eq!(p.base_at(99), None);
        // Window 1 covers [100, 210): the overlap's last base is 209.
        assert_eq!(p.base_at(209).unwrap(), chrom.base_at(209).unwrap());
        assert_eq!(p.base_at(210), None);
    }

    #[test]
    fn all_partitions_cover_genome() {
        let s = PartitionScheme::new(100, 10);
        let g = genome(250);
        let parts = s.all_partitions(&g);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[2].window, 2);
    }

    #[test]
    fn boundary_read_finds_reference_in_own_partition() {
        // A read starting at the last position of window 0 spans into
        // window 1's bases; the overlap must cover it.
        let s = PartitionScheme::new(100, 10);
        let g = genome(250);
        let r = read_at(1, 99); // covers [99, 103)
        let pid = s.partition_of(&r);
        assert_eq!(pid.window, 0);
        let p = s.reference_partition(&g, pid).unwrap();
        assert!(p.base_at(102).is_some());
    }
}
