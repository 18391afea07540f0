//! Aligned read records.

use crate::base::Base;
use crate::cigar::Cigar;
use crate::error::TypeError;
use crate::flags::ReadFlags;
use crate::qual::Qual;
use std::fmt;

/// A chromosome identifier (paper Table I: `uint8_t`, 1..=22, X, Y).
///
/// # Examples
///
/// ```
/// use genesis_types::Chrom;
///
/// assert_eq!(Chrom::X.to_string(), "chrX");
/// assert_eq!(Chrom::new(3).to_string(), "chr3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Chrom(u8);

impl Chrom {
    /// The X sex chromosome (encoded as 23).
    pub const X: Chrom = Chrom(23);
    /// The Y sex chromosome (encoded as 24).
    pub const Y: Chrom = Chrom(24);

    /// Creates a chromosome identifier from its 1-based ordinal.
    ///
    /// # Panics
    ///
    /// Panics if `id == 0` (chromosome ordinals are 1-based).
    #[must_use]
    pub fn new(id: u8) -> Chrom {
        assert!(id != 0, "chromosome ordinals are 1-based");
        Chrom(id)
    }

    /// Raw `uint8_t` identifier as stored in the `CHR` column.
    #[must_use]
    pub fn id(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Chrom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Chrom::X => write!(f, "chrX"),
            Chrom::Y => write!(f, "chrY"),
            Chrom(n) => write!(f, "chr{n}"),
        }
    }
}

/// Mate (paired-end) information carried on a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MateInfo {
    /// Chromosome the mate aligned to.
    pub chr: Chrom,
    /// 0-based leftmost position of the mate.
    pub pos: u32,
    /// Unclipped 5′ key of the mate, used for pair-level duplicate keys.
    pub unclipped_five_prime: u32,
    /// Whether the mate is on the reverse strand.
    pub reverse: bool,
}

/// An aligned genomic read: one row of the paper's `READS` table.
///
/// Field layout mirrors paper Table I — `CHR`, `POS`, `ENDPOS` (derived),
/// `CIGAR`, `SEQ`, `QUAL` — plus the additional SAM-style fields the paper
/// notes it "handles appropriately" (§II): flags, mapping quality, read
/// group, mate info, and the NM/MD/UQ metadata tags populated by the
/// metadata-update stage.
///
/// # Examples
///
/// ```
/// use genesis_types::{Base, Chrom, Qual, ReadRecord};
///
/// let read = ReadRecord::builder("r1", Chrom::new(1), 6)
///     .cigar("7M1I5M".parse()?)
///     .seq(Base::seq_from_str("AGGTAACACGGTA")?)
///     .qual(vec![Qual::new(30)?; 13])
///     .build()?;
/// assert_eq!(read.end_pos(), 18);
/// # Ok::<(), genesis_types::TypeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRecord {
    /// Read name (template identifier).
    pub name: String,
    /// Chromosome this read aligned to.
    pub chr: Chrom,
    /// 0-based leftmost aligned position (`POS`).
    pub pos: u32,
    /// Mapping quality.
    pub mapq: u8,
    /// SAM-style flags.
    pub flags: ReadFlags,
    /// Alignment metadata.
    pub cigar: Cigar,
    /// Base-pair sequence (`SEQ`).
    pub seq: Vec<Base>,
    /// Quality-score sequence (`QUAL`), same length as `seq`.
    pub qual: Vec<Qual>,
    /// Read group ordinal (sequencing lane; BQSR covariate).
    pub read_group: u8,
    /// Mate information for paired-end data.
    pub mate: Option<MateInfo>,
    /// NM tag: number of mismatches+indel bases vs the reference, once computed.
    pub nm: Option<u32>,
    /// MD tag: mismatch/deletion summary string, once computed.
    pub md: Option<String>,
    /// UQ tag: sum of quality scores at mismatching bases, once computed.
    pub uq: Option<u32>,
}

impl ReadRecord {
    /// Starts building a read aligned at (`chr`, `pos`).
    #[must_use]
    pub fn builder(name: &str, chr: Chrom, pos: u32) -> ReadRecordBuilder {
        ReadRecordBuilder {
            record: ReadRecord {
                name: name.to_owned(),
                chr,
                pos,
                mapq: 60,
                flags: ReadFlags::empty(),
                cigar: Cigar::default(),
                seq: Vec::new(),
                qual: Vec::new(),
                read_group: 0,
                mate: None,
                nm: None,
                md: None,
                uq: None,
            },
        }
    }

    /// Exclusive rightmost reference position (`ENDPOS` in Table I).
    #[must_use]
    pub fn end_pos(&self) -> u32 {
        self.pos + self.cigar.ref_len()
    }

    /// Read length in bases (`LEN` in the paper; 151 for the evaluated set).
    #[must_use]
    pub fn len(&self) -> u32 {
        self.seq.len() as u32
    }

    /// True when the record carries no bases.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// The unclipped 5′-prime key position used by Mark Duplicates
    /// (paper §IV-B): leading clips subtracted for forward reads, trailing
    /// clips added to the end position for reverse reads.
    #[must_use]
    pub fn unclipped_five_prime(&self) -> u32 {
        if self.flags.is_reverse() {
            self.cigar.unclipped_end(self.pos)
        } else {
            self.cigar.unclipped_start(self.pos)
        }
    }

    /// Sum of all base quality scores (the Mark Duplicates tie-breaker the
    /// paper offloads to hardware, §IV-B).
    #[must_use]
    pub fn quality_sum(&self) -> u64 {
        self.qual.iter().map(|q| u64::from(q.value())).sum()
    }
}

/// Machine cycle of the base at `index` within a read's `SEQ`.
///
/// `SEQ` is stored in reference orientation; for a reverse-strand read the
/// sequencing machine read the fragment from the other end, so the base at
/// `SEQ[index]` was measured at cycle `read_len - 1 - index`.
#[must_use]
pub fn machine_cycle(index: u32, read_len: u32, reverse: bool) -> u32 {
    if reverse {
        read_len - 1 - index
    } else {
        index
    }
}

/// BQSR *cycle covariate* value for the base at `index` (paper §IV-D,
/// footnote 3: "additional cycle values are assigned for its reverse read",
/// giving 302 cycle values for 151-bp reads).
#[must_use]
pub fn cycle_covariate(index: u32, read_len: u32, reverse: bool) -> u32 {
    machine_cycle(index, read_len, reverse) + if reverse { read_len } else { 0 }
}

/// Builder for [`ReadRecord`] (see C-BUILDER).
#[derive(Debug)]
pub struct ReadRecordBuilder {
    record: ReadRecord,
}

impl ReadRecordBuilder {
    /// Sets the CIGAR.
    #[must_use]
    pub fn cigar(mut self, cigar: Cigar) -> Self {
        self.record.cigar = cigar;
        self
    }

    /// Sets the base sequence.
    #[must_use]
    pub fn seq(mut self, seq: Vec<Base>) -> Self {
        self.record.seq = seq;
        self
    }

    /// Sets the quality sequence.
    #[must_use]
    pub fn qual(mut self, qual: Vec<Qual>) -> Self {
        self.record.qual = qual;
        self
    }

    /// Sets the flags.
    #[must_use]
    pub fn flags(mut self, flags: ReadFlags) -> Self {
        self.record.flags = flags;
        self
    }

    /// Sets the mapping quality.
    #[must_use]
    pub fn mapq(mut self, mapq: u8) -> Self {
        self.record.mapq = mapq;
        self
    }

    /// Sets the read group (lane).
    #[must_use]
    pub fn read_group(mut self, rg: u8) -> Self {
        self.record.read_group = rg;
        self
    }

    /// Sets mate information.
    #[must_use]
    pub fn mate(mut self, mate: MateInfo) -> Self {
        self.record.mate = Some(mate);
        self
    }

    /// Finalizes the record.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::ShapeMismatch`] when `seq`/`qual` lengths differ
    /// or when a non-empty CIGAR's read length disagrees with `seq`.
    pub fn build(self) -> Result<ReadRecord, TypeError> {
        let r = self.record;
        if r.seq.len() != r.qual.len() {
            return Err(TypeError::ShapeMismatch(format!(
                "read {}: seq length {} != qual length {}",
                r.name,
                r.seq.len(),
                r.qual.len()
            )));
        }
        if !r.cigar.is_empty() && r.cigar.read_len() as usize != r.seq.len() {
            return Err(TypeError::ShapeMismatch(format!(
                "read {}: CIGAR consumes {} bases but seq has {}",
                r.name,
                r.cigar.read_len(),
                r.seq.len()
            )));
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cigar: &str, seq: &str, reverse: bool) -> ReadRecord {
        let cigar: Cigar = cigar.parse().unwrap();
        let seq = Base::seq_from_str(seq).unwrap();
        let n = seq.len();
        ReadRecord::builder("t", Chrom::new(1), 100)
            .cigar(cigar)
            .seq(seq)
            .qual(vec![Qual::new(25).unwrap(); n])
            .flags(ReadFlags::empty().with(ReadFlags::REVERSE, reverse))
            .build()
            .unwrap()
    }

    #[test]
    fn end_pos_uses_ref_len() {
        let r = sample("3S6M1D2M", "AGGTAACACGG", false);
        assert_eq!(r.end_pos(), 109);
    }

    #[test]
    fn unclipped_key_forward() {
        let r = sample("3S6M1D2M", "AGGTAACACGG", false);
        assert_eq!(r.unclipped_five_prime(), 97);
    }

    #[test]
    fn unclipped_key_reverse() {
        let r = sample("6M2S", "AGGTAACA", true);
        // end = 100 + 6, plus 2 trailing soft clips.
        assert_eq!(r.unclipped_five_prime(), 108);
    }

    #[test]
    fn quality_sum() {
        let r = sample("4M", "ACGT", false);
        assert_eq!(r.quality_sum(), 100);
    }

    #[test]
    fn builder_validates_lengths() {
        let res = ReadRecord::builder("bad", Chrom::new(1), 0)
            .cigar("5M".parse().unwrap())
            .seq(Base::seq_from_str("ACG").unwrap())
            .qual(vec![Qual::new(30).unwrap(); 3])
            .build();
        assert!(matches!(res, Err(TypeError::ShapeMismatch(_))));
    }

    #[test]
    fn chrom_display() {
        assert_eq!(Chrom::new(22).to_string(), "chr22");
        assert_eq!(Chrom::X.to_string(), "chrX");
        assert_eq!(Chrom::Y.to_string(), "chrY");
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn chrom_zero_panics() {
        let _ = Chrom::new(0);
    }

    #[test]
    fn machine_cycle_orientation() {
        assert_eq!(machine_cycle(0, 151, false), 0);
        assert_eq!(machine_cycle(0, 151, true), 150);
        assert_eq!(machine_cycle(150, 151, true), 0);
    }

    #[test]
    fn cycle_covariate_ranges() {
        // Forward reads use [0, L), reverse reads [L, 2L): 302 values for
        // 151-bp reads, matching the paper's footnote 3.
        assert_eq!(cycle_covariate(0, 151, false), 0);
        assert_eq!(cycle_covariate(150, 151, false), 150);
        assert_eq!(cycle_covariate(0, 151, true), 301);
        assert_eq!(cycle_covariate(150, 151, true), 151);
    }
}
