//! CIGAR alignment metadata (Concise Idiosyncratic Gapped Alignment Report).

use crate::error::TypeError;
use std::fmt;
use std::str::FromStr;

/// A single CIGAR operation type (paper §II).
///
/// The paper's pipelines use `M` (aligned), `I` (inserted), `D` (deleted) and
/// `S` (soft-clipped). The remaining SAM operations are supported so that
/// records from other aligners can be represented; the Genesis data-path
/// treats `=`/`X` as `M` and `N` as `D`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CigarOp {
    /// Alignment match or mismatch (`M`). Consumes read and reference.
    Match,
    /// Insertion relative to the reference (`I`). Consumes read only.
    Ins,
    /// Deletion relative to the reference (`D`). Consumes reference only.
    Del,
    /// Soft clip (`S`). Consumes read only; bases present but unaligned.
    SoftClip,
    /// Hard clip (`H`). Consumes neither; bases absent from the record.
    HardClip,
    /// Skipped reference region (`N`). Consumes reference only.
    RefSkip,
    /// Sequence match (`=`). Consumes read and reference.
    SeqMatch,
    /// Sequence mismatch (`X`). Consumes read and reference.
    SeqMismatch,
}

impl CigarOp {
    /// True when the operation consumes bases from the read sequence.
    #[must_use]
    pub fn consumes_read(self) -> bool {
        matches!(
            self,
            CigarOp::Match | CigarOp::Ins | CigarOp::SoftClip | CigarOp::SeqMatch | CigarOp::SeqMismatch
        )
    }

    /// True when the operation consumes positions on the reference.
    #[must_use]
    pub fn consumes_ref(self) -> bool {
        matches!(
            self,
            CigarOp::Match | CigarOp::Del | CigarOp::RefSkip | CigarOp::SeqMatch | CigarOp::SeqMismatch
        )
    }

    /// Returns the canonical SAM character for this operation.
    #[must_use]
    pub fn to_char(self) -> char {
        match self {
            CigarOp::Match => 'M',
            CigarOp::Ins => 'I',
            CigarOp::Del => 'D',
            CigarOp::SoftClip => 'S',
            CigarOp::HardClip => 'H',
            CigarOp::RefSkip => 'N',
            CigarOp::SeqMatch => '=',
            CigarOp::SeqMismatch => 'X',
        }
    }

    /// Small integer code used by the `uint16_t` CIGAR column encoding
    /// (paper Table I packs op type + run length into 16 bits).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            CigarOp::Match => 0,
            CigarOp::Ins => 1,
            CigarOp::Del => 2,
            CigarOp::SoftClip => 3,
            CigarOp::HardClip => 4,
            CigarOp::RefSkip => 5,
            CigarOp::SeqMatch => 6,
            CigarOp::SeqMismatch => 7,
        }
    }
}

impl TryFrom<char> for CigarOp {
    type Error = TypeError;

    fn try_from(c: char) -> Result<CigarOp, TypeError> {
        Ok(match c {
            'M' => CigarOp::Match,
            'I' => CigarOp::Ins,
            'D' => CigarOp::Del,
            'S' => CigarOp::SoftClip,
            'H' => CigarOp::HardClip,
            'N' => CigarOp::RefSkip,
            '=' => CigarOp::SeqMatch,
            'X' => CigarOp::SeqMismatch,
            other => return Err(TypeError::InvalidCigarOp(other)),
        })
    }
}

impl fmt::Display for CigarOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// The operations by [`CigarOp::code`]: every 3-bit code is one.
const CODE_OPS: [CigarOp; 8] = [
    CigarOp::Match,
    CigarOp::Ins,
    CigarOp::Del,
    CigarOp::SoftClip,
    CigarOp::HardClip,
    CigarOp::RefSkip,
    CigarOp::SeqMatch,
    CigarOp::SeqMismatch,
];

/// One `(run length, operation)` element of a CIGAR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CigarElem {
    /// Number of consecutive bases/positions the operation applies to.
    pub len: u32,
    /// The operation type.
    pub op: CigarOp,
}

impl CigarElem {
    /// Creates an element. Run lengths of zero are permitted only transiently
    /// while building; [`Cigar::new`] rejects them.
    #[must_use]
    pub fn new(len: u32, op: CigarOp) -> CigarElem {
        CigarElem { len, op }
    }

    /// Packs this element into the paper's 16-bit column encoding:
    /// 3-bit op code in the high bits, 13-bit run length below.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::InvalidCigar`] when `len` exceeds 13 bits
    /// (8191), which cannot occur for short reads.
    pub fn pack(self) -> Result<u16, TypeError> {
        if self.len >= (1 << 13) {
            return Err(TypeError::InvalidCigar(format!(
                "run length {} exceeds 13-bit packed encoding",
                self.len
            )));
        }
        Ok((u16::from(self.op.code()) << 13) | self.len as u16)
    }

    /// Unpacks a 16-bit element produced by [`CigarElem::pack`]. Every
    /// 16-bit value is one: its top 3 bits are always an op code.
    #[must_use]
    pub fn unpack(packed: u16) -> CigarElem {
        CigarElem { len: u32::from(packed & 0x1fff), op: CODE_OPS[usize::from(packed >> 13)] }
    }
}

impl fmt::Display for CigarElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.len, self.op)
    }
}

/// A CIGAR string: the alignment metadata attached to each aligned read.
///
/// # Examples
///
/// Paper Figure 2, Read 2 has CIGAR `3S6M1D2M`:
///
/// ```
/// use genesis_types::{Cigar, CigarOp};
///
/// let cigar: Cigar = "3S6M1D2M".parse()?;
/// assert_eq!(cigar.read_len(), 11);   // 3 clipped + 6 aligned + 2 aligned
/// assert_eq!(cigar.ref_len(), 9);     // 6 M + 1 D + 2 M
/// assert_eq!(cigar.leading_clip(), 3);
/// assert_eq!(cigar.trailing_clip(), 0);
/// # Ok::<(), genesis_types::TypeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Cigar(Vec<CigarElem>);

impl Cigar {
    /// Creates a CIGAR from elements, validating that no element has a zero
    /// run length.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::InvalidCigar`] if any element has `len == 0`.
    pub fn new(elems: Vec<CigarElem>) -> Result<Cigar, TypeError> {
        if elems.iter().any(|e| e.len == 0) {
            return Err(TypeError::InvalidCigar("zero-length element".to_owned()));
        }
        Ok(Cigar(elems))
    }

    /// Returns the elements in order.
    #[must_use]
    pub fn elems(&self) -> &[CigarElem] {
        &self.0
    }

    /// Iterates over `(len, op)` elements.
    pub fn iter(&self) -> std::slice::Iter<'_, CigarElem> {
        self.0.iter()
    }

    /// Number of read bases this alignment consumes (length of `SEQ`).
    #[must_use]
    pub fn read_len(&self) -> u32 {
        self.0.iter().filter(|e| e.op.consumes_read()).map(|e| e.len).sum()
    }

    /// Number of reference positions this alignment spans.
    #[must_use]
    pub fn ref_len(&self) -> u32 {
        self.0.iter().filter(|e| e.op.consumes_ref()).map(|e| e.len).sum()
    }

    /// Number of soft-clipped bases at the start of the read.
    #[must_use]
    pub fn leading_clip(&self) -> u32 {
        self.0
            .iter()
            .take_while(|e| matches!(e.op, CigarOp::SoftClip | CigarOp::HardClip))
            .filter(|e| e.op == CigarOp::SoftClip)
            .map(|e| e.len)
            .sum()
    }

    /// Number of soft-clipped bases at the end of the read.
    #[must_use]
    pub fn trailing_clip(&self) -> u32 {
        self.0
            .iter()
            .rev()
            .take_while(|e| matches!(e.op, CigarOp::SoftClip | CigarOp::HardClip))
            .filter(|e| e.op == CigarOp::SoftClip)
            .map(|e| e.len)
            .sum()
    }

    /// The *unclipped 5′ start*: `pos` minus leading soft clips. Used as the
    /// Mark Duplicates key for forward reads (paper §IV-B).
    ///
    /// Saturates at zero when clips would precede the chromosome start.
    #[must_use]
    pub fn unclipped_start(&self, pos: u32) -> u32 {
        pos.saturating_sub(self.leading_clip())
    }

    /// The *unclipped 5′ end* for reverse reads: the exclusive end position
    /// plus trailing soft clips (paper §IV-B, footnote 1).
    #[must_use]
    pub fn unclipped_end(&self, pos: u32) -> u32 {
        pos + self.ref_len() + self.trailing_clip()
    }

    /// Packs all elements into the `uint16_t[CLEN]` column encoding.
    ///
    /// # Errors
    ///
    /// Propagates [`TypeError::InvalidCigar`] from [`CigarElem::pack`].
    pub fn pack(&self) -> Result<Vec<u16>, TypeError> {
        self.0.iter().map(|e| e.pack()).collect()
    }

    /// Reconstructs a CIGAR from its packed column encoding.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::InvalidCigar`] for an element of run length 0.
    pub fn unpack(packed: &[u16]) -> Result<Cigar, TypeError> {
        Cigar::new(packed.iter().map(|&p| CigarElem::unpack(p)).collect())
    }

    /// True when the CIGAR has no elements (an unmapped read).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

impl FromStr for Cigar {
    type Err = TypeError;

    fn from_str(s: &str) -> Result<Cigar, TypeError> {
        if s == "*" || s.is_empty() {
            return Ok(Cigar(Vec::new()));
        }
        let mut elems = Vec::new();
        let mut run: u64 = 0;
        let mut saw_digit = false;
        for c in s.chars() {
            if let Some(d) = c.to_digit(10) {
                saw_digit = true;
                run = run * 10 + u64::from(d);
                if run > u64::from(u32::MAX) {
                    return Err(TypeError::InvalidCigar(format!("run overflow in {s:?}")));
                }
            } else {
                if !saw_digit {
                    return Err(TypeError::InvalidCigar(format!("missing run length in {s:?}")));
                }
                let op = CigarOp::try_from(c)?;
                elems.push(CigarElem::new(run as u32, op));
                run = 0;
                saw_digit = false;
            }
        }
        if saw_digit {
            return Err(TypeError::InvalidCigar(format!("trailing run length in {s:?}")));
        }
        Cigar::new(elems)
    }
}

impl fmt::Display for Cigar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "*");
        }
        for e in &self.0 {
            write!(f, "{}{}", e.len, e.op)?;
        }
        Ok(())
    }
}

impl FromIterator<CigarElem> for Cigar {
    /// Collects elements, silently dropping zero-length ones and merging
    /// adjacent elements with the same operation (convenient for builders).
    fn from_iter<I: IntoIterator<Item = CigarElem>>(iter: I) -> Cigar {
        let mut out: Vec<CigarElem> = Vec::new();
        for e in iter {
            if e.len == 0 {
                continue;
            }
            if let Some(last) = out.last_mut() {
                if last.op == e.op {
                    last.len += e.len;
                    continue;
                }
            }
            out.push(e);
        }
        Cigar(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_read1() {
        // Figure 2, Read 1: (7M, 1I, 5M).
        let c: Cigar = "7M1I5M".parse().unwrap();
        assert_eq!(c.read_len(), 13);
        assert_eq!(c.ref_len(), 12);
        assert_eq!(c.leading_clip(), 0);
        assert_eq!(c.to_string(), "7M1I5M");
    }

    #[test]
    fn parse_paper_read2() {
        // Figure 2, Read 2: (3S, 6M, 1D, 2M).
        let c: Cigar = "3S6M1D2M".parse().unwrap();
        assert_eq!(c.read_len(), 11);
        assert_eq!(c.ref_len(), 9);
        assert_eq!(c.leading_clip(), 3);
        // Markdup key: 5' unclipped start is pos - 3.
        assert_eq!(c.unclipped_start(10), 7);
        assert_eq!(c.unclipped_start(2), 0); // saturates
    }

    #[test]
    fn unclipped_end_adds_trailing_clip() {
        let c: Cigar = "6M2S".parse().unwrap();
        assert_eq!(c.unclipped_end(100), 108);
    }

    #[test]
    fn reject_malformed() {
        assert!("M7".parse::<Cigar>().is_err());
        assert!("7".parse::<Cigar>().is_err());
        assert!("7Q".parse::<Cigar>().is_err());
        assert!("0M".parse::<Cigar>().is_err());
    }

    #[test]
    fn star_is_empty() {
        let c: Cigar = "*".parse().unwrap();
        assert!(c.is_empty());
        assert_eq!(c.to_string(), "*");
    }

    #[test]
    fn pack_roundtrip() {
        let c: Cigar = "3S6M1D2M1I4=2X".parse().unwrap();
        let packed = c.pack().unwrap();
        assert_eq!(Cigar::unpack(&packed).unwrap(), c);
    }

    #[test]
    fn pack_rejects_huge_runs() {
        let e = CigarElem::new(10_000, CigarOp::Match);
        assert!(e.pack().is_err());
    }

    #[test]
    fn from_iter_merges_and_drops() {
        let c: Cigar = [
            CigarElem::new(3, CigarOp::Match),
            CigarElem::new(0, CigarOp::Ins),
            CigarElem::new(4, CigarOp::Match),
            CigarElem::new(2, CigarOp::Del),
        ]
        .into_iter()
        .collect();
        assert_eq!(c.to_string(), "7M2D");
    }

    #[test]
    fn hard_clips_do_not_count_as_soft() {
        let c: Cigar = "2H3S5M".parse().unwrap();
        assert_eq!(c.leading_clip(), 3);
        assert_eq!(c.read_len(), 8);
    }
}
