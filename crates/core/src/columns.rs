//! Host-side column marshalling: flattening read records into the
//! device-memory layouts the memory readers stream.

use genesis_types::{ReadRecord, TypeError};

/// The flattened column buffers for a batch of reads — the concrete layout
/// behind the paper's `configure_mem(addr, elemsize, len, colname, …)`
/// calls (§III-E).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadColumns {
    /// `READS.POS`, one `u32` per read.
    pub pos: Vec<u32>,
    /// `READS.ENDPOS`, one `u32` per read.
    pub endpos: Vec<u32>,
    /// `READS.CIGAR`: packed 16-bit elements, concatenated.
    pub cigar: Vec<u16>,
    /// Per-read CIGAR element counts.
    pub cigar_lens: Vec<u32>,
    /// `READS.SEQ`: base codes, concatenated.
    pub seq: Vec<u8>,
    /// Per-read sequence lengths (shared by `SEQ` and `QUAL`).
    pub seq_lens: Vec<u32>,
    /// `READS.QUAL`: Phred values, concatenated.
    pub qual: Vec<u8>,
    /// Reverse-strand flag per read (BQSR cycle covariate input).
    pub flags: Vec<u8>,
}

impl ReadColumns {
    /// Flattens a slice of reads.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::InvalidCigar`] if a CIGAR cannot be packed.
    pub fn from_reads<'a, I>(reads: I) -> Result<ReadColumns, TypeError>
    where
        I: IntoIterator<Item = &'a ReadRecord>,
    {
        let mut c = ReadColumns::default();
        for r in reads {
            c.pos.push(r.pos);
            c.endpos.push(r.end_pos());
            let packed = r.cigar.pack()?;
            c.cigar_lens.push(packed.len() as u32);
            c.cigar.extend(packed);
            c.seq_lens.push(r.seq.len() as u32);
            c.seq.extend(r.seq.iter().map(|b| b.code()));
            c.qual.extend(r.qual.iter().map(|q| q.value()));
            c.flags.push(u8::from(r.flags.is_reverse()));
        }
        Ok(c)
    }

    /// Total payload bytes (the host→device DMA volume for these columns).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        (self.pos.len() * 4
            + self.endpos.len() * 4
            + self.cigar.len() * 2
            + self.cigar_lens.len() * 4
            + self.seq.len()
            + self.seq_lens.len() * 4
            + self.qual.len()
            + self.flags.len()) as u64
    }
}

/// Parses little-endian `u32` values out of device bytes.
#[must_use]
pub fn bytes_to_u32(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Parses little-endian `u64` values out of device bytes.
#[must_use]
pub fn bytes_to_u64(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis_types::{Base, Chrom, Qual, ReadFlags};

    fn read(pos: u32, cigar: &str, reverse: bool) -> ReadRecord {
        let cigar: genesis_types::Cigar = cigar.parse().unwrap();
        let n = cigar.read_len() as usize;
        ReadRecord::builder("r", Chrom::new(1), pos)
            .cigar(cigar)
            .seq(vec![Base::C; n])
            .qual(vec![Qual::new(30).unwrap(); n])
            .flags(ReadFlags::empty().with(ReadFlags::REVERSE, reverse))
            .build()
            .unwrap()
    }

    #[test]
    fn flatten_layout() {
        let reads = vec![read(5, "3M", false), read(9, "2M1I1M", true)];
        let c = ReadColumns::from_reads(&reads).unwrap();
        assert_eq!(c.pos, vec![5, 9]);
        assert_eq!(c.endpos, vec![8, 12]);
        assert_eq!(c.cigar_lens, vec![1, 3]);
        assert_eq!(c.seq_lens, vec![3, 4]);
        assert_eq!(c.seq.len(), 7);
        assert_eq!(c.qual.len(), 7);
        assert_eq!(c.flags, vec![0, 1]);
        assert!(c.total_bytes() > 0);
    }

    #[test]
    fn byte_decoding() {
        assert_eq!(bytes_to_u32(&[1, 0, 0, 0, 0xf4, 1, 0, 0]), vec![1, 500]);
        assert_eq!(bytes_to_u64(&42u64.to_le_bytes()), vec![42]);
    }
}
