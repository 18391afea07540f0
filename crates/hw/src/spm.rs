//! On-chip scratchpad memories (SPMs).
//!
//! The paper maps frequently-reused tables — the reference segment, the
//! `IS_SNP` bitmap, and the BQSR count buffers — onto on-chip scratchpads
//! "to facilitate data reuse" (§III-D), in contrast to Q100-style designs
//! that only use scratchpads as stream buffers (§VI).

/// Identifier of a scratchpad within an [`SpmPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpmId(u32);

impl SpmId {
    /// Raw index (stable for the lifetime of the pool).
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One scratchpad: a word-addressed on-chip buffer.
#[derive(Debug)]
pub struct Spm {
    name: String,
    data: Vec<u64>,
    /// Bits one element occupies in hardware (BRAM accounting; the paper's
    /// pipelines pack reference bases at 2 bits and SNP flags at 1 bit).
    bits_per_elem: usize,
    reads: u64,
    writes: u64,
}

impl Spm {
    /// Scratchpad name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the scratchpad has zero capacity.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Capacity in hardware bytes (packed).
    #[must_use]
    pub fn byte_size(&self) -> usize {
        (self.data.len() * self.bits_per_elem).div_ceil(8)
    }

    /// Reads element `idx` (0 for out-of-range reads, mirroring
    /// uninitialized BRAM tolerance; callers validate ranges upstream).
    #[inline]
    pub fn read(&mut self, idx: u64) -> u64 {
        self.reads += 1;
        self.data.get(idx as usize).copied().unwrap_or(0)
    }

    /// Writes element `idx`; out-of-range writes are dropped (and counted).
    #[inline]
    pub fn write(&mut self, idx: u64, value: u64) {
        self.writes += 1;
        if let Some(slot) = self.data.get_mut(idx as usize) {
            *slot = value;
        }
    }

    /// Zeroes the scratchpad contents.
    pub fn clear(&mut self) {
        self.data.fill(0);
    }

    /// Bulk host-side initialization (used by tests; pipelines initialize
    /// through the SPM Updater module).
    pub fn fill_from(&mut self, values: &[u64]) {
        for (i, &v) in values.iter().enumerate() {
            if i < self.data.len() {
                self.data[i] = v;
            }
        }
    }

    /// Immutable view of the contents.
    #[must_use]
    pub fn contents(&self) -> &[u64] {
        &self.data
    }

    /// Total read accesses.
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.reads
    }

    /// Total write accesses.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.writes
    }

    /// Packed element width in bits (tier page-geometry input).
    pub(crate) fn bits(&self) -> usize {
        self.bits_per_elem
    }
}

/// All scratchpads of a simulated system.
#[derive(Debug, Default)]
pub struct SpmPool {
    spms: Vec<Spm>,
    /// Tiered-memory paging state; `None` (the default) means every
    /// scratchpad is fully resident and accesses are free.
    pub(crate) tiers: Option<Box<crate::tier::TierState>>,
    /// Element vectors of a reset system's scratchpads
    /// ([`SpmPool::recycle`]), the next scratchpad's last.
    spare: Vec<Vec<u64>>,
}

impl SpmPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> SpmPool {
        SpmPool::default()
    }

    /// Adds a scratchpad of `len` elements, each `elem_bytes` wide in
    /// hardware.
    ///
    /// # Panics
    ///
    /// Panics when `elem_bytes` is 0 or greater than 8.
    pub fn add(&mut self, name: impl Into<String>, len: usize, elem_bytes: usize) -> SpmId {
        assert!((1..=8).contains(&elem_bytes), "element width must be 1..=8 bytes");
        self.add_packed(name, len, elem_bytes * 8)
    }

    /// Adds a scratchpad with sub-byte element packing (e.g. 2-bit bases,
    /// 1-bit SNP flags).
    ///
    /// # Panics
    ///
    /// Panics when `bits_per_elem` is 0 or greater than 64.
    pub fn add_packed(
        &mut self,
        name: impl Into<String>,
        len: usize,
        bits_per_elem: usize,
    ) -> SpmId {
        assert!((1..=64).contains(&bits_per_elem), "element width must be 1..=64 bits");
        let data = match self.spare.iter().rposition(|v| v.capacity() >= len) {
            Some(i) => {
                let mut v = self.spare.swap_remove(i);
                v.clear();
                v.resize(len, 0);
                v
            }
            None => {
                // A vector too small makes way, so the spares never
                // outnumber the scratchpads one system had.
                self.spare.pop();
                vec![0; len]
            }
        };
        self.spms.push(Spm {
            name: name.into(),
            data,
            bits_per_elem,
            reads: 0,
            writes: 0,
        });
        SpmId(self.spms.len() as u32 - 1)
    }

    /// Keeps `old`'s element vectors, in the order `old` added their
    /// scratchpads, and its list's capacity for the scratchpads this
    /// empty pool adds next; each is zeroed when it is handed out.
    /// Nothing else of `old` survives: its tiers are dropped.
    pub(crate) fn recycle(&mut self, old: SpmPool) {
        debug_assert!(self.spms.is_empty(), "recycle into an empty pool");
        let SpmPool { mut spms, mut spare, .. } = old;
        spare.extend(spms.drain(..).rev().map(|s| s.data));
        (self.spms, self.spare) = (spms, spare);
    }

    /// Borrows a scratchpad.
    #[must_use]
    #[inline]
    pub fn get(&self, id: SpmId) -> &Spm {
        &self.spms[id.0 as usize]
    }

    /// Mutably borrows a scratchpad.
    #[must_use]
    #[inline]
    pub fn get_mut(&mut self, id: SpmId) -> &mut Spm {
        &mut self.spms[id.0 as usize]
    }

    /// Total bytes across all scratchpads (BRAM demand).
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.spms.iter().map(Spm::byte_size).sum()
    }

    /// Iterates the scratchpads in creation (id) order.
    pub fn iter(&self) -> impl Iterator<Item = &Spm> {
        self.spms.iter()
    }

    /// Number of scratchpads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spms.len()
    }

    /// True when the pool is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut pool = SpmPool::new();
        let id = pool.add("ref", 16, 1);
        pool.get_mut(id).write(3, 42);
        assert_eq!(pool.get_mut(id).read(3), 42);
        assert_eq!(pool.get_mut(id).read(4), 0);
    }

    #[test]
    fn out_of_range_is_tolerated() {
        let mut pool = SpmPool::new();
        let id = pool.add("x", 4, 8);
        pool.get_mut(id).write(100, 1);
        assert_eq!(pool.get_mut(id).read(100), 0);
    }

    #[test]
    fn byte_size_uses_element_width() {
        let mut pool = SpmPool::new();
        pool.add("a", 1000, 1);
        pool.add("b", 100, 8);
        assert_eq!(pool.total_bytes(), 1000 + 800);
    }

    #[test]
    fn access_counters() {
        let mut pool = SpmPool::new();
        let id = pool.add("x", 4, 4);
        pool.get_mut(id).write(0, 1);
        pool.get_mut(id).read(0);
        pool.get_mut(id).read(1);
        assert_eq!(pool.get(id).total_writes(), 1);
        assert_eq!(pool.get(id).total_reads(), 2);
    }

    #[test]
    fn clear_zeroes() {
        let mut pool = SpmPool::new();
        let id = pool.add("x", 4, 4);
        pool.get_mut(id).write(2, 9);
        pool.get_mut(id).clear();
        assert_eq!(pool.get_mut(id).read(2), 0);
    }

    #[test]
    #[should_panic(expected = "element width")]
    fn bad_width_panics() {
        SpmPool::new().add("x", 4, 9);
    }

    #[test]
    fn packed_accounting() {
        let mut pool = SpmPool::new();
        // 1 Mbp of 2-bit bases = 250 kB; 1 Mbp of SNP bits = 125 kB.
        pool.add_packed("ref", 1_000_000, 2);
        pool.add_packed("snp", 1_000_000, 1);
        assert_eq!(pool.total_bytes(), 250_000 + 125_000);
    }
}
