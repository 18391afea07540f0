//! The manual pipeline-stitching API — the analog of composing Genesis
//! hardware library modules in Chisel (paper §III-C/III-D).

use genesis_hw::memory::LINE_BYTES;
use genesis_hw::modules::mem_reader::{
    MemReader, MemReaderConfig, ReaderColumn, RowReader, RowSpec,
};
use genesis_hw::modules::mem_writer::{MemWriter, MemWriterConfig, WriterColumn};
use genesis_hw::modules::spm_reader::{SpmReadMode, SpmReader};
use genesis_hw::modules::spm_updater::{SpmUpdateMode, SpmUpdater};
use genesis_hw::modules::Module;
use genesis_hw::system::ModuleId;
use genesis_hw::{QueueId, System};
use std::fmt::{Display, Write as _};
use std::sync::Arc;

/// Bytes a label's buffer starts with: every label of the shipped scripts
/// fits, so each is one allocation (a longer table or column name grows it
/// once).
const LABEL_CAPACITY: usize = 32;

/// A builder scoped to one pipeline instance within a [`System`]: it
/// assigns all memory ports of the pipeline to the same local-arbiter
/// group (paper Figure 8) and namespaces labels.
#[derive(Debug)]
pub struct PipelineBuilder<'s> {
    sys: &'s mut System,
    group: u32,
}

impl<'s> PipelineBuilder<'s> {
    /// Starts building pipeline instance `group` in `sys`.
    #[must_use]
    pub fn new(sys: &'s mut System, group: u32) -> PipelineBuilder<'s> {
        PipelineBuilder { sys, group }
    }

    /// The underlying system.
    #[must_use]
    pub fn system(&mut self) -> &mut System {
        self.sys
    }

    /// `name` namespaced: formatted once, into the string the queue or
    /// module keeps.
    fn label(&self, name: impl Display) -> String {
        let mut label = String::with_capacity(LABEL_CAPACITY);
        let _ = write!(label, "p{}.{name}", self.group);
        label
    }

    /// Adds a namespaced queue.
    pub fn queue(&mut self, name: impl Display) -> QueueId {
        let label = self.label(name);
        self.sys.add_queue(label)
    }

    /// Adds the module `make(label)`, `label` being `name` namespaced.
    pub(crate) fn module(
        &mut self,
        name: impl Display,
        make: impl FnOnce(String) -> Box<dyn Module>,
    ) -> ModuleId {
        let label = self.label(name);
        self.sys.add_module(make(label))
    }

    /// Uploads `vals` as a column of `elem_bytes`-wide little-endian
    /// elements (each value's low bytes) and attaches a Memory Reader
    /// streaming it; returns the reader's output queue. The values narrow
    /// straight into device memory, one stack-resident burst of lines at a
    /// time — no host-side staging buffer the size of the column.
    ///
    /// # Panics
    ///
    /// Panics on an element width the Memory Reader does not support.
    pub fn upload_column<T: Copy + Into<u64>>(
        &mut self,
        name: impl Display,
        vals: &[T],
        elem_bytes: usize,
        rows: RowSpec,
    ) -> QueueId {
        self.upload_parts(name, &[vals], elem_bytes, rows)
    }

    /// [`PipelineBuilder::upload_column`] of the concatenation of `parts`,
    /// each narrowing straight into device memory where the last ended.
    pub(crate) fn upload_parts<T: Copy + Into<u64>>(
        &mut self,
        name: impl Display,
        parts: &[&[T]],
        elem_bytes: usize,
        rows: RowSpec,
    ) -> QueueId {
        let (base_addr, total_elems) = self.write_parts(parts, elem_bytes);
        let out = self.queue(format_args!("{name}.out"));
        let port = self.sys.register_mem_port(self.group);
        let config = MemReaderConfig { base_addr, elem_bytes, total_elems, rows };
        self.module(name, |l| Box::new(MemReader::new(l, config, port, out)));
        out
    }

    /// Uploads each `(values, element bytes)` column, all of one length,
    /// into its own region behind its own port, and attaches one Memory
    /// Reader streaming their rows, column `i` in field `i`; returns the
    /// reader's output queue.
    ///
    /// # Panics
    ///
    /// Panics unless there are 2 to [`MAX_FIELDS`] columns of one length,
    /// or on an element width the Memory Reader does not support.
    ///
    /// [`MAX_FIELDS`]: genesis_hw::word::MAX_FIELDS
    pub(crate) fn upload_rows<T: Copy + Into<u64>>(
        &mut self,
        name: impl Display,
        cols: &[(&[T], usize)],
    ) -> QueueId {
        let rows = cols.first().map_or(0, |&(vals, _)| vals.len());
        let mut lanes = Vec::with_capacity(cols.len());
        for &(vals, elem_bytes) in cols {
            assert_eq!(vals.len(), rows, "the columns of one row reader have one length");
            let (base_addr, _) = self.write_parts(&[vals], elem_bytes);
            let port = self.sys.register_mem_port(self.group);
            lanes.push(ReaderColumn { base_addr, elem_bytes, port });
        }
        let out = self.queue(format_args!("{name}.out"));
        self.module(name, |l| Box::new(RowReader::new(l, lanes, rows as u64, out)));
        out
    }

    /// Narrows the concatenation of `parts` into a fresh device region of
    /// `elem_bytes`-wide little-endian elements (each value's low bytes),
    /// one stack-resident burst of lines at a time; returns the region's
    /// base address and element count.
    fn write_parts<T: Copy + Into<u64>>(
        &mut self,
        parts: &[&[T]],
        elem_bytes: usize,
    ) -> (u64, u64) {
        /// Bytes narrowed per `host_write` burst (a whole number of
        /// elements at every supported width).
        const BURST_BYTES: usize = 16 * LINE_BYTES;
        fn narrow<const N: usize, T: Copy + Into<u64>>(vals: &[T], out: &mut [u8]) {
            for (&v, slot) in vals.iter().zip(out.chunks_exact_mut(N)) {
                slot.copy_from_slice(&v.into().to_le_bytes()[..N]);
            }
        }
        let total_elems: usize = parts.iter().map(|p| p.len()).sum();
        let base_addr = self.sys.alloc_mem((total_elems * elem_bytes).max(1));
        let mut burst = [0u8; BURST_BYTES];
        let mut at = base_addr;
        for chunk in parts.iter().flat_map(|p| p.chunks(BURST_BYTES / elem_bytes)) {
            let out = &mut burst[..chunk.len() * elem_bytes];
            match elem_bytes {
                1 => narrow::<1, T>(chunk, out),
                2 => narrow::<2, T>(chunk, out),
                4 => narrow::<4, T>(chunk, out),
                8 => narrow::<8, T>(chunk, out),
                n => panic!("element width must be 1/2/4/8, got {n}"),
            }
            self.sys.host_write(at, out);
            at += out.len() as u64;
        }
        (base_addr, total_elems as u64)
    }

    /// The reference window (paper §III-D): each `(label, values, element
    /// bytes, packed bits)` column loads into its own scratchpad through a
    /// sequential SPM Updater fed by a Memory Reader, and one range-mode
    /// SPM Reader — gated on every load's done signal, so no read observes
    /// an uninitialized scratchpad — streams `[pos, col0[pos - base], …]`
    /// over each `[start, end)` pair, one delimited item per pair. Returns
    /// that stream.
    pub(crate) fn ref_window<T: Copy + Into<u64>>(
        &mut self,
        cols: &[(impl Display, &[T], usize, usize)],
        start: QueueId,
        end: QueueId,
        base: u64,
    ) -> QueueId {
        let mut spms = Vec::with_capacity(cols.len());
        let mut gates = Vec::with_capacity(cols.len());
        for &(ref label, vals, elem_bytes, bits) in cols {
            let stream = self.upload_column(label, vals, elem_bytes, RowSpec::None);
            let len = vals.len().max(1);
            let spm = self.sys.spms_mut().add_packed(format!("{label}.spm"), len, bits);
            let gate = self.queue(format_args!("{label}.gate"));
            let mode = SpmUpdateMode::Sequential { base: 0 };
            self.module(format_args!("{label}.load"), |l| {
                Box::new(SpmUpdater::new(l, spm, mode, 0, 0, stream).with_done_signal(gate))
            });
            spms.push(spm);
            gates.push(gate);
        }
        let refs = self.queue("refs");
        let range = SpmReadMode::Range { start, end };
        self.module("REF.range", |l| {
            Box::new(SpmReader::new(l, spms, range, base, refs).with_gates(gates))
        });
        refs
    }

    /// Allocates an output region and attaches a Memory Writer consuming
    /// `input`; returns (writer module id, base address) for readback.
    pub fn writer(
        &mut self,
        name: impl Display,
        input: QueueId,
        elem_bytes: usize,
        capacity_bytes: usize,
    ) -> (ModuleId, u64) {
        let (id, addrs) = self.row_writer(name, input, &[0], elem_bytes, capacity_bytes);
        (id, addrs[0])
    }

    /// Allocates one output region per field in `fields` and attaches one
    /// Memory Writer consuming `input`, storing each field as
    /// `elem_bytes`-wide elements through its own port; returns the writer
    /// module id and each column's base address, in `fields` order.
    pub(crate) fn row_writer(
        &mut self,
        name: impl Display,
        input: QueueId,
        fields: &[usize],
        elem_bytes: usize,
        capacity_bytes: usize,
    ) -> (ModuleId, Vec<u64>) {
        let mut addrs = Vec::with_capacity(fields.len());
        let mut cols = Vec::with_capacity(fields.len());
        for &field in fields {
            let base_addr = self.sys.alloc_mem(capacity_bytes.max(1));
            let port = self.sys.register_mem_port(self.group);
            addrs.push(base_addr);
            let cfg = MemWriterConfig { base_addr, elem_bytes };
            cols.push(WriterColumn { field, cfg, port });
        }
        let id = self.module(name, |l| Box::new(MemWriter::columns(l, cols, input)));
        (id, addrs)
    }

    /// Convenience for per-read variable-length row specs.
    #[must_use]
    pub fn rows_from_lens(lens: &[u32]) -> RowSpec {
        RowSpec::Lens(Arc::from(lens))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis_hw::modules::reducer::{ReduceOp, Reducer};
    use genesis_hw::modules::mem_writer::MemWriter;

    #[test]
    fn upload_reduce_writeback() {
        let mut sys = System::new();
        let mut b = PipelineBuilder::new(&mut sys, 0);
        let q = b.upload_column("qual", &[1u8, 2, 3, 4, 5, 6], 1, RowSpec::Fixed(3));
        let rq = b.queue("sums");
        let (writer, addr) = b.writer("out", rq, 8, 64);
        sys.add_module(Box::new(Reducer::new("sum", ReduceOp::Sum, 0, q, rq)));
        sys.run(100_000).unwrap();
        let sums = crate::columns::bytes_to_u64(sys.host_read(addr, 16));
        assert_eq!(sums, vec![6, 15]);
        assert_eq!(sys.module_as::<MemWriter>(writer).unwrap().row_lens(), &[1, 1]);
    }

    #[test]
    fn groups_are_distinct_arbiter_domains() {
        let mut sys = System::new();
        let _ = PipelineBuilder::new(&mut sys, 0).upload_column("a", &[1u8], 1, RowSpec::None);
        let _ = PipelineBuilder::new(&mut sys, 5).upload_column("b", &[2u8], 1, RowSpec::None);
        // Registering under group 5 grows the arbiter table; the resource
        // report counts 6 pipelines' overhead.
        let report = sys.resource_report();
        assert!(report.total.luts > 0);
    }
}
