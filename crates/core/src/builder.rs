//! The manual pipeline-stitching API — the analog of composing Genesis
//! hardware library modules in Chisel (paper §III-C/III-D).

use genesis_hw::memory::LINE_BYTES;
use genesis_hw::modules::mem_reader::{MemReader, MemReaderConfig, RowSpec};
use genesis_hw::modules::mem_writer::{MemWriter, MemWriterConfig};
use genesis_hw::system::ModuleId;
use genesis_hw::{QueueId, System};
use std::sync::Arc;

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

    fn label(&self, name: &str) -> String {
        format!("p{}.{}", self.group, name)
    }

    /// Adds a namespaced queue.
    pub fn queue(&mut self, name: &str) -> QueueId {
        let label = self.label(name);
        self.sys.add_queue(&label)
    }

    /// Uploads a column to device memory and attaches a Memory Reader
    /// streaming it; returns the reader's output queue.
    pub fn upload_column(
        &mut self,
        name: &str,
        bytes: &[u8],
        elem_bytes: usize,
        rows: RowSpec,
    ) -> QueueId {
        let addr = self.sys.alloc_mem(bytes.len().max(1));
        self.sys.host_write(addr, bytes);
        let total_elems = (bytes.len() / elem_bytes) as u64;
        self.reader_at(name, addr, elem_bytes, total_elems, rows)
    }

    /// Uploads `vals` as a column of `elem_bytes`-wide little-endian
    /// elements (each value's low bytes) and attaches a Memory Reader
    /// streaming it. The values narrow straight into device memory, one
    /// stack-resident burst of lines at a time — no host-side staging
    /// buffer the size of the column.
    ///
    /// # Panics
    ///
    /// Panics on an element width the Memory Reader does not support.
    pub(crate) fn upload_values(
        &mut self,
        name: &str,
        vals: &[u64],
        elem_bytes: usize,
        rows: RowSpec,
    ) -> QueueId {
        /// Bytes narrowed per `host_write` burst (a whole number of
        /// elements at every supported width).
        const BURST_BYTES: usize = 16 * LINE_BYTES;
        fn narrow<const N: usize>(vals: &[u64], out: &mut [u8]) {
            for (&v, slot) in vals.iter().zip(out.chunks_exact_mut(N)) {
                slot.copy_from_slice(&v.to_le_bytes()[..N]);
            }
        }
        let addr = self.sys.alloc_mem((vals.len() * elem_bytes).max(1));
        let mut burst = [0u8; BURST_BYTES];
        let mut at = addr;
        for chunk in vals.chunks(BURST_BYTES / elem_bytes) {
            let out = &mut burst[..chunk.len() * elem_bytes];
            match elem_bytes {
                1 => narrow::<1>(chunk, out),
                2 => narrow::<2>(chunk, out),
                4 => narrow::<4>(chunk, out),
                8 => narrow::<8>(chunk, out),
                n => panic!("element width must be 1/2/4/8, got {n}"),
            }
            self.sys.host_write(at, out);
            at += out.len() as u64;
        }
        self.reader_at(name, addr, elem_bytes, vals.len() as u64, rows)
    }

    /// Attaches a Memory Reader to an existing allocation.
    pub fn reader_at(
        &mut self,
        name: &str,
        base_addr: u64,
        elem_bytes: usize,
        total_elems: u64,
        rows: RowSpec,
    ) -> QueueId {
        let out = self.queue(&format!("{name}.out"));
        let port = self.sys.register_mem_port(self.group);
        let label = self.label(name);
        self.sys.add_module(Box::new(MemReader::new(
            &label,
            MemReaderConfig { base_addr, elem_bytes, total_elems, rows },
            port,
            out,
        )));
        out
    }

    /// Allocates an output region and attaches a Memory Writer consuming
    /// `input`; returns (writer module id, base address) for readback.
    pub fn writer(
        &mut self,
        name: &str,
        input: QueueId,
        elem_bytes: usize,
        capacity_bytes: usize,
    ) -> (ModuleId, u64) {
        self.writer_with_field(name, input, elem_bytes, capacity_bytes, 0)
    }

    /// Like [`PipelineBuilder::writer`], writing flit field `field`.
    pub fn writer_with_field(
        &mut self,
        name: &str,
        input: QueueId,
        elem_bytes: usize,
        capacity_bytes: usize,
        field: usize,
    ) -> (ModuleId, u64) {
        let addr = self.sys.alloc_mem(capacity_bytes.max(1));
        let port = self.sys.register_mem_port(self.group);
        let label = self.label(name);
        let writer = MemWriter::new(
            &label,
            MemWriterConfig { base_addr: addr, elem_bytes },
            port,
            input,
        )
        .with_field(field);
        let id = self.sys.add_module(Box::new(writer));
        (id, addr)
    }

    /// Convenience for per-read variable-length row specs.
    #[must_use]
    pub fn rows_from_lens(lens: &[u32]) -> RowSpec {
        RowSpec::Lens(Arc::new(lens.to_vec()))
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
        let q = b.upload_column("qual", &[1, 2, 3, 4, 5, 6], 1, RowSpec::Fixed(3));
        let rq = b.queue("sums");
        let (writer, addr) = b.writer("out", rq, 8, 64);
        sys.add_module(Box::new(Reducer::new("sum", ReduceOp::Sum, 0, q, rq)));
        sys.run(100_000).unwrap();
        let sums = crate::columns::bytes_to_u64(&sys.host_read(addr, 16));
        assert_eq!(sums, vec![6, 15]);
        assert_eq!(sys.module_as::<MemWriter>(writer).unwrap().row_lens(), &[1, 1]);
    }

    #[test]
    fn groups_are_distinct_arbiter_domains() {
        let mut sys = System::new();
        let _ = PipelineBuilder::new(&mut sys, 0).upload_column("a", &[1], 1, RowSpec::None);
        let _ = PipelineBuilder::new(&mut sys, 5).upload_column("b", &[2], 1, RowSpec::None);
        // Registering under group 5 grows the arbiter table; the resource
        // report counts 6 pipelines' overhead.
        let report = sys.resource_report();
        assert!(report.total.luts > 0);
    }
}
