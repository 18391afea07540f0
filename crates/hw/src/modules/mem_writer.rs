//! Memory Writer: stores a stream into device memory (paper §III-C).

use super::{Ctx, Module, ModuleKind, Tick};
use crate::memory::{PortId, LINE_BYTES};
use crate::queue::QueueId;
use crate::word::HwWord;
use std::any::Any;

/// Memory Writer configuration.
#[derive(Debug, Clone)]
pub struct MemWriterConfig {
    /// Line-aligned base address to write to.
    pub base_addr: u64,
    /// Element width in bytes (1, 2, 4 or 8).
    pub elem_bytes: usize,
}

/// Consumes one flit per cycle, packing field 0 of each data flit into an
/// internal line buffer; a full (or final partial) line is written to
/// memory when arbitration permits.
///
/// The writer also records per-item element counts (`row_lens`) so the host
/// can parse variable-length outputs such as MD strings — in hardware this
/// bookkeeping would occupy a second output column.
#[derive(Debug)]
pub struct MemWriter {
    label: String,
    cfg: MemWriterConfig,
    port: PortId,
    input: QueueId,
    field: usize,
    line: Vec<u8>,
    write_addr: u64,
    elems_written: u64,
    row_lens: Vec<u32>,
    cur_row: u32,
    flushing: bool,
    done: bool,
}

impl MemWriter {
    /// Creates a writer.
    ///
    /// # Panics
    ///
    /// Panics on unaligned `base_addr` or unsupported `elem_bytes`.
    #[must_use]
    pub fn new(label: &str, cfg: MemWriterConfig, port: PortId, input: QueueId) -> MemWriter {
        assert_eq!(cfg.base_addr % LINE_BYTES as u64, 0, "base address must be line-aligned");
        assert!(matches!(cfg.elem_bytes, 1 | 2 | 4 | 8), "element width must be 1/2/4/8");
        MemWriter {
            label: label.to_owned(),
            write_addr: cfg.base_addr,
            cfg,
            port,
            input,
            field: 0,
            line: Vec::with_capacity(LINE_BYTES),
            elems_written: 0,
            row_lens: Vec::new(),
            cur_row: 0,
            flushing: false,
            done: false,
        }
    }

    /// Writes flit field `i` instead of field 0 (e.g. the value field of
    /// a drained `[index, value]` stream).
    #[must_use]
    pub fn with_field(mut self, i: usize) -> MemWriter {
        self.field = i;
        self
    }

    /// Total elements written so far.
    #[must_use]
    pub fn elems_written(&self) -> u64 {
        self.elems_written
    }

    /// Per-item element counts observed on the stream.
    #[must_use]
    pub fn row_lens(&self) -> &[u32] {
        &self.row_lens
    }

    /// Encodes a word into the element byte width. Sentinels use the
    /// all-ones pattern (`Ins`) and all-ones-minus-one (`Del`).
    fn encode(&self, w: HwWord) -> u64 {
        let mask = if self.cfg.elem_bytes == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * self.cfg.elem_bytes)) - 1
        };
        match w {
            HwWord::Val(v) => v & mask,
            HwWord::Ins => mask,
            HwWord::Del => mask - 1,
            HwWord::Empty => 0,
        }
    }

    fn try_flush(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if self.line.is_empty() {
            return true;
        }
        if ctx.mem.try_write(self.port, self.write_addr, &self.line) {
            self.write_addr += self.line.len() as u64;
            self.line.clear();
            true
        } else {
            false
        }
    }
}

impl Module for MemWriter {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::MemoryWriter
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Done;
        }
        if self.flushing {
            if self.try_flush(ctx) {
                self.flushing = false;
                self.done = true;
                return Tick::Done;
            }
            // A refused write counted an arbitration stall.
            return Tick::Active;
        }
        // A full line must drain before more elements are accepted.
        if self.line.len() >= LINE_BYTES && !self.try_flush(ctx) {
            return Tick::Active;
        }
        let q = ctx.queues.get_mut(self.input);
        if let Some(flit) = q.pop() {
            if flit.is_end_item() {
                self.row_lens.push(self.cur_row);
                self.cur_row = 0;
            } else {
                let v = self.encode(flit.field(self.field));
                let bytes = v.to_le_bytes();
                self.line.extend_from_slice(&bytes[..self.cfg.elem_bytes]);
                self.elems_written += 1;
                self.cur_row += 1;
            }
        } else if q.is_finished() {
            if self.try_flush(ctx) {
                self.done = true;
                return Tick::Done;
            } else {
                self.flushing = true;
            }
        } else {
            // Input empty and still open.
            return Tick::PARK;
        }
        Tick::Active
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn input_queues(&self) -> Vec<QueueId> {
        vec![self.input]
    }

    fn output_queues(&self) -> Vec<QueueId> {
        Vec::new()
    }
}
