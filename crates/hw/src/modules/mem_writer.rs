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

/// One column of a multi-column [`MemWriter`]: the flit field it writes,
/// its region and its memory port.
#[derive(Debug, Clone)]
pub struct WriterColumn {
    /// Flit field written.
    pub field: usize,
    /// Region and element width.
    pub cfg: MemWriterConfig,
    /// The column's own memory port.
    pub port: PortId,
}

/// Consumes one flit per cycle, packing field 0 of each data flit into an
/// internal line buffer; a full (or final partial) line is written to
/// memory when arbitration permits.
///
/// A multi-column writer ([`MemWriter::columns`]) stores each of several
/// fields of the row in its own region through its own port. Each column
/// holds one full line pending beside the one filling, so one column's
/// lost write arbitration does not stall the row.
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
    /// A multi-column writer's columns; `None` for the one-column writer
    /// the fields above describe. Boxed, so that writer carries a
    /// pointer's worth of it.
    columns: Option<Box<[Lane]>>,
    elems_written: u64,
    row_lens: Vec<u32>,
    cur_row: u32,
    flushing: bool,
    done: bool,
}

/// One column of a multi-column writer: a line filling at `write_addr`,
/// and one full (or final) line waiting for its write at `pending_addr`.
#[derive(Debug)]
struct Lane {
    col: WriterColumn,
    line: Vec<u8>,
    write_addr: u64,
    pending: Vec<u8>,
    pending_addr: u64,
}

impl Lane {
    /// One write attempt: a full line — or, once `finishing`, the final
    /// partial one — moves to the free pending slot, and the pending line
    /// tries its write; a line behind a pending line just written then
    /// takes the freed slot.
    fn write_pending(&mut self, ctx: &mut Ctx<'_>, finishing: bool) {
        self.promote(finishing);
        if !self.pending.is_empty()
            && ctx.mem.try_write(self.col.port, self.pending_addr, &self.pending)
        {
            self.pending.clear();
            self.promote(finishing);
        }
    }

    /// Moves a ready line into the pending slot when it is free.
    fn promote(&mut self, finishing: bool) {
        let ready = self.line.len() >= LINE_BYTES || (finishing && !self.line.is_empty());
        if self.pending.is_empty() && ready {
            std::mem::swap(&mut self.pending, &mut self.line);
            self.pending_addr = self.write_addr;
            self.write_addr += self.pending.len() as u64;
        }
    }
}

/// Checks a writer region's alignment and element width.
fn check(cfg: &MemWriterConfig) {
    assert_eq!(cfg.base_addr % LINE_BYTES as u64, 0, "base address must be line-aligned");
    assert!(matches!(cfg.elem_bytes, 1 | 2 | 4 | 8), "element width must be 1/2/4/8");
}

/// Appends `w` to `line` as `elem_bytes` little-endian bytes. Sentinels
/// use the all-ones pattern (`Ins`) and all-ones-minus-one (`Del`).
#[inline]
fn append(line: &mut Vec<u8>, w: HwWord, elem_bytes: usize) {
    let mask = if elem_bytes == 8 { u64::MAX } else { (1u64 << (8 * elem_bytes)) - 1 };
    let v = match w {
        HwWord::Val(v) => v & mask,
        HwWord::Ins => mask,
        HwWord::Del => mask - 1,
        HwWord::Empty => 0,
    };
    line.extend_from_slice(&v.to_le_bytes()[..elem_bytes]);
}

impl MemWriter {
    /// Creates a writer.
    ///
    /// # Panics
    ///
    /// Panics on unaligned `base_addr` or unsupported `elem_bytes`.
    #[must_use]
    pub fn new(label: &str, cfg: MemWriterConfig, port: PortId, input: QueueId) -> MemWriter {
        check(&cfg);
        MemWriter {
            label: label.to_owned(),
            write_addr: cfg.base_addr,
            cfg,
            port,
            input,
            field: 0,
            line: Vec::with_capacity(LINE_BYTES),
            columns: None,
            elems_written: 0,
            row_lens: Vec::new(),
            cur_row: 0,
            flushing: false,
            done: false,
        }
    }

    /// Creates a writer storing each column's field of every row in that
    /// column's region: one module per row stream, however many columns
    /// it carries. [`MemWriter::elems_written`] and
    /// [`MemWriter::row_lens`] count rows, which every column shares.
    ///
    /// # Panics
    ///
    /// Panics when `cols` is empty, or on an unaligned base address or
    /// unsupported element width.
    #[must_use]
    pub fn columns(label: &str, cols: Vec<WriterColumn>, input: QueueId) -> MemWriter {
        let first = cols.first().expect("a writer needs at least one column").clone();
        let lanes = cols
            .into_iter()
            .map(|col| {
                check(&col.cfg);
                let write_addr = col.cfg.base_addr;
                let line = Vec::with_capacity(LINE_BYTES);
                Lane { col, line, write_addr, pending: Vec::new(), pending_addr: 0 }
            })
            .collect();
        let writer = MemWriter::new(label, first.cfg, first.port, input).with_field(first.field);
        MemWriter { columns: Some(lanes), ..writer }
    }

    /// Writes flit field `i` instead of field 0 (e.g. the value field of
    /// a drained `[index, value]` stream).
    #[must_use]
    pub fn with_field(mut self, i: usize) -> MemWriter {
        self.field = i;
        self
    }

    /// Total elements written so far (per column).
    #[must_use]
    pub fn elems_written(&self) -> u64 {
        self.elems_written
    }

    /// Per-item element counts observed on the stream.
    #[must_use]
    pub fn row_lens(&self) -> &[u32] {
        &self.row_lens
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

    /// The multi-column tick: each column makes at most one write attempt
    /// (its pending line), and the row is accepted unless some column
    /// still has a full line behind a pending one.
    fn tick_columns(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        let lanes = self.columns.as_deref_mut().expect("a multi-column writer");
        let finishing = ctx.queues.get(self.input).is_finished();
        let mut blocked = false;
        let mut pending = false;
        for lane in lanes.iter_mut() {
            lane.write_pending(ctx, finishing);
            blocked |= lane.line.len() >= LINE_BYTES;
            pending |= !lane.pending.is_empty() || (finishing && !lane.line.is_empty());
        }
        if finishing {
            if pending {
                return Tick::Active;
            }
            self.done = true;
            return Tick::Done;
        }
        if blocked {
            // A refused write counted an arbitration stall.
            return Tick::Active;
        }
        let Some(flit) = ctx.queues.get_mut(self.input).pop() else {
            // Input empty and still open: a pending line retries next
            // cycle; with none, every tick until a push is a no-op.
            return if pending { Tick::Active } else { Tick::PARK };
        };
        if flit.is_end_item() {
            self.row_lens.push(self.cur_row);
            self.cur_row = 0;
        } else {
            for lane in lanes.iter_mut() {
                append(&mut lane.line, flit.field(lane.col.field), lane.col.cfg.elem_bytes);
            }
            self.elems_written += 1;
            self.cur_row += 1;
        }
        Tick::Active
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
        if self.columns.is_some() {
            return self.tick_columns(ctx);
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
                append(&mut self.line, flit.field(self.field), self.cfg.elem_bytes);
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
