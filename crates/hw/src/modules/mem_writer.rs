//! Memory Writer: stores a stream into device memory (paper §III-C).

use super::{Ctx, Module, ModuleKind, Tick};
use crate::memory::{PortId, LINE_BYTES};
use crate::queue::QueueId;
use crate::resource::{module_cost, ResourceUsage};
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

/// One column of a [`MemWriter`]: the flit field it writes, its region
/// and its memory port.
#[derive(Debug, Clone)]
pub struct WriterColumn {
    /// Flit field written.
    pub field: usize,
    /// Region and element width.
    pub cfg: MemWriterConfig,
    /// The column's own memory port.
    pub port: PortId,
}

/// Consumes one flit per cycle and stores fields of each data flit into
/// device memory: field 0 through one lane ([`MemWriter::new`]), or each
/// of several fields in its own region through its own port
/// ([`MemWriter::columns`]). A lane packs its field into a line buffer and
/// holds one full line pending beside the one filling, so one lane's lost
/// write arbitration does not stall the row.
///
/// The writer also records per-item element counts (`row_lens`) so the host
/// can parse variable-length outputs such as MD strings — in hardware this
/// bookkeeping would occupy a second output column.
#[derive(Debug)]
pub struct MemWriter {
    label: String,
    input: QueueId,
    lanes: Box<[Lane]>,
    elems_written: u64,
    row_lens: Vec<u32>,
    cur_row: u32,
    done: bool,
}

/// One column of a writer: a line filling, to be written at `write_addr`,
/// and one full (or final) line waiting for its write just below it. Both
/// are fixed line buffers in the lane itself, as in hardware.
#[derive(Debug)]
struct Lane {
    col: WriterColumn,
    /// The line filling: its first `fill` bytes.
    line: [u8; LINE_BYTES],
    fill: usize,
    write_addr: u64,
    /// The line waiting for its write: its first `pending` bytes (none
    /// when 0).
    held: [u8; LINE_BYTES],
    pending: usize,
}

impl Lane {
    fn new(col: WriterColumn) -> Lane {
        let write_addr = col.cfg.base_addr;
        assert_eq!(write_addr % LINE_BYTES as u64, 0, "base address must be line-aligned");
        assert!(matches!(col.cfg.elem_bytes, 1 | 2 | 4 | 8), "element width must be 1/2/4/8");
        Lane { col, line: [0; LINE_BYTES], fill: 0, write_addr, held: [0; LINE_BYTES], pending: 0 }
    }

    /// One write attempt: the pending line's, or else a full line's — or,
    /// once `finishing`, the final partial one's. A refused line takes the
    /// pending slot; a ready line behind a pending line just written takes
    /// the freed slot without a write of its own. Returns whether it made
    /// an attempt, which reaches memory even when refused (the refusal
    /// counts an arbitration stall).
    fn write_pending(&mut self, ctx: &mut Ctx<'_>, finishing: bool) -> bool {
        if self.pending > 0 {
            let addr = self.write_addr - self.pending as u64;
            if ctx.mem.try_write(self.col.port, addr, &self.held[..self.pending]) {
                self.pending = 0;
                self.promote(finishing);
            }
            true
        } else if self.ready(finishing) {
            if ctx.mem.try_write(self.col.port, self.write_addr, &self.line[..self.fill]) {
                self.write_addr += self.fill as u64;
                self.fill = 0;
            } else {
                self.promote(finishing);
            }
            true
        } else {
            false
        }
    }

    /// A full line, or once `finishing` a partial one, is ready to write.
    fn ready(&self, finishing: bool) -> bool {
        self.fill >= LINE_BYTES || (finishing && self.fill > 0)
    }

    /// Moves a ready line into the free pending slot.
    fn promote(&mut self, finishing: bool) {
        if self.ready(finishing) {
            self.held = self.line;
            self.pending = self.fill;
            self.fill = 0;
            self.write_addr += self.pending as u64;
        }
    }

    /// Appends `w` to the filling line as `elem_bytes` little-endian bytes.
    /// Sentinels use the all-ones pattern (`Ins`) and all-ones-minus-one
    /// (`Del`).
    #[inline]
    fn append(&mut self, w: HwWord) {
        let elem_bytes = self.col.cfg.elem_bytes;
        let mask = if elem_bytes == 8 { u64::MAX } else { (1u64 << (8 * elem_bytes)) - 1 };
        let v = match w {
            HwWord::Val(v) => v & mask,
            HwWord::Ins => mask,
            HwWord::Del => mask - 1,
            HwWord::Empty => 0,
        };
        let slot = &mut self.line[self.fill..self.fill + elem_bytes];
        slot.copy_from_slice(&v.to_le_bytes()[..elem_bytes]);
        self.fill += elem_bytes;
    }
}

impl MemWriter {
    /// Creates a one-lane writer storing field 0 of every row.
    ///
    /// # Panics
    ///
    /// Panics on unaligned `base_addr` or unsupported `elem_bytes`.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        cfg: MemWriterConfig,
        port: PortId,
        input: QueueId,
    ) -> MemWriter {
        MemWriter::columns(label, vec![WriterColumn { field: 0, cfg, port }], input)
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
    pub fn columns(label: impl Into<String>, cols: Vec<WriterColumn>, input: QueueId) -> MemWriter {
        assert!(!cols.is_empty(), "a writer needs at least one column");
        MemWriter {
            label: label.into(),
            input,
            lanes: cols.into_iter().map(Lane::new).collect(),
            elems_written: 0,
            row_lens: Vec::new(),
            cur_row: 0,
            done: false,
        }
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
}

impl Module for MemWriter {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::MemoryWriter
    }

    fn resources(&self) -> ResourceUsage {
        module_cost(self.kind()).times(self.lanes.len() as u64)
    }

    /// Each lane makes at most one write attempt (its pending line), and
    /// the row is accepted unless some lane still has a full line behind
    /// a pending one.
    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Done;
        }
        let finishing = ctx.queues.get(self.input).is_finished();
        let mut blocked = false;
        let mut pending = false;
        let mut wrote = false;
        for lane in &mut *self.lanes {
            wrote |= lane.write_pending(ctx, finishing);
            blocked |= lane.fill >= LINE_BYTES;
            pending |= lane.pending > 0 || (finishing && lane.fill > 0);
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
            // cycle; with none, every tick until a push is a no-op — from
            // the next one on, when this one reached memory.
            return if pending || wrote { Tick::Active } else { Tick::PARK };
        };
        if flit.is_end_item() {
            self.row_lens.push(self.cur_row);
            self.cur_row = 0;
        } else {
            for lane in &mut *self.lanes {
                lane.append(flit.field(lane.col.field));
            }
            self.elems_written += 1;
            self.cur_row += 1;
        }
        Tick::Active
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn input_queues(&self, out: &mut Vec<QueueId>) {
        out.push(self.input);
    }
}
