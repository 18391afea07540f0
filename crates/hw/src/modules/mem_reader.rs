//! Memory Reader: streams a column out of device memory (paper §III-C) —
//! or, as a [`RowReader`], the rows of several columns, one lane each.

use super::{refused, Ctx, Module, ModuleKind, Tick, Watch};
use crate::memory::{Line, MemorySystem, PortId, LINE_BYTES};
use crate::queue::QueueId;
use crate::resource::{module_cost, ResourceUsage};
use crate::word::{Flit, MAX_FIELDS};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

/// Row-boundary specification: where the reader inserts end-of-item
/// delimiters in the element stream.
#[derive(Debug, Clone)]
pub enum RowSpec {
    /// No item structure: one flat stream.
    None,
    /// Every `n` elements form one item.
    Fixed(u64),
    /// Explicit per-row element counts (variable-length rows such as
    /// `READS.SEQ`; the host knows the layout it configured).
    Lens(Arc<Vec<u32>>),
}

/// Memory Reader configuration.
#[derive(Debug, Clone)]
pub struct MemReaderConfig {
    /// Line-aligned base address of the column data.
    pub base_addr: u64,
    /// Element width in bytes (1, 2, 4 or 8).
    pub elem_bytes: usize,
    /// Total number of elements to stream.
    pub total_elems: u64,
    /// Item structure.
    pub rows: RowSpec,
}

/// Streams `total_elems` little-endian elements starting at `base_addr`,
/// one element (flit) per cycle, prefetching 64 B lines into an internal
/// buffer as long as arbitration and the in-flight limit allow.
#[derive(Debug)]
pub struct MemReader {
    label: String,
    cfg: MemReaderConfig,
    port: PortId,
    out: QueueId,
    next_line: u64,
    end_addr: u64,
    /// Whole response lines; elements never cross a line boundary (the
    /// base is line-aligned and 1/2/4/8 all divide [`LINE_BYTES`]).
    buf: VecDeque<Line>,
    /// Consumed bytes of the front line in `buf`.
    head_off: usize,
    emitted: u64,
    row_left: u64,
    row_idx: usize,
    pending_ends: u32,
    done: bool,
}

impl MemReader {
    /// Maximum buffered bytes before the reader stops polling responses.
    const BUF_LIMIT: usize = 4 * LINE_BYTES;

    /// Creates a reader.
    ///
    /// # Panics
    ///
    /// Panics on unaligned `base_addr`, unsupported `elem_bytes` or a
    /// `RowSpec::Fixed(0)`.
    #[must_use]
    pub fn new(label: &str, cfg: MemReaderConfig, port: PortId, out: QueueId) -> MemReader {
        assert_eq!(cfg.base_addr % LINE_BYTES as u64, 0, "base address must be line-aligned");
        assert!(matches!(cfg.elem_bytes, 1 | 2 | 4 | 8), "element width must be 1/2/4/8");
        assert!(!matches!(cfg.rows, RowSpec::Fixed(0)), "fixed row length must be positive");
        let bytes = cfg.total_elems * cfg.elem_bytes as u64;
        let end_addr = cfg.base_addr + bytes.div_ceil(LINE_BYTES as u64) * LINE_BYTES as u64;
        let row_left = match &cfg.rows {
            RowSpec::None => u64::MAX,
            RowSpec::Fixed(n) => *n,
            RowSpec::Lens(lens) => lens.first().copied().map_or(0, u64::from),
        };
        let mut reader = MemReader {
            label: label.to_owned(),
            next_line: cfg.base_addr,
            end_addr,
            cfg,
            port,
            out,
            buf: VecDeque::new(),
            head_off: 0,
            emitted: 0,
            row_left,
            row_idx: 0,
            pending_ends: 0,
            done: false,
        };
        // Zero-length leading rows still emit their delimiters. The loop
        // ends: `Lens` is finite, `Fixed(0)` is rejected above and `None`
        // never leaves a zero count.
        while reader.row_left == 0 {
            let before = reader.pending_ends;
            reader.advance_row();
            if reader.pending_ends == before {
                break;
            }
        }
        reader
    }

    /// Buffered, not-yet-emitted bytes.
    fn buffered(&self) -> usize {
        self.buf.len() * LINE_BYTES - self.head_off
    }

    fn advance_row(&mut self) {
        match &self.cfg.rows {
            RowSpec::None => {}
            RowSpec::Fixed(n) => {
                self.row_left = *n;
                self.pending_ends += 1;
            }
            RowSpec::Lens(lens) => {
                self.row_idx += 1;
                self.pending_ends += 1;
                self.row_left = lens.get(self.row_idx).copied().map_or(u64::MAX, u64::from);
            }
        }
    }
}

/// The little-endian element of `width` (1, 2, 4 or 8) bytes at `at`.
#[inline]
fn decode_le(line: &Line, at: usize, width: usize) -> u64 {
    match width {
        1 => u64::from(line[at]),
        2 => u64::from(u16::from_le_bytes([line[at], line[at + 1]])),
        4 => u64::from(u32::from_le_bytes(line[at..at + 4].try_into().expect("4 bytes"))),
        _ => u64::from_le_bytes(line[at..at + 8].try_into().expect("8 bytes")),
    }
}

impl Module for MemReader {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::MemoryReader
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Done;
        }
        let mut active = false;
        // Issue the next prefetch request.
        if self.next_line < self.end_addr {
            if ctx.mem.try_read(self.port, self.next_line) {
                self.next_line += LINE_BYTES as u64;
                active = true;
            } else if !ctx.mem.inflight_full(self.port) {
                // Arbitration refusal: a stall was counted, so the naive
                // engine observes this tick. Inflight-limit refusals are
                // silent and may park.
                active = true;
            }
        }
        // Accept one response per cycle while buffer space remains.
        if self.buffered() < Self::BUF_LIMIT {
            if let Some((_, line)) = ctx.mem.poll_response(self.port) {
                self.buf.push_back(line);
                active = true;
            }
        }
        // Emit one flit per cycle.
        let wants_push = self.pending_ends > 0
            || (self.emitted < self.cfg.total_elems && self.buffered() >= self.cfg.elem_bytes);
        if wants_push && refused(ctx.queues, self.out) {
            if active {
                return Tick::Active;
            }
            // The refused push was all this tick did: the prefetcher is
            // finished or silently held by the in-flight limit (which only
            // an accepted response lowers), and no response was accepted.
            // With buffer space left the next response to come due changes
            // that; with the buffer full nothing does until `out` drains.
            let wake_at = if self.buffered() < Self::BUF_LIMIT {
                ctx.mem.next_response_ready(self.port)
            } else {
                None
            };
            return Tick::Park { wake_at, watch: Watch::Full(self.out) };
        }
        if self.pending_ends > 0 {
            ctx.queues.get_mut(self.out).push(Flit::end_item());
            self.pending_ends -= 1;
            active = true;
        } else if wants_push {
            active = true;
            let line = self.buf.front().expect("buffered bytes checked");
            let v = decode_le(line, self.head_off, self.cfg.elem_bytes);
            self.head_off += self.cfg.elem_bytes;
            if self.head_off == LINE_BYTES {
                self.buf.pop_front();
                self.head_off = 0;
            }
            ctx.queues.get_mut(self.out).push(Flit::val(v));
            self.emitted += 1;
            self.row_left -= 1;
            if self.row_left == 0 || self.emitted == self.cfg.total_elems {
                // Zero-length subsequent (or trailing) rows each still
                // get a delimiter.
                self.advance_row();
                while self.row_left == 0 {
                    let before = self.pending_ends;
                    self.advance_row();
                    if self.pending_ends == before {
                        break;
                    }
                }
            }
        }
        if self.emitted == self.cfg.total_elems && self.pending_ends == 0 {
            ctx.queues.get_mut(self.out).close();
            self.done = true;
            return Tick::Done;
        }
        if active {
            Tick::Active
        } else {
            // Blocked on memory latency: a reader holding emittable data
            // or a pending delimiter either emitted it (Active) or parked
            // on the full output above, so here it holds neither and no
            // queue event can unblock it — only a response becoming
            // deliverable. Watching the timer alone keeps downstream pops
            // from re-ticking the reader during the whole latency window.
            Tick::Park {
                wake_at: ctx.mem.next_response_ready(self.port),
                watch: Watch::Timer,
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn input_queues(&self) -> Vec<QueueId> {
        Vec::new()
    }

    fn output_queues(&self) -> Vec<QueueId> {
        vec![self.out]
    }
}

/// One column of a [`RowReader`]: its region, element width and memory
/// port.
#[derive(Debug, Clone)]
pub struct ReaderColumn {
    /// Line-aligned base address of the column data.
    pub base_addr: u64,
    /// Element width in bytes (1, 2, 4 or 8).
    pub elem_bytes: usize,
    /// The column's own memory port.
    pub port: PortId,
}

/// One column of a [`RowReader`]: a [`MemReader`]'s prefetch cursor and
/// line buffer over the column's region, on the column's port.
#[derive(Debug)]
struct Lane {
    col: ReaderColumn,
    next_line: u64,
    end_addr: u64,
    buf: VecDeque<Line>,
    head_off: usize,
}

impl Lane {
    fn new(col: ReaderColumn, rows: u64) -> Lane {
        assert_eq!(col.base_addr % LINE_BYTES as u64, 0, "base address must be line-aligned");
        assert!(matches!(col.elem_bytes, 1 | 2 | 4 | 8), "element width must be 1/2/4/8");
        let bytes = rows * col.elem_bytes as u64;
        let end_addr = col.base_addr + bytes.div_ceil(LINE_BYTES as u64) * LINE_BYTES as u64;
        Lane { next_line: col.base_addr, end_addr, col, buf: VecDeque::new(), head_off: 0 }
    }

    /// Buffered, not-yet-emitted bytes.
    fn buffered(&self) -> usize {
        self.buf.len() * LINE_BYTES - self.head_off
    }

    /// The buffer accepts another response.
    fn has_room(&self) -> bool {
        self.buffered() < MemReader::BUF_LIMIT
    }

    /// A [`MemReader`]'s memory side for one cycle: one line request, then
    /// one response while the buffer has room. True when either moved, or
    /// arbitration refused the request (a counted stall).
    fn fetch(&mut self, mem: &mut MemorySystem) -> bool {
        let mut active = false;
        if self.next_line < self.end_addr {
            if mem.try_read(self.col.port, self.next_line) {
                self.next_line += LINE_BYTES as u64;
                active = true;
            } else if !mem.inflight_full(self.col.port) {
                active = true;
            }
        }
        if self.has_room() {
            if let Some((_, line)) = mem.poll_response(self.col.port) {
                self.buf.push_back(line);
                active = true;
            }
        }
        active
    }

    /// Takes the next element; the caller checked one is buffered.
    fn pop(&mut self) -> u64 {
        let line = self.buf.front().expect("buffered element checked");
        let v = decode_le(line, self.head_off, self.col.elem_bytes);
        self.head_off += self.col.elem_bytes;
        if self.head_off == LINE_BYTES {
            self.buf.pop_front();
            self.head_off = 0;
        }
        v
    }
}

/// Streams `rows` rows of two or more equal-length columns, one row flit
/// per cycle whose field `i` is column `i`'s element: the rows a
/// [`MemReader`] per column and a Zip would assemble, from one module.
/// Each lane keeps its own port, prefetch cursor and line buffer, so the
/// memory traffic is that of one reader per column, with no on-chip hop
/// between the columns and their row.
#[derive(Debug)]
pub struct RowReader {
    label: String,
    lanes: Box<[Lane]>,
    out: QueueId,
    rows: u64,
    emitted: u64,
    done: bool,
}

impl RowReader {
    /// Creates a reader of `rows` rows of `cols`, column `i` in field `i`.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two or more than [`MAX_FIELDS`] columns, an
    /// unaligned base address or an unsupported element width.
    #[must_use]
    pub fn new(label: &str, cols: Vec<ReaderColumn>, rows: u64, out: QueueId) -> RowReader {
        assert!(
            (2..=MAX_FIELDS).contains(&cols.len()),
            "a row reader streams 2..={MAX_FIELDS} columns, got {}",
            cols.len()
        );
        RowReader {
            label: label.to_owned(),
            lanes: cols.into_iter().map(|c| Lane::new(c, rows)).collect(),
            out,
            rows,
            emitted: 0,
            done: false,
        }
    }

    /// The earliest cycle a response comes due on a lane with buffer room:
    /// the only timed event that changes what a tick that moved nothing
    /// does (a full lane takes no response, and a prefetch held by the
    /// in-flight limit waits for its own lane to take one).
    fn next_wake(&self, mem: &MemorySystem) -> Option<u64> {
        self.lanes
            .iter()
            .filter(|l| l.has_room())
            .filter_map(|l| mem.next_response_ready(l.col.port))
            .min()
    }
}

impl Module for RowReader {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::MemoryReader
    }

    fn resources(&self) -> ResourceUsage {
        module_cost(self.kind()).times(self.lanes.len() as u64)
    }

    /// Every lane, in column order, makes a [`MemReader`]'s memory moves;
    /// the row goes out once every lane holds an element. A refused row
    /// parks on the output only when no lane moved ([`Watch::Full`]), and
    /// a tick that moved nothing waits for the next response a lane can
    /// take ([`Watch::Timer`]): nothing else changes either tick.
    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Done;
        }
        let mut active = false;
        for lane in &mut *self.lanes {
            active |= lane.fetch(ctx.mem);
        }
        let wants_push = self.emitted < self.rows
            && self.lanes.iter().all(|l| l.buffered() >= l.col.elem_bytes);
        if wants_push && refused(ctx.queues, self.out) {
            if active {
                return Tick::Active;
            }
            return Tick::Park { wake_at: self.next_wake(ctx.mem), watch: Watch::Full(self.out) };
        }
        if wants_push {
            let mut row = Flit::new();
            for lane in &mut *self.lanes {
                row.push_val(lane.pop());
            }
            ctx.queues.get_mut(self.out).push(row);
            self.emitted += 1;
            active = true;
        }
        if self.emitted == self.rows {
            ctx.queues.get_mut(self.out).close();
            self.done = true;
            return Tick::Done;
        }
        if active {
            Tick::Active
        } else {
            Tick::Park { wake_at: self.next_wake(ctx.mem), watch: Watch::Timer }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn input_queues(&self) -> Vec<QueueId> {
        Vec::new()
    }

    fn output_queues(&self) -> Vec<QueueId> {
        vec![self.out]
    }
}
