//! Memory Reader: streams a column out of device memory (paper §III-C).

use super::{refused, Ctx, Module, ModuleKind, Tick, Watch};
use crate::memory::{Line, PortId, LINE_BYTES};
use crate::queue::QueueId;
use crate::word::Flit;
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
