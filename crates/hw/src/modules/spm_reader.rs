//! SPM Reader: address, range, and drain reads from scratchpads
//! (paper §III-C).

use super::{refused, Ctx, Module, ModuleKind, Tick, Watch};
use crate::queue::QueueId;
use crate::spm::SpmId;
use crate::word::Flit;
use std::any::Any;

/// Gates an SPM access on tiered-memory residency: parks on a timed
/// [`Watch::Spill`] wake when the touched page is still spilling/filling.
/// Free (a single branch) when tiering is disabled.
macro_rules! tier_gate {
    ($ctx:expr, $spms:expr, $idx:expr, $write:expr) => {
        if let Some(at) = $ctx.spms.tier_wait($spms, $idx, $write, $ctx.cycle) {
            return Tick::Park { wake_at: Some(at), watch: Watch::Spill };
        }
    };
}
pub(crate) use tier_gate;

/// Operating mode of the streaming [`SpmReader`]. The paper's third mode —
/// one lookup per input address — is provided by [`SpmAddrReader`].
#[derive(Debug, Clone, Copy)]
pub enum SpmReadMode {
    /// Interval reads: a start queue and an end queue supply one
    /// `[start, end)` pair per item; the reader streams
    /// `[pos, spm0[pos-offset], ...]` for the interval, then a delimiter.
    Range {
        /// Queue supplying interval starts.
        start: QueueId,
        /// Queue supplying exclusive interval ends.
        end: QueueId,
    },
    /// Drains `[0, len)` once the trigger queue finishes, emitting
    /// `[idx, spm0[idx], ...]`. Used to dump the BQSR count buffers.
    Drain {
        /// Stream whose completion triggers the drain (flits discarded).
        trigger: QueueId,
        /// Number of elements to drain.
        len: u64,
    },
}

/// Streams scratchpad contents. `spms` may list several scratchpads: the
/// output flit carries one field per scratchpad after the position field
/// (the BQSR pipeline reads `REF.SEQ` and `REF.IS_SNP` together).
#[derive(Debug)]
pub struct SpmReader {
    label: String,
    spms: Vec<SpmId>,
    mode: SpmReadMode,
    /// Value subtracted from input positions to form scratchpad indices
    /// (the partition's base position).
    addr_offset: u64,
    out: QueueId,
    /// Queues that must finish before reading starts (the SPM-load gate:
    /// the updater filling this scratchpad forwards its stream here, so
    /// range reads cannot race ahead of initialization).
    gates: Vec<QueueId>,
    cur: Option<(u64, u64)>,
    pending_end: bool,
    drain_cursor: u64,
    draining: bool,
    done: bool,
}

impl SpmReader {
    /// Creates a reader.
    ///
    /// # Panics
    ///
    /// Panics when `spms` is empty.
    #[must_use]
    pub fn new(
        label: &str,
        spms: Vec<SpmId>,
        mode: SpmReadMode,
        addr_offset: u64,
        out: QueueId,
    ) -> SpmReader {
        assert!(!spms.is_empty(), "SPM reader needs at least one scratchpad");
        SpmReader {
            label: label.to_owned(),
            spms,
            mode,
            addr_offset,
            out,
            gates: Vec::new(),
            cur: None,
            pending_end: false,
            drain_cursor: 0,
            draining: false,
            done: false,
        }
    }

    /// Blocks all reading until every gate queue has finished; gate
    /// traffic is consumed and discarded (one flit per gate per cycle).
    #[must_use]
    pub fn with_gates(mut self, gates: Vec<QueueId>) -> SpmReader {
        self.gates = gates;
        self
    }

    /// Consumes gate traffic. Returns `(open, popped_any)`: `open` once
    /// every gate has finished, `popped_any` when this call consumed gate
    /// flits (observable work, so the caller must not park).
    fn gates_open(&self, ctx: &mut Ctx<'_>) -> (bool, bool) {
        let mut open = true;
        let mut popped_any = false;
        for &g in &self.gates {
            let q = ctx.queues.get_mut(g);
            if q.pop().is_some() {
                popped_any = true;
                open = false;
            } else if !q.is_finished() {
                open = false;
            }
        }
        (open, popped_any)
    }

}

/// The lookup flit `[pos, spm0[pos - offset], ...]`, one field per
/// scratchpad (each read is counted).
fn read_flit(ctx: &mut Ctx<'_>, spms: &[SpmId], addr_offset: u64, pos: u64) -> Flit {
    let idx = pos.wrapping_sub(addr_offset);
    let mut flit = Flit::val(pos);
    for &id in spms {
        flit.push_val(ctx.spms.get_mut(id).read(idx));
    }
    flit
}

impl Module for SpmReader {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::SpmReader
    }

    #[allow(clippy::too_many_lines)]
    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Active;
        }
        let (open, gate_popped) = self.gates_open(ctx);
        if !open {
            // Gate flits consumed: active. Gates drained but not all
            // finished: a pure wait on the gate queues.
            return if gate_popped { Tick::Active } else { Tick::PARK };
        }
        // The gates are open for good (a finished queue stays finished), and
        // every push below checks for space before any scratchpad access
        // or cursor change: a refused push is all its tick does, reads
        // nothing, starts no page fill, and repeats until `out` drains.
        match self.mode {
            SpmReadMode::Range { start, end } => {
                if self.pending_end {
                    if refused(ctx.queues, self.out) {
                        return Tick::full(self.out);
                    }
                    ctx.queues.get_mut(self.out).push(Flit::end_item());
                    self.pending_end = false;
                    return Tick::Active;
                }
                if let Some((pos, stop)) = self.cur {
                    if pos >= stop {
                        self.cur = None;
                        self.pending_end = true;
                        return Tick::Active;
                    }
                    if refused(ctx.queues, self.out) {
                        return Tick::full(self.out);
                    }
                    tier_gate!(ctx, &self.spms, pos.wrapping_sub(self.addr_offset), false);
                    let flit = read_flit(ctx, &self.spms, self.addr_offset, pos);
                    ctx.queues.get_mut(self.out).push(flit);
                    self.cur = Some((pos + 1, stop));
                    return Tick::Active;
                }
                // Acquire the next [start, end) pair, skipping delimiters.
                let mut popped_delim = false;
                for q in [start, end] {
                    while ctx.queues.get(q).peek().is_some_and(Flit::is_end_item) {
                        ctx.queues.get_mut(q).pop();
                        popped_delim = true;
                    }
                }
                let bound = |q| ctx.queues.get(q).peek().map(|f| f.field(0).val_or_zero());
                match (bound(start), bound(end)) {
                    (Some(s), Some(e)) => {
                        ctx.queues.get_mut(start).pop();
                        ctx.queues.get_mut(end).pop();
                        self.cur = Some((s, e));
                        Tick::Active
                    }
                    _ => {
                        if ctx.queues.get(start).is_finished() && ctx.queues.get(end).is_finished()
                        {
                            ctx.queues.get_mut(self.out).close();
                            self.done = true;
                            Tick::Active
                        } else if popped_delim {
                            Tick::Active
                        } else {
                            // Waiting for the next interval pair.
                            Tick::PARK
                        }
                    }
                }
            }
            SpmReadMode::Drain { trigger, len } => {
                if !self.draining {
                    // Discard trigger traffic until the stream finishes.
                    if ctx.queues.get_mut(trigger).pop().is_some() {
                        return Tick::Active;
                    }
                    if ctx.queues.get(trigger).is_finished() {
                        self.draining = true;
                        return Tick::Active;
                    }
                    return Tick::PARK;
                }
                if refused(ctx.queues, self.out) {
                    return Tick::full(self.out);
                }
                if self.drain_cursor >= len {
                    let out = ctx.queues.get_mut(self.out);
                    out.push(Flit::end_item());
                    out.close();
                    self.done = true;
                    return Tick::Active;
                }
                tier_gate!(ctx, &self.spms, self.drain_cursor, false);
                let pos = self.drain_cursor + self.addr_offset;
                let flit = read_flit(ctx, &self.spms, self.addr_offset, pos);
                ctx.queues.get_mut(self.out).push(flit);
                self.drain_cursor += 1;
                Tick::Active
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
        let mut qs = self.gates.clone();
        match self.mode {
            SpmReadMode::Range { start, end } => qs.extend([start, end]),
            SpmReadMode::Drain { trigger, .. } => qs.push(trigger),
        }
        qs
    }

    fn output_queues(&self) -> Vec<QueueId> {
        vec![self.out]
    }
}

/// Address-mode SPM reader: one lookup per input flit.
#[derive(Debug)]
pub struct SpmAddrReader {
    label: String,
    spms: Vec<SpmId>,
    addr_offset: u64,
    input: QueueId,
    out: QueueId,
    done: bool,
}

impl SpmAddrReader {
    /// Creates an address-mode reader.
    ///
    /// # Panics
    ///
    /// Panics when `spms` is empty.
    #[must_use]
    pub fn new(
        label: &str,
        spms: Vec<SpmId>,
        addr_offset: u64,
        input: QueueId,
        out: QueueId,
    ) -> SpmAddrReader {
        assert!(!spms.is_empty(), "SPM reader needs at least one scratchpad");
        SpmAddrReader { label: label.to_owned(), spms, addr_offset, input, out, done: false }
    }
}

impl Module for SpmAddrReader {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::SpmReader
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Active;
        }
        let Some(head) = ctx.queues.get(self.input).peek() else {
            if ctx.queues.get(self.input).is_finished() {
                ctx.queues.get_mut(self.out).close();
                self.done = true;
                return Tick::Active;
            }
            return Tick::PARK;
        };
        // Space first: a refused lookup reads nothing, starts no page fill,
        // and repeats until `out` drains.
        let lookup = (!head.is_end_item()).then(|| head.field(0).val_or_zero());
        if refused(ctx.queues, self.out) {
            return Tick::full(self.out);
        }
        let out = match lookup {
            None => Flit::end_item(),
            Some(pos) => {
                tier_gate!(ctx, &self.spms, pos.wrapping_sub(self.addr_offset), false);
                read_flit(ctx, &self.spms, self.addr_offset, pos)
            }
        };
        ctx.queues.get_mut(self.out).push(out);
        ctx.queues.get_mut(self.input).pop();
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
        vec![self.out]
    }
}
