//! SPM Updater: sequential / random / read-modify-write scratchpad writes
//! with the RAW hazard interlock (paper §III-C).

use super::spm_reader::tier_gate;
use super::{Ctx, Module, ModuleKind, Tick, Watch};
use crate::queue::QueueId;
use crate::spm::SpmId;
use std::any::Any;

/// Read-modify-write function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmwOp {
    /// `spm[addr] += 1` (the BQSR count update).
    Increment,
    /// `spm[addr] += value_field`.
    Add,
    /// `spm[addr] -= value_field`.
    Sub,
}

/// Operating mode (paper §III-C lists exactly these three).
#[derive(Debug, Clone, Copy)]
pub enum SpmUpdateMode {
    /// Sequential writes starting at a base index; input flits carry the
    /// value in `value_field`.
    Sequential {
        /// First element index written.
        base: u64,
    },
    /// Random writes; input flits carry `(addr_field, value_field)`.
    Random,
    /// Read-modify-write updates with the 3-stage RAW interlock.
    Rmw {
        /// The modify function.
        op: RmwOp,
    },
}

/// Depth of the read-modify-write pipeline whose in-flight addresses are
/// checked against incoming flits (paper §III-C: read, modify, write).
pub const RMW_PIPELINE_DEPTH: usize = 3;

/// Writes a stream into a scratchpad.
///
/// `forward` optionally passes every consumed flit downstream unchanged —
/// the "cascaded" wiring of the BQSR pipeline (Figure 12) where the same
/// filtered stream updates several count buffers in sequence. A module
/// that only needs to know when the scratchpad is complete (a drain, a
/// gated range reader) waits on the done signal instead, a queue that
/// carries no flits and closes once every update is made.
#[derive(Debug)]
pub struct SpmUpdater {
    label: String,
    spm: SpmId,
    mode: SpmUpdateMode,
    addr_field: usize,
    value_field: usize,
    /// Value subtracted from the address field in `Random` and `Rmw` mode
    /// (the key window's floor; the draining [`SpmReader`] adds it back).
    ///
    /// [`SpmReader`]: super::spm_reader::SpmReader
    addr_offset: u64,
    input: QueueId,
    forward: Option<QueueId>,
    done_signal: Option<QueueId>,
    seq_cursor: u64,
    /// The read/modify/write stages as `(entry cycle, address)`: the
    /// address that entered on cycle `c` sits in slot
    /// `c % RMW_PIPELINE_DEPTH` while it is [`in_flight`]. At most one
    /// address enters per cycle, so a slot has always drained by the time
    /// its index comes round again.
    stages: [(u64, u64); RMW_PIPELINE_DEPTH],
    hazard_stalls: u64,
    updates: u64,
    done: bool,
}

impl SpmUpdater {
    /// Creates an updater. `addr_field`/`value_field` select the input flit
    /// fields used as address and value (ignored where the mode does not
    /// need them).
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        spm: SpmId,
        mode: SpmUpdateMode,
        addr_field: usize,
        value_field: usize,
        input: QueueId,
    ) -> SpmUpdater {
        let seq_cursor = match mode {
            SpmUpdateMode::Sequential { base } => base,
            _ => 0,
        };
        SpmUpdater {
            label: label.into(),
            spm,
            mode,
            addr_field,
            value_field,
            addr_offset: 0,
            input,
            forward: None,
            done_signal: None,
            seq_cursor,
            // Entered on no cycle: `in_flight` never holds.
            stages: [(u64::MAX, 0); RMW_PIPELINE_DEPTH],
            hazard_stalls: 0,
            updates: 0,
            done: false,
        }
    }

    /// Forwards every consumed flit to `q` (cascade wiring).
    #[must_use]
    pub fn with_forward(mut self, q: QueueId) -> SpmUpdater {
        self.forward = Some(q);
        self
    }

    /// Closes `q` once every input flit is consumed, pushing nothing into
    /// it: the completion signal of a scratchpad whose reader needs no
    /// copy of the stream that filled it.
    #[must_use]
    pub fn with_done_signal(mut self, q: QueueId) -> SpmUpdater {
        self.done_signal = Some(q);
        self
    }

    /// Rebases `Random` and `Rmw` addresses: the flit's address field `a`
    /// lands at `spm[a - base]` (default 0).
    #[must_use]
    pub fn with_addr_offset(mut self, base: u64) -> SpmUpdater {
        self.addr_offset = base;
        self
    }

    /// RAW-hazard stall count.
    #[must_use]
    pub fn hazard_stalls(&self) -> u64 {
        self.hazard_stalls
    }

    /// Number of scratchpad updates performed.
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Pops the input head and cascades it to the forward queue, whose
    /// space the caller has checked.
    #[inline]
    fn consume_head(&self, ctx: &mut Ctx<'_>) {
        let flit = ctx.queues.get_mut(self.input).pop().expect("caller peeked the head");
        if let Some(fq) = self.forward {
            ctx.queues.get_mut(fq).push(flit);
        }
    }
}

/// True while an address that entered the RMW pipeline on cycle `entered`
/// occupies one of its [`RMW_PIPELINE_DEPTH`] stages at `cycle`.
#[inline]
fn in_flight(entered: u64, cycle: u64) -> bool {
    cycle.checked_sub(entered).is_some_and(|age| age < RMW_PIPELINE_DEPTH as u64)
}

impl Module for SpmUpdater {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::SpmUpdater
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Done;
        }
        let Some(flit) = ctx.queues.get(self.input).peek() else {
            if ctx.queues.get(self.input).is_finished() {
                for q in self.forward.into_iter().chain(self.done_signal) {
                    ctx.queues.get_mut(q).close();
                }
                self.done = true;
                return Tick::Done;
            }
            return Tick::PARK;
        };
        // The scratchpad index a `Random`/`Rmw` flit touches: its address
        // field less the base, taken once for the RAW interlock, the tier
        // gate and the access. `None` for an end item or a marker address.
        let addr = match self.mode {
            SpmUpdateMode::Random | SpmUpdateMode::Rmw { .. } if !flit.is_end_item() => {
                let a = flit.field(self.addr_field);
                (!a.is_marker()).then(|| a.val_or_zero().wrapping_sub(self.addr_offset))
            }
            _ => None,
        };
        // Tiered-memory gate: the touched page must be resident before the
        // flit can be consumed. Checked before the cascade-space check so
        // that re-ticks during a spill wait stay pure no-ops (no stall
        // counters move) in every engine.
        if let SpmUpdateMode::Sequential { .. } = self.mode {
            if !flit.is_end_item() {
                tier_gate!(ctx, &[self.spm], self.seq_cursor, true);
            }
        } else if let Some(a) = addr {
            // RAW interlock first: hazard cycles are counted per blocked
            // cycle, so the module keeps ticking. Whether a stage still
            // holds the address is a pure function of its entry cycle and
            // this one, so parked cycles need no catching up.
            if matches!(self.mode, SpmUpdateMode::Rmw { .. })
                && self
                    .stages
                    .iter()
                    .any(|&(entered, held)| held == a && in_flight(entered, ctx.cycle))
            {
                self.hazard_stalls += 1;
                return Tick::Active;
            }
            tier_gate!(ctx, &[self.spm], a, true);
        }
        // The cascade must accept the flit in the same cycle we consume it.
        if let Some(fq) = self.forward {
            if !ctx.queues.get(fq).can_push() {
                ctx.queues.get_mut(fq).note_full_stall();
                // With tiering off the gate above is free and the head is
                // hazard-free from here on (nothing enters the RMW pipeline
                // while blocked), so the stall is pure. With tiering on,
                // another module's access can evict the page the gate just
                // found resident, and the next tick would start a fill.
                return if ctx.spms.tiers.is_none() { Tick::full(fq) } else { Tick::Active };
            }
        }
        if flit.is_end_item() {
            self.consume_head(ctx);
            return Tick::Active;
        }
        match self.mode {
            SpmUpdateMode::Sequential { .. } => {
                let v = flit.field(self.value_field).val_or_zero();
                ctx.spms.get_mut(self.spm).write(self.seq_cursor, v);
                self.seq_cursor += 1;
                self.updates += 1;
            }
            SpmUpdateMode::Random => {
                if let Some(a) = addr {
                    let v = flit.field(self.value_field).val_or_zero();
                    ctx.spms.get_mut(self.spm).write(a, v);
                    self.updates += 1;
                }
            }
            SpmUpdateMode::Rmw { op } => {
                if let Some(a) = addr {
                    // The RAW interlock already ran in the pre-consume
                    // gate above, so the address is hazard-free here.
                    let spm = ctx.spms.get_mut(self.spm);
                    let old = spm.read(a);
                    let v = flit.field(self.value_field).val_or_zero();
                    let new = match op {
                        RmwOp::Increment => old.wrapping_add(1),
                        RmwOp::Add => old.wrapping_add(v),
                        RmwOp::Sub => old.wrapping_sub(v),
                    };
                    spm.write(a, new);
                    let slot = (ctx.cycle % RMW_PIPELINE_DEPTH as u64) as usize;
                    let (entered, _) = self.stages[slot];
                    assert!(!in_flight(entered, ctx.cycle), "one RMW entry per cycle");
                    self.stages[slot] = (ctx.cycle, a);
                    self.updates += 1;
                }
            }
        }
        self.consume_head(ctx);
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

    fn output_queues(&self, out: &mut Vec<QueueId>) {
        out.extend(self.forward.into_iter().chain(self.done_signal));
    }
}
