//! SPM Updater: sequential / random / read-modify-write scratchpad writes
//! with the RAW hazard interlock (paper §III-C).

use super::spm_reader::tier_gate;
use super::{Ctx, Module, ModuleKind, Tick, Watch};
use crate::queue::QueueId;
use crate::spm::SpmId;
use std::any::Any;
use std::collections::VecDeque;

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
/// filtered stream updates several count buffers in sequence.
#[derive(Debug)]
pub struct SpmUpdater {
    label: String,
    spm: SpmId,
    mode: SpmUpdateMode,
    addr_field: usize,
    value_field: usize,
    input: QueueId,
    forward: Option<QueueId>,
    seq_cursor: u64,
    /// Addresses currently in the read/modify/write stages, tagged with
    /// their entry cycle; an address occupies the pipeline for
    /// [`RMW_PIPELINE_DEPTH`] cycles.
    inflight: VecDeque<(u64, u64)>,
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
        label: &str,
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
            label: label.to_owned(),
            spm,
            mode,
            addr_field,
            value_field,
            input,
            forward: None,
            seq_cursor,
            inflight: VecDeque::with_capacity(RMW_PIPELINE_DEPTH),
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
    fn consume_head(&self, ctx: &mut Ctx<'_>) {
        let flit = ctx.queues.get_mut(self.input).pop().expect("caller peeked the head");
        if let Some(fq) = self.forward {
            ctx.queues.get_mut(fq).push(flit);
        }
    }
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
            return Tick::Active;
        }
        // Retire RMW stages that have aged out of the 3-stage pipeline.
        // Retirement is a pure function of (entry cycle, current cycle), so
        // deferring it across parked cycles cannot change hazard outcomes:
        // the next data flit sees the same post-retire pipeline either way.
        while let Some(&(entered, _)) = self.inflight.front() {
            if ctx.cycle.saturating_sub(entered) >= RMW_PIPELINE_DEPTH as u64 {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
        let Some(flit) = ctx.queues.get(self.input).peek() else {
            if ctx.queues.get(self.input).is_finished() {
                self.inflight.clear();
                if let Some(fq) = self.forward {
                    ctx.queues.get_mut(fq).close();
                }
                self.done = true;
                return Tick::Active;
            }
            return Tick::PARK;
        };
        // Tiered-memory gate: the touched page must be resident before the
        // flit can be consumed. Checked before the cascade-space check so
        // that re-ticks during a spill wait stay pure no-ops (no stall
        // counters move) in every engine.
        if !flit.is_end_item() {
            match self.mode {
                SpmUpdateMode::Sequential { .. } => {
                    tier_gate!(ctx, &[self.spm], self.seq_cursor, true);
                }
                SpmUpdateMode::Random | SpmUpdateMode::Rmw { .. } => {
                    let addr = flit.field(self.addr_field);
                    if !addr.is_marker() {
                        // RAW interlock first: hazard cycles are counted
                        // per blocked cycle, so the module keeps ticking.
                        if matches!(self.mode, SpmUpdateMode::Rmw { .. })
                            && self.inflight.iter().any(|&(_, a)| a == addr.val_or_zero())
                        {
                            self.hazard_stalls += 1;
                            return Tick::Active;
                        }
                        tier_gate!(ctx, &[self.spm], addr.val_or_zero(), true);
                    }
                }
            }
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
                let addr = flit.field(self.addr_field);
                if !addr.is_marker() {
                    let v = flit.field(self.value_field).val_or_zero();
                    ctx.spms.get_mut(self.spm).write(addr.val_or_zero(), v);
                    self.updates += 1;
                }
            }
            SpmUpdateMode::Rmw { op } => {
                let addr = flit.field(self.addr_field);
                if !addr.is_marker() {
                    // The RAW interlock already ran in the pre-consume
                    // gate above, so the address is hazard-free here.
                    let a = addr.val_or_zero();
                    let spm = ctx.spms.get_mut(self.spm);
                    let old = spm.read(a);
                    let v = flit.field(self.value_field).val_or_zero();
                    let new = match op {
                        RmwOp::Increment => old.wrapping_add(1),
                        RmwOp::Add => old.wrapping_add(v),
                        RmwOp::Sub => old.wrapping_sub(v),
                    };
                    spm.write(a, new);
                    self.inflight.push_back((ctx.cycle, a));
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

    fn input_queues(&self) -> Vec<QueueId> {
        vec![self.input]
    }

    fn output_queues(&self) -> Vec<QueueId> {
        self.forward.into_iter().collect()
    }
}
