//! BinIDGen: the custom module computing BQSR bin IDs (paper §IV-D).
//!
//! For each base with quality score `q`, emits
//! `b1 = q * num_cycle_values + cycle_covariate` and
//! `b2 = q * 16 + context_id`, where the cycle covariate spans separate
//! ranges for forward and reverse reads (footnote 3) and the context ID is
//! the dinucleotide code of footnote: `AA = 0, AC = 1, ..., TT = 15`.

use super::{try_forward, try_push, Ctx, Module, ModuleKind, Tick};
use crate::queue::QueueId;
use crate::word::{Flit, HwWord};
use genesis_types::base::context_id;
use genesis_types::read::cycle_covariate;
use genesis_types::Base;
use std::any::Any;

/// BinIDGen configuration.
#[derive(Debug, Clone, Copy)]
pub struct BinIdGenConfig {
    /// Read length (constant per data set; 151 in the paper's evaluation).
    pub read_len: u32,
    /// Number of cycle-covariate values (`2 * read_len`; 302 in the paper).
    pub num_cycle_values: u32,
}

impl BinIdGenConfig {
    /// Standard configuration for a read length.
    #[must_use]
    pub fn for_read_len(read_len: u32) -> BinIdGenConfig {
        BinIdGenConfig { read_len, num_cycle_values: 2 * read_len }
    }
}

/// Input: per-base flits `[pos|Ins, base, qual, seq_idx]` from ReadToBases,
/// plus a per-read flags stream (field 0: 1 for reverse-strand reads).
/// Output: `[pos, base, qual, b1, b2]`.
///
/// Bases at deleted positions (read base `Del`) and inserted bases
/// (`Ins` position) carry no recalibratable quality and are dropped,
/// matching the software BQSR's covariate semantics. The first base of a
/// read (and the base following a deletion-interrupting gap in the
/// sequence, which does not occur for adjacent read bases) has no previous
/// base: its `b2` is emitted as `Del` and skipped by the count updaters.
#[derive(Debug)]
pub struct BinIdGen {
    label: String,
    cfg: BinIdGenConfig,
    input: QueueId,
    flags: QueueId,
    out: QueueId,
    reverse: Option<bool>,
    prev_base: Option<Base>,
    done: bool,
}

impl BinIdGen {
    /// Creates the module.
    #[must_use]
    pub fn new(
        label: &str,
        cfg: BinIdGenConfig,
        input: QueueId,
        flags: QueueId,
        out: QueueId,
    ) -> BinIdGen {
        BinIdGen {
            label: label.to_owned(),
            cfg,
            input,
            flags,
            out,
            reverse: None,
            prev_base: None,
            done: false,
        }
    }
}

impl Module for BinIdGen {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::BinIdGen
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Active;
        }
        // Acquire the current read's flags first. A refused push on the
        // tick that acquires them is not a pure stall (the flags were
        // consumed); from the next tick on it is: the flags are held and
        // only this module pops the base stream's head.
        let acquired_flags = self.reverse.is_none();
        let refused = |q| if acquired_flags { Tick::Active } else { Tick::full(q) };
        if acquired_flags {
            match ctx.queues.get(self.flags).peek() {
                Some(f) if f.is_end_item() => {
                    ctx.queues.get_mut(self.flags).pop();
                    return Tick::Active;
                }
                Some(f) => {
                    self.reverse = Some(f.field(0).val_or_zero() != 0);
                    ctx.queues.get_mut(self.flags).pop();
                }
                None => {
                    if ctx.queues.get(self.flags).is_finished()
                        && ctx.queues.get(self.input).is_finished()
                    {
                        ctx.queues.get_mut(self.out).close();
                        self.done = true;
                        return Tick::Active;
                    }
                    // Waiting for flags (or, with flags finished, for the
                    // base stream to finish too); both queues are watched.
                    return Tick::PARK;
                }
            }
        }
        let Some(flit) = ctx.queues.get(self.input).peek() else {
            if ctx.queues.get(self.input).is_finished() {
                ctx.queues.get_mut(self.out).close();
                self.done = true;
                return Tick::Active;
            }
            return Tick::PARK;
        };
        if flit.is_end_item() {
            if !try_forward(ctx.queues, self.input, self.out) {
                return refused(self.out);
            }
            self.reverse = None;
            self.prev_base = None;
            return Tick::Active;
        }
        let pos = flit.field(0);
        let base = flit.field(1);
        let qual = flit.field(2);
        let idx = flit.field(3);
        // Deleted positions and inserted bases are not recalibratable.
        if base.is_marker() || pos.is_marker() {
            ctx.queues.get_mut(self.input).pop();
            if !base.is_marker() {
                // An inserted base still advances the context chain.
                self.prev_base = Some(Base::from_code(base.val_or_zero() as u8));
            } else {
                self.prev_base = None;
            }
            return Tick::Active;
        }
        let q = qual.val_or_zero();
        let cur = Base::from_code(base.val_or_zero() as u8);
        let cov = cycle_covariate(
            idx.val_or_zero() as u32,
            self.cfg.read_len,
            self.reverse.expect("flags acquired"),
        );
        let b1 = q * u64::from(self.cfg.num_cycle_values) + u64::from(cov);
        let b2 = match self.prev_base.and_then(|p| context_id(p, cur)) {
            Some(ctx_id) => HwWord::Val(q * 16 + u64::from(ctx_id)),
            None => HwWord::Del,
        };
        let mut out = Flit::new();
        for i in 0..3 {
            out.push_from(flit, i);
        }
        out.push_val(b1);
        out.push(b2);
        if !try_push(ctx.queues, self.out, out) {
            return refused(self.out);
        }
        ctx.queues.get_mut(self.input).pop();
        self.prev_base = Some(cur);
        Tick::Active
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn input_queues(&self) -> Vec<QueueId> {
        vec![self.input, self.flags]
    }

    fn output_queues(&self) -> Vec<QueueId> {
        vec![self.out]
    }
}
