//! Joiner: key-merge of two sorted streams (paper §III-C, Figure 6).

use super::{try_push, Ctx, Module, ModuleKind, Tick};
use crate::queue::{QueueId, QueuePool};
use crate::word::{Flit, HwWord};
use std::any::Any;
use std::cmp::Ordering;

/// Join semantics (paper §III-C): inner discards unmatched flits, left
/// keeps unmatched flits from the first queue, outer never discards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Discard flits without a matching key.
    Inner,
    /// Keep unmatched flits from the first (left) queue.
    Left,
    /// Never discard flits.
    Outer,
}

/// Merges two item-aligned streams whose flits carry an ascending key in
/// field 0. Matching keys concatenate data fields; unmatched flits are
/// emitted with `Del` padding or discarded per [`JoinKind`].
///
/// Genomics extension: a left flit whose key is the `Ins` sentinel (an
/// inserted base from ReadToBases) never matches — it is emitted padded for
/// left/outer joins and discarded for inner joins, without consuming the
/// right stream.
#[derive(Debug)]
pub struct Joiner {
    label: String,
    kind: JoinKind,
    left: QueueId,
    right: QueueId,
    out: QueueId,
    /// Data fields after the key on the left stream (for padding).
    left_data_fields: usize,
    /// Data fields after the key on the right stream (for padding).
    right_data_fields: usize,
    done: bool,
}

enum Head<'a> {
    Data(&'a Flit),
    End,
    /// Stream closed and drained: behaves like a permanent delimiter.
    Finished,
    /// Nothing available this cycle.
    Stall,
}

impl Joiner {
    /// Creates a joiner. `left_data_fields`/`right_data_fields` describe
    /// how many data fields follow the key on each input, for padding
    /// unmatched outputs.
    #[must_use]
    pub fn new(
        label: &str,
        kind: JoinKind,
        left: QueueId,
        right: QueueId,
        out: QueueId,
        left_data_fields: usize,
        right_data_fields: usize,
    ) -> Joiner {
        Joiner {
            label: label.to_owned(),
            kind,
            left,
            right,
            out,
            left_data_fields,
            right_data_fields,
            done: false,
        }
    }

    fn head(queues: &QueuePool, q: QueueId) -> Head<'_> {
        let queue = queues.get(q);
        match queue.peek() {
            Some(f) if f.is_end_item() => Head::End,
            Some(f) => Head::Data(f),
            None if queue.is_closed() => Head::Finished,
            None => Head::Stall,
        }
    }

    /// Output for an unmatched left flit: key + left data + right padding.
    fn left_padded(&self, f: &Flit) -> Flit {
        let mut out = *f;
        for _ in 0..self.right_data_fields {
            out.push(HwWord::Del);
        }
        out
    }

    /// Output for an unmatched right flit: key + left padding + right data.
    fn right_padded(&self, f: &Flit) -> Flit {
        let mut out = Flit::new();
        out.push_from(f, 0);
        for _ in 0..self.left_data_fields {
            out.push(HwWord::Del);
        }
        for i in 1..f.len() {
            out.push_from(f, i);
        }
        out
    }

    /// Merged output for matching keys: key + left data + right data.
    fn merged(l: &Flit, r: &Flit) -> Flit {
        let mut out = *l;
        for i in 1..r.len() {
            out.push_from(r, i);
        }
        out
    }

    /// Discards the head of one input (an unmatched flit the join drops).
    fn discard(ctx: &mut Ctx<'_>, q: QueueId) -> Tick {
        ctx.queues.get_mut(q).pop();
        Tick::Active
    }

    /// Pushes `out` and, once accepted, consumes the heads it was built
    /// from. A refused push is a pure stall: only this module pops the
    /// heads, so every tick until `out` drains rebuilds the same flit.
    fn emit(&self, ctx: &mut Ctx<'_>, out: Flit, pop_left: bool, pop_right: bool) -> Tick {
        if !try_push(ctx.queues, self.out, out) {
            return Tick::full(self.out);
        }
        if pop_left {
            ctx.queues.get_mut(self.left).pop();
        }
        if pop_right {
            ctx.queues.get_mut(self.right).pop();
        }
        Tick::Active
    }
}

impl Module for Joiner {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Joiner
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        use JoinKind::{Inner, Left, Outer};
        if self.done {
            return Tick::Active;
        }
        let lq = ctx.queues.get(self.left);
        let rq = ctx.queues.get(self.right);
        if lq.is_finished() && rq.is_finished() {
            ctx.queues.get_mut(self.out).close();
            self.done = true;
            return Tick::Active;
        }
        let lh = Self::head(ctx.queues, self.left);
        let rh = Self::head(ctx.queues, self.right);
        match (lh, rh) {
            // An open-but-empty side: wait for data or a close, watching
            // precisely the starved queue (a push to — or close of — it is
            // the only event that changes this head).
            (Head::Stall, _) => Tick::park_on(self.left),
            (_, Head::Stall) => Tick::park_on(self.right),
            // Both items complete: forward one delimiter, popping the real
            // ones (Finished sides have nothing to pop).
            (lh @ (Head::End | Head::Finished), rh @ (Head::End | Head::Finished)) => {
                let (pop_left, pop_right) = (matches!(lh, Head::End), matches!(rh, Head::End));
                self.emit(ctx, Flit::end_item(), pop_left, pop_right)
            }
            // Left item done; drain the right side of this item.
            (Head::End | Head::Finished, Head::Data(r)) => match self.kind {
                Inner | Left => Self::discard(ctx, self.right),
                Outer => self.emit(ctx, self.right_padded(r), false, true),
            },
            // Right item done; drain the left side of this item.
            (Head::Data(l), Head::End | Head::Finished) => match self.kind {
                Inner => Self::discard(ctx, self.left),
                Left | Outer => self.emit(ctx, self.left_padded(l), true, false),
            },
            (Head::Data(l), Head::Data(r)) => {
                let lk = l.field(0);
                let rk = r.field(0);
                // Inserted-base flits never match.
                if lk.is_marker() {
                    return match self.kind {
                        Inner => Self::discard(ctx, self.left),
                        Left | Outer => self.emit(ctx, self.left_padded(l), true, false),
                    };
                }
                if rk.is_marker() {
                    // Malformed right keys are discarded.
                    return Self::discard(ctx, self.right);
                }
                let (lv, rv) = (lk.val_or_zero(), rk.val_or_zero());
                match (lv.cmp(&rv), self.kind) {
                    (Ordering::Equal, _) => self.emit(ctx, Self::merged(l, r), true, true),
                    (Ordering::Less, Inner) => Self::discard(ctx, self.left),
                    (Ordering::Less, Left | Outer) => {
                        self.emit(ctx, self.left_padded(l), true, false)
                    }
                    (Ordering::Greater, Inner | Left) => Self::discard(ctx, self.right),
                    (Ordering::Greater, Outer) => {
                        self.emit(ctx, self.right_padded(r), false, true)
                    }
                }
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
        vec![self.left, self.right]
    }

    fn output_queues(&self) -> Vec<QueueId> {
        vec![self.out]
    }
}
