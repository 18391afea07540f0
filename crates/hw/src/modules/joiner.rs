//! Joiner: key-merge of two sorted streams (paper §III-C, Figure 6).

use super::{try_push, Ctx, Module, ModuleKind, Tick};
use crate::queue::QueueId;
use crate::word::{Flit, HwWord, MAX_FIELDS};
use std::any::Any;

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

enum Head {
    Data(Flit),
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

    fn head(ctx: &Ctx<'_>, q: QueueId) -> Head {
        let queue = ctx.queues.get(q);
        match queue.peek() {
            Some(f) if f.is_end_item() => Head::End,
            Some(f) => Head::Data(*f),
            None if queue.is_closed() => Head::Finished,
            None => Head::Stall,
        }
    }

    /// Output for an unmatched left flit: key + left data + right padding.
    fn left_padded(&self, f: &Flit) -> Flit {
        let mut fields = [HwWord::Del; MAX_FIELDS];
        fields[..f.len()].copy_from_slice(f.fields());
        Flit::data(&fields[..f.len() + self.right_data_fields])
    }

    /// Output for an unmatched right flit: key + left padding + right data.
    fn right_padded(&self, f: &Flit) -> Flit {
        let mut fields = [HwWord::Del; MAX_FIELDS];
        fields[0] = f.field(0);
        let mut n = 1 + self.left_data_fields;
        for &w in f.fields().iter().skip(1) {
            fields[n] = w;
            n += 1;
        }
        Flit::data(&fields[..n])
    }

    /// Merged output for matching keys: key + left data + right data.
    fn merged(l: &Flit, r: &Flit) -> Flit {
        let mut fields = [HwWord::Empty; MAX_FIELDS];
        fields[..l.len()].copy_from_slice(l.fields());
        let mut n = l.len();
        for &w in r.fields().iter().skip(1) {
            fields[n] = w;
            n += 1;
        }
        Flit::data(&fields[..n])
    }
}

impl Module for Joiner {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Joiner
    }

    #[allow(clippy::too_many_lines)]
    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
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
        let lh = Self::head(ctx, self.left);
        let rh = Self::head(ctx, self.right);
        match (lh, rh) {
            // An open-but-empty side: wait for data or a close, watching
            // precisely the starved queue (a push to — or close of — it is
            // the only event that changes this head).
            (Head::Stall, _) => return Tick::park_on(self.left),
            (_, Head::Stall) => return Tick::park_on(self.right),
            // Both items complete: forward one delimiter.
            (Head::End | Head::Finished, Head::End | Head::Finished) => {
                if try_push(ctx.queues, self.out, Flit::end_item()) {
                    // Pop real delimiters; Finished sides have nothing to pop.
                    if ctx.queues.get(self.left).peek().is_some_and(Flit::is_end_item) {
                        ctx.queues.get_mut(self.left).pop();
                    }
                    if ctx.queues.get(self.right).peek().is_some_and(Flit::is_end_item) {
                        ctx.queues.get_mut(self.right).pop();
                    }
                }
            }
            // Left item done; drain the right side of this item.
            (Head::End | Head::Finished, Head::Data(r)) => match self.kind {
                JoinKind::Inner | JoinKind::Left => {
                    ctx.queues.get_mut(self.right).pop();
                    let _ = r;
                }
                JoinKind::Outer => {
                    let out = self.right_padded(&r);
                    if try_push(ctx.queues, self.out, out) {
                        ctx.queues.get_mut(self.right).pop();
                    }
                }
            },
            // Right item done; drain the left side of this item.
            (Head::Data(l), Head::End | Head::Finished) => match self.kind {
                JoinKind::Inner => {
                    ctx.queues.get_mut(self.left).pop();
                }
                JoinKind::Left | JoinKind::Outer => {
                    let out = self.left_padded(&l);
                    if try_push(ctx.queues, self.out, out) {
                        ctx.queues.get_mut(self.left).pop();
                    }
                }
            },
            (Head::Data(l), Head::Data(r)) => {
                let lk = l.field(0);
                let rk = r.field(0);
                // Inserted-base flits never match.
                if lk.is_marker() {
                    match self.kind {
                        JoinKind::Inner => {
                            ctx.queues.get_mut(self.left).pop();
                        }
                        JoinKind::Left | JoinKind::Outer => {
                            let out = self.left_padded(&l);
                            if try_push(ctx.queues, self.out, out) {
                                ctx.queues.get_mut(self.left).pop();
                            }
                        }
                    }
                    return Tick::Active;
                }
                if rk.is_marker() {
                    // Malformed right keys are discarded.
                    ctx.queues.get_mut(self.right).pop();
                    return Tick::Active;
                }
                let (lv, rv) = (lk.val_or_zero(), rk.val_or_zero());
                if lv == rv {
                    let out = Self::merged(&l, &r);
                    if try_push(ctx.queues, self.out, out) {
                        ctx.queues.get_mut(self.left).pop();
                        ctx.queues.get_mut(self.right).pop();
                    }
                } else if lv < rv {
                    match self.kind {
                        JoinKind::Inner => {
                            ctx.queues.get_mut(self.left).pop();
                        }
                        JoinKind::Left | JoinKind::Outer => {
                            let out = self.left_padded(&l);
                            if try_push(ctx.queues, self.out, out) {
                                ctx.queues.get_mut(self.left).pop();
                            }
                        }
                    }
                } else {
                    match self.kind {
                        JoinKind::Inner | JoinKind::Left => {
                            ctx.queues.get_mut(self.right).pop();
                        }
                        JoinKind::Outer => {
                            let out = self.right_padded(&r);
                            if try_push(ctx.queues, self.out, out) {
                                ctx.queues.get_mut(self.right).pop();
                            }
                        }
                    }
                }
            }
        }
        // Every non-stall arm pops, pushes, or counts a refused push.
        Tick::Active
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
