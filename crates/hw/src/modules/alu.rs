//! Stream ALU: element-wise unary/binary operations (paper §III-C).

use super::{try_forward, try_push, Ctx, Module, ModuleKind, Tick};
use crate::queue::QueueId;
use crate::word::{Flit, HwWord};
use std::any::Any;

/// Binary ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT of the left operand (unary; right operand ignored).
    Not,
    /// Equality comparison producing 1/0.
    CmpEq,
    /// Less-than comparison producing 1/0.
    CmpLt,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// The second operand source.
#[derive(Debug, Clone, Copy)]
pub enum AluRhs {
    /// A second input queue (element-wise across matching fields).
    Queue(QueueId),
    /// An immediate constant applied to every field.
    Const(u64),
}

/// Applies `op` element-wise over flit fields, one flit per cycle.
/// Sentinel operands propagate (`op(Ins, x) = Ins`), and end-of-item
/// delimiters from two-queue configurations must align.
#[derive(Debug)]
pub struct StreamAlu {
    label: String,
    op: AluOp,
    lhs: QueueId,
    rhs: AluRhs,
    out: QueueId,
    done: bool,
}

impl StreamAlu {
    /// Creates a stream ALU.
    #[must_use]
    pub fn new(label: &str, op: AluOp, lhs: QueueId, rhs: AluRhs, out: QueueId) -> StreamAlu {
        StreamAlu { label: label.to_owned(), op, lhs, rhs, out, done: false }
    }

    fn apply(op: AluOp, a: HwWord, b: HwWord) -> HwWord {
        if a.is_marker() {
            return a;
        }
        if b.is_marker() && op != AluOp::Not {
            return b;
        }
        let (x, y) = (a.val_or_zero(), b.val_or_zero());
        let v = match op {
            AluOp::Add => x.wrapping_add(y),
            AluOp::Sub => x.wrapping_sub(y),
            AluOp::And => x & y,
            AluOp::Or => x | y,
            AluOp::Xor => x ^ y,
            AluOp::Not => !x,
            AluOp::CmpEq => u64::from(x == y),
            AluOp::CmpLt => u64::from(x < y),
            AluOp::Min => x.min(y),
            AluOp::Max => x.max(y),
        };
        HwWord::Val(v)
    }
}

impl Module for StreamAlu {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Alu
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Done;
        }
        match self.rhs {
            AluRhs::Const(c) => {
                let Some(head) = ctx.queues.get(self.lhs).peek() else {
                    if ctx.queues.get(self.lhs).is_finished() {
                        ctx.queues.get_mut(self.out).close();
                        self.done = true;
                        return Tick::Done;
                    }
                    return Tick::PARK;
                };
                // A refused push recomputes the same flit from the same
                // head until `out` drains.
                if head.is_end_item() {
                    if !try_forward(ctx.queues, self.lhs, self.out) {
                        return Tick::full(self.out);
                    }
                    return Tick::Active;
                }
                let mut out = Flit::new();
                for i in 0..head.len() {
                    out.push(Self::apply(self.op, head.field(i), HwWord::Val(c)));
                }
                if !try_push(ctx.queues, self.out, out) {
                    return Tick::full(self.out);
                }
                ctx.queues.get_mut(self.lhs).pop();
                Tick::Active
            }
            AluRhs::Queue(rq) => {
                let lfin = ctx.queues.get(self.lhs).is_finished();
                let rfin = ctx.queues.get(rq).is_finished();
                if lfin && rfin {
                    ctx.queues.get_mut(self.out).close();
                    self.done = true;
                    return Tick::Done;
                }
                let (Some(l), Some(r)) =
                    (ctx.queues.get(self.lhs).peek(), ctx.queues.get(rq).peek())
                else {
                    // At least one input is empty but not both finished.
                    return Tick::PARK;
                };
                let out = match (l.is_end_item(), r.is_end_item()) {
                    (true, true) => Flit::end_item(),
                    (false, false) => {
                        let mut out = Flit::new();
                        for i in 0..l.len().max(r.len()) {
                            out.push(Self::apply(self.op, l.field(i), r.field(i)));
                        }
                        out
                    }
                    // Misaligned items: resynchronize by consuming the
                    // delimiter side alone.
                    (true, false) => {
                        ctx.queues.get_mut(rq).pop();
                        return Tick::Active;
                    }
                    (false, true) => {
                        ctx.queues.get_mut(self.lhs).pop();
                        return Tick::Active;
                    }
                };
                if !try_push(ctx.queues, self.out, out) {
                    // Both heads stay put until `out` drains.
                    return Tick::full(self.out);
                }
                ctx.queues.get_mut(self.lhs).pop();
                ctx.queues.get_mut(rq).pop();
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
        match self.rhs {
            AluRhs::Queue(q) => vec![self.lhs, q],
            AluRhs::Const(_) => vec![self.lhs],
        }
    }

    fn output_queues(&self) -> Vec<QueueId> {
        vec![self.out]
    }
}
