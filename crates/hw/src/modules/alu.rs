//! Stream ALU: one unary/binary operation per flit (paper §III-C).

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
    /// An immediate constant.
    Const(u64),
    /// Field `j` of the same input flit.
    Field(usize),
}

/// Applies `op` to one field of each input flit, one flit per cycle, and
/// emits the result as a one-field flit: a computed column read in place
/// from a row, with no Zip selecting it first. Sentinel operands propagate
/// (`op(Ins, x) = Ins`), and end-of-item delimiters are forwarded.
#[derive(Debug)]
pub struct StreamAlu {
    label: String,
    op: AluOp,
    lhs: QueueId,
    /// The field of each `lhs` flit that is the left operand.
    field: usize,
    rhs: AluRhs,
    out: QueueId,
    done: bool,
}

impl StreamAlu {
    /// Creates a stream ALU computing `op(field, rhs)` over `lhs`.
    #[must_use]
    pub fn new(
        label: &str,
        op: AluOp,
        lhs: QueueId,
        field: usize,
        rhs: AluRhs,
        out: QueueId,
    ) -> StreamAlu {
        StreamAlu { label: label.to_owned(), op, lhs, field, rhs, out, done: false }
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
        let Some(head) = ctx.queues.get(self.lhs).peek() else {
            if ctx.queues.get(self.lhs).is_finished() {
                ctx.queues.get_mut(self.out).close();
                self.done = true;
                return Tick::Done;
            }
            return Tick::PARK;
        };
        // A refused push recomputes the same flit from the same head
        // until `out` drains.
        if head.is_end_item() {
            if !try_forward(ctx.queues, self.lhs, self.out) {
                return Tick::full(self.out);
            }
            return Tick::Active;
        }
        let rhs = match self.rhs {
            AluRhs::Const(c) => HwWord::Val(c),
            AluRhs::Field(j) => head.field(j),
        };
        let out = Flit::data(&[Self::apply(self.op, head.field(self.field), rhs)]);
        if !try_push(ctx.queues, self.out, out) {
            return Tick::full(self.out);
        }
        ctx.queues.get_mut(self.lhs).pop();
        Tick::Active
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn input_queues(&self) -> Vec<QueueId> {
        vec![self.lhs]
    }

    fn output_queues(&self) -> Vec<QueueId> {
        vec![self.out]
    }
}
