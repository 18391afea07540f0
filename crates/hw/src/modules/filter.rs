//! Filter: predicate selection on a stream (paper §III-C, Figure 6).

use super::{try_forward, Ctx, Module, ModuleKind, Tick};
use crate::queue::QueueId;
use crate::word::{Flit, HwWord};
use std::any::Any;

/// One comparison operand: a flit field or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Flit field by index.
    Field(usize),
    /// Immediate constant.
    Const(u64),
}

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
    /// True when the left operand is a plain value (not `Ins`/`Del`): the
    /// tag check used to exclude indel flits from quality accumulation.
    IsVal,
}

impl CmpOp {
    /// Whether `a op b` holds for two plain values: the one comparison
    /// behind both [`Predicate::eval`] and the host-side scan pushdown, so
    /// the two cannot drift. (`IsVal` holds — both operands are values.)
    #[inline]
    #[must_use]
    pub fn holds(self, a: u64, b: u64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::IsVal => true,
        }
    }
}

/// A filter predicate: `lhs op rhs`.
///
/// Sentinel semantics: an `Ins`/`Del` operand compares *unequal* to
/// everything (so `Ne` passes and `Eq` drops), and never satisfies ordered
/// comparisons. This is what makes the metadata pipeline's
/// "read bp ≠ ref bp" filter count insertions and deletions as
/// mismatches, as the paper's NM definition requires (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predicate {
    /// Left operand.
    pub lhs: Operand,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Operand,
}

impl Predicate {
    /// `field(i) op field(j)`.
    #[must_use]
    pub fn fields(i: usize, op: CmpOp, j: usize) -> Predicate {
        Predicate { lhs: Operand::Field(i), op, rhs: Operand::Field(j) }
    }

    /// `field(i) op constant`.
    #[must_use]
    pub fn field_const(i: usize, op: CmpOp, c: u64) -> Predicate {
        Predicate { lhs: Operand::Field(i), op, rhs: Operand::Const(c) }
    }

    /// Passes flits whose field `i` carries a plain value (drops the
    /// `Ins`/`Del` sentinels).
    #[must_use]
    pub fn field_is_value(i: usize) -> Predicate {
        Predicate { lhs: Operand::Field(i), op: CmpOp::IsVal, rhs: Operand::Const(0) }
    }

    fn resolve(op: Operand, flit: &Flit) -> HwWord {
        match op {
            Operand::Field(i) => flit.field(i),
            Operand::Const(c) => HwWord::Val(c),
        }
    }

    /// Evaluates the predicate against a flit's fields.
    #[must_use]
    pub fn eval(&self, flit: &Flit) -> bool {
        let l = Self::resolve(self.lhs, flit);
        let r = Self::resolve(self.rhs, flit);
        if self.op == CmpOp::IsVal {
            return matches!(l, HwWord::Val(_));
        }
        match (l, r) {
            (HwWord::Val(a), HwWord::Val(b)) => self.op.holds(a, b),
            // Any sentinel/empty operand: unequal to everything.
            _ => matches!(self.op, CmpOp::Ne),
        }
    }
}

/// Passes data flits satisfying the predicate, drops the rest; end-of-item
/// delimiters always pass through.
#[derive(Debug)]
pub struct Filter {
    label: String,
    pred: Predicate,
    input: QueueId,
    out: QueueId,
    passed: u64,
    dropped: u64,
    done: bool,
}

impl Filter {
    /// Creates a filter.
    #[must_use]
    pub fn new(label: &str, pred: Predicate, input: QueueId, out: QueueId) -> Filter {
        Filter { label: label.to_owned(), pred, input, out, passed: 0, dropped: 0, done: false }
    }

    /// Number of flits that satisfied the predicate.
    #[must_use]
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Number of flits dropped.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Module for Filter {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Filter
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
        let is_data = !head.is_end_item();
        if is_data && !self.pred.eval(head) {
            ctx.queues.get_mut(self.input).pop();
            self.dropped += 1;
            return Tick::Active;
        }
        if !try_forward(ctx.queues, self.input, self.out) {
            // Only this module pops the head, so the same flit is refused
            // until `out` drains.
            return Tick::full(self.out);
        }
        self.passed += u64::from(is_data);
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
