//! Reducer: reduction-tree aggregation (paper §III-C, Figure 6).

use super::{try_push, Ctx, Module, ModuleKind, Tick};
use crate::queue::QueueId;
use crate::word::{Flit, HwWord};
use std::any::Any;

/// Supported reduction operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of values (sentinels skipped).
    Sum,
    /// Count of data flits (sentinels included — a filtered mismatch is a
    /// mismatch even when the offending base is an insertion or deletion).
    Count,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
}

/// Aggregates the chosen field across each item; at every end-of-item
/// delimiter it emits the aggregate followed by a delimiter, then resets.
///
/// Supports masked reduction (paper §III-C): with a mask field configured,
/// only flits whose mask field is non-zero are accumulated.
#[derive(Debug)]
pub struct Reducer {
    label: String,
    op: ReduceOp,
    value_field: usize,
    mask_field: Option<usize>,
    input: QueueId,
    out: QueueId,
    acc: u64,
    saw_data: bool,
    /// Pending outputs: Some(aggregate) means "emit value, then delimiter".
    pending_value: Option<u64>,
    pending_end: bool,
    done: bool,
}

impl Reducer {
    /// Creates a reducer over `value_field`.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        op: ReduceOp,
        value_field: usize,
        input: QueueId,
        out: QueueId,
    ) -> Reducer {
        Reducer {
            label: label.into(),
            op,
            value_field,
            mask_field: None,
            input,
            out,
            acc: Reducer::init(op),
            saw_data: false,
            pending_value: None,
            pending_end: false,
            done: false,
        }
    }

    /// Adds a mask field: only flits with a non-zero mask accumulate.
    #[must_use]
    pub fn with_mask(mut self, mask_field: usize) -> Reducer {
        self.mask_field = Some(mask_field);
        self
    }

    fn init(op: ReduceOp) -> u64 {
        match op {
            ReduceOp::Sum | ReduceOp::Count | ReduceOp::Max => 0,
            ReduceOp::Min => u64::MAX,
        }
    }

    fn accumulate(&mut self, w: HwWord) {
        match self.op {
            ReduceOp::Count => self.acc += 1,
            ReduceOp::Sum => {
                if let HwWord::Val(v) = w {
                    self.acc += v;
                }
            }
            ReduceOp::Min => {
                if let HwWord::Val(v) = w {
                    self.acc = self.acc.min(v);
                }
            }
            ReduceOp::Max => {
                if let HwWord::Val(v) = w {
                    self.acc = self.acc.max(v);
                }
            }
        }
    }
}

impl Module for Reducer {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Reducer
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Done;
        }
        // Drain pending outputs first (aggregate, then delimiter).
        // A refused push here returns before the input is looked at, so
        // it is a pure stall.
        if let Some(v) = self.pending_value {
            if !try_push(ctx.queues, self.out, Flit::val(v)) {
                return Tick::full(self.out);
            }
            self.pending_value = None;
            self.pending_end = true;
            return Tick::Active;
        }
        if self.pending_end {
            if !try_push(ctx.queues, self.out, Flit::end_item()) {
                return Tick::full(self.out);
            }
            self.pending_end = false;
            return Tick::Active;
        }
        let q = ctx.queues.get_mut(self.input);
        if let Some(flit) = q.pop() {
            if flit.is_end_item() {
                self.pending_value = Some(self.acc);
                self.acc = Reducer::init(self.op);
                self.saw_data = false;
            } else {
                let masked_out = self
                    .mask_field
                    .is_some_and(|m| flit.field(m).val_or_zero() == 0);
                if !masked_out {
                    self.accumulate(flit.field(self.value_field));
                }
                self.saw_data = true;
            }
        } else if q.is_finished() {
            if self.saw_data {
                // Robustness: an unterminated trailing item still reduces.
                self.pending_value = Some(self.acc);
                self.acc = Reducer::init(self.op);
                self.saw_data = false;
            } else {
                ctx.queues.get_mut(self.out).close();
                self.done = true;
                return Tick::Done;
            }
        } else {
            // Input empty and still open.
            return Tick::PARK;
        }
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
        out.push(self.out);
    }
}
