//! Host-side stream collector (testing and host-interface helper).

use super::{Ctx, Module, ModuleKind, Tick};
use crate::queue::QueueId;
use crate::word::{Flit, HwWord};
use std::any::Any;

/// Collects every flit arriving on a queue (one per cycle) until the
/// stream closes.
#[derive(Debug)]
pub struct StreamSink {
    label: String,
    input: QueueId,
    collected: Vec<Flit>,
    done: bool,
}

impl StreamSink {
    /// Creates a sink on `input`.
    #[must_use]
    pub fn new(label: impl Into<String>, input: QueueId) -> StreamSink {
        StreamSink { label: label.into(), input, collected: Vec::new(), done: false }
    }

    /// All collected flits, including end-of-item delimiters.
    #[must_use]
    pub fn flits(&self) -> &[Flit] {
        &self.collected
    }

    /// First field of every data flit, in order (delimiters skipped).
    #[must_use]
    pub fn values(&self) -> Vec<HwWord> {
        self.collected.iter().filter(|f| !f.is_end_item()).map(|f| f.field(0)).collect()
    }

    /// Data flits grouped into items by the end-of-item delimiters.
    #[must_use]
    pub fn items(&self) -> Vec<Vec<Flit>> {
        let mut items = Vec::new();
        let mut cur = Vec::new();
        for f in &self.collected {
            if f.is_end_item() {
                items.push(std::mem::take(&mut cur));
            } else {
                cur.push(*f);
            }
        }
        if !cur.is_empty() {
            items.push(cur);
        }
        items
    }
}

impl Module for StreamSink {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Sink
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Done;
        }
        let q = ctx.queues.get_mut(self.input);
        if let Some(flit) = q.pop() {
            self.collected.push(flit);
        } else if q.is_finished() {
            self.done = true;
            return Tick::Done;
        } else {
            // Empty and still open: nothing to do until the producer
            // pushes or closes.
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
}
