//! Host-side stream injector (testing and host-interface helper).

use super::{try_push, Ctx, Module, ModuleKind, Tick};
use crate::queue::QueueId;
use crate::word::{Flit, HwWord};
use std::any::Any;
use std::collections::VecDeque;

/// Feeds a pre-built flit sequence into a queue at one flit per cycle, then
/// closes the queue. Used by unit tests and by host-side injection paths.
#[derive(Debug)]
pub struct StreamSource {
    label: String,
    out: QueueId,
    pending: VecDeque<Flit>,
    done: bool,
}

impl StreamSource {
    /// Creates a source from explicit flits.
    #[must_use]
    pub fn from_flits(label: &str, out: QueueId, flits: Vec<Flit>) -> StreamSource {
        StreamSource { label: label.to_owned(), out, pending: flits.into(), done: false }
    }

    /// Creates a source from items of plain values: each item's values are
    /// emitted one per cycle followed by an end-of-item delimiter.
    #[must_use]
    pub fn from_items(label: &str, out: QueueId, items: &[Vec<u64>]) -> StreamSource {
        let mut flits = Vec::new();
        for item in items {
            for &v in item {
                flits.push(Flit::val(v));
            }
            flits.push(Flit::end_item());
        }
        StreamSource::from_flits(label, out, flits)
    }

    /// Creates a source of multi-field items.
    #[must_use]
    pub fn from_field_items(label: &str, out: QueueId, items: &[Vec<Vec<HwWord>>]) -> StreamSource {
        let mut flits = Vec::new();
        for item in items {
            for row in item {
                flits.push(Flit::data(row));
            }
            flits.push(Flit::end_item());
        }
        StreamSource::from_flits(label, out, flits)
    }
}

impl Module for StreamSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Source
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Active;
        }
        if let Some(flit) = self.pending.front() {
            if !try_push(ctx.queues, self.out, *flit) {
                // The same flit is refused until `out` drains.
                return Tick::full(self.out);
            }
            self.pending.pop_front();
        }
        if self.pending.is_empty() {
            ctx.queues.get_mut(self.out).close();
            self.done = true;
        }
        Tick::Active
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn input_queues(&self) -> Vec<QueueId> {
        Vec::new()
    }

    fn output_queues(&self) -> Vec<QueueId> {
        vec![self.out]
    }
}
