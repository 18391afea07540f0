//! Fanout: one-to-many stream replication.
//!
//! The paper's pipeline diagrams (Figures 11 and 12) feed one module's
//! output to several consumers (e.g. the left joiner feeds both the filter
//! and MDGen). In hardware this is a queue with multiple reader taps; in
//! the simulator it is an explicit module that copies each flit to every
//! output, stalling until all outputs have space.

use super::{all_can_push, Ctx, Module, ModuleKind, Tick, Watch};
use crate::queue::QueueId;
use std::any::Any;

/// Replicates a stream to `outputs`.
#[derive(Debug)]
pub struct Fanout {
    label: String,
    input: QueueId,
    outputs: Vec<QueueId>,
    done: bool,
}

impl Fanout {
    /// Creates a fanout.
    ///
    /// # Panics
    ///
    /// Panics when `outputs` is empty.
    #[must_use]
    pub fn new(label: &str, input: QueueId, outputs: Vec<QueueId>) -> Fanout {
        assert!(!outputs.is_empty(), "fanout needs at least one output");
        Fanout { label: label.to_owned(), input, outputs, done: false }
    }
}

impl Module for Fanout {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Fanout
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Active;
        }
        if ctx.queues.get(self.input).is_finished() {
            for &q in &self.outputs {
                ctx.queues.get_mut(q).close();
            }
            self.done = true;
            return Tick::Active;
        }
        if ctx.queues.get(self.input).peek().is_some() && all_can_push(ctx.queues, &self.outputs) {
            let flit = ctx.queues.get_mut(self.input).pop().expect("peeked");
            for &q in &self.outputs {
                ctx.queues.get_mut(q).push(flit);
            }
            return Tick::Active;
        }
        // Waiting for input data or for every output to have space; the
        // `all_can_push` check counts no stall, so this is a pure no-op.
        // Watch whichever side is actually blocking: the empty input, or
        // (input ready, some output full) the outputs a consumer pop
        // would free up.
        if ctx.queues.get(self.input).peek().is_none() {
            Tick::PARK
        } else {
            Tick::Park { wake_at: None, watch: Watch::Outputs }
        }
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
        self.outputs.clone()
    }
}
