//! Test-local modules shared by the integration suites: a consumer slower
//! than its producer (the only way to hold a pipeline in backpressure for
//! long), and a wrapper that counts how often the engine ticks a module.
#![allow(dead_code)] // each suite uses its own subset

use genesis_hw::modules::{Ctx, Module, ModuleKind, Tick, Watch};
use genesis_hw::queue::QueueId;
use genesis_hw::word::Flit;
use std::any::Any;
use std::cell::Cell;

/// A sink that pops at most one flit every `period`-th cycle (on cycles
/// divisible by `period`), so with `period > 1` its input queue fills and
/// the producer is refused. `period == 1` is an ordinary sink.
#[derive(Debug)]
pub struct SlowSink {
    label: String,
    input: QueueId,
    period: u64,
    collected: Vec<Flit>,
    done: bool,
}

impl SlowSink {
    pub fn new(label: &str, input: QueueId, period: u64) -> SlowSink {
        assert!(period > 0);
        SlowSink { label: label.to_owned(), input, period, collected: Vec::new(), done: false }
    }

    pub fn flits(&self) -> &[Flit] {
        &self.collected
    }
}

impl Module for SlowSink {
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
        let q = ctx.queues.get(self.input);
        if q.is_finished() {
            self.done = true;
            return Tick::Done;
        } else if q.is_empty() {
            // Nothing to pop on any cycle until the producer acts.
            return Tick::PARK;
        } else if ctx.cycle.is_multiple_of(self.period) {
            self.collected.extend(ctx.queues.get_mut(self.input).pop());
        }
        // Off-beat cycles with data waiting depend on the cycle number, so
        // they are not parkable.
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
}

/// How often the engine ticked the wrapped module, how often those ticks
/// parked, and how often they reported a [`Watch::Full`] park with and
/// without a timed wake.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickCensus {
    pub ticks: u64,
    pub parks: u64,
    pub full_timed: u64,
    pub full_untimed: u64,
}

thread_local! {
    /// Ticks any [`Counted`] module on this test thread received after it
    /// reported [`Tick::Done`] (never, by contract).
    static TICKS_AFTER_DONE: Cell<u64> = const { Cell::new(0) };
}

/// Ticks after [`Tick::Done`] that the [`Counted`] modules on this thread
/// have received so far.
pub fn ticks_after_done() -> u64 {
    TICKS_AFTER_DONE.with(Cell::get)
}

/// Forwards everything to `inner`, counts its ticks and records any tick
/// after its `Done`.
#[derive(Debug)]
pub struct Counted<M> {
    inner: M,
    census: TickCensus,
    done: bool,
}

impl<M: Module> Counted<M> {
    pub fn new(inner: M) -> Counted<M> {
        Counted { inner, census: TickCensus::default(), done: false }
    }

    pub fn census(&self) -> TickCensus {
        self.census
    }

    pub fn inner(&self) -> &M {
        &self.inner
    }
}

/// `inner`, counted and boxed for `System::add_module`.
pub fn counted<M: Module>(inner: M) -> Box<Counted<M>> {
    Box::new(Counted::new(inner))
}

impl<M: Module + 'static> Module for Counted<M> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn kind(&self) -> ModuleKind {
        self.inner.kind()
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            TICKS_AFTER_DONE.with(|n| n.set(n.get() + 1));
        }
        let t = self.inner.tick(ctx);
        self.census.ticks += 1;
        self.done |= t == Tick::Done;
        self.census.parks += u64::from(matches!(t, Tick::Park { .. }));
        if let Tick::Park { wake_at, watch: Watch::Full(_) } = t {
            if wake_at.is_some() {
                self.census.full_timed += 1;
            } else {
                self.census.full_untimed += 1;
            }
        }
        t
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn input_queues(&self) -> Vec<QueueId> {
        self.inner.input_queues()
    }

    fn output_queues(&self) -> Vec<QueueId> {
        self.inner.output_queues()
    }
}
