//! Test-local modules shared by the integration suites: a consumer slower
//! than its producer (the only way to hold a pipeline in backpressure for
//! long), a producer with gaps, a wrapper that counts how often the engine
//! ticks a module and one that checks every tick against the module
//! contract.
#![allow(dead_code)] // each suite uses its own subset

use genesis_hw::memory::MemStats;
use genesis_hw::modules::{Ctx, Module, ModuleKind, Tick, Watch};
use genesis_hw::queue::QueueId;
use genesis_hw::word::Flit;
use genesis_hw::{ResourceUsage, TierStats};
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

    fn resources(&self) -> ResourceUsage {
        self.inner.resources()
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

/// A source that pushes its next flit only on cycles divisible by
/// `period`, then closes its queue: upstream gaps. `period == 1` is an
/// ordinary source.
#[derive(Debug)]
pub struct SlowSource {
    label: String,
    out: QueueId,
    period: u64,
    flits: Vec<Flit>,
    next: usize,
    done: bool,
}

impl SlowSource {
    pub fn new(label: &str, out: QueueId, flits: Vec<Flit>, period: u64) -> SlowSource {
        assert!(period > 0);
        SlowSource { label: label.to_owned(), out, period, flits, next: 0, done: false }
    }
}

impl Module for SlowSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Source
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        if self.done {
            return Tick::Done;
        }
        if self.next == self.flits.len() {
            ctx.queues.get_mut(self.out).close();
            self.done = true;
            return Tick::Done;
        }
        let q = ctx.queues.get_mut(self.out);
        if ctx.cycle.is_multiple_of(self.period) && q.can_push() {
            q.push(self.flits[self.next]);
            self.next += 1;
        }
        // Whether a cycle pushes depends on the cycle number, so no tick
        // parks.
        Tick::Active
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn output_queues(&self) -> Vec<QueueId> {
        vec![self.out]
    }
}

/// What one queue looked like before a tick: enough to tell how many
/// flits the tick pushed and popped, whether it closed the queue and how
/// many refused pushes it counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueueMark {
    len: usize,
    pushed: u64,
    closed: bool,
    refused: u64,
}

fn mark(ctx: &Ctx<'_>, q: QueueId) -> QueueMark {
    let q = ctx.queues.get(q);
    QueueMark {
        len: q.len(),
        pushed: q.total_pushed(),
        closed: q.is_closed(),
        refused: q.total_full_stalls(),
    }
}

/// Device memory and scratchpad traffic so far: a parked tick adds none.
fn traffic(ctx: &Ctx<'_>) -> (MemStats, u64, Option<TierStats>) {
    let spm: u64 = ctx.spms.iter().map(|s| s.total_reads() + s.total_writes()).sum();
    (ctx.mem.stats(), spm, ctx.spms.tier_stats())
}

/// Forwards everything to `inner` and checks each of its ticks against
/// the module contract (`Tick`'s docs): each of its queues moved at most
/// one flit; a `Park` tick moved no flit, closed no queue and made no
/// memory, scratchpad or tier access; a `Watch::Full(q)` park counted
/// exactly one refused push, on `q`, and any other park none.
#[derive(Debug)]
pub struct Contract<M> {
    inner: M,
    queues: Vec<QueueId>,
}

/// `inner`, contract-checked and boxed for `System::add_module`.
pub fn contract<M: Module>(inner: M) -> Box<Contract<M>> {
    let mut queues = inner.input_queues();
    queues.extend(inner.output_queues());
    Box::new(Contract { inner, queues })
}

impl<M> Contract<M> {
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Module + 'static> Module for Contract<M> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn kind(&self) -> ModuleKind {
        self.inner.kind()
    }

    fn resources(&self) -> ResourceUsage {
        self.inner.resources()
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick {
        let before: Vec<QueueMark> = self.queues.iter().map(|&q| mark(ctx, q)).collect();
        let traffic_before = traffic(ctx);
        let t = self.inner.tick(ctx);
        let (label, cycle) = (self.inner.label(), ctx.cycle);
        let mut moved = false;
        let mut refused = Vec::new();
        for (&q, was) in self.queues.iter().zip(&before) {
            let now = mark(ctx, q);
            let pushes = now.pushed - was.pushed;
            let pops = (was.len + pushes as usize) - now.len;
            assert!(
                pushes + pops as u64 <= 1,
                "{label} moved {pushes} in and {pops} out of one queue at cycle {cycle}"
            );
            moved |= pushes + pops as u64 > 0 || now.closed != was.closed;
            refused.extend((now.refused > was.refused).then_some((q, now.refused - was.refused)));
        }
        if let Tick::Park { watch, .. } = t {
            assert!(!moved, "{label} parked ({watch:?}) in a tick that moved a flit at cycle {cycle}");
            assert_eq!(
                traffic(ctx),
                traffic_before,
                "{label} parked ({watch:?}) in a tick that reached memory at cycle {cycle}"
            );
            let expected = match watch {
                Watch::Full(q) => vec![(q, 1)],
                _ => Vec::new(),
            };
            assert_eq!(refused, expected, "{label} parked ({watch:?}) at cycle {cycle}");
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
