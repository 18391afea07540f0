//! The Genesis hardware module library (paper §III-C, Figure 6).
//!
//! Every module implements [`Module`]: one [`Module::tick`] call per clock
//! cycle, consuming at most one flit per input queue and producing at most
//! one flit per output queue, with explicit backpressure through the
//! bounded queues.

use crate::memory::MemorySystem;
use crate::queue::{QueueId, QueuePool};
use crate::resource::{module_cost, ResourceUsage};
use crate::spm::SpmPool;
use crate::word::Flit;
use std::any::Any;
use std::fmt;

pub mod alu;
pub mod binidgen;
pub mod fanout;
pub mod filter;
pub mod joiner;
pub mod mdgen;
pub mod mem_reader;
pub mod mem_writer;
pub mod read_to_bases;
pub mod reducer;
pub mod sink;
pub mod source;
pub mod spm_reader;
pub mod spm_updater;
pub mod zip;

/// Kind tag used by the FPGA resource model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleKind {
    /// Streams columns from device memory, one lane per column.
    MemoryReader,
    /// Writes a stream to device memory.
    MemoryWriter,
    /// Key-merge of two sorted streams.
    Joiner,
    /// Predicate filter.
    Filter,
    /// Reduction-tree aggregation.
    Reducer,
    /// Streaming ALU.
    Alu,
    /// Scratchpad reader.
    SpmReader,
    /// Scratchpad updater (with read-modify-write interlock).
    SpmUpdater,
    /// The `ReadExplode` hardware (genomics module).
    ReadToBases,
    /// MD-tag generator (custom genomics module).
    MdGen,
    /// BQSR bin-id generator (custom genomics module).
    BinIdGen,
    /// One-to-many stream replication.
    Fanout,
    /// Many-to-one lock-step field concatenation (row assembly).
    Zip,
    /// Host-side stream injector (testing / host interface).
    Source,
    /// Host-side stream collector (testing / host interface).
    Sink,
}

/// Outcome of one [`Module::tick`], consumed by the fast engine
/// (see `System::run`).
///
/// The contract behind [`Tick::Park`] is strict. A module may report it
/// only when, until either a watched queue (one listed in
/// [`Module::input_queues`]/[`Module::output_queues`]) is mutated by
/// another module or the `wake_at` cycle arrives, every future tick would
/// be exactly the tick that just ran, and that tick was one of:
///
/// - a **pure no-op** — no flits moved, no queues closed, no memory or
///   scratchpad traffic, no stall counters incremented, no internal state
///   changed ([`Watch::Inputs`], [`Watch::Outputs`], [`Watch::Queue`],
///   [`Watch::Timer`], [`Watch::Spill`]); or
/// - **one refused push and nothing else** — the tick counted exactly one
///   backpressure stall on output `q` (`Queue::note_full_stall`) and did
///   nothing besides ([`Watch::Full`]). The engine then knows what every
///   skipped tick would have counted, and credits `q` with the number of
///   ticks it skipped when the park ends.
///
/// Under that invariant the scheduler can skip the module's ticks without
/// observable effect, which is what keeps the fast engine bit-identical to
/// the tick-everything reference engine (which ignores parks and counts
/// every stall itself). Ticks that count any *other* stall (a memory
/// arbitration loss, a RAW hazard), or that count a refused push next to
/// other work or a state change, must report [`Tick::Active`]: the naive
/// engine re-counts those every cycle, so the module must keep ticking to
/// match. `Active` is always safe — except on the finishing tick, which
/// must report [`Tick::Done`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tick {
    /// The module did (or may have done) observable work this cycle.
    Active,
    /// The module has finished: all work done and every output closed.
    /// The tick on which [`Module::is_done`] turns true reports it (a
    /// debug build asserts so), and both engines then retire the module;
    /// a finished module ticked anyway reports `Done` again.
    Done,
    /// Every tick until the watched state changes would repeat this one
    /// (a no-op, or one refused push); skip the module until then.
    Park {
        /// Earliest cycle at which a time-based event (a pending memory
        /// response) can unblock the module, when one exists. Watched
        /// queue activity still wakes the module earlier.
        wake_at: Option<u64>,
        /// Which queue events can make a future tick do work again. The
        /// narrower the watch, the fewer spurious wake-ups: a module
        /// starved on one specific input should name it, so unrelated
        /// traffic (e.g. a consumer draining the module's output queue)
        /// does not re-tick it for nothing.
        watch: Watch,
    },
}

/// Wake condition of a parked module (see [`Tick::Park`]).
///
/// A module must choose a watch that covers *every* queue event able to
/// change its next tick — over-watching merely costs spurious wake-ups,
/// but under-watching stalls the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Watch {
    /// Any mutation of any queue in [`Module::input_queues`] (the common
    /// input-starved park).
    Inputs,
    /// Any mutation of any queue in [`Module::output_queues`] (the
    /// output-full park of modules that do not count a backpressure stall,
    /// e.g. `Fanout`).
    Outputs,
    /// Mutation of exactly this queue (which must be one of the module's
    /// declared input or output queues).
    Queue(QueueId),
    /// Mutation of exactly this *output* queue, by a module whose tick did
    /// nothing except count one refused push on it (see [`Tick::full`]).
    /// The interval is attributed to backpressure, and the engine credits
    /// the queue's refused-push counter with one stall per skipped tick.
    Full(QueueId),
    /// No queue event can help; only the timed `wake_at` (a pending memory
    /// response) unblocks the module.
    Timer,
    /// Like [`Watch::Timer`], but the wait is a tiered-memory page
    /// spill/fill (`SpmPool::tier_wait` returned a ready cycle). Stall
    /// attribution lands in the `stall:spill` bucket instead of
    /// `stall:memory`.
    Spill,
}

impl Tick {
    /// Shorthand for an input-starved park with no timed wake-up.
    pub const PARK: Tick = Tick::Park { wake_at: None, watch: Watch::Inputs };

    /// Park until precisely `q` is mutated.
    #[must_use]
    #[inline]
    pub fn park_on(q: QueueId) -> Tick {
        Tick::Park { wake_at: None, watch: Watch::Queue(q) }
    }

    /// Park after a refused push on output `q`: this tick did nothing but
    /// count that one stall, and every tick until `q` is mutated would do
    /// exactly the same ([`Watch::Full`]).
    #[must_use]
    #[inline]
    pub fn full(q: QueueId) -> Tick {
        Tick::Park { wake_at: None, watch: Watch::Full(q) }
    }
}

/// Everything a module can touch during a cycle.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// All queues.
    pub queues: &'a mut QueuePool,
    /// All scratchpads.
    pub spms: &'a mut SpmPool,
    /// The device memory system.
    pub mem: &'a mut MemorySystem,
    /// Current cycle number.
    pub cycle: u64,
}

/// One hardware module instance.
///
/// Modules are `Send` so a whole [`crate::System`] can execute on a worker
/// thread behind the non-blocking host API (paper §III-E).
pub trait Module: fmt::Debug + Send {
    /// Instance label for diagnostics.
    fn label(&self) -> &str;

    /// Kind tag for the resource model.
    fn kind(&self) -> ModuleKind;

    /// The fabric the module occupies in the resource model: its
    /// [`ModuleKind`]'s cost, once per copy of that hardware it
    /// instantiates. A Memory Reader or Writer has one copy per column it
    /// streams (each with its own port, address generator and line
    /// buffer), every other module one.
    fn resources(&self) -> ResourceUsage {
        module_cost(self.kind())
    }

    /// Advances one clock cycle and reports whether the module is still
    /// doing observable work, parked (see [`Tick`] for the park contract)
    /// or finished ([`Tick::Done`]).
    fn tick(&mut self, ctx: &mut Ctx<'_>) -> Tick;

    /// True once the module has finished all work and flushed all outputs.
    /// The engine reads it when a run starts (a resumed run skips the
    /// modules an earlier one finished); during a run, [`Tick::Done`]
    /// reports the change.
    fn is_done(&self) -> bool;

    /// Downcasting support (used to read results out of sinks/writers).
    fn as_any(&self) -> &dyn Any;

    /// Appends the queues this module consumes to `out` (the engine's
    /// wake lists, pipeline visualization).
    fn input_queues(&self, _out: &mut Vec<QueueId>) {}

    /// Appends the queues this module produces into to `out`.
    fn output_queues(&self, _out: &mut Vec<QueueId>) {}
}

/// Pushes `flit` to queue `q` if space permits; returns whether it was
/// accepted and records a backpressure stall otherwise.
#[inline]
pub(crate) fn try_push(queues: &mut QueuePool, q: QueueId, flit: Flit) -> bool {
    if refused(queues, q) {
        return false;
    }
    queues.get_mut(q).push(flit);
    true
}

/// True when `q` cannot accept a flit this cycle, after recording the
/// backpressure stall: the refused push, for modules that must know
/// before they build the flit or touch a scratchpad.
#[inline]
pub(crate) fn refused(queues: &mut QueuePool, q: QueueId) -> bool {
    if queues.get(q).can_push() {
        return false;
    }
    queues.get_mut(q).note_full_stall();
    true
}

/// Moves the head of `from` to `to` unchanged when `to` has space; leaves
/// it and records a backpressure stall on `to` otherwise. The caller has
/// peeked the head.
#[inline]
pub(crate) fn try_forward(queues: &mut QueuePool, from: QueueId, to: QueueId) -> bool {
    if refused(queues, to) {
        return false;
    }
    let flit = queues.get_mut(from).pop().expect("caller peeked the head");
    queues.get_mut(to).push(flit);
    true
}

/// True when every queue in `qs` can accept a flit this cycle.
#[inline]
pub(crate) fn all_can_push(queues: &QueuePool, qs: &[QueueId]) -> bool {
    qs.iter().all(|&q| queues.get(q).can_push())
}
