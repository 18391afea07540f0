//! The engine core shared by both simulation engines.
//!
//! [`EngineCore`] borrows a [`crate::System`]'s simulation state for the
//! duration of one [`crate::System::run`] call and drives it with one tick
//! loop:
//!
//! - **Reference** (`park_enabled = false`): every unfinished module ticks
//!   every cycle; park results are ignored. The frozen oracle.
//! - **Fast** (`park_enabled = true`): parked modules are skipped until a
//!   watched queue changes or a timed wake arrives, and stretches where
//!   every live module is parked advance in closed form.
//!
//! Skipping is exact, not approximate: a module may park only after a tick
//! that every later tick would repeat until a watched queue is mutated or
//! its timed wake arrives, and that was either a pure no-op or nothing but
//! one refused push — whose skipped repeats the engine then counts in
//! closed form (see [`Tick::Park`], [`Watch::Full`]). So cycle counts,
//! stall counters, memory traffic, scratchpad contents and outputs are
//! bit-identical between the two.

use crate::memory::MemorySystem;
use crate::modules::{Ctx, Module, Tick, Watch};
use crate::queue::{QueueId, QueuePool};
use crate::spm::SpmPool;
use crate::system::{SimError, TraceState};
use genesis_obs::{SpanKind, StallClass, StallCounters};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Watcher-role bits: how a module relates to a watched queue.
const ROLE_INPUT: u8 = 1;
const ROLE_OUTPUT: u8 = 2;

/// Per-run span/stall bookkeeping. Kept separate from the tick loop so
/// every exit path (drain, deadlock, cycle limit) finalizes identically.
#[derive(Debug, Default)]
struct RunObs {
    /// Cycle at which this run started.
    base: u64,
    /// Whether each module is currently parked.
    parked: Vec<bool>,
    /// Cycle at which the current park began.
    park_at: Vec<u64>,
    /// Classification of the current park.
    park_class: Vec<StallClass>,
    /// Start cycle of the current active span (tracing only).
    span_start: Vec<u64>,
    /// Stalled cycles accumulated by each module during this run.
    stalled: Vec<u64>,
}

impl RunObs {
    /// Refills the bookkeeping for a run of `n` modules from `base`.
    fn start(&mut self, n: usize, base: u64) {
        self.base = base;
        refill(&mut self.parked, n, false);
        refill(&mut self.park_at, n, 0);
        refill(&mut self.park_class, n, StallClass::InputStarved);
        refill(&mut self.span_start, n, base);
        refill(&mut self.stalled, n, 0);
    }
}

/// `v` as `n` copies of `value`, in its own buffer.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

/// The engine's per-run tables, which a [`crate::System`] keeps between
/// runs: each run refills every one of them ([`EngineCore::new`]) and
/// hands them back ([`EngineCore::into_tables`]), so a run allocates
/// none once the system has run a graph of its size.
#[derive(Debug, Default)]
pub(crate) struct EngineTables {
    obs: RunObs,
    watchers: Vec<(usize, u8)>,
    watch_at: Vec<usize>,
    /// [`watch_lists`]' scratch list of (queue, module, role) pairs.
    pairs: Vec<(usize, usize, u8)>,
    qs: Vec<QueueId>,
    q_at: Vec<(usize, usize, usize)>,
    done: Vec<bool>,
    parked_watch: Vec<Watch>,
    gen: Vec<u32>,
    timed: BinaryHeap<Reverse<(u64, usize, u32)>>,
    touched: Vec<u32>,
}

fn watch_matches(watch: Watch, role: u8, qi: u32) -> bool {
    match watch {
        Watch::Inputs => role & ROLE_INPUT != 0,
        Watch::Outputs => role & ROLE_OUTPUT != 0,
        Watch::Queue(id) | Watch::Full(id) => id.index() == qi as usize,
        Watch::Timer | Watch::Spill => false,
    }
}

/// The modules that watch each of `queues` queues, written to `watchers`
/// and `watch_at` in [`EngineCore`]'s layout: one entry per (queue,
/// module) pair, modules ascending, its role bits the union of every role
/// the module lists the queue in. `pairs` is scratch.
fn watch_lists(
    qs: &[QueueId],
    q_at: &[(usize, usize, usize)],
    queues: usize,
    pairs: &mut Vec<(usize, usize, u8)>,
    watchers: &mut Vec<(usize, u8)>,
    watch_at: &mut Vec<usize>,
) {
    pairs.clear();
    pairs.reserve(qs.len());
    for (i, &(start, split, end)) in q_at.iter().enumerate() {
        for (k, q) in qs[start..end].iter().enumerate() {
            let role = if start + k < split { ROLE_INPUT } else { ROLE_OUTPUT };
            pairs.push((q.index(), i, role));
        }
    }
    pairs.sort_unstable_by_key(|&(q, i, _)| (q, i));
    watchers.clear();
    watchers.reserve(pairs.len());
    refill(watch_at, queues + 1, 0);
    let mut last = None;
    for &(q, i, role) in pairs.iter() {
        if last == Some((q, i)) {
            watchers.last_mut().expect("the pair's entry").1 |= role;
            continue;
        }
        last = Some((q, i));
        watchers.push((i, role));
        watch_at[q + 1] = watchers.len();
    }
    // Queues no module lists end where the queue before them does.
    for q in 1..=queues {
        watch_at[q] = watch_at[q].max(watch_at[q - 1]);
    }
}

/// Registers (or unregisters) the concrete queues a module's park
/// watches, so `get_mut` records touches only for queues some parked
/// module actually waits on.
fn adjust_watches(queues: &mut QueuePool, ins: &[QueueId], outs: &[QueueId], watch: Watch, add: bool) {
    let qs: &[QueueId] = match watch {
        Watch::Inputs => ins,
        Watch::Outputs => outs,
        Watch::Queue(q) | Watch::Full(q) => {
            if add {
                queues.add_watch(q);
            } else {
                queues.remove_watch(q);
            }
            return;
        }
        Watch::Timer | Watch::Spill => return,
    };
    for &q in qs {
        if add {
            queues.add_watch(q);
        } else {
            queues.remove_watch(q);
        }
    }
}

/// Classifies a park by the `Watch` it declared: what the module said it
/// was waiting on is what the stall is attributed to.
fn classify_stall(watch: Watch, ins: &[QueueId], outs: &[QueueId]) -> StallClass {
    match watch {
        Watch::Timer => StallClass::MemoryWait,
        Watch::Spill => StallClass::SpillWait,
        Watch::Inputs => StallClass::InputStarved,
        Watch::Outputs | Watch::Full(_) => StallClass::Backpressured,
        Watch::Queue(q) => {
            if outs.contains(&q) && !ins.contains(&q) {
                StallClass::Backpressured
            } else {
                StallClass::InputStarved
            }
        }
    }
}

/// One engine run: the borrowed simulation state plus all scheduling
/// bookkeeping.
pub(crate) struct EngineCore<'a> {
    modules: &'a mut [Box<dyn Module>],
    queues: &'a mut QueuePool,
    spms: &'a mut SpmPool,
    mem: &'a mut MemorySystem,
    /// Stall counters indexed like `modules`.
    stall: &'a mut [StallCounters],
    trace: &'a mut Option<TraceState>,
    /// Current cycle; the caller copies it back after the run.
    pub(crate) cycle: u64,
    /// Module ticks run so far; the caller adds them to its census.
    pub(crate) ticks: u64,
    obs: RunObs,
    park_enabled: bool,
    /// The modules watching each queue, ascending, tagged with role bits:
    /// queue `q`'s are `watchers[watch_at[q]..watch_at[q + 1]]`.
    watchers: Vec<(usize, u8)>,
    watch_at: Vec<usize>,
    /// Every module's input queues, then its output queues: module `i`'s
    /// are `qs[q_at[i].0..q_at[i].1]` and `qs[q_at[i].1..q_at[i].2]`. One
    /// list for the run, however many modules (the engine's set-up must
    /// not cost an allocation per module).
    qs: Vec<QueueId>,
    q_at: Vec<(usize, usize, usize)>,
    done: Vec<bool>,
    done_count: usize,
    parked_watch: Vec<Watch>,
    parked_count: usize,
    /// Bumped on every unpark so stale timed-heap entries are ignored.
    gen: Vec<u32>,
    timed: BinaryHeap<Reverse<(u64, usize, u32)>>,
    touched: Vec<u32>,
    /// Local mirror of the pool's touch-tracking flag.
    tracking: bool,
    /// [`watch_lists`]' scratch, kept for the next run.
    pairs: Vec<(usize, usize, u8)>,
}

impl<'a> EngineCore<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        modules: &'a mut [Box<dyn Module>],
        queues: &'a mut QueuePool,
        spms: &'a mut SpmPool,
        mem: &'a mut MemorySystem,
        stall: &'a mut [StallCounters],
        trace: &'a mut Option<TraceState>,
        cycle: u64,
        park_enabled: bool,
        tables: EngineTables,
    ) -> EngineCore<'a> {
        let EngineTables {
            mut obs,
            mut watchers,
            mut watch_at,
            mut pairs,
            mut qs,
            mut q_at,
            mut done,
            mut parked_watch,
            mut gen,
            mut timed,
            mut touched,
        } = tables;
        let n = modules.len();
        qs.clear();
        qs.reserve(4 * n);
        q_at.clear();
        q_at.reserve(n);
        for m in modules.iter() {
            let start = qs.len();
            m.input_queues(&mut qs);
            let split = qs.len();
            m.output_queues(&mut qs);
            q_at.push((start, split, qs.len()));
        }
        watch_lists(&qs, &q_at, queues.len(), &mut pairs, &mut watchers, &mut watch_at);
        done.clear();
        done.extend(modules.iter().map(|m| m.is_done()));
        let done_count = done.iter().filter(|&&d| d).count();
        obs.start(n, cycle);
        refill(&mut parked_watch, n, Watch::Inputs);
        refill(&mut gen, n, 0);
        timed.clear();
        touched.clear();
        queues.set_touch_tracking(false);
        queues.clear_watches();
        EngineCore {
            modules,
            queues,
            spms,
            mem,
            stall,
            trace,
            cycle,
            ticks: 0,
            obs,
            park_enabled,
            watchers,
            watch_at,
            qs,
            q_at,
            done,
            done_count,
            parked_watch,
            parked_count: 0,
            gen,
            timed,
            touched,
            tracking: false,
            pairs,
        }
    }

    /// Ends the run, handing its tables back for the next one.
    pub(crate) fn into_tables(self) -> EngineTables {
        EngineTables {
            obs: self.obs,
            watchers: self.watchers,
            watch_at: self.watch_at,
            pairs: self.pairs,
            qs: self.qs,
            q_at: self.q_at,
            done: self.done,
            parked_watch: self.parked_watch,
            gen: self.gen,
            timed: self.timed,
            touched: self.touched,
        }
    }

    fn is_complete(&self) -> bool {
        self.done_count == self.modules.len()
    }

    /// Observable-progress fingerprint for deadlock detection.
    fn signature(&self) -> (u64, u64, usize) {
        let pushed: u64 = self.queues.iter().map(crate::queue::Queue::total_pushed).sum();
        let mem = self.mem.stats();
        (pushed, mem.read_lines + mem.write_lines + self.spms.tier_ops(), self.done_count)
    }

    /// Cycles without signature progress before a deadlock is declared.
    /// Both latencies come from `GENESIS_*` specs, so the sum saturates: a
    /// window of `u64::MAX` never closes before the cycle budget does.
    fn deadlock_window(&self) -> u64 {
        let mem = self.mem.config().worst_case_latency_cycles().saturating_mul(4);
        let tier = self.spms.tier_worst_wait().saturating_mul(4);
        mem.saturating_add(tier).saturating_add(10_000)
    }

    fn stuck_labels(&self) -> Vec<String> {
        self.modules
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.done[i])
            .map(|(_, m)| m.label().to_owned())
            .collect()
    }

    #[inline]
    fn sample_queues_if_due(&mut self) {
        let Some(ts) = &mut *self.trace else { return };
        if self.cycle < ts.next_sample {
            return;
        }
        for (qi, q) in self.queues.iter().enumerate() {
            let d = q.len() as u64;
            if ts.last_depth[qi] != d {
                ts.last_depth[qi] = d;
                ts.buf.record_sample(qi as u32, self.cycle, d);
            }
        }
        ts.next_sample = self.cycle + ts.stride;
    }

    /// True when module `i` holds a park that a wake may end.
    #[inline]
    fn is_parked(&self, i: usize) -> bool {
        self.obs.parked[i] && !self.done[i]
    }

    /// Credits a [`Watch::Full`] park's queue with the refused pushes of
    /// the ticks the park skipped: the module's own tick at `park_at`
    /// counted one, and the reference engine counts one more on each of
    /// its ticks in `park_at + 1 .. resume`, where `resume` is the first
    /// cycle the module ticks again.
    fn credit_full_stalls(&mut self, i: usize, resume: u64) {
        if let Watch::Full(q) = self.parked_watch[i] {
            self.queues.credit_full_stalls(q, resume - self.obs.park_at[i] - 1);
        }
    }

    /// Wakes parked module `i`: drops its queue watches, invalidates its
    /// timed-heap entries and closes the park interval into its stall
    /// counters (and the trace) where the module next ticks. That is the
    /// current cycle, or the following one when `slot_passed` says the
    /// tick loop is already beyond slot `i` this cycle: the cycle the
    /// module then sits out did nothing, and files as the stall it is.
    fn unpark(&mut self, i: usize, slot_passed: bool) {
        let now = self.cycle + u64::from(slot_passed);
        self.credit_full_stalls(i, now);
        self.obs.parked[i] = false;
        self.parked_count -= 1;
        self.gen[i] = self.gen[i].wrapping_add(1);
        let (start, split, end) = self.q_at[i];
        let (ins, outs) = (&self.qs[start..split], &self.qs[split..end]);
        adjust_watches(self.queues, ins, outs, self.parked_watch[i], false);
        let cycles = now - self.obs.park_at[i];
        let class = self.obs.park_class[i];
        self.stall[i].add(class, cycles);
        self.obs.stalled[i] += cycles;
        if let Some(ts) = &mut *self.trace {
            ts.buf.record_span(i as u32, SpanKind::Stall(class), self.obs.park_at[i], now);
        }
        self.obs.span_start[i] = now;
    }

    /// Closes all open span/stall intervals at the end of a run (any exit
    /// path) and credits each module's non-parked remainder as active.
    pub(crate) fn finalize_obs(&mut self) {
        let now = self.cycle;
        let elapsed = now - self.obs.base;
        for i in 0..self.obs.parked.len() {
            let (kind, from) = if self.obs.parked[i] {
                // Still parked at a `Deadlock`/`CycleLimit` exit: cycle
                // `now` was not simulated, and a resumed run ticks it.
                self.credit_full_stalls(i, now);
                let cycles = now - self.obs.park_at[i];
                self.stall[i].add(self.obs.park_class[i], cycles);
                self.obs.stalled[i] += cycles;
                (SpanKind::Stall(self.obs.park_class[i]), self.obs.park_at[i])
            } else {
                (SpanKind::Active, self.obs.span_start[i])
            };
            self.stall[i].active += elapsed - self.obs.stalled[i];
            if let Some(ts) = &mut *self.trace {
                ts.buf.record_span(i as u32, kind, from, now);
            }
        }
    }

    /// Runs the full deadlock/cycle-limit protocol: advances in segments
    /// to each 512-cycle boundary and compares progress signatures there,
    /// so `Deadlock` and `CycleLimit` fire at identical cycles under both
    /// engines.
    pub(crate) fn drive(&mut self, max_cycles: u64) -> Result<(), SimError> {
        let result = self.drive_inner(max_cycles);
        self.queues.set_touch_tracking(false);
        result
    }

    fn drive_inner(&mut self, max_cycles: u64) -> Result<(), SimError> {
        let window = self.deadlock_window();
        let mut last_signature = self.signature();
        let mut last_progress_cycle = self.cycle;
        loop {
            let stop = (((self.cycle / 512) + 1) * 512).min(max_cycles);
            if !self.is_complete() && self.cycle >= max_cycles {
                return Err(SimError::CycleLimit { limit: max_cycles });
            }
            if self.run_until(stop) {
                return Ok(());
            }
            // Deadlock sampling strictly precedes the budget check.
            if self.cycle.is_multiple_of(512) {
                let sig = self.signature();
                if sig != last_signature {
                    last_signature = sig;
                    last_progress_cycle = self.cycle;
                } else if self.cycle - last_progress_cycle > window {
                    return Err(SimError::Deadlock {
                        cycle: self.cycle,
                        stuck: self.stuck_labels(),
                        report: Box::default(),
                    });
                }
            }
            if self.cycle >= max_cycles {
                return Err(SimError::CycleLimit { limit: max_cycles });
            }
        }
    }

    /// The tick loop: advances until every module finishes (returns
    /// `true`) or `stop_at` is reached (returns `false`). No deadlock or
    /// budget policy here — [`EngineCore::drive`] owns that.
    fn run_until(&mut self, stop_at: u64) -> bool {
        let n = self.modules.len();
        while self.done_count < n {
            if self.cycle >= stop_at {
                return false;
            }
            self.sample_queues_if_due();
            if self.park_enabled {
                // Timed wakes due this cycle.
                while let Some(&Reverse((at, i, g))) = self.timed.peek() {
                    if at > self.cycle {
                        break;
                    }
                    self.timed.pop();
                    if g == self.gen[i] && self.is_parked(i) {
                        // Top of the cycle: no slot has run yet.
                        self.unpark(i, false);
                    }
                }
                if self.tracking && self.parked_count == 0 {
                    self.tracking = false;
                    self.queues.set_touch_tracking(false);
                }
                if self.parked_count + self.done_count == n {
                    // Every live module is parked: jump to the earliest
                    // still-valid timed wake (capped at the segment end;
                    // the caller's boundary bookkeeping replays the
                    // per-cycle deadlock arithmetic exactly).
                    let wake = loop {
                        match self.timed.peek() {
                            Some(&Reverse((at, i, g))) => {
                                if g == self.gen[i] && self.is_parked(i) {
                                    break at;
                                }
                                self.timed.pop();
                            }
                            None => break u64::MAX,
                        }
                    };
                    self.cycle = wake.min(stop_at);
                    continue;
                }
            }
            self.mem.begin_cycle(self.cycle);
            for i in 0..n {
                if self.done[i] || self.obs.parked[i] {
                    continue;
                }
                let t = self.modules[i].tick(&mut Ctx {
                    queues: self.queues,
                    spms: self.spms,
                    mem: self.mem,
                    cycle: self.cycle,
                });
                self.ticks += 1;
                debug_assert_eq!(
                    t == Tick::Done,
                    self.modules[i].is_done(),
                    "{}: Tick::Done is reported by exactly the tick that finishes the module",
                    self.modules[i].label()
                );
                // Unpark watchers of queues this tick mutated, *before*
                // applying the tick's own result — a module that parks
                // after touching its queues (a refused push marks a
                // touch) must not immediately wake itself.
                if self.tracking && self.queues.has_touched() {
                    self.wake_touched(i);
                }
                match t {
                    Tick::Active => {}
                    Tick::Done => {
                        self.done[i] = true;
                        self.done_count += 1;
                    }
                    // Reference engine: parks are ignored (no-op and
                    // refused-push ticks re-run, and re-count, every
                    // cycle).
                    Tick::Park { wake_at, watch } if self.park_enabled => {
                        self.park(i, wake_at, watch);
                    }
                    Tick::Park { .. } => {}
                }
            }
            self.cycle += 1;
        }
        true
    }

    /// Drains the pool's touch list, left by the tick of module `cur`, and
    /// wakes every parked module whose watch covers a touched queue. A
    /// woken module registered before `cur` has missed its slot in this
    /// cycle (the reference engine ticked it before `cur`'s mutation).
    fn wake_touched(&mut self, cur: usize) {
        let mut touched = std::mem::take(&mut self.touched);
        self.queues.take_touched(&mut touched);
        for &qi in &touched {
            // A touch is also a depth-change signal: sample the touched
            // queue (deduplicated) when tracing.
            if let Some(ts) = &mut *self.trace {
                let d = self.queues.get(QueueId(qi)).len() as u64;
                if ts.last_depth[qi as usize] != d {
                    ts.last_depth[qi as usize] = d;
                    ts.buf.record_sample(qi, self.cycle, d);
                }
            }
            for k in self.watch_at[qi as usize]..self.watch_at[qi as usize + 1] {
                let (w, role) = self.watchers[k];
                if self.is_parked(w) && watch_matches(self.parked_watch[w], role, qi) {
                    self.unpark(w, w < cur);
                }
            }
        }
        touched.clear();
        self.touched = touched;
    }

    /// Parks module `i` at the current cycle on `watch`, with an optional
    /// timed wake.
    fn park(&mut self, i: usize, wake_at: Option<u64>, watch: Watch) {
        self.obs.parked[i] = true;
        self.parked_watch[i] = watch;
        self.parked_count += 1;
        self.obs.park_at[i] = self.cycle;
        let (start, split, end) = self.q_at[i];
        let (ins, outs) = (&self.qs[start..split], &self.qs[split..end]);
        self.obs.park_class[i] = classify_stall(watch, ins, outs);
        if let Some(ts) = &mut *self.trace {
            // The park tick itself was a no-op, so the active span ends
            // where the stall begins.
            ts.buf.record_span(i as u32, SpanKind::Active, self.obs.span_start[i], self.cycle);
        }
        adjust_watches(self.queues, ins, outs, watch, true);
        if let Some(at) = wake_at {
            self.timed.push(Reverse((at, i, self.gen[i])));
        }
        if !self.tracking {
            // First park: start recording touches.
            self.tracking = true;
            self.queues.set_touch_tracking(true);
        }
    }
}
