//! The multi-tenant serving layer: a front door over a pool of simulated
//! devices.
//!
//! The paper's host API (§III-E) assumes one client driving one FPGA.
//! [`GenesisServer`] scales that model toward "heavy traffic from millions
//! of users" (ROADMAP north star) along the two axes the related work
//! argues for:
//!
//! * **Compiled-pipeline cache.** Reconfiguring an FPGA costs real time on
//!   hardware, and recompiling a plan costs real host time here. Each
//!   submitted [`LogicalPlan`] is fingerprinted ([`fingerprint`]: a stable
//!   structural hash over the plan tree and the scanned tables' schemas);
//!   compiled [`PipelinePlan`]s live in an LRU cache with hit / miss /
//!   eviction counters, and every miss is charged a configurable
//!   reconfiguration penalty
//!   ([`ServerConfig::reconfig_penalty_cycles`]) that shows up as
//!   [`AccelStats::reconfig_cycles`] — so cache wins are visible in the
//!   same stats the rest of the stack reports.
//! * **Device pool + fair scheduling.** Admitted jobs are queued per
//!   tenant and dispatched in deterministic round-robin fair order
//!   ([`crate::sched::FairQueue`]) across N simulated devices
//!   ([`ServerConfig::devices`], env `GENESIS_DEVICES`). Admission is
//!   bounded: a full queue — or a submit-time deadline the current backlog
//!   (queued *and* in-flight) provably cannot meet — is rejected with a
//!   structured [`CoreError::Overloaded`] instead of queueing unboundedly,
//!   and a queued job whose deadline lapses is pruned at scheduling time,
//!   before it charges any reconfiguration or device time
//!   (`server.deadline.misses`). Each device run reuses the PR 3 recovery
//!   machinery (retry/backoff inside `run_batches`, oracle fallback, panic
//!   containment).
//! * **Async admission/dispatch.** Scheduling is a function, not a
//!   thread: whichever thread changes the state — a `submit`, a worker
//!   finishing a shard, `resume`, the drop — runs the dispatch step
//!   (`schedule`) under the state lock it already holds, handing staged
//!   shards to idle, condvar-driven device workers through per-device
//!   mailboxes, lowest idle index first. The server's only threads are
//!   its device workers, and a queued tenant costs a [`Ticket`] and a
//!   queue slot — no thread, no stack — so tens of thousands of pending
//!   requests are cheap. Compilation is single-flight: concurrent submits
//!   that miss on the same fingerprint compile once and share the result
//!   (`server.cache.compiles` counts actual compiles).
//! * **Scatter-gather sharding.** With [`ServerConfig::default_shards`] >
//!   1 (env `GENESIS_SHARDS`), each job's spine scan is split on the
//!   paper's (chromosome, PSIZE-window) partition boundaries into shard
//!   runs that fan out across the pool and merge in partition order —
//!   bit-identical to the unsharded run, including stats.
//!
//! Everything is observable: per-tenant latency histograms, queue-depth
//! gauges, and cache counters land in the shared
//! [`MetricsRegistry`] (`server.*` names in `metrics_snapshot()`), and
//! when tracing is enabled the server writes its own Chrome trace
//! (`<path>.server.json`) with one thread track per device.
//!
//! Every request also leaves a latency budget: the log₂ histograms
//! `server.phase.{prepare,admit,queue_wait,run,gather}_ns` are the gaps
//! between six instants on one chain from `submit` entry to delivery
//! (plan resolved and bound → queued → promoted off the fair queue → last
//! shard done → result installed), so they add up to the tenant's
//! `latency_ns` exactly; `server.run.{build,simulate,extract}_ns` split
//! the device runs inside `run`, summed over the job's shards. A request
//! that expires in the queue records empty `run` and `gather` phases — so
//! every histogram counts every completed request.

use crate::compile::{script_to_plan, Compiler, PipelinePlan};
use crate::device::DeviceConfig;
use crate::error::CoreError;
use crate::lower::{PreparedJob, RunTimes, ShardOut};
use crate::perf::AccelStats;
use crate::sched::{DispatchRecord, FairQueue};
use genesis_obs::chrome::ChromeTrace;
use genesis_obs::metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use genesis_obs::trace::TraceConfig;
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::Table;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The software oracle a [`Request`] degrades to when the hardware run
/// fails: recomputes the same result on the host (graceful degradation,
/// the same policy [`crate::fault::FaultConfig::fallback`] applies inside
/// the accelerators).
pub type OracleFn = Box<dyn FnOnce() -> Result<Table, CoreError> + Send>;

/// Configuration of a [`GenesisServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The simulated device pool: one worker thread per entry. The
    /// first device is also the compile target for cache misses.
    pub devices: Vec<DeviceConfig>,
    /// Compiled-pipeline LRU cache capacity in entries (`0` disables
    /// caching: every submit compiles and pays the reconfiguration
    /// penalty).
    pub cache_capacity: usize,
    /// Cycles charged to a job whose plan missed the cache, modelling FPGA
    /// reconfiguration time. The default (2.5 M cycles = 10 ms at the
    /// paper's 250 MHz clock) is on the optimistic end of partial
    /// reconfiguration; full-bitstream loads are ~100× worse.
    pub reconfig_penalty_cycles: u64,
    /// Admission bound: submissions beyond this many queued jobs are
    /// rejected with [`CoreError::Overloaded`].
    pub max_pending: usize,
    /// Scatter-gather shard count per job (env `GENESIS_SHARDS`): each
    /// job's spine scan is split on (chromosome, PSIZE-window) partition
    /// boundaries into up to this many shard runs that fan out across the
    /// pool and merge in partition order, bit-identical to the unsharded
    /// run. `1` (the default) disables sharding.
    pub default_shards: usize,
    /// Start with dispatch paused; queued jobs wait until
    /// [`GenesisServer::resume`]. Determinism tests use this to submit a
    /// full tenant mix before any worker races for the queue.
    pub paused: bool,
    /// Server-span tracing: when enabled with a path, the server writes a
    /// Chrome trace to `<path>.server.json` on shutdown (the suffix keeps
    /// it clear of the per-run engine trace at `<path>`).
    pub trace: TraceConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            devices: vec![DeviceConfig::default()],
            cache_capacity: 32,
            reconfig_penalty_cycles: 2_500_000,
            max_pending: 256,
            default_shards: 1,
            paused: false,
            trace: TraceConfig::off(),
        }
    }
}

impl ServerConfig {
    /// A pool of `n` identical devices (clamped to ≥ 1).
    #[must_use]
    pub fn with_devices(mut self, n: usize, device: DeviceConfig) -> ServerConfig {
        self.devices = vec![device; n.max(1)];
        self
    }

    /// Sets the compiled-pipeline cache capacity.
    #[must_use]
    pub fn with_cache_capacity(mut self, entries: usize) -> ServerConfig {
        self.cache_capacity = entries;
        self
    }

    /// Sets the reconfiguration penalty charged on cache misses.
    #[must_use]
    pub fn with_reconfig_penalty(mut self, cycles: u64) -> ServerConfig {
        self.reconfig_penalty_cycles = cycles;
        self
    }

    /// Sets the admission queue bound.
    #[must_use]
    pub fn with_max_pending(mut self, jobs: usize) -> ServerConfig {
        self.max_pending = jobs;
        self
    }

    /// Sets the scatter-gather shard count (clamped to ≥ 1; see
    /// [`ServerConfig::default_shards`]).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> ServerConfig {
        self.default_shards = shards.max(1);
        self
    }

    /// Starts the server paused (see [`ServerConfig::paused`]).
    #[must_use]
    pub fn start_paused(mut self) -> ServerConfig {
        self.paused = true;
        self
    }

    /// Defaults from the validated `GENESIS_*` environment:
    /// `GENESIS_DEVICES` sizes the pool, `GENESIS_SHARDS` sets the
    /// scatter-gather shard count, and each device is
    /// [`crate::env::GenesisEnv::device_config`] (engine, trace, faults,
    /// host threads, tiers). The environment is read once, here;
    /// whatever `with_*` call follows wins.
    ///
    /// # Errors
    ///
    /// [`crate::env::EnvError`] for the first malformed variable.
    pub fn from_env() -> Result<ServerConfig, crate::env::EnvError> {
        let env = crate::env::GenesisEnv::load()?;
        let device = env.device_config();
        let n = env.devices.unwrap_or(1);
        Ok(ServerConfig {
            trace: device.trace.clone(),
            default_shards: env.shards.unwrap_or(1).max(1),
            ..ServerConfig::default().with_devices(n, device)
        })
    }
}

/// Stable structural fingerprint of a plan against a catalog: FNV-1a over
/// the plan tree and each scanned table's name and schema. Two plans
/// fingerprint equal exactly when they lower to the same hardware pipeline
/// — table *data* is deliberately excluded (jobs re-bind data at submit;
/// the compiled module graph depends only on shapes and types).
#[must_use]
pub fn fingerprint(plan: &LogicalPlan, catalog: &Catalog) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^= 0xff; // separator so "ab"+"c" != "a"+"bc"
        h = h.wrapping_mul(FNV_PRIME);
    };
    mix(format!("{plan:?}").as_bytes());
    for name in plan.scans() {
        mix(name.as_bytes());
        match catalog.table(name) {
            Some(t) => mix(format!("{:?}", t.schema()).as_bytes()),
            None => mix(b"<absent>"),
        }
    }
    h
}

/// Point-in-time counters of the compiled-pipeline cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Submits served from the cache.
    pub hits: u64,
    /// Submits that compiled fresh (and paid the reconfiguration penalty).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
}

/// LRU cache of compiled pipelines keyed by [`fingerprint`].
struct PipelineCache {
    capacity: usize,
    entries: HashMap<u64, Arc<PipelinePlan>>,
    /// Least-recently-used first.
    order: VecDeque<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PipelineCache {
    fn new(capacity: usize) -> PipelineCache {
        PipelineCache {
            capacity,
            entries: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, key: u64) -> Option<Arc<PipelinePlan>> {
        let hit = self.entries.get(&key).cloned();
        match hit {
            Some(plan) => {
                self.hits += 1;
                self.touch(key);
                Some(plan)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: u64, plan: Arc<PipelinePlan>) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.insert(key, plan).is_none() {
            self.order.push_back(key);
            while self.entries.len() > self.capacity {
                let victim = self.order.pop_front().expect("order tracks entries");
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        } else {
            self.touch(key);
        }
    }

    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
            self.order.push_back(key);
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

/// What a [`Request`] runs: an inline plan, a registered script by name,
/// or an already-compiled pipeline.
enum Payload {
    Plan(LogicalPlan),
    Script(String),
    Compiled(Box<PipelinePlan>),
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Plan(_) => write!(f, "Plan(..)"),
            Payload::Script(name) => write!(f, "Script({name})"),
            Payload::Compiled(_) => write!(f, "Compiled(..)"),
        }
    }
}

/// One tenant submission: what to run plus the per-job policy knobs.
pub struct Request {
    tenant: String,
    payload: Payload,
    deadline: Option<Duration>,
    oracle: Option<OracleFn>,
    replication: Option<usize>,
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("tenant", &self.tenant)
            .field("payload", &self.payload)
            .field("deadline", &self.deadline)
            .field("oracle", &self.oracle.is_some())
            .field("replication", &self.replication)
            .finish()
    }
}

impl Request {
    /// A request running an inline logical plan.
    #[must_use]
    pub fn new(tenant: impl Into<String>, plan: LogicalPlan) -> Request {
        Request {
            tenant: tenant.into(),
            payload: Payload::Plan(plan),
            deadline: None,
            oracle: None,
            replication: None,
        }
    }

    /// A request running a script previously installed with
    /// [`GenesisServer::register_script`], by name.
    #[must_use]
    pub fn script(tenant: impl Into<String>, name: impl Into<String>) -> Request {
        Request {
            tenant: tenant.into(),
            payload: Payload::Script(name.into()),
            deadline: None,
            oracle: None,
            replication: None,
        }
    }

    /// A request running an already-compiled pipeline (bypasses the
    /// compile cache — the plan is compiled; there is nothing to save).
    /// The job runs on the pool's devices, so compile against the same
    /// [`DeviceConfig`] the server was given.
    #[must_use]
    pub fn precompiled(tenant: impl Into<String>, plan: PipelinePlan) -> Request {
        Request {
            tenant: tenant.into(),
            payload: Payload::Compiled(Box::new(plan)),
            deadline: None,
            oracle: None,
            replication: None,
        }
    }

    /// Deadline measured **from submission**: time spent queued counts.
    /// A job still queued when its deadline passes is dropped at dispatch
    /// (`server.deadline.misses`), and [`Ticket::wait`] stops blocking at
    /// the deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Request {
        self.deadline = Some(deadline);
        self
    }

    /// Installs a software fallback: when the hardware job fails for any
    /// reason, `oracle` recomputes the result on the host and the job
    /// succeeds with `fallback_jobs = 1` in its fault report.
    #[must_use]
    pub fn with_oracle(
        mut self,
        oracle: impl FnOnce() -> Result<Table, CoreError> + Send + 'static,
    ) -> Request {
        self.oracle = Some(Box::new(oracle));
        self
    }

    /// Overrides the cost model's replication factor (clamped to ≥ 1).
    #[must_use]
    pub fn with_replication(mut self, factor: usize) -> Request {
        self.replication = Some(factor);
        self
    }
}

/// The compile cache plus the set of fingerprints currently compiling
/// (single-flight: a thread that misses on an in-flight key waits on
/// `GenesisServer::compile_cv` instead of compiling a duplicate).
struct CacheInner {
    lru: PipelineCache,
    inflight: HashSet<u64>,
}

/// The instants a request passes on its way into the queue. Together with
/// its promotion off the queue, the last shard's completion and the
/// delivery they form one chain, and every `server.phase.*` observation
/// is the gap between two neighbours on it — so the phases tile the
/// request's latency by construction.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// `submit` entry.
    entered: Instant,
    /// The plan is resolved (compiled on a miss) and bound to the
    /// catalog's data. Deadlines count from here.
    submitted: Instant,
    /// Admitted and pushed onto the fair queue.
    queued: Instant,
}

/// A queued, admitted job.
struct QueuedJob {
    id: u64,
    /// Shared from the start: the job's shard assignments each hold it,
    /// and a lane of small entries is cheap to open and close.
    prepared: Result<Arc<PreparedJob>, CoreError>,
    oracle: Option<OracleFn>,
    deadline: Option<Duration>,
    arrival: Arrival,
    reconfig_penalty: u64,
}

/// The promoted form of a job, shared by its shard assignments.
struct JobShared {
    id: u64,
    tenant: String,
    prepared: Result<Arc<PreparedJob>, CoreError>,
    oracle: Mutex<Option<OracleFn>>,
    arrival: Arrival,
    /// When the job was popped off the fair queue (the end of its
    /// `queue_wait`).
    promoted: Instant,
    reconfig_penalty: u64,
    /// Total shards this job was split into.
    shards: usize,
}

/// One shard run handed to a device worker through its mailbox.
struct Assignment {
    job: Arc<JobShared>,
    range: Range<usize>,
    shard: usize,
    /// Index into the schedule log, set at dispatch.
    seq: u64,
}

/// Per-job scatter-gather rendezvous: shard outputs accumulate here; the
/// worker that delivers the last one runs the merge.
struct Gather {
    parts: Vec<Option<ShardOut>>,
    remaining: usize,
    /// First shard error wins; the merge is skipped.
    err: Option<CoreError>,
    /// Host time of the shard runs so far, summed.
    times: RunTimes,
}

/// What a job resolves to, as [`Ticket::wait`] returns it.
type JobResult = Result<(Table, AccelStats), CoreError>;

/// Everything the server, its workers, and its tickets share.
struct ServerCore {
    state: Mutex<ServerState>,
    /// Signalled when an assignment lands in a device mailbox (or
    /// shutdown has drained the queue) — wakes device workers.
    mail: Condvar,
    /// Signalled when a job result is installed.
    done: Condvar,
    metrics: Arc<MetricsRegistry>,
    /// Registry handles of the per-request metrics, resolved at start.
    phases: PhaseMetrics,
    /// `server.device.{d}.jobs`, one handle per pool device.
    device_jobs: Vec<Counter>,
    devices: Vec<DeviceConfig>,
    /// Scatter-gather shard count per job (≥ 1).
    shards: usize,
    epoch: Instant,
}

/// Where a request's time went: `server.phase.*` tile its latency from
/// `submit` entry to delivery (see [`Arrival`]); `server.run.*` split the
/// device runs inside the `run` phase, summed over the job's shards.
struct PhaseMetrics {
    prepare: Arc<Histogram>,
    admit: Arc<Histogram>,
    queue_wait: Arc<Histogram>,
    run: Arc<Histogram>,
    gather: Arc<Histogram>,
    build: Arc<Histogram>,
    simulate: Arc<Histogram>,
    extract: Arc<Histogram>,
    /// `server.jobs.completed`: one per request the histograms counted.
    completed: Counter,
    /// `server.jobs.failed`: the completed requests whose ticket resolved
    /// to an `Err` after running (a queue expiry counts under
    /// `server.deadline.misses` instead).
    failed: Counter,
}

impl PhaseMetrics {
    fn new(metrics: &MetricsRegistry) -> PhaseMetrics {
        PhaseMetrics {
            prepare: metrics.histogram("server.phase.prepare_ns"),
            admit: metrics.histogram("server.phase.admit_ns"),
            queue_wait: metrics.histogram("server.phase.queue_wait_ns"),
            run: metrics.histogram("server.phase.run_ns"),
            gather: metrics.histogram("server.phase.gather_ns"),
            build: metrics.histogram("server.run.build_ns"),
            simulate: metrics.histogram("server.run.simulate_ns"),
            extract: metrics.histogram("server.run.extract_ns"),
            completed: metrics.counter("server.jobs.completed"),
            failed: metrics.counter("server.jobs.failed"),
        }
    }
}

/// One tenant's registry handles, resolved the first time it submits.
struct TenantMetrics {
    queue_depth: Arc<Histogram>,
    latency: Arc<Histogram>,
}

struct ServerState {
    /// The id the next admitted job takes.
    next_id: u64,
    queue: FairQueue<QueuedJob>,
    /// Promoted shard assignments awaiting an idle device.
    ready: VecDeque<Assignment>,
    /// One mailbox per device; `Some` exactly while `busy` and the worker
    /// has not yet picked the assignment up.
    mailboxes: Vec<Option<Assignment>>,
    /// Devices with an assignment dispatched and not yet completed.
    busy: Vec<bool>,
    /// Scatter-gather rendezvous, keyed by job id, for in-flight jobs.
    gathers: HashMap<u64, Gather>,
    /// Jobs promoted out of the queue and not yet finalized — the
    /// in-flight count deadline admission must include.
    inflight: usize,
    /// One slot per live [`Ticket`], opened at submit (`None` = pending)
    /// and closed when the ticket collects or goes away; a result whose
    /// slot is gone is dropped on arrival (see [`deliver`]).
    results: HashMap<u64, Option<JobResult>>,
    tenants: HashMap<String, TenantMetrics>,
    schedule: Vec<DispatchRecord>,
    /// `(ts_us, depth)` samples for the trace's queue-depth counter track.
    depth_samples: Vec<(u64, u64)>,
    /// Modeled busy time per pool device (simulated cycles / device clock)
    /// — the throughput metric a 1-core host can still measure honestly.
    modeled_busy: Vec<Duration>,
    /// EWMA of wall-clock service time, for deadline-aware admission.
    ewma_service: Duration,
    completed: u64,
    paused: bool,
    shutdown: bool,
}

impl ServerState {
    /// Shutdown has begun and nothing is left to hand out: a worker whose
    /// mailbox is empty can leave.
    fn exhausted(&self) -> bool {
        self.shutdown && self.queue.is_empty() && self.ready.is_empty()
    }
}

impl ServerCore {
    fn lock(&self) -> MutexGuard<'_, ServerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// `tenant`'s histogram handles, registered on first sight.
    fn tenant<'s>(&self, st: &'s mut ServerState, tenant: &str) -> &'s TenantMetrics {
        if !st.tenants.contains_key(tenant) {
            let handles = TenantMetrics {
                queue_depth: self
                    .metrics
                    .histogram(&format!("server.tenant.{tenant}.queue_depth")),
                latency: self.metrics.histogram(&format!("server.tenant.{tenant}.latency_ns")),
            };
            st.tenants.insert(tenant.to_owned(), handles);
        }
        &st.tenants[tenant]
    }

    /// Counts one completed request and records its phases: each is the
    /// gap between two neighbouring instants of `arrival` → `promoted` →
    /// `ran` → `delivered`, so together they equal the tenant latency
    /// recorded beside them exactly.
    fn record_completion(
        &self,
        st: &mut ServerState,
        tenant: &str,
        arrival: Arrival,
        [promoted, ran, delivered]: [Instant; 3],
        run: RunTimes,
    ) {
        st.completed += 1;
        let p = &self.phases;
        p.prepare.observe_duration(arrival.submitted - arrival.entered);
        p.admit.observe_duration(arrival.queued - arrival.submitted);
        p.queue_wait.observe_duration(promoted - arrival.queued);
        p.run.observe_duration(ran - promoted);
        p.gather.observe_duration(delivered - ran);
        p.build.observe_duration(run.build);
        p.simulate.observe_duration(run.simulate);
        p.extract.observe_duration(run.extract);
        self.tenant(st, tenant).latency.observe_duration(delivered - arrival.entered);
        p.completed.inc();
    }

    fn sample_depth(&self, st: &mut ServerState) {
        let depth = st.queue.len() as u64;
        st.depth_samples.push((self.now_us(), depth));
        self.metrics.histogram("server.queue_depth").observe(depth);
    }
}

/// A submitted job's claim ticket: poll with [`Ticket::is_done`], collect
/// with [`Ticket::wait`]. Tickets are `Send` and outlive the server (the
/// pool drains its queue on shutdown, so every admitted job gets a
/// result).
pub struct Ticket {
    core: Arc<ServerCore>,
    id: u64,
    tenant: String,
    submitted: Instant,
    deadline: Option<Duration>,
    /// Set once `wait` has closed this ticket's result slot, so the drop
    /// after a collected wait does not take the state lock again.
    closed: bool,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("id", &self.id)
            .field("tenant", &self.tenant)
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl Ticket {
    /// The server-assigned job id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The submitting tenant.
    #[must_use]
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// True once the job's result is available. Never blocks.
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self.core.lock().results.get(&self.id), Some(Some(_)))
    }

    /// Blocks until the job completes and returns its result, consuming
    /// the ticket.
    ///
    /// # Errors
    ///
    /// The job's own error (after the oracle, if any, also failed), or a
    /// [`CoreError::Host`] deadline error when the request's
    /// submit-anchored deadline passes first.
    pub fn wait(mut self) -> Result<(Table, AccelStats), CoreError> {
        // A deadline past the end of the clock (`Duration::MAX`, the usual
        // spelling of "none") is no deadline.
        let deadline_at = self.deadline.and_then(|d| self.submitted.checked_add(d));
        let mut st = self.core.lock();
        let outcome = loop {
            if let Entry::Occupied(slot) = st.results.entry(self.id) {
                if slot.get().is_some() {
                    break slot.remove().expect("checked above");
                }
            }
            match deadline_at {
                None => {
                    st = self.core.done.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        // The late result is dropped on arrival.
                        st.results.remove(&self.id);
                        break Err(CoreError::Host(format!(
                            "job {} for tenant {} exceeded its {:?} deadline \
                             (clock started at submit)",
                            self.id,
                            self.tenant,
                            self.deadline.unwrap_or_default()
                        )));
                    }
                    let (guard, _) = self
                        .core
                        .done
                        .wait_timeout(st, at - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    st = guard;
                }
            }
        };
        drop(st);
        // Both exits closed the slot under the lock held above.
        self.closed = true;
        outcome
    }
}

impl Drop for Ticket {
    /// An abandoned ticket releases its result slot — whether the result
    /// already arrived or is still to come.
    fn drop(&mut self) {
        if !self.closed {
            self.core.lock().results.remove(&self.id);
        }
    }
}

/// Installs a job's result into its ticket's slot; a result whose ticket
/// is gone (dropped, or timed out in `wait`) has no slot and is dropped.
fn deliver(st: &mut ServerState, id: u64, result: JobResult) {
    if let Some(slot) = st.results.get_mut(&id) {
        *slot = Some(result);
    }
}

/// The multi-tenant serving front door. See the module docs for the
/// architecture; `examples/serve.rs` for a three-tenant walkthrough.
pub struct GenesisServer {
    core: Arc<ServerCore>,
    cache: Mutex<CacheInner>,
    /// Signalled when an in-flight compile finishes (single-flight).
    compile_cv: Condvar,
    scripts: Mutex<HashMap<String, LogicalPlan>>,
    compiler: Compiler,
    cfg: ServerConfig,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for GenesisServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenesisServer")
            .field("devices", &self.cfg.devices.len())
            .field("cache", &self.cache_stats())
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

impl GenesisServer {
    /// Starts a server: one worker thread per device.
    #[must_use]
    pub fn new(cfg: ServerConfig) -> GenesisServer {
        let devices = if cfg.devices.is_empty() {
            vec![DeviceConfig::default()]
        } else {
            cfg.devices.clone()
        };
        let n = devices.len();
        let metrics = Arc::new(MetricsRegistry::new());
        let core = Arc::new(ServerCore {
            state: Mutex::new(ServerState {
                next_id: 0,
                queue: FairQueue::new(),
                ready: VecDeque::new(),
                mailboxes: (0..n).map(|_| None).collect(),
                busy: vec![false; n],
                gathers: HashMap::new(),
                inflight: 0,
                results: HashMap::new(),
                tenants: HashMap::new(),
                schedule: Vec::new(),
                depth_samples: Vec::new(),
                modeled_busy: vec![Duration::ZERO; n],
                ewma_service: Duration::ZERO,
                completed: 0,
                paused: cfg.paused,
                shutdown: false,
            }),
            mail: Condvar::new(),
            done: Condvar::new(),
            phases: PhaseMetrics::new(&metrics),
            device_jobs: (0..n)
                .map(|d| metrics.counter(&format!("server.device.{d}.jobs")))
                .collect(),
            metrics,
            devices: devices.clone(),
            shards: cfg.default_shards.max(1),
            epoch: Instant::now(),
        });
        let workers = (0..n)
            .map(|device| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("genesis-serve-{device}"))
                    .spawn(move || worker_loop(&core, device))
                    .expect("spawn server worker")
            })
            .collect();
        let compiler = Compiler::new(devices[0].clone());
        GenesisServer {
            core,
            cache: Mutex::new(CacheInner {
                lru: PipelineCache::new(cfg.cache_capacity),
                inflight: HashSet::new(),
            }),
            compile_cv: Condvar::new(),
            scripts: Mutex::new(HashMap::new()),
            compiler,
            cfg,
            workers,
        }
    }

    /// Installs a named SQL script tenants can submit by name
    /// ([`Request::script`]). The script is parsed and reduced to its
    /// final `INSERT` plan now; compilation happens per submit through the
    /// cache.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] on parse failure.
    pub fn register_script(&self, name: impl Into<String>, src: &str) -> Result<(), CoreError> {
        let plan = script_to_plan(src, self.compiler.registry())?;
        self.scripts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.into(), plan);
        Ok(())
    }

    /// Submits one request: resolves the plan, compiles through the LRU
    /// cache (a miss pays [`ServerConfig::reconfig_penalty_cycles`]),
    /// binds it to `catalog`'s data on the calling thread, queues the job
    /// and — when a device is idle — hands it over before returning.
    /// Never waits for a device: returns at once with a [`Ticket`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::Overloaded`] when admission rejects the job (queue
    ///   full, or a deadline the estimated backlog cannot meet).
    /// * [`CoreError::Plan`] / [`CoreError::Unsupported`] when the plan
    ///   does not compile, or [`CoreError::Host`] for an unknown script
    ///   name.
    ///
    /// A plan that compiles but fails to *bind* (e.g. a scanned table
    /// missing from this catalog) does not error here: the failure
    /// surfaces at [`Ticket::wait`], unless the request's oracle rescues
    /// it.
    pub fn submit(&self, req: Request, catalog: &Catalog) -> Result<Ticket, CoreError> {
        let entered = Instant::now();
        let Request { tenant, payload, deadline, oracle, replication } = req;
        let (plan, reconfig_penalty) = self.resolve_pipeline(payload, catalog)?;
        let factor = replication.unwrap_or_else(|| plan.replication().factor);
        // Serialize the scans now, while we still hold the (non-`Send`)
        // catalog; a bind failure is deferred to the worker so the oracle
        // can rescue it.
        let prepared = plan.prepare_job(catalog, factor).map(Arc::new);
        let submitted = Instant::now();

        let mut st = self.core.lock();
        self.admit(&st, &tenant, deadline)?;
        let id = st.next_id;
        st.next_id += 1;
        st.results.insert(id, None);
        st.queue.push(&tenant, QueuedJob {
            id,
            prepared,
            oracle,
            deadline,
            arrival: Arrival { entered, submitted, queued: Instant::now() },
            reconfig_penalty,
        });
        self.core.sample_depth(&mut st);
        let depth = st.queue.depth(&tenant) as u64;
        self.core.tenant(&mut st, &tenant).queue_depth.observe(depth);
        schedule(&self.core, &mut st);
        drop(st);
        Ok(Ticket { core: Arc::clone(&self.core), id, tenant, submitted, deadline, closed: false })
    }

    /// Resolves a payload to a compiled pipeline, through the cache for
    /// plan/script payloads. Returns the pipeline and the reconfiguration
    /// penalty this job owes (non-zero exactly on a cache miss).
    fn resolve_pipeline(
        &self,
        payload: Payload,
        catalog: &Catalog,
    ) -> Result<(Arc<PipelinePlan>, u64), CoreError> {
        let plan = match payload {
            Payload::Compiled(plan) => return Ok((Arc::new(*plan), 0)),
            Payload::Plan(plan) => plan,
            Payload::Script(name) => {
                let scripts = self.scripts.lock().unwrap_or_else(PoisonError::into_inner);
                scripts.get(&name).cloned().ok_or_else(|| {
                    let mut reason = format!("unknown script `{name}`");
                    if let Some(s) =
                        crate::env::suggest(&name, scripts.keys().map(String::as_str))
                    {
                        reason.push_str(&format!(" (did you mean `{s}`?)"));
                    }
                    CoreError::Host(reason)
                })?
            }
        };
        let key = fingerprint(&plan, catalog);
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        // Single-flight: if another thread is already compiling this
        // fingerprint, wait for it instead of compiling a duplicate — a
        // stampede of same-plan submits compiles exactly once.
        loop {
            if let Some(hit) = cache.lru.get(key) {
                self.core.metrics.counter("server.cache.hits").inc();
                return Ok((hit, 0));
            }
            if cache.inflight.insert(key) {
                break;
            }
            cache = self.compile_cv.wait(cache).unwrap_or_else(PoisonError::into_inner);
        }
        self.core.metrics.counter("server.cache.misses").inc();
        drop(cache); // compile outside the cache lock
        let start = Instant::now();
        let compiled = self.compiler.compile(&plan, catalog).map(Arc::new);
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        cache.inflight.remove(&key);
        self.compile_cv.notify_all();
        let compiled = compiled?;
        self.core.metrics.observe_duration("server.compile_ns", start.elapsed());
        self.core.metrics.counter("server.cache.compiles").inc();
        let before = cache.lru.stats().evictions;
        cache.lru.insert(key, Arc::clone(&compiled));
        let evicted = cache.lru.stats().evictions - before;
        if evicted > 0 {
            self.core.metrics.counter("server.cache.evictions").add(evicted);
        }
        Ok((compiled, self.cfg.reconfig_penalty_cycles))
    }

    /// Admission control: bounded queue, and deadline feasibility against
    /// the EWMA service-time estimate when there is a backlog (queued or
    /// in-flight). An idle server always admits — even an impossibly
    /// tight deadline gets its chance to run (the prune at promotion is
    /// the backstop).
    fn admit(
        &self,
        st: &ServerState,
        tenant: &str,
        deadline: Option<Duration>,
    ) -> Result<(), CoreError> {
        let queued = st.queue.len();
        if queued >= self.cfg.max_pending {
            self.core.metrics.counter("server.admission.rejected").inc();
            return Err(CoreError::Overloaded {
                tenant: tenant.to_owned(),
                queued,
                limit: self.cfg.max_pending,
                reason: "queue full".to_owned(),
            });
        }
        if let Some(deadline) = deadline {
            // The backlog ahead of this job is everything queued plus
            // everything already promoted onto the pool: a saturated pool
            // with an empty queue still makes a new job wait a full
            // service time.
            let backlog = queued + st.inflight;
            if backlog > 0 && !st.ewma_service.is_zero() {
                let waves = backlog.div_ceil(self.core.devices.len()) as u32;
                let est_wait = st.ewma_service * waves;
                if est_wait > deadline {
                    self.core.metrics.counter("server.admission.rejected").inc();
                    return Err(CoreError::Overloaded {
                        tenant: tenant.to_owned(),
                        queued,
                        limit: self.cfg.max_pending,
                        reason: format!(
                            "deadline {deadline:?} cannot be met: estimated wait \
                             {est_wait:?} for {backlog} queued/in-flight jobs at \
                             current service times"
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Pauses dispatch: queued and newly submitted jobs wait until
    /// [`GenesisServer::resume`]. In-flight jobs finish normally.
    pub fn pause(&self) {
        self.core.lock().paused = true;
    }

    /// Resumes dispatch after [`GenesisServer::pause`] (or a
    /// [`ServerConfig::paused`] start).
    pub fn resume(&self) {
        let mut st = self.core.lock();
        st.paused = false;
        schedule(&self.core, &mut st);
    }

    /// Number of pool devices.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.core.devices.len()
    }

    /// Jobs currently queued (excluding in-flight).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.core.lock().queue.len()
    }

    /// Jobs completed since start.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.core.lock().completed
    }

    /// Compiled-pipeline cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner).lru.stats()
    }

    /// The dispatch log so far, in dispatch order. The `(tenant, job_id)`
    /// sequence is deterministic for a fixed submission order (see
    /// [`crate::sched`]).
    #[must_use]
    pub fn schedule_log(&self) -> Vec<DispatchRecord> {
        self.core.lock().schedule.clone()
    }

    /// Modeled busy time per pool device: simulated cycles over the device
    /// clock, accumulated per dispatched job. The pool's modeled makespan
    /// (the max entry) is the throughput denominator a single-core host
    /// can still measure honestly — wall clock cannot show device-pool
    /// scaling without host cores to back it.
    #[must_use]
    pub fn modeled_device_time(&self) -> Vec<Duration> {
        self.core.lock().modeled_busy.clone()
    }

    /// The server's metrics registry (`server.*` names).
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.core.metrics
    }

    /// A point-in-time snapshot of every metric in the registry.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.core.metrics.snapshot()
    }

    /// Writes the server Chrome trace (`<path>.server.json`: one thread
    /// track per device, a span per job run, a queue-depth counter track)
    /// and returns the path. `None` when tracing is off or has no path.
    /// Also called automatically on drop.
    pub fn export_trace(&self) -> Option<PathBuf> {
        let base = self.cfg.trace.path.as_ref().filter(|_| self.cfg.trace.enabled)?;
        let mut path = base.clone().into_os_string();
        path.push(".server.json");
        let path = PathBuf::from(path);
        let st = self.core.lock();
        let mut trace = ChromeTrace::new();
        trace.process_name(1, "genesis-server");
        for device in 0..self.core.devices.len() {
            trace.thread_name(1, device as u32 + 1, &format!("device {device}"));
        }
        for rec in &st.schedule {
            let tid = rec.device as u32 + 1;
            let name = if rec.shards > 1 {
                format!("{}#{}/s{}", rec.tenant, rec.job_id, rec.shard)
            } else {
                format!("{}#{}", rec.tenant, rec.job_id)
            };
            if rec.start_us > rec.queued_us {
                trace.complete(
                    1,
                    tid,
                    &name,
                    "queued",
                    rec.queued_us,
                    rec.start_us - rec.queued_us,
                );
            }
            let end = rec.end_us.max(rec.start_us);
            trace.complete(1, tid, &name, "run", rec.start_us, end - rec.start_us);
        }
        for &(ts, depth) in &st.depth_samples {
            trace.counter(1, "server queue", "depth", ts, depth);
        }
        drop(st);
        trace.write_to(&path).ok()?;
        Some(path)
    }
}

impl Drop for GenesisServer {
    fn drop(&mut self) {
        {
            let mut st = self.core.lock();
            st.shutdown = true;
            // Unpause so the pool drains the remaining queue: every
            // admitted job owes its ticket a result.
            st.paused = false;
            schedule(&self.core, &mut st);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.export_trace();
    }
}

/// The dispatch step. Every thread that changes what it depends on — a
/// `submit` queueing a job, a worker freeing its device, `resume`, the
/// drop — calls it under the state lock it already holds. While a device
/// is idle it hands over the next staged shard, lowest idle index first,
/// promoting one job off the fair queue whenever the staging area runs
/// dry. At most one job's shards are staged at a time and only here, so
/// the promotion order (= the fair-queue pop order) is exactly the
/// dispatch order in the schedule log, at any pool size — workers never
/// race for the queue.
fn schedule(core: &ServerCore, st: &mut ServerState) {
    if st.paused && !st.shutdown {
        return;
    }
    let mut assigned = false;
    while let Some(device) = st.busy.iter().position(|&b| !b) {
        if st.ready.is_empty() && !promote(core, st) {
            break;
        }
        let a = st.ready.pop_front().expect("promote stages at least one shard");
        dispatch(core, st, a, device);
        assigned = true;
    }
    if assigned || st.exhausted() {
        core.mail.notify_all();
    }
}

/// Pops the next runnable job off the fair queue, settling lapsed
/// deadlines along the way, splits it into shard assignments and stages
/// them in `ready`. Returns whether it staged a job.
fn promote(core: &ServerCore, st: &mut ServerState) -> bool {
    if st.queue.is_empty() {
        return false;
    }
    let promoted = Instant::now();
    let popped = loop {
        match st.queue.pop() {
            Some((tenant, job)) if is_expired(&job) => settle_expired(core, st, &tenant, &job),
            other => break other,
        }
    };
    core.sample_depth(st);
    let Some((tenant, QueuedJob { id, prepared, oracle, arrival, reconfig_penalty, .. })) = popped
    else {
        return false;
    };
    let ranges = match &prepared {
        Ok(p) => p.shard_ranges(core.shards),
        // A job that failed to bind still flows through one (empty) shard
        // so the error surfaces at the ticket — or its oracle rescues it.
        Err(_) => std::iter::once(0..0).collect(),
    };
    let nshards = ranges.len();
    let shared = Arc::new(JobShared {
        id,
        tenant,
        prepared,
        oracle: Mutex::new(oracle),
        arrival,
        promoted,
        reconfig_penalty,
        shards: nshards,
    });
    st.gathers.insert(id, Gather {
        parts: (0..nshards).map(|_| None).collect(),
        remaining: nshards,
        err: None,
        times: RunTimes::default(),
    });
    st.inflight += 1;
    if nshards > 1 {
        core.metrics.counter("server.shards.dispatched").add(nshards as u64);
    }
    for (shard, range) in ranges.into_iter().enumerate() {
        st.ready.push_back(Assignment { job: Arc::clone(&shared), range, shard, seq: 0 });
    }
    true
}

fn is_expired(job: &QueuedJob) -> bool {
    job.deadline.is_some_and(|d| job.arrival.submitted.elapsed() >= d)
}

/// Settles a job whose submit-anchored deadline lapsed while queued: it
/// never reaches a device and never charges reconfiguration or device
/// time; it counts under `server.deadline.misses` exactly once (here —
/// the only prune point, reached only from [`promote`]).
fn settle_expired(core: &ServerCore, st: &mut ServerState, tenant: &str, job: &QueuedJob) {
    let now = Instant::now();
    let queued_for = now - job.arrival.submitted;
    let deadline = job.deadline.unwrap_or_default();
    core.metrics.counter("server.deadline.misses").inc();
    let missed = Err(CoreError::Host(format!(
        "job {} for tenant {tenant} missed its {deadline:?} deadline while \
         queued ({queued_for:?} in queue; clock started at submit)",
        job.id
    )));
    deliver(st, job.id, missed);
    // It never ran: its `run` and `gather` phases are empty.
    core.record_completion(st, tenant, job.arrival, [now; 3], RunTimes::default());
    core.done.notify_all();
}

/// Records the dispatch and places the assignment in `device`'s mailbox.
fn dispatch(core: &ServerCore, st: &mut ServerState, mut a: Assignment, device: usize) {
    let seq = st.schedule.len() as u64;
    a.seq = seq;
    st.schedule.push(DispatchRecord {
        seq,
        tenant: a.job.tenant.clone(),
        job_id: a.job.id,
        device,
        queued_us: u64::try_from(
            a.job.arrival.submitted.saturating_duration_since(core.epoch).as_micros(),
        )
        .unwrap_or(u64::MAX),
        start_us: core.now_us(),
        end_us: 0,
        shard: a.shard,
        shards: a.job.shards,
    });
    st.busy[device] = true;
    st.mailboxes[device] = Some(a);
}

/// One pool worker: waits on its mailbox, runs the shard range on its
/// device, delivers the output to the job's gather, runs the dispatch
/// step for the device it just freed — and if that was the job's last
/// shard, merges and installs the result.
fn worker_loop(core: &ServerCore, device: usize) {
    loop {
        let a = {
            let mut st = core.lock();
            loop {
                if let Some(a) = st.mailboxes[device].take() {
                    break a;
                }
                if st.exhausted() {
                    return;
                }
                st = core.mail.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let job = Arc::clone(&a.job);
        let run_start = Instant::now();
        let outcome: Result<ShardOut, CoreError> = match &job.prepared {
            Ok(p) => contained("job", || p.run_range(&core.devices[device], a.range.clone())),
            Err(e) => Err(e.clone()),
        };
        let service = run_start.elapsed();

        let finished = {
            let mut st = core.lock();
            st.busy[device] = false;
            if let Ok(part) = &outcome {
                st.modeled_busy[device] +=
                    core.devices[device].cycles_to_time(part.stats().cycles);
            }
            // EWMA with α = 1/4: smooth enough for admission, cheap to
            // update.
            st.ewma_service = if st.ewma_service.is_zero() {
                service
            } else {
                (st.ewma_service * 3 + service) / 4
            };
            if let Some(rec) = st.schedule.get_mut(a.seq as usize) {
                rec.end_us = core.now_us();
            }
            let gather = st.gathers.get_mut(&job.id).expect("in-flight job has a gather");
            match outcome {
                Ok(part) => {
                    gather.times.absorb(part.times());
                    gather.parts[a.shard] = Some(part);
                }
                Err(e) => {
                    if gather.err.is_none() {
                        gather.err = Some(e);
                    }
                }
            }
            gather.remaining -= 1;
            let finished = if gather.remaining == 0 {
                Some((st.gathers.remove(&job.id).expect("just observed"), Instant::now()))
            } else {
                None
            };
            // This device is free again: hand out what is staged or queued
            // before the (possibly long) merge below.
            schedule(core, &mut st);
            finished
        };
        core.device_jobs[device].inc();
        if let Some((gather, ran)) = finished {
            finalize(core, &job, gather, ran);
        }
    }
}

/// Runs one step of a job on a worker thread, turning a panic in it into
/// the structured error a ticket can carry: the worker — and with it the
/// device — outlives whatever a plan, a table or a caller's oracle does.
fn contained<T>(what: &str, step: impl FnOnce() -> Result<T, CoreError>) -> Result<T, CoreError> {
    catch_unwind(AssertUnwindSafe(step)).unwrap_or_else(|panic| {
        Err(CoreError::Host(format!(
            "server {what} panicked: {}",
            crate::accel::panic_message(panic.as_ref())
        )))
    })
}

/// Merges a completed job's shard outputs (or propagates its first
/// error), applies the reconfiguration penalty or the oracle rescue, and
/// installs the result.
fn finalize(core: &ServerCore, job: &Arc<JobShared>, gather: Gather, ran: Instant) {
    let run = gather.times;
    let base: JobResult = match (gather.err, &job.prepared) {
        (Some(e), _) => Err(e),
        (None, Err(e)) => Err(e.clone()),
        (None, Ok(p)) => contained("gather", || {
            let parts: Vec<ShardOut> = gather
                .parts
                .into_iter()
                .map(|part| part.expect("all shards delivered"))
                .collect();
            p.gather(parts)
        }),
    };
    let result = base.or_else(|e| rescue(&job.oracle, e)).map(|(table, mut stats)| {
        stats.reconfig_cycles += job.reconfig_penalty;
        stats.cycles += job.reconfig_penalty;
        (table, stats)
    });
    match &result {
        Ok((_, stats)) => record_stats(&core.metrics, stats),
        Err(_) => core.phases.failed.inc(),
    }
    let mut st = core.lock();
    st.inflight -= 1;
    let delivered = Instant::now();
    deliver(&mut st, job.id, result);
    core.record_completion(&mut st, &job.tenant, job.arrival, [job.promoted, ran, delivered], run);
    drop(st);
    core.done.notify_all();
}

/// Oracle fallback for a failed run: the oracle's table with fallback
/// fault counters. The oracle is the caller's code and is contained like
/// the run it replaces.
fn rescue(oracle: &Mutex<Option<OracleFn>>, err: CoreError) -> JobResult {
    let oracle = oracle.lock().unwrap_or_else(PoisonError::into_inner).take();
    let Some(oracle) = oracle else { return Err(err) };
    let table = contained("oracle", oracle)?;
    let mut stats = AccelStats::default();
    stats.faults.fallback_batches = 1;
    stats.faults.fallback_jobs = 1;
    Ok((table, stats))
}

/// Publishes a delivered job's recovery, tiered-memory and scan counters
/// as `server.faults.*`, `server.tier.*` and `server.scan.*`. A zero
/// publishes nothing, so a fault-free, on-chip run leaves only its
/// `scan.*` pair (equal unless a pushed predicate dropped rows).
fn record_stats(metrics: &MetricsRegistry, stats: &AccelStats) {
    let faults = stats.faults;
    for (name, value) in [
        ("server.faults.dma_errors", faults.dma_errors),
        ("server.faults.dma_timeouts", faults.dma_timeouts),
        ("server.faults.device_faults", faults.device_faults),
        ("server.faults.mem_spikes", faults.mem_spikes),
        ("server.faults.retries", faults.retries),
        ("server.faults.backoff_ns", faults.backoff_ns),
        ("server.faults.fallback_batches", faults.fallback_batches),
        ("server.faults.fallback_jobs", faults.fallback_jobs),
        ("server.tier.pages_filled", stats.tier_pages_filled),
        ("server.tier.pages_spilled", stats.tier_pages_spilled),
        ("server.tier.prefetch_hits", stats.tier_prefetch_hits),
        ("server.tier.pcie_bytes", stats.tier_pcie_bytes),
        ("server.tier.spill_wait_cycles", stats.spill_wait_cycles),
        ("server.scan.rows_scanned", stats.rows_scanned),
        ("server.scan.rows_emitted", stats.rows_emitted),
    ] {
        if value > 0 {
            metrics.counter(name).add(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis_sql::ast::{AggFn, ColRef, Expr, SelectItem};
    use genesis_types::{Column, DataType, Field, Schema};

    fn sum_plan(col: &str) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan { table: "T".into(), partition: None }),
            items: vec![SelectItem::Agg {
                func: AggFn::Sum,
                arg: Some(Expr::Col(ColRef::bare(col))),
                alias: None,
            }],
            group_by: vec![],
        }
    }

    fn catalog(rows: u32) -> Catalog {
        let schema = Schema::new(vec![Field::new("X", DataType::U32)]);
        let table =
            Table::from_columns(schema, vec![Column::U32((1..=rows).collect())]).unwrap();
        let mut catalog = Catalog::new();
        catalog.register("T", table);
        catalog
    }

    fn small_server(devices: usize) -> GenesisServer {
        GenesisServer::new(
            ServerConfig::default().with_devices(devices, DeviceConfig::small()),
        )
    }

    #[test]
    fn fingerprint_is_structural() {
        let cat = catalog(8);
        let a = fingerprint(&sum_plan("X"), &cat);
        let b = fingerprint(&sum_plan("X"), &cat);
        assert_eq!(a, b, "same plan, same catalog, same fingerprint");
        // Different table data, same schema: fingerprint unchanged.
        assert_eq!(a, fingerprint(&sum_plan("X"), &catalog(99)));
        // Different plan: different fingerprint.
        let scan = LogicalPlan::Scan { table: "T".into(), partition: None };
        assert_ne!(a, fingerprint(&scan, &cat));
        // Same plan, different schema: different fingerprint.
        let mut other = Catalog::new();
        other.register(
            "T",
            Table::from_columns(
                Schema::new(vec![Field::new("X", DataType::U64)]),
                vec![Column::U64(vec![1])],
            )
            .unwrap(),
        );
        assert_ne!(a, fingerprint(&sum_plan("X"), &other));
    }

    #[test]
    fn submit_round_trips_and_caches() {
        let server = small_server(1);
        let cat = catalog(32);
        let t1 = server.submit(Request::new("a", sum_plan("X")), &cat).unwrap();
        let (out, stats) = t1.wait().unwrap();
        assert_eq!(out.row(0)[0], genesis_types::Value::U64((1..=32u64).sum()));
        // First submit missed the cache and paid the penalty.
        assert_eq!(stats.reconfig_cycles, 2_500_000);
        // Second submit of the same plan hits: no penalty.
        let (_, stats) = server.submit(Request::new("b", sum_plan("X")), &cat).unwrap().wait().unwrap();
        assert_eq!(stats.reconfig_cycles, 0);
        let cache = server.cache_stats();
        assert_eq!((cache.hits, cache.misses, cache.len), (1, 1, 1));
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counters["server.cache.hits"], 1);
        assert_eq!(snap.counters["server.cache.misses"], 1);
        assert_eq!(snap.counters["server.jobs.completed"], 2);
    }

    #[test]
    fn the_only_threads_are_the_device_workers() {
        for n in [1, 2, 4] {
            assert_eq!(small_server(n).workers.len(), n);
        }
    }

    /// Regression: `submitted + Duration::MAX` overflowed `Instant` and
    /// panicked in `wait`.
    #[test]
    fn unrepresentable_deadline_is_no_deadline() {
        let server = small_server(1);
        let req = Request::new("a", sum_plan("X")).with_deadline(Duration::MAX);
        let (out, _) = server.submit(req, &catalog(8)).unwrap().wait().unwrap();
        assert_eq!(out.row(0)[0], genesis_types::Value::U64(36));
    }

    #[test]
    fn queue_full_rejects_with_overloaded() {
        let server = GenesisServer::new(
            ServerConfig::default()
                .with_devices(1, DeviceConfig::small())
                .with_max_pending(1)
                .start_paused(),
        );
        let cat = catalog(8);
        let t1 = server.submit(Request::new("a", sum_plan("X")), &cat).unwrap();
        let err = server.submit(Request::new("b", sum_plan("X")), &cat).unwrap_err();
        let CoreError::Overloaded { tenant, queued, limit, .. } = &err else {
            panic!("expected Overloaded, got {err:?}");
        };
        assert_eq!((tenant.as_str(), *queued, *limit), ("b", 1, 1));
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counters["server.admission.rejected"], 1);
        server.resume();
        t1.wait().unwrap();
    }

    #[test]
    fn unknown_script_suggests_registered_names() {
        let server = small_server(1);
        server
            .register_script("quality_sum", "INSERT INTO O SELECT SUM(X) FROM T")
            .unwrap();
        let err = server
            .submit(Request::script("a", "quality_sums"), &catalog(4))
            .unwrap_err();
        assert!(
            err.to_string().contains("did you mean `quality_sum`"),
            "got: {err}"
        );
        let (out, _) = server
            .submit(Request::script("a", "quality_sum"), &catalog(4))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(out.row(0)[0], genesis_types::Value::U64(10));
    }

    #[test]
    fn compile_error_surfaces_at_submit() {
        let server = small_server(1);
        // A projection of an unknown column fails column resolution during
        // lowering, i.e. at submit time — before anything is queued.
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Scan { table: "T".into(), partition: None }),
            items: vec![SelectItem::Expr {
                expr: Expr::Col(ColRef::bare("BOGUS")),
                alias: None,
            }],
        };
        let err = server.submit(Request::new("a", plan), &catalog(4)).unwrap_err();
        assert!(matches!(err, CoreError::Plan { .. }), "got: {err:?}");
        assert_eq!(server.queue_depth(), 0);
    }

    #[test]
    fn schedule_log_is_fair_and_deterministic() {
        let cat = catalog(8);
        let mix: Vec<(&str, &str)> =
            vec![("a", "X"), ("a", "X"), ("b", "X"), ("a", "X"), ("c", "X"), ("b", "X")];
        let mut logs = Vec::new();
        for devices in [1, 2, 4] {
            let server = GenesisServer::new(
                ServerConfig::default()
                    .with_devices(devices, DeviceConfig::small())
                    .start_paused(),
            );
            let tickets: Vec<Ticket> = mix
                .iter()
                .map(|(t, c)| server.submit(Request::new(*t, sum_plan(c)), &cat).unwrap())
                .collect();
            server.resume();
            for t in tickets {
                t.wait().unwrap();
            }
            let log: Vec<(String, u64)> = server
                .schedule_log()
                .into_iter()
                .map(|r| (r.tenant, r.job_id))
                .collect();
            logs.push(log);
        }
        let reference: Vec<(String, u64)> = crate::sched::fair_order(
            &mix.iter()
                .enumerate()
                .map(|(i, (t, _))| ((*t).to_owned(), i as u64))
                .collect::<Vec<_>>(),
        );
        for log in &logs {
            assert_eq!(log, &reference, "schedule must match fair order at any pool size");
        }
    }

    /// Regression: a result slot used to be emptied only by a successful
    /// `Ticket::wait`, so a dropped or timed-out ticket left its
    /// `(Table, AccelStats)` in the map for the server's lifetime.
    #[test]
    fn abandoned_and_timed_out_tickets_release_their_results() {
        let cat = catalog(8);
        let server = GenesisServer::new(
            ServerConfig::default().with_devices(1, DeviceConfig::small()).start_paused(),
        );
        let n = 8;
        let mut tickets: VecDeque<Ticket> = (0..n)
            .map(|i| {
                let mut req = Request::new("a", sum_plan("X"));
                if i >= 6 {
                    req = req.with_deadline(Duration::from_millis(1));
                }
                server.submit(req, &cat).unwrap()
            })
            .collect();
        assert_eq!(server.core.lock().results.len(), n);
        // A quarter time out in `wait` and two are dropped, all before
        // their results exist...
        for timed_out in tickets.drain(6..) {
            let err = timed_out.wait().unwrap_err();
            assert!(err.to_string().contains("deadline"), "got: {err}");
        }
        tickets.drain(..2);
        server.resume();
        while server.completed() < n as u64 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // ...two more are dropped with their results already delivered,
        // and the last two collect normally.
        assert_eq!(server.core.lock().results.len(), 4);
        tickets.drain(..2);
        for kept in tickets {
            kept.wait().unwrap();
        }
        assert_eq!(server.core.lock().results.len(), 0, "a drained server holds no results");
    }

    #[test]
    fn modeled_busy_splits_across_devices() {
        let cat = catalog(64);
        let server = GenesisServer::new(
            ServerConfig::default().with_devices(2, DeviceConfig::small()).start_paused(),
        );
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| {
                server
                    .submit(Request::new(format!("t{i}"), sum_plan("X")), &cat)
                    .unwrap()
            })
            .collect();
        server.resume();
        for t in tickets {
            t.wait().unwrap();
        }
        let busy = server.modeled_device_time();
        assert_eq!(busy.len(), 2);
        // The pool is greedy, so which devices run jobs depends on thread
        // timing (one worker can drain a short queue before the other
        // wakes). The deterministic property is attribution: a device has
        // modeled busy time iff the schedule log dispatched a job to it.
        let log = server.schedule_log();
        assert_eq!(log.len(), 4);
        for d in 0..2 {
            let ran = log.iter().any(|r| r.device == d);
            assert_eq!(
                !busy[d].is_zero(),
                ran,
                "modeled busy for device {d} must match its dispatch log: {busy:?}"
            );
        }
    }
}
