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
//!   submitted [`LogicalPlan`] is keyed by its *shape* ([`fingerprint`]: a
//!   stable structural hash over the plan tree and the scanned tables'
//!   schemas, with the literals of pushed-down conjuncts masked — those
//!   are bind-time parameters, so `WHERE X < 17` and `WHERE X < 18` share
//!   one compiled pipeline); compiled [`PipelinePlan`]s live in an LRU
//!   cache with hit / miss / eviction counters, and every shape miss is
//!   charged a configurable reconfiguration penalty
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
//! * **Two pools, one clock each.** `devices` host threads execute:
//!   an idle one takes the next staged shard, promoting one job off the
//!   fair queue when none is (the only prune point). The modeled devices
//!   are a timeline ([`crate::sched::modeled_timeline`]): shards are
//!   list-scheduled in dispatch order by simulated cycles plus fault
//!   backoff, from their job's modeled arrival — the modeled end of the
//!   job whose ticket [`Ticket::wait`] last collected before the submit —
//!   so placement and [`GenesisServer::modeled_device_time`] follow the
//!   order of submits and collecting waits, never which host thread ran a
//!   shard. Deadlines and admission stay wall-clock policies. A
//!   queued tenant costs a [`Ticket`] and a queue slot — no thread — and
//!   compilation is single-flight (`server.cache.compiles` counts actual
//!   compiles).
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
//! (`<path>.server.json`) with one track per modeled device, each shard
//! drawn at its modeled interval.
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
use crate::lower::{shape, PreparedJob, RunTimes, ShardOut};
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
    /// Size of the simulated device pool: one modeled device and one host
    /// thread each.
    pub devices: usize,
    /// The model every pool device runs: every shard simulates on it, and
    /// cache misses compile against it.
    pub device: DeviceConfig,
    /// Compiled-pipeline LRU cache capacity in shapes (`0` disables
    /// caching: every submit compiles and pays the reconfiguration
    /// penalty).
    pub cache_capacity: usize,
    /// Cycles charged on a shape miss: to a job whose plan's shape
    /// ([`fingerprint`]) is not in the cache, modelling FPGA
    /// reconfiguration time. A hit that only re-binds literals pays
    /// nothing. The default (2.5 M cycles = 10 ms at the paper's 250 MHz
    /// clock) is on the optimistic end of partial reconfiguration;
    /// full-bitstream loads are ~100× worse.
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
            devices: 1,
            device: DeviceConfig::default(),
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
        self.devices = n.max(1);
        self.device = device;
        self
    }

    /// Sets the compiled-pipeline cache capacity.
    #[must_use]
    pub fn with_cache_capacity(mut self, entries: usize) -> ServerConfig {
        self.cache_capacity = entries;
        self
    }

    /// Sets the reconfiguration penalty charged on shape misses.
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

/// Stable structural fingerprint of a plan's *shape* against a catalog:
/// FNV-1a over the plan tree and each scanned table's name and schema,
/// with the literal operands of the conjuncts predicate pushdown moves
/// into a scan masked. Two plans fingerprint equal exactly when they
/// lower to the same hardware pipeline — table *data* and those literals
/// are deliberately excluded: a job re-binds the data and the literals
/// at submit (a pushed conjunct selects rows on the host and reaches no
/// module). Every literal that can reach hardware stays in the key:
/// residual Filter constants, ALU immediates, `LIMIT` counts, and every
/// literal of a shape whose scratchpads are sized from bound data
/// (GROUP BY, explode, reference window, loop). This is the key of a
/// server whose devices push predicates down (the default); with
/// pushdown off, all literals count.
#[must_use]
pub fn fingerprint(plan: &LogicalPlan, catalog: &Catalog) -> u64 {
    shape(plan, catalog, true).0
}

/// Point-in-time counters of the compiled-pipeline cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Submits served from the cache.
    pub hits: u64,
    /// Submits whose shape compiled fresh (and paid the reconfiguration
    /// penalty).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
}

/// LRU cache of compiled pipelines keyed by shape ([`fingerprint`]).
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

/// A request's payload resolved to a compiled pipeline.
struct Resolved {
    plan: Arc<PipelinePlan>,
    /// The request's values of the shape's parameters (`None` when there
    /// are none to re-bind: the compiled plan's own literals hold).
    literals: Option<Vec<u64>>,
    /// What the job owes for reconfiguration: non-zero exactly on a shape
    /// miss.
    reconfig_penalty: u64,
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
    /// Taken by the rescue of a failed run.
    oracle: Mutex<Option<OracleFn>>,
    deadline: Option<Duration>,
    arrival: Arrival,
    reconfig_penalty: u64,
    /// The schedule-log records of the job whose ticket was last collected
    /// before this submit: the job's modeled arrival is their modeled end.
    after: Option<Range<usize>>,
}

/// The promoted form of a job, shared by its shard assignments.
struct JobShared {
    queued: QueuedJob,
    tenant: String,
    /// When the job was popped off the fair queue (the end of its
    /// `queue_wait`).
    promoted: Instant,
    /// The job's schedule-log records, one per shard in shard order.
    records: Range<usize>,
}

/// One staged shard run, awaiting an idle host thread.
struct Assignment {
    job: Arc<JobShared>,
    range: Range<usize>,
    shard: usize,
}

/// A schedule-log record the timeline has not placed yet.
struct Unplaced {
    /// Modeled duration, known once the shard has run.
    duration: Option<Duration>,
    /// See [`QueuedJob::after`].
    after: Option<Range<usize>>,
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
    /// Signalled when host threads may find work: a job queued, shards
    /// left staged, `resume`, shutdown.
    mail: Condvar,
    /// Signalled when a job result is installed.
    done: Condvar,
    metrics: Arc<MetricsRegistry>,
    /// Registry handles of the per-request metrics, resolved at start.
    phases: PhaseMetrics,
    /// The configuration every shard simulates on (the pool's first).
    device: DeviceConfig,
    /// Pool size: modeled devices and host threads.
    devices: usize,
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
    /// The promoted job's shards no host thread has taken yet.
    ready: VecDeque<Assignment>,
    /// Scatter-gather rendezvous, keyed by job id, for in-flight jobs.
    gathers: HashMap<u64, Gather>,
    /// Jobs promoted out of the queue and not yet finalized — the
    /// in-flight count deadline admission must include.
    inflight: usize,
    /// One slot per live [`Ticket`], opened at submit (`None` = pending)
    /// and closed when the ticket collects or goes away; a result whose
    /// slot is gone is dropped on arrival (see [`deliver`]). A result
    /// carries its job's schedule-log records (none if pruned in queue).
    results: HashMap<u64, Option<(JobResult, Range<usize>)>>,
    tenants: HashMap<String, TenantMetrics>,
    schedule: Vec<DispatchRecord>,
    /// The log's unplaced tail, in dispatch order.
    unplaced: VecDeque<Unplaced>,
    /// When each modeled device finishes the last shard placed on it.
    free: Vec<Duration>,
    /// The records of the job whose ticket `wait` last collected.
    last_collected: Option<Range<usize>>,
    /// EWMA of wall-clock service time, for deadline-aware admission.
    ewma_service: Duration,
    paused: bool,
    shutdown: bool,
}

impl ServerState {
    /// Shutdown has begun and nothing is left to take: an idle host
    /// thread can leave.
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

    fn sample_depth(&self, st: &ServerState) {
        self.metrics.histogram("server.queue_depth").observe(st.queue.len() as u64);
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
    /// the ticket. A job that reached a device becomes the modeled arrival
    /// of the jobs submitted after this returns.
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
                    let (result, records) = slot.remove().expect("checked above");
                    if !records.is_empty() {
                        st.last_collected = Some(records);
                    }
                    break result;
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
fn deliver(st: &mut ServerState, id: u64, result: JobResult, records: Range<usize>) {
    if let Some(slot) = st.results.get_mut(&id) {
        *slot = Some((result, records));
    }
}

/// The multi-tenant serving front door. See the module docs for the
/// architecture; `examples/serve.rs` for a three-tenant walkthrough.
pub struct GenesisServer {
    core: Arc<ServerCore>,
    cache: Mutex<CacheInner>,
    /// Signalled when an in-flight compile finishes (single-flight).
    compile_cv: Condvar,
    scripts: Mutex<HashMap<String, Arc<LogicalPlan>>>,
    compiler: Compiler,
    cfg: ServerConfig,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for GenesisServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenesisServer")
            .field("devices", &self.cfg.devices)
            .field("cache", &self.cache_stats())
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

impl GenesisServer {
    /// Starts a server: one host thread per device.
    #[must_use]
    pub fn new(cfg: ServerConfig) -> GenesisServer {
        let n = cfg.devices.max(1);
        let metrics = Arc::new(MetricsRegistry::new());
        let core = Arc::new(ServerCore {
            state: Mutex::new(ServerState {
                next_id: 0,
                queue: FairQueue::new(),
                ready: VecDeque::new(),
                gathers: HashMap::new(),
                inflight: 0,
                results: HashMap::new(),
                tenants: HashMap::new(),
                schedule: Vec::new(),
                unplaced: VecDeque::new(),
                free: vec![Duration::ZERO; n],
                last_collected: None,
                ewma_service: Duration::ZERO,
                paused: cfg.paused,
                shutdown: false,
            }),
            mail: Condvar::new(),
            done: Condvar::new(),
            phases: PhaseMetrics::new(&metrics),
            metrics,
            device: cfg.device.clone(),
            devices: n,
            shards: cfg.default_shards.max(1),
            epoch: Instant::now(),
        });
        let workers = (0..n)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("genesis-serve-{i}"))
                    .spawn(move || worker_loop(&core))
                    .expect("spawn server worker")
            })
            .collect();
        let compiler = Compiler::new(cfg.device.clone());
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
            .insert(name.into(), Arc::new(plan));
        Ok(())
    }

    /// Submits one request: resolves the plan, compiles its shape through
    /// the LRU cache (a miss pays
    /// [`ServerConfig::reconfig_penalty_cycles`]), binds it to `catalog`'s
    /// data and the request's literals on the calling thread — choosing
    /// the replication factor at the bound selectivity unless
    /// [`Request::with_replication`] fixed it — queues the job and wakes
    /// an idle host thread to take it. Never waits for a device: returns
    /// at once with a [`Ticket`].
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
        let Resolved { plan, literals, reconfig_penalty } =
            self.resolve_pipeline(payload, catalog)?;
        // Serialize the scans now, while we still hold the (non-`Send`)
        // catalog, with this request's literals; a bind failure is
        // deferred to the worker so the oracle can rescue it.
        let prepared = plan.prepare_job(catalog, literals.as_deref(), replication).map(Arc::new);
        let submitted = Instant::now();

        let mut st = self.core.lock();
        self.admit(&st, &tenant, deadline)?;
        let id = st.next_id;
        st.next_id += 1;
        st.results.insert(id, None);
        let after = st.last_collected.clone();
        st.queue.push(&tenant, QueuedJob {
            id,
            prepared,
            oracle: Mutex::new(oracle),
            deadline,
            arrival: Arrival { entered, submitted, queued: Instant::now() },
            reconfig_penalty,
            after,
        });
        self.core.sample_depth(&st);
        let depth = st.queue.depth(&tenant) as u64;
        self.core.tenant(&mut st, &tenant).queue_depth.observe(depth);
        let runnable = !st.paused;
        drop(st);
        if runnable {
            // All idle threads: the job's shards are theirs to share.
            self.core.mail.notify_all();
        }
        Ok(Ticket { core: Arc::clone(&self.core), id, tenant, submitted, deadline, closed: false })
    }

    /// Resolves a payload to a compiled pipeline, through the cache for
    /// plan/script payloads.
    fn resolve_pipeline(&self, payload: Payload, catalog: &Catalog) -> Result<Resolved, CoreError> {
        let inline;
        let script;
        let plan: &LogicalPlan = match payload {
            Payload::Compiled(plan) => {
                return Ok(Resolved { plan: Arc::new(*plan), literals: None, reconfig_penalty: 0 })
            }
            Payload::Plan(plan) => {
                inline = plan;
                &inline
            }
            Payload::Script(name) => {
                let scripts = self.scripts.lock().unwrap_or_else(PoisonError::into_inner);
                script = scripts.get(&name).cloned().ok_or_else(|| {
                    let mut reason = format!("unknown script `{name}`");
                    if let Some(s) =
                        crate::env::suggest(&name, scripts.keys().map(String::as_str))
                    {
                        reason.push_str(&format!(" (did you mean `{s}`?)"));
                    }
                    CoreError::Host(reason)
                })?;
                &script
            }
        };
        let (key, literals) = shape(plan, catalog, self.cfg.device.pushdown);
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        // Single-flight: if another thread is already compiling this
        // fingerprint, wait for it instead of compiling a duplicate — a
        // stampede of same-plan submits compiles exactly once.
        loop {
            if let Some(hit) = cache.lru.get(key) {
                self.core.metrics.counter("server.cache.hits").inc();
                return Ok(Resolved { plan: hit, literals, reconfig_penalty: 0 });
            }
            if cache.inflight.insert(key) {
                break;
            }
            cache = self.compile_cv.wait(cache).unwrap_or_else(PoisonError::into_inner);
        }
        self.core.metrics.counter("server.cache.misses").inc();
        drop(cache); // compile outside the cache lock
        let start = Instant::now();
        let compiled = self.compiler.compile(plan, catalog).map(Arc::new);
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
        Ok(Resolved {
            plan: compiled,
            literals,
            reconfig_penalty: self.cfg.reconfig_penalty_cycles,
        })
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
                let waves = backlog.div_ceil(self.core.devices) as u32;
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
        self.core.lock().paused = false;
        self.core.mail.notify_all();
    }

    /// Number of pool devices.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.core.devices
    }

    /// Jobs currently queued (excluding in-flight).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.core.lock().queue.len()
    }

    /// Jobs completed since start.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.core.phases.completed.get()
    }

    /// Compiled-pipeline cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner).lru.stats()
    }

    /// The dispatch log so far, one record per shard in dispatch order.
    /// The order is deterministic for a fixed submission order, the
    /// placement for a fixed interleaving of submits and collecting waits
    /// (see [`DispatchRecord`]).
    #[must_use]
    pub fn schedule_log(&self) -> Vec<DispatchRecord> {
        self.core.lock().schedule.clone()
    }

    /// Modeled busy time per pool device: the summed modeled durations of
    /// the shards the timeline placed on it. For a job mix submitted at
    /// once the max entry is the pool's modeled makespan — the throughput
    /// denominator a host with fewer cores than devices can still measure.
    #[must_use]
    pub fn modeled_device_time(&self) -> Vec<Duration> {
        let mut per_device = vec![Duration::ZERO; self.devices()];
        for rec in &self.core.lock().schedule {
            per_device[rec.device] += rec.modeled_end - rec.modeled_start;
        }
        per_device
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

    /// Writes the server Chrome trace (`<path>.server.json`: one track per
    /// modeled device, each shard at its modeled interval) and returns the
    /// path. `None` when tracing is off or has no path.
    /// Also called automatically on drop.
    pub fn export_trace(&self) -> Option<PathBuf> {
        let base = self.cfg.trace.path.as_ref().filter(|_| self.cfg.trace.enabled)?;
        let mut path = base.clone().into_os_string();
        path.push(".server.json");
        let path = PathBuf::from(path);
        let st = self.core.lock();
        let mut trace = ChromeTrace::new();
        trace.process_name(1, "genesis-server");
        for device in 0..self.devices() {
            trace.thread_name(1, device as u32 + 1, &format!("device {device}"));
        }
        // Whole modeled microseconds, floored at both ends: flooring keeps
        // the order of instants, so a device's spans stay disjoint.
        let us = |t: Duration| u64::try_from(t.as_micros()).unwrap_or(u64::MAX);
        for rec in &st.schedule[..st.schedule.len() - st.unplaced.len()] {
            let name = if rec.shards > 1 {
                format!("{}#{}/s{}", rec.tenant, rec.job_id, rec.shard)
            } else {
                format!("{}#{}", rec.tenant, rec.job_id)
            };
            let (start, end) = (us(rec.modeled_start), us(rec.modeled_end));
            trace.complete(1, rec.device as u32 + 1, &name, "run", start, end - start);
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
        }
        self.core.mail.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.export_trace();
    }
}

/// Hands an idle host thread its next shard: the next one staged, after
/// promoting one job off the fair queue when none is. Only one job is
/// staged at a time and only here, so the staging order — and with it
/// the dispatch order in the schedule log — is exactly the fair-queue pop
/// order, at any pool size. `None` while paused or when nothing is
/// runnable.
fn take_shard(core: &ServerCore, st: &mut ServerState) -> Option<Assignment> {
    if st.paused && !st.shutdown {
        return None;
    }
    if st.ready.is_empty() && !promote(core, st) {
        return None;
    }
    let a = st.ready.pop_front()?;
    st.schedule[a.job.records.start + a.shard].start_us = core.now_us();
    if !st.ready.is_empty() || !st.queue.is_empty() {
        // Work is left for the other idle threads: wake them together,
        // not one after another.
        core.mail.notify_all();
    }
    Some(a)
}

/// Pops the next runnable job off the fair queue, settling lapsed
/// deadlines along the way, splits it into shard assignments, logs one
/// dispatch record per shard and stages the assignments in `ready`.
/// Returns whether it staged a job.
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
    let Some((tenant, queued)) = popped else {
        return false;
    };
    let id = queued.id;
    let ranges = match &queued.prepared {
        Ok(p) => p.shard_ranges(core.shards),
        // A job that failed to bind still flows through one (empty) shard
        // so the error surfaces at the ticket — or its oracle rescues it.
        Err(_) => std::iter::once(0..0).collect(),
    };
    let nshards = ranges.len();
    let first = st.schedule.len();
    let queued_us =
        u64::try_from(queued.arrival.submitted.saturating_duration_since(core.epoch).as_micros())
            .unwrap_or(u64::MAX);
    for shard in 0..nshards {
        st.schedule.push(DispatchRecord {
            seq: (first + shard) as u64,
            tenant: tenant.clone(),
            job_id: id,
            device: 0,
            queued_us,
            start_us: 0,
            end_us: 0,
            modeled_start: Duration::ZERO,
            modeled_end: Duration::ZERO,
            shard,
            shards: nshards,
        });
        st.unplaced.push_back(Unplaced { duration: None, after: queued.after.clone() });
    }
    let shared =
        Arc::new(JobShared { queued, tenant, promoted, records: first..first + nshards });
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
        st.ready.push_back(Assignment { job: Arc::clone(&shared), range, shard });
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
    deliver(st, job.id, missed, 0..0);
    // It never ran: its `run` and `gather` phases are empty.
    core.record_completion(st, tenant, job.arrival, [now; 3], RunTimes::default());
    core.done.notify_all();
}

/// Logs shard `seq`'s modeled duration, then places every record the
/// timeline can: in dispatch order, each once its own duration and every
/// earlier one's are known. A job's arrival resolves here, from records
/// that precede it in the log and so are already placed.
fn place_finished(st: &mut ServerState, seq: usize, duration: Duration) {
    let ServerState { schedule, unplaced, free, .. } = st;
    let mut next = schedule.len() - unplaced.len();
    unplaced[seq - next].duration = Some(duration);
    while let Some(&Unplaced { duration: Some(duration), ref after }) = unplaced.front() {
        let arrival = after.as_ref().map_or(Duration::ZERO, |job| {
            schedule[job.clone()].iter().map(|r| r.modeled_end).max().unwrap_or_default()
        });
        let (device, start) = crate::sched::place(free, arrival, duration);
        let rec = &mut schedule[next];
        (rec.device, rec.modeled_start, rec.modeled_end) = (device, start, start + duration);
        unplaced.pop_front();
        next += 1;
    }
}

/// One host thread of the execution pool: takes the next shard, runs it,
/// hands its modeled duration to the timeline and its output to the job's
/// gather — and if that was the job's last shard, merges and installs the
/// result.
fn worker_loop(core: &ServerCore) {
    loop {
        let a = {
            let mut st = core.lock();
            loop {
                if let Some(a) = take_shard(core, &mut st) {
                    break a;
                }
                if st.exhausted() {
                    return;
                }
                st = core.mail.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Assignment { job, range, shard } = a;
        let seq = job.records.start + shard;
        let run_start = Instant::now();
        let outcome: Result<ShardOut, CoreError> = match &job.queued.prepared {
            Ok(p) => contained("job", || p.run_range(&core.device, range, seq as u64)),
            Err(e) => Err(e.clone()),
        };
        let service = run_start.elapsed();
        // A failed run occupies no modeled time.
        let modeled = outcome.as_ref().map_or(Duration::ZERO, |part| {
            let stats = part.stats();
            core.device.cycles_to_time(stats.cycles) + Duration::from_nanos(stats.faults.backoff_ns)
        });

        let finished = {
            let mut st = core.lock();
            // EWMA with α = 1/4: smooth enough for admission, cheap to
            // update.
            st.ewma_service = if st.ewma_service.is_zero() {
                service
            } else {
                (st.ewma_service * 3 + service) / 4
            };
            st.schedule[seq].end_us = core.now_us();
            place_finished(&mut st, seq, modeled);
            let gather = st.gathers.get_mut(&job.queued.id).expect("in-flight job has a gather");
            match outcome {
                Ok(part) => {
                    gather.times.absorb(part.times());
                    gather.parts[shard] = Some(part);
                }
                Err(e) => {
                    if gather.err.is_none() {
                        gather.err = Some(e);
                    }
                }
            }
            gather.remaining -= 1;
            if gather.remaining == 0 {
                Some((st.gathers.remove(&job.queued.id).expect("just observed"), Instant::now()))
            } else {
                None
            }
        };
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
            crate::device::panic_message(panic.as_ref())
        )))
    })
}

/// Merges a completed job's shard outputs (or propagates its first
/// error), applies the reconfiguration penalty or the oracle rescue, and
/// installs the result.
fn finalize(core: &ServerCore, job: &Arc<JobShared>, gather: Gather, ran: Instant) {
    let run = gather.times;
    let QueuedJob { id, prepared, oracle, arrival, reconfig_penalty, .. } = &job.queued;
    let base: JobResult = match (gather.err, prepared) {
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
    let result = base.or_else(|e| rescue(oracle, e)).map(|(table, mut stats)| {
        stats.reconfig_cycles += reconfig_penalty;
        stats.cycles += reconfig_penalty;
        (table, stats)
    });
    match &result {
        Ok((_, stats)) => record_stats(&core.metrics, stats),
        Err(_) => core.phases.failed.inc(),
    }
    let mut st = core.lock();
    st.inflight -= 1;
    let delivered = Instant::now();
    deliver(&mut st, *id, result, job.records.clone());
    core.record_completion(&mut st, &job.tenant, *arrival, [job.promoted, ran, delivered], run);
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
    use genesis_sql::ast::{AggFn, BinOp, ColRef, Expr, SelectItem};
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

        // A pushed literal is a parameter: `X < 5` and `X < 6` are one
        // shape, `X > 5` another, and the shape carries each literal.
        let x = || Box::new(Expr::Col(ColRef::bare("X")));
        let cmp = |op, n| Expr::Bin { op, lhs: x(), rhs: Box::new(Expr::Number(n)) };
        let filtered =
            |op, n| LogicalPlan::Filter { input: Box::new(scan.clone()), pred: cmp(op, n) };
        let sum_where = |op, n| match sum_plan("X") {
            LogicalPlan::Aggregate { items, group_by, .. } => {
                LogicalPlan::Aggregate { input: Box::new(filtered(op, n)), items, group_by }
            }
            _ => unreachable!(),
        };
        let key = |p: &LogicalPlan| fingerprint(p, &cat);
        assert_eq!(key(&sum_where(BinOp::Lt, 5)), key(&sum_where(BinOp::Lt, 6)));
        assert_ne!(key(&sum_where(BinOp::Lt, 5)), key(&sum_where(BinOp::Gt, 5)));
        assert_eq!(shape(&sum_where(BinOp::Lt, 6), &cat, true).1, Some(vec![6]));
        // Literals that can reach hardware stay in the key: a grouped
        // shape's pushed literal, a residual Filter over an explode, an
        // ALU immediate, a LIMIT count, and every literal with pushdown
        // off.
        let grouped = |n| LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Aggregate {
                input: Box::new(filtered(BinOp::Lt, n)),
                items: vec![SelectItem::Expr { expr: *x(), alias: None }],
                group_by: vec![ColRef::bare("X")],
            }),
            keys: vec![(ColRef::bare("X"), false)],
        };
        let exploded = |n| LogicalPlan::Filter {
            input: Box::new(LogicalPlan::PosExplode {
                input: Box::new(scan.clone()),
                array: ColRef::bare("X"),
                init_pos: Expr::Number(0),
            }),
            pred: cmp(BinOp::Lt, n),
        };
        let shifted = |n| LogicalPlan::Project {
            input: Box::new(filtered(BinOp::Lt, 9)),
            items: vec![SelectItem::Expr {
                expr: Expr::Bin { op: BinOp::Add, lhs: x(), rhs: Box::new(Expr::Number(n)) },
                alias: None,
            }],
        };
        let limited = |n| LogicalPlan::Limit {
            input: Box::new(filtered(BinOp::Lt, 9)),
            offset: Expr::Number(0),
            count: Expr::Number(n),
        };
        for (what, make) in [
            ("grouped", &grouped as &dyn Fn(u64) -> LogicalPlan),
            ("explode", &exploded),
            ("immediate", &shifted),
            ("limit", &limited),
        ] {
            assert_ne!(key(&make(5)), key(&make(6)), "{what}");
        }
        let off = |p: &LogicalPlan| shape(p, &cat, false);
        assert_ne!(off(&sum_where(BinOp::Lt, 5)).0, off(&sum_where(BinOp::Lt, 6)).0);
        assert_eq!(off(&sum_where(BinOp::Lt, 6)).1, None);
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
        let mut st = server.core.lock();
        while server.completed() < n as u64 {
            st = server.core.done.wait(st).unwrap();
        }
        drop(st);
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
        // Four equal jobs submitted at once list-schedule onto two devices
        // alternately, whichever host thread ran them.
        let log = server.schedule_log();
        let placement: Vec<usize> = log.iter().map(|r| r.device).collect();
        assert_eq!(placement, [0, 1, 0, 1]);
        let job = log[0].modeled_end;
        assert!(!job.is_zero());
        for (r, start) in log.iter().zip([Duration::ZERO, Duration::ZERO, job, job]) {
            assert_eq!((r.modeled_start, r.modeled_end), (start, start + job));
        }
        assert_eq!(server.modeled_device_time(), [job * 2, job * 2]);
    }
}
