//! The modeled accelerator device: clock, replication, DMA link, and the
//! batch runner that simulates replicated pipelines on it (`run_batches`).

use crate::error::CoreError;
use crate::fault::{DmaFault, FaultConfig, FaultReport};
use crate::perf::AccelStats;
use genesis_hw::{EngineMode, MemoryConfig, System};
use genesis_obs::{ChromeTrace, StallReport, TraceBuffer, TraceConfig};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// The host↔FPGA DMA link model (paper §V-B: "the host communicates to and
/// from the FPGA via a PCIe DMA interface, which is measured at
/// approximately 7 GB/s on our custom microbenchmark").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaModel {
    /// Sustained bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Fixed per-transfer setup latency.
    pub per_transfer_latency: Duration,
}

impl DmaModel {
    /// The paper's measured PCIe 3 DMA: ~7 GB/s.
    #[must_use]
    pub fn pcie3() -> DmaModel {
        DmaModel { bandwidth: 7.0e9, per_transfer_latency: Duration::from_micros(30) }
    }

    /// The paper's PCIe 4.0 what-if: 32 GB/s (§V-B).
    #[must_use]
    pub fn pcie4() -> DmaModel {
        DmaModel { bandwidth: 32.0e9, per_transfer_latency: Duration::from_micros(30) }
    }

    /// An arbitrary bandwidth (for the `ablation_pcie` sweep).
    #[must_use]
    pub fn with_bandwidth(bytes_per_sec: f64) -> DmaModel {
        DmaModel { bandwidth: bytes_per_sec, per_transfer_latency: Duration::from_micros(30) }
    }

    /// Transfer time for `bytes` moved in `transfers` DMA operations.
    #[must_use]
    pub fn transfer_time(&self, bytes: u64, transfers: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.bandwidth)
            + self.per_transfer_latency * transfers as u32
    }
}

/// Tiered-memory model in physical units: how much scratchpad state stays
/// on chip, how much spills to device DRAM, and what the PCIe link to the
/// host spill pool costs. Converted to the simulator's cycle-domain
/// [`genesis_hw::TierParams`] via [`TierConfig::to_params`] at system
/// build time, so the same config means the same physics at any modeled
/// clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierConfig {
    /// Modeled on-chip SPM capacity in bytes shared by all paged
    /// scratchpads (scratchpads that fit entirely are pinned and never
    /// wait).
    pub spm_bytes: u64,
    /// Device DRAM spill capacity in bytes.
    pub dram_bytes: u64,
    /// Host DRAM spill pool in bytes; `0` = unbounded (no admission
    /// failure).
    pub host_bytes: u64,
    /// Spill/fill granularity in bytes.
    pub page_bytes: u64,
    /// PCIe link bandwidth in bytes per second.
    pub pcie_bandwidth: f64,
    /// PCIe per-transfer latency.
    pub pcie_latency: Duration,
    /// Device DRAM port bandwidth in bytes per second.
    pub dram_bandwidth: f64,
    /// Device DRAM access latency.
    pub dram_latency: Duration,
    /// Maximum concurrently in-flight page transfers.
    pub max_inflight: usize,
}

impl Default for TierConfig {
    /// 4 MiB of modeled SPM over 1 GiB of device DRAM, an 8 GB/s / 800 ns
    /// PCIe link, a 16 GB/s / 400 ns DRAM port, 4 KiB pages — at the
    /// paper's 250 MHz clock this lands exactly on
    /// [`genesis_hw::TierParams::default`] (200/32 PCIe, 100/64 DRAM
    /// cycles/bytes-per-cycle).
    fn default() -> TierConfig {
        TierConfig {
            spm_bytes: 4 << 20,
            dram_bytes: 1 << 30,
            host_bytes: 0,
            page_bytes: 4096,
            pcie_bandwidth: 8.0e9,
            pcie_latency: Duration::from_nanos(800),
            dram_bandwidth: 16.0e9,
            dram_latency: Duration::from_nanos(400),
            max_inflight: 8,
        }
    }
}

impl TierConfig {
    /// Converts this physical-unit config to simulator cycle units at
    /// `clock_hz`. Bandwidths round to whole bytes/cycle (minimum 1),
    /// latencies to whole cycles.
    #[must_use]
    pub fn to_params(&self, clock_hz: f64) -> genesis_hw::TierParams {
        let bpc = |bw: f64| ((bw / clock_hz).round() as u64).max(1);
        let cycles = |d: Duration| (d.as_secs_f64() * clock_hz).round() as u64;
        genesis_hw::TierParams {
            page_bytes: self.page_bytes.max(64),
            spm_bytes: self.spm_bytes,
            dram_bytes: self.dram_bytes,
            host_bytes: self.host_bytes,
            pcie_lat_cycles: cycles(self.pcie_latency),
            pcie_bytes_per_cycle: bpc(self.pcie_bandwidth),
            dram_lat_cycles: cycles(self.dram_latency),
            dram_bytes_per_cycle: bpc(self.dram_bandwidth),
            max_inflight: self.max_inflight.max(1),
        }
    }

    /// PCIe link capacity in bytes/cycle at `clock_hz` — the budget the
    /// replication chooser divides among replicated pipelines.
    #[must_use]
    pub fn link_bytes_per_cycle(&self, clock_hz: f64) -> f64 {
        self.pcie_bandwidth / clock_hz.max(1.0)
    }
}

/// Full device configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Accelerator clock (paper: 250 MHz).
    pub clock_hz: f64,
    /// Number of replicated pipelines sharing the memory system
    /// (paper §V-A: 16× for mark duplicates and metadata update,
    /// 8× for BQSR).
    pub pipelines: usize,
    /// DMA link.
    pub dma: DmaModel,
    /// Device memory system configuration.
    pub mem: MemoryConfig,
    /// Partition window size in base pairs (paper: ~1 Mbp).
    pub psize: u32,
    /// Simulation engine every batch system runs on: the fast (park/wake)
    /// engine by default, the naive reference engine as the differential
    /// oracle. The two are bit-identical.
    pub engine: EngineMode,
    /// Host worker threads simulating independent batches concurrently
    /// (`0` = auto-detect, one per available host core); see
    /// [`DeviceConfig::resolved_host_threads`].
    pub host_threads: usize,
    /// Opt-in engine tracing for every batch system the accelerators
    /// spawn (off by default). When enabled with a path, each accelerator
    /// run writes the merged Chrome trace there plus a
    /// `<path>.stalls.txt` flame table (a later run overwrites an earlier
    /// one).
    pub trace: TraceConfig,
    /// Fault injection and recovery policy. The default is inert: no
    /// injection, no retries, no fallback.
    pub faults: FaultConfig,
    /// Tiered-memory model: `None` (the default) keeps every scratchpad
    /// fully on chip; `Some` bounds on-chip SPM and spills page-granularly
    /// to device DRAM and the host over the modeled PCIe link.
    pub tiers: Option<TierConfig>,
    /// Predicate pushdown into the scan: absorb supported `WHERE`
    /// conjuncts over a scan directly into `PreparedScan` so only
    /// surviving rows are serialized to the device (the host-side analog
    /// of in-storage filtering). On by default; turn off to force every
    /// predicate through lowered Filter modules (e.g. for differential
    /// testing of the module path).
    pub pushdown: bool,
}

impl Default for DeviceConfig {
    /// F1-like defaults at the paper's configuration — a pure value; the
    /// environment enters only through [`DeviceConfig::from_env`].
    fn default() -> DeviceConfig {
        DeviceConfig {
            clock_hz: 250.0e6,
            pipelines: 16,
            dma: DmaModel::pcie3(),
            mem: MemoryConfig::default(),
            psize: 1_000_000,
            engine: EngineMode::default(),
            host_threads: 0,
            trace: TraceConfig::off(),
            faults: FaultConfig::default(),
            tiers: None,
            pushdown: true,
        }
    }
}

impl DeviceConfig {
    /// F1-like defaults with the engine, trace, fault, host-thread and
    /// tier settings of the validated `GENESIS_*` environment
    /// ([`crate::env::GenesisEnv`]). The environment is read once, here;
    /// whatever `with_*` call follows wins.
    ///
    /// # Errors
    ///
    /// [`crate::env::EnvError`] for the first malformed variable.
    pub fn from_env() -> Result<DeviceConfig, crate::env::EnvError> {
        Ok(crate::env::GenesisEnv::load()?.device_config())
    }

    /// A configuration scaled down for unit tests: 4 pipelines, 20 kbp
    /// partitions, low memory latency.
    #[must_use]
    pub fn small() -> DeviceConfig {
        DeviceConfig {
            pipelines: 4,
            psize: 20_000,
            mem: MemoryConfig { latency_cycles: 20, ..MemoryConfig::default() },
            ..DeviceConfig::default()
        }
    }

    /// Sets the pipeline replication factor.
    #[must_use]
    pub fn with_pipelines(mut self, n: usize) -> DeviceConfig {
        self.pipelines = n.max(1);
        self
    }

    /// Sets the partition window size.
    #[must_use]
    pub fn with_psize(mut self, psize: u32) -> DeviceConfig {
        self.psize = psize;
        self
    }

    /// Selects the simulation engine.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineMode) -> DeviceConfig {
        self.engine = engine;
        self
    }

    /// Sets the host worker-thread count (`0` = auto-detect).
    #[must_use]
    pub fn with_host_threads(mut self, n: usize) -> DeviceConfig {
        self.host_threads = n;
        self
    }

    /// Sets the tracing configuration.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> DeviceConfig {
        self.trace = trace;
        self
    }

    /// Sets the fault injection and recovery policy.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> DeviceConfig {
        self.faults = faults;
        self
    }

    /// Enables the tiered-memory model.
    #[must_use]
    pub fn with_tiers(mut self, tiers: TierConfig) -> DeviceConfig {
        self.tiers = Some(tiers);
        self
    }

    /// Enables or disables predicate pushdown into the scan (on by
    /// default).
    #[must_use]
    pub fn with_pushdown(mut self, on: bool) -> DeviceConfig {
        self.pushdown = on;
        self
    }

    /// Effective host worker-thread count: [`DeviceConfig::host_threads`]
    /// when non-zero, otherwise the number of available host cores.
    #[must_use]
    pub fn resolved_host_threads(&self) -> usize {
        if self.host_threads > 0 {
            return self.host_threads;
        }
        host_cores()
    }

    /// Converts simulated cycles to device wall-clock time.
    #[must_use]
    pub fn cycles_to_time(&self, cycles: u64) -> Duration {
        Duration::from_secs_f64(cycles as f64 / self.clock_hz)
    }
}

/// The host's available parallelism, read once per process: each
/// `available_parallelism` call reads the cgroup files anew, tens of
/// microseconds a batch run would otherwise pay.
pub(crate) fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Simulation cycle budget per batch — far above any legitimate run; the
/// deadlock detector fires first on wiring bugs.
const CYCLE_BUDGET: u64 = 2_000_000_000;

/// The [`System`]s a plan's batch runs hand back, for the next batch run
/// to [`System::reset`] instead of building a new one: a run keeps the
/// queue rings, device memory and engine tables it filled, and rebuilds
/// its module graph. A System goes back only from an attempt that
/// returned, so the pool never holds more than were in use at the same
/// time, and a panicked attempt's System is dropped. A compiled plan's
/// `Lowering` owns one for its life; a hand-wired accelerator passes a
/// new one per call and so holds no System between calls.
#[derive(Debug, Default)]
pub(crate) struct SystemPool(Mutex<Vec<System>>);

// A push or a pop leaves the list whole, so a poisoned lock's list is
// used as it is.
impl SystemPool {
    /// A System on `mem`: a pooled one reset, or a new one.
    fn take(&self, mem: MemoryConfig) -> System {
        let pooled = self.0.lock().unwrap_or_else(PoisonError::into_inner).pop();
        match pooled {
            Some(mut sys) => {
                sys.reset(mem);
                sys
            }
            None => System::with_memory(mem),
        }
    }

    fn give(&self, sys: System) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(sys);
    }

    /// Systems waiting in the pool.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// Runs `jobs` across the device's replicated pipelines in batches (paper
/// Figure 8): each batch takes one `System` from `pool` with up to
/// `cfg.pipelines` pipeline instances sharing the memory system and
/// arbiter tree, simulates it to completion, and extracts per-job results.
///
/// Batches are independent simulations, so they are distributed over up
/// to [`DeviceConfig::resolved_host_threads`] host worker threads (the
/// modeled device still runs its batches back to back — host parallelism
/// shortens simulation wall-clock, not modeled device time). Results and
/// statistics are merged in batch order, so the outcome is bit-identical
/// regardless of thread count: per-job results stay in input order, stats
/// accumulate batch by batch, and on failure the error from the
/// lowest-numbered failing batch is returned.
///
/// `slot` keys the fault dice ([`crate::fault`]): a served shard passes its
/// dispatch sequence number, every other caller 0.
pub(crate) fn run_batches<J, H, R>(
    cfg: &DeviceConfig,
    pool: &SystemPool,
    slot: u64,
    jobs: &[J],
    build: impl Fn(&mut System, u32, &J) -> Result<H, CoreError> + Sync,
    extract: impl Fn(&System, H, &J) -> Result<R, CoreError> + Sync,
) -> Result<(Vec<R>, AccelStats), CoreError>
where
    J: Sync,
    R: Send,
{
    // No software oracle: exhausted batches fail the run instead of
    // degrading.
    run_batches_with_oracle(cfg, pool, slot, jobs, build, extract, None::<NoOracle<J, R>>)
}

/// Placeholder oracle type for [`run_batches`] (always passed as `None`).
type NoOracle<J, R> = fn(usize, &J) -> Result<R, CoreError>;

/// [`run_batches`] with a fault-tolerance escape hatch: when the device
/// config carries an active [`crate::fault::FaultConfig`], each batch is
/// attempted up to `1 + max_retries` times (injected DMA/device faults and
/// real simulation errors alike trigger a retry after capped exponential
/// backoff — modeled time in [`FaultReport::backoff_ns`], not a host sleep),
/// and a batch that exhausts its budget is re-executed job by
/// job on `oracle` — the exact software-reference computation — so the
/// merged output stays bit-identical to a fault-free run.
///
/// `oracle(job_index, job)` receives the *global* job index. Every fault
/// decision is a pure function of `(seed, slot, batch/job index, attempt)`,
/// so a schedule replays identically regardless of host thread count.
pub(crate) fn run_batches_with_oracle<J, H, R, O>(
    cfg: &DeviceConfig,
    pool: &SystemPool,
    slot: u64,
    jobs: &[J],
    build: impl Fn(&mut System, u32, &J) -> Result<H, CoreError> + Sync,
    extract: impl Fn(&System, H, &J) -> Result<R, CoreError> + Sync,
    oracle: Option<O>,
) -> Result<(Vec<R>, AccelStats), CoreError>
where
    J: Sync,
    R: Send,
    O: Fn(usize, &J) -> Result<R, CoreError> + Sync,
{
    let plane = &cfg.faults;
    let per_batch = cfg.pipelines.max(1);
    let chunks: Vec<&[J]> = jobs.chunks(per_batch).collect();
    // Slot 0 rolls as an unkeyed run; slots never share a die below 2^32.
    let die = |i: usize| (slot << 32) | i as u64;
    type ChunkOut<R> = (Vec<R>, AccelStats, Option<(TraceBuffer, StallReport)>);
    type Outcome<R> = Result<ChunkOut<R>, CoreError>;
    // One simulation attempt of one batch. A panicking module is contained
    // here and surfaced as a (retryable) device fault instead of poisoning
    // host state.
    let run_chunk = |chunk_idx: usize, chunk: &[J], attempt: u32| -> Result<ChunkOut<R>, CoreError> {
        let simulate = |sys: &mut System| -> Result<ChunkOut<R>, CoreError> {
            if cfg.trace.enabled {
                sys.set_trace(cfg.trace.clone());
            }
            let mut handles = Vec::with_capacity(chunk.len());
            for (i, job) in chunk.iter().enumerate() {
                handles.push(build(sys, i as u32, job)?);
            }
            // Tiering binds after the build so the page tables cover every
            // scratchpad the batch created; an over-capacity working set
            // fails admission here, before any cycle is simulated.
            if let Some(t) = cfg.tiers.as_ref() {
                sys.set_tiers(t.to_params(cfg.clock_hz))?;
            }
            sys.set_engine(cfg.engine);
            let run = sys.run(CYCLE_BUDGET)?;
            let totals = sys.stall_totals();
            let tier = sys.tier_stats().unwrap_or_default();
            let stats = AccelStats {
                cycles: run.cycles,
                device_mem_bytes: run.mem.read_bytes() + run.mem.write_bytes(),
                invocations: 1,
                backpressure_stalls: run.backpressure_stalls,
                total_flits: run.total_flits,
                module_ticks: run.module_ticks,
                active_cycles: totals.active,
                input_starved_cycles: totals.input_starved,
                backpressured_cycles: totals.backpressured,
                memory_wait_cycles: totals.memory_wait,
                spill_wait_cycles: totals.spill_wait,
                tier_pages_filled: tier.pages_filled,
                tier_pages_spilled: tier.pages_spilled,
                tier_prefetch_hits: tier.prefetch_hits,
                tier_pcie_bytes: tier.pcie_bytes,
                faults: FaultReport {
                    mem_spikes: run.mem.latency_spikes,
                    ..FaultReport::default()
                },
                ..AccelStats::default()
            };
            let mut results = Vec::with_capacity(chunk.len());
            for (handle, job) in handles.into_iter().zip(chunk) {
                results.push(extract(sys, handle, job)?);
            }
            // Only a traced run keeps the per-module report (and its labels).
            let obs = sys.take_trace().map(|buf| (buf, sys.stall_report()));
            Ok((results, stats, obs))
        };
        let sim = || -> Result<ChunkOut<R>, CoreError> {
            let mut mem = cfg.mem.clone();
            plane.overlay_mem(&mut mem, die(chunk_idx), attempt);
            let mut sys = pool.take(mem);
            let out = simulate(&mut sys);
            // Unreached when the attempt panicked: that System is dropped.
            pool.give(sys);
            out
        };
        catch_unwind(AssertUnwindSafe(sim)).unwrap_or_else(|payload| {
            Err(CoreError::Device(format!(
                "batch {chunk_idx} worker panicked: {}",
                panic_message(payload.as_ref())
            )))
        })
    };
    // Fault-tolerant wrapper: injection, retry with backoff, then graceful
    // degradation to the software oracle.
    let attempt_chunk = |chunk_idx: usize, chunk: &[J]| -> Result<ChunkOut<R>, CoreError> {
        if !plane.is_active() {
            return run_chunk(chunk_idx, chunk, 0);
        }
        let job_base = chunk_idx * per_batch;
        let mut report = FaultReport::default();
        let mut last_err = CoreError::Device(format!("batch {chunk_idx}: no attempt ran"));
        for attempt in 0..=plane.max_retries {
            if attempt > 0 {
                report.retries += 1;
                let pause = u64::try_from(plane.backoff(attempt).as_nanos()).unwrap_or(u64::MAX);
                report.backoff_ns = report.backoff_ns.saturating_add(pause);
            }
            if let Some(flavor) = plane.dma_fault(die(chunk_idx), attempt) {
                let (what, count) = match flavor {
                    DmaFault::Error => ("error", &mut report.dma_errors),
                    DmaFault::Timeout => ("timeout", &mut report.dma_timeouts),
                };
                *count += 1;
                last_err = CoreError::Dma(format!(
                    "injected transfer {what} (batch {chunk_idx}, attempt {attempt})"
                ));
                continue;
            }
            let faulted: Vec<usize> = (0..chunk.len())
                .filter(|&i| plane.device_fault(die(job_base + i), attempt))
                .collect();
            if !faulted.is_empty() {
                report.device_faults += faulted.len() as u64;
                last_err = CoreError::Device(format!(
                    "injected transient fault on partition job(s) {faulted:?} \
                     (batch {chunk_idx}, attempt {attempt})"
                ));
                continue;
            }
            match run_chunk(chunk_idx, chunk, attempt) {
                Ok((results, mut stats, obs)) => {
                    report.mem_spikes += stats.faults.mem_spikes;
                    stats.faults = report;
                    return Ok((results, stats, obs));
                }
                Err(e) => last_err = e,
            }
        }
        // Retry budget exhausted: degrade to the software oracle when
        // allowed, preserving bit-identical output.
        if plane.fallback {
            if let Some(oracle) = oracle.as_ref() {
                report.fallback_batches += 1;
                report.fallback_jobs += chunk.len() as u64;
                let mut results = Vec::with_capacity(chunk.len());
                for (i, job) in chunk.iter().enumerate() {
                    results.push(oracle(job_base + i, job)?);
                }
                let stats = AccelStats { faults: report, ..AccelStats::default() };
                return Ok((results, stats, None));
            }
        }
        Err(CoreError::Host(format!(
            "batch {chunk_idx} failed after {} attempt(s): {last_err}",
            u64::from(plane.max_retries) + 1
        )))
    };
    let threads = effective_workers(cfg.resolved_host_threads(), chunks.len());
    // The batch outcomes in batch order: produced lazily on this thread,
    // so a failed batch stops the run, or by the scoped workers.
    let outcomes: Box<dyn Iterator<Item = Outcome<R>> + '_> = if threads <= 1 {
        Box::new(chunks.iter().enumerate().map(|(idx, chunk)| attempt_chunk(idx, chunk)))
    } else {
        let next = AtomicUsize::new(0);
        let collected = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        // Work stealing over the shared batch index keeps
                        // threads busy when batch runtimes are skewed.
                        let mut mine = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            let Some(chunk) = chunks.get(idx) else { break };
                            mine.push((idx, attempt_chunk(idx, chunk)));
                        }
                        mine
                    })
                })
                .collect();
            let mut all = Vec::new();
            for w in workers {
                // A worker can only panic through `attempt_chunk` on paths
                // `catch_unwind` does not cover (e.g. allocation failure);
                // surface it as an error instead of cascading the panic.
                all.extend(
                    w.join()
                        .map_err(|_| CoreError::Device("batch worker thread panicked".into()))?,
                );
            }
            Ok::<_, CoreError>(all)
        })?;
        let mut slots: Vec<Option<Outcome<R>>> = (0..chunks.len()).map(|_| None).collect();
        for (idx, outcome) in collected {
            slots[idx] = Some(outcome);
        }
        Box::new(slots.into_iter().map(|o| o.expect("every batch ran exactly once")))
    };
    let mut results = Vec::with_capacity(jobs.len());
    let mut stats = AccelStats::default();
    let mut traces = Vec::new();
    for outcome in outcomes {
        let (r, s, obs) = outcome?;
        results.extend(r);
        stats.absorb(s);
        traces.extend(obs);
    }
    export_trace(cfg, &traces)?;
    Ok((results, stats))
}

/// Best-effort text of a panic payload (the `&str`/`String` cases cover
/// `panic!` and failed `assert!`s).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Writes the merged per-batch Chrome trace and its sibling flame table
/// when the device config names an export path. Batch `i` becomes process
/// `i` in the trace; stall reports merge by module label. Each file is
/// written whole ([`genesis_obs::write_whole`]): runs exporting to one
/// path from several device threads leave the last run's file, never a
/// mix of two.
fn export_trace(
    cfg: &DeviceConfig,
    traces: &[(TraceBuffer, StallReport)],
) -> Result<(), CoreError> {
    let Some(path) = cfg.trace.path.as_ref().filter(|_| !traces.is_empty()) else {
        return Ok(());
    };
    let mut chrome = ChromeTrace::new();
    let mut merged = StallReport::default();
    for (idx, (buf, report)) in traces.iter().enumerate() {
        buf.append_chrome(&mut chrome, idx as u32, &format!("batch {idx}"));
        merged.absorb(report);
    }
    chrome
        .write_to(path)
        .map_err(|e| CoreError::Host(format!("trace export to {}: {e}", path.display())))?;
    let mut stalls_path = path.as_os_str().to_owned();
    stalls_path.push(".stalls.txt");
    genesis_obs::write_whole(stalls_path.as_ref(), merged.flame_table(32))
        .map_err(|e| CoreError::Host(format!("stall report export: {e}")))?;
    Ok(())
}

/// Splits `n` items into at most `parts` contiguous, near-equal ranges.
pub(crate) fn split_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1).min(n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Effective worker-thread count for a batch run: the configured host
/// threads, capped by the number of batches (extra workers would have
/// nothing to steal) and by the machine's actual parallelism (workers
/// beyond physical cores only add contention — oversubscribing a small
/// host made N-thread runs *slower* than 1-thread), with a floor of 1.
/// A result of 1 must take the no-spawn sequential path.
fn effective_workers(host_threads: usize, batches: usize) -> usize {
    host_threads.min(batches).min(crate::device::host_cores()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_transfer_time() {
        let dma = DmaModel::pcie3();
        let t = dma.transfer_time(7_000_000_000, 0);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        let t2 = dma.transfer_time(0, 10);
        assert_eq!(t2, Duration::from_micros(300));
    }

    #[test]
    fn pcie4_is_faster() {
        let b = 1_000_000_000u64;
        assert!(DmaModel::pcie4().transfer_time(b, 1) < DmaModel::pcie3().transfer_time(b, 1));
    }

    #[test]
    fn cycles_to_time_at_250mhz() {
        let cfg = DeviceConfig::default();
        assert!((cfg.cycles_to_time(250_000_000).as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn builders() {
        let cfg = DeviceConfig::default().with_pipelines(0).with_psize(5);
        assert_eq!(cfg.pipelines, 1);
        assert_eq!(cfg.psize, 5);
        assert_eq!(cfg.tiers, None);
        let tiered = cfg.with_tiers(TierConfig::default());
        assert!(tiered.tiers.is_some());
    }

    #[test]
    fn default_tiers_land_on_simulator_defaults_at_250mhz() {
        // The physical-unit defaults were chosen so the cycle-domain
        // conversion at the paper's clock reproduces TierParams::default —
        // one source of truth for "what the tiers cost".
        let p = TierConfig::default().to_params(250.0e6);
        assert_eq!(p, genesis_hw::TierParams::default());
    }

    #[test]
    fn tier_conversion_scales_with_clock() {
        let t = TierConfig::default();
        let fast = t.to_params(500.0e6);
        // Same physics at twice the clock: twice the latency in cycles,
        // half the bytes per cycle.
        assert_eq!(fast.pcie_lat_cycles, 400);
        assert_eq!(fast.pcie_bytes_per_cycle, 16);
        assert!((t.link_bytes_per_cycle(250.0e6) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn effective_workers_caps_at_batch_count() {
        // One batch never justifies a worker pool, no matter how many
        // threads the device config asks for (the event/Nt regression:
        // spawning idle workers for a single batch cost more than it won).
        assert_eq!(effective_workers(8, 1), 1);
        assert_eq!(effective_workers(1, 8), 1);
        assert_eq!(effective_workers(0, 5), 1);
        assert_eq!(effective_workers(4, 0), 1);
    }

    #[test]
    fn effective_workers_caps_at_available_parallelism() {
        let cores =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert!(effective_workers(64, 64) <= cores);
        assert!(effective_workers(cores, 64) >= 1);
    }

    #[test]
    fn single_batch_runs_sequentially_with_many_threads() {
        // Regression: a 1-batch job set with an oversized thread config
        // must produce the same results as the sequential path (and not
        // spawn a pool at all — `effective_workers` returns 1).
        use genesis_hw::modules::sink::StreamSink;
        use genesis_hw::modules::source::StreamSource;
        let cfg = DeviceConfig { pipelines: 8, host_threads: 8, ..DeviceConfig::small() };
        let jobs: Vec<u64> = (0..4).collect();
        let (outs, stats) = run_batches(
            &cfg,
            &SystemPool::default(),
            0,
            &jobs,
            |sys, i, &job| {
                let q = sys.add_queue(format!("q{i}"));
                sys.add_module(Box::new(StreamSource::from_items(
                    format!("src{i}"),
                    q,
                    &[vec![job]],
                )));
                Ok(sys.add_module(Box::new(StreamSink::new(format!("sink{i}"), q))))
            },
            |sys, h, &job| {
                let vals = sys.sink_values(h);
                assert_eq!(vals.len(), 1);
                Ok(vals[0].val_or_zero() + job)
            },
        )
        .expect("single batch runs");
        assert_eq!(outs, vec![0, 2, 4, 6]);
        assert_eq!(stats.invocations, 1, "all jobs fit one batch");
    }

    /// One source → sink pipeline per job, whose sink holds the job; a
    /// job of `u64::MAX` panics in its build.
    fn echo(cfg: &DeviceConfig, pool: &SystemPool, jobs: &[u64]) -> Result<Vec<u64>, CoreError> {
        use genesis_hw::modules::sink::StreamSink;
        use genesis_hw::modules::source::StreamSource;
        let build = |sys: &mut System, i: u32, &job: &u64| {
            assert!(job != u64::MAX, "the build of job {job} panics");
            let q = sys.add_queue(format!("q{i}"));
            sys.add_module(Box::new(StreamSource::from_items(format!("src{i}"), q, &[vec![job]])));
            Ok(sys.add_module(Box::new(StreamSink::new(format!("sink{i}"), q))))
        };
        let extract = |sys: &System, h, _: &u64| Ok(sys.sink_values(h)[0].val_or_zero());
        run_batches(cfg, pool, 0, jobs, build, extract).map(|(outs, _)| outs)
    }

    /// A batch whose build panics fails the run and leaves its System
    /// out of the pool; the next run makes a new one.
    #[test]
    fn a_panicked_batch_leaves_its_system_out_of_the_pool() {
        let cfg = DeviceConfig { pipelines: 2, host_threads: 1, ..DeviceConfig::small() };
        let pool = SystemPool::default();
        assert_eq!(echo(&cfg, &pool, &[3, 4]).unwrap(), vec![3, 4]);
        assert_eq!(pool.len(), 1, "the batch's System went back");
        let err = echo(&cfg, &pool, &[5, u64::MAX]).unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        assert_eq!(pool.len(), 0, "the panicked attempt's System is dropped");
        assert_eq!(echo(&cfg, &pool, &[6, 7]).unwrap(), vec![6, 7]);
        assert_eq!(pool.len(), 1);
    }

    /// Batches that run one after another share one System; batches on
    /// several host threads leave at most one System per thread.
    #[test]
    fn the_pool_holds_no_more_systems_than_ran_at_once() {
        let jobs: Vec<u64> = (0..6).collect();
        for threads in [1, 2, 4] {
            let cfg = DeviceConfig { pipelines: 1, host_threads: threads, ..DeviceConfig::small() };
            let pool = SystemPool::default();
            for _ in 0..3 {
                assert_eq!(echo(&cfg, &pool, &jobs).unwrap(), jobs);
                let at_once = effective_workers(threads, jobs.len());
                assert!((1..=at_once).contains(&pool.len()), "{} at {threads} threads", pool.len());
            }
        }
    }

    #[test]
    fn split_ranges_covers_everything() {
        let ranges = split_ranges(10, 4);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..3);
        assert_eq!(ranges.last().unwrap().end, 10);
        let total: usize = ranges.iter().map(std::ops::Range::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn split_ranges_small_n() {
        assert_eq!(split_ranges(2, 16).len(), 2);
        assert!(split_ranges(0, 4).is_empty());
    }
}
