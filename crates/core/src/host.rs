//! The paper's host application-programmer interface (§III-E):
//! `configure_mem`, non-blocking `run_genesis`, `check_genesis`,
//! `wait_genesis`, and `genesis_flush`.
//!
//! "The existence of these non-blocking calls is to allow the host CPU to
//! perform useful work while the accelerator is running" — here the
//! accelerator simulation genuinely runs on a worker thread, so the host
//! can overlap work with `check_genesis` polling exactly as on the real
//! system.
//!
//! Waiters block on a condition variable the worker signals at completion
//! (no polling loop), and every lock acquisition recovers from poisoning:
//! a panicking job is contained by the worker, surfaced as
//! [`CoreError::Host`], and never cascades into later `check`/`wait`/
//! `flush` calls. [`GenesisHost::wait_genesis_for`] adds a watchdog
//! deadline on top of the paper's blocking wait.

use crate::accel::panic_message;
use crate::error::CoreError;
use crate::fault::FaultReport;
use crate::perf::AccelStats;
use genesis_obs::{MetricsRegistry, MetricsSnapshot};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Inputs staged by `configure_mem` for one pipeline, keyed by column name.
#[derive(Debug, Default, Clone)]
pub struct ConfiguredInputs {
    columns: HashMap<String, ColumnBuf>,
}

/// One staged column: bytes plus the element size declared by the caller.
#[derive(Debug, Clone)]
pub struct ColumnBuf {
    /// Raw little-endian bytes.
    pub bytes: Vec<u8>,
    /// Element size declared in `configure_mem`.
    pub elem_size: usize,
}

impl ConfiguredInputs {
    /// Looks up a staged column.
    #[must_use]
    pub fn column(&self, name: &str) -> Option<&ColumnBuf> {
        self.columns.get(name)
    }

    /// Total staged bytes (host→device DMA volume).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.columns.values().map(|c| c.bytes.len() as u64).sum()
    }

    /// Number of staged columns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when nothing is staged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

/// Output of one accelerator invocation.
#[derive(Debug, Default, Clone)]
pub struct JobOutput {
    /// Output buffers keyed by column name.
    pub outputs: HashMap<String, Vec<u8>>,
    /// Run statistics.
    pub stats: AccelStats,
}

/// The job body: consumes the staged inputs, returns outputs. Supplied by
/// the accelerator implementation (it typically builds a
/// [`genesis_hw::System`] and simulates it).
pub type JobFn = Box<dyn FnOnce(ConfiguredInputs) -> Result<JobOutput, CoreError> + Send>;

enum Slot {
    Configuring(ConfiguredInputs),
    /// The job is in flight on a detached worker thread. `epoch`
    /// distinguishes this run from any later one: a worker installs its
    /// result only while the slot still holds *its* epoch, so a
    /// `configure_mem` that replaces a running slot orphans the stale
    /// worker instead of being clobbered by it.
    Running { epoch: u64 },
    Finished(Box<Result<JobOutput, CoreError>>),
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Slot::Configuring(i) => write!(f, "Configuring({} cols)", i.len()),
            Slot::Running { epoch } => write!(f, "Running(epoch={epoch})"),
            Slot::Finished(r) => write!(f, "Finished(ok={})", r.is_ok()),
        }
    }
}

/// Coarse lifecycle state of one pipeline slot, as reported by
/// [`GenesisHost::status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineStatus {
    /// `configure_mem` has staged inputs; `run_genesis` not yet called.
    Configuring,
    /// The job is in flight.
    Running,
    /// The job completed; results (or its error) await `genesis_flush`.
    Finished,
}

/// Slot table plus the completion signal workers raise.
#[derive(Debug, Default)]
struct Shared {
    slots: Mutex<HashMap<u32, Slot>>,
    completed: Condvar,
}

/// The host-side controller of the Genesis accelerators.
#[derive(Debug, Default)]
pub struct GenesisHost {
    shared: Arc<Shared>,
    metrics: Arc<MetricsRegistry>,
    next_epoch: AtomicU64,
}

impl GenesisHost {
    /// Creates a host controller.
    #[must_use]
    pub fn new() -> GenesisHost {
        GenesisHost::default()
    }

    /// Locks the slot table, recovering from poisoning: the table is kept
    /// consistent under every lock hold (no partial multi-step updates), so
    /// a thread that panicked while holding the lock — which can only be a
    /// caller's panic propagating through — leaves usable state behind.
    fn lock(&self) -> MutexGuard<'_, HashMap<u32, Slot>> {
        self.shared.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The paper's `configure_mem(addr, elemsize, len, colname, pipelineID)`:
    /// stages a column for the next invocation of `pipeline_id`. The
    /// host-address/length pair is represented by the byte buffer itself.
    ///
    /// This is a blocking call (the DMA copy happens here on the real
    /// system).
    pub fn configure_mem(&self, pipeline_id: u32, colname: &str, bytes: Vec<u8>, elem_size: usize) {
        let start = Instant::now();
        let mut slots = self.lock();
        let slot = slots
            .entry(pipeline_id)
            .or_insert_with(|| Slot::Configuring(ConfiguredInputs::default()));
        if !matches!(slot, Slot::Configuring(_)) {
            *slot = Slot::Configuring(ConfiguredInputs::default());
        }
        if let Slot::Configuring(inputs) = slot {
            inputs.columns.insert(colname.to_owned(), ColumnBuf { bytes, elem_size });
        }
        drop(slots);
        self.span(pipeline_id, "configure_mem", start);
    }

    /// The paper's non-blocking `run_genesis(pipelineID)`: launches `job`
    /// with the staged inputs on a worker thread and returns immediately.
    ///
    /// A panicking job is contained on the worker and recorded as a
    /// [`CoreError::Host`] result — it poisons nothing and later calls on
    /// this or other pipelines are unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Host`] when the pipeline is already running.
    pub fn run_genesis(&self, pipeline_id: u32, job: JobFn) -> Result<(), CoreError> {
        let mut slots = self.lock();
        let inputs = match slots.remove(&pipeline_id) {
            Some(Slot::Configuring(inputs)) => inputs,
            Some(busy @ Slot::Running { .. }) => {
                slots.insert(pipeline_id, busy);
                return Err(CoreError::Host(format!("pipeline {pipeline_id} already running")));
            }
            Some(Slot::Finished(_)) | None => ConfiguredInputs::default(),
        };
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        slots.insert(pipeline_id, Slot::Running { epoch });
        drop(slots);
        let shared = Arc::clone(&self.shared);
        let metrics = Arc::clone(&self.metrics);
        std::thread::spawn(move || {
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| job(inputs))).unwrap_or_else(|p| {
                Err(CoreError::Host(format!(
                    "accelerator job panicked: {}",
                    panic_message(p.as_ref())
                )))
            });
            metrics.observe_duration(&format!("pipeline.{pipeline_id}.run_ns"), start.elapsed());
            match &result {
                Ok(out) => {
                    record_fault_metrics(&metrics, out.stats.faults, "");
                    record_tier_metrics(&metrics, &out.stats, "");
                    record_scan_metrics(&metrics, &out.stats, "");
                }
                Err(_) => metrics.counter("faults.job_errors").inc(),
            }
            let mut slots = shared.slots.lock().unwrap_or_else(PoisonError::into_inner);
            if matches!(slots.get(&pipeline_id), Some(Slot::Running { epoch: e }) if *e == epoch)
            {
                slots.insert(pipeline_id, Slot::Finished(Box::new(result)));
                drop(slots);
                // Wake every waiter; each rechecks its own pipeline.
                shared.completed.notify_all();
            }
            // Otherwise a reconfigure superseded this run; the result is
            // stale and dropped.
        });
        Ok(())
    }

    /// The paper's `check_genesis(pipelineID)`: true once the accelerator
    /// execution completed. Never blocks.
    #[must_use]
    pub fn check_genesis(&self, pipeline_id: u32) -> bool {
        matches!(self.lock().get(&pipeline_id), Some(Slot::Finished(_)))
    }

    /// Coarse state of a pipeline slot: `None` when the id is unknown (or
    /// already flushed), otherwise whether it is configuring, running, or
    /// finished. Never blocks.
    #[must_use]
    pub fn status(&self, pipeline_id: u32) -> Option<PipelineStatus> {
        let slots = self.lock();
        slots.get(&pipeline_id).map(|slot| match slot {
            Slot::Configuring(_) => PipelineStatus::Configuring,
            Slot::Running { .. } => PipelineStatus::Running,
            Slot::Finished(_) => PipelineStatus::Finished,
        })
    }

    /// Blocks on the completion condvar until the pipeline's `Finished`
    /// slot is installed or `deadline` passes. Returns `Ok(true)` when
    /// finished, `Ok(false)` on deadline. Safe to race from any number of
    /// threads: every waiter sleeps on the same condvar and rechecks its
    /// own slot on wake-up.
    fn wait_until(&self, pipeline_id: u32, deadline: Option<Instant>) -> Result<bool, CoreError> {
        let mut wakeups = 0u64;
        let mut slots = self.lock();
        let outcome = loop {
            match slots.get(&pipeline_id) {
                None | Some(Slot::Configuring(_)) => {
                    drop(slots);
                    return Err(CoreError::Host(format!(
                        "pipeline {pipeline_id} was not started"
                    )));
                }
                Some(Slot::Finished(_)) => break true,
                Some(Slot::Running { .. }) => {}
            }
            wakeups += 1;
            match deadline {
                None => {
                    slots = self
                        .shared
                        .completed
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break false;
                    }
                    let (guard, _) = self
                        .shared
                        .completed
                        .wait_timeout(slots, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    slots = guard;
                }
            }
        };
        drop(slots);
        // Condvar wake-ups per wait: the no-busy-poll regression metric. A
        // long job costs a handful of wake-ups, not tens of thousands of
        // 50 µs polls.
        self.metrics.histogram(&format!("pipeline.{pipeline_id}.wait_wakeups")).observe(wakeups);
        Ok(outcome)
    }

    /// The paper's blocking `wait_genesis(pipelineID)`.
    ///
    /// On job failure the error is returned here *and* stays retrievable:
    /// the slot remains `Finished` so `genesis_flush` reports the same
    /// error (and consumes the slot). Concurrent waiters on the same
    /// pipeline all block and all observe the same outcome.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Host`] when the pipeline was never started, or
    /// the job's own error.
    pub fn wait_genesis(&self, pipeline_id: u32) -> Result<(), CoreError> {
        let start = Instant::now();
        let waited = self.wait_until(pipeline_id, None);
        self.span(pipeline_id, "wait", start);
        waited?;
        self.finished_error(pipeline_id)
    }

    /// [`GenesisHost::wait_genesis`] with a watchdog: blocks at most
    /// `timeout`. Returns `Ok(true)` when the job finished (successfully),
    /// `Ok(false)` when the watchdog fired first — the job keeps running
    /// and can still be waited on or flushed later; the timeout is counted
    /// in the `faults.watchdog_timeouts` and
    /// `pipeline.<id>.watchdog_timeouts` metrics.
    ///
    /// Pair with [`crate::fault::FaultConfig::watchdog`] (the
    /// `GENESIS_FAULTS=watchdog=…` knob) for a policy-driven deadline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Host`] when the pipeline was never started, or
    /// the job's own error when it finished with one.
    pub fn wait_genesis_for(
        &self,
        pipeline_id: u32,
        timeout: Duration,
    ) -> Result<bool, CoreError> {
        let start = Instant::now();
        // A timeout past the end of the clock (`Duration::MAX`) is no
        // watchdog at all.
        let waited = self.wait_until(pipeline_id, start.checked_add(timeout));
        self.span(pipeline_id, "wait", start);
        if !waited? {
            self.metrics.counter("faults.watchdog_timeouts").inc();
            self.metrics.counter(&format!("pipeline.{pipeline_id}.watchdog_timeouts")).inc();
            return Ok(false);
        }
        self.finished_error(pipeline_id)?;
        Ok(true)
    }

    /// The stored job error of a finished pipeline, if any.
    fn finished_error(&self, pipeline_id: u32) -> Result<(), CoreError> {
        match self.lock().get(&pipeline_id) {
            Some(Slot::Finished(r)) => match r.as_ref() {
                Err(e) => Err(e.clone()),
                Ok(_) => Ok(()),
            },
            _ => Ok(()),
        }
    }

    /// The paper's `genesis_flush(pipelineID)`: returns the output buffers
    /// (the device→host copy), consuming the slot. Blocks until completion
    /// if still running.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Host`] when the pipeline was never run, or the
    /// job's own error.
    pub fn genesis_flush(&self, pipeline_id: u32) -> Result<JobOutput, CoreError> {
        let start = Instant::now();
        let result = self.flush_inner(pipeline_id);
        self.span(pipeline_id, "flush", start);
        result
    }

    fn flush_inner(&self, pipeline_id: u32) -> Result<JobOutput, CoreError> {
        self.wait_until(pipeline_id, None)?;
        let mut slots = self.lock();
        match slots.remove(&pipeline_id) {
            Some(Slot::Finished(result)) => *result,
            Some(other) => {
                // Lost a race with another flush between wait and remove;
                // put whatever state appeared back.
                slots.insert(pipeline_id, other);
                Err(CoreError::Host(format!("pipeline {pipeline_id} has no results")))
            }
            None => Err(CoreError::Host(format!("pipeline {pipeline_id} has no results"))),
        }
    }

    /// The host-side metrics registry: per-pipeline wall-clock histograms
    /// (`pipeline.<id>.configure_mem_ns` / `run_ns` / `wait_ns` /
    /// `flush_ns`), the `pipeline.<id>.wait_wakeups` condvar histogram, and
    /// the `faults.*` recovery counters. Handles obtained from it are
    /// lock-free to update.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A point-in-time snapshot of every host metric.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    fn span(&self, pipeline_id: u32, op: &str, start: Instant) {
        self.metrics
            .observe_duration(&format!("pipeline.{pipeline_id}.{op}_ns"), start.elapsed());
    }
}

/// Publishes a job's [`FaultReport`] into the registry under
/// `<prefix>faults.*` counter names, so `metrics_snapshot()` exposes
/// retry / fallback / injection totals across all pipelines. The host
/// worker records with an empty prefix; the serving layer's device pool
/// records under `server.`.
pub(crate) fn record_fault_metrics(metrics: &MetricsRegistry, report: FaultReport, prefix: &str) {
    if report.is_empty() {
        return;
    }
    for (name, value) in [
        ("faults.dma_errors", report.dma_errors),
        ("faults.dma_timeouts", report.dma_timeouts),
        ("faults.device_faults", report.device_faults),
        ("faults.mem_spikes", report.mem_spikes),
        ("faults.retries", report.retries),
        ("faults.backoff_ns", report.backoff_ns),
        ("faults.fallback_batches", report.fallback_batches),
        ("faults.fallback_jobs", report.fallback_jobs),
    ] {
        if value > 0 {
            metrics.counter(&format!("{prefix}{name}")).add(value);
        }
    }
}

/// Publishes a job's tiered-memory activity into the registry under
/// `<prefix>tier.*` counter names — the spill observability surface of
/// `metrics_snapshot()`. All-zero stats (tiering off, or every scratchpad
/// pinned on chip) publish nothing, keeping snapshots of untired runs
/// unchanged.
pub(crate) fn record_tier_metrics(
    metrics: &MetricsRegistry,
    stats: &crate::perf::AccelStats,
    prefix: &str,
) {
    for (name, value) in [
        ("tier.pages_filled", stats.tier_pages_filled),
        ("tier.pages_spilled", stats.tier_pages_spilled),
        ("tier.prefetch_hits", stats.tier_prefetch_hits),
        ("tier.pcie_bytes", stats.tier_pcie_bytes),
        ("tier.spill_wait_cycles", stats.spill_wait_cycles),
    ] {
        if value > 0 {
            metrics.counter(&format!("{prefix}{name}")).add(value);
        }
    }
}

/// Publishes a job's scan accounting under `<prefix>scan.*` counter
/// names: rows the prepared scans inspected vs rows that survived pushed
/// predicates and reached the MemoryReaders. Publishes nothing when no
/// scan ran (both zero), keeping older snapshots unchanged; with pushdown
/// off or no pushable predicate the two counters are equal.
pub(crate) fn record_scan_metrics(
    metrics: &MetricsRegistry,
    stats: &crate::perf::AccelStats,
    prefix: &str,
) {
    for (name, value) in
        [("scan.rows_scanned", stats.rows_scanned), ("scan.rows_emitted", stats.rows_emitted)]
    {
        if value > 0 {
            metrics.counter(&format!("{prefix}{name}")).add(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn slow_job(ms: u64) -> JobFn {
        Box::new(move |inputs| {
            std::thread::sleep(Duration::from_millis(ms));
            let mut out = JobOutput::default();
            out.outputs.insert("echo".into(), vec![inputs.len() as u8]);
            Ok(out)
        })
    }

    #[test]
    fn non_blocking_run_overlaps_host_work() {
        let host = GenesisHost::new();
        host.configure_mem(0, "READS.QUAL", vec![1, 2, 3], 1);
        host.run_genesis(0, slow_job(50)).unwrap();
        // The call returned immediately; the job is still in flight.
        assert!(!host.check_genesis(0));
        // ... host does useful work here ...
        host.wait_genesis(0).unwrap();
        assert!(host.check_genesis(0));
        let out = host.genesis_flush(0).unwrap();
        assert_eq!(out.outputs["echo"], vec![1]);
    }

    #[test]
    fn double_run_rejected() {
        let host = GenesisHost::new();
        host.run_genesis(1, slow_job(100)).unwrap();
        assert!(matches!(host.run_genesis(1, slow_job(1)), Err(CoreError::Host(_))));
        host.wait_genesis(1).unwrap();
    }

    #[test]
    fn independent_pipelines() {
        let host = GenesisHost::new();
        host.configure_mem(0, "a", vec![0], 1);
        host.configure_mem(1, "a", vec![0], 1);
        host.configure_mem(1, "b", vec![0], 1);
        host.run_genesis(0, slow_job(5)).unwrap();
        host.run_genesis(1, slow_job(5)).unwrap();
        let o0 = host.genesis_flush(0).unwrap();
        let o1 = host.genesis_flush(1).unwrap();
        assert_eq!(o0.outputs["echo"], vec![1]);
        assert_eq!(o1.outputs["echo"], vec![2]);
    }

    #[test]
    fn unstarted_pipeline_errors() {
        let host = GenesisHost::new();
        assert!(host.wait_genesis(9).is_err());
        assert!(!host.check_genesis(9));
    }

    #[test]
    fn job_error_surfaces_at_wait_and_flush() {
        let host = GenesisHost::new();
        host.run_genesis(2, Box::new(|_| Err(CoreError::Host("boom".into()))))
            .unwrap();
        // wait_genesis reports the job's own error...
        let err = host.wait_genesis(2).unwrap_err();
        assert!(err.to_string().contains("boom"));
        // ...and the slot stays retrievable: flush reports it again, then
        // consumes the slot.
        assert_eq!(host.status(2), Some(PipelineStatus::Finished));
        let err = host.genesis_flush(2).unwrap_err();
        assert!(err.to_string().contains("boom"));
        assert_eq!(host.status(2), None);
    }

    #[test]
    fn panicking_job_is_contained_and_reported() {
        let host = GenesisHost::new();
        host.run_genesis(7, Box::new(|_| panic!("injected panic"))).unwrap();
        let err = host.wait_genesis(7).unwrap_err();
        assert!(err.to_string().contains("injected panic"), "got: {err}");
        // The host is not poisoned: other pipelines keep working, and the
        // failed slot flushes its error then clears.
        host.run_genesis(8, slow_job(1)).unwrap();
        host.wait_genesis(8).unwrap();
        assert!(host.genesis_flush(7).is_err());
        assert_eq!(host.status(7), None);
        assert!(host.genesis_flush(8).is_ok());
        assert_eq!(host.metrics_snapshot().counters["faults.job_errors"], 1);
    }

    #[test]
    fn status_tracks_lifecycle() {
        let host = GenesisHost::new();
        assert_eq!(host.status(0), None);
        host.configure_mem(0, "a", vec![1], 1);
        assert_eq!(host.status(0), Some(PipelineStatus::Configuring));
        assert!(!host.check_genesis(0)); // indistinguishable without status()
        host.run_genesis(0, slow_job(30)).unwrap();
        assert_eq!(host.status(0), Some(PipelineStatus::Running));
        host.wait_genesis(0).unwrap();
        assert_eq!(host.status(0), Some(PipelineStatus::Finished));
        host.genesis_flush(0).unwrap();
        assert_eq!(host.status(0), None);
    }

    #[test]
    fn flush_while_running_blocks_until_done() {
        let host = GenesisHost::new();
        host.configure_mem(0, "col", vec![9], 1);
        host.run_genesis(0, slow_job(40)).unwrap();
        assert!(!host.check_genesis(0));
        // Flush without waiting first: must block for the in-flight job
        // and return its complete output.
        let out = host.genesis_flush(0).unwrap();
        assert_eq!(out.outputs["echo"], vec![1]);
        assert_eq!(host.status(0), None);
    }

    #[test]
    fn racing_waiters_both_succeed() {
        let host = Arc::new(GenesisHost::new());
        host.run_genesis(3, slow_job(40)).unwrap();
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let host = Arc::clone(&host);
                std::thread::spawn(move || host.wait_genesis(3))
            })
            .collect();
        for w in waiters {
            w.join().unwrap().unwrap();
        }
        assert_eq!(host.status(3), Some(PipelineStatus::Finished));
        let out = host.genesis_flush(3).unwrap();
        assert_eq!(out.outputs["echo"], vec![0]);
    }

    #[test]
    fn configure_after_finished_restarts_clean() {
        let host = GenesisHost::new();
        host.configure_mem(0, "a", vec![1], 1);
        host.configure_mem(0, "b", vec![2], 1);
        host.run_genesis(0, slow_job(1)).unwrap();
        host.wait_genesis(0).unwrap();
        // Reconfiguring a finished pipeline discards the stale result and
        // starts a fresh input set (1 column, not 2, and no old output).
        host.configure_mem(0, "c", vec![3], 1);
        assert_eq!(host.status(0), Some(PipelineStatus::Configuring));
        host.run_genesis(0, slow_job(1)).unwrap();
        let out = host.genesis_flush(0).unwrap();
        assert_eq!(out.outputs["echo"], vec![1]);
    }

    #[test]
    fn reconfigure_while_running_orphans_stale_worker() {
        let host = GenesisHost::new();
        host.run_genesis(4, slow_job(30)).unwrap();
        // Replace the running slot mid-flight; the old worker's late
        // result must not clobber the new configuration.
        host.configure_mem(4, "fresh", vec![1], 1);
        assert_eq!(host.status(4), Some(PipelineStatus::Configuring));
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(host.status(4), Some(PipelineStatus::Configuring));
        host.run_genesis(4, slow_job(1)).unwrap();
        let out = host.genesis_flush(4).unwrap();
        assert_eq!(out.outputs["echo"], vec![1]);
    }

    #[test]
    fn metrics_record_host_spans() {
        let host = GenesisHost::new();
        host.configure_mem(5, "a", vec![0], 1);
        host.run_genesis(5, slow_job(1)).unwrap();
        host.wait_genesis(5).unwrap();
        host.genesis_flush(5).unwrap();
        let snap = host.metrics_snapshot();
        for op in ["configure_mem", "run", "wait", "flush"] {
            let h = &snap.histograms[&format!("pipeline.5.{op}_ns")];
            assert!(h.count >= 1, "missing span for {op}");
        }
        assert!(snap.to_string().contains("pipeline.5.run_ns"));
    }

    #[test]
    fn waiting_does_not_busy_poll() {
        let host = GenesisHost::new();
        host.run_genesis(6, slow_job(300)).unwrap();
        host.wait_genesis(6).unwrap();
        let snap = host.metrics_snapshot();
        let wakeups = &snap.histograms["pipeline.6.wait_wakeups"];
        assert_eq!(wakeups.count, 1);
        // The old 50 µs polling loop would spin ~6000 iterations across a
        // 300 ms job; a condvar waiter wakes a handful of times at most.
        assert!(wakeups.max <= 16, "wait woke {} times — busy polling?", wakeups.max);
        host.genesis_flush(6).unwrap();
    }

    #[test]
    fn watchdog_times_out_then_job_still_completes() {
        let host = GenesisHost::new();
        host.run_genesis(9, slow_job(120)).unwrap();
        // Watchdog fires well before the job is done...
        assert_eq!(host.wait_genesis_for(9, Duration::from_millis(5)), Ok(false));
        assert_eq!(host.status(9), Some(PipelineStatus::Running));
        // ...but the job keeps running and a longer wait succeeds.
        assert_eq!(host.wait_genesis_for(9, Duration::from_secs(30)), Ok(true));
        let snap = host.metrics_snapshot();
        assert_eq!(snap.counters["faults.watchdog_timeouts"], 1);
        assert_eq!(snap.counters["pipeline.9.watchdog_timeouts"], 1);
        host.genesis_flush(9).unwrap();
    }

    /// Regression: `start + Duration::MAX` overflowed `Instant` and
    /// panicked before the slot was even looked at.
    #[test]
    fn unrepresentable_watchdog_is_no_watchdog() {
        let host = GenesisHost::new();
        host.run_genesis(10, slow_job(1)).unwrap();
        host.wait_genesis(10).unwrap();
        assert_eq!(host.wait_genesis_for(10, Duration::MAX), Ok(true));
        host.genesis_flush(10).unwrap();
    }

    #[test]
    fn watchdog_on_unstarted_pipeline_errors() {
        let host = GenesisHost::new();
        assert!(host.wait_genesis_for(42, Duration::from_millis(1)).is_err());
    }
}
