//! The paper's proof-of-concept accelerators (Figures 7 and 10–12), each
//! with host-side partition orchestration and result merging.

use crate::device::DeviceConfig;
use crate::error::CoreError;
use crate::fault::{DmaFault, FaultReport};
use crate::perf::AccelStats;
use genesis_hw::System;
use genesis_obs::{ChromeTrace, StallReport, TraceBuffer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod bqsr;
pub mod example;
pub mod frontend;
pub mod markdup;
pub mod metadata;

/// Simulation cycle budget per batch — far above any legitimate run; the
/// deadlock detector fires first on wiring bugs.
pub(crate) const CYCLE_BUDGET: u64 = 2_000_000_000;

/// Runs `jobs` across the device's replicated pipelines in batches (paper
/// Figure 8): each batch instantiates one `System` with up to
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
pub(crate) fn run_batches<J, H, R>(
    cfg: &DeviceConfig,
    jobs: &[J],
    build: impl Fn(&mut System, u32, &J) -> Result<H, CoreError> + Sync,
    extract: impl Fn(&System, &H, &J) -> Result<R, CoreError> + Sync,
) -> Result<(Vec<R>, AccelStats), CoreError>
where
    J: Sync,
    R: Send,
{
    // No software oracle: exhausted batches fail the run instead of
    // degrading.
    run_batches_with_oracle(cfg, jobs, build, extract, None::<NoOracle<J, R>>)
}

/// Placeholder oracle type for [`run_batches`] (always passed as `None`).
type NoOracle<J, R> = fn(usize, &J) -> Result<R, CoreError>;

/// [`run_batches`] with a fault-tolerance escape hatch: when the device
/// config carries an active [`crate::fault::FaultConfig`], each batch is
/// attempted up to `1 + max_retries` times (injected DMA/device faults and
/// real simulation errors alike trigger a retry after capped exponential
/// backoff), and a batch that exhausts its budget is re-executed job by
/// job on `oracle` — the exact software-reference computation — so the
/// merged output stays bit-identical to a fault-free run.
///
/// `oracle(job_index, job)` receives the *global* job index. All fault
/// decisions are pure functions of `(seed, batch/job index, attempt)`, so
/// a schedule replays identically regardless of host thread count.
pub(crate) fn run_batches_with_oracle<J, H, R, O>(
    cfg: &DeviceConfig,
    jobs: &[J],
    build: impl Fn(&mut System, u32, &J) -> Result<H, CoreError> + Sync,
    extract: impl Fn(&System, &H, &J) -> Result<R, CoreError> + Sync,
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
    type ChunkOut<R> = (Vec<R>, AccelStats, Option<(TraceBuffer, StallReport)>);
    // One simulation attempt of one batch. A panicking module is contained
    // here and surfaced as a (retryable) device fault instead of poisoning
    // host state.
    let run_chunk = |chunk_idx: usize, chunk: &[J], attempt: u32| -> Result<ChunkOut<R>, CoreError> {
        let sim = || -> Result<ChunkOut<R>, CoreError> {
            let mut mem = cfg.mem.clone();
            plane.overlay_mem(&mut mem, chunk_idx as u64, attempt);
            let mut sys = System::with_memory(mem);
            if cfg.trace.enabled {
                sys.set_trace(cfg.trace.clone());
            }
            let mut handles = Vec::with_capacity(chunk.len());
            for (i, job) in chunk.iter().enumerate() {
                handles.push(build(&mut sys, i as u32, job)?);
            }
            // Tiering binds after the build so the page tables cover every
            // scratchpad the batch created; an over-capacity working set
            // fails admission here, before any cycle is simulated.
            if let Some(t) = cfg.tiers.as_ref() {
                sys.set_tiers(t.to_params(cfg.clock_hz))?;
            }
            sys.set_engine(cfg.engine);
            let run = sys.run(CYCLE_BUDGET)?;
            let report = sys.stall_report();
            let totals = report.totals();
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
            for (handle, job) in handles.iter().zip(chunk) {
                results.push(extract(&sys, handle, job)?);
            }
            let obs = sys.take_trace().map(|buf| (buf, report));
            Ok((results, stats, obs))
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
                let pause = plane.backoff(attempt);
                report.backoff_ns +=
                    u64::try_from(pause.as_nanos()).unwrap_or(u64::MAX);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            if let Some(flavor) = plane.dma_fault(chunk_idx as u64, attempt) {
                last_err = match flavor {
                    DmaFault::Error => {
                        report.dma_errors += 1;
                        CoreError::Dma(format!(
                            "injected transfer error (batch {chunk_idx}, attempt {attempt})"
                        ))
                    }
                    DmaFault::Timeout => {
                        report.dma_timeouts += 1;
                        CoreError::Dma(format!(
                            "injected transfer timeout (batch {chunk_idx}, attempt {attempt})"
                        ))
                    }
                };
                continue;
            }
            let faulted: Vec<usize> = (0..chunk.len())
                .filter(|&i| plane.device_fault((job_base + i) as u64, attempt))
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
    let mut results = Vec::with_capacity(jobs.len());
    let mut stats = AccelStats::default();
    let mut traces = Vec::new();
    if threads <= 1 {
        for (idx, chunk) in chunks.iter().enumerate() {
            let (r, s, obs) = attempt_chunk(idx, chunk)?;
            results.extend(r);
            stats.absorb(s);
            if let Some(t) = obs {
                traces.push(t);
            }
        }
        export_trace(cfg, &traces)?;
        return Ok((results, stats));
    }
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
    type BatchOutcome<R> = Result<(Vec<R>, AccelStats, Option<(TraceBuffer, StallReport)>), CoreError>;
    let mut slots: Vec<Option<BatchOutcome<R>>> = (0..chunks.len()).map(|_| None).collect();
    for (idx, outcome) in collected {
        slots[idx] = Some(outcome);
    }
    for outcome in &mut slots {
        let (r, s, obs) = outcome.take().expect("every batch ran exactly once")?;
        results.extend(r);
        stats.absorb(s);
        if let Some(t) = obs {
            traces.push(t);
        }
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
/// `i` in the trace; stall reports merge by module label.
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
    std::fs::write(&stalls_path, merged.flame_table(32))
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
pub(crate) fn effective_workers(host_threads: usize, batches: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    host_threads.min(batches).min(cores).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        use crate::device::DeviceConfig;
        use genesis_hw::modules::sink::StreamSink;
        use genesis_hw::modules::source::StreamSource;
        let cfg = DeviceConfig { pipelines: 8, host_threads: 8, ..DeviceConfig::small() };
        let jobs: Vec<u64> = (0..4).collect();
        let (outs, stats) = run_batches(
            &cfg,
            &jobs,
            |sys, i, &job| {
                let q = sys.add_queue(&format!("q{i}"));
                sys.add_module(Box::new(StreamSource::from_items(
                    &format!("src{i}"),
                    q,
                    &[vec![job]],
                )));
                Ok(sys.add_module(Box::new(StreamSink::new(&format!("sink{i}"), q))))
            },
            |sys, &h, &job| {
                let vals = sys.sink_values(h);
                assert_eq!(vals.len(), 1);
                Ok(vals[0].val_or_zero() + job)
            },
        )
        .expect("single batch runs");
        assert_eq!(outs, vec![0, 2, 4, 6]);
        assert_eq!(stats.invocations, 1, "all jobs fit one batch");
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
