//! # genesis-obs
//!
//! The observability subsystem of the Genesis reproduction: everything
//! needed to see *where time goes*, both inside the cycle-level hardware
//! simulation and on the host.
//!
//! The paper's evaluation lives on attribution — Figure 13(b) splits every
//! stage into host software / host↔FPGA communication / accelerator
//! execution, and §V diagnoses bottlenecks from module utilization and
//! memory traffic. This crate supplies the shared, dependency-free data
//! model for that attribution:
//!
//! * [`span`] — per-module span events (active vs. a classified stall) and
//!   the preallocated ring buffers they live in.
//! * [`stall`] — stall attribution: per-module cycle counters splitting
//!   time into active / input-starved / output-backpressured / memory-wait,
//!   rolled up into a [`StallReport`] with a top-N "flame table" renderer.
//! * [`trace`] — [`TraceConfig`] (opt-in knobs) and
//!   [`TraceBuffer`], the per-`System` recording target: module span tracks
//!   plus queue-depth counter tracks.
//! * [`chrome`] — Chrome trace-event JSON export (`chrome://tracing` /
//!   Perfetto loadable).
//! * [`metrics`] — a host-side metrics registry: atomics-based counters and
//!   log₂-bucketed histograms with a coherent [`MetricsRegistry::snapshot`].
//! * [`json`] — a minimal JSON value parser used to validate exported
//!   traces in tests (the workspace has no serde).
//! * [`write_whole`] — how every export reaches its file: whole, even
//!   when several threads export to one path at once.
//!
//! The crate deliberately depends on nothing (not even the workspace
//! shims), so both `genesis-hw` (device side) and `genesis-core` (host
//! side) can use it without layering cycles.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod span;
pub mod stall;
pub mod trace;

pub use chrome::ChromeTrace;
pub use metrics::{Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use span::{Ring, Sample, Span, SpanKind};
pub use stall::{ModuleStall, StallClass, StallCounters, StallReport};
pub use trace::{TraceBuffer, TraceConfig};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes `contents` to `path` whole: into a sibling temporary file that
/// no other call shares, then renamed over `path`. Writers racing for one
/// path never interleave their bytes; the last rename wins, whole.
///
/// # Errors
///
/// Propagates the underlying I/O error (the temporary file is removed).
pub fn write_whole(path: &Path, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.{}.tmp", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed)));
    let tmp = PathBuf::from(tmp);
    let written = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::write_whole;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Threads racing to export one path never let a reader see a mix of
    /// two writers' bytes or a truncated file, and leave one writer's bytes
    /// whole and no temporary file behind.
    #[test]
    fn racing_writers_leave_one_whole_file() {
        let dir = std::env::temp_dir().join(format!("genesis_obs_whole_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let contents: Vec<Vec<u8>> =
            (0..3u8).map(|t| vec![b'a' + t; (usize::from(t) + 1) * 16 * 1024]).collect();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let writers: Vec<_> = contents
                .iter()
                .map(|body| {
                    let path = &path;
                    s.spawn(move || {
                        for _ in 0..64 {
                            write_whole(path, body).unwrap();
                        }
                    })
                })
                .collect();
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    if let Ok(read) = std::fs::read(&path) {
                        assert!(contents.contains(&read), "a torn file of {} bytes", read.len());
                    }
                }
            });
            let joined: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
            done.store(true, Ordering::Relaxed);
            assert!(joined.iter().all(Result::is_ok), "a writer failed");
        });
        assert!(contents.contains(&std::fs::read(&path).unwrap()));
        let left: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, [std::ffi::OsString::from("trace.json")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
