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
