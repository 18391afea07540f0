//! # genesis-core
//!
//! The Genesis framework itself (paper §III): everything that sits between
//! the extended-SQL front end and the simulated FPGA fabric.
//!
//! * [`library`] — the hardware library catalog: which relational operator
//!   maps to which hardware module (paper Figure 6 and §III-D).
//! * [`compile`] — the logical-plan → hardware-pipeline translator. The
//!   paper performs this step manually and "envisions it to be automated";
//!   this module implements the automated translation for the supported
//!   operator idioms: a plan either lowers to a runnable pipeline or is a
//!   structured `Unsupported` error.
//! * [`builder`] — the manual pipeline-stitching API (the Chisel-library
//!   analog used to construct the paper's three proof-of-concept
//!   accelerators).
//! * [`device`] — the modeled F1 device: clock, pipeline replication, DMA
//!   link, and job batching across parallel pipelines (paper Figure 8).
//! * [`accel`] — the three paper accelerators (Mark Duplicates, Metadata
//!   Update, BQSR covariate construction; Figures 10–12) plus the Figure 7
//!   example pipeline, each with host-side orchestration and result merge.
//! * [`fault`] — deterministic, seed-replayable fault injection and the
//!   recovery policy (retry with capped backoff, graceful degradation to
//!   the software oracle).
//! * [`perf`] — wall-clock/breakdown accounting (Figure 13).
//! * [`cost`] — the AWS cost model (Tables II and III).
//! * [`serve`] — the multi-tenant serving front door, and the one
//!   asynchronous way to run a compiled plan. The paper's host API
//!   (§III-E) is `submit` and a `Ticket`: `submit` binds the inputs
//!   (`configure_mem`) and returns without blocking (`run_genesis`),
//!   `Ticket::is_done` is `check_genesis`, `Ticket::wait` is
//!   `wait_genesis` + `genesis_flush`, and `Request::with_deadline`
//!   bounds the wait. Behind it: a compiled-pipeline LRU cache
//!   with reconfiguration-penalty accounting, a fair-queued device pool
//!   (`GENESIS_DEVICES`), deadline-aware admission, and a per-request
//!   latency budget (`server.phase.*` histograms that tile each request's
//!   latency). Binding a request copies each scanned column out of the
//!   catalog once, by column type, and each replica's range goes from
//!   that copy straight into device memory.
//! * [`sched`] — the deterministic fair-queuing primitives behind
//!   [`serve`].
//!
//! # Examples
//!
//! ```
//! use genesis_core::device::DeviceConfig;
//! use genesis_core::accel::example::CountMatchingBases;
//! use genesis_datagen::{DatagenConfig, Dataset};
//!
//! let dataset = Dataset::generate(&DatagenConfig::tiny());
//! let accel = CountMatchingBases::new(DeviceConfig::small());
//! let run = accel.run(&dataset.reads, &dataset.genome)?;
//! assert_eq!(run.counts.len(), dataset.reads.len());
//! # Ok::<(), genesis_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accel;
pub mod builder;
pub mod columns;
pub mod compile;
pub mod cost;
pub mod device;
pub mod env;
pub mod error;
pub mod fault;
pub mod library;
mod lower;
pub mod perf;
pub mod sched;
pub mod serve;

pub use compile::{Compiler, PipelinePlan};
pub use device::{DeviceConfig, TierConfig};
pub use env::{EnvError, GenesisEnv};
pub use error::CoreError;
pub use fault::{FaultConfig, FaultReport};
pub use perf::{AccelStats, Breakdown};
pub use sched::{DispatchRecord, FairQueue};
pub use serve::{CacheStats, GenesisServer, OracleFn, Request, ServerConfig, Ticket};
