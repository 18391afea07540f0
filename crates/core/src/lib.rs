//! # genesis-core
//!
//! The Genesis framework itself (paper §III): everything that sits between
//! the extended-SQL front end and the simulated FPGA fabric.
//!
//! * [`library`] — the `EXEC` module registry: the name → plan-template
//!   map an `EXEC <module>` call expands through (paper §III-F). Which
//!   hardware modules a plan node maps to is the lowering's answer alone,
//!   printed by [`PipelinePlan::explain`].
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
//!   Update, BQSR covariate construction; Figures 10–12), each with
//!   host-side orchestration and result merge.
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
//! The paper's Figure 4 script compiled into its Figure 7 pipeline, run
//! over the reads of one chromosome against that whole chromosome:
//!
//! ```
//! use genesis_core::compile::{figure4_script, Compiler};
//! use genesis_core::device::DeviceConfig;
//! use genesis_datagen::{DatagenConfig, Dataset};
//! use genesis_sql::Catalog;
//! use genesis_types::table::{reads_to_table, ref_segment_to_table};
//!
//! let dataset = Dataset::generate(&DatagenConfig::tiny());
//! let chrom = dataset.genome.iter().next().unwrap();
//! let reads: Vec<_> = dataset.reads.iter().filter(|r| r.chr == chrom.chrom).cloned().collect();
//! let snp: Vec<bool> = chrom.is_snp.iter().collect();
//! let mut catalog = Catalog::new();
//! catalog.register_partition("READS", 0, reads_to_table(&reads)?);
//! let reference = ref_segment_to_table(chrom.chrom.id(), 0, &chrom.seq, &snp);
//! catalog.register_partition("REF", 0, reference);
//! let plan = Compiler::new(DeviceConfig::small()).compile_sql(figure4_script(), &catalog)?;
//! let (counts, _stats) = plan.execute(&catalog)?;
//! assert_eq!(counts.num_rows(), reads.len()); // matching bases, one count per read
//! # Ok::<(), Box<dyn std::error::Error>>(())
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
