//! # genesis
//!
//! Facade crate for the Genesis reproduction (*Genesis: A Hardware
//! Acceleration Framework for Genomic Data Analysis*, ISCA 2020).
//!
//! Re-exports every member crate under a short module name:
//!
//! * [`types`] — genomic data model (reads, CIGAR, reference, tables).
//! * [`datagen`] — synthetic workload generation (reference, SNPs, reads).
//! * [`sql`] — extended-SQL parser, logical plans, and software engine.
//! * [`hw`] — hardware module library and cycle-level dataflow simulator.
//! * [`gatk`] — GATK4-analog software baseline pipeline.
//! * [`core`] — the Genesis framework: compiler, host API, accelerators,
//!   performance and cost models.
//! * [`obs`] — observability: per-module spans, stall attribution,
//!   Chrome-trace export, and the host metrics registry.
//!
//! # Examples
//!
//! `genesis scripts/figure4.sql tiny` (the `genesis` binary of
//! `genesis-bench`) is the paper's Figure 4/7 walk-through: SQL in, the
//! compiled pipeline, its result checked against the SQL engine, and the
//! modeled clock out. `examples/` holds the programs that teach the Rust
//! API.

pub use genesis_core as core;
pub use genesis_datagen as datagen;
pub use genesis_gatk as gatk;
pub use genesis_hw as hw;
pub use genesis_obs as obs;
pub use genesis_sql as sql;
pub use genesis_types as types;
