//! The paper's proof-of-concept accelerators (Figures 10–12), each with
//! host-side partition orchestration and result merging. Their batches run
//! through the device's batch runner (`device::run_batches`).

pub mod bqsr;
pub mod frontend;
pub mod markdup;
pub mod metadata;
