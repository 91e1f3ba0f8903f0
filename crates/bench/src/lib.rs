//! Experiment harness for the ISPASS'21 GPU secure-memory reproduction:
//! runs the simulations behind every table and figure of the paper and
//! renders them as text tables / CSV.
//!
//! The `reproduce` binary is the entry point:
//!
//! ```text
//! cargo run -p secmem-bench --release --bin reproduce -- fig3
//! cargo run -p secmem-bench --release --bin reproduce -- all --cycles 200000 --csv results/
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod experiments;
pub mod fuzz;
pub mod json;
pub mod plot;
pub mod queue;
pub mod runner;
pub mod sweep;
pub mod table;
pub mod timing;

pub use cache::{CacheRole, CacheStats, ResultCache};
pub use experiments::{ExpOpts, JobsFailed};
pub use queue::WorkPool;
pub use runner::{
    run_job, run_job_isolated, run_job_with, BackendChoice, Drive, Job, JobFailure, JobOutcome, RunResult,
    Runner,
};
pub use sweep::{job_fingerprint, report_fingerprint, GpuPreset, SweepError, SweepSpec};
pub use table::ExpTable;
