//! Synthetic GPU benchmark suite standing in for Rodinia-3.1 / Parboil /
//! Polybench (Table IV of *"Analyzing Secure Memory Architecture for
//! GPUs"*, ISPASS 2021).
//!
//! The paper evaluates 14 benchmarks spanning non-, medium- and highly
//! memory-intensive behaviour. Real traces are not available here, so
//! each benchmark is modeled as a parameterized synthetic kernel
//! reproducing its *memory-system behaviour*: access-pattern class
//! (streaming / strided scatter / random scatter / pointer chase / tiny
//! kernel), arithmetic intensity, read-write mix, occupancy and
//! footprint — calibrated so baseline bandwidth utilization lands in the
//! band Table IV reports.
//!
//! # Example
//!
//! ```
//! use secmem_workloads::suite;
//! use secmem_gpusim::kernel::Kernel;
//!
//! let fdtd = suite::by_name("fdtd2d").expect("in the suite");
//! assert_eq!(fdtd.name(), "fdtd2d");
//! assert_eq!(suite::table4_suite().len(), 14);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ml;
pub mod program;
pub mod spec;
pub mod suite;

pub use program::SyntheticKernel;
pub use spec::{AccessPattern, BenchSpec, Category};
