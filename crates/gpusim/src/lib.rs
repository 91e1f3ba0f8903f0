//! A cycle-driven GPU memory-system timing simulator (Volta-class).
//!
//! This crate is the substrate the ISPASS'21 paper *"Analyzing Secure
//! Memory Architecture for GPUs"* built on GPGPU-Sim v4.0: a GPU model
//! with streaming multiprocessors, sectored caches, MSHRs, an
//! interconnect, and bandwidth-limited DRAM channels. It focuses on the
//! memory system — the part all of the paper's conclusions depend on —
//! and exposes a [`backend::MemoryBackend`] hook in each memory partition
//! where `secmem-core` installs the secure memory engine.
//!
//! # Architecture
//!
//! ```text
//! SMs (warps, GTO scheduler, sectored write-through L1 + MSHRs)
//!   │  coalesced 32 B sector requests
//!   ▼
//! Interconnect (latency + per-cycle rate, bounded request queues)
//!   │
//!   ▼
//! 32 × MemPartition: 2 × 96 KB sectored L2 banks + MSHRs
//!   │  misses / dirty evictions
//!   ▼
//! MemoryBackend (baseline: bare DRAM; secure: engine + metadata caches)
//!   │
//!   ▼
//! DRAM channel (868 GB/s aggregate, finite queues -> backpressure)
//! ```
//!
//! # Example
//!
//! ```
//! use secmem_gpusim::backend::PassthroughBackend;
//! use secmem_gpusim::config::GpuConfig;
//! use secmem_gpusim::kernel::StreamKernel;
//! use secmem_gpusim::sim::Simulator;
//!
//! let cfg = GpuConfig::small();
//! let kernel = StreamKernel::memory_bound(8);
//! let mut sim = Simulator::new(cfg, &kernel, |_, c| PassthroughBackend::from_config(c));
//! let report = sim.run(5_000);
//! assert!(report.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod coalesce;
pub mod config;
pub mod dram;
pub mod error;
pub mod fault;
pub mod hash;
pub mod icnt;
pub mod kernel;
pub mod mshr;
pub mod narrow;
pub mod partition;
pub mod reuse;
pub mod rng;
pub mod sim;
pub mod sm;
pub mod snapshot;
pub mod stats;
pub mod trace;
pub mod trace_bin;
pub mod types;

pub use backend::{MemoryBackend, PassthroughBackend};
pub use config::{AddressMap, GpuConfig};
pub use kernel::{Kernel, WarpProgram};
pub use sim::Simulator;
pub use stats::SimReport;
