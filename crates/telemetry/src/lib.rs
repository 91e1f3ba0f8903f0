//! **secmem-telemetry** — time-resolved observability for the GPU
//! secure-memory simulation stack.
//!
//! The simulator's end-of-run [`SimReport`] aggregates hide *when* things
//! happen: metadata traffic contending for DRAM bandwidth, metadata-cache
//! thrash episodes, watchdog stalls. This crate provides the three layers
//! any production observability stack has, sized for a cycle-driven
//! simulator:
//!
//! 1. **Sampling** — a cheaply clonable [`Telemetry`] handle that
//!    components record gauges and per-window deltas into. Series live in
//!    fixed-capacity [`RingSeries`] ring buffers that *decimate* (merge
//!    adjacent samples) instead of dropping history, so a series always
//!    covers the whole run and per-window deltas still sum to the run
//!    aggregate. A disabled handle is a single `Option` check — no
//!    allocation, no locking.
//! 2. **Events** — typed [`TelemetryEvent`] spans and instants (kernel
//!    phases, watchdog stalls, fault injections/detections, metadata-cache
//!    thrash episodes found by the [`ThrashDetector`] hysteresis rule) in
//!    a bounded buffer.
//! 3. **Exporters** — Chrome `trace_event` JSON ([`chrome`]) and
//!    terminal sparklines ([`spark`]).
//!    The emitted JSON is checked by [`json`], the workspace's one JSON
//!    parser, which `secmem-serve` also reads sweep specs with.
//!
//! The crate is deliberately generic — metrics are string-named, events
//! carry plain data — so every layer of the stack (`gpusim`, `core`,
//! `bench`) can depend on it without cycles.
//!
//! ```
//! use secmem_telemetry::{Telemetry, TelemetryConfig};
//!
//! let t = Telemetry::enabled(TelemetryConfig::default());
//! t.record_delta("dram.data_bytes", 512, 4096.0);
//! t.record_gauge("active_warps", 512, 64.0);
//! let snap = t.snapshot().expect("enabled");
//! assert_eq!(snap.series.len(), 2);
//!
//! // Disabled handles are free: one pointer, no-op recording.
//! let off = Telemetry::disabled();
//! off.record_gauge("active_warps", 0, 1.0);
//! assert!(off.snapshot().is_none());
//! ```
//!
//! [`SimReport`]: https://docs.rs/secmem-gpusim

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Telemetry must never take down a simulation: no unwraps outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod chrome;
pub mod event;
pub mod json;
pub mod series;
pub mod sink;
pub mod spark;
pub mod thrash;

pub use event::{EventKind, TelemetryEvent};
pub use series::{RingSeries, SeriesKind};
pub use sink::{SeriesSnapshot, Telemetry, TelemetryConfig, TelemetrySnapshot};
pub use thrash::{ThrashDetector, ThrashTransition};
