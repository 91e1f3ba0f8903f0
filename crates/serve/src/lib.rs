//! `secmem-serve`: a persistent sweep server for the ISPASS'21 GPU
//! secure-memory reproduction.
//!
//! The batch `reproduce` harness re-simulates every configuration on
//! every invocation, even though a result is a pure function of its
//! `(workload+seed, gpu, backend, cycles, warmup, telemetry)`
//! fingerprint. This crate keeps a simulator warm behind a hand-rolled
//! HTTP/1.1 interface (`std::net` only — the workspace is
//! dependency-free): sweep specs arrive as JSON, expand through
//! [`secmem_bench::sweep`] into jobs, and every job is answered by one
//! [`secmem_bench::Runner`] with a content-addressed result cache — so
//! repeated or concurrent identical sweeps cost zero extra simulations
//! and return **byte-identical** CSVs to a batch `reproduce matrix` run.
//!
//! Endpoints (see DESIGN.md §13 for the wire protocol):
//!
//! | method | path                  | purpose                          |
//! |--------|-----------------------|----------------------------------|
//! | GET    | `/health`             | liveness, queue depth, sweeps    |
//! | POST   | `/sweeps`             | submit a sweep spec (JSON)       |
//! | GET    | `/sweeps/{id}`        | progress + cache-hit counters    |
//! | GET    | `/sweeps/{id}/results`| final CSV (409 while running)    |
//! | GET    | `/sweeps/{id}/stream` | chunked NDJSON progress events   |
//! | GET    | `/cache/stats`        | cache + simulation counters      |
//! | POST   | `/drain`              | finish queued work, refuse new   |
//! | POST   | `/shutdown`           | drain, then exit                 |
//!
//! The server keeps every running sweep and the last
//! [`server::FINISHED_SWEEPS_KEPT`] finished ones; an evicted sweep's id
//! answers 410, an id never issued 404.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod server;
pub mod spec;

/// The JSON parser and escaper, re-exported from `secmem-telemetry` so
/// `secmem_serve::json` paths keep working.
pub use secmem_telemetry::json;

pub use server::{ServeError, Server, ServerConfig};
pub use spec::{parse_sweep_spec, render_sweep_spec, SpecError};
