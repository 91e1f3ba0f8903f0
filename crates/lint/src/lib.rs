//! `secmem-lint` — a dependency-free static-analysis pass for this
//! workspace.
//!
//! PRs 1–3 established invariants that runtime tests can only spot-check:
//! typed error paths everywhere (PR 1), telemetry that must not perturb
//! results (PR 2), and a hot-loop overhaul whose correctness rests on
//! byte-identical `SimReport`s (PR 3). A single stray
//! `std::collections::HashMap` or `Instant::now()` in a sim crate can
//! silently reintroduce nondeterminism that the 28 pinned fingerprints
//! only catch after the fact — if the affected path happens to be
//! exercised. This crate checks the rules *mechanically*, at the source
//! level, on every file of every crate.
//!
//! The design is a hand-rolled lexer ([`lexer`]) feeding two layers:
//! token-pattern rules ([`lints`]) over one file at a time, and — since
//! PR 10 — an item-level parser ([`parser`]) whose per-file skeletons
//! are stitched into a workspace model with an intra-workspace call
//! graph ([`model`]), on which the semantic lints S1/T1 run
//! ([`semantic`]). No `syn`, matching the workspace's zero-dependency
//! policy. See DESIGN.md §11 and §16 for the lint catalogue with
//! per-lint origin PRs, and `lint.toml` for the baseline.
//!
//! Run it as:
//!
//! ```text
//! cargo run -p secmem-lint --            # human-readable report
//! cargo run -p secmem-lint -- --json     # CI artifact
//! cargo run -p secmem-lint -- --fix-baseline
//! ```

pub mod config;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod lints;
pub mod model;
pub mod parser;
pub mod scanner;
pub mod semantic;

pub use config::{Baseline, BaselineEntry, Policy};
pub use diag::{Diagnostic, Disposition, CATALOGUE};
pub use engine::{lint_source, lint_sources, scan_workspace, workspace_files, Report};
pub use model::WorkspaceModel;
pub use parser::{parse_file, ParsedFile};
