//! Linter configuration.
//!
//! The *policy* — which crates are simulation crates, which modules form
//! the per-cycle hot path, which functions must stay allocation-free —
//! is code, not configuration: it encodes decisions from PRs 1–3 and
//! changes only with a PR that changes the architecture (see
//! DESIGN.md §11).

/// Static policy: how files map to lint domains. Paths are
/// workspace-relative with forward slashes.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Crates whose results must be cycle-deterministic (D2 applies, and
    /// D1: no wall-clock reads).
    pub sim_crates: Vec<String>,
    /// Crates additionally covered by D1 (the bench harness may time,
    /// but only through its one allowlisted timing module).
    pub extra_d1_crates: Vec<String>,
    /// Per-cycle call-chain modules (H1: no panic paths).
    pub hot_files: Vec<String>,
    /// Functions inside `hot_files` that must stay allocation-free (H2).
    pub hot_fns: Vec<String>,
    /// Files that assemble `SimReport` or telemetry output (D3: no
    /// iteration-order leaks from Fx maps).
    pub report_files: Vec<String>,
    /// Library crates held to E1 error hygiene.
    pub lib_crates: Vec<String>,
    /// Crates whose functions are nodes in the intra-workspace call
    /// graph (T1). Host-side tooling (bench drivers, the sweep
    /// server, the linter itself) is excluded so common names like
    /// `run` do not alias simulator call chains.
    pub call_graph_crates: Vec<String>,
    /// Traits whose impls must round-trip every named field of the self
    /// type through both `save` and `load` (S1).
    pub snapshot_traits: Vec<String>,
}

impl Default for Policy {
    fn default() -> Self {
        let s = |v: &[&str]| v.iter().map(|x| (*x).to_string()).collect();
        Self {
            sim_crates: s(&["gpusim", "core", "workloads", "telemetry", "checkpoint", "serve"]),
            extra_d1_crates: s(&["bench", "gpu-secure-memory"]),
            // The per-cycle chain from DESIGN.md §10:
            // sim -> sm -> icnt -> partition -> cache/mshr -> backend ->
            // engine/mdcache -> dram, plus the hasher they key maps with.
            hot_files: s(&[
                "crates/gpusim/src/sim.rs",
                "crates/gpusim/src/sm.rs",
                "crates/gpusim/src/icnt.rs",
                "crates/gpusim/src/partition.rs",
                "crates/gpusim/src/cache.rs",
                "crates/gpusim/src/mshr.rs",
                "crates/gpusim/src/dram.rs",
                "crates/gpusim/src/backend.rs",
                "crates/gpusim/src/hash.rs",
                "crates/gpusim/src/trace_bin.rs",
                "crates/core/src/engine.rs",
                "crates/core/src/mdcache.rs",
            ]),
            // The functions PR 3 made allocation-free in steady state.
            hot_fns: s(&[
                "cycle",
                "step_inner",
                "advance_idle",
                "issue",
                "pick_warp",
                "issuable",
                "access",
                "complete",
                "try_accept",
                "next_event_cycle",
                "account_idle_stall",
                "progress_signature",
                "submit_read",
                "submit_write",
                "pop_completed",
                "advance_write",
                "next_inst",
            ]),
            report_files: s(&[
                "crates/gpusim/src/stats.rs",
                "crates/gpusim/src/sim.rs",
                "crates/core/src/engine.rs",
                "crates/core/src/mdcache.rs",
                "crates/telemetry/src/sink.rs",
            ]),
            lib_crates: s(&["gpusim", "core", "crypto", "telemetry", "workloads", "checkpoint", "serve"]),
            call_graph_crates: s(&["gpusim", "core", "crypto", "telemetry", "workloads", "checkpoint"]),
            snapshot_traits: s(&["Snapshot"]),
        }
    }
}

impl Policy {
    /// Crate name for a workspace-relative path (`crates/<name>/…`, or
    /// the root package for `src/…`).
    pub fn crate_of(rel: &str) -> &str {
        if let Some(rest) = rel.strip_prefix("crates/") {
            rest.split('/').next().unwrap_or("")
        } else if rel.starts_with("src/") {
            "gpu-secure-memory"
        } else {
            ""
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `hot_fns` name that no hot file defines guards nothing: every
    /// name must be a non-test function in at least one `hot_files` file.
    #[test]
    fn every_hot_fn_is_defined_in_a_hot_file() {
        let policy = Policy::default();
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut defined = std::collections::BTreeSet::new();
        for rel in &policy.hot_files {
            let src = std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
            let info = crate::scanner::FileInfo::analyze(&src);
            defined.extend(info.fns.iter().filter(|f| !info.is_test[f.body.0]).map(|f| f.name.clone()));
        }
        let stale: Vec<&String> = policy.hot_fns.iter().filter(|f| !defined.contains(*f)).collect();
        assert!(stale.is_empty(), "hot_fns no hot file defines: {stale:?}");
    }

    #[test]
    fn crate_classification() {
        assert_eq!(Policy::crate_of("crates/gpusim/src/sim.rs"), "gpusim");
        assert_eq!(Policy::crate_of("src/lib.rs"), "gpu-secure-memory");
        assert_eq!(Policy::crate_of("examples/x.rs"), "");
    }
}
