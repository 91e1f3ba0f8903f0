//! Linter configuration and the `lint.toml` baseline.
//!
//! The *policy* — which crates are simulation crates, which modules form
//! the per-cycle hot path, which functions must stay allocation-free —
//! is code, not configuration: it encodes decisions from PRs 1–3 and
//! changes only with a PR that changes the architecture (see
//! DESIGN.md §11). `lint.toml` carries the *baseline*: grandfathered
//! findings tolerated per (file, lint) while they are burned down, plus
//! an optional list of disabled lint IDs.
//!
//! The TOML support is a deliberately small hand-rolled subset (the
//! workspace is dependency-free): comments, `key = "string"`,
//! `key = int`, `key = [ "a", "b" ]`, and `[[baseline]]` array tables.

use std::collections::BTreeMap;
use std::path::Path;

/// One grandfathered (file, lint) bucket: up to `count` findings of
/// `lint` in `file` are reported as *baselined* instead of failing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// Lint ID, e.g. `H1`.
    pub lint: String,
    /// Number of tolerated findings.
    pub count: usize,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Lint IDs disabled outright.
    pub disabled: Vec<String>,
    /// Grandfathered findings.
    pub entries: Vec<BaselineEntry>,
}

/// A `lint.toml` parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for BaselineError {}

impl Baseline {
    /// Parses the `lint.toml` subset.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line.
    pub fn parse(text: &str) -> Result<Self, BaselineError> {
        let mut out = Baseline::default();
        // Which table the parser is inside: None = top level.
        let mut in_baseline = false;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[baseline]]" {
                out.entries.push(BaselineEntry { file: String::new(), lint: String::new(), count: 0 });
                in_baseline = true;
                continue;
            }
            if line.starts_with('[') {
                return Err(BaselineError { line: line_no, message: format!("unknown table {line}") });
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(BaselineError {
                    line: line_no,
                    message: format!("expected key = value, got '{line}'"),
                });
            };
            let (key, value) = (key.trim(), value.trim());
            if in_baseline {
                let entry = out
                    .entries
                    .last_mut()
                    .ok_or(BaselineError { line: line_no, message: "key before any [[baseline]]".into() })?;
                match key {
                    "file" => entry.file = parse_string(value, line_no)?,
                    "lint" => entry.lint = parse_string(value, line_no)?,
                    "count" => {
                        entry.count = value.parse().map_err(|_| BaselineError {
                            line: line_no,
                            message: format!("count must be an integer, got '{value}'"),
                        })?;
                    }
                    other => {
                        return Err(BaselineError {
                            line: line_no,
                            message: format!("unknown baseline key '{other}'"),
                        })
                    }
                }
            } else {
                match key {
                    "disabled" => out.disabled = parse_string_array(value, line_no)?,
                    other => {
                        return Err(BaselineError {
                            line: line_no,
                            message: format!("unknown key '{other}'"),
                        })
                    }
                }
            }
        }
        for (i, e) in out.entries.iter().enumerate() {
            if e.file.is_empty() || e.lint.is_empty() || e.count == 0 {
                return Err(BaselineError {
                    line: 0,
                    message: format!("baseline entry {} needs file, lint, and count > 0", i + 1),
                });
            }
        }
        Ok(out)
    }

    /// Loads `lint.toml` from `root`, or an empty baseline if absent.
    ///
    /// # Errors
    ///
    /// Returns a parse error for a present-but-malformed file.
    pub fn load(root: &Path) -> Result<Self, BaselineError> {
        match std::fs::read_to_string(root.join("lint.toml")) {
            Ok(text) => Self::parse(&text),
            Err(_) => Ok(Self::default()),
        }
    }

    /// Renders the baseline back to `lint.toml` text (used by
    /// `--fix-baseline`).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# secmem-lint baseline. Regenerate with:\n#   cargo run -p secmem-lint -- --fix-baseline\n\
             # Prefer an inline `// lint:allow(<ID>): <why>` over a baseline entry:\n\
             # the baseline exists to burn down, not to grow.\n",
        );
        if !self.disabled.is_empty() {
            let ids: Vec<String> = self.disabled.iter().map(|d| format!("\"{d}\"")).collect();
            out.push_str(&format!("disabled = [{}]\n", ids.join(", ")));
        }
        // Deterministic order regardless of discovery order.
        let mut entries: BTreeMap<(String, String), usize> = BTreeMap::new();
        for e in &self.entries {
            *entries.entry((e.file.clone(), e.lint.clone())).or_insert(0) += e.count;
        }
        for ((file, lint), count) in entries {
            out.push_str(&format!("\n[[baseline]]\nfile = \"{file}\"\nlint = \"{lint}\"\ncount = {count}\n"));
        }
        out
    }

    /// Tolerated finding count for a (file, lint) pair.
    pub fn budget(&self, file: &str, lint: &str) -> usize {
        self.entries.iter().filter(|e| e.file == file && e.lint == lint).map(|e| e.count).sum()
    }
}

fn strip_comment(line: &str) -> &str {
    // Good enough for our subset: no '#' inside the strings we write.
    line.split('#').next().unwrap_or("")
}

fn parse_string(value: &str, line: usize) -> Result<String, BaselineError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(BaselineError { line, message: format!("expected quoted string, got '{value}'") })
    }
}

fn parse_string_array(value: &str, line: usize) -> Result<Vec<String>, BaselineError> {
    let v = value.trim();
    let Some(inner) = v.strip_prefix('[').and_then(|s| s.strip_suffix(']')) else {
        return Err(BaselineError { line, message: format!("expected [ ... ] array, got '{value}'") });
    };
    inner.split(',').map(str::trim).filter(|s| !s.is_empty()).map(|s| parse_string(s, line)).collect()
}

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
                "crates/gpusim/src/coalesce.rs",
                "crates/gpusim/src/hash.rs",
                "crates/gpusim/src/trace_bin.rs",
                "crates/core/src/engine.rs",
                "crates/core/src/mdcache.rs",
            ]),
            // The functions PR 3 made allocation-free in steady state.
            hot_fns: s(&[
                "cycle",
                "step",
                "advance_idle",
                "issue",
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
                "advance_read",
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

    #[test]
    fn parses_baseline_entries() {
        let text = "# header\ndisabled = [\"D3\"]\n\n[[baseline]]\nfile = \"crates/x/src/a.rs\"\nlint = \"H1\"\ncount = 2\n";
        let b = Baseline::parse(text).expect("parses");
        assert_eq!(b.disabled, vec!["D3"]);
        assert_eq!(b.entries.len(), 1);
        assert_eq!(b.budget("crates/x/src/a.rs", "H1"), 2);
        assert_eq!(b.budget("crates/x/src/a.rs", "D1"), 0);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Baseline::parse("[unknown]\n").is_err());
        assert!(Baseline::parse("count = 1\n").is_err());
        assert!(Baseline::parse("[[baseline]]\nfile = \"x\"\nlint = \"H1\"\ncount = 0\n").is_err());
        assert!(Baseline::parse("[[baseline]]\nfile = x\n").is_err());
    }

    #[test]
    fn render_roundtrips() {
        let b = Baseline {
            disabled: vec!["D3".into()],
            entries: vec![BaselineEntry { file: "a.rs".into(), lint: "H1".into(), count: 3 }],
        };
        let back = Baseline::parse(&b.render()).expect("rendered text parses");
        assert_eq!(back.disabled, b.disabled);
        assert_eq!(back.entries, b.entries);
    }

    #[test]
    fn crate_classification() {
        assert_eq!(Policy::crate_of("crates/gpusim/src/sim.rs"), "gpusim");
        assert_eq!(Policy::crate_of("src/lib.rs"), "gpu-secure-memory");
        assert_eq!(Policy::crate_of("examples/x.rs"), "");
    }
}
