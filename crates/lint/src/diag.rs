//! Diagnostics: the finding record, the lint catalogue, and the text /
//! JSON renderers.

/// How a finding is disposed after allow/baseline filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Fails the run.
    Active,
    /// Suppressed by an inline `lint:allow` with justification.
    Allowed,
    /// Suppressed by a `lint.toml` baseline budget.
    Baselined,
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Lint ID (`D1`, `H2`, …).
    pub lint: &'static str,
    /// Short lint name (`no-wallclock`, …).
    pub name: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was found and why it matters.
    pub message: String,
    /// Post-filtering disposition.
    pub disposition: Disposition,
}

/// A catalogue entry describing one lint (`--list` output; the full
/// version with origin PRs lives in DESIGN.md §11).
pub struct LintDoc {
    /// Lint ID.
    pub id: &'static str,
    /// Short name.
    pub name: &'static str,
    /// The invariant the lint enforces.
    pub invariant: &'static str,
}

/// Every lint the engine knows, in report order.
pub const CATALOGUE: &[LintDoc] = &[
    LintDoc {
        id: "D1",
        name: "no-wallclock",
        invariant: "sim crates never read wall-clock time (Instant/SystemTime); \
                    results depend only on seed + config",
    },
    LintDoc {
        id: "D2",
        name: "nondeterministic-map",
        invariant: "sim crates use gpusim::hash::{FastHashMap,FastHashSet} or BTreeMap, \
                    never seed-randomized std HashMap/HashSet",
    },
    LintDoc {
        id: "D3",
        name: "map-order-leak",
        invariant: "report/telemetry-feeding code never iterates an Fx map without an \
                    order-independence justification",
    },
    LintDoc {
        id: "H1",
        name: "hot-path-panic",
        invariant: "per-cycle call-chain modules carry no unwrap/expect/panic!; \
                    typed errors or debug_assert! instead",
    },
    LintDoc {
        id: "H2",
        name: "hot-path-alloc",
        invariant: "per-cycle functions stay allocation-free: no clone/to_vec/Vec::new/\
                    format! in the steady-state path",
    },
    LintDoc {
        id: "C1",
        name: "narrowing-cast",
        invariant: "hot address/index paths never narrow with a bare `as` cast to a \
                    small integer; use crate::narrow helpers (debug-checked, documented \
                    invariant) or justify inline",
    },
    LintDoc {
        id: "E1",
        name: "error-hygiene",
        invariant: "library crates expose typed errors, not Box<dyn Error> or String; \
                    panicking pub constructors have try_ forms",
    },
    LintDoc {
        id: "S1",
        name: "snapshot-completeness",
        invariant: "every `impl Snapshot for T` mentions every named field of T in both \
                    the save and load bodies; a field added to T without checkpoint \
                    plumbing breaks resume == uninterrupted silently",
    },
    LintDoc {
        id: "T1",
        name: "transitive-hot-path",
        invariant: "hot-path functions never call (transitively) into code that can \
                    panic or allocate outside the H1/H2-audited modules; flagged at \
                    the call site with the witness chain",
    },
    LintDoc {
        id: "A0",
        name: "bad-allow",
        invariant: "every lint:allow directive names a lint ID and carries a non-empty \
                    justification",
    },
];

/// Renders findings as `file:line:col: ID name: message` lines plus a
/// summary, mirroring rustc so editors can jump to them.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    let mut active = 0usize;
    let mut allowed = 0usize;
    let mut baselined = 0usize;
    for d in diags {
        match d.disposition {
            Disposition::Active => {
                active += 1;
                out.push_str(&format!(
                    "{}:{}:{}: {} {}: {}\n",
                    d.file, d.line, d.col, d.lint, d.name, d.message
                ));
            }
            Disposition::Allowed => allowed += 1,
            Disposition::Baselined => baselined += 1,
        }
    }
    out.push_str(&format!(
        "secmem-lint: {active} finding(s), {allowed} allowed inline, {baselined} baselined\n"
    ));
    out
}

/// Renders all findings (including suppressed ones, with their
/// disposition) as a JSON document for CI artifacts.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let disp = match d.disposition {
            Disposition::Active => "active",
            Disposition::Allowed => "allowed",
            Disposition::Baselined => "baselined",
        };
        out.push_str(&format!(
            "\n    {{\"lint\": \"{}\", \"name\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"col\": {}, \"disposition\": \"{}\", \"message\": \"{}\"}}",
            d.lint,
            d.name,
            json_escape(&d.file),
            d.line,
            d.col,
            disp,
            json_escape(&d.message)
        ));
    }
    let active = diags.iter().filter(|d| d.disposition == Disposition::Active).count();
    let allowed = diags.iter().filter(|d| d.disposition == Disposition::Allowed).count();
    let baselined = diags.iter().filter(|d| d.disposition == Disposition::Baselined).count();
    out.push_str(&format!(
        "\n  ],\n  \"summary\": {{\"active\": {active}, \"allowed\": {allowed}, \"baselined\": {baselined}}}\n}}\n"
    ));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(disp: Disposition) -> Diagnostic {
        Diagnostic {
            lint: "D1",
            name: "no-wallclock",
            file: "crates/x/src/a.rs".into(),
            line: 3,
            col: 9,
            message: "found `Instant`".into(),
            disposition: disp,
        }
    }

    #[test]
    fn text_lists_active_only() {
        let text = render_text(&[sample(Disposition::Active), sample(Disposition::Allowed)]);
        assert!(text.contains("crates/x/src/a.rs:3:9: D1 no-wallclock"));
        assert!(text.contains("1 finding(s), 1 allowed inline, 0 baselined"));
    }

    #[test]
    fn json_escapes() {
        let mut d = sample(Disposition::Baselined);
        d.message = "quote \" and\nnewline".into();
        let json = render_json(&[d]);
        assert!(json.contains("quote \\\" and\\nnewline"));
        assert!(json.contains("\"baselined\": 1"));
    }
}
