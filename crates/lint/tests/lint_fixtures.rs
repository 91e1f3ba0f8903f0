//! Fixture-driven tests for the lint rules, the allow directives and
//! an end-to-end workspace scan. Each fixture
//! under `tests/fixtures/src/` is linted as if it sat at a policy-scoped
//! path (hot file, report file, lib crate), so every lint is exercised
//! with exact `file:line:col` expectations.

use std::path::PathBuf;

use secmem_lint::diag::Disposition;
use secmem_lint::{lint_source, scan_workspace, Diagnostic, Policy};

fn lint(rel: &str, src: &str) -> Vec<Diagnostic> {
    lint_source(rel, src, &Policy::default())
}

fn active(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
    diags.iter().filter(|d| d.disposition == Disposition::Active).collect()
}

#[test]
fn d1_flags_wallclock_with_exact_positions() {
    let diags = lint("crates/gpusim/src/foo.rs", include_str!("fixtures/src/d1.rs"));
    let d1: Vec<_> = diags.iter().filter(|d| d.lint == "D1").collect();
    assert_eq!(d1.len(), 2, "{diags:?}");
    assert_eq!((d1[0].line, d1[0].col), (2, 16), "Instant in the use statement");
    assert_eq!((d1[1].line, d1[1].col), (5, 13), "Instant::now() call");
    assert!(d1.iter().all(|d| d.disposition == Disposition::Active));
}

#[test]
fn d1_covers_the_bench_crate_too() {
    let diags = lint("crates/bench/src/foo.rs", include_str!("fixtures/src/d1.rs"));
    assert_eq!(diags.iter().filter(|d| d.lint == "D1").count(), 2);
}

#[test]
fn d1_ignores_crates_outside_the_policy() {
    let diags = lint("crates/lint/src/foo.rs", include_str!("fixtures/src/d1.rs"));
    assert!(diags.iter().all(|d| d.lint != "D1"), "lint crate itself may time: {diags:?}");
}

#[test]
fn d2_flags_std_maps_in_sim_crates() {
    let diags = lint("crates/core/src/foo.rs", include_str!("fixtures/src/d2.rs"));
    let lines: Vec<u32> = diags.iter().filter(|d| d.lint == "D2").map(|d| d.line).collect();
    assert_eq!(lines, vec![2, 5, 5], "use + type + constructor: {diags:?}");
}

#[test]
fn d3_flags_fx_map_iteration_in_report_files() {
    let diags = lint("crates/gpusim/src/stats.rs", include_str!("fixtures/src/d3.rs"));
    let d3: Vec<_> = diags.iter().filter(|d| d.lint == "D3").collect();
    assert_eq!(d3.len(), 2, "map.iter() and set.keys(): {diags:?}");
    // The same source outside a report file is not D3's business.
    let elsewhere = lint("crates/gpusim/src/kernel.rs", include_str!("fixtures/src/d3.rs"));
    assert!(elsewhere.iter().all(|d| d.lint != "D3"));
}

#[test]
fn h1_flags_panic_paths_in_hot_modules() {
    let diags = lint("crates/gpusim/src/mshr.rs", include_str!("fixtures/src/h1.rs"));
    let h1: Vec<(u32, u32)> = diags.iter().filter(|d| d.lint == "H1").map(|d| (d.line, d.col)).collect();
    assert_eq!(h1, vec![(3, 27), (9, 9), (15, 24)], "unwrap, panic!, expect: {diags:?}");
    // The same file outside the hot set carries no H1 findings.
    let cold = lint("crates/gpusim/src/kernel.rs", include_str!("fixtures/src/h1.rs"));
    assert!(cold.iter().all(|d| d.lint != "H1"));
}

#[test]
fn h2_flags_allocation_only_in_hot_functions() {
    let diags = lint("crates/gpusim/src/cache.rs", include_str!("fixtures/src/h2.rs"));
    let h2: Vec<u32> = diags.iter().filter(|d| d.lint == "H2").map(|d| d.line).collect();
    assert_eq!(h2, vec![8, 9, 10], "clone, format!, Vec::new in `access`: {diags:?}");
    assert!(diags.iter().all(|d| d.line < 15), "cold_summary is not a per-cycle function: {diags:?}");
}

#[test]
fn c1_flags_narrowing_casts_only_in_hot_files() {
    let diags = lint("crates/gpusim/src/partition.rs", include_str!("fixtures/src/c1.rs"));
    let c1: Vec<(u32, Disposition)> =
        diags.iter().filter(|d| d.lint == "C1").map(|d| (d.line, d.disposition)).collect();
    assert_eq!(
        c1,
        vec![(4, Disposition::Active), (8, Disposition::Active), (26, Disposition::Allowed)],
        "as u32 / as u8 flagged; widening, float, usize and test casts are not: {diags:?}"
    );
    // The same file outside the hot set carries no C1 findings.
    let cold = lint("crates/gpusim/src/kernel.rs", include_str!("fixtures/src/c1.rs"));
    assert!(cold.iter().all(|d| d.lint != "C1"), "{cold:?}");
}

#[test]
fn e1_flags_stringly_errors_and_panicking_constructors() {
    let diags = lint("crates/core/src/foo.rs", include_str!("fixtures/src/e1.rs"));
    let e1: Vec<_> = diags.iter().filter(|d| d.lint == "E1").collect();
    assert_eq!(e1.len(), 3, "{diags:?}");
    assert!(e1.iter().any(|d| d.message.contains("try_new")), "panicking new: {e1:?}");
    assert!(e1.iter().any(|d| d.line == 19), "Box<dyn Error> return: {e1:?}");
    assert!(e1.iter().any(|d| d.line == 24), "Result<_, String> return: {e1:?}");
}

#[test]
fn justified_allows_suppress_and_malformed_allows_do_not() {
    let diags = lint("crates/gpusim/src/mshr.rs", include_str!("fixtures/src/allows.rs"));
    let h1: Vec<_> = diags.iter().filter(|d| d.lint == "H1").collect();
    assert_eq!(h1.len(), 3, "{diags:?}");
    assert_eq!(h1[0].disposition, Disposition::Allowed, "preceding-line allow");
    assert_eq!(h1[1].disposition, Disposition::Allowed, "same-line allow");
    assert_eq!(
        (h1[2].line, h1[2].disposition),
        (11, Disposition::Active),
        "a justification-free allow suppresses nothing"
    );
    let a0: Vec<u32> = diags.iter().filter(|d| d.lint == "A0").map(|d| d.line).collect();
    assert_eq!(a0, vec![10, 15], "missing justification + unknown lint id: {diags:?}");
    assert!(active(&diags).iter().all(|d| d.lint == "H1" || d.lint == "A0"));
}

#[test]
fn file_level_allow_covers_the_whole_file() {
    let diags = lint("crates/gpusim/src/foo.rs", include_str!("fixtures/src/file_allow.rs"));
    let d1: Vec<_> = diags.iter().filter(|d| d.lint == "D1").collect();
    assert_eq!(d1.len(), 3, "{diags:?}");
    assert!(d1.iter().all(|d| d.disposition == Disposition::Allowed));
    assert!(active(&diags).is_empty());
}

/// Builds a throwaway mini-workspace containing one hot file with three
/// H1 violations, returning its root.
fn mini_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("secmem-lint-{}-{tag}", std::process::id()));
    let src_dir = root.join("crates/gpusim/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(src_dir.join("mshr.rs"), include_str!("fixtures/src/h1.rs")).expect("write src");
    root
}

#[test]
fn scan_workspace_reports_every_unallowed_finding() {
    let root = mini_workspace("scan");
    let report = scan_workspace(&root, &Policy::default()).expect("scan");
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.active(), 3);
    assert!(!report.is_clean());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn scan_workspace_rejects_a_non_workspace_root() {
    let bogus = std::env::temp_dir().join(format!("secmem-lint-bogus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&bogus);
    std::fs::create_dir_all(&bogus).expect("mkdir");
    assert!(scan_workspace(&bogus, &Policy::default()).is_err());
    let _ = std::fs::remove_dir_all(&bogus);
}

/// The real workspace must lint clean — this is the tier-1 gate that
/// keeps the determinism/hot-path/error-hygiene invariants enforced on
/// every `cargo test` run, not just in CI.
#[test]
fn the_actual_workspace_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = scan_workspace(&root, &Policy::default()).expect("scan");
    let failing: Vec<String> = report
        .diags
        .iter()
        .filter(|d| d.disposition == Disposition::Active)
        .map(|d| format!("{}:{}:{}: {} {}", d.file, d.line, d.col, d.lint, d.message))
        .collect();
    assert!(failing.is_empty(), "workspace has active lint findings:\n{}", failing.join("\n"));
}
