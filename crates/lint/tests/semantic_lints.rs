//! Unit tests for the symbol-aware passes added in PR 10: the item
//! parser (over the fixture corpus in `fixtures/parser/`), the workspace
//! model's name resolution, and the semantic lints S1 / T1 —
//! each with positive, negative and inline-allow cases.
//!
//! The semantic tests fabricate tiny multi-file "workspaces" through
//! [`lint_sources`], using workspace-relative paths that land in the
//! right policy buckets (call-graph crates, hot files, hot fns).

use secmem_lint::parser::parse_file;
use secmem_lint::scanner::FileInfo;
use secmem_lint::{lint_sources, Disposition, Policy};

fn parsed(src: &str) -> secmem_lint::ParsedFile {
    let info = FileInfo::analyze(src);
    parse_file(&info)
}

/// Active diagnostics of one lint over a fabricated workspace.
fn active(files: &[(&str, &str)], lint: &str) -> Vec<String> {
    let owned: Vec<(String, String)> =
        files.iter().map(|(rel, src)| (rel.to_string(), src.to_string())).collect();
    lint_sources(&owned, &Policy::default())
        .into_iter()
        .filter(|d| d.lint == lint && d.disposition == Disposition::Active)
        .map(|d| format!("{}:{} {}", d.file, d.line, d.message))
        .collect()
}

// ---------------------------------------------------------------- parser

#[test]
fn parser_handles_nested_generics_and_shifts() {
    let pf = parsed(include_str!("fixtures/parser/nested_generics.rs"));
    let wrap = pf.structs.iter().find(|s| s.name == "Wrap").expect("Wrap parsed");
    assert_eq!(wrap.fields, ["inner", "deep"], "fields behind Vec<Vec<u8>> generics");
    assert!(wrap.has_named_fields);
    let names: Vec<&str> = pf.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["shift", "turbofish", "helper", "generic_fn"]);
    let shift = &pf.fns[0];
    assert!(shift.calls.iter().any(|c| c.name == "helper"), "x >> 2 must not eat the body");
    assert!(shift.has_self);
    assert!(!pf.fns[2].has_self, "free helper has no receiver");
}

#[test]
fn parser_handles_where_clauses() {
    let pf = parsed(include_str!("fixtures/parser/where_clauses.rs"));
    let visit = pf
        .fns
        .iter()
        .find(|f| f.name == "visit" && f.self_ty.is_some())
        .expect("trait-impl method parsed (the trait's own declaration has no self type)");
    assert_eq!(visit.self_ty.as_deref(), Some("Holder"), "where clause must not shift the self type");
    assert_eq!(visit.trait_name.as_deref(), Some("Visit"));
    let first = pf.fns.iter().find(|f| f.name == "first").expect("inherent method parsed");
    assert_eq!(first.self_ty.as_deref(), Some("Holder"));
    assert_eq!(first.trait_name, None, "inherent impl has no trait");
    assert!(pf.fns.iter().any(|f| f.name == "free_where"));
}

#[test]
fn parser_handles_impl_trait_positions() {
    let pf = parsed(include_str!("fixtures/parser/impl_trait.rs"));
    let names: Vec<&str> = pf.structs.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["Real"], "impl Fn(u32) / impl Iterator are not impl blocks");
    let bump = pf.fns.iter().find(|f| f.name == "bump").expect("bump parsed");
    assert_eq!(bump.self_ty.as_deref(), Some("Real"));
    assert!(pf.fns.iter().any(|f| f.name == "make_adder"));
}

#[test]
fn parser_skips_macros_soundly() {
    let pf = parsed(include_str!("fixtures/parser/macros.rs"));
    let fn_names: Vec<&str> = pf.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(fn_names, ["uses_macros", "real_panic_site"], "macro-internal items must not leak");
    assert!(pf.structs.is_empty(), "PhantomThing lives inside macro_rules!");
    let uses = &pf.fns[0];
    assert!(uses.panics.is_empty(), "panic! inside a skipped macro body is not a body fact");
    let real = &pf.fns[1];
    assert_eq!(real.panics.len(), 1, "unreachable! outside a macro body is recorded");
}

#[test]
fn parser_marks_cfg_test_items() {
    let pf = parsed(include_str!("fixtures/parser/cfg_gated.rs"));
    let prod = pf.structs.iter().find(|s| s.name == "Production").expect("Production parsed");
    assert!(!prod.is_test);
    let test_only = pf.structs.iter().find(|s| s.name == "TestOnly").expect("TestOnly parsed");
    assert!(test_only.is_test, "structs under #[cfg(test)] are test-marked");
    let live = pf.fns.iter().find(|f| f.name == "live").expect("live parsed");
    assert!(!live.is_test);
    let lives = pf.fns.iter().find(|f| f.name == "lives").expect("test fn parsed");
    assert!(lives.is_test);
}

// ------------------------------------------------------------------- S1

const PAIR_COMPLETE: &str = "\
pub struct Pair { a: u64, b: u64 }
impl Snapshot for Pair {
    fn save(&self, w: &mut Writer) { w.put_u64(self.a); w.put_u64(self.b); }
    fn load(r: &mut Reader<'_>) -> Result<Self, E> { Ok(Self { a: r.get_u64()?, b: r.get_u64()? }) }
}
";

const PAIR_MISSING_B: &str = "\
pub struct Pair { a: u64, b: u64 }
impl Snapshot for Pair {
    fn save(&self, w: &mut Writer) { w.put_u64(self.a); w.put_u64(self.b); }
    fn load(r: &mut Reader<'_>) -> Result<Self, E> { let a = r.get_u64()?; Ok(Self { a, ..Self::zeroed() }) }
}
";

#[test]
fn s1_flags_a_snapshot_impl_omitting_a_field() {
    let diags = active(&[("crates/gpusim/src/pair.rs", PAIR_MISSING_B)], "S1");
    assert_eq!(diags.len(), 1, "load never mentions `b`: {diags:?}");
    assert!(diags[0].contains("`b`"), "names the missing field: {}", diags[0]);
    assert!(diags[0].contains("load"), "anchored at the offending method: {}", diags[0]);
}

#[test]
fn s1_accepts_a_complete_snapshot_impl() {
    assert!(active(&[("crates/gpusim/src/pair.rs", PAIR_COMPLETE)], "S1").is_empty());
}

#[test]
fn s1_respects_an_inline_allow() {
    let src = PAIR_MISSING_B
        .replace("    fn load", "    // lint:allow(S1): b is derived at first use after resume\n    fn load");
    assert!(active(&[("crates/gpusim/src/pair.rs", &src)], "S1").is_empty());
}

#[test]
fn s1_skips_enums_and_unresolved_types() {
    // `Token` is an enum here; a same-named struct in another crate must
    // not be consulted (the tier that sees the enum wins).
    let enum_file = "\
pub enum Token { A, B }
impl Snapshot for Token {
    fn save(&self, w: &mut Writer) { w.put_u8(0); }
    fn load(r: &mut Reader<'_>) -> Result<Self, E> { Ok(Token::A) }
}
";
    let decoy = "pub struct Token { kind: u8, text: String }\n";
    let files = [("crates/gpusim/src/tok.rs", enum_file), ("crates/telemetry/src/decoy.rs", decoy)];
    assert!(active(&files, "S1").is_empty(), "enum impls are out of S1's reach");
}

// ------------------------------------------------------------------- T1

/// `cycle` in `sm.rs` is a hot fn in a hot file (policy), so calls out
/// of the audited jurisdiction are T1's to judge.
fn hot_caller(body: &str) -> String {
    format!("pub struct Sm;\nimpl Sm {{\n    pub fn cycle(&mut self) {{ {body} }}\n}}\n")
}

#[test]
fn t1_flags_a_hot_call_into_panicking_code() {
    let helper = "pub fn helper_panics(x: u64) -> u64 { if x > 7 { panic!(\"boom\") } else { x } }\n";
    let files = [
        ("crates/gpusim/src/sm.rs", hot_caller("helper_panics(3);")),
        ("crates/gpusim/src/other.rs", helper.to_string()),
    ];
    let borrowed: Vec<(&str, &str)> = files.iter().map(|(a, b)| (*a, b.as_str())).collect();
    let diags = active(&borrowed, "T1");
    assert_eq!(diags.len(), 1, "panic behind one call edge: {diags:?}");
    assert!(diags[0].contains("can panic"));
    assert!(diags[0].contains("helper_panics"));
}

#[test]
fn t1_flags_a_transitive_allocation() {
    let helper = "\
pub fn outer(x: u64) -> u64 { inner(x) }
fn inner(x: u64) -> u64 { let s = format!(\"{x}\"); s.len() as u64 }
";
    let files = [
        ("crates/gpusim/src/sm.rs", hot_caller("outer(3);")),
        ("crates/gpusim/src/other.rs", helper.to_string()),
    ];
    let borrowed: Vec<(&str, &str)> = files.iter().map(|(a, b)| (*a, b.as_str())).collect();
    let diags = active(&borrowed, "T1");
    assert_eq!(diags.len(), 1, "alloc two edges away: {diags:?}");
    assert!(diags[0].contains("allocates"));
    assert!(diags[0].contains("inner"), "chain reaches the direct site: {}", diags[0]);
}

#[test]
fn t1_accepts_clean_transitive_callees() {
    let helper = "pub fn helper_clean(x: u64) -> u64 { x.wrapping_mul(3) }\n";
    let files = [
        ("crates/gpusim/src/sm.rs", hot_caller("helper_clean(3);")),
        ("crates/gpusim/src/other.rs", helper.to_string()),
    ];
    let borrowed: Vec<(&str, &str)> = files.iter().map(|(a, b)| (*a, b.as_str())).collect();
    assert!(active(&borrowed, "T1").is_empty());
}

#[test]
fn t1_respects_an_inline_allow_at_the_call_site() {
    let helper = "pub fn helper_panics(x: u64) -> u64 { if x > 7 { panic!(\"boom\") } else { x } }\n";
    let caller = "\
pub struct Sm;
impl Sm {
    pub fn cycle(&mut self) {
        // lint:allow(T1): fixture justification
        helper_panics(3);
    }
}
";
    let files = [("crates/gpusim/src/sm.rs", caller), ("crates/gpusim/src/other.rs", helper)];
    assert!(active(&files, "T1").is_empty());
}
