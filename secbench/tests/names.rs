//! The benchmark's vocabulary is legal, unique, and identical to the
//! committed `BENCHMARK.json`; its pinned fingerprints are read from
//! `BENCH_simperf.json`.

use secbench::metrics::{manifest, valid_name, valid_unit, Better, END_TO_END, PER_LAYER, WORKLOADS};
use secbench::simwork::{secure_walk_cells, simperf_pins};
use secmem_serve::json;

fn repo_file(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn every_workload_and_metric_name_is_legal_and_used_once() {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for name in &names {
        assert!(valid_name(name), "illegal name {name:?}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name is used twice");

    for w in WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {} is not one short line", w.name);
    }
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_unit(m.unit), "illegal unit {:?} on {}", m.unit, m.name);
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
}

#[test]
fn end_to_end_bounds_are_legal_and_setup_has_the_largest() {
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is an end-to-end metric");
    assert_eq!(setup.unit, "s");
    assert_eq!(setup.better, Better::Lower);
    let setup_bound = setup.bound.expect("bounded");
    for m in END_TO_END {
        let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        assert!(bound <= setup_bound, "{} bound exceeds setup_s's", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
}

#[test]
fn names_validator_rejects_what_the_contract_forbids() {
    for bad in ["", "_lead", ".lead", "has space", "slash/name", "b+tree", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} should be rejected");
    }
    for good in ["setup_s", "core.engine.busy_frac", "9lives", "a-b.c_d"] {
        assert!(valid_name(good), "{good:?} should be accepted");
    }
    assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("") && !valid_unit("per second"));
}

#[test]
fn committed_manifest_matches_the_tables() {
    assert_eq!(
        repo_file("BENCHMARK.json"),
        manifest(),
        "regenerate with `secbench --manifest > BENCHMARK.json`"
    );
    json::parse(&manifest()).expect("the manifest is valid JSON");
}

#[test]
fn secure_walk_pins_come_from_bench_simperf() {
    let cells = secure_walk_cells().expect("every secure_walk cell is pinned in BENCH_simperf.json");
    assert_eq!(cells.len(), 6);
    let btree_mt = cells.iter().find(|c| c.name == "btree.direct_mac_mt").expect("b+tree/direct_mac_mt");
    assert_eq!(btree_mt.pinned_fp, 0xea3c_b15d_763d_9e37);
    assert!(simperf_pins(&[("b+tree", "no_such_scheme")]).is_err());
}
