//! Mutation fuzzing for the server's untrusted-input parsers: the
//! HTTP/1.1 head/request/response decoders and the sweep-spec JSON
//! parser. Reuses the deterministic SplitMix64 mutator from
//! `secmem_bench::fuzz`, so every case is reproducible from
//! `(exemplar index, seed, iteration)` alone.
//!
//! Contract under fuzz: arbitrary bytes produce a typed error or a
//! valid parse — never a panic.
//!
//! Crashing inputs get frozen as files in `tests/fixtures/` and are
//! replayed by `frozen_fixtures_stay_typed` forever after.

use std::panic::{catch_unwind, AssertUnwindSafe};

use secmem_bench::fuzz::Mutator;
use secmem_bench::sweep::SweepSpec;
use secmem_serve::http;
use secmem_serve::spec::{parse_sweep_spec, render_sweep_spec};

const ITERATIONS: u64 = 25_000;

/// Well-formed HTTP exemplars; mutation starts from these so cases
/// reach past the first sanity checks.
fn http_exemplars() -> Vec<Vec<u8>> {
    vec![
        b"POST /sweeps HTTP/1.1\r\nHost: localhost:8642\r\nContent-Type: application/json\r\n\
          Content-Length: 18\r\n\r\n{\"benches\":[\"nw\"]}"
            .to_vec(),
        b"GET /sweeps/12/stream HTTP/1.1\r\nAccept: application/x-ndjson\r\nConnection: close\r\n\r\n"
            .to_vec(),
        b"HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nContent-Length: 10\r\n\r\n0123456789".to_vec(),
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
          6\r\nfirst \r\n6\r\nsecond\r\n0\r\n\r\n"
            .to_vec(),
    ]
}

fn spec_exemplars() -> Vec<Vec<u8>> {
    let mut with_telemetry = SweepSpec::pinned_matrix();
    with_telemetry.sample_interval = Some(512);
    vec![
        render_sweep_spec(&SweepSpec::pinned_matrix()).into_bytes(),
        render_sweep_spec(&with_telemetry).into_bytes(),
        br#"{ "benches": ["nw", "b+tree"], "schemes": ["baseline", "direct_mac_mt"],
             "gpu": "small", "cycles": 3000, "warmup": 10, "seed": 1516 }"#
            .to_vec(),
    ]
}

/// Runs `input` through every HTTP decoder; must return, never panic.
fn parse_http(input: &[u8]) {
    let _ = http::parse_head(input);
    let _ = http::read_request(&mut &input[..]);
    let _ = http::read_response(&mut &input[..]);
}

/// Runs `input` through the spec pipeline; must return, never panic.
fn parse_spec(input: &[u8]) {
    let Ok(text) = core::str::from_utf8(input) else {
        // Non-UTF-8 bodies are rejected before parsing in the server.
        return;
    };
    let _ = parse_sweep_spec(text);
}

fn fuzz(label: &str, exemplars: &[Vec<u8>], seed: u64, parse: fn(&[u8])) {
    let mut mutator = Mutator::new(seed);
    for iteration in 0..ITERATIONS {
        let base = &exemplars[(iteration as usize) % exemplars.len()];
        let input = mutator.mutate(base);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| parse(&input))) {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            panic!(
                "{label} corpus, seed {seed:#x}, iteration {iteration}: panic '{message}' on input {:?}",
                String::from_utf8_lossy(&input)
            );
        }
    }
}

#[test]
fn fuzz_http_head_and_message_decoders() {
    fuzz("http", &http_exemplars(), 0x5EC0_0001, parse_http);
}

#[test]
fn fuzz_sweep_spec_json() {
    fuzz("spec", &spec_exemplars(), 0x5EC0_0002, parse_spec);
}

#[test]
fn exemplars_parse_cleanly() {
    // The unmutated exemplars must be valid, otherwise mutation only
    // explores error paths.
    let heads = http_exemplars();
    assert!(http::read_request(&mut &heads[0][..]).is_ok());
    assert!(http::read_request(&mut &heads[1][..]).is_ok());
    assert!(http::read_response(&mut &heads[2][..]).is_ok());
    assert!(http::read_response(&mut &heads[3][..]).is_ok());
    for spec in spec_exemplars() {
        parse_sweep_spec(core::str::from_utf8(&spec).expect("utf-8")).expect("exemplar specs parse");
    }
}

/// Replays every frozen fixture file (inputs that once crashed or
/// exercised tricky paths): HTTP inputs must stay non-panicking parses,
/// and every spec input must stay a typed rejection.
#[test]
fn frozen_fixtures_stay_typed() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures dir exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "fixtures directory must not be empty");
    for path in entries {
        let input = std::fs::read(&path).expect("fixture readable");
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("http_") {
            let result = catch_unwind(AssertUnwindSafe(|| parse_http(&input)));
            assert!(result.is_ok(), "fixture {name} caused a panic");
        } else {
            let text = core::str::from_utf8(&input).expect("spec fixtures are UTF-8");
            assert!(parse_sweep_spec(text).is_err(), "spec fixture {name} must stay a typed rejection");
        }
    }
}
