//! End-to-end tests against a real server on a loopback socket.
//!
//! The headline gate (ISSUE 7 acceptance criteria): for the pinned
//! 4-benchmark × 7-scheme matrix, the CSV fetched from the server is
//! **byte-identical** to the batch sweep's rendering, and resubmitting
//! the same spec is served entirely from the content-addressed cache —
//! zero additional simulations, proven by the server's simulation
//! counter.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use secmem_bench::sweep::SweepSpec;
use secmem_serve::client;
use secmem_serve::json::{self, Json};
use secmem_serve::server::FINISHED_SWEEPS_KEPT;
use secmem_serve::spec::render_sweep_spec;
use secmem_serve::{Server, ServerConfig};

/// Binds a server on an ephemeral loopback port and runs it on a
/// background thread. Tear down with `shutdown()`.
struct TestServer {
    addr: String,
    handle: Option<JoinHandle<()>>,
}

impl TestServer {
    fn start() -> Self {
        Self::start_with(ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() })
    }

    fn start_with(cfg: ServerConfig) -> Self {
        let server = Server::bind(&cfg).expect("bind loopback");
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run().expect("server run"));
        Self { addr, handle: Some(handle) }
    }

    fn shutdown(mut self) {
        let resp = client::post(&self.addr, "/shutdown", b"").expect("shutdown request");
        assert_eq!(resp.code, 200);
        self.handle.take().expect("running").join().expect("server thread exits cleanly");
    }
}

fn field(body: &str, name: &str) -> u64 {
    json::parse(body)
        .unwrap_or_else(|e| panic!("malformed response {body:?}: {e}"))
        .get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("response {body:?} lacks numeric field {name:?}"))
}

/// Submits a spec and blocks until the sweep completes; returns
/// `(sweep id, final status body)`.
fn run_sweep(addr: &str, spec: &SweepSpec) -> (u64, String) {
    let resp = client::post(addr, "/sweeps", render_sweep_spec(spec).as_bytes()).expect("submit");
    assert_eq!(resp.code, 200, "submit failed: {}", resp.text());
    let id = field(&resp.text(), "sweep");
    loop {
        let status = client::get(addr, &format!("/sweeps/{id}")).expect("status");
        assert_eq!(status.code, 200);
        let body = status.text();
        let complete = json::parse(&body).ok().and_then(|v| v.get("complete")?.as_bool());
        if complete == Some(true) {
            return (id, body);
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

fn fetch_csv(addr: &str, id: u64) -> Vec<u8> {
    let resp = client::get(addr, &format!("/sweeps/{id}/results")).expect("results");
    assert_eq!(resp.code, 200, "results failed: {}", resp.text());
    assert_eq!(resp.header("content-type"), Some("text/csv"));
    resp.body
}

/// The end-to-end determinism gate on the pinned matrix.
#[test]
fn pinned_matrix_server_csv_is_byte_identical_to_batch_and_resubmission_is_all_cache_hits() {
    let spec = SweepSpec::pinned_matrix();

    // Batch reference: the same expansion + rendering the server uses,
    // run in-process on the shared runner.
    let (results, failures) = spec.run(0).expect("valid spec");
    assert!(failures.is_empty(), "batch jobs failed: {failures:?}");
    let batch_csv = spec.results_table(&results).to_csv().into_bytes();

    let server = TestServer::start();

    // First pass: everything simulates (the cache is cold).
    let (id, status) = run_sweep(&server.addr, &spec);
    assert_eq!(field(&status, "total"), 28);
    assert_eq!(field(&status, "failed"), 0);
    let first_csv = fetch_csv(&server.addr, id);
    assert_eq!(
        first_csv,
        batch_csv,
        "server CSV differs from batch reference:\n--- server ---\n{}\n--- batch ---\n{}",
        String::from_utf8_lossy(&first_csv),
        String::from_utf8_lossy(&batch_csv)
    );
    let stats = client::get(&server.addr, "/cache/stats").expect("stats").text();
    let simulations_after_first = field(&stats, "simulations");
    assert_eq!(simulations_after_first, 28, "cold cache simulates every job once");

    // Second pass: the identical spec must be answered entirely from
    // the content-addressed cache — zero re-simulations.
    let (id2, status2) = run_sweep(&server.addr, &spec);
    assert_ne!(id2, id, "each submission gets its own sweep id");
    assert_eq!(field(&status2, "cache_hits"), 28, "every job served from cache: {status2}");
    assert_eq!(field(&status2, "failed"), 0);
    let second_csv = fetch_csv(&server.addr, id2);
    assert_eq!(second_csv, first_csv, "cached CSV must be byte-identical");
    let stats = client::get(&server.addr, "/cache/stats").expect("stats").text();
    assert_eq!(field(&stats, "simulations"), simulations_after_first, "0 re-simulations on resubmit");
    assert_eq!(field(&stats, "hits"), 28);

    server.shutdown();
}

/// The ISSUE-8 bugfix gate: a sweep spec naming the cache geometry
/// that used to `assert!` inside `SectoredCache::with_policy` (96 KiB
/// per bank, 5 ways) is rejected with a structured 400 before any job
/// is queued — zero worker panics, zero simulations, and the server
/// keeps serving afterwards.
#[test]
fn hostile_cache_geometry_is_a_structured_failure_not_a_worker_panic() {
    let server = TestServer::start();

    let hostile = br#"{"benches":["nw"],"gpu":"small","cycles":1500,
                       "l2_bytes_per_bank":98304,"l2_assoc":5}"#;
    let resp = client::post(&server.addr, "/sweeps", hostile).expect("submit");
    assert_eq!(resp.code, 400, "hostile geometry must be rejected: {}", resp.text());
    let body = resp.text();
    let error = json::parse(&body)
        .unwrap_or_else(|e| panic!("error body is not json ({e}): {body}"))
        .get("error")
        .and_then(|v| v.as_str().map(str::to_string))
        .unwrap_or_else(|| panic!("error body lacks 'error': {body}"));
    assert!(error.contains("l2_bytes_per_bank/l2_assoc"), "error names the field group: {error}");

    // Nothing was queued and nothing simulated.
    let stats = client::get(&server.addr, "/cache/stats").expect("stats").text();
    assert_eq!(field(&stats, "simulations"), 0);
    assert_eq!(field(&stats, "failures"), 0);

    // The pool is not poisoned: a well-formed sweep (including a valid
    // geometry override) still runs to completion with zero failures.
    let mut spec = SweepSpec {
        benches: vec!["nw".into()],
        schemes: vec![secmem_core::SecurityScheme::Baseline],
        gpu: secmem_bench::sweep::GpuPreset::Small,
        cycles: 1_500,
        warmup: 0,
        seed: secmem_workloads::suite::DEFAULT_SEED,
        sample_interval: None,
        l2_bytes_per_bank: None,
        l2_assoc: None,
    };
    spec.l2_bytes_per_bank = Some(64 * 1024);
    spec.l2_assoc = Some(8);
    let (_, status) = run_sweep(&server.addr, &spec);
    assert_eq!(field(&status, "failed"), 0, "valid override sweep succeeds: {status}");

    server.shutdown();
}

/// Concurrent identical submissions coalesce: racing clients cost one
/// simulation per distinct job, not one per request.
#[test]
fn concurrent_identical_sweeps_coalesce_to_one_simulation_each() {
    let spec = SweepSpec {
        benches: vec!["nw".into()],
        schemes: vec![secmem_core::SecurityScheme::Baseline, secmem_core::SecurityScheme::CtrMacBmt],
        gpu: secmem_bench::sweep::GpuPreset::Small,
        cycles: 1_500,
        warmup: 0,
        seed: secmem_workloads::suite::DEFAULT_SEED,
        sample_interval: None,
        l2_bytes_per_bank: None,
        l2_assoc: None,
    };
    let server = TestServer::start();
    let addr = Arc::new(server.addr.clone());
    let failures = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let failures = failures.clone();
            let spec = spec.clone();
            std::thread::spawn(move || {
                let (_, status) = run_sweep(&addr, &spec);
                if field(&status, "failed") != 0 {
                    failures.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    assert_eq!(failures.load(Ordering::SeqCst), 0);
    let stats = client::get(&server.addr, "/cache/stats").expect("stats").text();
    assert_eq!(
        field(&stats, "simulations"),
        2,
        "4 racing clients × 2 jobs ran exactly 2 simulations: {stats}"
    );
    server.shutdown();
}

/// The chunked progress stream delivers one NDJSON event per job, with
/// telemetry-fed byte counters when sampling is on.
#[test]
fn progress_stream_delivers_one_event_per_job_with_telemetry() {
    let spec = SweepSpec {
        benches: vec!["nw".into()],
        schemes: vec![secmem_core::SecurityScheme::Baseline, secmem_core::SecurityScheme::CtrMacBmt],
        gpu: secmem_bench::sweep::GpuPreset::Small,
        cycles: 1_500,
        warmup: 0,
        seed: secmem_workloads::suite::DEFAULT_SEED,
        sample_interval: Some(256),
        l2_bytes_per_bank: None,
        l2_assoc: None,
    };
    let server = TestServer::start();
    let resp = client::post(&server.addr, "/sweeps", render_sweep_spec(&spec).as_bytes()).expect("submit");
    assert_eq!(resp.code, 200);
    let id = field(&resp.text(), "sweep");

    // Stream while the sweep runs; the server blocks the stream until
    // all events are delivered, so this also synchronizes completion.
    let mut collected = Vec::new();
    let code = client::stream_get(&server.addr, &format!("/sweeps/{id}/stream"), &mut |data| {
        collected.extend_from_slice(data);
    })
    .expect("stream");
    assert_eq!(code, 200);
    let text = String::from_utf8(collected).expect("utf-8 events");
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), 2, "one event per job: {text:?}");
    for line in &lines {
        let event = json::parse(line).unwrap_or_else(|e| panic!("bad event {line:?}: {e}"));
        assert_eq!(event.get("sweep").and_then(Json::as_u64), Some(id));
        assert_eq!(event.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(event.get("bench").and_then(Json::as_str), Some("nw"));
        assert!(
            event.get("dram_bytes").and_then(Json::as_u64).is_some_and(|b| b > 0),
            "telemetry-fed dram byte counter missing: {line}"
        );
    }
    // Final done counter matches the job count.
    let last = json::parse(lines[1]).expect("parses");
    assert_eq!(last.get("done").and_then(Json::as_u64), Some(2));
    server.shutdown();
}

/// Error paths answer with typed JSON and the right status codes.
#[test]
fn http_error_paths() {
    let server = TestServer::start();

    let resp = client::post(&server.addr, "/sweeps", b"{\"benches\":[]}").expect("post");
    assert_eq!(resp.code, 400, "empty bench list: {}", resp.text());
    let resp = client::post(&server.addr, "/sweeps", b"not json at all").expect("post");
    assert_eq!(resp.code, 400);
    let resp = client::post(&server.addr, "/sweeps", b"{\"benches\":[\"nw\"],\"cycels\":1}").expect("post");
    assert_eq!(resp.code, 400, "unknown key is rejected: {}", resp.text());
    assert!(resp.text().contains("cycels"), "error names the bad key: {}", resp.text());

    let resp = client::get(&server.addr, "/sweeps/999").expect("get");
    assert_eq!(resp.code, 404);
    let resp = client::get(&server.addr, "/sweeps/999/results").expect("get");
    assert_eq!(resp.code, 404);
    let resp = client::get(&server.addr, "/nope").expect("get");
    assert_eq!(resp.code, 404);
    let resp = client::get(&server.addr, "/health").expect("get");
    assert_eq!(resp.code, 200);
    assert!(resp.text().contains("\"status\":\"ok\""));

    // Results for a still-running sweep: 409. Use a sweep big enough to
    // still be in flight right after submission.
    let spec = SweepSpec {
        benches: vec!["fdtd2d".into()],
        schemes: vec![secmem_core::SecurityScheme::CtrMacBmt],
        gpu: secmem_bench::sweep::GpuPreset::Small,
        cycles: 200_000,
        warmup: 0,
        seed: secmem_workloads::suite::DEFAULT_SEED,
        sample_interval: None,
        l2_bytes_per_bank: None,
        l2_assoc: None,
    };
    let resp = client::post(&server.addr, "/sweeps", render_sweep_spec(&spec).as_bytes()).expect("submit");
    assert_eq!(resp.code, 200);
    let id = field(&resp.text(), "sweep");
    let resp = client::get(&server.addr, &format!("/sweeps/{id}/results")).expect("get");
    assert!(
        resp.code == 409 || resp.code == 200,
        "running sweep results are 409 (or 200 if it finished first), got {}",
        resp.code
    );
    server.shutdown();
}

/// A one-job sweep of `bench` under `scheme` on the small GPU.
fn one_job_spec(bench: &str, scheme: secmem_core::SecurityScheme, cycles: u64) -> SweepSpec {
    SweepSpec {
        benches: vec![bench.into()],
        schemes: vec![scheme],
        gpu: secmem_bench::sweep::GpuPreset::Small,
        cycles,
        warmup: 0,
        seed: secmem_workloads::suite::DEFAULT_SEED,
        sample_interval: None,
        l2_bytes_per_bank: None,
        l2_assoc: None,
    }
}

/// Submits a spec and returns its sweep id.
fn submit(addr: &str, spec: &SweepSpec) -> u64 {
    let resp = client::post(addr, "/sweeps", render_sweep_spec(spec).as_bytes()).expect("submit");
    assert_eq!(resp.code, 200, "submit failed: {}", resp.text());
    field(&resp.text(), "sweep")
}

/// `GET /sweeps/{id}/stream` to its end: `(status code, body)`.
fn stream_to_end(addr: &str, id: u64) -> (u16, String) {
    let mut body = Vec::new();
    let code = client::stream_get(addr, &format!("/sweeps/{id}/stream"), &mut |data| {
        body.extend_from_slice(data);
    })
    .expect("stream");
    (code, String::from_utf8(body).expect("utf-8 body"))
}

/// Past [`FINISHED_SWEEPS_KEPT`] finished sweeps, the ones that finished
/// first expire: every endpoint answers 410 for them, 404 still means
/// "never issued", the retained sweeps keep their CSVs, and a sweep
/// that is still running is never evicted.
#[test]
fn finished_sweeps_beyond_the_bound_expire_and_running_ones_stay() {
    // Two workers: the long job holds one, the quick sweeps (cache hits
    // included) run on the other.
    let server = TestServer::start_with(ServerConfig {
        addr: "127.0.0.1:0".into(),
        sim_workers: 2,
        ..ServerConfig::default()
    });
    let addr = server.addr.as_str();
    // A billion cycles simulate for tens of minutes (about 2 µs a cycle
    // on one core), so this sweep is still running whatever the timing.
    // The server is therefore never shut down, since shutdown waits for
    // queued simulations; its threads end with the test process.
    let running =
        submit(addr, &one_job_spec("fdtd2d", secmem_core::SecurityScheme::CtrMacBmt, 1_000_000_000));

    // The first quick sweep simulates; every later one is a cache hit.
    let quick = one_job_spec("nw", secmem_core::SecurityScheme::Baseline, 1_500);
    let mut ids = Vec::new();
    let mut first_csv = Vec::new();
    for _ in 0..FINISHED_SWEEPS_KEPT + 3 {
        let id = submit(addr, &quick);
        // The stream ends once the sweep has finished.
        assert_eq!(stream_to_end(addr, id).0, 200);
        if ids.is_empty() {
            first_csv = fetch_csv(addr, id);
        }
        ids.push(id);
    }

    // The three that finished first are gone from every endpoint.
    for &id in &ids[..3] {
        let expired = format!("{{\"error\":\"sweep {id} expired\"}}");
        for path in [format!("/sweeps/{id}"), format!("/sweeps/{id}/results")] {
            let resp = client::get(addr, &path).expect("get");
            assert_eq!((resp.code, resp.text()), (410, expired.clone()), "{path}");
        }
        assert_eq!(stream_to_end(addr, id), (410, expired));
    }
    // The retained ones still serve the same bytes.
    for &id in &ids[3..] {
        assert_eq!(fetch_csv(addr, id), first_csv, "sweep {id}");
    }
    // Ids never issued are still unknown, not expired.
    let unissued = ids[ids.len() - 1] + 1;
    for path in ["/sweeps/0".to_string(), format!("/sweeps/{unissued}"), format!("/sweeps/{unissued}/stream")]
    {
        assert_eq!(client::get(addr, &path).expect("get").code, 404, "{path}");
    }
    // The long sweep outlived three evictions and is still there.
    let status = client::get(addr, &format!("/sweeps/{running}")).expect("status");
    assert_eq!(status.code, 200);
    let complete = json::parse(&status.text()).ok().and_then(|v| v.get("complete")?.as_bool());
    assert_eq!(complete, Some(false), "the long sweep must still be running: {}", status.text());

    let health = client::get(addr, "/health").expect("health").text();
    assert_eq!(field(&health, "sweeps"), FINISHED_SWEEPS_KEPT as u64 + 1, "{health}");
    assert_eq!(field(&health, "expired"), 3, "{health}");
}

/// The events of a finished sweep, replayed: `/stream` sends the same
/// bytes after the sweep finished as it did while it ran, and a cached
/// resubmission reports the same jobs with the same CSV.
#[test]
fn finished_stream_replays_the_live_bytes_and_cached_resubmission_matches() {
    let spec = SweepSpec {
        benches: vec!["nw".into(), "kmeans".into()],
        schemes: vec![secmem_core::SecurityScheme::CtrMacBmt, secmem_core::SecurityScheme::Baseline],
        gpu: secmem_bench::sweep::GpuPreset::Small,
        // Long enough that the first stream starts while the sweep runs.
        cycles: 20_000,
        warmup: 0,
        seed: secmem_workloads::suite::DEFAULT_SEED,
        sample_interval: Some(256),
        l2_bytes_per_bank: None,
        l2_assoc: None,
    };
    // One worker answers the jobs in order, so each job's `done` count
    // is the same in both sweeps.
    let server = TestServer::start_with(ServerConfig {
        addr: "127.0.0.1:0".into(),
        sim_workers: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr.as_str();
    let first = submit(addr, &spec);
    let (code, live) = stream_to_end(addr, first);
    assert_eq!(code, 200);
    assert_eq!(stream_to_end(addr, first), (200, live.clone()), "a finished sweep replays its stream");

    let second = submit(addr, &spec);
    let (code, cached) = stream_to_end(addr, second);
    assert_eq!(code, 200);
    assert_eq!(fetch_csv(addr, second), fetch_csv(addr, first), "cached CSV is byte-identical");

    // Each sweep's events by job index, without the fields that must
    // differ; `sweep` and `cached` are checked on their own.
    let by_job = |text: &str, id: u64, cached: bool| {
        let mut events: Vec<(u64, String)> = text
            .lines()
            .map(|line| {
                let event = json::parse(line).unwrap_or_else(|e| panic!("bad event {line:?}: {e}"));
                assert_eq!(event.get("sweep").and_then(Json::as_u64), Some(id), "{line}");
                assert_eq!(event.get("cached").and_then(Json::as_bool), Some(cached), "{line}");
                assert_eq!(event.get("ok").and_then(Json::as_bool), Some(true), "{line}");
                assert!(event.get("dram_bytes").and_then(Json::as_u64).is_some_and(|b| b > 0), "{line}");
                let job = event.get("job").and_then(Json::as_u64).expect("job index");
                let rest = line
                    .replace(&format!("\"sweep\":{id},"), "")
                    .replace(&format!(",\"cached\":{cached}"), "");
                (job, rest)
            })
            .collect();
        events.sort();
        events
    };
    let first_events = by_job(&live, first, false);
    assert_eq!(first_events.len(), spec.job_count());
    let jobs: Vec<u64> = first_events.iter().map(|(job, _)| *job).collect();
    assert_eq!(jobs, [0, 1, 2, 3]);
    assert!(first_events[1].1.contains("\"bench\":\"nw\",\"scheme\":\"baseline\""), "{:?}", first_events[1]);
    assert!(first_events[2].1.contains("\"bench\":\"kmeans\",\"scheme\":\"ctr_mac_bmt\""));
    assert_eq!(by_job(&cached, second, true), first_events);

    // A different spec finishing next keeps its own CSV, not the one the
    // identical sweeps share.
    let other = SweepSpec { benches: vec!["nw".into()], ..spec };
    let (results, failures) = other.run(1).expect("valid spec");
    assert!(failures.is_empty(), "batch jobs failed: {failures:?}");
    let third = submit(addr, &other);
    assert_eq!(stream_to_end(addr, third).0, 200);
    assert_eq!(fetch_csv(addr, third), other.results_table(&results).to_csv().into_bytes());
    server.shutdown();
}
