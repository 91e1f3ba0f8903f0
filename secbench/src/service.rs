//! The `sweep_service` workload: the pinned 4x7 sweep through an
//! in-process `secmem-serve` on loopback, driven by one closed-loop
//! client connection at a time.
//!
//! Set-up renders the request and starts two servers. The measured phase
//! first computes the expected results with `SweepSpec::run` (the
//! server-free reference), then makes a series of passes. Each pass
//! submits the full sweep cold, with warmup and telemetry sampling on:
//! the first pass to the server that later answers from its cache, the
//! others to a server whose cache holds a single entry, so that every
//! job simulates again. Each pass then resubmits the identical spec
//! [`CACHED_PER_PASS`] times to the caching server, so every one of those
//! jobs is a cache hit. A traced run adds a serial pass over the same
//! jobs through the timed wrappers, so the simulation layers the server
//! runs are attributed too.
//!
//! The cached round-trip percentiles are taken over every raw round
//! trip. The cold sweeps' simulation rate takes each job's best service
//! time over the cold sweeps: on a shared host that is the figure least
//! disturbed by other tenants.

use std::collections::BTreeMap;
use std::thread::JoinHandle;
use std::time::Instant;

use secmem_bench::sweep::{report_fingerprint, SweepSpec};
use secmem_bench::RunResult;
use secmem_gpusim::kernel::Kernel;
use secmem_serve::json::{self, Json};
use secmem_serve::spec::render_sweep_spec;
use secmem_serve::{client, ServeError, Server, ServerConfig};

use crate::cells::{run_cell, CellPlan, Source};
use crate::layers::CellClock;
use crate::metrics::{median, num, quantile, ratio, Outcome};
use crate::simwork::{set_layer_values, set_sim_counts, LayerTotals};
use crate::SplitMix;

/// Cycle budget per sweep job.
pub const SWEEP_CYCLES: u64 = 10_000;
/// Warmup cycles per sweep job.
pub const SWEEP_WARMUP: u64 = 2_000;
/// Telemetry sampling interval per sweep job.
pub const SWEEP_SAMPLE_INTERVAL: u64 = 500;
/// Simulation workers in the server. One worker runs the jobs in
/// submission order, so the gap between two progress events is one
/// job's service time.
pub const SIM_WORKERS: usize = 1;
/// Cached resubmissions of the full spec per pass. A run makes at least
/// three passes, so at least 15 of its round trips lie beyond the 95th
/// percentile.
pub const CACHED_PER_PASS: usize = 100;
/// Passes per second of `--seconds`; a pass is one cold sweep and
/// [`CACHED_PER_PASS`] cached ones. Like the simulation workloads, a
/// run's work is fixed by its arguments, sized to last about `--seconds`
/// on a 2-vCPU host.
pub const PASSES_PER_S: f64 = 1.0;
/// Passes per set-up repetition and reference batch. A batch costs about
/// half a pass, so it is repeated less often than the simulation
/// workloads repeat their set-up.
pub const SETUP_EVERY: usize = 2;

/// `items` in an order drawn from `rng`.
fn shuffled<T: Clone>(items: &[T], rng: &mut SplitMix) -> Vec<T> {
    rng.permutation(items.len()).into_iter().map(|i| items[i].clone()).collect()
}

/// The full sweep: the pinned matrix with warmup and sampling on, its
/// benchmark and scheme order drawn from `rng`. The order changes the
/// request body, the job schedule and the CSV row order; the simulated
/// jobs stay the pinned ones.
pub fn sweep_spec(rng: &mut SplitMix) -> SweepSpec {
    let mut spec = SweepSpec::pinned_matrix();
    spec.cycles = SWEEP_CYCLES;
    spec.warmup = SWEEP_WARMUP;
    spec.sample_interval = Some(SWEEP_SAMPLE_INTERVAL);
    spec.benches = shuffled(&spec.benches, rng);
    spec.schemes = shuffled(&spec.schemes, rng);
    spec
}

/// The server-free reference result of a sweep.
pub struct Oracle {
    /// Every job's result, in spec order.
    pub results: Vec<RunResult>,
    /// Report fingerprint per `(bench, scheme)`.
    pub fps: BTreeMap<(String, String), u64>,
    /// Simulated cycles per `(bench, scheme)`, warmup included.
    pub cycles: BTreeMap<(String, String), u64>,
}

impl Oracle {
    /// Runs `spec` as a batch on `workers` threads.
    ///
    /// # Errors
    ///
    /// A message when the spec is invalid or a job fails.
    pub fn batch(spec: &SweepSpec, workers: usize) -> Result<Self, String> {
        let (results, failures) = spec.run(workers).map_err(|e| e.to_string())?;
        if let Some(first) = failures.first() {
            return Err(format!("{} batch job(s) failed: {first}", failures.len()));
        }
        let key = |r: &RunResult| (r.bench.clone(), r.label.clone());
        let fps = results.iter().map(|r| (key(r), report_fingerprint(&r.report))).collect();
        // `run_with_warmup` counts its budget from cycle 0, warmup included.
        let cycles = results.iter().map(|r| (key(r), r.report.cycles + spec.warmup)).collect();
        Ok(Self { results, fps, cycles })
    }

    /// The CSV the server must return for `spec`.
    pub fn csv(&self, spec: &SweepSpec) -> Vec<u8> {
        spec.results_table(&self.results).to_csv().into_bytes()
    }
}

/// An in-process server on an ephemeral loopback port. Dropping it
/// shuts the server down and joins its thread.
pub struct Running {
    /// `host:port` the server listens on.
    pub addr: String,
    handle: Option<JoinHandle<Result<(), ServeError>>>,
}

impl Running {
    /// Binds a server whose result cache holds `cache_capacity` entries
    /// and waits until it answers `/health`.
    ///
    /// # Errors
    ///
    /// A message when binding fails or the server does not answer.
    pub fn start(cache_capacity: usize) -> Result<Self, String> {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            sim_workers: SIM_WORKERS,
            http_threads: 2,
            cache_capacity,
            sim_threads: 1,
        };
        let server = Server::bind(&cfg).map_err(|e| e.to_string())?;
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        let running = Self { addr, handle: Some(handle) };
        let health = client::get(&running.addr, "/health").map_err(|e| format!("health: {e}"))?;
        if health.code != 200 {
            return Err(format!("health answered {}", health.code));
        }
        Ok(running)
    }

    /// `GET /cache/stats` as parsed JSON.
    fn stats(&self) -> Result<Json, String> {
        let resp = client::get(&self.addr, "/cache/stats").map_err(|e| format!("stats: {e}"))?;
        if resp.code != 200 {
            return Err(format!("stats answered {}", resp.code));
        }
        json::parse(&resp.text()).map_err(|e| format!("stats body: {e}"))
    }

    /// Shuts the server down and joins it.
    ///
    /// # Errors
    ///
    /// A message when the shutdown request or the server thread fails.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else { return Ok(()) };
        let resp = client::post(&self.addr, "/shutdown", b"");
        let joined = handle.join();
        match (resp, joined) {
            (Err(e), _) => Err(format!("shutdown: {e}")),
            (Ok(r), _) if r.code != 200 => Err(format!("shutdown answered {}", r.code)),
            (_, Ok(Ok(()))) => Ok(()),
            (_, Ok(Err(e))) => Err(format!("server: {e}")),
            (_, Err(_)) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Err(e) = self.shutdown() {
            eprintln!("[secbench] server teardown: {e}");
        }
    }
}

/// A round trip's phase times in host seconds.
#[derive(Debug, Clone, Copy)]
struct Timing {
    post_s: f64,
    first_event_s: f64,
    stream_s: f64,
    results_s: f64,
    total_s: f64,
}

/// One POST, stream and results round trip.
struct Trip {
    timing: Timing,
    /// Stream chunks with their arrival, in seconds after the POST began.
    chunks: Vec<(f64, Vec<u8>)>,
    csv: Vec<u8>,
}

fn round_trip(addr: &str, body: &[u8]) -> Result<Trip, String> {
    let t0 = Instant::now();
    let resp = client::post(addr, "/sweeps", body).map_err(|e| format!("post: {e}"))?;
    if resp.code != 200 {
        return Err(format!("post answered {}: {}", resp.code, resp.text()));
    }
    let id = json::parse(&resp.text())
        .ok()
        .and_then(|v| v.get("sweep").and_then(Json::as_u64))
        .ok_or_else(|| format!("post body lacks a sweep id: {}", resp.text()))?;
    let t1 = Instant::now();
    let mut chunks = Vec::new();
    let code = client::stream_get(addr, &format!("/sweeps/{id}/stream"), &mut |data| {
        chunks.push(((Instant::now() - t0).as_secs_f64(), data.to_vec()));
    })
    .map_err(|e| format!("stream: {e}"))?;
    if code != 200 {
        return Err(format!("stream answered {code}"));
    }
    let t2 = Instant::now();
    let resp = client::get(addr, &format!("/sweeps/{id}/results")).map_err(|e| format!("results: {e}"))?;
    if resp.code != 200 {
        return Err(format!("results answered {}", resp.code));
    }
    let t3 = Instant::now();
    let post_s = (t1 - t0).as_secs_f64();
    let timing = Timing {
        post_s,
        first_event_s: chunks.first().map_or(0.0, |c| c.0 - post_s),
        stream_s: (t2 - t1).as_secs_f64(),
        results_s: (t3 - t2).as_secs_f64(),
        total_s: (t3 - t0).as_secs_f64(),
    };
    Ok(Trip { timing, chunks, csv: resp.body })
}

/// The `(bench, scheme)` and fingerprint a progress event names.
fn event_key(line: &str, cached: bool) -> Option<((String, String), u64)> {
    let event = json::parse(line).ok()?;
    let text = |k: &str| event.get(k).and_then(Json::as_str).map(str::to_string);
    let ok = event.get("ok").and_then(Json::as_bool) == Some(true)
        && event.get("cached").and_then(Json::as_bool) == Some(cached);
    let fp = u64::from_str_radix(&text("fp")?, 16).ok()?;
    ok.then_some(((text("bench")?, text("scheme")?), fp))
}

/// Checks a round trip's stream and CSV for `spec` against the oracle.
fn check_trip(
    trip: &Trip,
    spec: &SweepSpec,
    expected_csv: &[u8],
    oracle: &Oracle,
    cached: bool,
    out: &mut Outcome,
) {
    let mut events = 0;
    for (_, chunk) in &trip.chunks {
        for line in String::from_utf8_lossy(chunk).lines().filter(|l| !l.is_empty()) {
            events += 1;
            let agrees = event_key(line, cached).is_some_and(|(key, fp)| oracle.fps.get(&key) == Some(&fp));
            out.check(agrees, || {
                format!("stream event {line} disagrees with the batch reference (cached={cached})")
            });
        }
    }
    out.check(events == spec.job_count(), || {
        format!("stream delivered {events} events for {} jobs", spec.job_count())
    });
    out.check(trip.csv == expected_csv, || {
        format!(
            "server CSV differs from SweepSpec::run CSV:\n{}\n--- batch ---\n{}",
            String::from_utf8_lossy(&trip.csv),
            String::from_utf8_lossy(expected_csv)
        )
    });
}

/// Each job's service time in a cold sweep: the gap before its progress
/// event, the first job's counted from when the POST was sent. A chunk
/// that carries more than one event gives none of its jobs a time.
fn job_times(trip: &Trip) -> Vec<((String, String), f64)> {
    let mut times = Vec::new();
    let mut prev = 0.0;
    for (at, chunk) in &trip.chunks {
        let text = String::from_utf8_lossy(chunk);
        let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
        if let [line] = lines.as_slice() {
            if let Some((key, _)) = event_key(line, false) {
                times.push((key, at - prev));
            }
        }
        prev = *at;
    }
    times
}

fn stat(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

/// The workload's set-up product.
pub struct Setup {
    /// The full sweep.
    pub spec: SweepSpec,
    /// The full sweep's request body.
    pub body: Vec<u8>,
    /// The server that answers the cached resubmissions (default cache
    /// capacity).
    pub warm: Running,
    /// The server whose one-entry cache makes every sweep cold.
    pub cold: Running,
}

/// Set-up: the request and two started servers.
///
/// # Errors
///
/// A message when a server cannot start.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let spec = sweep_spec(&mut SplitMix::new(seed));
    let body = render_sweep_spec(&spec).into_bytes();
    let warm = Running::start(ServerConfig::default().cache_capacity)?;
    let cold = Running::start(1)?;
    Ok(Setup { spec, body, warm, cold })
}

/// The reference batch of `spec` and its host seconds.
fn timed_batch(spec: &SweepSpec) -> Result<(Oracle, f64), String> {
    let t = Instant::now();
    let oracle = Oracle::batch(spec, SIM_WORKERS)?;
    Ok((oracle, t.elapsed().as_secs_f64()))
}

/// The measured phase: `seconds` sizes the work (halved when `trace`,
/// which adds the traced reference). It first runs the server-free
/// reference batch, against which every answer is checked. After every
/// [`SETUP_EVERY`]th pass it repeats the set-up once through `resetup`
/// and the reference batch once; returns the set-up times.
///
/// The batch is measured work, not set-up: it simulates all 28 jobs, and
/// as set-up its time would follow the host's speed as the simulation
/// does.
///
/// # Errors
///
/// A message when the reference batch, a set-up repetition or a server
/// request outside the checked exchanges fails, or a server does not
/// stop; wrong answers are counted in `out`.
pub fn measure(
    setup: Setup,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
    resetup: &mut dyn FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let Setup { spec, body, warm, cold } = setup;
    let (oracle, batch_s) = timed_batch(&spec)?;
    let csv = oracle.csv(&spec);
    let mut batch_times = vec![batch_s];
    let jobs = spec.job_count() as u64;
    let scale = if trace { seconds / 2.0 } else { seconds };
    let passes = ((scale * PASSES_PER_S).round() as usize).max(3);

    // Each pass makes one cold sweep and its cached resubmissions, so
    // the best-of and the percentiles span the whole run. The first cold
    // sweep fills the warm server's cache; the rest go to the one-entry
    // cache, where each job evicts the one before it.
    let mut cold_s = Vec::new();
    let mut best_job: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut trips = Vec::new();
    let mut setup_times = Vec::new();
    for pass in 0..passes {
        let server = if pass == 0 { &warm } else { &cold };
        match round_trip(&server.addr, &body) {
            Ok(trip) => {
                check_trip(&trip, &spec, &csv, &oracle, false, out);
                for (key, t) in job_times(&trip) {
                    let best = best_job.entry(key).or_insert(t);
                    *best = best.min(t);
                }
                cold_s.push(trip.timing.total_s);
            }
            Err(e) => out.check(false, || format!("cold sweep: {e}")),
        }
        if pass == 0 {
            let stats = warm.stats()?;
            out.check(stat(&stats, "simulations") == jobs, || {
                format!("cold sweep ran {} simulations, expected {jobs}", stat(&stats, "simulations"))
            });
        }
        for _ in 0..CACHED_PER_PASS {
            match round_trip(&warm.addr, &body) {
                Ok(trip) => {
                    check_trip(&trip, &spec, &csv, &oracle, true, out);
                    trips.push(trip.timing);
                }
                Err(e) => out.check(false, || format!("cached sweep: {e}")),
            }
        }
        if pass % SETUP_EVERY == SETUP_EVERY - 1 {
            setup_times.push(resetup()?);
            let (again, batch_s) = timed_batch(&spec)?;
            out.check(again.fps == oracle.fps, || {
                "a repeated reference batch disagrees with the first".into()
            });
            batch_times.push(batch_s);
        }
    }
    let cold_stats = cold.stats()?;
    let recomputed = jobs * (passes as u64 - 1);
    out.check(stat(&cold_stats, "simulations") == recomputed, || {
        format!("one-entry cache ran {} simulations, expected {recomputed}", stat(&cold_stats, "simulations"))
    });
    cold.stop()?;
    let stats = warm.stats()?;
    out.check(stat(&stats, "simulations") == jobs, || {
        format!("cached requests re-simulated: {} simulations, expected {jobs}", stat(&stats, "simulations"))
    });
    let cached_jobs = trips.len() as u64 * jobs;
    out.check(stat(&stats, "hits") == cached_jobs, || {
        format!("cache hits {} != {cached_jobs} cached jobs requested", stat(&stats, "hits"))
    });
    warm.stop()?;

    // The rate over the jobs the event stream timed: a job whose event
    // always shared a chunk with another's has no time, and is left out
    // of both sums rather than counted as free.
    let timed_cycles: u64 = best_job.keys().filter_map(|k| oracle.cycles.get(k)).sum();
    let best_cold_s: f64 = best_job.values().sum();
    let sum = |f: fn(&Timing) -> f64| trips.iter().map(f).sum::<f64>();
    let all = sum(|t| t.total_s);
    let ms = |f: fn(&Timing) -> f64| trips.iter().map(|t| f(t) * 1e3).collect::<Vec<f64>>();
    let round_trips_ms = ms(|t| t.total_s);
    let v = &mut out.values;
    v.set("sim_cycles_per_s", ratio(timed_cycles as f64, best_cold_s));
    v.set("op_p50_ms", quantile(&round_trips_ms, 0.5));
    v.set("op_p95_ms", quantile(&round_trips_ms, 0.95));
    v.set("ops.samples", round_trips_ms.len() as f64);
    v.set("passes", cold_s.len() as f64);
    v.set("serve.post_share", ratio(sum(|t| t.post_s), all));
    v.set("serve.first_event_share", ratio(sum(|t| t.first_event_s), all));
    v.set("serve.stream_share", ratio(sum(|t| t.stream_s), all));
    v.set("serve.results_share", ratio(sum(|t| t.results_s), all));
    // The least-disturbed cold sweep against the least-disturbed batch of
    // the same jobs: what the server adds to the simulations.
    let fastest = |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min);
    let (best_sweep_s, best_batch_s) = (fastest(&cold_s), fastest(&batch_times));
    v.set("serve.overhead_frac", ratio(best_sweep_s - best_batch_s, best_sweep_s));
    let hits = stat(&stats, "hits") as f64;
    let misses = stat(&stats, "misses") as f64;
    v.set("serve.cache.hits", hits);
    v.set("serve.cache.misses", misses);
    v.set("serve.cache.coalesced", stat(&stats, "coalesced") as f64);
    v.set("serve.cache.evictions", stat(&cold_stats, "evictions") as f64);
    v.set("serve.cache.hit_ratio", ratio(hits, hits + misses));
    v.set("serve.simulations", (stat(&stats, "simulations") + stat(&cold_stats, "simulations")) as f64);
    v.set("serve.cached_requests", trips.len() as f64);
    let reports: Vec<_> = oracle.results.iter().map(|r| r.report.clone()).collect();
    set_sim_counts(&reports, out);

    out.detail(
        "service",
        format!(
            "{{\"cold_sweeps\": {}, \"median_cold_sweep_s\": {}, \"timed_jobs\": {}, \"jobs\": {jobs}, \
             \"best_job_sum_s\": {}, \"sweep_jobs_per_s\": {}, \"bench.sweep.batch_s\": {}, \
             \"batches\": {}, \"serve.overhead_s\": {}, \
             \"cached_requests\": {}, \"cached_sweep_p50_ms\": {}, \"cached_sweep_p95_ms\": {}, \
             \"serve.post_ms_p50\": {}, \"serve.first_event_ms_p50\": {}, \"serve.results_ms_p50\": {}, \
             \"sim_workers\": {SIM_WORKERS}}}",
            cold_s.len(),
            num(median(&cold_s)),
            best_job.len(),
            num(best_cold_s),
            num(ratio(jobs as f64, median(&cold_s))),
            num(best_batch_s),
            batch_times.len(),
            num(best_sweep_s - best_batch_s),
            trips.len(),
            num(quantile(&round_trips_ms, 0.5)),
            num(quantile(&round_trips_ms, 0.95)),
            num(median(&ms(|t| t.post_s))),
            num(median(&ms(|t| t.first_event_s))),
            num(median(&ms(|t| t.results_s))),
        ),
    );

    if trace {
        traced_reference(&spec, &oracle, out);
    }
    Ok(setup_times)
}

/// Passes of the serial reference a traced run makes, untraced and
/// traced each.
const REFERENCE_PASSES: usize = 2;

/// Runs the sweep's jobs serially, untraced and then through the timed
/// wrappers, checking each against the oracle.
fn traced_reference(spec: &SweepSpec, oracle: &Oracle, out: &mut Outcome) {
    let jobs = match spec.jobs() {
        Ok(jobs) => jobs,
        Err(e) => return out.check(false, || format!("spec expansion: {e}")),
    };
    let plans: Vec<(String, String, CellPlan<'_>)> = jobs
        .iter()
        .map(|job| {
            let plan = CellPlan {
                kernel: &job.kernel,
                source: Source::Synthetic,
                backend: &job.backend,
                gpu: &job.gpu,
                warmup: job.warmup,
                cycles: job.cycles,
                telemetry: job.telemetry.clone(),
                slice: None,
            };
            (job.kernel.name().to_string(), job.label.clone(), plan)
        })
        .collect();
    let expected =
        |bench: &String, scheme: &String| oracle.fps.get(&(bench.clone(), scheme.clone())).copied();

    let mut untraced = Vec::new();
    for _ in 0..REFERENCE_PASSES {
        let mut wall = 0.0;
        for (bench, scheme, plan) in &plans {
            let run = run_cell(plan, None);
            out.check(Some(run.fp) == expected(bench, scheme), || {
                format!("{bench}/{scheme}: serial fp {:016x} disagrees with the batch", run.fp)
            });
            wall += run.run_s;
        }
        untraced.push(wall);
    }
    let mut totals = LayerTotals::calibrated();
    for _ in 0..REFERENCE_PASSES {
        for (bench, scheme, plan) in &plans {
            let clock = CellClock::default();
            let run = run_cell(plan, Some(&clock));
            out.check(Some(run.fp) == expected(bench, scheme), || {
                format!("{bench}/{scheme}: traced fp {:016x} disagrees with the batch", run.fp)
            });
            totals.record(&format!("{bench}/{scheme}"), &clock, &run, out);
        }
        totals.passes += 1;
    }
    set_layer_values(&totals, median(&untraced), out);
}
