//! The sweep server: accepts HTTP connections on a bounded thread pool,
//! expands submitted sweep specs into jobs on the work-stealing
//! simulation pool, and answers repeated specs from the
//! content-addressed result cache.
//!
//! Request flow:
//!
//! ```text
//! client ──HTTP──▶ http pool ──POST /sweeps──▶ SweepSpec::jobs()
//!                                   │ one task per job
//!                                   ▼
//!                        work-stealing sim pool
//!                                   │ cache.get_or_compute(job_fingerprint)
//!                                   ▼
//!                  ResultCache ──miss──▶ run_job_isolated + WarmCache
//! ```
//!
//! Every job funnels through [`ResultCache::get_or_compute`], so a
//! repeated submission — or two clients racing the same spec — costs
//! zero extra simulations; the `simulations` counter exposed by
//! `GET /cache/stats` proves it.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use secmem_bench::sweep::{job_fingerprint, report_fingerprint, SweepSpec};
use secmem_bench::{run_job_isolated, Job, RunResult, WarmCache};
use secmem_gpusim::kernel::Kernel;

use crate::cache::{CacheRole, ResultCache};
use crate::http;
use crate::json;
use crate::queue::WorkPool;
use crate::spec::{parse_sweep_spec, render_sweep_spec};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks a free one).
    pub addr: String,
    /// Simulation worker threads (0 = available parallelism).
    pub sim_workers: usize,
    /// HTTP connection-handler threads.
    pub http_threads: usize,
    /// Result-cache capacity in entries (0 = unbounded).
    pub cache_capacity: usize,
    /// Ignored: the simulator steps each cycle on one thread. Kept only
    /// so code that builds a `ServerConfig` literal still compiles.
    pub sim_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8642".into(),
            sim_workers: 0,
            http_threads: 4,
            cache_capacity: 4096,
            sim_threads: 1,
        }
    }
}

/// Binding or serving failed.
#[derive(Debug)]
pub enum ServeError {
    /// A socket or thread-spawn operation failed.
    Io(std::io::Error),
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "server i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One submitted sweep and its progress.
struct SweepEntry {
    id: u64,
    spec: SweepSpec,
    total: usize,
    state: Mutex<SweepProgress>,
    /// Signaled on every job completion (status pollers, streamers).
    cond: Condvar,
}

struct SweepProgress {
    done: usize,
    failed: usize,
    /// Jobs served from the cache (hit or coalesced) instead of computed.
    cache_hits: usize,
    /// One slot per job, spec order; `None` until done (or failed).
    results: Vec<Option<Arc<RunResult>>>,
    /// One JSON line per completed job, appended in completion order.
    events: Vec<String>,
}

impl SweepEntry {
    fn lock(&self) -> MutexGuard<'_, SweepProgress> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared server state: the cache, the sweeps, and the counters.
struct ServerState {
    cache: ResultCache<RunResult>,
    /// Warm-checkpoint forks shared across all jobs (PR 6).
    warm: WarmCache,
    sweeps: Mutex<BTreeMap<u64, Arc<SweepEntry>>>,
    next_sweep: AtomicU64,
    /// Simulations actually executed (cache misses that ran). The
    /// end-to-end determinism gate asserts this does NOT grow on a
    /// repeated submission.
    simulations: AtomicU64,
    draining: AtomicBool,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl ServerState {
    fn sweeps(&self) -> MutexGuard<'_, BTreeMap<u64, Arc<SweepEntry>>> {
        self.sweeps.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The sweep server. [`Server::bind`] then [`Server::run`]; `run`
/// returns after a `POST /shutdown` has drained the pools.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    http_pool: WorkPool,
    sim_pool: Arc<WorkPool>,
}

impl Server {
    /// Binds the listener and spawns both thread pools.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the address cannot be bound or threads
    /// cannot be spawned.
    pub fn bind(cfg: &ServerConfig) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&cfg.addr).map_err(ServeError::Io)?;
        let addr = listener.local_addr().map_err(ServeError::Io)?;
        let sim_workers = if cfg.sim_workers == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            cfg.sim_workers
        };
        let state = Arc::new(ServerState {
            cache: ResultCache::new(cfg.cache_capacity),
            warm: WarmCache::new(),
            sweeps: Mutex::new(BTreeMap::new()),
            next_sweep: AtomicU64::new(1),
            simulations: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            addr,
        });
        let http_pool = WorkPool::try_new(cfg.http_threads.max(1)).map_err(ServeError::Io)?;
        let sim_pool = Arc::new(WorkPool::try_new(sim_workers).map_err(ServeError::Io)?);
        Ok(Self { listener, state, http_pool, sim_pool })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serves until shutdown: accepts connections and hands each to the
    /// HTTP pool. On `POST /shutdown`, stops accepting, completes queued
    /// simulations, and joins the HTTP pool.
    ///
    /// # Errors
    ///
    /// Currently infallible after bind (accept errors on individual
    /// connections are skipped); typed for forward compatibility.
    pub fn run(self) -> Result<(), ServeError> {
        let Server { listener, state, http_pool, sim_pool } = self;
        for stream in listener.incoming() {
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            let state = state.clone();
            let sim_pool = sim_pool.clone();
            http_pool.submit(move || handle_connection(&state, &sim_pool, &mut stream));
        }
        // Graceful teardown: finish in-flight HTTP exchanges and queued
        // simulations, then release the workers.
        http_pool.shutdown();
        sim_pool.drain();
        sim_pool.stop();
        Ok(())
    }
}

/// Runs one job through the cache, recording progress on its sweep.
fn execute_job(state: &ServerState, entry: &SweepEntry, index: usize, job: &Job) {
    let fp = job_fingerprint(job);
    let (result, role) = state.cache.get_or_compute(fp, || {
        state.simulations.fetch_add(1, Ordering::SeqCst);
        run_job_isolated(job, &state.warm).ok()
    });

    let mut progress = entry.lock();
    progress.done += 1;
    let cached = role != CacheRole::Computed;
    if cached {
        progress.cache_hits += 1;
    }
    let mut event = format!(
        "{{\"sweep\":{},\"job\":{},\"bench\":\"{}\",\"scheme\":\"{}\",\"done\":{},\"total\":{},\"cached\":{}",
        entry.id,
        index,
        json::escape(job.kernel.name()),
        json::escape(&job.label),
        progress.done,
        entry.total,
        cached
    );
    match &result {
        Some(r) => {
            event.push_str(&format!(",\"ok\":true,\"fp\":\"{:016x}\"", report_fingerprint(&r.report)));
            if let Some(snap) = &r.telemetry {
                if let Some(series) = snap.series("dram.data_bytes") {
                    event.push_str(&format!(",\"dram_bytes\":{}", series.total() as u64));
                }
            }
        }
        None => {
            progress.failed += 1;
            event.push_str(",\"ok\":false");
        }
    }
    event.push('}');
    progress.results[index] = result;
    progress.events.push(event);
    drop(progress);
    entry.cond.notify_all();
}

fn err_body(message: &str) -> Vec<u8> {
    format!("{{\"error\":\"{}\"}}", json::escape(message)).into_bytes()
}

/// Parses and dispatches one connection (one request: all responses are
/// `Connection: close`). Write failures are ignored — the client hung up.
fn handle_connection(state: &Arc<ServerState>, sim_pool: &Arc<WorkPool>, stream: &mut TcpStream) {
    let request = match http::read_request(stream) {
        Ok(r) => r,
        Err(e) => {
            let _ = http::write_response(stream, 400, "application/json", &err_body(&e.to_string()));
            return;
        }
    };
    let target = request.target.split('?').next().unwrap_or("");
    let parts: Vec<&str> = target.split('/').filter(|p| !p.is_empty()).collect();
    let outcome = match (request.method.as_str(), parts.as_slice()) {
        ("GET", ["health"]) => get_health(state, sim_pool, stream),
        ("POST", ["sweeps"]) => post_sweep(state, sim_pool, stream, &request.body),
        ("GET", ["sweeps", id]) => get_sweep_status(state, stream, id),
        ("GET", ["sweeps", id, "results"]) => get_sweep_results(state, stream, id),
        ("GET", ["sweeps", id, "stream"]) => get_sweep_stream(state, stream, id),
        ("GET", ["cache", "stats"]) => get_cache_stats(state, stream),
        ("POST", ["drain"]) => post_drain(state, sim_pool, stream),
        ("POST", ["shutdown"]) => post_shutdown(state, stream),
        (_, ["health" | "sweeps" | "cache" | "drain" | "shutdown", ..]) => {
            http::write_response(stream, 405, "application/json", &err_body("method not allowed"))
        }
        _ => http::write_response(stream, 404, "application/json", &err_body("no such endpoint")),
    };
    // The only interesting failures are I/O on a departed client.
    let _ = outcome;
}

fn get_health(
    state: &ServerState,
    sim_pool: &WorkPool,
    stream: &mut TcpStream,
) -> Result<(), http::HttpError> {
    let body = format!(
        "{{\"status\":\"ok\",\"pending_jobs\":{},\"draining\":{}}}",
        sim_pool.pending(),
        state.draining.load(Ordering::SeqCst)
    );
    http::write_response(stream, 200, "application/json", body.as_bytes())
}

fn post_sweep(
    state: &Arc<ServerState>,
    sim_pool: &Arc<WorkPool>,
    stream: &mut TcpStream,
    body: &[u8],
) -> Result<(), http::HttpError> {
    if state.draining.load(Ordering::SeqCst) {
        return http::write_response(stream, 503, "application/json", &err_body("server is draining"));
    }
    let text = match core::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            return http::write_response(stream, 400, "application/json", &err_body("body is not utf-8"))
        }
    };
    let spec = match parse_sweep_spec(text) {
        Ok(s) => s,
        Err(e) => return http::write_response(stream, 400, "application/json", &err_body(&e.to_string())),
    };
    // A parsed spec expands infallibly (parse already validated), but
    // stay typed rather than unwrap.
    let jobs = match spec.jobs() {
        Ok(j) => j,
        Err(e) => return http::write_response(stream, 400, "application/json", &err_body(&e.to_string())),
    };

    let id = state.next_sweep.fetch_add(1, Ordering::SeqCst);
    let entry = Arc::new(SweepEntry {
        id,
        spec,
        total: jobs.len(),
        state: Mutex::new(SweepProgress {
            done: 0,
            failed: 0,
            cache_hits: 0,
            results: vec![None; jobs.len()],
            events: Vec::new(),
        }),
        cond: Condvar::new(),
    });
    state.sweeps().insert(id, entry.clone());
    let total = jobs.len();
    for (index, job) in jobs.into_iter().enumerate() {
        let state = state.clone();
        let entry = entry.clone();
        let accepted = sim_pool.submit(move || execute_job(&state, &entry, index, &job));
        if !accepted {
            // Shutdown raced the submission: report what was queued.
            let body = err_body("server is shutting down");
            return http::write_response(stream, 503, "application/json", &body);
        }
    }
    let body = format!("{{\"sweep\":{id},\"jobs\":{total}}}");
    http::write_response(stream, 200, "application/json", body.as_bytes())
}

/// Looks up a sweep by its path segment.
fn sweep_by_id(state: &ServerState, id: &str) -> Option<Arc<SweepEntry>> {
    let id: u64 = id.parse().ok()?;
    state.sweeps().get(&id).cloned()
}

fn status_body(entry: &SweepEntry) -> String {
    let progress = entry.lock();
    format!(
        "{{\"sweep\":{},\"total\":{},\"done\":{},\"failed\":{},\"cache_hits\":{},\"complete\":{},\"spec\":{}}}",
        entry.id,
        entry.total,
        progress.done,
        progress.failed,
        progress.cache_hits,
        progress.done == entry.total,
        render_sweep_spec(&entry.spec)
    )
}

fn get_sweep_status(state: &ServerState, stream: &mut TcpStream, id: &str) -> Result<(), http::HttpError> {
    match sweep_by_id(state, id) {
        Some(entry) => http::write_response(stream, 200, "application/json", status_body(&entry).as_bytes()),
        None => http::write_response(stream, 404, "application/json", &err_body("no such sweep")),
    }
}

fn get_sweep_results(state: &ServerState, stream: &mut TcpStream, id: &str) -> Result<(), http::HttpError> {
    let Some(entry) = sweep_by_id(state, id) else {
        return http::write_response(stream, 404, "application/json", &err_body("no such sweep"));
    };
    let results: Vec<RunResult> = {
        let progress = entry.lock();
        if progress.done < entry.total {
            let body = err_body("sweep still running; poll status or use /stream");
            return http::write_response(stream, 409, "application/json", &body);
        }
        progress.results.iter().flatten().map(|r| (**r).clone()).collect()
    };
    let csv = entry.spec.results_table(&results).to_csv();
    http::write_response(stream, 200, "text/csv", csv.as_bytes())
}

fn get_sweep_stream(state: &ServerState, stream: &mut TcpStream, id: &str) -> Result<(), http::HttpError> {
    let Some(entry) = sweep_by_id(state, id) else {
        return http::write_response(stream, 404, "application/json", &err_body("no such sweep"));
    };
    http::start_chunked(stream, 200, "application/x-ndjson")?;
    let mut sent = 0;
    loop {
        let (batch, complete) = {
            let mut progress = entry.lock();
            while progress.events.len() == sent && progress.done < entry.total {
                progress = entry.cond.wait(progress).unwrap_or_else(PoisonError::into_inner);
            }
            let batch: Vec<String> = progress.events[sent..].to_vec();
            (batch, progress.done == entry.total)
        };
        sent += batch.len();
        for line in &batch {
            http::write_chunk(stream, format!("{line}\n").as_bytes())?;
        }
        if complete {
            return http::finish_chunked(stream);
        }
    }
}

fn get_cache_stats(state: &ServerState, stream: &mut TcpStream) -> Result<(), http::HttpError> {
    let stats = state.cache.stats();
    let body = format!(
        "{{\"entries\":{},\"capacity\":{},\"hits\":{},\"misses\":{},\"coalesced\":{},\"evictions\":{},\
         \"failures\":{},\"simulations\":{}}}",
        stats.entries,
        stats.capacity,
        stats.hits,
        stats.misses,
        stats.coalesced,
        stats.evictions,
        stats.failures,
        state.simulations.load(Ordering::SeqCst)
    );
    http::write_response(stream, 200, "application/json", body.as_bytes())
}

fn post_drain(
    state: &ServerState,
    sim_pool: &WorkPool,
    stream: &mut TcpStream,
) -> Result<(), http::HttpError> {
    state.draining.store(true, Ordering::SeqCst);
    sim_pool.drain();
    http::write_response(stream, 200, "application/json", b"{\"status\":\"drained\"}")
}

fn post_shutdown(state: &ServerState, stream: &mut TcpStream) -> Result<(), http::HttpError> {
    state.draining.store(true, Ordering::SeqCst);
    state.shutdown.store(true, Ordering::SeqCst);
    let outcome = http::write_response(stream, 200, "application/json", b"{\"status\":\"shutting down\"}");
    // Wake the blocking accept loop so it observes the flag.
    let _ = TcpStream::connect(state.addr);
    outcome
}
