//! The sweep server: accepts HTTP connections on a bounded thread pool,
//! expands submitted sweep specs into jobs, and hands every job to one
//! [`Runner`] — the same job runner `reproduce` and
//! [`SweepSpec::run`] use.
//!
//! Request flow:
//!
//! ```text
//! client ──HTTP──▶ http pool ──POST /sweeps──▶ SweepSpec::jobs()
//!                                   │ Runner::submit, one per job
//!                                   ▼
//!                  Runner: FIFO pool ─▶ ResultCache(job_fingerprint)
//!                                   │ miss
//!                                   ▼
//!                  run_job_isolated ─▶ run_job
//! ```
//!
//! The runner answers a repeated job from its result cache, so a
//! repeated submission — or two clients racing the same spec — costs
//! zero extra simulations; the `simulations` counter exposed by
//! `GET /cache/stats` (the cache's misses) proves it.
//!
//! A finished sweep keeps only its rendered CSV, shared with the sweep
//! that finished before it when the bytes are the same, and one small
//! fixed-size record per progress event, rendered to its JSON line only
//! when `/stream` sends it. Only the last [`FINISHED_SWEEPS_KEPT`]
//! finished sweeps are kept, so the server's memory does not grow with
//! the number of sweeps it has served. An evicted sweep's id answers
//! 410.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use secmem_bench::sweep::SweepSpec;
use secmem_bench::{CacheRole, JobOutcome, RunResult, Runner, WorkPool};

use crate::http;
use crate::json;
use crate::spec::{parse_sweep_spec, render_sweep_spec};

/// Finished sweeps the server keeps. When one more finishes, the sweep
/// that finished first is evicted and its id answers 410 from then on.
/// A running sweep is never evicted. A finished sweep holds its spec,
/// one 48-byte event record per job (1.3 KiB for the pinned 4x7
/// matrix) and a reference to its CSV (about 2.5 KiB for that matrix),
/// which repeated identical sweeps share.
pub const FINISHED_SWEEPS_KEPT: usize = 256;

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
    results: SweepResults,
    /// One record per completed job, appended in completion order.
    events: Vec<JobEvent>,
}

/// A completed job's progress event. `/stream` renders its JSON line
/// ([`event_line`]) from this and the sweep's spec as it sends it, so a
/// sweep keeps a few words per job rather than a string.
#[derive(Debug, Clone, Copy)]
struct JobEvent {
    /// The job's index in [`SweepSpec::jobs`] order.
    job: usize,
    /// Jobs recorded so far, this one included.
    done: usize,
    /// Answered from the result cache (hit or coalesced).
    cached: bool,
    /// What the job produced; `None` when it failed.
    result: Option<JobDigest>,
}

/// The parts of a job's result its progress event reports.
#[derive(Debug, Clone, Copy)]
struct JobDigest {
    report_fp: u64,
    /// Total DRAM data bytes, when the job sampled telemetry.
    dram_bytes: Option<u64>,
}

enum SweepResults {
    /// One slot per job, spec order; `None` until done (or failed).
    Running(Vec<Option<Arc<RunResult>>>),
    /// The results CSV, rendered once when the last job was recorded;
    /// the results themselves are dropped then.
    Finished(Arc<str>),
}

impl SweepEntry {
    fn lock(&self) -> MutexGuard<'_, SweepProgress> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Every running sweep and the last [`FINISHED_SWEEPS_KEPT`] finished
/// ones. Lock order: this table before any entry's progress, never the
/// reverse.
#[derive(Default)]
struct SweepTable {
    entries: BTreeMap<u64, Arc<SweepEntry>>,
    /// Ids of the retained finished sweeps, the first to finish first.
    finished: VecDeque<u64>,
    /// Ids issued so far; ids run from 1, so the last one issued.
    issued: u64,
    /// Finished sweeps evicted so far.
    expired: u64,
}

/// What a sweep id names.
enum Lookup {
    Live(Arc<SweepEntry>),
    /// Issued, finished and evicted.
    Expired,
    /// Never issued.
    Unknown,
}

impl SweepTable {
    /// Records that sweep `id` finished, evicting the earliest-finished
    /// sweeps beyond [`FINISHED_SWEEPS_KEPT`].
    fn finish(&mut self, id: u64) {
        self.finished.push_back(id);
        while self.finished.len() > FINISHED_SWEEPS_KEPT {
            if let Some(old) = self.finished.pop_front() {
                self.entries.remove(&old);
                self.expired += 1;
            }
        }
    }

    fn lookup(&self, id: u64) -> Lookup {
        match self.entries.get(&id) {
            Some(entry) => Lookup::Live(entry.clone()),
            // Only eviction removes an issued id.
            None if (1..=self.issued).contains(&id) => Lookup::Expired,
            None => Lookup::Unknown,
        }
    }
}

fn lock_table(sweeps: &Mutex<SweepTable>) -> MutexGuard<'_, SweepTable> {
    sweeps.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the job callbacks share with the server. They hold this rather
/// than the state, which owns the runner that holds them.
#[derive(Default)]
struct Sweeps {
    table: Mutex<SweepTable>,
    /// The CSV the last sweep to finish keeps. Taken after any entry's
    /// progress, and no other lock is taken while it is held.
    last_csv: Mutex<Option<Arc<str>>>,
}

impl Sweeps {
    /// `csv` as the last finished sweep's shared string when the bytes
    /// are the same (an identical spec answered from the cache renders
    /// the same CSV), else as a new string later sweeps can share.
    fn share_csv(&self, csv: String) -> Arc<str> {
        let mut last = self.last_csv.lock().unwrap_or_else(PoisonError::into_inner);
        match &*last {
            Some(kept) if **kept == *csv => kept.clone(),
            _ => {
                let csv: Arc<str> = csv.into();
                *last = Some(csv.clone());
                csv
            }
        }
    }
}

/// Shared server state: the job runner, the sweeps, and the flags.
struct ServerState {
    runner: Runner,
    /// Shared with the job callbacks, which record finished sweeps.
    sweeps: Arc<Sweeps>,
    draining: AtomicBool,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl ServerState {
    fn sweeps(&self) -> MutexGuard<'_, SweepTable> {
        lock_table(&self.sweeps.table)
    }
}

/// The sweep server. [`Server::bind`] then [`Server::run`]; `run`
/// returns after a `POST /shutdown` has drained the pools.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    http_pool: WorkPool,
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
        let state = Arc::new(ServerState {
            runner: Runner::try_new(cfg.sim_workers, cfg.cache_capacity).map_err(ServeError::Io)?,
            sweeps: Arc::default(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            addr,
        });
        let http_pool = WorkPool::try_new(cfg.http_threads.max(1)).map_err(ServeError::Io)?;
        Ok(Self { listener, state, http_pool })
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
        let Server { listener, state, http_pool } = self;
        for stream in listener.incoming() {
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            let state = state.clone();
            http_pool.submit(move || handle_connection(&state, &mut stream));
        }
        // Graceful teardown: finish in-flight HTTP exchanges, then the
        // queued simulations. Dropping the last `state` joins the
        // runner's workers.
        drop(http_pool);
        state.runner.drain();
        Ok(())
    }
}

/// Records job `index`'s outcome on its sweep. The last job renders the
/// sweep's CSV, drops its results, and enters it in the table's finished
/// sweeps (after releasing the entry, to keep the lock order).
fn record_job(sweeps: &Sweeps, entry: &SweepEntry, index: usize, outcome: JobOutcome, role: CacheRole) {
    let result = outcome.ok();
    let mut progress = entry.lock();
    progress.done += 1;
    let cached = role != CacheRole::Computed;
    if cached {
        progress.cache_hits += 1;
    }
    let digest = result.as_ref().map(|r| JobDigest {
        report_fp: r.report_fp,
        dram_bytes: r
            .telemetry
            .as_ref()
            .and_then(|snap| snap.series("dram.data_bytes"))
            .map(|series| series.total() as u64),
    });
    if digest.is_none() {
        progress.failed += 1;
    }
    let done = progress.done;
    progress.events.push(JobEvent { job: index, done, cached, result: digest });
    let finished = done == entry.total;
    if let SweepResults::Running(slots) = &mut progress.results {
        slots[index] = result;
        if finished {
            let csv = entry.spec.results_table(slots.iter().flatten().map(|r| &**r)).to_csv();
            progress.results = SweepResults::Finished(sweeps.share_csv(csv));
        }
    }
    drop(progress);
    entry.cond.notify_all();
    if finished {
        lock_table(&sweeps.table).finish(entry.id);
    }
}

/// The JSON line, newline included, that `/stream` sends for `event`.
fn event_line(entry: &SweepEntry, event: &JobEvent) -> String {
    let spec = &entry.spec;
    // `SweepSpec::jobs` nests the schemes inside the benchmarks.
    let bench = &spec.benches[event.job / spec.schemes.len()];
    let scheme = spec.schemes[event.job % spec.schemes.len()].label();
    let mut line = format!(
        "{{\"sweep\":{},\"job\":{},\"bench\":\"{}\",\"scheme\":\"{}\",\"done\":{},\"total\":{},\"cached\":{}",
        entry.id,
        event.job,
        json::escape(bench),
        json::escape(scheme),
        event.done,
        entry.total,
        event.cached
    );
    match event.result {
        Some(JobDigest { report_fp, dram_bytes }) => {
            let _ = write!(line, ",\"ok\":true,\"fp\":\"{report_fp:016x}\"");
            if let Some(bytes) = dram_bytes {
                let _ = write!(line, ",\"dram_bytes\":{bytes}");
            }
        }
        None => line.push_str(",\"ok\":false"),
    }
    line.push_str("}\n");
    line
}

fn err_body(message: &str) -> Vec<u8> {
    format!("{{\"error\":\"{}\"}}", json::escape(message)).into_bytes()
}

/// Parses and dispatches one connection (one request: all responses are
/// `Connection: close`). Write failures are ignored — the client hung up.
fn handle_connection(state: &ServerState, stream: &mut TcpStream) {
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
        ("GET", ["health"]) => get_health(state, stream),
        ("POST", ["sweeps"]) => post_sweep(state, stream, &request.body),
        ("GET", ["sweeps", id]) => get_sweep_status(state, stream, id),
        ("GET", ["sweeps", id, "results"]) => get_sweep_results(state, stream, id),
        ("GET", ["sweeps", id, "stream"]) => get_sweep_stream(state, stream, id),
        ("GET", ["cache", "stats"]) => get_cache_stats(state, stream),
        ("POST", ["drain"]) => post_drain(state, stream),
        ("POST", ["shutdown"]) => post_shutdown(state, stream),
        (_, ["health" | "sweeps" | "cache" | "drain" | "shutdown", ..]) => {
            http::write_response(stream, 405, "application/json", &err_body("method not allowed"))
        }
        _ => http::write_response(stream, 404, "application/json", &err_body("no such endpoint")),
    };
    // The only interesting failures are I/O on a departed client.
    let _ = outcome;
}

fn get_health(state: &ServerState, stream: &mut TcpStream) -> Result<(), http::HttpError> {
    let (sweeps, expired) = {
        let table = state.sweeps();
        (table.entries.len(), table.expired)
    };
    let body = format!(
        "{{\"status\":\"ok\",\"pending_jobs\":{},\"draining\":{},\"sweeps\":{sweeps},\"expired\":{expired}}}",
        state.runner.pending(),
        state.draining.load(Ordering::SeqCst)
    );
    http::write_response(stream, 200, "application/json", body.as_bytes())
}

fn post_sweep(state: &ServerState, stream: &mut TcpStream, body: &[u8]) -> Result<(), http::HttpError> {
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

    let entry = {
        // Issue the id and enter the sweep under one lock, so an issued
        // id is never briefly absent (which would read as expired).
        let mut sweeps = state.sweeps();
        sweeps.issued += 1;
        let entry = Arc::new(SweepEntry {
            id: sweeps.issued,
            spec,
            total: jobs.len(),
            state: Mutex::new(SweepProgress {
                done: 0,
                failed: 0,
                cache_hits: 0,
                results: SweepResults::Running(vec![None; jobs.len()]),
                events: Vec::with_capacity(jobs.len()),
            }),
            cond: Condvar::new(),
        });
        sweeps.entries.insert(entry.id, entry.clone());
        entry
    };
    let (id, total) = (entry.id, jobs.len());
    for (index, job) in jobs.into_iter().enumerate() {
        let (sweeps, entry) = (state.sweeps.clone(), entry.clone());
        state.runner.submit(job, move |outcome, role| record_job(&sweeps, &entry, index, outcome, role));
    }
    let body = format!("{{\"sweep\":{id},\"jobs\":{total}}}");
    http::write_response(stream, 200, "application/json", body.as_bytes())
}

/// Looks up a sweep by its path segment, or writes the 404 (never
/// issued) or 410 (evicted) answer and returns `Err` with its outcome.
fn sweep_by_id(
    state: &ServerState,
    stream: &mut TcpStream,
    id: &str,
) -> Result<Arc<SweepEntry>, Result<(), http::HttpError>> {
    let lookup = id.parse().map_or(Lookup::Unknown, |id| state.sweeps().lookup(id));
    match lookup {
        Lookup::Live(entry) => Ok(entry),
        Lookup::Expired => {
            let body = err_body(&format!("sweep {id} expired"));
            Err(http::write_response(stream, 410, "application/json", &body))
        }
        Lookup::Unknown => {
            Err(http::write_response(stream, 404, "application/json", &err_body("no such sweep")))
        }
    }
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
    let entry = match sweep_by_id(state, stream, id) {
        Ok(entry) => entry,
        Err(answered) => return answered,
    };
    http::write_response(stream, 200, "application/json", status_body(&entry).as_bytes())
}

fn get_sweep_results(state: &ServerState, stream: &mut TcpStream, id: &str) -> Result<(), http::HttpError> {
    let entry = match sweep_by_id(state, stream, id) {
        Ok(entry) => entry,
        Err(answered) => return answered,
    };
    let csv = match &entry.lock().results {
        SweepResults::Finished(csv) => Some(csv.clone()),
        SweepResults::Running(_) => None,
    };
    match csv {
        Some(csv) => http::write_response(stream, 200, "text/csv", csv.as_bytes()),
        None => {
            let body = err_body("sweep still running; poll status or use /stream");
            http::write_response(stream, 409, "application/json", &body)
        }
    }
}

fn get_sweep_stream(state: &ServerState, stream: &mut TcpStream, id: &str) -> Result<(), http::HttpError> {
    let entry = match sweep_by_id(state, stream, id) {
        Ok(entry) => entry,
        Err(answered) => return answered,
    };
    http::start_chunked(stream, 200, "application/x-ndjson")?;
    let mut sent = 0;
    loop {
        let (batch, complete) = {
            let mut progress = entry.lock();
            while progress.events.len() == sent && progress.done < entry.total {
                progress = entry.cond.wait(progress).unwrap_or_else(PoisonError::into_inner);
            }
            (progress.events[sent..].to_vec(), progress.done == entry.total)
        };
        sent += batch.len();
        // Rendered after the sweep's lock is released; one chunk per
        // event, so a client can time each job by its chunk.
        for event in &batch {
            http::write_chunk(stream, event_line(&entry, event).as_bytes())?;
        }
        if complete {
            return http::finish_chunked(stream);
        }
    }
}

fn get_cache_stats(state: &ServerState, stream: &mut TcpStream) -> Result<(), http::HttpError> {
    let stats = state.runner.stats();
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
        // Every miss runs its job's simulation exactly once.
        stats.misses
    );
    http::write_response(stream, 200, "application/json", body.as_bytes())
}

fn post_drain(state: &ServerState, stream: &mut TcpStream) -> Result<(), http::HttpError> {
    state.draining.store(true, Ordering::SeqCst);
    state.runner.drain();
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
