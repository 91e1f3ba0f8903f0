//! Simulation runner: executes (benchmark, configuration) pairs, in
//! parallel across OS threads, and returns the reports.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use secmem_checkpoint::{fnv1a, Frame};
use secmem_core::{SecureBackend, SecureMemConfig};
use secmem_gpusim::backend::{MemoryBackend, PassthroughBackend};
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::reuse::NUM_BUCKETS;
use secmem_gpusim::sim::Simulator;
use secmem_gpusim::stats::SimReport;
use secmem_telemetry::{chrome, Telemetry, TelemetryConfig, TelemetrySnapshot};
use secmem_workloads::SyntheticKernel;

/// Which memory backend to install.
#[derive(Debug, Clone)]
pub enum BackendChoice {
    /// Baseline GPU, no secure memory.
    Baseline,
    /// Secure memory with the given configuration.
    Secure(SecureMemConfig),
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark name.
    pub bench: String,
    /// A caller-chosen configuration label.
    pub label: String,
    /// The end-of-run report.
    pub report: SimReport,
    /// Reuse-distance histograms `[counter, mac, tree]` of partition 0,
    /// when profiling was enabled.
    pub reuse: Option<[[u64; NUM_BUCKETS]; 3]>,
    /// Telemetry recorded during the run, when [`Job::telemetry`] was
    /// set. Carried back to the coordinating thread, which owns all
    /// file output (workers never write, so sweeps cannot race).
    pub telemetry: Option<TelemetrySnapshot>,
}

/// One job for the parallel runner.
#[derive(Debug, Clone)]
pub struct Job {
    /// Benchmark to run.
    pub kernel: SyntheticKernel,
    /// GPU configuration.
    pub gpu: GpuConfig,
    /// Backend choice.
    pub backend: BackendChoice,
    /// Cycle budget.
    pub cycles: u64,
    /// Warmup cycles whose statistics are discarded (0 = none).
    pub warmup: u64,
    /// Label attached to the result.
    pub label: String,
    /// When set, the run collects telemetry with this configuration.
    pub telemetry: Option<TelemetryConfig>,
    /// Where the coordinating thread writes this job's Chrome trace
    /// (ignored unless [`Job::telemetry`] is set).
    pub telemetry_out: Option<PathBuf>,
}

/// Runs a single job.
pub fn run_job(job: &Job) -> RunResult {
    use secmem_gpusim::kernel::Kernel;
    let bench = job.kernel.name().to_string();
    let telemetry = match &job.telemetry {
        Some(cfg) => Telemetry::enabled(cfg.clone()),
        None => Telemetry::disabled(),
    };
    match &job.backend {
        BackendChoice::Baseline => {
            let mut sim =
                Simulator::new(job.gpu.clone(), &job.kernel, |_, g| PassthroughBackend::from_config(g));
            sim.set_telemetry(telemetry);
            let report = if job.warmup > 0 {
                sim.run_with_warmup(job.warmup, job.cycles)
            } else {
                sim.run(job.cycles)
            };
            let telemetry = sim.telemetry_snapshot();
            RunResult { bench, label: job.label.clone(), report, reuse: None, telemetry }
        }
        BackendChoice::Secure(cfg) => {
            let cfg = cfg.clone();
            let mut sim =
                Simulator::new(job.gpu.clone(), &job.kernel, |_, g| SecureBackend::new(cfg.clone(), g));
            sim.set_telemetry(telemetry);
            let report = if job.warmup > 0 {
                sim.run_with_warmup(job.warmup, job.cycles)
            } else {
                sim.run(job.cycles)
            };
            let reuse = sim
                .partition(0)
                .backend()
                .reuse_profilers()
                .map(|p| [p[0].histogram(), p[1].histogram(), p[2].histogram()]);
            let telemetry = sim.telemetry_snapshot();
            RunResult { bench, label: job.label.clone(), report, reuse, telemetry }
        }
    }
}

/// A warmed simulator snapshot and whether its warmup window was
/// truncated by early kernel retirement.
#[derive(Debug)]
struct WarmEntry {
    frame: Frame,
    truncated: bool,
}

/// A cache of warmed simulator snapshots shared across the jobs of one
/// sweep.
///
/// Sweeps frequently run many configurations of the same benchmark
/// under the same warmup; everything before the measured window is
/// identical work. Keys cover everything that shapes the warmup prefix
/// — kernel, GPU configuration, backend configuration and warmup
/// length — so two jobs share a snapshot only when their prefixes are
/// provably the same simulation. The snapshot-resume guarantee (see
/// [`Simulator::save_checkpoint`]) makes a forked run byte-identical
/// to one that warmed from scratch.
#[derive(Debug, Default)]
pub struct WarmCache {
    inner: Mutex<HashMap<u64, Arc<WarmEntry>>>,
}

impl WarmCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct warmed snapshots held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("warm cache lock").len()
    }

    /// True when no snapshot has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, key: u64) -> Option<Arc<WarmEntry>> {
        self.inner.lock().expect("warm cache lock").get(&key).cloned()
    }

    fn put(&self, key: u64, entry: WarmEntry) {
        // Two racing jobs with the same key compute identical frames
        // (the simulation is deterministic), so last-write-wins is fine.
        self.inner.lock().expect("warm cache lock").insert(key, Arc::new(entry));
    }
}

/// Everything that shapes the warmup prefix, fingerprinted.
fn warm_key(job: &Job) -> u64 {
    fnv1a(format!("{:?}|{:?}|{:?}|{}", job.kernel, job.gpu, job.backend, job.warmup).as_bytes())
}

/// Warms `sim` for `job`, forking from `cache` when a snapshot with the
/// same prefix exists, then runs the measured window.
fn warmed_report<B: MemoryBackend>(sim: &mut Simulator<B>, job: &Job, cache: &WarmCache) -> SimReport {
    let key = warm_key(job);
    let restored =
        cache.get(key).and_then(|entry| sim.restore_checkpoint(&entry.frame).ok().map(|()| entry.truncated));
    let truncated = match restored {
        Some(truncated) => truncated,
        None => {
            let truncated = sim.warm_up(job.warmup);
            cache.put(key, WarmEntry { frame: sim.save_checkpoint(), truncated });
            truncated
        }
    };
    let mut report = sim.run(job.cycles);
    report.cycles = sim.now().saturating_sub(job.warmup);
    report.warmup_truncated = truncated;
    report
}

/// Runs a single job, forking its warmup from `cache` when another job
/// with an identical (kernel, GPU, backend, warmup) prefix has already
/// warmed a simulator.
///
/// Falls back to [`run_job`] for jobs without warmup (nothing to
/// share) or with telemetry enabled (sample-window boundaries shift
/// across a restore, so telemetry runs always warm from scratch to
/// keep their traces identical to unforked runs).
pub fn run_job_cached(job: &Job, cache: &WarmCache) -> RunResult {
    use secmem_gpusim::kernel::Kernel;
    if job.warmup == 0 || job.telemetry.is_some() {
        return run_job(job);
    }
    let bench = job.kernel.name().to_string();
    match &job.backend {
        BackendChoice::Baseline => {
            let mut sim =
                Simulator::new(job.gpu.clone(), &job.kernel, |_, g| PassthroughBackend::from_config(g));
            let report = warmed_report(&mut sim, job, cache);
            RunResult { bench, label: job.label.clone(), report, reuse: None, telemetry: None }
        }
        BackendChoice::Secure(cfg) => {
            let cfg = cfg.clone();
            let mut sim =
                Simulator::new(job.gpu.clone(), &job.kernel, |_, g| SecureBackend::new(cfg.clone(), g));
            let report = warmed_report(&mut sim, job, cache);
            let reuse = sim
                .partition(0)
                .backend()
                .reuse_profilers()
                .map(|p| [p[0].histogram(), p[1].histogram(), p[2].histogram()]);
            RunResult { bench, label: job.label.clone(), report, reuse, telemetry: None }
        }
    }
}

/// A job that panicked (twice — each job gets one retry before it is
/// declared failed).
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Benchmark name of the failed job.
    pub bench: String,
    /// Configuration label of the failed job.
    pub label: String,
    /// The panic payload, stringified.
    pub error: String,
    /// The telemetry output path the job would have written, so sweep
    /// tooling can tell an absent trace file from a racing one.
    pub telemetry_path: Option<PathBuf>,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}: {}", self.bench, self.label, self.error)?;
        if let Some(path) = &self.telemetry_path {
            write!(f, " (telemetry not written: {})", path.display())?;
        }
        Ok(())
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs one job with panic isolation: a panicking job is retried once,
/// and a second panic becomes a [`JobFailure`] instead of tearing down
/// the whole sweep.
///
/// This is the job-execution core shared by the batch sweep runner
/// ([`run_jobs_with_failures`]) and the `secmem-serve` sweep server:
/// both schedule jobs however they like and funnel each one through
/// here, so panic isolation, the retry policy and warm-checkpoint
/// forking behave identically whether a spec runs as a batch or is
/// submitted over HTTP.
pub fn run_job_isolated(job: &Job, cache: &WarmCache) -> Result<RunResult, JobFailure> {
    use secmem_gpusim::kernel::Kernel;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut last = None;
    for _attempt in 0..2 {
        match catch_unwind(AssertUnwindSafe(|| run_job_cached(job, cache))) {
            Ok(result) => return Ok(result),
            Err(payload) => last = Some(panic_message(payload.as_ref())),
        }
    }
    Err(JobFailure {
        bench: job.kernel.name().to_string(),
        label: job.label.clone(),
        error: last.unwrap_or_else(|| "unknown panic".to_string()),
        telemetry_path: job.telemetry_out.clone(),
    })
}

/// Runs all jobs, using up to `threads` worker threads (0 = all cores).
///
/// Successful results come back in job order; jobs whose simulation
/// panicked (even after one retry) are reported separately so a single
/// bad configuration cannot take down an entire sweep.
pub fn run_jobs_with_failures(jobs: Vec<Job>, threads: usize) -> (Vec<RunResult>, Vec<JobFailure>) {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        threads
    };
    let n = jobs.len();
    // Never spawn more workers than there are jobs: each extra thread
    // would only take the scheduler lock, observe the queue drained,
    // and exit — pure startup cost on small sweeps.
    let threads = threads.min(n);
    let mut slots: Vec<Option<Result<RunResult, JobFailure>>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let next = Mutex::new(0usize);
    let slots = Mutex::new(slots);
    // Jobs sharing a (kernel, GPU, backend, warmup) prefix fork their
    // warmup from one snapshot instead of re-simulating it.
    let cache = WarmCache::new();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = {
                    let mut guard = next.lock().expect("scheduler lock");
                    if *guard >= n {
                        return;
                    }
                    let i = *guard;
                    *guard += 1;
                    i
                };
                let outcome = run_job_isolated(&jobs[index], &cache);
                slots.lock().expect("results lock")[index] = Some(outcome);
            });
        }
    });
    let mut results = Vec::with_capacity(n);
    let mut failures = Vec::new();
    for (index, slot) in slots.into_inner().expect("all workers joined").into_iter().enumerate() {
        match slot.expect("every job was attempted") {
            Ok(r) => {
                // Trace files are written here, after the scoped join:
                // only this thread touches the filesystem, so jobs with
                // overlapping output paths cannot interleave writes.
                if let (Some(path), Some(snap)) = (&jobs[index].telemetry_out, &r.telemetry) {
                    if let Err(err) = std::fs::write(path, chrome::chrome_trace(snap)) {
                        eprintln!("[runner] failed to write trace {}: {err}", path.display());
                    }
                }
                results.push(r);
            }
            Err(f) => failures.push(f),
        }
    }
    (results, failures)
}

/// Runs all jobs, using up to `threads` worker threads (0 = all cores).
/// Results come back in job order.
///
/// Panicking jobs are dropped from the result set after a failure
/// summary is printed to stderr; callers that need the failure list
/// programmatically should use [`run_jobs_with_failures`].
pub fn run_jobs(jobs: Vec<Job>, threads: usize) -> Vec<RunResult> {
    let (results, failures) = run_jobs_with_failures(jobs, threads);
    if !failures.is_empty() {
        eprintln!("[runner] {} job(s) failed after retry:", failures.len());
        for f in &failures {
            eprintln!("[runner]   {f}");
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use secmem_workloads::suite;

    fn tiny_gpu() -> GpuConfig {
        GpuConfig::small()
    }

    #[test]
    fn baseline_job_runs() {
        let k = suite::by_name("fdtd2d").expect("exists");
        let job = Job {
            kernel: k,
            gpu: tiny_gpu(),
            backend: BackendChoice::Baseline,
            cycles: 2_000,
            warmup: 0,
            label: "baseline".into(),
            telemetry: None,
            telemetry_out: None,
        };
        let r = run_job(&job);
        assert!(r.report.thread_instructions > 0);
        assert!(r.reuse.is_none());
    }

    #[test]
    fn secure_job_runs_with_reuse() {
        let k = suite::by_name("fdtd2d").expect("exists");
        let mut cfg = SecureMemConfig::secure_mem();
        cfg.profile_reuse = true;
        let job = Job {
            kernel: k,
            gpu: tiny_gpu(),
            backend: BackendChoice::Secure(cfg),
            cycles: 2_000,
            warmup: 0,
            label: "secure".into(),
            telemetry: None,
            telemetry_out: None,
        };
        let r = run_job(&job);
        assert!(r.report.thread_instructions > 0);
        let reuse = r.reuse.expect("profiling enabled");
        assert!(reuse[0].iter().sum::<u64>() > 0, "counter accesses profiled");
    }

    #[test]
    fn parallel_runner_preserves_order() {
        let jobs: Vec<Job> = ["fdtd2d", "kmeans", "nw"]
            .iter()
            .map(|n| Job {
                kernel: suite::by_name(n).expect("exists"),
                gpu: tiny_gpu(),
                backend: BackendChoice::Baseline,
                cycles: 1_000,
                warmup: 0,
                label: (*n).into(),
                telemetry: None,
                telemetry_out: None,
            })
            .collect();
        let results = run_jobs(jobs, 3);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].bench, "fdtd2d");
        assert_eq!(results[1].bench, "kmeans");
        assert_eq!(results[2].bench, "nw");
    }

    #[test]
    fn panicking_job_is_reported_not_fatal() {
        let mut bad_gpu = tiny_gpu();
        bad_gpu.issue_width = 0; // rejected by GpuConfig::validate → Simulator::new panics
        let job = |name: &str, gpu: GpuConfig, label: &str| Job {
            kernel: suite::by_name(name).expect("exists"),
            gpu,
            backend: BackendChoice::Baseline,
            cycles: 1_000,
            warmup: 0,
            label: label.into(),
            telemetry: None,
            telemetry_out: None,
        };
        let jobs = vec![
            job("fdtd2d", tiny_gpu(), "ok-1"),
            job("kmeans", bad_gpu, "broken"),
            job("nw", tiny_gpu(), "ok-2"),
        ];
        let (results, failures) = run_jobs_with_failures(jobs, 2);
        assert_eq!(results.len(), 2, "healthy jobs still complete");
        assert_eq!(results[0].bench, "fdtd2d");
        assert_eq!(results[1].bench, "nw");
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].bench, "kmeans");
        assert_eq!(failures[0].label, "broken");
        assert!(
            failures[0].error.contains("issue_width"),
            "failure carries the panic message: {}",
            failures[0].error
        );
    }

    #[test]
    fn warm_cache_fork_matches_cold_warmup() {
        let k = suite::by_name("fdtd2d").expect("exists");
        let mk = |label: &str| Job {
            kernel: k.clone(),
            gpu: tiny_gpu(),
            backend: BackendChoice::Secure(SecureMemConfig::secure_mem()),
            cycles: 5_000,
            warmup: 2_000,
            label: label.into(),
            telemetry: None,
            telemetry_out: None,
        };
        let cold = run_job(&mk("cold"));
        let cache = WarmCache::new();
        let miss = run_job_cached(&mk("miss"), &cache);
        assert_eq!(cache.len(), 1, "miss populates the cache");
        let hit = run_job_cached(&mk("hit"), &cache);
        assert_eq!(cache.len(), 1, "hit adds nothing");
        let fp = |r: &RunResult| format!("{:?}", r.report);
        assert_eq!(fp(&cold), fp(&miss), "cache-miss path matches run_job");
        assert_eq!(fp(&cold), fp(&hit), "forked warmup matches cold warmup");
    }

    #[test]
    fn warm_cache_keys_separate_configurations() {
        let k = suite::by_name("nw").expect("exists");
        let mk = |backend: BackendChoice, warmup: u64| Job {
            kernel: k.clone(),
            gpu: tiny_gpu(),
            backend,
            cycles: 2_000,
            warmup,
            label: "x".into(),
            telemetry: None,
            telemetry_out: None,
        };
        let cache = WarmCache::new();
        let _ = run_job_cached(&mk(BackendChoice::Baseline, 500), &cache);
        let _ = run_job_cached(&mk(BackendChoice::Secure(SecureMemConfig::secure_mem()), 500), &cache);
        let _ = run_job_cached(&mk(BackendChoice::Baseline, 700), &cache);
        assert_eq!(cache.len(), 3, "backend and warmup both key the cache");
        // No warmup: nothing to share, the cache is bypassed.
        let _ = run_job_cached(&mk(BackendChoice::Baseline, 0), &cache);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn telemetry_written_per_job_after_join() {
        let dir = std::env::temp_dir().join(format!("secmem-runner-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let trace = |name: &str| dir.join(format!("{name}.trace.json"));
        let job = |name: &str, gpu: GpuConfig| Job {
            kernel: suite::by_name(name).expect("exists"),
            gpu,
            backend: BackendChoice::Baseline,
            cycles: 2_000,
            warmup: 0,
            label: name.into(),
            telemetry: Some(TelemetryConfig { sample_interval: 128, ..TelemetryConfig::default() }),
            telemetry_out: Some(trace(name)),
        };
        let mut bad_gpu = tiny_gpu();
        bad_gpu.issue_width = 0;
        let jobs = vec![job("fdtd2d", tiny_gpu()), job("kmeans", tiny_gpu()), job("nw", bad_gpu)];
        // More threads than jobs: exercises the worker-count clamp.
        let (results, failures) = run_jobs_with_failures(jobs, 8);
        assert_eq!(results.len(), 2);
        for r in &results {
            let snap = r.telemetry.as_ref().expect("telemetry collected");
            assert!(snap.series("dram.data_bytes").is_some(), "sampled series present");
            let text = std::fs::read_to_string(trace(&r.bench)).expect("trace written");
            secmem_telemetry::json::parse(&text).expect("trace is valid JSON");
        }
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].telemetry_path, Some(trace("nw")), "failure carries the path");
        assert!(!trace("nw").exists(), "failed job writes no trace");
        assert!(format!("{}", failures[0]).contains("telemetry not written"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
