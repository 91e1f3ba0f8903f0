//! The job runner: [`run_job`] turns one [`Job`] into a [`RunResult`],
//! and a [`Runner`] answers batches and streams of jobs on one worker
//! pool through one fingerprint-keyed result cache. `reproduce`,
//! [`crate::SweepSpec::run`] and the `secmem-serve` sweep server all run
//! their jobs through a [`Runner`], except that a one-thread
//! [`crate::SweepSpec::run`] answers its jobs on the calling thread
//! (`run_batch_inline`) through the same cache lookup.

use std::path::PathBuf;
use std::sync::{mpsc, Arc};

use secmem_core::{SecureBackend, SecureMemConfig};
use secmem_gpusim::backend::{MemoryBackend, PassthroughBackend};
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::reuse::NUM_BUCKETS;
use secmem_gpusim::sim::Simulator;
use secmem_gpusim::stats::SimReport;
use secmem_telemetry::{chrome, Telemetry, TelemetryConfig, TelemetrySnapshot};
use secmem_workloads::SyntheticKernel;

use crate::cache::{CacheRole, CacheStats, ResultCache};
use crate::queue::WorkPool;
use crate::sweep::{job_fingerprint, report_fingerprint};

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
    /// [`report_fingerprint`] of `report`, computed once where the
    /// report is made: every consumer of a result reads this field.
    pub report_fp: u64,
    /// Reuse-distance histograms `[counter, mac, tree]` of partition 0,
    /// when profiling was enabled.
    pub reuse: Option<[[u64; NUM_BUCKETS]; 3]>,
    /// Telemetry recorded during the run, when [`Job::telemetry`] was
    /// set. Carried back to the coordinating thread, which owns all
    /// file output (workers never write, so sweeps cannot race).
    pub telemetry: Option<TelemetrySnapshot>,
}

/// One simulation: a benchmark under a GPU and backend configuration.
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

/// How [`run_job_with`] runs a simulator it has built for a job.
///
/// The plain driver behind [`run_job`] runs the warmup and the measured
/// window; `simulate`'s checkpoint driver runs the same machine in
/// chunks, writing a snapshot after each one.
pub trait Drive {
    /// Why the driver could not produce a report.
    type Error;

    /// Runs `sim`, freshly built from `job` with the job's telemetry
    /// installed, and returns its report.
    ///
    /// # Errors
    ///
    /// Whatever the driver cannot recover from.
    fn drive<B: MemoryBackend>(
        &mut self,
        sim: &mut Simulator<B>,
        job: &Job,
    ) -> Result<SimReport, Self::Error>;
}

/// The plain driver: the warmup window (if any), then the measured one.
struct Plain;

impl Drive for Plain {
    type Error = std::convert::Infallible;

    fn drive<B: MemoryBackend>(
        &mut self,
        sim: &mut Simulator<B>,
        job: &Job,
    ) -> Result<SimReport, Self::Error> {
        Ok(sim.run_with_warmup(job.warmup, job.cycles))
    }
}

/// Runs one job on the calling thread.
pub fn run_job(job: &Job) -> RunResult {
    let Ok(result) = run_job_with(job, &mut Plain);
    result
}

/// Builds `job`'s simulator, hands it to `driver` and collects the
/// result. This is the only place a [`Job`] becomes a [`Simulator`].
///
/// # Errors
///
/// The driver's error.
pub fn run_job_with<D: Drive>(job: &Job, driver: &mut D) -> Result<RunResult, D::Error> {
    use secmem_gpusim::kernel::Kernel;
    let (report, reuse, telemetry) = match &job.backend {
        BackendChoice::Baseline => {
            let mut sim =
                Simulator::new(job.gpu.clone(), &job.kernel, |_, g| PassthroughBackend::from_config(g));
            let report = start(&mut sim, job, driver)?;
            (report, None, sim.telemetry_snapshot())
        }
        BackendChoice::Secure(cfg) => {
            let mut sim =
                Simulator::new(job.gpu.clone(), &job.kernel, |_, g| SecureBackend::new(cfg.clone(), g));
            let report = start(&mut sim, job, driver)?;
            let reuse = sim
                .partition(0)
                .backend()
                .reuse_profilers()
                .map(|p| [p[0].histogram(), p[1].histogram(), p[2].histogram()]);
            (report, reuse, sim.telemetry_snapshot())
        }
    };
    Ok(RunResult {
        bench: job.kernel.name().to_string(),
        label: job.label.clone(),
        report_fp: report_fingerprint(&report),
        report,
        reuse,
        telemetry,
    })
}

/// Installs `job`'s telemetry on a freshly built `sim` and drives it.
fn start<B: MemoryBackend, D: Drive>(
    sim: &mut Simulator<B>,
    job: &Job,
    driver: &mut D,
) -> Result<SimReport, D::Error> {
    if let Some(cfg) = &job.telemetry {
        sim.set_telemetry(Telemetry::enabled(cfg.clone()));
    }
    driver.drive(sim, job)
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
/// Every job a [`Runner`] simulates goes through here, so panic
/// isolation and the retry policy behave identically whether a job
/// comes from `reproduce`, a batch sweep or the `secmem-serve` sweep
/// server.
pub fn run_job_isolated(job: &Job) -> Result<RunResult, JobFailure> {
    use secmem_gpusim::kernel::Kernel;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut last = None;
    for _attempt in 0..2 {
        match catch_unwind(AssertUnwindSafe(|| run_job(job))) {
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

/// The answer to one job: its result, or why it has none.
pub type JobOutcome = Result<Arc<RunResult>, JobFailure>;

/// The one job runner: a FIFO [`WorkPool`] of simulation workers and a
/// single-flight [`ResultCache`] keyed by [`job_fingerprint`].
///
/// A job whose fingerprint the runner has already simulated is answered
/// from the cache, relabelled with the requesting job's label; since a
/// fingerprint covers everything that shapes a result, the answer is
/// byte-identical to a fresh run. The cache lives exactly as long as the
/// runner — one `reproduce` process, one [`crate::SweepSpec::run`] call,
/// one `secmem-serve` server — so separate runners never share results.
pub struct Runner {
    pool: WorkPool,
    memo: Arc<ResultCache<RunResult>>,
}

/// Answers `job` from `memo`, simulating it on a miss.
fn answer(memo: &ResultCache<RunResult>, job: &Job) -> (JobOutcome, CacheRole) {
    let mut failure = None;
    let (result, role) = memo
        .get_or_compute(job_fingerprint(job), || run_job_isolated(job).map_err(|f| failure = Some(f)).ok());
    let outcome = match result {
        Some(r) if r.label == job.label => Ok(r),
        Some(r) => Ok(Arc::new(RunResult { label: job.label.clone(), ..(*r).clone() })),
        // The cache returns no value only to the caller whose own
        // computation failed, and that computation set `failure`.
        None => Err(failure.expect("a failed lookup ran its own computation")),
    };
    (outcome, role)
}

impl Runner {
    /// Spawns a runner with `workers` simulation threads (0 = available
    /// parallelism) and a result cache of `capacity` entries (0 =
    /// unbounded).
    ///
    /// # Panics
    ///
    /// If the OS refuses to spawn a thread; [`Runner::try_new`] is the
    /// fallible form.
    pub fn new(workers: usize, capacity: usize) -> Self {
        Self::try_new(workers, capacity).expect("spawning runner worker threads")
    }

    /// Fallible constructor; see [`Runner::new`].
    ///
    /// # Errors
    ///
    /// The OS error if a worker thread cannot be spawned.
    pub fn try_new(workers: usize, capacity: usize) -> Result<Self, std::io::Error> {
        let workers =
            if workers == 0 { std::thread::available_parallelism().map_or(4, |n| n.get()) } else { workers };
        Ok(Self { pool: WorkPool::try_new(workers)?, memo: Arc::new(ResultCache::new(capacity)) })
    }

    /// Queues `job` on the pool; `done` runs on the worker once the job
    /// is answered.
    pub fn submit<F>(&self, job: Job, done: F)
    where
        F: FnOnce(JobOutcome, CacheRole) + Send + 'static,
    {
        let memo = self.memo.clone();
        let queued = self.pool.submit(move || {
            let (outcome, role) = answer(&memo, &job);
            done(outcome, role);
        });
        // The pool refuses work only while it is being dropped, which
        // cannot overlap this borrow of `self`.
        debug_assert!(queued, "a live runner accepts every job");
    }

    /// Runs a batch of jobs on the pool and returns the successful
    /// results in job order; jobs whose simulation panicked (even after
    /// one retry) are reported separately, so a single bad configuration
    /// cannot take down the rest of the batch.
    ///
    /// Telemetry traces are written here, on the calling thread, once
    /// every job has answered: only one thread touches the filesystem,
    /// so jobs with overlapping output paths cannot interleave writes.
    pub fn run_batch(&self, jobs: Vec<Job>) -> (Vec<RunResult>, Vec<JobFailure>) {
        let outputs: Vec<Option<PathBuf>> = jobs.iter().map(|j| j.telemetry_out.clone()).collect();
        let (tx, rx) = mpsc::channel();
        for (index, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            self.submit(job, move |outcome, _| {
                let _ = tx.send((index, outcome));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<JobOutcome>> = vec![None; outputs.len()];
        for (index, outcome) in rx {
            slots[index] = Some(outcome);
        }
        let outcomes = slots.into_iter().map(|slot| slot.expect("every queued job answers"));
        finish_batch(outcomes, &outputs)
    }

    /// The result cache's counters. Every answered job is one hit or one
    /// miss (a job that waited on an identical one in flight counts as a
    /// hit, and also as `coalesced`), and every miss is one simulation.
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// Queued plus running jobs.
    pub fn pending(&self) -> usize {
        self.pool.pending()
    }

    /// Blocks until every queued job has been answered.
    pub fn drain(&self) {
        self.pool.drain();
    }
}

/// Runs a batch of jobs in order on the calling thread, with the same
/// answers as [`Runner::run_batch`]: each job goes through a result
/// cache that lives for this call (so a repeated job is simulated once
/// and relabelled), through [`run_job_isolated`]'s retry, and failures
/// come back separately. No thread is spawned, so a one-thread batch
/// leaves no idle pool worker (and its malloc arena) behind.
pub(crate) fn run_batch_inline(jobs: Vec<Job>) -> (Vec<RunResult>, Vec<JobFailure>) {
    let memo = ResultCache::new(0);
    let outcomes: Vec<JobOutcome> = jobs.iter().map(|job| answer(&memo, job).0).collect();
    // The cache's references go first, so each result moves out of its
    // `Arc` instead of being cloned.
    drop(memo);
    let outputs: Vec<Option<PathBuf>> = jobs.into_iter().map(|j| j.telemetry_out).collect();
    finish_batch(outcomes, &outputs)
}

/// Splits a batch's outcomes, in job order, into results and failures,
/// writing each result's telemetry trace to its job's output path from
/// the calling thread: only one thread touches the filesystem, so jobs
/// with overlapping output paths cannot interleave writes.
fn finish_batch(
    outcomes: impl IntoIterator<Item = JobOutcome>,
    outputs: &[Option<PathBuf>],
) -> (Vec<RunResult>, Vec<JobFailure>) {
    let mut results = Vec::with_capacity(outputs.len());
    let mut failures = Vec::new();
    for (outcome, out) in outcomes.into_iter().zip(outputs) {
        match outcome {
            Ok(r) => {
                if let (Some(path), Some(snap)) = (out, &r.telemetry) {
                    if let Err(err) = std::fs::write(path, chrome::chrome_trace(snap)) {
                        eprintln!("[runner] failed to write trace {}: {err}", path.display());
                    }
                }
                results.push(Arc::unwrap_or_clone(r));
            }
            Err(f) => failures.push(f),
        }
    }
    (results, failures)
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
        let (results, _) = Runner::new(3, 0).run_batch(jobs);
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
        let (results, failures) = Runner::new(2, 0).run_batch(jobs);
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
    fn inline_batch_answers_like_the_pool() {
        let mut bad_gpu = tiny_gpu();
        bad_gpu.issue_width = 0;
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
        // The repeated job is answered from the cache under its own label.
        let jobs = vec![
            job("fdtd2d", tiny_gpu(), "first"),
            job("kmeans", bad_gpu, "broken"),
            job("fdtd2d", tiny_gpu(), "again"),
        ];
        let key = |(results, failures): (Vec<RunResult>, Vec<JobFailure>)| {
            let results: Vec<_> = results.into_iter().map(|r| (r.bench, r.label, r.report_fp)).collect();
            let failures: Vec<_> = failures.into_iter().map(|f| (f.bench, f.label, f.error)).collect();
            (results, failures)
        };
        let inline = key(run_batch_inline(jobs.clone()));
        assert_eq!(inline, key(Runner::new(2, 0).run_batch(jobs)));
        let labels: Vec<&str> = inline.0.iter().map(|r| r.1.as_str()).collect();
        assert_eq!(labels, ["first", "again"]);
        assert_eq!(inline.0[0].2, inline.0[1].2, "a repeated job has the same report");
        assert_eq!(inline.1.len(), 1);
        assert_eq!(inline.1[0].1, "broken");
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
        let (results, failures) = Runner::new(8, 0).run_batch(jobs);
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
