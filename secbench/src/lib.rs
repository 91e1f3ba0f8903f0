//! The repository benchmark.
//!
//! Three workloads separate the layers a performance change can touch:
//! `secure_walk` (the secure memory engine), `baseline_replay` (the core
//! pipeline with no secure engine) and `sweep_service` (the sweep
//! server, its result cache and job pool). Each run prints one JSON
//! result line: end-to-end metrics from an untraced run (`--trace 0`),
//! or per-layer metrics from a run that also times every call across
//! the simulator's public seams (`--trace 1`). See `README.md` beside
//! this crate for the metric map.

pub mod cells;
pub mod layers;
pub mod metrics;
mod service;
pub mod simwork;

use std::path::PathBuf;
use std::time::Instant;

use secmem_gpusim::config::GpuConfig;
use secmem_workloads::suite::DEFAULT_SEED;

use metrics::{median, num, ratio, Outcome};

/// A run sets up this many times before measuring; `setup_s` is the
/// median over these and any repetitions made during the run.
pub const SETUP_REPS: usize = 3;

/// A run's command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`metrics::WORKLOADS`]).
    pub workload: String,
    /// Seed the run's inputs are drawn from.
    pub seed: u64,
    /// Sizes the measured work: about this many seconds on a 2-vCPU
    /// host.
    pub seconds: u64,
    /// Whether to run the traced (per-layer) variant.
    pub trace: bool,
}

/// SplitMix64: a small, fixed PRNG for the run's seeded choices.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// Runs `f` [`SETUP_REPS`] times; returns the last product and every
/// repetition's host seconds.
fn timed_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let product = f()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(product);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The git revision of the working directory when it is the top of a
/// git checkout, else `unknown`.
fn git_revision() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let cwd = std::env::current_dir().ok().and_then(|d| d.canonicalize().ok());
    let top = git(&["rev-parse", "--show-toplevel"]).and_then(|t| PathBuf::from(t).canonicalize().ok());
    match (cwd, top) {
        (Some(cwd), Some(top)) if cwd == top => {
            git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown".into(),
    }
}

/// A scratch directory for the run's files, under the working
/// directory.
fn work_dir(workload: &str) -> PathBuf {
    PathBuf::from(".secbench_work").join(format!("{workload}-{}", std::process::id()))
}

/// Runs one workload.
///
/// # Errors
///
/// A message when the workload is unknown or its set-up fails; wrong
/// results are counted in the returned [`Outcome`] instead.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let gpu = GpuConfig::small();
    let seconds = args.seconds as f64;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let setup_times = match args.workload.as_str() {
        name @ ("secure_walk" | "baseline_replay") => {
            let dir = work_dir(name);
            let mut set_up = || {
                let cells = match name {
                    "secure_walk" => simwork::secure_walk_cells()?,
                    _ => simwork::baseline_replay_cells(&gpu, &dir)?,
                };
                simwork::construct_all(&cells, &gpu);
                Ok(cells)
            };
            let (cells, mut times) = timed_setup(&mut set_up)?;
            let mut resetup = || {
                let t = Instant::now();
                set_up().map(|_| t.elapsed().as_secs_f64())
            };
            let per_s = match name {
                "secure_walk" => simwork::SECURE_WALK_PASSES_PER_S,
                _ => simwork::REPLAY_PASSES_PER_S,
            };
            let passes = (seconds * per_s).round() as usize;
            times.extend(simwork::measure(
                &cells,
                &gpu,
                args.seed,
                passes,
                args.trace,
                &mut out,
                &mut resetup,
            )?);
            times
        }
        "sweep_service" => {
            let (setup, mut times) = timed_setup(|| service::setup(args.seed))?;
            let mut resetup = || {
                let t = Instant::now();
                service::setup(args.seed).map(|_| t.elapsed().as_secs_f64())
            };
            times.extend(service::measure(setup, seconds, args.trace, &mut out, &mut resetup)?);
            times
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let setup_s = median(&setup_times);
    out.values.set("setup_s", setup_s);
    out.values.set("peak_rss_mb", peak_rss_mb());
    out.values.set("failed_frac", ratio(out.failed as f64, out.attempted as f64));
    out.detail(
        "host",
        format!(
            "{{\"available_parallelism\": {parallelism}, \"git_revision\": \"{}\", \"build_profile\": \"{}\", \
             \"seed\": {}, \"workload_seed\": {DEFAULT_SEED}, \"gpu\": \"small\", \"workload\": \"{}\", \
             \"trace\": {}, \"seconds\": {}, \"setup_s\": {}}}",
            git_revision(),
            if cfg!(debug_assertions) { "debug" } else { "release" },
            args.seed,
            args.workload,
            args.trace,
            args.seconds,
            num(setup_s),
        ),
    );
    Ok(out)
}
