//! Declarative sweep specifications: a (benchmarks × schemes) job
//! matrix with one canonical result rendering, shared by the batch
//! `reproduce matrix` path and the `secmem-serve` sweep server.
//!
//! The point of sharing this module is byte-identity: a sweep executed
//! as a batch and the same sweep submitted to the server go through the
//! same [`SweepSpec::jobs`] expansion, the same job runner
//! ([`crate::runner::Runner`]) and the same
//! [`SweepSpec::results_table`] rendering, so the CSVs they produce are
//! comparable with `cmp`, not just "equivalent".
//!
//! [`job_fingerprint`] derives the content address the runner's result
//! cache is keyed by: everything that shapes a simulation's outcome
//! (workload + seed, GPU configuration, backend configuration, cycle
//! budget, warmup, telemetry options) and nothing that does not (the
//! display label, output paths).

use secmem_checkpoint::fnv1a;
use secmem_core::{SecureMemConfig, SecurityScheme};
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::error::ConfigError;
use secmem_gpusim::stats::SimReport;
use secmem_telemetry::TelemetryConfig;
use secmem_workloads::suite;

use crate::runner::{run_batch_inline, BackendChoice, Job, JobFailure, RunResult, Runner};
use crate::table::ExpTable;

/// The GPU configurations a sweep spec can name. Specs travel over the
/// wire as JSON, so they pick from the two pinned presets instead of
/// carrying 30 raw config fields (full configs remain available to
/// in-process callers via [`crate::ExpOpts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuPreset {
    /// The paper's Volta (Table I).
    Volta,
    /// The scaled-down 8-SM / 4-partition smoke GPU.
    Small,
}

impl GpuPreset {
    /// Wire label.
    pub fn label(self) -> &'static str {
        match self {
            GpuPreset::Volta => "volta",
            GpuPreset::Small => "small",
        }
    }

    /// Parses a wire label.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "volta" => Some(GpuPreset::Volta),
            "small" => Some(GpuPreset::Small),
            _ => None,
        }
    }

    /// The concrete configuration.
    pub fn config(self) -> GpuConfig {
        match self {
            GpuPreset::Volta => GpuConfig::volta(),
            GpuPreset::Small => GpuConfig::small(),
        }
    }
}

/// The pinned benchmark set (one per Table-IV category), matching the
/// checkpoint-determinism gate.
pub const PINNED_BENCHES: [&str; 4] = ["nw", "b+tree", "kmeans", "fdtd2d"];

/// A sweep spec gone wrong: a name that resolves to nothing, or a shape
/// that expands to nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// A benchmark name not in the Table-IV suite.
    UnknownBench(String),
    /// A field that must be non-empty was empty.
    Empty(&'static str),
    /// A numeric field outside its accepted range.
    OutOfRange {
        /// Field name.
        field: &'static str,
        /// Human-readable constraint.
        constraint: &'static str,
    },
    /// The effective GPU configuration (preset + geometry overrides)
    /// failed [`GpuConfig::validate`]. Catching this at spec level
    /// turns a would-be worker panic into a client error.
    Gpu(ConfigError),
}

impl core::fmt::Display for SweepError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SweepError::UnknownBench(name) => write!(f, "unknown benchmark '{name}' (not in Table IV)"),
            SweepError::Empty(what) => write!(f, "sweep spec needs at least one {what}"),
            SweepError::OutOfRange { field, constraint } => write!(f, "sweep field {field} {constraint}"),
            SweepError::Gpu(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// A declarative sweep: the cross product of benchmarks and schemes
/// under one GPU preset and cycle budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Table-IV benchmark names.
    pub benches: Vec<String>,
    /// Protection schemes to run each benchmark under.
    pub schemes: Vec<SecurityScheme>,
    /// GPU preset.
    pub gpu: GpuPreset,
    /// Cycle budget per simulation.
    pub cycles: u64,
    /// Warmup cycles whose statistics are discarded.
    pub warmup: u64,
    /// Workload seed.
    pub seed: u64,
    /// When set, every job samples telemetry at this interval (the
    /// server feeds progress streams from the samples).
    pub sample_interval: Option<u64>,
    /// Per-bank L2 capacity override in bytes (the preset's value when
    /// `None`). Lets a sweep probe cache-geometry sensitivity; an
    /// impossible geometry is rejected by [`SweepSpec::validate`]
    /// instead of panicking a pool worker.
    pub l2_bytes_per_bank: Option<u64>,
    /// L2 associativity override (ways per set).
    pub l2_assoc: Option<u32>,
}

impl SweepSpec {
    /// The pinned 4-benchmark × 7-scheme matrix on the small GPU — the
    /// end-to-end determinism gate's configuration.
    pub fn pinned_matrix() -> Self {
        Self {
            benches: PINNED_BENCHES.iter().map(|b| (*b).to_string()).collect(),
            schemes: SecurityScheme::ALL.to_vec(),
            gpu: GpuPreset::Small,
            cycles: 3_000,
            warmup: 0,
            seed: suite::DEFAULT_SEED,
            sample_interval: None,
            l2_bytes_per_bank: None,
            l2_assoc: None,
        }
    }

    /// The effective GPU configuration: the preset with the spec's
    /// geometry overrides applied.
    pub fn gpu_config(&self) -> GpuConfig {
        let mut gpu = self.gpu.config();
        if let Some(bytes) = self.l2_bytes_per_bank {
            gpu.l2_bytes_per_bank = bytes;
        }
        if let Some(assoc) = self.l2_assoc {
            gpu.l2_assoc = assoc;
        }
        gpu
    }

    /// Checks the spec without expanding it.
    ///
    /// # Errors
    ///
    /// Returns the first invalid field.
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.benches.is_empty() {
            return Err(SweepError::Empty("benchmark"));
        }
        if self.schemes.is_empty() {
            return Err(SweepError::Empty("scheme"));
        }
        for bench in &self.benches {
            if !suite::all_specs().iter().any(|s| s.name == bench) {
                return Err(SweepError::UnknownBench(bench.clone()));
            }
        }
        if self.cycles == 0 {
            return Err(SweepError::OutOfRange { field: "cycles", constraint: "must be at least 1" });
        }
        if self.sample_interval == Some(0) {
            return Err(SweepError::OutOfRange {
                field: "sample_interval",
                constraint: "must be at least 1 when present",
            });
        }
        // Geometry overrides can make the preset invalid; reject here
        // so the failure is a typed spec error, not a worker panic.
        self.gpu_config().validate().map_err(SweepError::Gpu)?;
        Ok(())
    }

    /// Expands the spec into runnable jobs, benchmark-major (every
    /// scheme of a benchmark before the next benchmark), matching the
    /// row order of [`SweepSpec::results_table`].
    ///
    /// # Errors
    ///
    /// Returns the first invalid field (see [`SweepSpec::validate`]).
    pub fn jobs(&self) -> Result<Vec<Job>, SweepError> {
        self.validate()?;
        let gpu = self.gpu_config();
        let telemetry = self
            .sample_interval
            .map(|interval| TelemetryConfig { sample_interval: interval, ..TelemetryConfig::default() });
        let mut jobs = Vec::with_capacity(self.benches.len() * self.schemes.len());
        for bench in &self.benches {
            let spec = suite::all_specs()
                .into_iter()
                .find(|s| s.name == bench)
                .ok_or_else(|| SweepError::UnknownBench(bench.clone()))?;
            let kernel = secmem_workloads::SyntheticKernel::new(spec, self.seed);
            for &scheme in &self.schemes {
                let backend = match scheme {
                    SecurityScheme::Baseline => BackendChoice::Baseline,
                    s => BackendChoice::Secure(SecureMemConfig::with_scheme(s)),
                };
                jobs.push(Job {
                    kernel: kernel.clone(),
                    gpu: gpu.clone(),
                    backend,
                    cycles: self.cycles,
                    warmup: self.warmup,
                    label: scheme.label().to_string(),
                    telemetry: telemetry.clone(),
                    telemetry_out: None,
                });
            }
        }
        Ok(jobs)
    }

    /// Number of jobs the spec expands to.
    pub fn job_count(&self) -> usize {
        self.benches.len() * self.schemes.len()
    }

    /// Runs the whole sweep as one batch on a fresh [`Runner`] with
    /// `threads` workers (0 = all cores), so nothing is memoized across
    /// calls. One thread means the calling thread: the jobs run there in
    /// order, with the same results and failures.
    ///
    /// # Errors
    ///
    /// Returns spec errors; job *failures* (panicking configurations)
    /// come back in the second tuple slot instead of erroring the
    /// sweep.
    pub fn run(&self, threads: usize) -> Result<(Vec<RunResult>, Vec<JobFailure>), SweepError> {
        let jobs = self.jobs()?;
        Ok(if threads == 1 { run_batch_inline(jobs) } else { Runner::new(threads, 0).run_batch(jobs) })
    }

    /// The canonical result rendering: one row per (benchmark, scheme)
    /// in spec order, with the raw counters an IPC plot would be built
    /// from and the report fingerprint that content-addresses the run.
    /// Jobs that produced no result (panicked twice) render as `FAILED`
    /// rows, so the table's shape is a function of the spec alone.
    /// `results` is any sequence of borrowed results (a `&Vec`, or
    /// `Arc`s mapped to references), so rendering clones none of them.
    pub fn results_table<'a>(&self, results: impl IntoIterator<Item = &'a RunResult>) -> ExpTable {
        let results: Vec<&RunResult> = results.into_iter().collect();
        let mut table = ExpTable::new(
            format!(
                "Sweep — {} benchmarks x {} schemes (gpu={}, cycles={}, warmup={}, seed={:#x})",
                self.benches.len(),
                self.schemes.len(),
                self.gpu.label(),
                self.cycles,
                self.warmup,
                self.seed
            ),
            &["benchmark", "scheme", "cycles", "warp_insn", "thread_insn", "ipc", "report_fp"],
        );
        for bench in &self.benches {
            for &scheme in &self.schemes {
                let label = scheme.label();
                match results.iter().find(|r| &r.bench == bench && r.label == label) {
                    Some(r) => table.push_row(vec![
                        bench.clone(),
                        label.to_string(),
                        r.report.cycles.to_string(),
                        r.report.warp_instructions.to_string(),
                        r.report.thread_instructions.to_string(),
                        format!("{:.6}", r.report.ipc()),
                        format!("{:016x}", r.report_fp),
                    ]),
                    None => table.push_row(vec![
                        bench.clone(),
                        label.to_string(),
                        "FAILED".into(),
                        "FAILED".into(),
                        "FAILED".into(),
                        "FAILED".into(),
                        "FAILED".into(),
                    ]),
                }
            }
        }
        table
    }
}

/// FNV-1a fingerprint of a report's full `Debug` rendering — every
/// field, so any divergence (a dropped stall cycle, a reordered fill)
/// changes the fingerprint. Matches the checkpoint-determinism gate's
/// definition.
pub fn report_fingerprint(report: &SimReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

/// Content address of a job: the FNV-1a fingerprint of everything that
/// determines its [`RunResult`] — workload (pattern + seed), GPU
/// configuration, backend configuration, cycle budget, warmup and
/// telemetry options — and nothing that does not (label, trace paths).
///
/// Two jobs with equal fingerprints are the *same deterministic
/// simulation*, so a result cache keyed by this value can serve the
/// second submission byte-identically without re-simulating.
pub fn job_fingerprint(job: &Job) -> u64 {
    fnv1a(
        format!(
            "{:?}|{:?}|{:?}|{}|{}|{:?}",
            job.kernel, job.gpu, job.backend, job.cycles, job.warmup, job.telemetry
        )
        .as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_job;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            benches: vec!["nw".into(), "fdtd2d".into()],
            schemes: vec![SecurityScheme::Baseline, SecurityScheme::CtrMacBmt],
            gpu: GpuPreset::Small,
            cycles: 1_500,
            warmup: 0,
            seed: suite::DEFAULT_SEED,
            sample_interval: None,
            l2_bytes_per_bank: None,
            l2_assoc: None,
        }
    }

    #[test]
    fn spec_expands_bench_major() {
        let jobs = tiny_spec().jobs().expect("valid spec");
        assert_eq!(jobs.len(), 4);
        use secmem_gpusim::kernel::Kernel;
        assert_eq!(jobs[0].kernel.name(), "nw");
        assert_eq!(jobs[0].label, "baseline");
        assert_eq!(jobs[1].kernel.name(), "nw");
        assert_eq!(jobs[1].label, "ctr_mac_bmt");
        assert_eq!(jobs[2].kernel.name(), "fdtd2d");
    }

    #[test]
    fn spec_validation_catches_bad_fields() {
        let mut s = tiny_spec();
        s.benches = vec!["not-a-bench".into()];
        assert_eq!(s.jobs().expect_err("unknown"), SweepError::UnknownBench("not-a-bench".into()));
        let mut s = tiny_spec();
        s.schemes.clear();
        assert_eq!(s.jobs().expect_err("empty"), SweepError::Empty("scheme"));
        let mut s = tiny_spec();
        s.cycles = 0;
        assert!(matches!(s.jobs().expect_err("cycles"), SweepError::OutOfRange { field: "cycles", .. }));
        let mut s = tiny_spec();
        s.sample_interval = Some(0);
        assert!(matches!(s.jobs(), Err(SweepError::OutOfRange { field: "sample_interval", .. })));
    }

    #[test]
    fn geometry_overrides_apply_and_hostile_geometry_is_typed() {
        let mut s = tiny_spec();
        s.l2_bytes_per_bank = Some(64 * 1024);
        s.l2_assoc = Some(8);
        let jobs = s.jobs().expect("a consistent override is valid");
        assert_eq!(jobs[0].gpu.l2_bytes_per_bank, 64 * 1024);
        assert_eq!(jobs[0].gpu.l2_assoc, 8);

        // The geometry that used to assert inside SectoredCache: 768
        // lines per bank do not divide into 5-way sets.
        let mut hostile = tiny_spec();
        hostile.l2_bytes_per_bank = Some(96 * 1024);
        hostile.l2_assoc = Some(5);
        match hostile.jobs().expect_err("rejected at spec level") {
            SweepError::Gpu(e) => assert_eq!(e.field, "l2_bytes_per_bank/l2_assoc"),
            other => panic!("expected a typed gpu-config error, got {other:?}"),
        }
    }

    #[test]
    fn gpu_preset_labels_round_trip() {
        for preset in [GpuPreset::Volta, GpuPreset::Small] {
            assert_eq!(GpuPreset::from_label(preset.label()), Some(preset));
        }
        assert_eq!(GpuPreset::from_label("tpu"), None);
    }

    #[test]
    fn job_fingerprint_separates_what_matters_and_ignores_labels() {
        let jobs = tiny_spec().jobs().expect("valid spec");
        let fp: Vec<u64> = jobs.iter().map(job_fingerprint).collect();
        let mut sorted = fp.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), fp.len(), "distinct jobs get distinct fingerprints");

        let mut relabeled = jobs[0].clone();
        relabeled.label = "renamed".into();
        assert_eq!(job_fingerprint(&jobs[0]), job_fingerprint(&relabeled), "label is display-only");

        let mut other_seed = tiny_spec();
        other_seed.seed = 1;
        let reseeded = other_seed.jobs().expect("valid spec");
        assert_ne!(job_fingerprint(&jobs[0]), job_fingerprint(&reseeded[0]), "seed is part of the key");
    }

    #[test]
    fn results_table_is_deterministic_and_marks_missing_jobs() {
        let spec = tiny_spec();
        let jobs = spec.jobs().expect("valid spec");
        // Run only the first job; the rest render as FAILED rows.
        let results = vec![run_job(&jobs[0])];
        let table = spec.results_table(&results);
        assert_eq!(table.rows.len(), 4, "one row per (bench, scheme) regardless of results");
        assert_eq!(table.rows[0][0], "nw");
        assert_ne!(table.rows[0][6], "FAILED");
        assert_eq!(table.rows[0][6].len(), 16, "report_fp is a 16-hex-digit fingerprint");
        assert_eq!(table.rows[1][6], "FAILED");
        // Same results, same bytes.
        assert_eq!(spec.results_table(&results).to_csv(), table.to_csv());
    }

    #[test]
    fn one_thread_run_matches_the_pool() {
        let spec = tiny_spec();
        let key = |(results, failures): (Vec<RunResult>, Vec<JobFailure>)| {
            let results: Vec<_> = results.into_iter().map(|r| (r.bench, r.label, r.report_fp)).collect();
            let failures: Vec<_> = failures.into_iter().map(|f| (f.bench, f.label, f.error)).collect();
            (results, failures)
        };
        let inline = key(spec.run(1).expect("valid spec"));
        assert_eq!(inline.0.len(), spec.job_count());
        assert_eq!(inline.0[1], ("nw".to_string(), "ctr_mac_bmt".to_string(), inline.0[1].2));
        assert_eq!(inline, key(spec.run(2).expect("valid spec")));
    }

    #[test]
    fn pinned_matrix_expands_to_28_jobs() {
        let spec = SweepSpec::pinned_matrix();
        assert_eq!(spec.job_count(), 28);
        assert_eq!(spec.jobs().expect("valid").len(), 28);
    }
}
