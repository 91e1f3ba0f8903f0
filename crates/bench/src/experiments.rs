//! One function per table/figure of the paper: builds the jobs, runs them
//! on a shared [`Runner`], and renders an [`ExpTable`].
//!
//! Every experiment takes the same `(&ExpOpts, &Runner)` arguments. A
//! normalized figure runs its own baseline jobs in its batch; the
//! runner's result cache answers every job a previous figure already ran
//! (the baselines, `secureMem` itself) without simulating it again.

use std::collections::HashMap;
use std::path::PathBuf;

use secmem_core::{global_storage, MdcIdealization, MetadataCacheKind, SecureMemConfig, SecurityScheme};
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::kernel::Kernel;
use secmem_gpusim::reuse::bucket_labels;
use secmem_gpusim::stats::SimReport;
use secmem_gpusim::types::TrafficClass;
use secmem_telemetry::TelemetryConfig;
use secmem_workloads::suite::{all_specs, table4_suite_seeded, DEFAULT_SEED};
use secmem_workloads::SyntheticKernel;

use crate::runner::{BackendChoice, Job, JobFailure, RunResult, Runner};
use crate::table::{fmt_pct, fmt_ratio, gmean, ExpTable};

/// Common experiment options.
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// GPU configuration (default: the paper's Volta, Table I).
    pub gpu: GpuConfig,
    /// Cycle budget per simulation.
    pub cycles: u64,
    /// Worker threads of the experiments' [`Runner`] (0 = all cores).
    pub threads: usize,
    /// Workload seed (vary for robustness checks of the random-pattern
    /// benchmarks).
    pub seed: u64,
    /// Warmup cycles whose statistics are discarded (0 = none; published
    /// numbers use 0 since the synthetic kernels reach steady state fast).
    pub warmup: u64,
    /// When set, every job of every experiment collects telemetry with
    /// this configuration.
    pub telemetry: Option<TelemetryConfig>,
    /// Directory for per-job Chrome traces, named
    /// `{bench}_{label}.trace.json` (requires `telemetry`; experiments
    /// reusing a benchmark/label pair overwrite the earlier trace).
    pub trace_dir: Option<PathBuf>,
}

impl Default for ExpOpts {
    fn default() -> Self {
        Self {
            gpu: GpuConfig::volta(),
            cycles: 120_000,
            threads: 0,
            seed: DEFAULT_SEED,
            warmup: 0,
            telemetry: None,
            trace_dir: None,
        }
    }
}

/// An experiment whose batch lost jobs. Its figure would silently miss
/// rows, or divide by a baseline that never ran, so none is rendered.
#[derive(Debug, Clone)]
pub struct JobsFailed(pub Vec<JobFailure>);

impl std::fmt::Display for JobsFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} job(s) failed after retry", self.0.len())?;
        for failure in &self.0 {
            write!(f, "\n  {failure}")?;
        }
        Ok(())
    }
}

impl std::error::Error for JobsFailed {}

/// What every experiment returns: its table, or the jobs that kept it
/// from being whole.
pub type ExpResult = Result<ExpTable, JobsFailed>;

/// Every job of a batch, or the failures.
fn whole((results, failures): (Vec<RunResult>, Vec<JobFailure>)) -> Result<Vec<RunResult>, JobsFailed> {
    if failures.is_empty() {
        Ok(results)
    } else {
        Err(JobsFailed(failures))
    }
}

/// Applies the experiment-wide telemetry options to a job batch and runs
/// it: every job inherits `opts.telemetry`, and when `opts.trace_dir` is
/// set each job gets a `{bench}_{label}.trace.json` output path (labels
/// are sanitized so e.g. `protect_50%` stays a portable file name).
fn run_batch(opts: &ExpOpts, runner: &Runner, mut jobs: Vec<Job>) -> Result<Vec<RunResult>, JobsFailed> {
    if opts.telemetry.is_some() {
        for job in &mut jobs {
            job.telemetry = opts.telemetry.clone();
            if let Some(dir) = &opts.trace_dir {
                let label: String = job
                    .label
                    .chars()
                    .map(|c| if c.is_ascii_alphanumeric() || "-_.".contains(c) { c } else { '-' })
                    .collect();
                job.telemetry_out = Some(dir.join(format!("{}_{label}.trace.json", job.kernel.name())));
            }
        }
    }
    whole(runner.run_batch(jobs))
}

/// A job under the experiment's cycle budget and warmup.
fn job(
    opts: &ExpOpts,
    kernel: SyntheticKernel,
    gpu: &GpuConfig,
    backend: BackendChoice,
    label: impl Into<String>,
) -> Job {
    Job {
        kernel,
        gpu: gpu.clone(),
        backend,
        cycles: opts.cycles,
        warmup: opts.warmup,
        label: label.into(),
        telemetry: None,
        telemetry_out: None,
    }
}

/// The whole suite on the baseline (no secure memory) `gpu`, labelled
/// `baseline`: the denominator of every normalized-IPC figure.
fn baseline_jobs(opts: &ExpOpts, gpu: &GpuConfig) -> Vec<Job> {
    table4_suite_seeded(opts.seed)
        .into_iter()
        .map(|kernel| job(opts, kernel, gpu, BackendChoice::Baseline, "baseline"))
        .collect()
}

/// Baseline reports per benchmark.
fn baseline_reports(opts: &ExpOpts, runner: &Runner) -> Result<HashMap<String, SimReport>, JobsFailed> {
    let results = run_batch(opts, runner, baseline_jobs(opts, &opts.gpu))?;
    Ok(results.into_iter().map(|r| (r.bench, r.report)).collect())
}

fn suite_secure_jobs(opts: &ExpOpts, configs: &[(String, SecureMemConfig)]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for kernel in table4_suite_seeded(opts.seed) {
        for (label, cfg) in configs {
            jobs.push(job(opts, kernel.clone(), &opts.gpu, BackendChoice::Secure(cfg.clone()), label));
        }
    }
    jobs
}

/// Runs the suite's baselines and every configuration in one batch and
/// renders a normalized-IPC table: one row per benchmark, one column per
/// configuration, plus a geometric-mean row (the paper's standard plot
/// shape for Figs. 3, 6, 7, 8, 12, 13, 15, 16, 17).
pub fn normalized_ipc_table(
    title: &str,
    opts: &ExpOpts,
    runner: &Runner,
    configs: &[(String, SecureMemConfig)],
) -> ExpResult {
    let mut jobs = baseline_jobs(opts, &opts.gpu);
    jobs.extend(suite_secure_jobs(opts, configs));
    let labels: Vec<String> = configs.iter().map(|(label, _)| label.clone()).collect();
    Ok(render_normalized(title, &labels, &run_batch(opts, runner, jobs)?))
}

/// Each `labels` column's IPC over the same benchmark's `baseline` IPC.
fn render_normalized(title: &str, labels: &[String], results: &[RunResult]) -> ExpTable {
    let columns: Vec<_> = labels.iter().map(|l| (l.clone(), l.clone(), "baseline".to_string())).collect();
    ratio_table(title, &columns, results)
}

/// One row per benchmark plus a GMEAN row. Column `(header, label,
/// baseline)` holds each benchmark's IPC under the `label` job over its
/// IPC under the `baseline` job.
fn ratio_table(title: &str, columns: &[(String, String, String)], results: &[RunResult]) -> ExpTable {
    let mut headers = vec!["benchmark"];
    headers.extend(columns.iter().map(|(header, _, _)| header.as_str()));
    let mut table = ExpTable::new(title, &headers);
    let ipc: HashMap<(&str, &str), f64> =
        results.iter().map(|r| ((r.bench.as_str(), r.label.as_str()), r.report.ipc())).collect();
    let mut per_column: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
    for spec in all_specs() {
        let mut row = vec![spec.name.to_string()];
        for (values, (_, label, baseline)) in per_column.iter_mut().zip(columns) {
            let v = ipc[&(spec.name, label.as_str())] / ipc[&(spec.name, baseline.as_str())];
            values.push(v);
            row.push(fmt_ratio(v));
        }
        table.push_row(row);
    }
    let mut gmean_row = vec!["GMEAN".to_string()];
    gmean_row.extend(per_column.iter().map(|values| fmt_ratio(gmean(values))));
    table.push_row(gmean_row);
    table
}

/// Columns for secure runs labelled `sec_{tag}`, each normalized to a
/// baseline run labelled `base_{tag}`.
fn paired_columns(tags: [&str; 2]) -> Vec<(String, String, String)> {
    tags.iter().map(|tag| (tag.to_string(), format!("sec_{tag}"), format!("base_{tag}"))).collect()
}

// --------------------------------------------------------------------
// Tables I-III (static configuration dumps)
// --------------------------------------------------------------------

/// Table I: baseline GPU configuration.
pub fn table1(opts: &ExpOpts, _runner: &Runner) -> ExpResult {
    let g = &opts.gpu;
    let mut t = ExpTable::new("Table I — Baseline GPU configuration", &["parameter", "value"]);
    let mut kv = |k: &str, v: String| t.push_row(vec![k.into(), v]);
    kv("SMs", format!("{} @ {} MHz", g.num_sms, g.core_clock_mhz));
    kv("max warps/SM", g.max_warps_per_sm.to_string());
    kv("issue width/SM", g.issue_width.to_string());
    kv("L1 D-cache", format!("{} KB/SM", g.l1_bytes / 1024));
    kv(
        "L2 cache",
        format!(
            "{} banks/partition, {} KB/bank, {} MB total",
            g.l2_banks_per_partition,
            g.l2_bytes_per_bank / 1024,
            g.l2_total_bytes() / (1024 * 1024)
        ),
    );
    kv(
        "DRAM",
        format!(
            "{} MHz, {} GB/s, {} partitions ({}% efficient)",
            g.mem_clock_mhz, g.dram_total_gbps, g.num_partitions, g.dram_efficiency_pct
        ),
    );
    kv("protected memory", format!("{} GB", g.protected_bytes >> 30));
    Ok(t)
}

/// Table II: metadata organization and storage.
pub fn table2(opts: &ExpOpts, _runner: &Runner) -> ExpResult {
    let s = global_storage(opts.gpu.protected_bytes);
    let mb = |b: u64| format!("{:.2} MB", b as f64 / (1024.0 * 1024.0));
    let mut t = ExpTable::new(
        "Table II — Metadata organization and storage",
        &["metadata", "counter-mode encryption", "direct encryption"],
    );
    t.push_row(vec!["counter".into(), format!("128B/16KB, 7b/blk, {}", mb(s.counter_bytes)), "-".into()]);
    t.push_row(vec![
        "MAC".into(),
        format!("8B/blk, 2B/sector, {}", mb(s.mac_bytes)),
        format!("8B/blk, 2B/sector, {}", mb(s.mac_bytes)),
    ]);
    t.push_row(vec![
        "BMT/MT".into(),
        format!("16-ary, {} levels, {}", s.bmt_levels, mb(s.bmt_bytes)),
        format!("16-ary, {} levels, {}", s.mt_levels, mb(s.mt_bytes)),
    ]);
    t.push_row(vec!["total".into(), mb(s.counter_mode_total()), mb(s.direct_total())]);
    t.note("paper: 32 + 256 + 2.14 = 290.14 MB (counter mode); 256 + 17.1 = 273.1 MB (direct)");
    Ok(t)
}

/// Table III: metadata cache organization.
pub fn table3(_opts: &ExpOpts, _runner: &Runner) -> ExpResult {
    let c = SecureMemConfig::secure_mem();
    let mut t = ExpTable::new("Table III — Metadata cache organization", &["structure", "value"]);
    t.push_row(vec![
        "counter/MAC/tree cache".into(),
        format!(
            "{{2,4,8,16,32,64}} KB/partition, {} KB default, 128 B blk, {} MSHRs, allocate-on-fill",
            c.mdcache_bytes / 1024,
            c.mdcache_mshrs
        ),
    ]);
    t.push_row(vec![
        "unified metadata cache".into(),
        format!("{} KB/partition, 128 B blk, {} MSHRs", c.unified_bytes / 1024, c.mdcache_mshrs * 3),
    ]);
    t.push_row(vec!["hash/MAC latency".into(), format!("{} cycles", c.mac_latency)]);
    t.push_row(vec!["AES engines".into(), format!("{{1,2}}/partition, {} default", c.aes_engines)]);
    Ok(t)
}

/// Table IV: baseline bandwidth utilization and IPC per benchmark,
/// measured vs. the paper.
pub fn table4(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let mut t = ExpTable::new(
        "Table IV — Benchmarks (baseline GPU, measured vs. paper)",
        &["category", "benchmark", "bw-util", "paper-bw", "ipc", "paper-ipc"],
    );
    let baselines = baseline_reports(opts, runner)?;
    for spec in all_specs() {
        let r = &baselines[spec.name];
        t.push_row(vec![
            spec.category.to_string(),
            spec.name.to_string(),
            fmt_pct(r.bandwidth_utilization(&opts.gpu)),
            format!("{}%-{}%", spec.paper_bw_pct.0, spec.paper_bw_pct.1),
            format!("{:.1}", r.ipc()),
            format!("{:.1}", spec.paper_ipc),
        ]);
    }
    Ok(t)
}

// --------------------------------------------------------------------
// Section V — counter-mode encryption
// --------------------------------------------------------------------

/// The §V-A `secureMem` configuration: counter-mode + MAC + BMT with NO
/// metadata-cache MSHRs.
fn secure_mem_no_mshr() -> SecureMemConfig {
    SecureMemConfig { mdcache_mshrs: 0, ..SecureMemConfig::secure_mem() }
}

/// Fig. 3: normalized IPC of counter-mode + BMT under idealizations.
pub fn fig3(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let configs = vec![
        ("secureMem".to_string(), secure_mem_no_mshr()),
        ("0_crypto".to_string(), SecureMemConfig { zero_crypto: true, ..secure_mem_no_mshr() }),
        (
            "perf_mdc".to_string(),
            SecureMemConfig { idealization: MdcIdealization::Perfect, ..secure_mem_no_mshr() },
        ),
        (
            "large_mdc".to_string(),
            SecureMemConfig { idealization: MdcIdealization::Infinite, ..secure_mem_no_mshr() },
        ),
    ];
    normalized_ipc_table(
        "Fig. 3 — Normalized IPC, counter-mode encryption with BMT (no metadata-cache MSHRs)",
        opts,
        runner,
        &configs,
    )
}

/// Fig. 4: distribution of DRAM request types under `secureMem`.
pub fn fig4(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let configs = vec![("secureMem".to_string(), secure_mem_no_mshr())];
    let results = run_batch(opts, runner, suite_secure_jobs(opts, &configs))?;
    let mut t = ExpTable::new(
        "Fig. 4 — Distribution of DRAM request types (secureMem)",
        &["benchmark", "data", "ctr", "mac", "bmt", "wb"],
    );
    let mut sums = [0.0f64; 5];
    for r in &results {
        let d = &r.report.dram;
        let total = d.total_requests().max(1) as f64;
        // 'data' includes data reads and data writes; 'wb' is metadata writebacks.
        let data = (d.class(TrafficClass::Data).reads + d.class(TrafficClass::Data).writes) as f64;
        let ctr = d.class(TrafficClass::Counter).reads as f64;
        let mac = d.class(TrafficClass::Mac).reads as f64;
        let bmt = d.class(TrafficClass::Tree).reads as f64;
        let wb = (d.class(TrafficClass::Counter).writes
            + d.class(TrafficClass::Mac).writes
            + d.class(TrafficClass::Tree).writes) as f64;
        let fr = [data / total, ctr / total, mac / total, bmt / total, wb / total];
        for (s, f) in sums.iter_mut().zip(fr) {
            *s += f;
        }
        let mut row = vec![r.bench.clone()];
        row.extend(fr.iter().map(|f| fmt_pct(*f)));
        t.push_row(row);
    }
    let n = results.len().max(1) as f64;
    let mut avg = vec!["MEAN".to_string()];
    avg.extend(sums.iter().map(|s| fmt_pct(s / n)));
    t.push_row(avg);
    t.note("paper averages: mac 25.58%, ctr 21.77% of requests");
    Ok(t)
}

/// Fig. 5: secondary-miss ratio in each metadata cache (default 64 MSHRs).
pub fn fig5(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let configs = vec![("secureMem".to_string(), SecureMemConfig::secure_mem())];
    let results = run_batch(opts, runner, suite_secure_jobs(opts, &configs))?;
    let mut t = ExpTable::new(
        "Fig. 5 — Secondary-miss ratio of metadata-cache misses",
        &["benchmark", "ctr", "mac", "bmt"],
    );
    let mut sums = [0.0f64; 3];
    for r in &results {
        let mut row = vec![r.bench.clone()];
        for (i, class) in [TrafficClass::Counter, TrafficClass::Mac, TrafficClass::Tree].iter().enumerate() {
            let s = r.report.engine.class(*class).mshr;
            let ratio = s.secondary_ratio();
            sums[i] += ratio;
            row.push(fmt_pct(ratio));
        }
        t.push_row(row);
    }
    let n = results.len().max(1) as f64;
    t.push_row(vec!["MEAN".into(), fmt_pct(sums[0] / n), fmt_pct(sums[1] / n), fmt_pct(sums[2] / n)]);
    t.note("paper averages: ctr 64.96%, mac 59.67%, bmt 85.63%");
    Ok(t)
}

/// Fig. 6: normalized IPC vs. metadata-cache MSHR count.
pub fn fig6(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let configs: Vec<(String, SecureMemConfig)> = [0u32, 16, 32, 64, 128]
        .iter()
        .map(|&n| {
            (format!("mshr_{n}"), SecureMemConfig { mdcache_mshrs: n, ..SecureMemConfig::secure_mem() })
        })
        .collect();
    normalized_ipc_table("Fig. 6 — Normalized IPC vs. metadata-cache MSHRs", opts, runner, &configs)
}

/// Fig. 7: normalized IPC vs. metadata cache size.
pub fn fig7(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let configs: Vec<(String, SecureMemConfig)> = [2u64, 4, 8, 16, 32, 64]
        .iter()
        .map(|&kb| {
            (format!("{kb}KB"), SecureMemConfig { mdcache_bytes: kb * 1024, ..SecureMemConfig::secure_mem() })
        })
        .collect();
    normalized_ipc_table(
        "Fig. 7 — Normalized IPC vs. metadata cache size (per type per partition)",
        opts,
        runner,
        &configs,
    )
}

fn unified_cfg() -> SecureMemConfig {
    SecureMemConfig { cache_kind: MetadataCacheKind::Unified, ..SecureMemConfig::secure_mem() }
}

/// Fig. 8: unified vs. separate metadata caches (normalized IPC).
pub fn fig8(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let configs =
        vec![("separate".to_string(), SecureMemConfig::secure_mem()), ("unified".to_string(), unified_cfg())];
    normalized_ipc_table(
        "Fig. 8 — Unified vs. separate metadata caches (normalized IPC)",
        opts,
        runner,
        &configs,
    )
}

/// Fig. 9: per-type metadata miss rates, unified vs. separate.
pub fn fig9(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let configs =
        vec![("separate".to_string(), SecureMemConfig::secure_mem()), ("unified".to_string(), unified_cfg())];
    let results = run_batch(opts, runner, suite_secure_jobs(opts, &configs))?;
    let mut t = ExpTable::new(
        "Fig. 9 — Metadata miss rates, unified vs. separate",
        &["benchmark", "ctr-sep", "ctr-uni", "mac-sep", "mac-uni", "bmt-sep", "bmt-uni"],
    );
    let mut by: HashMap<(String, String), [f64; 3]> = HashMap::new();
    for r in &results {
        let mut rates = [0.0; 3];
        for (i, class) in [TrafficClass::Counter, TrafficClass::Mac, TrafficClass::Tree].iter().enumerate() {
            rates[i] = r.report.engine.class(*class).cache.miss_rate();
        }
        by.insert((r.bench.clone(), r.label.clone()), rates);
    }
    let mut sums = [0.0f64; 6];
    let mut n = 0usize;
    for spec in all_specs() {
        let sep = by[&(spec.name.to_string(), "separate".to_string())];
        let uni = by[&(spec.name.to_string(), "unified".to_string())];
        let cells = [sep[0], uni[0], sep[1], uni[1], sep[2], uni[2]];
        for (s, c) in sums.iter_mut().zip(cells) {
            *s += c;
        }
        n += 1;
        let mut row = vec![spec.name.to_string()];
        row.extend(cells.iter().map(|c| fmt_pct(*c)));
        t.push_row(row);
    }
    let mut mean = vec!["MEAN".to_string()];
    mean.extend(sums.iter().map(|s| fmt_pct(s / n as f64)));
    t.push_row(mean);
    t.note("paper means: ctr 22.77->24.03%, mac 31.75->31.82%, bmt 4.02->5.93% (sep->uni)");
    Ok(t)
}

/// Fig. 10: reuse-distance histogram of counter accesses.
pub fn fig10(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    reuse_distance(opts, runner, 0)
}

/// Fig. 11: reuse-distance histogram of MAC accesses.
pub fn fig11(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    reuse_distance(opts, runner, 1)
}

/// Reuse-distance histogram of counter (class index 0) or MAC (class
/// index 1) accesses of partition 0 for `fdtd2d`.
fn reuse_distance(opts: &ExpOpts, runner: &Runner, class_index: usize) -> ExpResult {
    let kernel = secmem_workloads::suite::by_name("fdtd2d").expect("fdtd2d in suite");
    let mk = |kind: MetadataCacheKind, label: &str| {
        let cfg = SecureMemConfig { profile_reuse: true, cache_kind: kind, ..SecureMemConfig::secure_mem() };
        job(opts, kernel.clone(), &opts.gpu, BackendChoice::Secure(cfg), label)
    };
    let results = run_batch(
        opts,
        runner,
        vec![mk(MetadataCacheKind::Separate, "separate"), mk(MetadataCacheKind::Unified, "unified")],
    )?;
    let what = if class_index == 0 { "counters (Fig. 10)" } else { "MACs (Fig. 11)" };
    let mut t = ExpTable::new(
        format!("Reuse distance of {what} — fdtd2d, partition 0"),
        &["bucket", "separate", "separate-%", "unified", "unified-%"],
    );
    let hist = |r: &RunResult| r.reuse.expect("profiling enabled")[class_index];
    let sep = hist(&results[0]);
    let uni = hist(&results[1]);
    let sep_total: u64 = sep.iter().sum::<u64>().max(1);
    let uni_total: u64 = uni.iter().sum::<u64>().max(1);
    for (i, label) in bucket_labels().iter().enumerate() {
        t.push_row(vec![
            label.clone(),
            sep[i].to_string(),
            fmt_pct(sep[i] as f64 / sep_total as f64),
            uni[i].to_string(),
            fmt_pct(uni[i] as f64 / uni_total as f64),
        ]);
    }
    t.note("the access trace is organization-independent; both columns shown for completeness");
    Ok(t)
}

/// Fig. 12: normalized IPC with 1 vs. 2 AES engines per partition.
pub fn fig12(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let configs = vec![
        ("1_engine".to_string(), SecureMemConfig { aes_engines: 1, ..SecureMemConfig::secure_mem() }),
        ("2_engines".to_string(), SecureMemConfig::secure_mem()),
    ];
    normalized_ipc_table(
        "Fig. 12 — Normalized IPC with {1,2} AES engines per partition",
        opts,
        runner,
        &configs,
    )
}

// --------------------------------------------------------------------
// §V-F die area
// --------------------------------------------------------------------

/// Table VI: published AES-engine die areas.
pub fn table6(_opts: &ExpOpts, _runner: &Runner) -> ExpResult {
    let mut t = ExpTable::new("Table VI — Die area of AES engines", &["source", "tech", "area"]);
    for d in secmem_core::area::AES_DESIGNS {
        t.push_row(vec![
            d.source.to_string(),
            format!("{} nm", d.tech_nm),
            format!("{:.6} mm^2", d.area_mm2),
        ]);
    }
    Ok(t)
}

/// Table VII: areas scaled to 12 nm.
pub fn table7(_opts: &ExpOpts, _runner: &Runner) -> ExpResult {
    let r = secmem_core::area::area_report(12.0, 32, 32);
    let mut t = ExpTable::new("Table VII — Scaled-down die area (12 nm)", &["structure", "area (mm^2)"]);
    t.push_row(vec!["AES engine".into(), format!("{:.4}", r.aes_engine_mm2)]);
    t.push_row(vec!["64 KB cache".into(), format!("{:.5}", r.cache_64kb_mm2)]);
    t.push_row(vec!["96 KB cache".into(), format!("{:.5}", r.cache_96kb_mm2)]);
    t.note("paper: 0.0036 / 0.01769 / 0.01801 mm^2");
    Ok(t)
}

/// §V-F: L2 capacity displaced by the security hardware.
pub fn area_displacement(_opts: &ExpOpts, _runner: &Runner) -> ExpResult {
    let r = secmem_core::area::area_report(12.0, 32, 32);
    let mut t =
        ExpTable::new("§V-F — L2 capacity displaced by security hardware", &["component", "displaced L2"]);
    t.push_row(vec!["32 AES engines".into(), format!("{:.0} KB", r.l2_displaced_by_aes_kb)]);
    t.push_row(vec!["MAC units (≈AES)".into(), format!("{:.0} KB", r.l2_displaced_by_mac_kb)]);
    t.push_row(vec!["metadata caches".into(), format!("{:.0} KB", r.l2_displaced_by_mdcache_kb)]);
    t.push_row(vec![
        "total".into(),
        format!("{:.0} KB ({:.2}% of 6 MB L2)", r.l2_displaced_total_kb, r.l2_displaced_fraction * 100.0),
    ]);
    t.note("paper: 614 + 614 + 298 = 1526 KB (24.84%)");
    Ok(t)
}

// --------------------------------------------------------------------
// Fig. 13/14 — L2 capacity
// --------------------------------------------------------------------

/// Fig. 13: normalized IPC of secureMem with reduced L2 capacities.
/// (The sweep uses 8-way L2 banks so every capacity divides evenly.)
pub fn fig13(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let mut gpu8 = opts.gpu.clone();
    gpu8.l2_assoc = 8;
    let mut jobs = baseline_jobs(opts, &gpu8); // baseline at full 6 MB
    let sizes_mb = [(4.0f64, 64u64), (4.5, 72), (5.0, 80), (5.5, 88), (6.0, 96)];
    for kernel in table4_suite_seeded(opts.seed) {
        for &(mb, kb_per_bank) in &sizes_mb {
            let mut gpu = gpu8.clone();
            gpu.l2_bytes_per_bank = kb_per_bank * 1024;
            let secure = BackendChoice::Secure(SecureMemConfig::secure_mem());
            jobs.push(job(opts, kernel.clone(), &gpu, secure, format!("secureMem_{mb}MB")));
        }
    }
    let labels: Vec<String> = sizes_mb.iter().map(|&(mb, _)| format!("secureMem_{mb}MB")).collect();
    Ok(render_normalized(
        "Fig. 13 — Normalized IPC of secureMem with reduced L2 capacity",
        &labels,
        &run_batch(opts, runner, jobs)?,
    ))
}

/// Fig. 14: baseline L2 miss rate per benchmark.
pub fn fig14(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let mut t = ExpTable::new("Fig. 14 — Baseline L2 miss rate", &["benchmark", "l2-miss-rate"]);
    let baselines = baseline_reports(opts, runner)?;
    for spec in all_specs() {
        let r = &baselines[spec.name];
        t.push_row(vec![spec.name.to_string(), fmt_pct(r.l2.miss_rate())]);
    }
    Ok(t)
}

// --------------------------------------------------------------------
// Section VI — direct encryption
// --------------------------------------------------------------------

/// Fig. 15: direct encryption with different AES latencies.
pub fn fig15(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let configs: Vec<(String, SecureMemConfig)> =
        [40u32, 80, 160].iter().map(|&lat| (format!("direct_{lat}"), SecureMemConfig::direct(lat))).collect();
    normalized_ipc_table(
        "Fig. 15 — Normalized IPC of direct encryption vs. AES latency",
        opts,
        runner,
        &configs,
    )
}

/// Fig. 16: direct vs. counter-mode (with/without counter integrity).
pub fn fig16(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let configs = vec![
        ("direct_40".to_string(), SecureMemConfig::direct(40)),
        ("ctr".to_string(), SecureMemConfig::with_scheme(SecurityScheme::CtrOnly)),
        ("ctr_bmt".to_string(), SecureMemConfig::with_scheme(SecurityScheme::CtrBmt)),
    ];
    normalized_ipc_table(
        "Fig. 16 — Direct vs. counter-mode encryption (normalized IPC)",
        opts,
        runner,
        &configs,
    )
}

/// Fig. 17: full integrity protection — ctr_mac_bmt vs. direct_mac vs.
/// direct_mac_mt, with equal on-chip metadata-cache budget (6 KB).
pub fn fig17(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let ctr = SecureMemConfig::secure_mem(); // 3 x 2 KB
    let direct_mac = SecureMemConfig {
        scheme: SecurityScheme::DirectMac,
        mdcache_bytes_by_type: Some([0, 6 * 1024, 0]),
        ..SecureMemConfig::secure_mem()
    };
    let direct_mac_mt = SecureMemConfig {
        scheme: SecurityScheme::DirectMacMt,
        mdcache_bytes_by_type: Some([0, 3 * 1024, 3 * 1024]),
        ..SecureMemConfig::secure_mem()
    };
    let configs = vec![
        ("ctr_mac_bmt".to_string(), ctr),
        ("direct_mac".to_string(), direct_mac),
        ("direct_mac_mt".to_string(), direct_mac_mt),
    ];
    normalized_ipc_table(
        "Fig. 17 — Integrity protection (normalized IPC, equal 6 KB metadata-cache budget)",
        opts,
        runner,
        &configs,
    )
}

// --------------------------------------------------------------------
// Extensions beyond the paper (ablations of its design choices)
// --------------------------------------------------------------------

/// Ablation: metadata-cache replacement policy. §V-D conjectures that
/// "smart replacement policies" could rescue the unified organization;
/// this runs LRU vs. SRRIP for both organizations.
pub fn ablation_replacement(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    use secmem_gpusim::cache::ReplacementPolicy;
    let mk = |kind: MetadataCacheKind, policy: ReplacementPolicy| SecureMemConfig {
        cache_kind: kind,
        mdcache_policy: policy,
        ..SecureMemConfig::secure_mem()
    };
    let configs = vec![
        ("sep_lru".to_string(), mk(MetadataCacheKind::Separate, ReplacementPolicy::Lru)),
        ("sep_srrip".to_string(), mk(MetadataCacheKind::Separate, ReplacementPolicy::Srrip)),
        ("uni_lru".to_string(), mk(MetadataCacheKind::Unified, ReplacementPolicy::Lru)),
        ("uni_srrip".to_string(), mk(MetadataCacheKind::Unified, ReplacementPolicy::Srrip)),
    ];
    let mut t = normalized_ipc_table(
        "Ablation — metadata-cache replacement policy (SS V-D conjecture)",
        opts,
        runner,
        &configs,
    )?;
    t.note("the paper suggests thrash-resistant replacement as an alternative to separate caches");
    Ok(t)
}

/// Ablation: speculative vs. blocking integrity verification. The paper
/// adopts speculative verification from CPU secure memory; this measures
/// what the choice is worth on a GPU.
pub fn ablation_verification(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let configs = vec![
        ("speculative".to_string(), SecureMemConfig::secure_mem()),
        (
            "blocking".to_string(),
            SecureMemConfig { speculative_verification: false, ..SecureMemConfig::secure_mem() },
        ),
    ];
    let mut t = normalized_ipc_table(
        "Ablation — speculative vs. blocking verification (ctr_mac_bmt)",
        opts,
        runner,
        &configs,
    )?;
    t.note("blocking holds each read until its MAC check (and counter hash) completes");
    Ok(t)
}

/// Ablation: warp scheduler (GTO vs. LRR). Each scheduler's secure run is
/// normalized to a baseline with the *same* scheduler, testing that the
/// paper's conclusions are not artifacts of GTO scheduling.
pub fn ablation_scheduler(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    use secmem_gpusim::config::SchedulerPolicy;
    let mut jobs = Vec::new();
    for kernel in table4_suite_seeded(opts.seed) {
        for (sched, tag) in [(SchedulerPolicy::Gto, "gto"), (SchedulerPolicy::Lrr, "lrr")] {
            let mut gpu = opts.gpu.clone();
            gpu.scheduler = sched;
            jobs.push(job(opts, kernel.clone(), &gpu, BackendChoice::Baseline, format!("base_{tag}")));
            let secure = BackendChoice::Secure(SecureMemConfig::secure_mem());
            jobs.push(job(opts, kernel.clone(), &gpu, secure, format!("sec_{tag}")));
        }
    }
    let mut t = ratio_table(
        "Ablation — warp scheduler (normalized IPC of secureMem under GTO vs. LRR)",
        &paired_columns(["gto", "lrr"]),
        &run_batch(opts, runner, jobs)?,
    );
    t.note("each column normalized to a baseline using the same scheduler");
    Ok(t)
}

/// Extension: selective encryption (Zuo et al., related work). Sweeps the
/// protected fraction of each benchmark's *footprint* under the full
/// ctr_mac_bmt scheme (the boundary is aligned to the partition
/// interleave, so the split is exact).
pub fn selective_encryption(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let pcts = [25u64, 50, 75, 100];
    let align = opts.gpu.num_partitions as u64 * opts.gpu.interleave_bytes;
    let mut jobs = baseline_jobs(opts, &opts.gpu);
    for spec in all_specs() {
        let kernel = secmem_workloads::suite::by_name(spec.name).expect("suite benchmark");
        for &pct in &pcts {
            let limit = (spec.footprint * pct / 100).next_multiple_of(align);
            let cfg = SecureMemConfig { protected_limit: Some(limit), ..SecureMemConfig::secure_mem() };
            let label = format!("protect_{pct}%");
            jobs.push(job(opts, kernel.clone(), &opts.gpu, BackendChoice::Secure(cfg), label));
        }
    }
    let labels: Vec<String> = pcts.iter().map(|p| format!("protect_{p}%")).collect();
    let mut t = render_normalized(
        "Extension — selective encryption: protected fraction of each footprint (ctr_mac_bmt)",
        &labels,
        &run_batch(opts, runner, jobs)?,
    );
    t.note("unprotected accesses bypass the engine entirely (no metadata, no crypto)");
    Ok(t)
}

/// Ablation: DRAM row-buffer modeling. The reproduction's default DRAM
/// model is flat-rate with an efficiency derate; this re-runs secureMem
/// with an explicit banked row-buffer model to check the conclusions are
/// not sensitive to that choice (each column normalized to a baseline
/// using the same DRAM model).
pub fn ablation_dram(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    let mut banked = opts.gpu.clone();
    banked.dram_banks = 16;
    banked.dram_row_miss_penalty = 8;
    // The explicit row penalty replaces part of the blanket derate.
    banked.dram_efficiency_pct = 95;
    let mut jobs = Vec::new();
    for kernel in table4_suite_seeded(opts.seed) {
        for (gpu, tag) in [(opts.gpu.clone(), "flat"), (banked.clone(), "banked")] {
            jobs.push(job(opts, kernel.clone(), &gpu, BackendChoice::Baseline, format!("base_{tag}")));
            let secure = BackendChoice::Secure(SecureMemConfig::secure_mem());
            jobs.push(job(opts, kernel.clone(), &gpu, secure, format!("sec_{tag}")));
        }
    }
    let mut t = ratio_table(
        "Ablation — DRAM model (normalized IPC of secureMem, flat-rate vs. banked row-buffer)",
        &paired_columns(["flat", "banked"]),
        &run_batch(opts, runner, jobs)?,
    );
    t.note("16 banks/partition, 2 KB rows, 8-cycle row-miss penalty, 95% derate");
    Ok(t)
}

/// Extension: the DL-accelerator workload suite (`secmem_workloads::ml`)
/// under the main protection schemes — the deployment scenario (cloud ML
/// serving) that motivates GPU TEEs in the paper's introduction.
pub fn ml_suite(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    use secmem_workloads::ml;
    let schemes = [
        ("ctr_mac_bmt", SecureMemConfig::secure_mem()),
        (
            "direct_mac",
            SecureMemConfig {
                scheme: secmem_core::SecurityScheme::DirectMac,
                mdcache_bytes_by_type: Some([0, 6 * 1024, 0]),
                ..SecureMemConfig::secure_mem()
            },
        ),
    ];
    let mut jobs = Vec::new();
    for kernel in ml::ml_suite() {
        jobs.push(job(opts, kernel.clone(), &opts.gpu, BackendChoice::Baseline, "baseline"));
        for (label, cfg) in &schemes {
            jobs.push(job(opts, kernel.clone(), &opts.gpu, BackendChoice::Secure(cfg.clone()), *label));
        }
    }
    let results = run_batch(opts, runner, jobs)?;
    let mut by: HashMap<(String, String), SimReport> = HashMap::new();
    for r in results {
        by.insert((r.bench.clone(), r.label.clone()), r.report);
    }
    let mut t = ExpTable::new(
        "Extension — DL workloads under secure memory",
        &["workload", "bw-util", "ipc", "ctr_mac_bmt", "direct_mac"],
    );
    for kernel in ml::ml_suite() {
        let name = kernel.name().to_string();
        let base = &by[&(name.clone(), "baseline".to_string())];
        let norm = |label: &str| by[&(name.clone(), label.to_string())].ipc() / base.ipc();
        t.push_row(vec![
            name.clone(),
            fmt_pct(base.bandwidth_utilization(&opts.gpu)),
            format!("{:.1}", base.ipc()),
            fmt_ratio(norm("ctr_mac_bmt")),
            fmt_ratio(norm("direct_mac")),
        ]);
    }
    t.note("bandwidth-bound attention/conv pay the most; compute-bound gemm is nearly free");
    Ok(t)
}

/// The full (benchmark × scheme) sweep matrix via [`crate::sweep`] — the
/// same expansion and rendering the `secmem-serve` server uses, exposed
/// as a batch experiment so server output can be diffed against
/// `reproduce matrix` byte-for-byte.
pub fn matrix(opts: &ExpOpts, runner: &Runner) -> ExpResult {
    use crate::sweep::{GpuPreset, SweepSpec};
    let preset = if opts.gpu == GpuConfig::small() { GpuPreset::Small } else { GpuPreset::Volta };
    let spec = SweepSpec {
        gpu: preset,
        cycles: opts.cycles,
        warmup: opts.warmup,
        seed: opts.seed,
        sample_interval: opts.telemetry.as_ref().map(|t| t.sample_interval),
        ..SweepSpec::pinned_matrix()
    };
    let jobs = spec.jobs().expect("pinned matrix spec is valid");
    Ok(spec.results_table(&whole(runner.run_batch(jobs))?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::job_fingerprint;

    fn small_opts() -> ExpOpts {
        ExpOpts { gpu: GpuConfig::small(), cycles: 1_500, threads: 2, ..ExpOpts::default() }
    }

    #[test]
    fn static_tables_render() {
        let opts = ExpOpts { cycles: 100, ..ExpOpts::default() };
        let runner = Runner::new(1, 0);
        let render = |exp: fn(&ExpOpts, &Runner) -> ExpResult| exp(&opts, &runner).expect("static").render();
        assert!(render(table1).contains("80 @ 1132 MHz"));
        assert!(render(table2).contains("32.00 MB"));
        assert!(render(table2).contains("256.00 MB"));
        assert!(render(table3).contains("64 MSHRs"));
        assert!(render(table6).contains("JSSC'20"));
        assert!(render(table7).contains("AES engine"));
        assert!(render(area_displacement).contains("total"));
        assert_eq!(runner.stats().misses, 0, "static tables simulate nothing");
    }

    #[test]
    fn small_gpu_experiment_smoke() {
        // A tiny end-to-end run through the harness plumbing.
        let opts = small_opts();
        let runner = Runner::new(opts.threads, 0);
        let t4 = table4(&opts, &runner).expect("no job fails");
        assert_eq!(t4.rows.len(), 14);
        let configs = vec![("secureMem".to_string(), SecureMemConfig::secure_mem())];
        let t = normalized_ipc_table("smoke", &opts, &runner, &configs).expect("no job fails");
        assert_eq!(t.rows.len(), 15, "14 benchmarks + GMEAN");
        for row in &t.rows {
            let v: f64 = row[1].parse().expect("ratio parses");
            assert!(v.is_finite() && v >= 0.0);
        }
    }

    #[test]
    fn a_failed_job_fails_the_figure() {
        let mut opts = small_opts();
        opts.gpu.issue_width = 0; // rejected by GpuConfig::validate → Simulator::new panics
        let err = fig4(&opts, &Runner::new(opts.threads, 0)).expect_err("no partial figure");
        assert_eq!(err.0.len(), 14, "every benchmark's job failed");
        let message = err.to_string();
        assert!(message.starts_with("14 job(s) failed after retry"), "{message}");
        assert!(message.contains("nw/secureMem: ") && message.contains("issue_width"), "{message}");
    }

    #[test]
    fn the_result_memo_is_invisible() {
        let opts = small_opts();
        let shared = Runner::new(opts.threads, 0);
        let fig5_shared = fig5(&opts, &shared).expect("no job fails").to_csv();
        let fig8_shared = fig8(&opts, &shared).expect("no job fails").to_csv();
        let fig5_fresh = fig5(&opts, &Runner::new(opts.threads, 0)).expect("no job fails").to_csv();
        let fig8_fresh = fig8(&opts, &Runner::new(opts.threads, 0)).expect("no job fails").to_csv();
        assert_eq!(fig5_shared, fig5_fresh);
        assert_eq!(fig8_shared, fig8_fresh, "memo hits keep the requesting job's `separate` label");

        let stats = shared.stats();
        assert_eq!((stats.hits, stats.coalesced), (14, 0), "fig8's `separate` column is fig5's secureMem");
        let mut fingerprints: Vec<u64> = baseline_jobs(&opts, &opts.gpu)
            .iter()
            .chain(&suite_secure_jobs(&opts, &[("secureMem".into(), SecureMemConfig::secure_mem())]))
            .chain(&suite_secure_jobs(&opts, &[("unified".into(), unified_cfg())]))
            .map(job_fingerprint)
            .collect();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert_eq!(stats.misses, fingerprints.len() as u64, "one simulation per distinct job");
    }
}
