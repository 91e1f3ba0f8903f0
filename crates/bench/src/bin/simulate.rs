//! `simulate` — run one benchmark under one configuration and print the
//! full report (text or JSON). The single-run counterpart of the
//! `reproduce` sweep harness.
//!
//! ```text
//! simulate --bench fdtd2d --scheme ctr_mac_bmt [options]
//!
//! options:
//!   --bench NAME          Table-IV benchmark or ml_* workload (default fdtd2d)
//!   --scheme S            baseline|ctr|ctr_bmt|ctr_mac_bmt|direct|direct_mac|direct_mac_mt
//!   --cycles N            cycle budget (default 120000)
//!   --small               scaled-down 8-SM GPU
//!   --mdcache-kb N        per-type metadata cache size (default 2)
//!   --mshrs N             metadata-cache MSHRs (default 64)
//!   --aes-engines N       pipelined AES engines per partition (default 2)
//!   --aes-latency N       AES latency in cycles (default 40)
//!   --unified             unified metadata cache instead of separate
//!   --srrip               SRRIP metadata-cache replacement
//!   --blocking            blocking (non-speculative) verification
//!   --protected-mb N      selective encryption: protect only the first N MB
//!   --json                emit JSON instead of text
//!   --telemetry           sample per-component time series during the run
//!   --sample-interval N   telemetry sampling interval in cycles (default 512)
//!   --trace-out FILE      write a Chrome trace_event JSON (implies --telemetry)
//!   --checkpoint-every N  snapshot full simulator state every N cycles
//!   --checkpoint-out F    where snapshots go (default simulate.ckpt)
//!   --resume-from F       restore a snapshot and continue the run from it
//! ```
//!
//! Checkpointing makes paper-scale runs crash-safe: a run killed between
//! snapshots loses at most `N` cycles, and `--resume-from` continues it
//! to a report byte-identical to an uninterrupted run (telemetry off).
//! If the forward-progress watchdog trips, the wounded machine is
//! captured in `<checkpoint-out>.emergency` for post-mortem debugging.

use std::path::{Path, PathBuf};

use secmem_bench::json::report_to_json;
use secmem_bench::{run_job, run_job_with, BackendChoice, Drive, Job};
use secmem_checkpoint::Frame;
use secmem_core::{MetadataCacheKind, SecureBackend, SecureMemConfig, SecurityScheme};
use secmem_gpusim::backend::MemoryBackend;
use secmem_gpusim::cache::ReplacementPolicy;
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::sim::Simulator;
use secmem_gpusim::stats::SimReport;
use secmem_gpusim::types::TrafficClass;
use secmem_telemetry::{chrome, json, TelemetryConfig};
use secmem_workloads::{ml, suite, SyntheticKernel};

struct Options {
    bench: String,
    scheme: String,
    cycles: u64,
    warmup: u64,
    gpu: GpuConfig,
    cfg: SecureMemConfig,
    json: bool,
    telemetry: bool,
    sample_interval: u64,
    trace_out: Option<PathBuf>,
    checkpoint_every: u64,
    checkpoint_out: PathBuf,
    resume_from: Option<PathBuf>,
}

fn find_kernel(name: &str) -> Option<SyntheticKernel> {
    suite::by_name(name).or_else(|| {
        use secmem_gpusim::kernel::Kernel;
        ml::ml_suite().into_iter().find(|k| k.name() == name)
    })
}

fn parse() -> Result<Options, String> {
    let mut o = Options {
        bench: "fdtd2d".into(),
        scheme: "ctr_mac_bmt".into(),
        cycles: 120_000,
        warmup: 0,
        gpu: GpuConfig::volta(),
        cfg: SecureMemConfig::secure_mem(),
        json: false,
        telemetry: false,
        sample_interval: TelemetryConfig::default().sample_interval,
        trace_out: None,
        checkpoint_every: 0,
        checkpoint_out: PathBuf::from("simulate.ckpt"),
        resume_from: None,
    };
    let mut it = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => o.bench = need(&mut it, "--bench")?,
            "--scheme" => o.scheme = need(&mut it, "--scheme")?,
            "--cycles" => {
                o.cycles = need(&mut it, "--cycles")?.parse().map_err(|e| format!("--cycles: {e}"))?
            }
            "--warmup" => {
                o.warmup = need(&mut it, "--warmup")?.parse().map_err(|e| format!("--warmup: {e}"))?
            }
            "--small" => o.gpu = GpuConfig::small(),
            "--mdcache-kb" => {
                let kb: u64 =
                    need(&mut it, "--mdcache-kb")?.parse().map_err(|e| format!("--mdcache-kb: {e}"))?;
                o.cfg.mdcache_bytes = kb * 1024;
                o.cfg.unified_bytes = 3 * kb * 1024;
            }
            "--mshrs" => {
                o.cfg.mdcache_mshrs =
                    need(&mut it, "--mshrs")?.parse().map_err(|e| format!("--mshrs: {e}"))?
            }
            "--aes-engines" => {
                o.cfg.aes_engines =
                    need(&mut it, "--aes-engines")?.parse().map_err(|e| format!("--aes-engines: {e}"))?
            }
            "--aes-latency" => {
                o.cfg.aes_latency =
                    need(&mut it, "--aes-latency")?.parse().map_err(|e| format!("--aes-latency: {e}"))?
            }
            "--unified" => o.cfg.cache_kind = MetadataCacheKind::Unified,
            "--srrip" => o.cfg.mdcache_policy = ReplacementPolicy::Srrip,
            "--blocking" => o.cfg.speculative_verification = false,
            "--protected-mb" => {
                let mb: u64 =
                    need(&mut it, "--protected-mb")?.parse().map_err(|e| format!("--protected-mb: {e}"))?;
                o.cfg.protected_limit = Some(mb * 1024 * 1024);
            }
            "--json" => o.json = true,
            "--telemetry" => o.telemetry = true,
            "--sample-interval" => {
                o.sample_interval = need(&mut it, "--sample-interval")?
                    .parse()
                    .map_err(|e| format!("--sample-interval: {e}"))?;
                if o.sample_interval == 0 {
                    return Err("--sample-interval must be at least 1".into());
                }
            }
            "--trace-out" => {
                o.trace_out = Some(PathBuf::from(need(&mut it, "--trace-out")?));
                o.telemetry = true;
            }
            "--checkpoint-every" => {
                o.checkpoint_every = need(&mut it, "--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
                if o.checkpoint_every == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
            }
            "--checkpoint-out" => {
                o.checkpoint_out = PathBuf::from(need(&mut it, "--checkpoint-out")?);
            }
            "--resume-from" => o.resume_from = Some(PathBuf::from(need(&mut it, "--resume-from")?)),
            "--help" | "-h" => return Err("see the doc comment at the top of simulate.rs".into()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if o.warmup > 0 && (o.checkpoint_every > 0 || o.resume_from.is_some()) {
        // Warmup resets statistics mid-run; a snapshot cut across that
        // boundary could not promise resume-equals-uninterrupted.
        return Err("--warmup cannot be combined with checkpointing flags".into());
    }
    Ok(o)
}

/// `<checkpoint-out>.emergency`: where a watchdog-stalled machine is
/// captured.
fn emergency_path(out: &Path) -> PathBuf {
    let mut s = out.as_os_str().to_os_string();
    s.push(".emergency");
    PathBuf::from(s)
}

/// The `--checkpoint-every`/`--resume-from` driver: restores the
/// `resume_from` snapshot (if any), runs in `every`-cycle chunks (one
/// chunk when `every` is 0) writing a snapshot to `out` after each, and
/// captures an emergency snapshot when the forward-progress watchdog
/// trips.
struct Checkpointing<'a> {
    every: u64,
    out: &'a Path,
    resume_from: Option<&'a Path>,
}

impl<'a> Checkpointing<'a> {
    fn new(o: &'a Options) -> Self {
        Self { every: o.checkpoint_every, out: &o.checkpoint_out, resume_from: o.resume_from.as_deref() }
    }
}

impl Drive for Checkpointing<'_> {
    type Error = String;

    fn drive<B: MemoryBackend>(&mut self, sim: &mut Simulator<B>, job: &Job) -> Result<SimReport, String> {
        if let Some(path) = self.resume_from {
            let frame =
                Frame::read_file(path).map_err(|e| format!("--resume-from {}: {e}", path.display()))?;
            sim.restore_checkpoint(&frame).map_err(|e| format!("--resume-from {}: {e}", path.display()))?;
            eprintln!("resumed from {} at cycle {}", path.display(), frame.cycle);
        }
        loop {
            let target = if self.every > 0 { (sim.now() + self.every).min(job.cycles) } else { job.cycles };
            match sim.run_checked(target) {
                Ok(report) => {
                    if sim.finished() || sim.now() >= job.cycles {
                        return Ok(report);
                    }
                    if self.every > 0 {
                        let frame = sim.save_checkpoint();
                        frame
                            .write_file(self.out)
                            .map_err(|e| format!("writing {}: {e}", self.out.display()))?;
                        eprintln!("checkpoint at cycle {} -> {}", frame.cycle, self.out.display());
                    }
                }
                Err(stall) => {
                    let path = emergency_path(self.out);
                    let frame = sim.save_checkpoint();
                    match frame.write_file(&path) {
                        Ok(()) => eprintln!(
                            "watchdog: {stall}; emergency snapshot at cycle {} -> {}",
                            frame.cycle,
                            path.display()
                        ),
                        Err(e) => eprintln!("watchdog: {stall}; emergency snapshot failed: {e}"),
                    }
                    // The report carries the stall diagnostics.
                    return Ok(sim.report());
                }
            }
        }
    }
}

/// The job `o` describes, running `kernel`. The secure flags are
/// checked by building one partition's engine, so a bad flag value is
/// the engine's typed error rather than a panic once the run starts.
/// `baseline` checks them too (under `ctr_mac_bmt`): a bad value is an
/// error there as well, not silently ignored.
fn job_of(o: &Options, kernel: SyntheticKernel) -> Result<Job, String> {
    let scheme =
        SecurityScheme::from_label(&o.scheme).ok_or_else(|| format!("unknown scheme '{}'", o.scheme))?;
    let checked = if scheme == SecurityScheme::Baseline { SecurityScheme::CtrMacBmt } else { scheme };
    let cfg = SecureMemConfig { scheme: checked, ..o.cfg.clone() };
    SecureBackend::try_new(cfg.clone(), &o.gpu).map_err(|e| e.to_string())?;
    let backend = match scheme {
        SecurityScheme::Baseline => BackendChoice::Baseline,
        _ => BackendChoice::Secure(cfg),
    };
    let telemetry = o
        .telemetry
        .then(|| TelemetryConfig { sample_interval: o.sample_interval, ..TelemetryConfig::default() });
    Ok(Job {
        kernel,
        gpu: o.gpu.clone(),
        backend,
        cycles: o.cycles,
        warmup: o.warmup,
        label: o.scheme.clone(),
        telemetry,
        telemetry_out: None, // single run: the trace is written below
    })
}

fn main() {
    let o = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let Some(kernel) = find_kernel(&o.bench) else {
        eprintln!("unknown benchmark '{}'", o.bench);
        std::process::exit(2);
    };
    let job = match job_of(&o, kernel) {
        Ok(job) => job,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let checkpointing = o.checkpoint_every > 0 || o.resume_from.is_some();
    let result = if checkpointing {
        match run_job_with(&job, &mut Checkpointing::new(&o)) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    } else {
        run_job(&job)
    };
    let r = &result.report;
    if let (Some(path), Some(snap)) = (&o.trace_out, &result.telemetry) {
        let text = chrome::chrome_trace(snap);
        if let Err(e) = json::parse(&text) {
            eprintln!("internal error: emitted trace is not valid JSON: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote Chrome trace to {}", path.display());
    }
    if o.json {
        println!("{}", report_to_json(r, &o.gpu));
        return;
    }
    println!("benchmark {} under {} for {} cycles", o.bench, o.scheme, r.cycles);
    println!("  ipc               {:>12.1}", r.ipc());
    println!("  bandwidth util    {:>11.1}%", r.bandwidth_utilization(&o.gpu) * 100.0);
    println!("  L1 miss rate      {:>11.1}%", r.l1.miss_rate() * 100.0);
    println!("  L2 miss rate      {:>11.1}%", r.l2.miss_rate() * 100.0);
    println!("  DRAM requests     {:>12}", r.dram.total_requests());
    for class in TrafficClass::ALL {
        let c = r.dram.class(class);
        println!("    {:<5} reads {:>10}  writes {:>10}", class.label(), c.reads, c.writes);
    }
    for (i, name) in ["ctr", "mac", "tree"].iter().enumerate() {
        let m = &r.engine.meta[i];
        if m.cache.accesses() > 0 {
            println!(
                "  {name} cache: {:>9} accesses, {:>5.1}% miss, {:>5.1}% secondary, {} writebacks",
                m.cache.accesses(),
                m.cache.miss_rate() * 100.0,
                m.mshr.secondary_ratio() * 100.0,
                m.writebacks
            );
        }
    }
    if let Some(summary) = &r.telemetry_summary {
        println!("telemetry:");
        for line in summary.lines() {
            println!("  {line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secmem_gpusim::backend::PassthroughBackend;
    use secmem_gpusim::fault::{FaultKind, FaultPlan, FaultSpec, FaultTrigger};
    use secmem_gpusim::kernel::StreamKernel;

    fn options(dir: &Path) -> Options {
        Options {
            bench: "fdtd2d".into(),
            scheme: "baseline".into(),
            cycles: 1_000_000,
            warmup: 0,
            gpu: GpuConfig::small(),
            cfg: SecureMemConfig::secure_mem(),
            json: false,
            telemetry: false,
            sample_interval: 512,
            trace_out: None,
            checkpoint_every: 0,
            checkpoint_out: dir.join("run.ckpt"),
            resume_from: None,
        }
    }

    /// Drops every data-read completion: all warps wedge and the
    /// forward-progress watchdog trips.
    fn stalling_sim(cfg: &GpuConfig) -> Simulator<PassthroughBackend> {
        let plan = FaultPlan::new(11)
            .with(FaultSpec::new(FaultKind::Drop, FaultTrigger::Always).on_class(TrafficClass::Data));
        let kernel = StreamKernel { alu_per_mem: 0, bytes_per_warp: 1 << 18, warps: 4 };
        Simulator::new(cfg.clone(), &kernel, move |p, c| {
            let mut b = PassthroughBackend::from_config(c);
            b.install_faults(plan.injector_for(p));
            b
        })
    }

    #[test]
    fn watchdog_trip_leaves_a_loadable_emergency_snapshot() {
        let dir = std::env::temp_dir().join(format!("simulate_emergency_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut o = options(&dir);
        let mut gpu = GpuConfig::small();
        gpu.watchdog_cycles = 2_000;
        o.gpu = gpu.clone();

        let job = job_of(&o, find_kernel(&o.bench).expect("suite workload")).expect("known scheme");
        let mut sim = stalling_sim(&gpu);
        let report = Checkpointing::new(&o).drive(&mut sim, &job).expect("stall is reported, not an error");
        let stall = report.stall.as_ref().expect("report must carry the stall diagnostics");

        // The wedged machine must be captured, decodable, and restorable
        // into an identically built simulator — which then stalls at the
        // exact same cycle, proving the snapshot holds the stuck state.
        let path = emergency_path(&o.checkpoint_out);
        let frame = Frame::read_file(&path).expect("emergency snapshot decodes");
        assert_eq!(frame.cycle, sim.now(), "snapshot taken at the stall cycle");
        let mut revived = stalling_sim(&gpu);
        revived.restore_checkpoint(&frame).expect("emergency snapshot restores");
        let err = revived.run_checked(o.cycles).expect_err("restored machine is still wedged");
        let secmem_gpusim::error::SimError::Stalled(again) = *err else { panic!("expected stall") };
        assert!(
            again.cycle > stall.cycle && again.cycle <= stall.cycle + gpu.watchdog_cycles,
            "restored machine must re-trip within one watchdog window \
             (first at {}, again at {})",
            stall.cycle,
            again.cycle
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `--aes-engines 0`, `--mdcache-kb 0` and `--protected-mb 0` are
    /// rejected while the job is built, with an error naming the field,
    /// instead of panicking inside the engine constructor.
    #[test]
    fn bad_secure_flags_are_typed_errors() {
        // What each flag sets, at the value 0.
        let base = SecureMemConfig::secure_mem();
        for (field, cfg) in [
            ("aes_engines", SecureMemConfig { aes_engines: 0, ..base.clone() }),
            ("mdcache_bytes", SecureMemConfig { mdcache_bytes: 0, unified_bytes: 0, ..base.clone() }),
            ("protected_limit", SecureMemConfig { protected_limit: Some(0), ..base.clone() }),
        ] {
            // The baseline runs no engine, but a bad flag is still an error.
            for scheme in ["ctr_mac_bmt", "baseline"] {
                let o = Options { scheme: scheme.into(), cfg: cfg.clone(), ..options(&std::env::temp_dir()) };
                let kernel = find_kernel(&o.bench).expect("suite workload");
                let err =
                    job_of(&o, kernel).err().unwrap_or_else(|| panic!("{scheme}: {field} = 0 accepted"));
                assert!(err.contains(&format!("({field})")), "{scheme}: {field}: {err}");
            }
        }
    }

    /// On a stall-heavy cell (two-entry metadata MSHR files), the plain
    /// driver, the checkpoint driver in 1500-cycle chunks, and a run
    /// resumed from the first chunk's frame give the same report.
    #[test]
    fn checkpoint_driver_matches_the_plain_driver() {
        let dir = std::env::temp_dir().join(format!("simulate_chunks_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut o = options(&dir);
        o.bench = "b+tree".into();
        o.scheme = "direct_mac_mt".into();
        o.cycles = 4_000;
        o.cfg.mdcache_mshrs = 2;
        let job = job_of(&o, find_kernel(&o.bench).expect("suite workload")).expect("known scheme");
        let straight = run_job(&job).report_fp;

        o.checkpoint_every = 1_500;
        let chunked = run_job_with(&job, &mut Checkpointing::new(&o)).expect("chunked run").report_fp;
        assert_eq!(chunked, straight, "chunked run diverges from the plain driver");

        // A two-chunk run leaves the first chunk's frame behind.
        let first = dir.join("first.ckpt");
        let two_chunks = Job { cycles: 3_000, ..job.clone() };
        run_job_with(&two_chunks, &mut Checkpointing { every: 1_500, out: &first, resume_from: None })
            .expect("two-chunk run");
        assert_eq!(Frame::read_file(&first).expect("frame decodes").cycle, 1_500);
        let out = dir.join("resumed.ckpt");
        let resumed =
            run_job_with(&job, &mut Checkpointing { every: 0, out: &out, resume_from: Some(&first) })
                .expect("resumed run")
                .report_fp;
        assert_eq!(resumed, straight, "run resumed at cycle 1500 diverges from the plain driver");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
