//! One simulated cell: a kernel on a memory backend, run to a cycle
//! budget either untraced or through the timed wrappers of
//! [`crate::layers`].

use std::time::Instant;

use secmem_bench::sweep::report_fingerprint;
use secmem_bench::BackendChoice;
use secmem_core::SecureBackend;
use secmem_gpusim::backend::{MemoryBackend, PassthroughBackend};
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::kernel::Kernel;
use secmem_gpusim::sim::Simulator;
use secmem_gpusim::stats::SimReport;
use secmem_telemetry::{Telemetry, TelemetryConfig};

use crate::layers::{CellClock, TimedBackend, TimedKernel};

/// Where a cell's instructions come from; selects the span a traced
/// run charges instruction generation to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A `secmem-workloads` synthetic kernel.
    Synthetic,
    /// A SECMTRC trace replayed through `BinCursor`s.
    Replay,
}

/// Everything one cell run needs.
pub struct CellPlan<'a> {
    /// The kernel to simulate.
    pub kernel: &'a dyn Kernel,
    /// Where the kernel's instructions come from.
    pub source: Source,
    /// The memory backend to install in every partition.
    pub backend: &'a BackendChoice,
    /// The GPU configuration.
    pub gpu: &'a GpuConfig,
    /// Warmup cycles whose statistics are discarded (0 = none).
    pub warmup: u64,
    /// Cycle budget (absolute, as in `Simulator::run`).
    pub cycles: u64,
    /// Telemetry sampling, when on.
    pub telemetry: Option<TelemetryConfig>,
    /// When set, the run advances in slices of this many cycles and
    /// times each slice as one operation. Requires `warmup == 0`.
    pub slice: Option<u64>,
}

/// The result of one cell run.
#[derive(Debug)]
pub struct CellRun {
    /// The end-of-run report.
    pub report: SimReport,
    /// `sweep::report_fingerprint` of the report.
    pub fp: u64,
    /// Host seconds spent running (construction excluded).
    pub run_s: f64,
    /// Host milliseconds per slice, when slicing.
    pub slices_ms: Vec<f64>,
}

/// Builds the cell's simulators once and drops them: the set-up work a
/// run does before its first simulated cycle.
pub fn construct(plan: &CellPlan<'_>) {
    match plan.backend {
        BackendChoice::Baseline => {
            let sim =
                Simulator::new(plan.gpu.clone(), plan.kernel, |_, g| PassthroughBackend::from_config(g));
            drop(std::hint::black_box(sim));
        }
        BackendChoice::Secure(cfg) => {
            let sim =
                Simulator::new(plan.gpu.clone(), plan.kernel, |_, g| SecureBackend::new(cfg.clone(), g));
            drop(std::hint::black_box(sim));
        }
    }
}

/// Runs one cell. With `clock`, every backend and warp-program call is
/// timed into it; without, the simulator runs exactly as the runner
/// builds it.
pub fn run_cell(plan: &CellPlan<'_>, clock: Option<&CellClock>) -> CellRun {
    match (clock, plan.backend) {
        (None, BackendChoice::Baseline) => {
            drive(plan, plan.kernel, |_, g| PassthroughBackend::from_config(g))
        }
        (None, BackendChoice::Secure(cfg)) => {
            drive(plan, plan.kernel, |_, g| SecureBackend::new(cfg.clone(), g))
        }
        (Some(clock), backend) => {
            let span = match plan.source {
                Source::Synthetic => clock.synthetic.clone(),
                Source::Replay => clock.replay.clone(),
            };
            let kernel = TimedKernel::new(plan.kernel, span);
            match backend {
                BackendChoice::Baseline => drive(plan, &kernel, |_, g| {
                    TimedBackend::new(
                        PassthroughBackend::from_config(g),
                        clock.passthrough.clone(),
                        clock.probe.clone(),
                    )
                }),
                BackendChoice::Secure(cfg) => drive(plan, &kernel, |_, g| {
                    TimedBackend::new(
                        SecureBackend::new(cfg.clone(), g),
                        clock.secure.clone(),
                        clock.probe.clone(),
                    )
                }),
            }
        }
    }
}

fn drive<B: MemoryBackend>(
    plan: &CellPlan<'_>,
    kernel: &dyn Kernel,
    factory: impl FnMut(u32, &GpuConfig) -> B,
) -> CellRun {
    let mut sim = Simulator::new(plan.gpu.clone(), kernel, factory);
    sim.set_telemetry(match &plan.telemetry {
        Some(cfg) => Telemetry::enabled(cfg.clone()),
        None => Telemetry::disabled(),
    });
    let mut slices_ms = Vec::new();
    let start = Instant::now();
    let report = match plan.slice {
        None if plan.warmup > 0 => sim.run_with_warmup(plan.warmup, plan.cycles),
        None => sim.run(plan.cycles),
        Some(step) => {
            assert_eq!(plan.warmup, 0, "sliced cells run without warmup");
            let mut target = 0;
            loop {
                target = (target + step).min(plan.cycles);
                let t = Instant::now();
                let report = sim.run(target);
                slices_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if target >= plan.cycles || sim.finished() || report.stall.is_some() {
                    break report;
                }
            }
        }
    };
    let run_s = start.elapsed().as_secs_f64();
    CellRun { fp: report_fingerprint(&report), report, run_s, slices_ms }
}
