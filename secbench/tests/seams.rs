//! The timed wrappers forward every method: a traced run reproduces the
//! untraced report fingerprint for both backend types and both kernel
//! types, and its spans reconcile with its wall time.

use secbench::cells::{run_cell, CellPlan, Source};
use secbench::layers::CellClock;
use secmem_bench::BackendChoice;
use secmem_core::{SecureMemConfig, SecurityScheme};
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::kernel::Kernel;
use secmem_gpusim::trace::{Trace, TraceKernel};
use secmem_gpusim::trace_bin::{self, BinaryTrace};
use secmem_telemetry::TelemetryConfig;
use secmem_workloads::suite;

const CYCLES: u64 = 3_000;

fn replay_kernel(bench: &str, gpu: &GpuConfig) -> TraceKernel {
    let kernel = suite::by_name(bench).expect("suite benchmark");
    let trace = Trace::record(&kernel, gpu.num_sms, 200);
    let binary = BinaryTrace::decode(&trace_bin::encode(&trace)).expect("round trip");
    TraceKernel::from_binary(binary, bench)
}

/// Runs `plan` untraced and traced and checks they agree; returns the
/// traced clock.
fn traced_matches_untraced(plan: &CellPlan<'_>) -> CellClock {
    let untraced = run_cell(plan, None);
    let clock = CellClock::default();
    let traced = run_cell(plan, Some(&clock));
    assert_eq!(traced.fp, untraced.fp, "{}: tracing changed the report", plan.kernel.name());
    assert_eq!(traced.report, untraced.report);
    let wall_ns = (traced.run_s * 1e9) as u64;
    assert!(clock.children_ns() <= wall_ns, "children exceed the traced wall");
    clock
}

fn plan<'a>(
    kernel: &'a dyn Kernel,
    source: Source,
    backend: &'a BackendChoice,
    gpu: &'a GpuConfig,
) -> CellPlan<'a> {
    CellPlan { kernel, source, backend, gpu, warmup: 0, cycles: CYCLES, telemetry: None, slice: Some(500) }
}

#[test]
fn synthetic_kernel_on_both_backends() {
    let gpu = GpuConfig::small();
    let kernel = suite::by_name("b+tree").expect("suite benchmark");
    let secure = BackendChoice::Secure(SecureMemConfig::with_scheme(SecurityScheme::DirectMacMt));
    let clock = traced_matches_untraced(&plan(&kernel, Source::Synthetic, &secure, &gpu));
    assert!(clock.secure.calls() > 0 && clock.synthetic.calls() > 0);
    assert_eq!(clock.passthrough.calls() + clock.replay.calls(), 0);

    let plain = BackendChoice::Baseline;
    let clock = traced_matches_untraced(&plan(&kernel, Source::Synthetic, &plain, &gpu));
    assert!(clock.passthrough.calls() > 0 && clock.probe.calls() > 0);
    assert_eq!(clock.secure.calls(), 0);
}

#[test]
fn trace_kernel_on_both_backends() {
    let gpu = GpuConfig::small();
    let kernel = replay_kernel("nw", &gpu);
    let plain = BackendChoice::Baseline;
    let clock = traced_matches_untraced(&plan(&kernel, Source::Replay, &plain, &gpu));
    assert!(clock.replay.calls() > 0 && clock.passthrough.calls() > 0);
    assert_eq!(clock.synthetic.calls() + clock.secure.calls(), 0);

    let secure = BackendChoice::Secure(SecureMemConfig::with_scheme(SecurityScheme::CtrMacBmt));
    let clock = traced_matches_untraced(&plan(&kernel, Source::Replay, &secure, &gpu));
    assert!(clock.replay.calls() > 0 && clock.secure.calls() > 0);
}

#[test]
fn warmup_and_telemetry_runs_trace_identically() {
    let gpu = GpuConfig::small();
    let kernel = suite::by_name("kmeans").expect("suite benchmark");
    let secure = BackendChoice::Secure(SecureMemConfig::with_scheme(SecurityScheme::CtrMacBmt));
    let mut p = plan(&kernel, Source::Synthetic, &secure, &gpu);
    p.warmup = 1_000;
    p.slice = None;
    p.telemetry = Some(TelemetryConfig { sample_interval: 250, ..TelemetryConfig::default() });
    traced_matches_untraced(&p);
}

#[test]
fn slicing_does_not_change_the_report() {
    let gpu = GpuConfig::small();
    let kernel = suite::by_name("fdtd2d").expect("suite benchmark");
    let secure = BackendChoice::Secure(SecureMemConfig::with_scheme(SecurityScheme::DirectMac));
    let sliced = plan(&kernel, Source::Synthetic, &secure, &gpu);
    let whole = CellPlan { slice: None, ..plan(&kernel, Source::Synthetic, &secure, &gpu) };
    let a = run_cell(&sliced, None);
    let b = run_cell(&whole, None);
    assert_eq!(a.fp, b.fp);
    assert_eq!(a.slices_ms.len() as u64, CYCLES / 500);
}
