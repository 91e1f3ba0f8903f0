//! End-to-end simulator benchmarks: cycles/second for the scaled-down
//! GPU under each backend, plus per-experiment miniatures that exercise
//! the same code paths as the paper's tables and figures (the full-size
//! reproduction lives in the `reproduce` binary).
//!
//! Plain `std::time` harness (`harness = false`).

use secmem_bench::timing::time_iters;
use std::hint::black_box;

use secmem_bench::{run_job, BackendChoice, Job};
use secmem_core::{MetadataCacheKind, SecureMemConfig};
use secmem_gpusim::config::GpuConfig;
use secmem_workloads::suite;

const CYCLES: u64 = 4_000;
const ITERS: u64 = 5;

fn job(bench: &str, backend: BackendChoice) -> Job {
    Job {
        kernel: suite::by_name(bench).expect("benchmark exists"),
        gpu: GpuConfig::small(),
        backend,
        cycles: CYCLES,
        warmup: 0,
        label: bench.into(),
        telemetry: None,
        telemetry_out: None,
    }
}

fn bench(name: &str, j: &Job) {
    run_job(j, None); // warm-up
    let total = time_iters(ITERS, || {
        black_box(run_job(black_box(j), None));
    });
    let elapsed = total.as_secs_f64() / ITERS as f64;
    let kcps = CYCLES as f64 / elapsed / 1e3;
    println!("{name:<32} {:>8.1} ms/run  {kcps:>8.1} kcycles/s", elapsed * 1e3);
}

fn main() {
    bench("baseline/fdtd2d", &job("fdtd2d", BackendChoice::Baseline));
    bench("secure_mem/fdtd2d", &job("fdtd2d", BackendChoice::Secure(SecureMemConfig::secure_mem())));
    bench("secure_mem/kmeans_scatter", &job("kmeans", BackendChoice::Secure(SecureMemConfig::secure_mem())));
    bench("direct_40/fdtd2d", &job("fdtd2d", BackendChoice::Secure(SecureMemConfig::direct(40))));
    let unified = SecureMemConfig { cache_kind: MetadataCacheKind::Unified, ..SecureMemConfig::secure_mem() };
    bench("unified_mdcache/fdtd2d", &job("fdtd2d", BackendChoice::Secure(unified)));
}
