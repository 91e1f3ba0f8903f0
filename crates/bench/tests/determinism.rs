//! The determinism guard for the hot-loop performance overhaul
//! (ISSUE 3): for a fixed seed and configuration, two simulations must
//! produce byte-identical `SimReport`s — across every security scheme.
//!
//! Any optimization that reorders events, drops a stall cycle, or skips a
//! sample point shows up here as a diff of the serialized report. The
//! comparison covers both the stable JSON rendering (what experiment
//! tooling consumes) and the full `Debug` rendering (every field,
//! including fault statistics and the stall report).

use secmem_bench::json::report_to_json;
use secmem_bench::sweep::{report_fingerprint, SweepSpec};
use secmem_bench::{run_job, BackendChoice, Job};
use secmem_core::{SecureMemConfig, SecurityScheme};
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::kernel::Kernel;
use secmem_telemetry::TelemetryConfig;
use secmem_workloads::suite;

const ALL_SCHEMES: [SecurityScheme; 7] = [
    SecurityScheme::Baseline,
    SecurityScheme::CtrOnly,
    SecurityScheme::CtrBmt,
    SecurityScheme::CtrMacBmt,
    SecurityScheme::Direct,
    SecurityScheme::DirectMac,
    SecurityScheme::DirectMacMt,
];

fn job_for(scheme: SecurityScheme, warmup: u64, telemetry: bool) -> Job {
    let backend = match scheme {
        SecurityScheme::Baseline => BackendChoice::Baseline,
        s => BackendChoice::Secure(SecureMemConfig::with_scheme(s)),
    };
    Job {
        kernel: suite::by_name("fdtd2d").expect("suite workload"),
        gpu: GpuConfig::small(),
        backend,
        cycles: 6_000,
        warmup,
        label: scheme.label().to_string(),
        telemetry: telemetry.then(|| TelemetryConfig { sample_interval: 512, ..TelemetryConfig::default() }),
        telemetry_out: None,
    }
}

#[test]
fn reports_are_byte_identical_across_runs_for_all_schemes() {
    let gpu = GpuConfig::small();
    for scheme in ALL_SCHEMES {
        let a = run_job(&job_for(scheme, 0, false));
        let b = run_job(&job_for(scheme, 0, false));
        assert!(a.report.cycles > 0, "{scheme:?}: run must simulate");
        assert_eq!(
            report_to_json(&a.report, &gpu),
            report_to_json(&b.report, &gpu),
            "{scheme:?}: JSON report differs between identical runs"
        );
        assert_eq!(
            format!("{:?}", a.report),
            format!("{:?}", b.report),
            "{scheme:?}: Debug report differs between identical runs"
        );
    }
}

#[test]
fn reports_are_byte_identical_with_warmup_and_telemetry() {
    // Warmup exercises the reset path; telemetry exercises the sampler.
    // Both must stay deterministic too (enabled telemetry must not
    // perturb timing, and the sampler must fire at identical cycles).
    for scheme in [SecurityScheme::Baseline, SecurityScheme::CtrMacBmt] {
        let a = run_job(&job_for(scheme, 1_000, true));
        let b = run_job(&job_for(scheme, 1_000, true));
        assert_eq!(
            format!("{:?}", a.report),
            format!("{:?}", b.report),
            "{scheme:?}: report differs with warmup+telemetry"
        );
        let sa = a.telemetry.expect("telemetry enabled");
        let sb = b.telemetry.expect("telemetry enabled");
        assert_eq!(sa, sb, "{scheme:?}: telemetry snapshot differs between identical runs");
    }
}

/// The `report_fp` of every cell of the pinned 4-benchmark × 7-scheme
/// matrix at 60 000 cycles, as committed in `BENCH_simperf.json`.
/// Benchmark-major, schemes in `ALL_SCHEMES` order — the order
/// [`SweepSpec::jobs`] expands to.
const PINNED_60K: [(&str, &str, u64); 28] = [
    ("nw", "baseline", 0x6c1a_46bb_e446_6881),
    ("nw", "ctr", 0xdad0_4f5e_7c60_ca4d),
    ("nw", "ctr_bmt", 0x3f92_a03d_e191_6938),
    ("nw", "ctr_mac_bmt", 0xdba7_fc07_fa9f_4aad),
    ("nw", "direct", 0x5911_b250_bc65_764e),
    ("nw", "direct_mac", 0x7751_0efa_ef46_aae7),
    ("nw", "direct_mac_mt", 0xf244_245f_6256_cd6b),
    ("b+tree", "baseline", 0xe88d_51c3_d58f_3313),
    ("b+tree", "ctr", 0x1182_c17b_70a7_1dfc),
    ("b+tree", "ctr_bmt", 0x5004_4cdc_5643_6e8d),
    ("b+tree", "ctr_mac_bmt", 0xea1f_a669_b4b9_5e07),
    ("b+tree", "direct", 0x6886_3f26_e530_799c),
    ("b+tree", "direct_mac", 0x7db5_5c11_66a4_8fda),
    ("b+tree", "direct_mac_mt", 0xea3c_b15d_763d_9e37),
    ("kmeans", "baseline", 0x7533_91c6_fceb_a77b),
    ("kmeans", "ctr", 0x3c38_fe0e_00a8_c6f9),
    ("kmeans", "ctr_bmt", 0x1ffd_9785_0e93_4e92),
    ("kmeans", "ctr_mac_bmt", 0xfe2f_7dca_d69f_7002),
    ("kmeans", "direct", 0xbc05_a2ab_1c16_f2a7),
    ("kmeans", "direct_mac", 0x2d64_64fc_be34_3145),
    ("kmeans", "direct_mac_mt", 0x5843_da1e_387d_c0ab),
    ("fdtd2d", "baseline", 0x1298_24f3_8c31_92f7),
    ("fdtd2d", "ctr", 0x4137_aed4_f754_cc73),
    ("fdtd2d", "ctr_bmt", 0x2a3a_4af6_5156_d51e),
    ("fdtd2d", "ctr_mac_bmt", 0x7be9_9ec9_27f4_63b1),
    ("fdtd2d", "direct", 0xc08f_273c_f0b3_83f3),
    ("fdtd2d", "direct_mac", 0x80ee_d816_99ac_dbed),
    ("fdtd2d", "direct_mac_mt", 0x88df_b2a8_0d91_4c5e),
];

/// The behavioural oracle: the pinned matrix must reproduce the
/// committed fingerprints exactly. Unlike the run-vs-run checks above,
/// this catches a change that alters simulation results consistently.
#[test]
fn pinned_matrix_matches_the_committed_fingerprints() {
    let spec = SweepSpec { cycles: 60_000, ..SweepSpec::pinned_matrix() };
    let jobs = spec.jobs().expect("pinned matrix is valid");
    assert_eq!(jobs.len(), PINNED_60K.len());
    for (job, &(bench, scheme, expected)) in jobs.iter().zip(&PINNED_60K) {
        assert_eq!((job.kernel.name(), job.label.as_str()), (bench, scheme), "matrix order");
        let report = run_job(job).report;
        assert_eq!(
            report_fingerprint(&report),
            expected,
            "{bench}/{scheme}: report diverges from the committed fingerprint\n{report:?}"
        );
    }
}
