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
use secmem_bench::{run_job, Job};
use secmem_checkpoint::fnv1a;
use secmem_core::{SecureBackend, SecureMemConfig, SecurityScheme};
use secmem_gpusim::config::{GpuConfig, SchedulerPolicy};
use secmem_gpusim::kernel::Kernel;
use secmem_gpusim::sim::Simulator;
use secmem_gpusim::trace::{Trace, TraceKernel};
use secmem_telemetry::json::{self, Json};
use secmem_telemetry::{Telemetry, TelemetryConfig, TelemetrySnapshot};
use secmem_workloads::{suite, SyntheticKernel};

/// `fdtd2d` under `schemes` for 6 000 cycles on the small GPU.
fn fdtd2d(schemes: &[SecurityScheme]) -> SweepSpec {
    SweepSpec {
        benches: vec!["fdtd2d".into()],
        schemes: schemes.to_vec(),
        cycles: 6_000,
        ..SweepSpec::pinned_matrix()
    }
}

#[test]
fn reports_are_byte_identical_across_runs_for_all_schemes() {
    let gpu = GpuConfig::small();
    for job in fdtd2d(&SecurityScheme::ALL).jobs().expect("valid spec") {
        let scheme = &job.label;
        let a = run_job(&job);
        let b = run_job(&job);
        assert!(a.report.cycles > 0, "{scheme}: run must simulate");
        assert_eq!(
            report_to_json(&a.report, &gpu),
            report_to_json(&b.report, &gpu),
            "{scheme}: JSON report differs between identical runs"
        );
        assert_eq!(
            format!("{:?}", a.report),
            format!("{:?}", b.report),
            "{scheme}: Debug report differs between identical runs"
        );
    }
}

#[test]
fn reports_are_byte_identical_with_warmup_and_telemetry() {
    // Warmup exercises the reset path; telemetry exercises the sampler.
    // Both must stay deterministic too (enabled telemetry must not
    // perturb timing, and the sampler must fire at identical cycles).
    let schemes = [SecurityScheme::Baseline, SecurityScheme::CtrMacBmt];
    let spec = SweepSpec { warmup: 1_000, sample_interval: Some(512), ..fdtd2d(&schemes) };
    for job in spec.jobs().expect("valid spec") {
        let scheme = &job.label;
        let a = run_job(&job);
        let b = run_job(&job);
        assert_eq!(
            format!("{:?}", a.report),
            format!("{:?}", b.report),
            "{scheme}: report differs with warmup+telemetry"
        );
        let sa = a.telemetry.expect("telemetry enabled");
        let sb = b.telemetry.expect("telemetry enabled");
        assert_eq!(sa, sb, "{scheme}: telemetry snapshot differs between identical runs");
    }
}

/// The `report_fp` of every cell of the pinned 4-benchmark × 7-scheme
/// matrix at 60 000 cycles, as committed in `BENCH_simperf.json`.
/// Benchmark-major, schemes in `SecurityScheme::ALL` order — the order
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

/// `BENCH_simperf.json` is the oracle the out-of-tree benchmark checks
/// its cells against; [`PINNED_60K`] is the one tier-1 checks. The two
/// copies must agree cell for cell, in the same order.
#[test]
fn committed_simperf_file_carries_the_pinned_fingerprints() {
    let doc = json::parse(include_str!("../../../BENCH_simperf.json")).expect("BENCH_simperf.json parses");
    assert_eq!(doc.get("cycles_per_run").and_then(Json::as_u64), Some(60_000));
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    let committed: Vec<(&str, &str, u64)> = runs
        .iter()
        .map(|r| {
            let field = |k: &str| r.get(k).and_then(Json::as_str).expect("string field");
            let fp = u64::from_str_radix(field("report_fp"), 16).expect("hex report_fp");
            (field("bench"), field("scheme"), fp)
        })
        .collect();
    assert_eq!(committed, PINNED_60K);
}

fn pinned_job(kernel: SyntheticKernel, gpu: GpuConfig, scheme: SecurityScheme) -> Job {
    let spec = SweepSpec { cycles: 60_000, ..fdtd2d(&[scheme]) };
    Job { kernel, gpu, ..spec.jobs().expect("valid spec").remove(0) }
}

/// 60 000-cycle fingerprints of the loose-round-robin scheduler (the
/// `ablation-scheduler` path); every cell of [`PINNED_60K`] uses GTO.
const PINNED_LRR_60K: [(&str, SecurityScheme, u64); 4] = [
    ("b+tree", SecurityScheme::Baseline, 0xf8a7_b304_5a2c_cf74),
    ("b+tree", SecurityScheme::CtrMacBmt, 0xa143_3892_cdbd_71b7),
    ("fdtd2d", SecurityScheme::Baseline, 0xe4a9_b0ae_702e_e9c1),
    ("fdtd2d", SecurityScheme::CtrMacBmt, 0x861c_5dca_d720_4695),
];

#[test]
fn lrr_scheduler_matches_the_committed_fingerprints() {
    let gpu = GpuConfig { scheduler: SchedulerPolicy::Lrr, ..GpuConfig::small() };
    for &(bench, scheme, expected) in &PINNED_LRR_60K {
        let kernel = suite::by_name(bench).expect("suite workload");
        let report = run_job(&pinned_job(kernel, gpu.clone(), scheme)).report;
        assert_eq!(
            report_fingerprint(&report),
            expected,
            "{bench}/{} (LRR): report diverges from the committed fingerprint\n{report:?}",
            scheme.label()
        );
    }
}

/// 60 000-cycle fingerprints of `b+tree` with 96 resident warps per SM
/// (`max_warps_per_sm` raised to match), under both schedulers: the
/// suite never exceeds 64 warps per SM, so only these cells run an SM
/// whose per-warp bookkeeping spans more than one 64-bit word.
const PINNED_WIDE_60K: [(SchedulerPolicy, u64); 2] =
    [(SchedulerPolicy::Gto, 0xd19e_630d_23d6_c80d), (SchedulerPolicy::Lrr, 0xb5e3_5b6d_ec15_db0b)];

#[test]
fn wide_sm_matches_the_committed_fingerprints() {
    let mut spec = suite::by_name("b+tree").expect("suite workload").spec().clone();
    spec.warps_per_sm = 96;
    for &(scheduler, expected) in &PINNED_WIDE_60K {
        let gpu = GpuConfig { scheduler, max_warps_per_sm: 96, ..GpuConfig::small() };
        let kernel = SyntheticKernel::new(spec.clone(), suite::DEFAULT_SEED);
        let report = run_job(&pinned_job(kernel, gpu, SecurityScheme::Baseline)).report;
        assert_eq!(report.warps, 96 * u64::from(GpuConfig::small().num_sms), "every SM holds 96 warps");
        assert_eq!(
            report_fingerprint(&report),
            expected,
            "b+tree x96/{scheduler:?}: report diverges from the committed fingerprint\n{report:?}"
        );
    }
}

/// Warmup window and budget of the warmup matrix: the shape of a
/// `sweep_service` job (warmup, then a measured window, sampling on).
const WARMUP: u64 = 5_000;
const WARMUP_BUDGET: u64 = 20_000;

/// FNV-1a of a telemetry snapshot's `Debug` rendering: every series
/// point and every event, in record order.
fn telemetry_fp(snap: Option<&TelemetrySnapshot>) -> u64 {
    let snap = snap.expect("telemetry enabled");
    fnv1a(format!("{snap:?}").as_bytes())
}

/// `(bench, scheme, report_fp, telemetry_fp)` of every cell of the
/// pinned matrix run with a [`WARMUP`]-cycle warmup to [`WARMUP_BUDGET`]
/// cycles, sampling every 512 cycles. [`PINNED_60K`] runs no warmup, so
/// only these cells hold the warmup path (the statistics reset, the
/// phase events, the sampler's re-baseline) to fixed results.
const PINNED_WARMUP: [(&str, &str, u64, u64); 28] = [
    ("nw", "baseline", 0xcc73_087c_a352_c64b, 0xb795_f2eb_c122_a2c1),
    ("nw", "ctr", 0xc4ad_921c_3104_197d, 0xdc2c_ffa4_e566_3d31),
    ("nw", "ctr_bmt", 0x984d_87af_beed_6574, 0xbbb9_d959_286c_fe4f),
    ("nw", "ctr_mac_bmt", 0x955d_319c_2443_4eb9, 0x4483_2803_d17b_4e71),
    ("nw", "direct", 0xe7ca_60fe_3d6b_c50b, 0x985c_06c8_2218_7c08),
    ("nw", "direct_mac", 0xdcdc_79a2_474f_20a1, 0x26c8_cdd4_f926_1c49),
    ("nw", "direct_mac_mt", 0x8854_a326_4a1b_f931, 0x87e6_d56a_5532_3748),
    ("b+tree", "baseline", 0x109f_425c_ff77_462c, 0xc5ea_9513_cc73_acd2),
    ("b+tree", "ctr", 0xb895_3f98_3b31_ca76, 0xdc77_530f_1fa6_b6ad),
    ("b+tree", "ctr_bmt", 0x541a_1b0b_7361_28d1, 0x3f87_16cf_27e1_6dbd),
    ("b+tree", "ctr_mac_bmt", 0x7e40_aeee_86f3_624b, 0xffbd_3c94_e2cc_8289),
    ("b+tree", "direct", 0xb608_6e78_0b88_4db0, 0xd4b2_bbd5_f5f9_142c),
    ("b+tree", "direct_mac", 0x3121_7853_d29e_6aed, 0x3f9e_1ade_23df_4229),
    ("b+tree", "direct_mac_mt", 0x50af_2b9a_0de3_ed8b, 0xebd3_9301_1362_b1ec),
    ("kmeans", "baseline", 0x8eda_ee1c_9dc6_bd9e, 0x9f85_2bad_772d_bb3c),
    ("kmeans", "ctr", 0x4ff9_a0cd_7557_0430, 0x00f1_e6eb_62a6_7b63),
    ("kmeans", "ctr_bmt", 0x7ede_7c25_1189_a270, 0x99f8_d540_b661_8087),
    ("kmeans", "ctr_mac_bmt", 0x99d9_63db_98e9_7c09, 0x9003_e9f4_3eec_8eba),
    ("kmeans", "direct", 0x43f4_7ec8_78cd_1721, 0x08c0_c8ac_d59f_b508),
    ("kmeans", "direct_mac", 0x7e24_a7a8_b863_e809, 0x67df_2e2b_0412_1a0a),
    ("kmeans", "direct_mac_mt", 0xde03_2ceb_431f_afd4, 0x2a0c_0e76_63f1_d4d8),
    ("fdtd2d", "baseline", 0xed68_c22c_a8d3_046d, 0x3564_6d06_d90a_d257),
    ("fdtd2d", "ctr", 0x48e0_592b_f233_6342, 0xe1eb_6b70_5c48_4203),
    ("fdtd2d", "ctr_bmt", 0x92f1_2dba_6139_5812, 0xf702_6787_51f5_e1db),
    ("fdtd2d", "ctr_mac_bmt", 0xf6e4_9de5_91f3_b1a1, 0x28ab_ced1_e25d_dbaf),
    ("fdtd2d", "direct", 0x9914_a0dc_6913_8d7b, 0xb801_8209_11f9_6e02),
    ("fdtd2d", "direct_mac", 0xc433_a35f_6706_acf8, 0xb997_37e2_8b2a_2f54),
    ("fdtd2d", "direct_mac_mt", 0x352a_1343_7aaf_7872, 0xf4d8_07c5_6d51_eb7e),
];

/// `(report_fp, telemetry_fp)` of the two edge cells: a kernel that
/// finishes inside the warmup window, and a budget shorter than it.
const PINNED_WARMUP_TRUNCATED: (u64, u64) = (0xfb46_2ad0_69ed_8b2e, 0xa3f5_83c4_9f99_8f3f);
const PINNED_WARMUP_SHORT_BUDGET: (u64, u64) = (0x1de3_30dd_d9c1_9c7d, 0xb89c_2f48_fa96_2db5);

#[test]
fn warmup_matrix_matches_the_committed_fingerprints() {
    let spec = SweepSpec {
        cycles: WARMUP_BUDGET,
        warmup: WARMUP,
        sample_interval: Some(512),
        ..SweepSpec::pinned_matrix()
    };
    let jobs = spec.jobs().expect("warmup matrix is valid");
    assert_eq!(jobs.len(), PINNED_WARMUP.len());
    let mut changed = Vec::new();
    for (job, &(bench, scheme, report_fp, tel_fp)) in jobs.iter().zip(&PINNED_WARMUP) {
        assert_eq!((job.kernel.name(), job.label.as_str()), (bench, scheme), "matrix order");
        let result = run_job(job);
        assert!(!result.report.warmup_truncated, "{bench}/{scheme}: runs past the warmup");
        assert_eq!(result.report.cycles, WARMUP_BUDGET - WARMUP, "{bench}/{scheme}: measured window");
        let got = (result.report_fp, telemetry_fp(result.telemetry.as_ref()));
        if got != (report_fp, tel_fp) {
            changed.push(format!("{bench}/{scheme}: ({:#018x}, {:#018x})", got.0, got.1));
        }
    }

    // A kernel that finishes inside the warmup: b+tree cut to 40
    // instructions per warp, replayed from a recorded trace.
    let gpu = GpuConfig::small();
    let trace = Trace::record(&suite::by_name("b+tree").expect("suite workload"), gpu.num_sms, 40);
    let kernel = TraceKernel::from_binary(trace, "b+tree-short");
    let cfg = SecureMemConfig::with_scheme(SecurityScheme::CtrMacBmt);
    let mut sim = Simulator::new(gpu, &kernel, |_, g| SecureBackend::new(cfg.clone(), g));
    sim.set_telemetry(Telemetry::enabled(TelemetryConfig {
        sample_interval: 512,
        ..TelemetryConfig::default()
    }));
    let report = sim.run_with_warmup(WARMUP, WARMUP_BUDGET);
    assert!(report.warmup_truncated, "the short kernel finishes inside the warmup");
    assert_eq!(report.cycles, 0, "no measured window");
    let got = (report_fingerprint(&report), telemetry_fp(sim.telemetry_snapshot().as_ref()));
    if got != PINNED_WARMUP_TRUNCATED {
        changed.push(format!("truncated: ({:#018x}, {:#018x})", got.0, got.1));
    }

    // A budget shorter than the warmup: the whole warmup still runs.
    let short = Job { cycles: 3_000, ..jobs[17].clone() };
    assert_eq!((short.kernel.name(), short.label.as_str()), ("kmeans", "ctr_mac_bmt"));
    let result = run_job(&short);
    assert_eq!(result.report.cycles, 0, "no measured window");
    let got = (result.report_fp, telemetry_fp(result.telemetry.as_ref()));
    if got != PINNED_WARMUP_SHORT_BUDGET {
        changed.push(format!("short budget: ({:#018x}, {:#018x})", got.0, got.1));
    }
    assert!(changed.is_empty(), "warmup fingerprints changed:\n{}", changed.join("\n"));
}
