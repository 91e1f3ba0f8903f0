//! Tier-1 gate for crash-safe runs: a snapshot taken mid-flight,
//! round-tripped through the on-disk frame format, and restored into a
//! freshly built simulator must run to a report byte-identical to an
//! uninterrupted run — for every benchmark of the pinned matrix under
//! every security scheme.
//!
//! This is the property that makes `simulate --resume-from`
//! trustworthy: if resume were even one DRAM burst off, the
//! fingerprints here would diverge.

use secmem_bench::sweep::{report_fingerprint, PINNED_BENCHES};
use secmem_checkpoint::{fnv1a, CheckpointError, Frame};
use secmem_core::{MetadataCacheKind, SecureBackend, SecureMemConfig, SecurityScheme};
use secmem_gpusim::backend::{MemoryBackend, PassthroughBackend};
use secmem_gpusim::cache::ReplacementPolicy;
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::error::SimError;
use secmem_gpusim::fault::{FaultClassStats, FaultKind, FaultPlan, FaultSpec, FaultTrigger};
use secmem_gpusim::kernel::Kernel;
use secmem_gpusim::sim::Simulator;
use secmem_gpusim::stats::SimReport;
use secmem_gpusim::types::TrafficClass;
use secmem_telemetry::{EventKind, Telemetry, TelemetryConfig};
use secmem_workloads::{ml, suite, SyntheticKernel};

const CYCLES: u64 = 3_000;
const CUT: u64 = 1_200;

fn kernel(bench: &str) -> SyntheticKernel {
    suite::by_name(bench).unwrap_or_else(|| panic!("suite workload {bench}"))
}

/// One uninterrupted run vs. snapshot-at-CUT + file-format round-trip +
/// restore-into-fresh-sim + run-to-end, generic over the backend.
fn check<B: MemoryBackend>(bench: &str, scheme: SecurityScheme, build: impl Fn() -> Simulator<B>) {
    let mut straight = build();
    let unbroken = straight.run(CYCLES);
    assert!(unbroken.cycles > 0, "{bench}/{scheme:?}: run must actually simulate");

    let mut first = build();
    let _ = first.run_checked(CUT);
    let frame = first.save_checkpoint();
    // Round-trip through the wire format so the gate also covers
    // encode/decode, not just the in-memory state transfer.
    let frame = Frame::decode(&frame.encode()).expect("frame survives its own wire format");
    let mut resumed = build();
    resumed.restore_checkpoint(&frame).expect("restore into a fresh, identically-built simulator");
    let resumed_report = resumed.run(CYCLES);

    assert_eq!(
        report_fingerprint(&unbroken),
        report_fingerprint(&resumed_report),
        "{bench}/{scheme:?}: resumed report diverges from the uninterrupted run\n\
         uninterrupted: {unbroken:?}\nresumed: {resumed_report:?}"
    );
}

#[test]
fn snapshot_resume_is_invisible_across_the_full_matrix() {
    let gpu = GpuConfig::small();
    for bench in PINNED_BENCHES {
        for scheme in SecurityScheme::ALL {
            let k = kernel(bench);
            match scheme {
                SecurityScheme::Baseline => {
                    check(bench, scheme, || {
                        Simulator::new(gpu.clone(), &k, |_, g| PassthroughBackend::from_config(g))
                    });
                }
                s => {
                    let cfg = SecureMemConfig::with_scheme(s);
                    check(bench, scheme, || {
                        let cfg = cfg.clone();
                        Simulator::new(gpu.clone(), &k, move |_, g| SecureBackend::new(cfg.clone(), g))
                    });
                }
            }
        }
    }
}

/// Cycle at which the pinned frames are taken.
const FRAME_CYCLE: u64 = 20_000;

/// FNV-1a of `save_checkpoint().encode()` at [`FRAME_CYCLE`] on the small
/// GPU, per `(bench, case)`. The report fingerprints never serialize a
/// cache, so these pins are what holds the cache, MSHR and engine state
/// bytes fixed. Each case reaches codecs the others leave out:
///
/// * `separate`/`unified`: `ctr_mac_bmt` with separate metadata caches
///   (power-of-two sets) and with the 6-set unified metadata cache;
/// * `baseline`: the passthrough backend and its DRAM token;
/// * `telemetry`: an armed sampler (its previous sample) and the
///   engine's thrash detectors;
/// * `faults`: a fault plan with `Delay`, `Drop` and `BitFlip` rules, so
///   the injector's random stream and rule counters, the fault statistics
///   and the detected fault events are in the frame;
/// * `profile_reuse`: the engine's reuse-distance profilers.
const PINNED_FRAMES: [(&str, &str, u64); 6] = [
    ("b+tree", "separate", 0x66b4_8f1c_2047_98fc),
    ("kmeans", "unified", 0x4c31_7ff7_e034_4fe4),
    ("b+tree", "baseline", 0x589c_3c76_62aa_773e),
    ("kmeans", "telemetry", 0xa76a_36c9_919a_aec8),
    ("b+tree", "faults", 0x79c7_87bf_8d15_6807),
    ("fdtd2d", "profile_reuse", 0xf435_9972_1bce_5716),
];

/// Runs `sim` to [`FRAME_CYCLE`], by the idle-skip loop or by the
/// reference that steps every cycle and partition, and returns its report
/// and encoded checkpoint frame.
fn run_to_frame<B: MemoryBackend>(mut sim: Simulator<B>, stepwise: bool) -> (SimReport, Vec<u8>) {
    let _ = if stepwise { sim.run_stepwise(0, FRAME_CYCLE) } else { sim.run_checked(FRAME_CYCLE) };
    (sim.report(), sim.save_checkpoint().encode())
}

/// The fault plan of the `faults` frame: late data reads, one dropped
/// counter read and detected MAC bit flips.
fn frame_fault_plan() -> FaultPlan {
    FaultPlan::new(7)
        .with(FaultSpec::new(FaultKind::Delay(300), FaultTrigger::OneIn(40)).on_class(TrafficClass::Data))
        .with(FaultSpec::new(FaultKind::Drop, FaultTrigger::Nth(200)).on_class(TrafficClass::Counter))
        .with(FaultSpec::new(FaultKind::BitFlip, FaultTrigger::EveryNth(150)).on_class(TrafficClass::Mac))
}

fn pinned_frame(bench: &str, case: &str, stepwise: bool) -> (SimReport, Vec<u8>) {
    let k = kernel(bench);
    let gpu = GpuConfig::small();
    let ctr_mac_bmt = SecureMemConfig::with_scheme(SecurityScheme::CtrMacBmt);
    let secure = |cfg: SecureMemConfig| {
        Simulator::new(gpu.clone(), &k, move |_, g| SecureBackend::new(cfg.clone(), g))
    };
    match case {
        "separate" | "unified" => {
            let cache_kind =
                if case == "separate" { MetadataCacheKind::Separate } else { MetadataCacheKind::Unified };
            run_to_frame(secure(SecureMemConfig { cache_kind, ..ctr_mac_bmt }), stepwise)
        }
        "baseline" => {
            run_to_frame(Simulator::new(gpu.clone(), &k, |_, g| PassthroughBackend::from_config(g)), stepwise)
        }
        "telemetry" => {
            let mut sim = secure(ctr_mac_bmt);
            sim.set_telemetry(Telemetry::enabled(TelemetryConfig {
                sample_interval: 1_000,
                ..TelemetryConfig::default()
            }));
            run_to_frame(sim, stepwise)
        }
        "faults" => {
            let plan = frame_fault_plan();
            let sim = Simulator::new(gpu.clone(), &k, move |p, g| {
                let mut b = SecureBackend::new(ctr_mac_bmt.clone(), g);
                b.install_faults(plan.injector_for(p));
                b
            });
            let (report, frame) = run_to_frame(sim, stepwise);
            // The frame must hold every kind of fault state it pins.
            let total = |f: fn(&FaultClassStats) -> u64| report.faults.per_class.iter().map(f).sum::<u64>();
            assert!(total(|c| c.delayed) > 0, "no delayed completion by the frame cycle");
            assert!(total(|c| c.dropped) > 0, "no dropped completion by the frame cycle");
            assert!(total(|c| c.detected) > 0, "no detected corruption by the frame cycle");
            (report, frame)
        }
        "profile_reuse" => {
            run_to_frame(secure(SecureMemConfig { profile_reuse: true, ..ctr_mac_bmt }), stepwise)
        }
        other => panic!("unknown frame case {other}"),
    }
}

#[test]
fn checkpoint_frames_are_pinned() {
    let changed: Vec<String> = PINNED_FRAMES
        .iter()
        .filter_map(|&(bench, case, expected)| {
            let fp = fnv1a(&pinned_frame(bench, case, false).1);
            (fp != expected).then(|| format!("{bench}/{case}: {fp:#018x}, pinned {expected:#018x}"))
        })
        .collect();
    assert!(changed.is_empty(), "checkpoint frame bytes changed:\n{}", changed.join("\n"));
}

/// Budget of the stepwise matrix's cells.
const MATRIX_CYCLES: u64 = 3_000;

/// Runs two simulators from `build` with a `warmup`-cycle warmup to
/// `cycles`, one by the idle-skip loop and one by the reference that
/// steps every cycle and partition, and requires the same report (or
/// the same stall), the same telemetry and the same frame bytes. Returns
/// the idle-skip run's report and frame bytes.
fn stepwise_matches<B: MemoryBackend>(
    cell: &str,
    warmup: u64,
    cycles: u64,
    build: impl Fn() -> Simulator<B>,
) -> (SimReport, Vec<u8>) {
    let mut skip = build();
    let skip_report = skip.run_with_warmup(warmup, cycles);
    let mut step = build();
    match step.run_stepwise(warmup, cycles) {
        Ok(step_report) => assert_eq!(
            report_fingerprint(&skip_report),
            report_fingerprint(&step_report),
            "{cell}: report diverges\nidle-skip: {skip_report:?}\nstepwise: {step_report:?}"
        ),
        Err(e) => {
            let SimError::Stalled(stall) = *e else { panic!("{cell}: stepwise run failed: {e}") };
            assert_eq!(skip_report.stall.as_ref(), Some(&stall), "{cell}: stall reports diverge");
            assert_eq!(
                report_fingerprint(&skip.report()),
                report_fingerprint(&step.report()),
                "{cell}: stalled reports diverge"
            );
        }
    }
    assert!(skip.telemetry_snapshot() == step.telemetry_snapshot(), "{cell}: telemetry diverges");
    let frame = skip.save_checkpoint().encode();
    assert!(frame == step.save_checkpoint().encode(), "{cell}: frame bytes diverge");
    (skip_report, frame)
}

/// Idle-skip (whole steps jumped by `advance_idle`, partitions with no
/// event left unstepped) must be invisible. The reference that steps
/// every cycle and partition gives the same report, telemetry and frame
/// bytes as the idle-skip loop:
///
/// * for every pinned frame case, whose bytes also hash to the pin;
/// * for every suite and ml kernel under every scheme, for
///   [`MATRIX_CYCLES`] cycles;
/// * with a warmup and telemetry on, with a fault plan, and for a
///   machine the watchdog stops inside its warmup.
#[test]
fn stepwise_reference_matches_idle_skip() {
    for (bench, case, expected) in PINNED_FRAMES {
        let (skip_report, skip_frame) = pinned_frame(bench, case, false);
        let (step_report, step_frame) = pinned_frame(bench, case, true);
        assert_eq!(
            report_fingerprint(&skip_report),
            report_fingerprint(&step_report),
            "{bench}/{case}: report diverges\nidle-skip: {skip_report:?}\nstepwise: {step_report:?}"
        );
        assert!(
            skip_frame == step_frame,
            "{bench}/{case}: frame bytes diverge between idle-skip and stepwise"
        );
        let fp = fnv1a(&step_frame);
        assert_eq!(fp, expected, "{bench}/{case}: stepwise frame {fp:#018x}, pinned {expected:#018x}");
    }

    let gpu = GpuConfig::small();
    let secure = |k: &SyntheticKernel, cfg: SecureMemConfig| {
        Simulator::new(gpu.clone(), k, move |_, g| SecureBackend::new(cfg.clone(), g))
    };
    let kernels: Vec<SyntheticKernel> = suite::table4_suite().into_iter().chain(ml::ml_suite()).collect();
    let cells: Vec<(&SyntheticKernel, SecurityScheme)> =
        kernels.iter().flat_map(|k| SecurityScheme::ALL.map(|s| (k, s))).collect();
    // The cells are independent; spread them over the host's cores.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (cells, secure, gpu) = (&cells, &secure, &gpu);
            scope.spawn(move || {
                for &(k, scheme) in cells.iter().skip(worker).step_by(workers) {
                    let cell = format!("{}/{}", k.name(), scheme.label());
                    match scheme {
                        SecurityScheme::Baseline => stepwise_matches(&cell, 0, MATRIX_CYCLES, || {
                            Simulator::new(gpu.clone(), k, |_, g| PassthroughBackend::from_config(g))
                        }),
                        s => stepwise_matches(&cell, 0, MATRIX_CYCLES, || {
                            secure(k, SecureMemConfig::with_scheme(s))
                        }),
                    };
                }
            });
        }
    });

    let ctr_mac_bmt = SecureMemConfig::with_scheme(SecurityScheme::CtrMacBmt);
    let kmeans = kernel("kmeans");
    // The warmup cells run longer than the matrix, past their warmup.
    const CELL_CYCLES: u64 = 5_000;
    let (report, _) = stepwise_matches("kmeans/warmup+telemetry", 1_500, CELL_CYCLES, || {
        let mut sim = secure(&kmeans, ctr_mac_bmt.clone());
        sim.set_telemetry(Telemetry::enabled(TelemetryConfig {
            sample_interval: 256,
            ..TelemetryConfig::default()
        }));
        sim
    });
    assert_eq!(report.cycles, CELL_CYCLES - 1_500, "runs past the warmup");
    assert!(report.telemetry_summary.is_some(), "telemetry sampled");

    let btree = kernel("b+tree");
    let faulty = |plan: FaultPlan, gpu: GpuConfig| {
        let cfg = ctr_mac_bmt.clone();
        Simulator::new(gpu, &btree, move |p, g| {
            let mut b = SecureBackend::new(cfg.clone(), g);
            b.install_faults(plan.injector_for(p));
            b
        })
    };
    let (report, _) =
        stepwise_matches("b+tree/faults", 1_000, CELL_CYCLES, || faulty(frame_fault_plan(), gpu.clone()));
    assert!(report.faults.total_injected() > 0, "faults injected");

    // Every data read dropped: the warps wedge and the watchdog stops the
    // run inside its warmup.
    let drop_data = FaultPlan::new(3)
        .with(FaultSpec::new(FaultKind::Drop, FaultTrigger::Always).on_class(TrafficClass::Data));
    let wedging = GpuConfig { watchdog_cycles: 1_000, ..gpu.clone() };
    let (report, _) =
        stepwise_matches("b+tree/stall", 4_000, CELL_CYCLES, || faulty(drop_data.clone(), wedging.clone()));
    let stall = report.stall.expect("the watchdog stops the wedged machine");
    assert!(stall.cycle < 4_000 && report.warmup_truncated, "stopped inside the warmup: {stall:?}");
}

#[test]
fn checkpoint_rejects_the_wrong_configuration() {
    let gpu = GpuConfig::small();
    let k = kernel("fdtd2d");
    let cfg = SecureMemConfig::with_scheme(SecurityScheme::CtrMacBmt);
    let mut sim = {
        let cfg = cfg.clone();
        Simulator::new(gpu.clone(), &k, move |_, g| SecureBackend::new(cfg.clone(), g))
    };
    let _ = sim.run_checked(CUT);
    let frame = sim.save_checkpoint();

    // Different GPU geometry: the config fingerprint must not match.
    let mut other_gpu = gpu.clone();
    other_gpu.num_sms += 1;
    let mut wrong = {
        let cfg = cfg.clone();
        Simulator::new(other_gpu, &k, move |_, g| SecureBackend::new(cfg.clone(), g))
    };
    assert!(wrong.restore_checkpoint(&frame).is_err(), "geometry mismatch must be rejected");

    // Same GPU, different secure-memory configuration: the secure
    // backend's own fingerprint must not match.
    let other_scheme = SecureMemConfig { scheme: SecurityScheme::DirectMac, ..cfg.clone() };
    let other_policy = SecureMemConfig { mdcache_policy: ReplacementPolicy::Srrip, ..cfg.clone() };
    for (what, other) in [("scheme", other_scheme), ("replacement policy", other_policy)] {
        let mut wrong = Simulator::new(gpu.clone(), &k, move |_, g| SecureBackend::new(other.clone(), g));
        let err = wrong.restore_checkpoint(&frame).expect_err("secure configuration mismatch");
        assert!(matches!(err, CheckpointError::ConfigMismatch { .. }), "{what} mismatch: got {err:?}");
    }
}

/// The L1 dispatch and L2 input heads remember why they were last
/// refused, and the engine replays known-stall metadata retries in bulk;
/// none of that derived state is checkpointed, and a restore drops it so
/// the next attempt probes in full. Two-entry L1, L2 and metadata MSHR
/// files keep every head stalled most of the time: a run restored from
/// its own checkpoint every 97 cycles must match the straight run in
/// its report and its final frame bytes.
#[test]
fn remembered_head_stalls_match_full_probes() {
    const END: u64 = 20_000;
    const EVERY: u64 = 97;
    let k = kernel("b+tree");
    let gpu = GpuConfig { l1_mshrs: 2, l2_mshrs: 2, ..GpuConfig::small() };
    let cfg = SecureMemConfig { mdcache_mshrs: 2, ..SecureMemConfig::with_scheme(SecurityScheme::CtrMacBmt) };
    let build = || {
        let cfg = cfg.clone();
        Simulator::new(gpu.clone(), &k, move |_, g| SecureBackend::new(cfg.clone(), g))
    };

    let mut straight = build();
    let unbroken = straight.run(END);
    assert!(unbroken.l2_mshr.stalls > 1_000, "only {} L2 MSHR stalls", unbroken.l2_mshr.stalls);

    let mut restored = build();
    let mut at = 0;
    while at < END {
        at = (at + EVERY).min(END);
        let _ = restored.run_checked(at);
        let frame = restored.save_checkpoint();
        restored.restore_checkpoint(&frame).expect("a simulator restores its own checkpoint");
    }
    let resumed = restored.report();
    assert_eq!(
        report_fingerprint(&unbroken),
        report_fingerprint(&resumed),
        "restored every {EVERY} cycles: report diverges\nstraight: {unbroken:?}\nrestored: {resumed:?}"
    );
    assert!(
        straight.save_checkpoint().encode() == restored.save_checkpoint().encode(),
        "restored every {EVERY} cycles: final frame bytes diverge"
    );
}

/// A sampler restored from a frame taken on a sample boundary continues
/// the uninterrupted run's series point for point: the first window
/// after the restore is measured from the counters the frame saved. The
/// sampling interval is not in the frame, so a simulator restored with
/// another interval samples at its own.
#[test]
fn restored_sampler_continues_the_series() {
    const END: u64 = 2 * FRAME_CYCLE;
    let k = kernel("kmeans");
    let gpu = GpuConfig::small();
    let cfg = SecureMemConfig::with_scheme(SecurityScheme::CtrMacBmt);
    let build = |sample_interval: u64| {
        let cfg = cfg.clone();
        let mut sim = Simulator::new(gpu.clone(), &k, move |_, g| SecureBackend::new(cfg.clone(), g));
        sim.set_telemetry(Telemetry::enabled(TelemetryConfig {
            sample_interval,
            ..TelemetryConfig::default()
        }));
        sim
    };
    let mut straight = build(1_000);
    let _ = straight.run_checked(END);
    let mut first = build(1_000);
    let _ = first.run_checked(FRAME_CYCLE);
    let frame = Frame::decode(&first.save_checkpoint().encode()).expect("frame survives its own wire format");

    let mut resumed = build(1_000);
    resumed.restore_checkpoint(&frame).expect("restores");
    let _ = resumed.run_checked(END);
    let whole = straight.telemetry_snapshot().expect("telemetry enabled");
    let tail = resumed.telemetry_snapshot().expect("telemetry enabled");
    assert!(tail.series("mdc.hit_rate").is_some(), "the metadata caches are sampled");
    let names = |snap: &secmem_telemetry::TelemetrySnapshot| snap.series.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(&tail), names(&whole), "series names");
    for (name, series) in &whole.series {
        let after: Vec<(u64, f64)> =
            series.points.iter().copied().filter(|&(at, _)| at > FRAME_CYCLE).collect();
        assert_eq!(tail.series[name].points, after, "{name}: resumed samples differ");
    }

    let mut finer = build(500);
    finer.restore_checkpoint(&frame).expect("the sampling interval is not part of the frame");
    let _ = finer.run_checked(FRAME_CYCLE + 1_000);
    let snap = finer.telemetry_snapshot().expect("telemetry enabled");
    let first_at = snap.series("dram.data_bytes").and_then(|s| s.points.first()).map(|&(at, _)| at);
    assert_eq!(first_at, Some(FRAME_CYCLE + 500), "first sample after a restore with interval 500");
}

/// The secure engine's thrash detectors run at every positive multiple
/// of the sampling interval. The cadence is not in the frame, so a
/// simulator restored with another interval checks on that interval's
/// multiples.
#[test]
fn restored_thrash_checks_follow_the_new_interval() {
    const END: u64 = 2 * FRAME_CYCLE;
    const INTERVAL: u64 = 768;
    let k = kernel("fdtd2d");
    let gpu = GpuConfig::small();
    let cfg = SecureMemConfig::with_scheme(SecurityScheme::CtrMacBmt);
    let build = |sample_interval: u64| {
        let cfg = cfg.clone();
        let mut sim = Simulator::new(gpu.clone(), &k, move |_, g| SecureBackend::new(cfg.clone(), g));
        sim.set_telemetry(Telemetry::enabled(TelemetryConfig {
            sample_interval,
            ..TelemetryConfig::default()
        }));
        sim
    };
    let mut first = build(1_000);
    let _ = first.run_checked(FRAME_CYCLE);
    let frame = first.save_checkpoint();
    let mut resumed = build(INTERVAL);
    resumed.restore_checkpoint(&frame).expect("the sampling interval is not part of the frame");
    let _ = resumed.run_checked(END);
    let snap = resumed.telemetry_snapshot().expect("telemetry enabled");
    let checks: Vec<u64> = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ThrashBegin { .. } | EventKind::ThrashEnd { .. }))
        .map(|e| e.cycle)
        .collect();
    assert!(!checks.is_empty(), "no thrash transition after the restore");
    assert!(
        checks.iter().all(|&c| c % INTERVAL == 0),
        "thrash checks off the {INTERVAL}-cycle clock: {checks:?}"
    );
}
