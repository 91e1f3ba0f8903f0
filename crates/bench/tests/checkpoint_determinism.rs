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
use secmem_gpusim::fault::{FaultClassStats, FaultKind, FaultPlan, FaultSpec, FaultTrigger};
use secmem_gpusim::sim::Simulator;
use secmem_gpusim::types::TrafficClass;
use secmem_telemetry::{Telemetry, TelemetryConfig};
use secmem_workloads::{suite, SyntheticKernel};

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
/// * `telemetry`: an armed sampler (its remembered counters) and the
///   engine's thrash detectors;
/// * `faults`: a fault plan with `Delay`, `Drop` and `BitFlip` rules, so
///   the injector's random stream and rule counters, the fault statistics
///   and the detected fault events are in the frame;
/// * `profile_reuse`: the engine's reuse-distance profilers.
const PINNED_FRAMES: [(&str, &str, u64); 6] = [
    ("b+tree", "separate", 0x9a8a_346b_8806_ccee),
    ("kmeans", "unified", 0x81c8_ded1_d0fb_8f97),
    ("b+tree", "baseline", 0x7dfa_9b24_1f91_6651),
    ("kmeans", "telemetry", 0x39d3_87dc_5e20_4099),
    ("b+tree", "faults", 0xd672_d395_f515_942d),
    ("fdtd2d", "profile_reuse", 0xf60e_b23a_3507_3a25),
];

/// Runs `sim` to [`FRAME_CYCLE`] and fingerprints its checkpoint frame.
fn frame_fingerprint<B: MemoryBackend>(mut sim: Simulator<B>) -> u64 {
    let _ = sim.run_checked(FRAME_CYCLE);
    fnv1a(&sim.save_checkpoint().encode())
}

/// The fault plan of the `faults` frame: late data reads, one dropped
/// counter read and detected MAC bit flips.
fn frame_fault_plan() -> FaultPlan {
    FaultPlan::new(7)
        .with(FaultSpec::new(FaultKind::Delay(300), FaultTrigger::OneIn(40)).on_class(TrafficClass::Data))
        .with(FaultSpec::new(FaultKind::Drop, FaultTrigger::Nth(200)).on_class(TrafficClass::Counter))
        .with(FaultSpec::new(FaultKind::BitFlip, FaultTrigger::EveryNth(150)).on_class(TrafficClass::Mac))
}

fn pinned_frame(bench: &str, case: &str) -> u64 {
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
            frame_fingerprint(secure(SecureMemConfig { cache_kind, ..ctr_mac_bmt }))
        }
        "baseline" => {
            frame_fingerprint(Simulator::new(gpu.clone(), &k, |_, g| PassthroughBackend::from_config(g)))
        }
        "telemetry" => {
            let mut sim = secure(ctr_mac_bmt);
            sim.set_telemetry(Telemetry::enabled(TelemetryConfig {
                sample_interval: 1_000,
                ..TelemetryConfig::default()
            }));
            frame_fingerprint(sim)
        }
        "faults" => {
            let plan = frame_fault_plan();
            let mut sim = Simulator::new(gpu.clone(), &k, move |p, g| {
                let mut b = SecureBackend::new(ctr_mac_bmt.clone(), g);
                b.install_faults(plan.injector_for(p));
                b
            });
            let _ = sim.run_checked(FRAME_CYCLE);
            // The frame must hold every kind of fault state it pins.
            let faults = sim.report().faults;
            let total = |f: fn(&FaultClassStats) -> u64| faults.per_class.iter().map(f).sum::<u64>();
            assert!(total(|c| c.delayed) > 0, "no delayed completion by the frame cycle");
            assert!(total(|c| c.dropped) > 0, "no dropped completion by the frame cycle");
            assert!(total(|c| c.detected) > 0, "no detected corruption by the frame cycle");
            fnv1a(&sim.save_checkpoint().encode())
        }
        "profile_reuse" => frame_fingerprint(secure(SecureMemConfig { profile_reuse: true, ..ctr_mac_bmt })),
        other => panic!("unknown frame case {other}"),
    }
}

#[test]
fn checkpoint_frames_are_pinned() {
    let changed: Vec<String> = PINNED_FRAMES
        .iter()
        .filter_map(|&(bench, case, expected)| {
            let fp = pinned_frame(bench, case);
            (fp != expected).then(|| format!("{bench}/{case}: {fp:#018x}, pinned {expected:#018x}"))
        })
        .collect();
    assert!(changed.is_empty(), "checkpoint frame bytes changed:\n{}", changed.join("\n"));
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
