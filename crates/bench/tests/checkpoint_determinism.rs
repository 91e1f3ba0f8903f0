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
use secmem_gpusim::sim::Simulator;
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
/// GPU. The report fingerprints never serialize a cache, so these pins
/// are what holds the cache, MSHR and engine state bytes fixed: one run
/// with separate metadata caches (power-of-two sets) and one with the
/// 6-set unified metadata cache.
const PINNED_FRAMES: [(&str, MetadataCacheKind, u64); 2] = [
    ("b+tree", MetadataCacheKind::Separate, 0x9a8a_346b_8806_ccee),
    ("kmeans", MetadataCacheKind::Unified, 0x81c8_ded1_d0fb_8f97),
];

#[test]
fn checkpoint_frames_are_pinned() {
    for (bench, cache_kind, expected) in PINNED_FRAMES {
        let k = kernel(bench);
        let cfg = SecureMemConfig { cache_kind, ..SecureMemConfig::with_scheme(SecurityScheme::CtrMacBmt) };
        let mut sim = Simulator::new(GpuConfig::small(), &k, move |_, g| SecureBackend::new(cfg.clone(), g));
        let _ = sim.run_checked(FRAME_CYCLE);
        let fp = fnv1a(&sim.save_checkpoint().encode());
        assert_eq!(fp, expected, "{bench}/{cache_kind:?}: checkpoint frame bytes changed ({fp:#018x})");
    }
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
