//! Tier-1 gate for crash-safe runs (DESIGN.md §12): a snapshot taken
//! mid-flight, round-tripped through the on-disk frame format, and
//! restored into a freshly built simulator must run to a report
//! byte-identical to an uninterrupted run — for every benchmark of the
//! pinned matrix under every security scheme. This is the property that
//! makes `simulate --resume-from` trustworthy.

use gpu_secure_memory::checkpoint::{fnv1a, Frame};
use gpu_secure_memory::core::{SecureBackend, SecureMemConfig, SecurityScheme};
use gpu_secure_memory::gpusim::backend::{MemoryBackend, PassthroughBackend};
use gpu_secure_memory::gpusim::config::GpuConfig;
use gpu_secure_memory::gpusim::sim::Simulator;
use gpu_secure_memory::gpusim::stats::SimReport;
use gpu_secure_memory::workloads::{suite, SyntheticKernel};

const CYCLES: u64 = 3_000;
const CUT: u64 = 1_200;

/// The pinned benchmark matrix (one per Table-IV category).
const BENCHES: [&str; 4] = ["nw", "b+tree", "kmeans", "fdtd2d"];

fn kernel(bench: &str) -> SyntheticKernel {
    suite::by_name(bench).unwrap_or_else(|| panic!("suite workload {bench}"))
}

fn fingerprint(report: &SimReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
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
        fingerprint(&unbroken),
        fingerprint(&resumed_report),
        "{bench}/{scheme:?}: resumed report diverges from the uninterrupted run\n\
         uninterrupted: {unbroken:?}\nresumed: {resumed_report:?}"
    );
}

#[test]
fn snapshot_resume_is_invisible_across_the_full_matrix() {
    let gpu = GpuConfig::small();
    for bench in BENCHES {
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
}

#[test]
fn corrupted_frames_are_rejected_with_typed_errors() {
    let gpu = GpuConfig::small();
    let k = kernel("nw");
    let mut sim = Simulator::new(gpu, &k, |_, g| PassthroughBackend::from_config(g));
    let _ = sim.run_checked(CUT);
    let bytes = sim.save_checkpoint().encode();

    // Truncation, magic damage, and a payload bit-flip (checksum) must
    // all fail decode — never panic, never restore garbage.
    assert!(Frame::decode(&bytes[..bytes.len() / 2]).is_err(), "truncated frame accepted");
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(Frame::decode(&bad_magic).is_err(), "bad magic accepted");
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    assert!(Frame::decode(&flipped).is_err(), "checksum miss accepted");
    assert!(Frame::decode(&bytes).is_ok(), "pristine frame must still decode");
}
