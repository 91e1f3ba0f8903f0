//! Tier-1 gate for the SECMTRC binary trace container (ISSUE 9): the
//! two on-disk trace formats must be interchangeable in every way that
//! matters — round-tripping preserves every instruction, corrupted
//! binary files are rejected with typed errors, a full simulation
//! ingesting either format produces a byte-identical report, and
//! checkpoint resume stays invisible when the replay streams from the
//! binary container (including restoring a frame taken under the other
//! format).

use secmem_bench::sweep::report_fingerprint;
use secmem_checkpoint::fnv1a;
use secmem_core::{SecureBackend, SecureMemConfig, SecurityScheme};
use secmem_gpusim::backend::PassthroughBackend;
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::rng::Rng64;
use secmem_gpusim::sim::Simulator;
use secmem_gpusim::trace::{self, Trace, TraceKernel};
use secmem_gpusim::trace_bin;
use secmem_gpusim::types::{Access, Inst, SectorMask};
use secmem_workloads::suite;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("secmem-trace-format-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A random but valid instruction stream, deliberately covering the
/// encoder's edge cases: stalls on both sides of the tag-byte spill
/// bound (31), access counts on both sides of the packed bound (30),
/// large positive and negative block deltas, and every sector mask.
fn random_stream(rng: &mut Rng64) -> Vec<Inst> {
    let len = 1 + rng.gen_range(40) as usize;
    let mut insts = Vec::with_capacity(len);
    let mut addr: u64 = rng.gen_range(1 << 34);
    for _ in 0..len {
        // Deltas jump forward and backward across a wide range so the
        // zigzag varints see 1-byte and multi-byte encodings.
        let hop = rng.gen_range(1 << 22) as i64 - (1 << 21);
        addr = addr.wrapping_add(hop.wrapping_mul(128) as u64) & ((1 << 40) - 1);
        let inst = match rng.gen_range(6) {
            0 => Inst::Alu { stall: 1 + rng.gen_range(4) as u32, wait_mem: false },
            1 => Inst::Alu { stall: 28 + rng.gen_range(8) as u32, wait_mem: rng.one_in(2) },
            2 | 3 => {
                let n = 1 + rng.gen_range(34) as usize;
                let mut accesses = Vec::with_capacity(n);
                for i in 0..n {
                    let mask = SectorMask(1 + rng.gen_range(15) as u8);
                    accesses.push(Access::new(addr.wrapping_add(i as u64 * 128), mask));
                }
                Inst::Load { accesses, dependent: rng.one_in(3) }
            }
            4 => Inst::Store { accesses: vec![Access::new(addr, SectorMask(1 + rng.gen_range(15) as u8))] },
            _ => Inst::Alu { stall: 1, wait_mem: true },
        };
        insts.push(inst);
    }
    insts.push(Inst::Exit);
    insts
}

fn random_trace(rng: &mut Rng64) -> Trace {
    let mut trace = Trace::new();
    let sms = 1 + rng.gen_range(6) as u32;
    for sm in 0..sms {
        let warps = 1 + rng.gen_range(8) as u32;
        for warp in 0..warps {
            trace.insert(sm, warp, random_stream(rng));
        }
    }
    trace
}

#[test]
fn random_traces_roundtrip_both_formats_and_across_them() {
    let mut rng = Rng64::new(0x5EC_17ACE);
    for case in 0..25 {
        let trace = random_trace(&mut rng);

        // Binary round-trip, and canonicality: re-encoding the decoded
        // trace must reproduce the file byte-for-byte.
        let bytes = trace_bin::encode(&trace);
        let bin = Trace::decode(&bytes).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(bin, trace, "case {case}: binary round-trip");
        assert_eq!(trace_bin::encode(&bin), bytes, "case {case}: canonical encoding");

        // Text round-trip.
        let text = trace.to_text();
        let reparsed = Trace::from_text(text.as_bytes()).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(reparsed, trace, "case {case}: text round-trip");

        // Cross-format: text -> binary -> text is the identity.
        let cross = trace_bin::encode(&reparsed);
        let back = Trace::decode(&cross).expect("re-encoded trace decodes");
        assert_eq!(back.to_text(), text, "case {case}: cross-format round-trip");

        // The headline size claim, on arbitrary traces rather than the
        // pinned perf workload: binary stays at or under 40% of text.
        assert!(
            bytes.len() * 10 <= text.len() * 4,
            "case {case}: binary {} bytes exceeds 40% of text {} bytes",
            bytes.len(),
            text.len()
        );
    }
}

#[test]
fn corrupted_binary_files_are_rejected_with_typed_errors() {
    let mut rng = Rng64::new(0xBAD_F00D);
    let bytes = trace_bin::encode(&random_trace(&mut rng));

    // Sampled truncations (the module's own tests are exhaustive).
    for cut in (0..bytes.len()).step_by(7) {
        assert!(Trace::decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes must not decode");
    }
    // Sampled bit flips: every byte is either validated structure or
    // checksummed payload, so any flip must surface as an error.
    for i in (0..bytes.len()).step_by(5) {
        let mut evil = bytes.clone();
        evil[i] ^= 0x10;
        let err = Trace::decode(&evil).expect_err("flipped byte must be detected");
        // Typed, not stringly: the error names what failed.
        let text = err.to_string();
        assert!(!text.is_empty(), "error renders a diagnostic");
    }
}

/// Runs `kernel` under `scheme` and fingerprints the report.
fn replay_fp(gpu: &GpuConfig, kernel: &TraceKernel, scheme: Option<SecurityScheme>, cycles: u64) -> u64 {
    match scheme {
        None => {
            let mut sim = Simulator::new(gpu.clone(), kernel, |_, g| PassthroughBackend::from_config(g));
            report_fingerprint(&sim.run(cycles))
        }
        Some(s) => {
            let cfg = SecureMemConfig::with_scheme(s);
            let mut sim = Simulator::new(gpu.clone(), kernel, move |_, g| SecureBackend::new(cfg.clone(), g));
            report_fingerprint(&sim.run(cycles))
        }
    }
}

#[test]
fn report_fingerprints_are_identical_across_ingestion_formats() {
    let dir = temp_dir("reports");
    let gpu = GpuConfig::small();
    for bench in ["nw", "fdtd2d"] {
        let kernel = suite::by_name(bench).expect("suite workload");
        let trace = Trace::record(&kernel, gpu.num_sms, 600);
        let text_path = dir.join(format!("{bench}.trace"));
        let bin_path = dir.join(format!("{bench}.smtrc"));
        std::fs::write(&text_path, trace.to_text()).expect("text written");
        trace_bin::write_file(&trace, &bin_path).expect("binary written");

        let from_text = TraceKernel::from_file(&text_path).expect("text ingests");
        let from_bin = TraceKernel::from_file(&bin_path).expect("binary ingests");
        // Text is encoded at load time, so both replay the same buffer.
        assert_eq!(from_text.trace().resident_bytes(), from_bin.trace().resident_bytes());

        for scheme in [None, Some(SecurityScheme::CtrMacBmt)] {
            let a = replay_fp(&gpu, &from_text, scheme, 4_000);
            let b = replay_fp(&gpu, &from_bin, scheme, 4_000);
            assert_eq!(a, b, "{bench}/{scheme:?}: ingestion format changed the simulation");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot-at-cut + restore must equal an uninterrupted run when the
/// kernel streams from the binary container — and a frame taken under
/// one ingestion format must restore into a simulator built from the
/// other, because the cursors save identical state words.
#[test]
fn checkpoint_resume_is_invisible_for_streamed_binary_replay() {
    const CYCLES: u64 = 3_000;
    const CUT: u64 = 1_100;
    let dir = temp_dir("resume");
    let gpu = GpuConfig::small();
    let kernel = suite::by_name("kmeans").expect("suite workload");
    let trace = Trace::record(&kernel, gpu.num_sms, 600);
    let text_path = dir.join("kmeans.trace");
    let bin_path = dir.join("kmeans.smtrc");
    std::fs::write(&text_path, trace.to_text()).expect("text written");
    trace_bin::write_file(&trace, &bin_path).expect("binary written");

    let build = |path: &PathBuf| {
        let k = TraceKernel::from_file(path).expect("trace ingests");
        let cfg = SecureMemConfig::with_scheme(SecurityScheme::CtrMacBmt);
        Simulator::new(gpu.clone(), &k, move |_, g| SecureBackend::new(cfg.clone(), g))
    };

    let mut straight = build(&bin_path);
    let unbroken = straight.run(CYCLES);

    // Binary -> binary resume.
    let mut first = build(&bin_path);
    let _ = first.run_checked(CUT);
    let frame = first.save_checkpoint();
    let mut resumed = build(&bin_path);
    resumed.restore_checkpoint(&frame).expect("binary frame restores into binary replay");
    assert_eq!(
        report_fingerprint(&unbroken),
        report_fingerprint(&resumed.run(CYCLES)),
        "resumed streamed replay diverges from the uninterrupted run"
    );

    // Cross-format resume: a frame taken under text ingestion restores
    // into a binary-streamed simulator and still matches.
    let mut text_sim = build(&text_path);
    let _ = text_sim.run_checked(CUT);
    let cross_frame = text_sim.save_checkpoint();
    let mut cross = build(&bin_path);
    cross.restore_checkpoint(&cross_frame).expect("text frame restores into binary replay");
    assert_eq!(
        report_fingerprint(&unbroken),
        report_fingerprint(&cross.run(CYCLES)),
        "cross-format resume diverges from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Instructions per warp the pinned recordings take: the length of the
/// replay traces the benchmark harness records.
const PINNED_RECORD_INSTS: usize = 1_500;

/// FNV-1a of the SECMTRC bytes of each benchmark recorded on the small
/// GPU for [`PINNED_RECORD_INSTS`] instructions per warp.
const SECMTRC_PINS: [(&str, u64); 4] = [
    ("nw", 0x1f3349ab4895c37c),
    ("b+tree", 0x5a08ffcdccd98d46),
    ("kmeans", 0xc8c19ff46a1dbc46),
    ("fdtd2d", 0xa7771f134febc8ff),
];

/// FNV-1a of the v1 text of `kmeans` recorded the same way.
const KMEANS_TEXT_PIN: u64 = 0x8a5651c42b367ddf;

/// Each pinned recording also loads to the same trace from its text and
/// from its SECMTRC bytes (in memory, from files, and from a CRLF copy
/// of the text), its parsed text survives encode and decode unchanged,
/// and decoding those bytes re-encodes to them.
#[test]
fn recorded_traces_encode_to_their_pinned_bytes() {
    let gpu = GpuConfig::small();
    let dir = std::env::temp_dir().join(format!("secmem_trace_pins_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut drift = Vec::new();
    for (bench, want) in SECMTRC_PINS {
        let kernel = suite::by_name(bench).expect("suite workload");
        let recorded = Trace::record(&kernel, gpu.num_sms, PINNED_RECORD_INSTS);
        let bytes = trace_bin::encode(&recorded);
        let got = fnv1a(&bytes);
        if got != want {
            drift.push(format!("{bench} SECMTRC: {got:#018x}"));
        }
        let text = recorded.to_text();
        if bench == "kmeans" {
            let got = fnv1a(text.as_bytes());
            if got != KMEANS_TEXT_PIN {
                drift.push(format!("{bench} text: {got:#018x}"));
            }
        }
        // Parsed text encodes to bytes that decode back to the same trace,
        // so loading text need not re-decode what the parser encoded.
        let parsed = Trace::from_text(text.as_bytes()).unwrap_or_else(|e| panic!("{bench} text: {e}"));
        let reparsed = Trace::decode(&trace_bin::encode(&parsed)).unwrap_or_else(|e| panic!("{bench}: {e}"));
        assert!(reparsed == parsed, "{bench}: parsed text changed through encode and decode");
        let from_smtrc = trace::load(&bytes).unwrap_or_else(|e| panic!("{bench} SECMTRC: {e}"));
        let from_text = trace::load(text.as_bytes()).unwrap_or_else(|e| panic!("{bench} text: {e}"));
        assert!(from_text == from_smtrc, "{bench}: text and SECMTRC load to different traces");
        let crlf = text.replace('\n', "\r\n");
        let from_crlf = trace::load(crlf.as_bytes()).unwrap_or_else(|e| panic!("{bench} CRLF text: {e}"));
        assert!(from_crlf == from_smtrc, "{bench}: CRLF text loads to a different trace");
        let (smtrc_path, text_path) = (dir.join("rec.smtrc"), dir.join("rec.trace"));
        std::fs::write(&smtrc_path, &bytes).expect("write SECMTRC");
        std::fs::write(&text_path, &text).expect("write text");
        for path in [&smtrc_path, &text_path] {
            let loaded = trace::load_file(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(loaded == from_smtrc, "{bench}: {} loads to a different trace", path.display());
        }
        let decoded = Trace::decode(&bytes).unwrap_or_else(|e| panic!("{bench}: {e}"));
        assert!(trace_bin::encode(&decoded) == bytes, "{bench}: decode then encode changed the bytes");
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(drift.is_empty(), "recorded traces moved from their pins:\n{}", drift.join("\n"));
}
