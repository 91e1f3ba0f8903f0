//! Pins every synthetic kernel's instruction stream, independent of the
//! simulator. Each pin is the FNV-1a of the text-trace lines
//! (`serialize_inst`, one `\n` each) of the first [`PIN_INSTS`]
//! instructions of three warps on the small GPU: SM 0 warp 0, the last
//! warp of SM 0, and warp 0 of the last active SM. A generator or RNG
//! change then fails a pin named after its kernel instead of drifting
//! the committed CSVs.

use secmem_checkpoint::fnv1a;
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::kernel::Kernel;
use secmem_gpusim::trace::serialize_inst_into;
use secmem_gpusim::types::Inst;
use secmem_workloads::{ml, suite};

/// Instructions hashed per warp (fewer if the warp exits first).
const PIN_INSTS: usize = 10_000;

/// `(kernel, [SM 0 warp 0, SM 0 last warp, last SM warp 0])`.
const STREAM_PINS: [(&str, [u64; 3]); 18] = [
    ("heartwall", [0x97d4b99bc6519606, 0x7d9212ba7963249f, 0xa170bd608a7f3a54]),
    ("lavaMD", [0xc3da1fef1ed1c5a2, 0x838fc94e20a0521a, 0xb08d5a17fabc0096]),
    ("nw", [0xaad022b528ff0014, 0xaad022b528ff0014, 0xda11e12f9abecd5f]),
    ("b+tree", [0x5853dadfe437add5, 0x1a8a596d63522587, 0x2c9b54f7c1b008aa]),
    ("backprop", [0xab20c8a1d59615cf, 0xe20b8d287589e25e, 0x1561c76553c38293]),
    ("cfd", [0x24b23f57ec269274, 0xa403bb772337db91, 0xf95de13b9b7ae8f8]),
    ("dwt2d", [0x5e45b1005ae02600, 0x5eb11bae90c63af0, 0x6938d3428a4ef93e]),
    ("kmeans", [0x7de407cd1cb360f2, 0x41144f8e5423d4b7, 0xdf650704f4fb3d9c]),
    ("bfs", [0x02287a8781f217ca, 0x64fe68b4b84049f4, 0x5ea61f6694f1f04e]),
    ("srad_v2", [0x668468fba9082c48, 0x51cba0e22ba0d7f0, 0x4764f83fd6fa75b9]),
    ("streamcluster", [0x3210764cb9dfcc4b, 0x27c17ccc4e5d00fd, 0xdfa0b73b72eed0ef]),
    ("2Dconvolution", [0xcbfaac99b025e80d, 0x5f6a989e8cf16a8f, 0xdc162267e5f04edd]),
    ("fdtd2d", [0x63fbe4b181c64426, 0x4c52e2f4d81eed78, 0xaedf74778456bb22]),
    ("lbm", [0x0d89edd749087dcf, 0xf194903659bd61b6, 0x8f7945cf0827f5b6]),
    ("ml_gemm", [0x1929a0d9504087c0, 0x231c3f6d29d36805, 0x708687c2402d9444]),
    ("ml_attention", [0x9a662aeca561488b, 0xd6f8a13321b386b5, 0xa1d19a1ce699c1bd]),
    ("ml_embedding", [0x2f5e3008196c2da2, 0x089d5231768547f6, 0xdcb680f9c33c51a1]),
    ("ml_conv3x3", [0xcc6dfc1c672fc490, 0xa19de8ee8f178c72, 0x6fdacce9c9142972]),
];

/// FNV-1a of the first [`PIN_INSTS`] trace lines of one warp.
fn stream_fp(kernel: &dyn Kernel, sm: u32, warp: u32) -> u64 {
    let mut program = kernel.spawn(sm, warp);
    let mut text = String::new();
    for _ in 0..PIN_INSTS {
        let inst = program.next_inst();
        serialize_inst_into(&mut text, &inst);
        text.push('\n');
        if matches!(inst, Inst::Exit) {
            break;
        }
    }
    fnv1a(text.as_bytes())
}

/// The three pinned warps' fingerprints for `kernel` on `gpu`.
fn kernel_fps(kernel: &dyn Kernel, gpu: &GpuConfig) -> [u64; 3] {
    let last_sm = kernel.active_sms(gpu.num_sms) - 1;
    let last_warp = kernel.warps_per_sm(0) - 1;
    [stream_fp(kernel, 0, 0), stream_fp(kernel, 0, last_warp), stream_fp(kernel, last_sm, 0)]
}

#[test]
fn every_kernel_stream_matches_its_pin() {
    let gpu = GpuConfig::small();
    let kernels: Vec<_> = suite::table4_suite().into_iter().chain(ml::ml_suite()).collect();
    let names: Vec<&str> = kernels.iter().map(|k| k.name()).collect();
    let pinned: Vec<&str> = STREAM_PINS.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned, "the pin table must name every suite and ml kernel, in suite order");
    let mut drift = Vec::new();
    for (kernel, (name, want)) in kernels.iter().zip(STREAM_PINS) {
        let got = kernel_fps(kernel, &gpu);
        if got != want {
            drift.push(format!("    ({name:?}, [{:#018x}, {:#018x}, {:#018x}]),", got[0], got[1], got[2]));
        }
    }
    assert!(drift.is_empty(), "kernel streams moved from their pins:\n{}", drift.join("\n"));
}
