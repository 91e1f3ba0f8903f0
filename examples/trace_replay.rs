//! Trace record & replay: capture a synthetic benchmark's instruction
//! stream, write it in both on-disk formats — the portable v1 text
//! format and the compact SECMTRC binary container — replay each
//! through the simulator, and confirm the replays are cycle-identical.
//! Text is encoded to SECMTRC at load time, so both files replay
//! streamed and hold the same resident bytes. The same path lets you
//! feed externally captured GPU traces through the secure-memory
//! models.
//!
//! ```text
//! cargo run --release --example trace_replay [benchmark] [out.trace]
//! ```

use gpu_secure_memory::core::{SecureBackend, SecureMemConfig};
use gpu_secure_memory::gpusim::config::GpuConfig;
use gpu_secure_memory::gpusim::sim::Simulator;
use gpu_secure_memory::gpusim::stats::SimReport;
use gpu_secure_memory::gpusim::trace::{Trace, TraceKernel};
use gpu_secure_memory::gpusim::trace_bin;
use gpu_secure_memory::workloads::suite;

const CYCLES: u64 = 15_000;
const INSTS_PER_WARP: usize = 2_000;

fn replay(path: &std::path::Path, gpu: &GpuConfig) -> (SimReport, usize) {
    let kernel = TraceKernel::from_file(path).expect("trace loads");
    let mut sim =
        Simulator::new(gpu.clone(), &kernel, |_, g| SecureBackend::new(SecureMemConfig::secure_mem(), g));
    (sim.run(CYCLES), kernel.trace().resident_bytes())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let bench = args.next().unwrap_or_else(|| "streamcluster".to_string());
    let text_out = args.next().unwrap_or_else(|| format!("{bench}.trace"));
    let bin_out = format!("{bench}.smtrc");
    let Some(kernel) = suite::by_name(&bench) else {
        eprintln!("unknown benchmark '{bench}'");
        std::process::exit(2);
    };
    let gpu = GpuConfig::small();

    // 1. Record once, write both formats (the text serializer streams
    //    through a reused line buffer; the binary writer is atomic).
    let trace = Trace::record(&kernel, gpu.num_sms, INSTS_PER_WARP);
    let mut text_file = std::fs::File::create(&text_out).expect("text trace created");
    trace.write_text(&mut text_file).expect("text trace written");
    trace_bin::write_file(&trace, std::path::Path::new(&bin_out)).expect("binary trace written");
    let text_bytes = std::fs::metadata(&text_out).map(|m| m.len()).unwrap_or(0);
    let bin_bytes = std::fs::metadata(&bin_out).map(|m| m.len()).unwrap_or(0);
    println!("recorded {} warps x <= {INSTS_PER_WARP} instructions of '{bench}'", trace.warp_count());
    println!("  {text_out}: {text_bytes} bytes (text)");
    println!(
        "  {bin_out}: {bin_bytes} bytes (SECMTRC, {:.1}% of text)",
        bin_bytes as f64 * 100.0 / text_bytes.max(1) as f64
    );

    // 2. Replay both files under the secure memory engine. Both stream
    //    from one SECMTRC buffer: neither materializes the decoded
    //    instructions.
    let (from_text, text_resident) = replay(std::path::Path::new(&text_out), &gpu);
    let (from_bin, bin_resident) = replay(std::path::Path::new(&bin_out), &gpu);
    assert_eq!(text_resident, bin_resident);
    println!(
        "replay (text):   {} instructions, ipc {:.1}, {} DRAM requests, {text_resident} bytes resident",
        from_text.warp_instructions,
        from_text.ipc(),
        from_text.dram.total_requests()
    );
    println!(
        "replay (binary): {} instructions, ipc {:.1}, {} DRAM requests, {bin_resident} bytes resident",
        from_bin.warp_instructions,
        from_bin.ipc(),
        from_bin.dram.total_requests()
    );
    assert_eq!(from_text.warp_instructions, from_bin.warp_instructions);
    assert_eq!(from_text.dram.total_requests(), from_bin.dram.total_requests());
    println!("replays are identical — the trace fully determines the simulation.");
}
