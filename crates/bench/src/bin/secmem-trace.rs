//! `secmem-trace` — record, convert, inspect and replay instruction
//! traces in either on-disk format: the line-oriented text v1 format or
//! the compact SECMTRC binary container (see `gpusim::trace_bin`).
//!
//! ```text
//! secmem-trace record --bench NAME --out FILE [--insts N] [--small]
//! secmem-trace convert IN OUT
//! secmem-trace stats FILE
//! secmem-trace verify FILE
//! secmem-trace run FILE [--scheme S] [--cycles N] [--small] [--json]
//!
//! schemes: baseline|ctr|ctr_bmt|ctr_mac_bmt|direct|direct_mac|direct_mac_mt
//! ```
//!
//! Every command reads its input through `gpusim::trace::load`, which
//! sniffs the SECMTRC magic and encodes text input to SECMTRC, so
//! `stats`, `verify` and `run` see the same validated container for
//! either format. Output format is chosen by extension (`.smtrc` →
//! binary, anything else → text). `run` replays through the full
//! simulator and prints the same report JSON as `simulate --json`, so
//! CI can diff the two ingestion paths byte-for-byte.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use secmem_bench::json::report_to_json;
use secmem_bench::report_fingerprint;
use secmem_core::{SecureBackend, SecureMemConfig, SecurityScheme};
use secmem_gpusim::backend::PassthroughBackend;
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::kernel::Kernel;
use secmem_gpusim::sim::Simulator;
use secmem_gpusim::trace::{self, Trace, TraceKernel};
use secmem_gpusim::trace_bin;
use secmem_workloads::{ml, suite, SyntheticKernel};

const USAGE: &str = "usage: secmem-trace <record|convert|stats|verify|run> ...
  record --bench NAME --out FILE [--insts N] [--small]
  convert IN OUT
  stats FILE
  verify FILE
  run FILE [--scheme S] [--cycles N] [--small] [--json]";

/// True when the output path asks for the binary container.
fn wants_binary(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "smtrc")
}

fn find_kernel(name: &str) -> Option<SyntheticKernel> {
    suite::by_name(name).or_else(|| ml::ml_suite().into_iter().find(|k| k.name() == name))
}

/// Loads and fully validates a trace file in either format.
fn load_trace(path: &Path) -> Result<Trace, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    trace::load(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes a trace in the format the output extension asks for.
fn write_trace(trace: &Trace, path: &Path) -> Result<&'static str, String> {
    if wants_binary(path) {
        trace_bin::write_file(trace, path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        return Ok("binary");
    }
    write_text_file(trace, path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok("text")
}

/// Streams `trace`'s text through a buffered temporary file beside
/// `path`, then renames it into place: the same crash discipline as
/// `trace_bin::write_file`, without building the document in memory.
fn write_text_file(trace: &Trace, path: &Path) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut out = BufWriter::new(File::create(&tmp)?);
    trace.write_text(&mut out)?;
    out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    std::fs::rename(&tmp, path)
}

fn need(it: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn cmd_record(args: &mut dyn Iterator<Item = String>) -> Result<(), String> {
    let mut bench = "fdtd2d".to_string();
    let mut out: Option<PathBuf> = None;
    let mut insts = 2_000usize;
    let mut gpu = GpuConfig::volta();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => bench = need(args, "--bench")?,
            "--out" => out = Some(PathBuf::from(need(args, "--out")?)),
            "--insts" => insts = need(args, "--insts")?.parse().map_err(|e| format!("--insts: {e}"))?,
            "--small" => gpu = GpuConfig::small(),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    let out = out.ok_or_else(|| format!("record needs --out\n{USAGE}"))?;
    let kernel = find_kernel(&bench).ok_or_else(|| format!("unknown benchmark '{bench}'"))?;
    let trace = Trace::record(&kernel, gpu.num_sms, insts);
    let format = write_trace(&trace, &out)?;
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "recorded {} warps x <= {insts} insts of '{bench}' -> {} ({format}, {bytes} bytes)",
        trace.warp_count(),
        out.display()
    );
    Ok(())
}

fn cmd_convert(args: &mut dyn Iterator<Item = String>) -> Result<(), String> {
    let input = PathBuf::from(need(args, "convert")?);
    let output = PathBuf::from(need(args, "convert OUT")?);
    let to = write_trace(&load_trace(&input)?, &output)?;
    let in_bytes = std::fs::metadata(&input).map(|m| m.len()).unwrap_or(0);
    let out_bytes = std::fs::metadata(&output).map(|m| m.len()).unwrap_or(0);
    println!(
        "{} ({in_bytes} bytes) -> {} ({to}, {out_bytes} bytes, {:.1}% of input)",
        input.display(),
        output.display(),
        pct(out_bytes, in_bytes),
    );
    Ok(())
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        return 0.0;
    }
    num as f64 * 100.0 / den as f64
}

fn cmd_stats(args: &mut dyn Iterator<Item = String>) -> Result<(), String> {
    let path = PathBuf::from(need(args, "stats")?);
    let trace = load_trace(&path)?;
    println!("file bytes      {}", std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0));
    println!("streams         {}", trace.warp_count());
    println!("instructions    {}", trace.total_insts());
    println!("resident bytes  {} (streamed replay)", trace.resident_bytes());
    let insts = || trace.streams().map(|s| s.insts);
    if let (Some(min), Some(max)) = (insts().min(), insts().max()) {
        println!("insts/stream    {min}..{max}");
    }
    Ok(())
}

fn cmd_verify(args: &mut dyn Iterator<Item = String>) -> Result<(), String> {
    let path = PathBuf::from(need(args, "verify")?);
    let trace = load_trace(&path)?;
    // Loading validates everything up front (parse, checksums, bounds,
    // full record walk), so reaching this point is the whole check.
    println!("{}: ok ({} streams, {} instructions)", path.display(), trace.warp_count(), trace.total_insts());
    Ok(())
}

fn cmd_run(args: &mut dyn Iterator<Item = String>) -> Result<(), String> {
    let path = PathBuf::from(need(args, "run")?);
    let mut scheme = "baseline".to_string();
    let mut cycles = 50_000u64;
    let mut gpu = GpuConfig::volta();
    let mut json = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scheme" => scheme = need(args, "--scheme")?,
            "--cycles" => cycles = need(args, "--cycles")?.parse().map_err(|e| format!("--cycles: {e}"))?,
            "--small" => gpu = GpuConfig::small(),
            "--json" => json = true,
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    let parsed = SecurityScheme::from_label(&scheme).ok_or_else(|| format!("unknown scheme '{scheme}'"))?;
    let kernel = TraceKernel::from_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    // The simulator spawns only the SMs and warps the GPU has; say what
    // that leaves out instead of replaying less without a word.
    let (dropped, dropped_insts) = kernel
        .trace()
        .streams()
        .filter(|s| s.sm >= gpu.num_sms || s.warp >= gpu.max_warps_per_sm)
        .fold((0u64, 0u64), |(n, insts), s| (n + 1, insts + s.insts));
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} of {} streams ({dropped_insts} instructions) lie outside this GPU's \
             {} SMs x {} warps and will not replay",
            kernel.trace().warp_count(),
            gpu.num_sms,
            gpu.max_warps_per_sm
        );
    }
    eprintln!(
        "replaying {} ({} resident bytes) under {scheme} for {cycles} cycles",
        path.display(),
        kernel.trace().resident_bytes()
    );
    let report = match parsed {
        SecurityScheme::Baseline => {
            let mut sim = Simulator::new(gpu.clone(), &kernel, |_, g| PassthroughBackend::from_config(g));
            sim.run(cycles)
        }
        s => {
            let cfg = SecureMemConfig { scheme: s, ..SecureMemConfig::secure_mem() };
            let mut sim = Simulator::new(gpu.clone(), &kernel, |_, g| SecureBackend::new(cfg.clone(), g));
            sim.run(cycles)
        }
    };
    if json {
        println!("{}", report_to_json(&report, &gpu));
    } else {
        println!("trace {} under {scheme} for {} cycles", kernel.name(), report.cycles);
        println!("  ipc               {:>12.1}", report.ipc());
        println!("  warp instructions {:>12}", report.warp_instructions);
        println!("  L2 miss rate      {:>11.1}%", report.l2.miss_rate() * 100.0);
        println!("  DRAM requests     {:>12}", report.dram.total_requests());
        println!("  report fp         {:>#018x}", report_fingerprint(&report));
    }
    Ok(())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let result = match cmd.as_str() {
        "record" => cmd_record(&mut args),
        "convert" => cmd_convert(&mut args),
        "stats" => cmd_stats(&mut args),
        "verify" => cmd_verify(&mut args),
        "run" => cmd_run(&mut args),
        other => {
            eprintln!("unknown command '{other}'\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
