//! Telemetry tour: profile a secure-memory run and a baseline run of the
//! same benchmark, compare their DRAM traffic over *time* (not just
//! end-of-run totals), and export a Chrome `trace_event` JSON you can
//! open at `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ```text
//! cargo run --release --example telemetry_tour -- --telemetry \
//!     [--bench NAME] [--cycles N] [--sample-interval N] [--trace-out FILE]
//! ```
//!
//! The example is self-validating: it exits nonzero if the emitted trace
//! is not valid JSON or if the sampled byte series do not add up to the
//! end-of-run DRAM aggregates.

use gpu_secure_memory::core::{SecureBackend, SecureMemConfig};
use gpu_secure_memory::gpusim::backend::PassthroughBackend;
use gpu_secure_memory::gpusim::config::GpuConfig;
use gpu_secure_memory::gpusim::sim::Simulator;
use gpu_secure_memory::gpusim::stats::SimReport;
use gpu_secure_memory::gpusim::types::TrafficClass;
use gpu_secure_memory::telemetry::{chrome, json, spark, Telemetry, TelemetryConfig, TelemetrySnapshot};
use gpu_secure_memory::workloads::suite;

struct Args {
    bench: String,
    cycles: u64,
    interval: u64,
    telemetry: bool,
    trace_out: Option<std::path::PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut args =
        Args { bench: "fdtd2d".into(), cycles: 20_000, interval: 256, telemetry: false, trace_out: None };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut need = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--bench" => args.bench = need("--bench")?,
            "--cycles" => args.cycles = need("--cycles")?.parse().map_err(|e| format!("--cycles: {e}"))?,
            "--sample-interval" => {
                args.interval =
                    need("--sample-interval")?.parse().map_err(|e| format!("--sample-interval: {e}"))?;
                if args.interval == 0 {
                    return Err("--sample-interval must be at least 1".into());
                }
            }
            "--telemetry" => args.telemetry = true,
            "--trace-out" => {
                args.trace_out = Some(need("--trace-out")?.into());
                args.telemetry = true;
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn telemetry_for(args: &Args) -> Telemetry {
    if args.telemetry {
        Telemetry::enabled(TelemetryConfig { sample_interval: args.interval, ..TelemetryConfig::default() })
    } else {
        Telemetry::disabled()
    }
}

/// Sum of a sampled Delta series; 0.0 when the series was never recorded
/// (e.g. a baseline run has no metadata traffic).
fn series_total(snap: &TelemetrySnapshot, name: &str) -> f64 {
    snap.series(name).map(|s| s.total()).unwrap_or(0.0)
}

/// Checks that the sampled per-class byte series add up to the DRAM
/// aggregates of the final report (Delta decimation preserves sums, so
/// this must hold exactly up to float rounding).
fn reconcile(label: &str, snap: &TelemetrySnapshot, report: &SimReport) -> Result<(), String> {
    for (name, class) in [
        ("dram.data_bytes", TrafficClass::Data),
        ("dram.ctr_bytes", TrafficClass::Counter),
        ("dram.mac_bytes", TrafficClass::Mac),
        ("dram.bmt_bytes", TrafficClass::Tree),
    ] {
        let sampled = series_total(snap, name);
        let c = report.dram.class(class);
        let aggregate = (c.bytes_read + c.bytes_written) as f64;
        if (sampled - aggregate).abs() > 1e-6 {
            return Err(format!("{label}: {name} sampled {sampled} != aggregate {aggregate}"));
        }
    }
    Ok(())
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let Some(kernel) = suite::by_name(&args.bench) else {
        eprintln!("unknown benchmark '{}'", args.bench);
        std::process::exit(2);
    };
    let gpu = GpuConfig::small();

    let mut secure =
        Simulator::new(gpu.clone(), &kernel, |_, g| SecureBackend::new(SecureMemConfig::secure_mem(), g));
    secure.set_telemetry(telemetry_for(&args));
    let secure_report = secure.run(args.cycles);

    let mut baseline = Simulator::new(gpu.clone(), &kernel, |_, g| PassthroughBackend::from_config(g));
    baseline.set_telemetry(telemetry_for(&args));
    let baseline_report = baseline.run(args.cycles);

    println!(
        "'{}' for {} cycles (small GPU): baseline ipc {:.1}, ctr_mac_bmt ipc {:.1}",
        args.bench,
        args.cycles,
        baseline_report.ipc(),
        secure_report.ipc()
    );

    if !args.telemetry {
        println!("\nrun again with --telemetry to sample the time series behind those numbers");
        return;
    }

    let secure_snap = secure.telemetry_snapshot().expect("telemetry enabled");
    let baseline_snap = baseline.telemetry_snapshot().expect("telemetry enabled");

    // The headline of the paper, seen live: secure memory turns one
    // data stream into four. The baseline's metadata rows stay at zero.
    println!("\nsampled DRAM bytes ({}-cycle windows):", args.interval);
    for (who, snap) in [("baseline", &baseline_snap), ("ctr_mac_bmt", &secure_snap)] {
        let meta = series_total(snap, "dram.ctr_bytes")
            + series_total(snap, "dram.mac_bytes")
            + series_total(snap, "dram.bmt_bytes");
        let data = series_total(snap, "dram.data_bytes");
        println!("  {who:<12} data {:>10.0} B   metadata {:>10.0} B", data, meta);
    }

    println!("\nctr_mac_bmt time series:");
    for line in spark::summary(&secure_snap).lines() {
        println!("  {line}");
    }

    let mut failed = false;
    for (label, snap, report) in
        [("baseline", &baseline_snap, &baseline_report), ("ctr_mac_bmt", &secure_snap, &secure_report)]
    {
        match reconcile(label, snap, report) {
            Ok(()) => println!("[ok] {label}: sampled series reconcile with the final report"),
            Err(e) => {
                eprintln!("[FAIL] {e}");
                failed = true;
            }
        }
    }

    if let Some(path) = &args.trace_out {
        let trace = chrome::chrome_trace(&secure_snap);
        if let Err(e) = json::parse(&trace) {
            eprintln!("[FAIL] emitted Chrome trace is not valid JSON: {e}");
            failed = true;
        }
        if let Err(e) = std::fs::write(path, &trace) {
            eprintln!("[FAIL] cannot write {}: {e}", path.display());
            failed = true;
        } else {
            println!("[ok] wrote Chrome trace ({} bytes) to {}", trace.len(), path.display());
        }
    }

    if failed {
        std::process::exit(1);
    }
}
