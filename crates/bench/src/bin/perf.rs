//! Simulator-throughput benchmark: how many simulated cycles per wall
//! second does the hot loop sustain?
//!
//! Runs a pinned workload × scheme matrix (fixed [`DEFAULT_SEED`], fixed
//! GPU config, fixed cycle budgets) single-threaded, so numbers are
//! comparable run-to-run and PR-to-PR, and writes `BENCH_simperf.json`.
//! Each run records the simulated work behind its wall time (warp
//! instructions and L2 sector accesses) and an FNV-1a fingerprint of the
//! full `SimReport` debug rendering: two builds that claim to simulate
//! the same thing must produce identical fingerprints, which is how the
//! determinism invariant of the ISSUE 3 performance overhaul is checked
//! across code changes.
//!
//! A second section benchmarks trace ingestion: a pinned
//! workload is recorded once, written in both on-disk formats (text v1
//! and the SECMTRC binary container), and each file is loaded through
//! `TraceKernel::from_file` repeatedly to measure file size, ingest
//! wall time and the resident bytes of the loaded kernel (equal for
//! both formats: text is encoded to SECMTRC at load). A short replay of
//! each format must produce identical report fingerprints — the binary
//! exits non-zero if the formats diverge.
//!
//! ```text
//! cargo run -p secmem-bench --release --bin perf              # full matrix
//! cargo run -p secmem-bench --release --bin perf -- --smoke   # tiny CI matrix
//! cargo run -p secmem-bench --release --bin perf -- --out target/simperf.json
//! ```

use secmem_bench::timing::{warmed, Stopwatch};
use std::fmt::Write as _;

use secmem_bench::run_job;
use secmem_bench::sweep::{report_fingerprint, SweepSpec};
use secmem_core::SecurityScheme;
use secmem_gpusim::backend::PassthroughBackend;
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::sim::Simulator;
use secmem_gpusim::trace::{Trace, TraceKernel};
use secmem_gpusim::trace_bin;
use secmem_workloads::suite::{self, DEFAULT_SEED};

/// The pinned full matrix: a latency-bound chase (`nw`), a deep chase
/// (`b+tree`), a scatter workload (`kmeans`), and a streaming
/// bandwidth-bound stencil (`fdtd2d`) — the corners of the simulator's
/// performance envelope.
const FULL_BENCHES: [&str; 4] = ["nw", "b+tree", "kmeans", "fdtd2d"];
/// The smoke matrix for CI: one latency-bound, one bandwidth-bound.
const SMOKE_BENCHES: [&str; 2] = ["nw", "fdtd2d"];

const FULL_CYCLES: u64 = 60_000;
const SMOKE_CYCLES: u64 = 8_000;

fn schemes(smoke: bool) -> Vec<SecurityScheme> {
    if smoke {
        vec![SecurityScheme::Baseline, SecurityScheme::CtrMacBmt]
    } else {
        SecurityScheme::ALL.to_vec()
    }
}

struct RunRow {
    bench: String,
    scheme: String,
    sim_cycles: u64,
    wall_ms: f64,
    cycles_per_sec: f64,
    report_fp: u64,
    /// Simulated work behind the wall time: warp instructions issued and
    /// L2 sector accesses. Host time follows these more than cycles.
    warp_insts: u64,
    l2_accesses: u64,
}

/// One trace-ingestion measurement: a format's on-disk footprint, how
/// fast it loads, and what the loaded kernel keeps resident.
struct IngestRow {
    format: &'static str,
    file_bytes: u64,
    ingest_ms: f64,
    insts_per_sec: f64,
    resident_bytes: u64,
    report_fp: u64,
}

/// Records the pinned ingest workload, writes it in both formats,
/// measures ingestion of each, and replays each for `cycles` to prove
/// the two paths simulate identically. Returns the measurements and
/// whether the replay fingerprints diverged.
fn trace_ingest_section(smoke: bool, gpu: &GpuConfig, cycles: u64) -> (Vec<IngestRow>, bool) {
    let bench = "fdtd2d";
    let insts_per_warp = if smoke { 300 } else { 1_500 };
    let iters = if smoke { 3 } else { 10 };
    let kernel = suite::by_name(bench).expect("ingest bench is in the suite");
    let trace = Trace::record(&kernel, gpu.num_sms, insts_per_warp);
    let total_insts = trace.total_insts();
    let dir = std::env::temp_dir().join(format!("secmem-perf-ingest-{}", std::process::id()));
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("[perf] cannot create {}: {err}", dir.display());
        std::process::exit(1);
    }
    let text_path = dir.join("ingest.trace");
    let bin_path = dir.join("ingest.smtrc");
    let mut text = Vec::new();
    trace.write_text(&mut text).expect("in-memory serialization cannot fail");
    if let Err(err) = std::fs::write(&text_path, &text) {
        eprintln!("[perf] cannot write {}: {err}", text_path.display());
        std::process::exit(1);
    }
    if let Err(err) = trace_bin::write_file(&trace, &bin_path) {
        eprintln!("[perf] cannot write {}: {err}", bin_path.display());
        std::process::exit(1);
    }

    eprintln!(
        "[perf] trace ingest: {bench}, {} streams, {total_insts} insts, {iters} timed loads each",
        trace.warp_count()
    );
    let mut rows = Vec::new();
    let mut fps = Vec::new();
    for (format, path) in [("text", &text_path), ("binary", &bin_path)] {
        let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let elapsed = warmed(iters, || {
            let k = TraceKernel::from_file(path).expect("perf trace loads");
            std::hint::black_box(k.trace().resident_bytes());
        });
        let ingest_ms = elapsed.as_secs_f64() * 1e3 / iters as f64;
        let insts_per_sec =
            if ingest_ms > 0.0 { total_insts as f64 * iters as f64 / elapsed.as_secs_f64() } else { 0.0 };
        let loaded = TraceKernel::from_file(path).expect("perf trace loads");
        let resident_bytes = loaded.trace().resident_bytes() as u64;
        let mut sim = Simulator::new(gpu.clone(), &loaded, |_, g| PassthroughBackend::from_config(g));
        let report = sim.run(cycles);
        let report_fp = report_fingerprint(&report);
        eprintln!(
            "[perf] {format:>14} ingest  {file_bytes:>9} B file  {ingest_ms:>9.2} ms/load  \
             {insts_per_sec:>11.0} inst/s  {resident_bytes:>9} B resident  fp {report_fp:016x}",
        );
        fps.push(report_fp);
        rows.push(IngestRow { format, file_bytes, ingest_ms, insts_per_sec, resident_bytes, report_fp });
    }
    let diverged = fps.windows(2).any(|w| w[0] != w[1]);
    if diverged {
        eprintln!("[perf] FORMAT DIVERGENCE: text and binary replays produced different reports");
    }
    if rows.len() == 2 && rows[0].ingest_ms > 0.0 && rows[0].file_bytes > 0 {
        eprintln!(
            "[perf] binary trace: {:.1}% of text size, {:.1}x faster ingest",
            rows[1].file_bytes as f64 * 100.0 / rows[0].file_bytes as f64,
            rows[0].ingest_ms / rows[1].ingest_ms.max(f64::MIN_POSITIVE),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    (rows, diverged)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = String::from("BENCH_simperf.json");
    let mut cycles_override: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned().unwrap_or_else(|| usage("--out needs a path"));
            }
            "--cycles" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| usage("--cycles needs a number"));
                cycles_override = Some(v.parse().unwrap_or_else(|_| usage("--cycles needs a number")));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    let benches: Vec<&str> = if smoke { SMOKE_BENCHES.to_vec() } else { FULL_BENCHES.to_vec() };
    let cycles = cycles_override.unwrap_or(if smoke { SMOKE_CYCLES } else { FULL_CYCLES });
    let gpu = GpuConfig::small();

    eprintln!(
        "[perf] {} matrix: {} workloads x {} schemes, {} cycles each, seed {:#x}",
        if smoke { "smoke" } else { "full" },
        benches.len(),
        schemes(smoke).len(),
        cycles,
        DEFAULT_SEED,
    );

    let spec = SweepSpec {
        benches: benches.iter().map(|b| (*b).to_string()).collect(),
        schemes: schemes(smoke),
        cycles,
        ..SweepSpec::pinned_matrix()
    };
    let jobs = spec.jobs().unwrap_or_else(|e| {
        eprintln!("[perf] {e}");
        std::process::exit(2);
    });
    let mut rows: Vec<RunRow> = Vec::new();
    let total_watch = Stopwatch::start();
    for job in &jobs {
        let watch = Stopwatch::start();
        let result = run_job(job);
        let wall = watch.elapsed();
        let wall_ms = wall.as_secs_f64() * 1e3;
        let sim_cycles = result.report.cycles;
        let cycles_per_sec =
            if wall.as_secs_f64() > 0.0 { sim_cycles as f64 / wall.as_secs_f64() } else { 0.0 };
        let report_fp = result.report_fp;
        eprintln!(
            "[perf] {:>14} {:>13}  {sim_cycles:>7} cyc  {wall_ms:>9.2} ms  {:>11.0} cyc/s  fp {report_fp:016x}",
            result.bench, result.label, cycles_per_sec,
        );
        rows.push(RunRow {
            sim_cycles,
            wall_ms,
            cycles_per_sec,
            report_fp,
            warp_insts: result.report.warp_instructions,
            l2_accesses: result.report.l2.accesses(),
            bench: result.bench,
            scheme: result.label,
        });
    }
    let total_wall = total_watch.elapsed_secs();
    let total_cycles: u64 = rows.iter().map(|r| r.sim_cycles).sum();
    let aggregate = if total_wall > 0.0 { total_cycles as f64 / total_wall } else { 0.0 };
    eprintln!(
        "[perf] total: {total_cycles} simulated cycles in {:.2} s = {aggregate:.0} cycles/sec",
        total_wall,
    );

    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    let (ingest, ingest_diverged) = trace_ingest_section(smoke, &gpu, cycles);
    if ingest_diverged {
        eprintln!("[perf] aborting: trace format changed simulation results");
        std::process::exit(1);
    }

    let json = to_json(&rows, &ingest, host_parallelism, smoke, cycles, total_wall, aggregate);
    if let Err(err) = std::fs::write(&out_path, &json) {
        eprintln!("[perf] failed to write {out_path}: {err}");
        std::process::exit(1);
    }
    eprintln!("[perf] wrote {out_path}");
}

fn to_json(
    rows: &[RunRow],
    ingest: &[IngestRow],
    host_parallelism: usize,
    smoke: bool,
    cycles: u64,
    total_wall_s: f64,
    aggregate: f64,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"simperf-v3\",");
    let _ = writeln!(out, "  \"mode\": \"{}\",", if smoke { "smoke" } else { "full" });
    let _ = writeln!(out, "  \"gpu\": \"small\",");
    let _ = writeln!(out, "  \"seed\": {DEFAULT_SEED},");
    let _ = writeln!(out, "  \"cycles_per_run\": {cycles},");
    let _ = writeln!(out, "  \"host_parallelism\": {host_parallelism},");
    let _ = writeln!(out, "  \"total_wall_seconds\": {total_wall_s:.6},");
    let _ = writeln!(out, "  \"aggregate_cycles_per_sec\": {aggregate:.1},");
    out.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"bench\": \"{}\", \"scheme\": \"{}\", \"sim_cycles\": {}, \"wall_ms\": {:.3}, \"cycles_per_sec\": {:.1}, \"report_fp\": \"{:016x}\", \"warp_insts\": {}, \"l2_accesses\": {}}}",
            r.bench, r.scheme, r.sim_cycles, r.wall_ms, r.cycles_per_sec, r.report_fp, r.warp_insts, r.l2_accesses
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"trace_ingest\": [\n");
    for (i, r) in ingest.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"format\": \"{}\", \"file_bytes\": {}, \"ingest_ms\": {:.3}, \"insts_per_sec\": {:.1}, \"resident_bytes\": {}, \"report_fp\": \"{:016x}\"}}",
            r.format, r.file_bytes, r.ingest_ms, r.insts_per_sec, r.resident_bytes, r.report_fp
        );
        out.push_str(if i + 1 < ingest.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: perf [--smoke] [--cycles N] [--out PATH]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
