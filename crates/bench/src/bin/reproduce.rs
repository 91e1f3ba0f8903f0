//! `reproduce` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! reproduce <experiment> [--cycles N] [--threads N] [--csv DIR] [--small]
//!                        [--seed N] [--warmup N] [--telemetry]
//!                        [--sample-interval N] [--trace-out DIR]
//!
//! experiments:
//!   table1 table2 table3 table4 table6 table7 area-displacement
//!   fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
//!   fig15 fig16 fig17
//!   all          — everything above, in order
//!   ext          — extensions: ablation-replacement, ablation-verification,
//!                  ablation-scheduler, ablation-dram, selective-encryption
//!   matrix       — the pinned 4-benchmark × 7-scheme sweep matrix (same
//!                  expansion/rendering as the secmem-serve sweep server)
//! ```
//!
//! `--small` swaps in the scaled-down 8-SM / 4-partition GPU (for smoke
//! tests); results are then *not* comparable to the paper.
//!
//! Every experiment runs on one [`Runner`], so a job an earlier
//! experiment already ran (the baselines, `secureMem`) is answered from
//! its result cache instead of being simulated again. An experiment
//! with a failed job prints no table, and `reproduce` exits 1.

use secmem_bench::timing::Stopwatch;
use std::path::PathBuf;

use secmem_bench::experiments::{self, ExpOpts, ExpResult};
use secmem_bench::Runner;
use secmem_gpusim::config::GpuConfig;
use secmem_telemetry::TelemetryConfig;

struct Args {
    experiments: Vec<String>,
    opts: ExpOpts,
    csv_dir: Option<PathBuf>,
    resume: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut experiments = Vec::new();
    let mut opts = ExpOpts::default();
    let mut csv_dir = None;
    let mut resume = false;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--cycles" => {
                let v = iter.next().ok_or("--cycles needs a value")?;
                opts.cycles = v.parse().map_err(|_| format!("bad cycle count: {v}"))?;
            }
            "--threads" => {
                let v = iter.next().ok_or("--threads needs a value")?;
                opts.threads = v.parse().map_err(|_| format!("bad thread count: {v}"))?;
            }
            "--csv" => {
                let v = iter.next().ok_or("--csv needs a directory")?;
                csv_dir = Some(PathBuf::from(v));
            }
            "--small" => {
                opts.gpu = GpuConfig::small();
            }
            "--resume" => {
                resume = true;
            }
            "--warmup" => {
                let v = iter.next().ok_or("--warmup needs a value")?;
                opts.warmup = v.parse().map_err(|_| format!("bad warmup: {v}"))?;
            }
            "--seed" => {
                let v = iter.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--telemetry" => {
                opts.telemetry.get_or_insert_with(TelemetryConfig::default);
            }
            "--sample-interval" => {
                let v = iter.next().ok_or("--sample-interval needs a value")?;
                let interval: u64 = v.parse().map_err(|_| format!("bad sample interval: {v}"))?;
                if interval == 0 {
                    return Err("--sample-interval must be at least 1".into());
                }
                opts.telemetry.get_or_insert_with(TelemetryConfig::default).sample_interval = interval;
            }
            "--trace-out" => {
                let v = iter.next().ok_or("--trace-out needs a directory")?;
                opts.telemetry.get_or_insert_with(TelemetryConfig::default);
                opts.trace_dir = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                return Err("usage: reproduce <experiment...> [--cycles N] [--threads N] [--csv DIR] [--small] [--seed N] [--warmup N] [--resume] [--telemetry] [--sample-interval N] [--trace-out DIR]".into());
            }
            other if other.starts_with('-') => return Err(format!("unknown flag: {other}")),
            exp => experiments.push(exp.to_string()),
        }
    }
    if experiments.is_empty() {
        return Err("no experiment given; try `reproduce all` or `reproduce fig3`".into());
    }
    if resume && csv_dir.is_none() {
        return Err("--resume requires --csv DIR (resume skips experiments whose CSV exists)".into());
    }
    Ok(Args { experiments, opts, csv_dir, resume })
}

/// An experiment: every one takes the same options and job runner.
type Experiment = fn(&ExpOpts, &Runner) -> ExpResult;

/// Which group name runs an experiment besides its own name.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Group {
    /// The paper's tables and figures: `reproduce all`.
    Paper,
    /// Ablations of the paper's design choices, selective encryption and
    /// the ML suite: `reproduce ext`.
    Extension,
    /// Runs only by name.
    Alone,
}

/// Every experiment, in the order `all` and `ext` run them.
const EXPERIMENTS: [(&str, Group, Experiment); 29] = {
    use experiments::*;
    use Group::{Alone, Extension, Paper};
    [
        ("table1", Paper, table1),
        ("table2", Paper, table2),
        ("table3", Paper, table3),
        ("table4", Paper, table4),
        ("fig3", Paper, fig3),
        ("fig4", Paper, fig4),
        ("fig5", Paper, fig5),
        ("fig6", Paper, fig6),
        ("fig7", Paper, fig7),
        ("fig8", Paper, fig8),
        ("fig9", Paper, fig9),
        ("fig10", Paper, fig10),
        ("fig11", Paper, fig11),
        ("fig12", Paper, fig12),
        ("table6", Paper, table6),
        ("table7", Paper, table7),
        ("area-displacement", Paper, area_displacement),
        ("fig13", Paper, fig13),
        ("fig14", Paper, fig14),
        ("fig15", Paper, fig15),
        ("fig16", Paper, fig16),
        ("fig17", Paper, fig17),
        ("ablation-replacement", Extension, ablation_replacement),
        ("ablation-verification", Extension, ablation_verification),
        ("ablation-scheduler", Extension, ablation_scheduler),
        ("ablation-dram", Extension, ablation_dram),
        ("selective-encryption", Extension, selective_encryption),
        ("ml-suite", Extension, ml_suite),
        ("matrix", Alone, matrix),
    ]
};

fn experiment(name: &str) -> Option<Experiment> {
    EXPERIMENTS.iter().find(|(n, _, _)| *n == name).map(|&(_, _, run)| run)
}

/// The names of `group`'s experiments, in table order.
fn group(group: Group) -> impl Iterator<Item = String> {
    EXPERIMENTS.iter().filter(move |(_, g, _)| *g == group).map(|(name, _, _)| (*name).to_string())
}

/// Applies `--resume`: experiments whose CSV already exists *and passes
/// the integrity check* are dropped from `todo`.
///
/// Existence alone is not enough: a sweep killed mid-write leaves a
/// partial CSV behind, and skipping it would silently ship truncated
/// results. Every CSV ends with a `# report_fp <fnv1a>` line (see
/// [`secmem_bench::table::csv_is_intact`]); a file whose fingerprint is
/// missing, unparseable, or stale is rerun.
///
/// When the current invocation also requests trace files (`--trace-out`),
/// a CSV alone does not prove the traces are current: the prior
/// (interrupted) run may have produced them under different telemetry
/// options, or not at all. An experiment with a CSV but an empty trace
/// directory is rerun so its traces get regenerated; one whose trace
/// directory already holds `.trace.json` files is still skipped, but with
/// a warning that those files are carried over from the prior run rather
/// than silently passing them off as this run's output.
fn apply_resume(todo: &mut Vec<String>, csv_dir: &std::path::Path, trace_dir: Option<&std::path::Path>) {
    let has_traces = trace_dir.map(|tdir| {
        std::fs::read_dir(tdir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .any(|e| e.file_name().to_string_lossy().ends_with(".trace.json"))
            })
            .unwrap_or(false)
    });
    todo.retain(|exp| {
        let path = csv_dir.join(format!("{exp}.csv"));
        match std::fs::read_to_string(&path) {
            Err(_) => return true, // absent (or unreadable): run it
            Ok(text) if !secmem_bench::table::csv_is_intact(&text) => {
                eprintln!(
                    "[reproduce] {exp}: {} exists but fails the report_fp integrity check \
                     (truncated or edited); rerunning (--resume)",
                    path.display()
                );
                return true;
            }
            Ok(_) => {}
        }
        match (trace_dir, has_traces) {
            (Some(tdir), Some(false)) => {
                eprintln!(
                    "[reproduce] {exp}: CSV present but no trace files in {}; \
                     rerunning to regenerate them (--resume)",
                    tdir.display()
                );
                true
            }
            (Some(tdir), _) => {
                eprintln!(
                    "[reproduce] {exp}: CSV already present, skipping (--resume); \
                     warning: trace files in {} are from the prior run",
                    tdir.display()
                );
                false
            }
            _ => {
                eprintln!("[reproduce] {exp}: CSV already present, skipping (--resume)");
                false
            }
        }
    });
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut todo: Vec<String> = Vec::new();
    for exp in &args.experiments {
        match exp.as_str() {
            "all" => todo.extend(group(Group::Paper)),
            "ext" => todo.extend(group(Group::Extension)),
            _ => todo.push(exp.clone()),
        }
    }

    // --resume: drop experiments whose CSV already exists, so a crashed
    // sweep restarts where it left off (CSVs are written incrementally,
    // one per experiment, as each finishes).
    if args.resume {
        let dir = args.csv_dir.as_ref().expect("checked in parse_args");
        apply_resume(&mut todo, dir, args.opts.trace_dir.as_deref());
        if todo.is_empty() {
            eprintln!("[reproduce] nothing to do: all requested experiments already have CSVs");
            return;
        }
    }

    if let Some(dir) = &args.opts.trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("[reproduce] cannot create trace dir {}: {e}", dir.display());
            std::process::exit(2);
        }
    }

    let runner = Runner::new(args.opts.threads, 0);
    let mut failed = false;
    for exp in &todo {
        let t = Stopwatch::start();
        let Some(run) = experiment(exp) else {
            eprintln!("[reproduce] {exp}: unknown experiment");
            failed = true;
            continue;
        };
        match run(&args.opts, &runner) {
            Ok(table) => {
                println!("{}", table.render());
                eprintln!("[reproduce] {exp} done in {:.1}s", t.elapsed_secs());
                if let Some(dir) = &args.csv_dir {
                    if let Err(e) = table.write_csv(dir, exp) {
                        eprintln!("[reproduce] csv write failed for {exp}: {e}");
                        failed = true;
                    }
                    match secmem_bench::plot::write_svg(&table, dir, exp) {
                        Ok(true) => {}
                        Ok(false) => {} // nothing numeric to plot
                        Err(e) => {
                            eprintln!("[reproduce] svg write failed for {exp}: {e}");
                            failed = true;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("[reproduce] {exp}: {e}");
                failed = true;
            }
        }
    }
    let stats = runner.stats();
    eprintln!(
        "[reproduce] runner: {} jobs, {} simulations, {} memo hits",
        stats.hits + stats.misses,
        stats.misses,
        stats.hits
    );
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::apply_resume;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("reproduce_resume_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    /// A complete results file, fingerprint line included.
    fn intact_csv() -> String {
        let mut t = secmem_bench::ExpTable::new("T", &["bench", "ipc"]);
        t.push_row(vec!["nw".into(), "23.9".into()]);
        t.to_csv()
    }

    #[test]
    fn resume_skips_only_experiments_with_intact_csv() {
        let dir = scratch("csv_only");
        fs::write(dir.join("fig3.csv"), intact_csv()).expect("write csv");
        let mut todo = vec!["fig3".to_string(), "fig4".to_string()];
        apply_resume(&mut todo, &dir, None);
        assert_eq!(todo, vec!["fig4".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_reruns_truncated_or_fingerprintless_csv() {
        let dir = scratch("corrupt_csv");
        // A pre-fingerprint or hand-edited file: no report_fp line.
        fs::write(dir.join("fig3.csv"), "bench,ipc\nnw,23.9\n").expect("write csv");
        // A file truncated mid-write by a crash.
        let full = intact_csv();
        fs::write(dir.join("fig4.csv"), &full[..full.len() - 10]).expect("write csv");
        // An intact one for contrast.
        fs::write(dir.join("fig5.csv"), intact_csv()).expect("write csv");
        let mut todo = vec!["fig3".to_string(), "fig4".to_string(), "fig5".to_string()];
        apply_resume(&mut todo, &dir, None);
        assert_eq!(todo, vec!["fig3".to_string(), "fig4".to_string()], "only the intact CSV skips");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_reruns_when_traces_requested_but_absent() {
        let dir = scratch("no_traces");
        let tdir = dir.join("traces");
        fs::create_dir_all(&tdir).expect("create trace dir");
        fs::write(dir.join("fig3.csv"), intact_csv()).expect("write csv");
        let mut todo = vec!["fig3".to_string()];
        // The CSV exists but the prior run left no trace files: the
        // experiment must rerun so the traces get regenerated.
        apply_resume(&mut todo, &dir, Some(&tdir));
        assert_eq!(todo, vec!["fig3".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_when_prior_traces_exist() {
        let dir = scratch("with_traces");
        let tdir = dir.join("traces");
        fs::create_dir_all(&tdir).expect("create trace dir");
        fs::write(dir.join("fig3.csv"), intact_csv()).expect("write csv");
        fs::write(tdir.join("nw_baseline.trace.json"), "{}").expect("write trace");
        let mut todo = vec!["fig3".to_string()];
        apply_resume(&mut todo, &dir, Some(&tdir));
        assert!(todo.is_empty(), "carried-over traces still allow the skip (with a warning)");
        let _ = fs::remove_dir_all(&dir);
    }
}
