//! `secbench`: runs one benchmark workload and prints its result.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path secbench/Cargo.toml -- \
//!     --workload secure_walk --seed 1 --seconds 20 --trace 0
//! cargo run ... -- --manifest        # prints BENCHMARK.json
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it
//! carries host facts and per-cell detail. The exit code is 0 only when
//! every correctness check passed.

use secbench::metrics::{END_TO_END, PER_LAYER};
use secbench::Args;

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: secbench --workload <secure_walk|baseline_replay|sweep_service> --seed <n> \
         --seconds <1..600> --trace <0|1>\n       secbench --manifest"
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("--seed needs an integer"))),
            "--seconds" => {
                let s: u64 = value.parse().unwrap_or_else(|_| usage("--seconds needs an integer"));
                if !(1..=600).contains(&s) {
                    usage("--seconds must be 1..600");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--manifest") {
        print!("{}", secbench::metrics::manifest());
        return;
    }
    let args = parse_args(&argv);
    let out = match secbench::run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("[secbench] {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    println!("{}", out.detail_line());
    println!("{}", out.result_line(if args.trace { &PER_LAYER } else { &END_TO_END }));
    if out.failed > 0 {
        std::process::exit(1);
    }
}
