//! The `secmem-lint` CLI. See `lib.rs` and DESIGN.md §11.

use std::path::PathBuf;
use std::process::ExitCode;

use secmem_lint::{diag, engine, Policy};

const USAGE: &str = "\
secmem-lint — workspace static checks (determinism, hot path, error hygiene)

USAGE:
    cargo run -p secmem-lint -- [OPTIONS]

OPTIONS:
    --json            emit findings as JSON (CI artifact) instead of text
    --root <path>     workspace root (default: nearest ancestor with crates/)
    --max-ms <n>      fail if the scan takes longer than n milliseconds
                      (CI keeps the pass cheap enough to stay in tier-1)
    --list            print the lint catalogue and exit
    --help            this message

EXIT STATUS:
    0  no active findings (inline allows may have suppressed some)
    1  at least one finding without an inline allow, or --max-ms exceeded
    2  usage or I/O error
";

struct Args {
    json: bool,
    list: bool,
    root: Option<PathBuf>,
    max_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { json: false, list: false, root: None, max_ms: None };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--list" => args.list = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a path")?;
                args.root = Some(PathBuf::from(v));
            }
            "--max-ms" => {
                let v = it.next().ok_or("--max-ms needs a number")?;
                args.max_ms = Some(v.parse().map_err(|_| format!("--max-ms: '{v}' is not a number"))?);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(args)
}

/// Finds the workspace root: the nearest ancestor of the current
/// directory containing `crates/` and `Cargo.toml`.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("secmem-lint: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for doc in diag::CATALOGUE {
            println!("{:>3} {:<22} {}", doc.id, doc.name, doc.invariant);
        }
        return ExitCode::SUCCESS;
    }
    let Some(root) = args.root.or_else(find_root) else {
        eprintln!("secmem-lint: cannot locate workspace root (looked for crates/ + Cargo.toml)");
        return ExitCode::from(2);
    };
    let policy = Policy::default();
    // Wall-clock here is fine: the lint crate is host tooling, outside
    // the D1 determinism domain (see the "lint crate itself may time"
    // scoping test).
    let started = std::time::Instant::now();
    let report = match engine::scan_workspace(&root, &policy) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("secmem-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed_ms = started.elapsed().as_millis() as u64;
    if args.json {
        print!("{}", diag::render_json(&report.diags));
    } else {
        print!("{}", diag::render_text(&report.diags));
        eprintln!("secmem-lint: scanned {} files in {elapsed_ms} ms", report.files_scanned);
    }
    if let Some(max) = args.max_ms {
        if elapsed_ms > max {
            eprintln!("secmem-lint: scan took {elapsed_ms} ms, over the --max-ms {max} budget");
            return ExitCode::FAILURE;
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
