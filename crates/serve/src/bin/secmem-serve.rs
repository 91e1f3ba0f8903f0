//! `secmem-serve` — the persistent sweep server.
//!
//! ```text
//! secmem-serve [--addr HOST:PORT] [--sim-workers N] [--http-threads N]
//!              [--cache-capacity N]
//! ```
//!
//! Prints one `listening on <addr>` line once the socket is bound (CI
//! and scripts key on it), then serves until `POST /shutdown`.

use secmem_serve::{ServeError, Server, ServerConfig};

/// A rejected command-line invocation.
#[derive(Debug)]
enum ArgError {
    /// Flag given without its value.
    MissingValue(&'static str),
    /// Flag value failed to parse as a number.
    BadNumber(&'static str, std::num::ParseIntError),
    /// Flag not recognised.
    UnknownFlag(String),
}

impl core::fmt::Display for ArgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::MissingValue(flag) => write!(f, "{flag} needs a value"),
            Self::BadNumber(flag, e) => write!(f, "{flag}: {e}"),
            Self::UnknownFlag(flag) => write!(f, "unknown flag: {flag}"),
        }
    }
}

fn parse_args() -> Result<ServerConfig, ArgError> {
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &'static str| args.next().ok_or(ArgError::MissingValue(name));
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--sim-workers" => {
                cfg.sim_workers =
                    value("--sim-workers")?.parse().map_err(|e| ArgError::BadNumber("--sim-workers", e))?;
            }
            "--http-threads" => {
                cfg.http_threads =
                    value("--http-threads")?.parse().map_err(|e| ArgError::BadNumber("--http-threads", e))?;
            }
            "--cache-capacity" => {
                cfg.cache_capacity = value("--cache-capacity")?
                    .parse()
                    .map_err(|e| ArgError::BadNumber("--cache-capacity", e))?;
            }
            "--help" | "-h" => {
                println!(
                    "secmem-serve [--addr HOST:PORT] [--sim-workers N] [--http-threads N] \
                     [--cache-capacity N]"
                );
                std::process::exit(0);
            }
            other => return Err(ArgError::UnknownFlag(other.to_string())),
        }
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("secmem-serve: {e}");
            std::process::exit(2);
        }
    };
    let server = match Server::bind(&cfg) {
        Ok(s) => s,
        Err(ServeError::Io(e)) => {
            eprintln!("secmem-serve: cannot bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    if let Err(e) = server.run() {
        eprintln!("secmem-serve: {e}");
        std::process::exit(1);
    }
}
