//! `sweep-client` — command-line client for `secmem-serve`.
//!
//! ```text
//! sweep-client [--server HOST:PORT] <command>
//!
//! commands:
//!   health [--retries N]      wait for /health; print it (queue depth,
//!                             sweeps retained and expired)
//!   submit <spec.json|->      submit a sweep, print {"sweep":id,...}
//!   status <id>               print sweep progress JSON
//!   wait <id>                 poll until the sweep completes
//!   results <id> [--out F]    fetch the final CSV
//!   stream <id>               print NDJSON progress events as they land
//!   stats                     print cache/simulation counters
//!   run <spec.json|-> [--out F]   submit + wait + fetch in one go
//!   drain                     finish queued work, refuse new sweeps
//!   shutdown                  drain, then stop the server
//! ```
//!
//! Exits nonzero on connection failures, HTTP errors, and failed jobs.

use std::io::{Read, Write};
use std::time::Duration;

use secmem_serve::client;
use secmem_serve::http::Response;
use secmem_serve::json;

/// Delay between /health retries and status polls.
const POLL: Duration = Duration::from_millis(100);

fn fail(message: impl core::fmt::Display) -> ! {
    eprintln!("sweep-client: {message}");
    std::process::exit(1)
}

/// Writes raw bytes to stdout; a closed pipe (e.g. `| head`) is a
/// normal way for the consumer to stop, not an error.
fn emit(data: &[u8]) {
    let mut out = std::io::stdout();
    if let Err(e) = out.write_all(data).and_then(|()| out.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        fail(format!("writing stdout: {e}"));
    }
}

fn check(resp: Response, context: &str) -> Response {
    if resp.code != 200 {
        fail(format!("{context}: HTTP {} — {}", resp.code, resp.text().trim()));
    }
    resp
}

/// Reads a spec argument: a path, or `-` for stdin.
fn read_spec(arg: &str) -> String {
    if arg == "-" {
        let mut text = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut text) {
            fail(format!("reading stdin: {e}"));
        }
        text
    } else {
        match std::fs::read_to_string(arg) {
            Ok(text) => text,
            Err(e) => fail(format!("reading {arg}: {e}")),
        }
    }
}

fn sweep_field(body: &str, field: &str) -> Option<u64> {
    json::parse(body).ok()?.get(field)?.as_u64()
}

fn submit(server: &str, spec_text: &str) -> u64 {
    let resp = match client::post(server, "/sweeps", spec_text.as_bytes()) {
        Ok(r) => r,
        Err(e) => fail(format!("submitting sweep: {e}")),
    };
    let resp = check(resp, "submit");
    let body = resp.text();
    println!("{body}");
    match sweep_field(&body, "sweep") {
        Some(id) => id,
        None => fail("submit response had no sweep id"),
    }
}

/// Polls until the sweep reports complete; returns the final status body.
fn wait(server: &str, id: u64) -> String {
    loop {
        let resp = match client::get(server, &format!("/sweeps/{id}")) {
            Ok(r) => r,
            Err(e) => fail(format!("polling sweep {id}: {e}")),
        };
        let resp = check(resp, "status");
        let body = resp.text();
        let complete = json::parse(&body).ok().and_then(|v| v.get("complete")?.as_bool());
        match complete {
            Some(true) => return body,
            Some(false) => std::thread::sleep(POLL),
            None => fail(format!("malformed status response: {body}")),
        }
    }
}

fn fetch_results(server: &str, id: u64, out: Option<&str>) {
    let resp = match client::get(server, &format!("/sweeps/{id}/results")) {
        Ok(r) => r,
        Err(e) => fail(format!("fetching results for sweep {id}: {e}")),
    };
    let resp = check(resp, "results");
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &resp.body) {
                fail(format!("writing {path}: {e}"));
            }
        }
        None => emit(&resp.body),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut server = "127.0.0.1:8642".to_string();
    let mut rest: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    let mut retries: u64 = 50;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--server" => {
                i += 1;
                server = args.get(i).cloned().unwrap_or_else(|| fail("--server needs a value"));
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).cloned().unwrap_or_else(|| fail("--out needs a value")));
            }
            "--retries" => {
                i += 1;
                let v = args.get(i).cloned().unwrap_or_else(|| fail("--retries needs a value"));
                retries = v.parse().unwrap_or_else(|e| fail(format!("--retries: {e}")));
            }
            "--help" | "-h" => {
                println!(
                    "sweep-client [--server HOST:PORT] \
                     health|submit|status|wait|results|stream|stats|run|drain|shutdown"
                );
                return;
            }
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    let command = rest.first().map(String::as_str).unwrap_or("");
    let arg = rest.get(1).map(String::as_str);

    match (command, arg) {
        ("health", _) => {
            for attempt in 0..=retries {
                match client::get(&server, "/health") {
                    Ok(resp) if resp.code == 200 => {
                        println!("{}", resp.text());
                        return;
                    }
                    _ if attempt < retries => std::thread::sleep(POLL),
                    Ok(resp) => fail(format!("health: HTTP {}", resp.code)),
                    Err(e) => fail(format!("health: {e}")),
                }
            }
        }
        ("submit", Some(spec)) => {
            submit(&server, &read_spec(spec));
        }
        ("status", Some(id)) => {
            let id: u64 = id.parse().unwrap_or_else(|e| fail(format!("sweep id: {e}")));
            let resp = client::get(&server, &format!("/sweeps/{id}"))
                .unwrap_or_else(|e| fail(format!("status: {e}")));
            println!("{}", check(resp, "status").text());
        }
        ("wait", Some(id)) => {
            let id: u64 = id.parse().unwrap_or_else(|e| fail(format!("sweep id: {e}")));
            println!("{}", wait(&server, id));
        }
        ("results", Some(id)) => {
            let id: u64 = id.parse().unwrap_or_else(|e| fail(format!("sweep id: {e}")));
            fetch_results(&server, id, out.as_deref());
        }
        ("stream", Some(id)) => {
            let id: u64 = id.parse().unwrap_or_else(|e| fail(format!("sweep id: {e}")));
            let code = client::stream_get(&server, &format!("/sweeps/{id}/stream"), &mut emit)
                .unwrap_or_else(|e| fail(format!("stream: {e}")));
            if code != 200 {
                fail(format!("stream: HTTP {code}"));
            }
        }
        ("stats", _) => {
            let resp = client::get(&server, "/cache/stats").unwrap_or_else(|e| fail(format!("stats: {e}")));
            println!("{}", check(resp, "stats").text());
        }
        ("run", Some(spec)) => {
            let id = submit(&server, &read_spec(spec));
            let status = wait(&server, id);
            println!("{status}");
            fetch_results(&server, id, out.as_deref());
            let failed = sweep_field(&status, "failed").unwrap_or(0);
            if failed > 0 {
                fail(format!("{failed} job(s) failed"));
            }
        }
        ("drain", _) => {
            let resp = client::post(&server, "/drain", b"").unwrap_or_else(|e| fail(format!("drain: {e}")));
            println!("{}", check(resp, "drain").text());
        }
        ("shutdown", _) => {
            let resp =
                client::post(&server, "/shutdown", b"").unwrap_or_else(|e| fail(format!("shutdown: {e}")));
            println!("{}", check(resp, "shutdown").text());
        }
        _ => fail("usage: sweep-client [--server HOST:PORT] <command> (see --help)"),
    }
}
