//! `mdes-serve` — network serving daemon for a frozen model snapshot.
//!
//! ```text
//! mdes-serve --snapshot model.mdsn [--addr 127.0.0.1:7400]
//!            [--admin-addr 127.0.0.1:7401] [--threads N]
//!            [--idle-ttl-secs 300] [--queue-capacity 64]
//!            [--read-timeout-secs 10] [--obs FILE.jsonl]
//! ```
//!
//! The snapshot is an MDSN file, as `mdes fit --out` writes it. Serves the
//! framed binary ingest protocol on `--addr` and the text admin
//! plane on `--admin-addr` (see `DESIGN.md` §12). Runs until an admin
//! `shutdown` command arrives. New snapshots can be hot-swapped at runtime
//! through the admin `publish` command; a snapshot that fails validation is
//! rejected and the running model stays live.

use mdes::core::{read_snapshot, ServingEngine};
use mdes::net::{start, ServeConfig};
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Prints one status line, best-effort: a closed or failing stdout never
/// stops the daemon.
macro_rules! status {
    ($($arg:tt)*) => {
        let _ = writeln!(std::io::stdout().lock(), $($arg)*);
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return Ok(());
    }
    let Some(path) = opt(args, "snapshot") else {
        print_usage();
        return Err("--snapshot is required".into());
    };
    let snapshot = read_snapshot(Path::new(&path))?;
    let width = snapshot.min_width();
    let threads: usize = parse_num(args, "threads", 0)?;
    let mut engine = ServingEngine::new(snapshot);
    if threads > 0 {
        engine = engine.with_threads(threads);
    }

    if let Some(path) = opt(args, "obs") {
        let recorder = mdes::obs::Recorder::with_jsonl_path(Path::new(&path))
            .map_err(|e| format!("cannot open obs sink `{path}`: {e}"))?;
        mdes::obs::install(Arc::new(recorder));
    } else {
        mdes::obs::install(Arc::new(mdes::obs::Recorder::new()));
    }

    let cfg = ServeConfig {
        addr: opt(args, "addr").unwrap_or_else(|| "127.0.0.1:7400".to_owned()),
        admin_addr: Some(opt(args, "admin-addr").unwrap_or_else(|| "127.0.0.1:7401".to_owned())),
        queue_capacity: parse_num(args, "queue-capacity", 64)?,
        idle_ttl: Duration::from_secs(parse_num(args, "idle-ttl-secs", 300)?),
        read_timeout: Duration::from_secs(parse_num(args, "read-timeout-secs", 10)?),
        ..ServeConfig::default()
    };
    let server = start(engine, cfg)?;
    status!(
        "mdes-serve: ingest on {}, admin on {}, model width {width}",
        server.addr(),
        server
            .admin_addr()
            .map_or_else(|| "-".to_owned(), |a| a.to_string()),
    );
    status!("mdes-serve: send `shutdown` to the admin port to stop");
    server.wait();
    server.stop();
    status!("mdes-serve: stopped");
    Ok(())
}

fn print_usage() {
    eprintln!(
        "mdes-serve — network serving daemon (DSN 2020 reproduction)\n\
         \n\
         USAGE: mdes-serve --snapshot FILE.mdsn\n\
                [--addr HOST:PORT] [--admin-addr HOST:PORT] [--threads N]\n\
                [--idle-ttl-secs S] [--queue-capacity N]\n\
                [--read-timeout-secs S] [--obs FILE.jsonl]"
    );
}

/// Returns the value of `--key=value` or `--key value`.
fn opt(args: &[String], key: &str) -> Option<String> {
    let eq = format!("--{key}=");
    let flag = format!("--{key}");
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_owned());
        }
        if a == &flag {
            return args.get(i + 1).cloned();
        }
    }
    None
}

fn parse_num<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match opt(args, key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad numeric value for --{key}: `{v}`")),
    }
}
