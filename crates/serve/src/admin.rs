//! Line-based text admin/query plane.
//!
//! One command per line; responses are zero or more data lines prefixed
//! `"| "` followed by exactly one status line starting `ok` or `err`.
//! The commands that read more than a line are `publish <nbytes>` and
//! `canary start <nbytes> …`, each followed by exactly `nbytes` of raw
//! MDSN snapshot bytes (the same format `write_snapshot` puts on disk).
//!
//! ```text
//! sessions                              list open sessions
//! stats                                 one-line daemon stats
//! obs                                   dump the installed mdes-obs recorder report
//! publish <nbytes>                      upload + validate + hot-swap a snapshot
//! canary start <nbytes> [frac] [budget] upload a candidate and canary it
//! canary status                         canary progress + last decision
//! canary cancel                         discard the active candidate
//! evict <id>                            force-evict one session
//! ping                                  liveness probe
//! help                                  this list
//! quit                                  close this admin connection
//! shutdown                              stop the daemon
//! ```

use crate::server::Shared;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TICK: Duration = Duration::from_millis(50);

pub(crate) fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut conn_threads = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let s = Arc::clone(shared);
        conn_threads.push(std::thread::spawn(move || serve_conn(&s, stream)));
        conn_threads.retain(|t: &std::thread::JoinHandle<()>| !t.is_finished());
    }
    for t in conn_threads {
        let _ = t.join();
    }
}

/// How one blocking admin read ended.
enum LineOutcome {
    Line(String),
    Eof,
    /// A started line (or byte run) stalled past the deadline — slow-loris.
    TimedOut,
    Shutdown,
}

fn serve_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(TICK));
    let _ = stream.set_nodelay(true);
    loop {
        let line = match read_line(shared, &mut stream) {
            LineOutcome::Line(l) => l,
            LineOutcome::Eof | LineOutcome::Shutdown => break,
            LineOutcome::TimedOut => {
                mdes_obs::counter("serve.net.timeouts", 1);
                let _ = stream.write_all(b"err line read timed out\n");
                break;
            }
        };
        let line = line.trim().to_owned();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(2, ' ');
        let cmd = parts.next().unwrap_or_default();
        let arg = parts.next().unwrap_or_default().trim();
        let keep_going = match cmd {
            "ping" => respond(&mut stream, &[], "ok pong"),
            "help" => {
                let lines = [
                    "sessions                              list open sessions",
                    "stats                                 one-line daemon stats",
                    "obs                                   dump the mdes-obs recorder report",
                    "publish <nbytes>                      upload + validate + hot-swap a snapshot",
                    "canary start <nbytes> [frac] [budget] upload a candidate and canary it",
                    "canary status                         canary progress + last decision",
                    "canary cancel                         discard the active candidate",
                    "evict <id>                            force-evict one session",
                    "ping                                  liveness probe",
                    "quit                                  close this admin connection",
                    "shutdown                              stop the daemon",
                ];
                respond(&mut stream, &lines.map(String::from), "ok")
            }
            "sessions" => cmd_sessions(shared, &mut stream),
            "stats" => cmd_stats(shared, &mut stream),
            "obs" => cmd_obs(&mut stream),
            "evict" => cmd_evict(shared, &mut stream, arg),
            "publish" => cmd_publish(shared, &mut stream, arg),
            "canary" => cmd_canary(shared, &mut stream, arg),
            "quit" => {
                let _ = respond(&mut stream, &[], "ok bye");
                false
            }
            "shutdown" => {
                let _ = respond(&mut stream, &[], "ok shutting down");
                shared.request_shutdown();
                false
            }
            other => respond(&mut stream, &[], &format!("err unknown command {other:?}")),
        };
        if !keep_going {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Writes data lines + the status line; `false` when the peer is gone.
fn respond(stream: &mut TcpStream, data: &[String], status: &str) -> bool {
    let mut out = String::new();
    for line in data {
        out.push_str("| ");
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(status);
    out.push('\n');
    stream.write_all(out.as_bytes()).is_ok()
}

fn cmd_sessions(shared: &Arc<Shared>, stream: &mut TcpStream) -> bool {
    let mut rows: Vec<(u64, String)> = {
        let reg = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
        reg.values()
            .map(|e| {
                (
                    e.id,
                    format!(
                        "id={} width={} seen={} queued={}",
                        e.id,
                        e.width,
                        e.seen(),
                        e.queued()
                    ),
                )
            })
            .collect()
    };
    rows.sort_by_key(|(id, _)| *id);
    let n = rows.len();
    let lines: Vec<String> = rows.into_iter().map(|(_, l)| l).collect();
    respond(stream, &lines, &format!("ok {n} sessions"))
}

fn cmd_stats(shared: &Arc<Shared>, stream: &mut TcpStream) -> bool {
    let snapshot = shared.engine.store().current();
    // A mixed-encoding snapshot cannot be published, but report it honestly
    // rather than crash the admin plane if one ever appears.
    let format = snapshot.quant_mode().map_or("mixed", |m| m.name());
    let canary = shared.engine.store().canary_status();
    let line = format!(
        "snapshot_version={} snapshot_format={} snapshot_bytes={} memo_bytes={} \
         pair_models={} sessions={} engine_sessions={} conns={} canary_active={} \
         canary_samples={} canary_budget={} canary_fraction={} canary_last={}",
        shared.engine.store().version(),
        format,
        snapshot.approx_bytes(),
        snapshot.memo_bytes(),
        snapshot.models().len(),
        shared
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len(),
        shared.engine.session_count(),
        shared.live_conns.load(Ordering::Relaxed),
        canary.active,
        canary.samples,
        canary.budget,
        canary.fraction,
        decision_word(canary.last_decision),
    );
    respond(stream, &[line], "ok")
}

fn cmd_obs(stream: &mut TcpStream) -> bool {
    match mdes_obs::installed() {
        None => respond(stream, &[], "err no recorder installed"),
        Some(recorder) => {
            let report = recorder.report();
            let lines: Vec<String> = report.lines().map(str::to_owned).collect();
            respond(stream, &lines, "ok")
        }
    }
}

fn cmd_evict(shared: &Arc<Shared>, stream: &mut TcpStream, arg: &str) -> bool {
    match arg.parse::<u64>() {
        Err(_) => respond(
            stream,
            &[],
            &format!("err evict needs a session id, got {arg:?}"),
        ),
        Ok(id) if shared.evict(id, "admin") => respond(stream, &[], &format!("ok evicted {id}")),
        Ok(id) => respond(stream, &[], &format!("err unknown session {id}")),
    }
}

fn cmd_publish(shared: &Arc<Shared>, stream: &mut TcpStream, arg: &str) -> bool {
    let nbytes = match arg.parse::<usize>() {
        Ok(n) => n,
        Err(_) => {
            return respond(
                stream,
                &[],
                &format!("err publish needs a byte count, got {arg:?}"),
            )
        }
    };
    if nbytes > shared.cfg.max_snapshot_bytes {
        return respond(
            stream,
            &[],
            &format!(
                "err snapshot of {nbytes} bytes exceeds cap of {}",
                shared.cfg.max_snapshot_bytes
            ),
        );
    }
    let mut bytes = vec![0u8; nbytes];
    if !read_exact_deadline(shared, stream, &mut bytes) {
        mdes_obs::counter("serve.net.timeouts", 1);
        let _ = stream.write_all(b"err snapshot upload timed out\n");
        return false;
    }
    match mdes_core::snapshot_from_bytes(&bytes)
        .and_then(|snapshot| shared.engine.store().publish(snapshot))
    {
        Ok(version) => {
            mdes_obs::counter("serve.net.publish_ok", 1);
            respond(stream, &[], &format!("ok published version={version}"))
        }
        Err(e) => {
            // The rejected snapshot never went live: `publish` validates
            // before swapping and the store version is unchanged.
            mdes_obs::counter("serve.net.publish_rejected", 1);
            respond(stream, &[], &format!("err publish rejected: {e}"))
        }
    }
}

fn decision_word(decision: Option<mdes_core::CanaryDecision>) -> &'static str {
    match decision {
        None => "none",
        Some(mdes_core::CanaryDecision::Promoted { .. }) => "promoted",
        Some(mdes_core::CanaryDecision::RolledBack { .. }) => "rolled_back",
    }
}

fn cmd_canary(shared: &Arc<Shared>, stream: &mut TcpStream, arg: &str) -> bool {
    let mut parts = arg.splitn(2, ' ');
    let sub = parts.next().unwrap_or_default();
    let rest = parts.next().unwrap_or_default().trim();
    match sub {
        "status" => {
            let s = shared.engine.store().canary_status();
            let mut lines = vec![format!(
                "active={} samples={} budget={} fraction={}",
                s.active, s.samples, s.budget, s.fraction
            )];
            match s.last_decision {
                None => lines.push("last=none".to_owned()),
                Some(
                    mdes_core::CanaryDecision::Promoted {
                        samples,
                        mean_delta,
                        p95_delta,
                        ..
                    }
                    | mdes_core::CanaryDecision::RolledBack {
                        samples,
                        mean_delta,
                        p95_delta,
                    },
                ) => lines.push(format!(
                    "last={} samples={samples} mean_delta={mean_delta:.4} \
                     p95_delta={p95_delta:.4}",
                    decision_word(s.last_decision),
                )),
            }
            respond(stream, &lines, "ok")
        }
        "cancel" => {
            if shared.engine.store().cancel_canary() {
                respond(stream, &[], "ok canary cancelled")
            } else {
                respond(stream, &[], "err no canary active")
            }
        }
        "start" => cmd_canary_start(shared, stream, rest),
        other => respond(
            stream,
            &[],
            &format!("err canary needs start|status|cancel, got {other:?}"),
        ),
    }
}

fn cmd_canary_start(shared: &Arc<Shared>, stream: &mut TcpStream, args: &str) -> bool {
    let mut words = args.split_whitespace();
    let nbytes = match words.next().map(str::parse::<usize>) {
        Some(Ok(n)) => n,
        _ => {
            return respond(
                stream,
                &[],
                &format!("err canary start needs a byte count, got {args:?}"),
            )
        }
    };
    let mut cfg = mdes_core::CanaryConfig::default();
    if let Some(word) = words.next() {
        match word.parse::<f64>() {
            Ok(f) => cfg.fraction = f,
            Err(_) => {
                return respond(stream, &[], &format!("err bad canary fraction {word:?}"));
            }
        }
    }
    if let Some(word) = words.next() {
        match word.parse::<usize>() {
            Ok(b) => cfg.sample_budget = b,
            Err(_) => {
                return respond(stream, &[], &format!("err bad canary budget {word:?}"));
            }
        }
    }
    if nbytes > shared.cfg.max_snapshot_bytes {
        return respond(
            stream,
            &[],
            &format!(
                "err snapshot of {nbytes} bytes exceeds cap of {}",
                shared.cfg.max_snapshot_bytes
            ),
        );
    }
    let mut bytes = vec![0u8; nbytes];
    if !read_exact_deadline(shared, stream, &mut bytes) {
        mdes_obs::counter("serve.net.timeouts", 1);
        let _ = stream.write_all(b"err snapshot upload timed out\n");
        return false;
    }
    match mdes_core::snapshot_from_bytes(&bytes)
        .and_then(|snapshot| shared.engine.store().start_canary(snapshot, cfg))
    {
        Ok(()) => {
            mdes_obs::counter("serve.net.canary_started", 1);
            respond(
                stream,
                &[],
                &format!(
                    "ok canary started fraction={} budget={}",
                    cfg.fraction, cfg.sample_budget
                ),
            )
        }
        Err(e) => {
            // The refused candidate never shadowed anything: `start_canary`
            // validates before arming, and serving output is untouched.
            mdes_obs::counter("serve.net.canary_rejected", 1);
            respond(stream, &[], &format!("err canary rejected: {e}"))
        }
    }
}

/// Fills `buf` from the socket, allowing up to `read_timeout` with **no
/// progress** (the deadline resets whenever bytes arrive, so a large
/// snapshot on a slow link is fine — only a stalled one dies).
fn read_exact_deadline(shared: &Arc<Shared>, stream: &mut TcpStream, buf: &mut [u8]) -> bool {
    let mut filled = 0;
    let mut last_progress = Instant::now();
    while filled < buf.len() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => {
                filled += n;
                last_progress = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if last_progress.elapsed() >= shared.cfg.read_timeout {
                    return false;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Reads one `\n`-terminated line under the same no-progress deadline.
fn read_line(shared: &Arc<Shared>, stream: &mut TcpStream) -> LineOutcome {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    let mut started_at: Option<Instant> = None;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return LineOutcome::Shutdown;
        }
        match stream.read(&mut byte) {
            Ok(0) => {
                return if line.is_empty() {
                    LineOutcome::Eof
                } else {
                    LineOutcome::TimedOut
                }
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    return LineOutcome::Line(String::from_utf8_lossy(&line).into_owned());
                }
                line.push(byte[0]);
                started_at.get_or_insert_with(Instant::now);
                if line.len() > 4096 {
                    return LineOutcome::TimedOut;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if started_at.is_some_and(|t| t.elapsed() >= shared.cfg.read_timeout) {
                    return LineOutcome::TimedOut;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return LineOutcome::Eof,
        }
    }
}
