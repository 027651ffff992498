//! `mdesbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path mdesbench/Cargo.toml -- \
//!     --workload stream_ngram --seed 1 --seconds 12 --trace 0
//! ```
//!
//! One run builds its inputs (the serving schedule from `--seed`), fits and
//! publishes the workload's snapshot, serves it over loopback MDSV under an
//! open-loop schedule, checks every output, and prints every metric by name
//! with its unit. The last stdout line is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`. Exit
//! codes: 0 done, 1 an output was wrong, 2 bad arguments or a failed step,
//! 3 the run is invalid because the load generator fell behind its schedule.

mod check;
mod cpu;
mod fit;
mod ladder;
mod layers;
mod loadgen;
mod stats;
mod trace;
mod workload;

use cpu::{Spent, Stopwatch};
use loadgen::{Deployment, Kind, PhaseCfg, PhaseResult, Plan, Stream};
use stats::{show, show_chunked, Dist};
use std::path::{Path, PathBuf};
use std::time::Duration;
use trace::Tracer;
use workload::{Setup, Workload, ANOMALY_DAY, NORMAL_DAY, P99_LIMIT_MS};

const MIN_TRIAL_S: f64 = 0.75;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be in 1..=600".to_owned());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

/// Metrics in print order: name → (value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

enum RunError {
    Step(String),
    Invalid(String),
}

impl From<String> for RunError {
    fn from(e: String) -> Self {
        RunError::Step(e)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: mdesbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(w) = workload::by_name(&args.workload) else {
        eprintln!(
            "error: unknown workload {:?} (expected one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        w.name,
        args.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| RunError::Step(format!("create {}: {e}", work.display())))
        .and_then(|()| run(&w, &args, &work));
    let _ = std::fs::remove_dir_all(work.join("ckpt"));
    let _ = std::fs::remove_dir_all(work.join("ckpt-traced"));
    // Only an untraced run's directory is empty by now; a traced one keeps
    // its spans.
    let _ = std::fs::remove_dir(&work);
    match result {
        Ok(out) => {
            let correct = out.failures.is_empty();
            for f in &out.failures {
                eprintln!("CHECK FAILED: {f}");
            }
            for (name, value, unit) in &out.metrics {
                println!("{name} = {value} {unit}");
            }
            println!("{}", result_json(correct, &out));
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(RunError::Step(e)) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        Err(RunError::Invalid(e)) => {
            eprintln!("invalid run: {e}");
            std::process::exit(3);
        }
    }
}

fn result_json(correct: bool, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn test_stream(plant: &mdes_synth::plant::PlantData) -> Stream {
    let range = plant.days_range(NORMAL_DAY, ANOMALY_DAY);
    Stream {
        samples: range
            .clone()
            .map(|t| plant.sample(t).into_iter().map(Some).collect())
            .collect(),
        day_len: plant.day_range(NORMAL_DAY).len(),
    }
}

fn median(xs: &[f64]) -> f64 {
    Dist::new(xs).median().map_or(0.0, |p| p.value)
}

/// Median CPU and wall seconds of repeated steps.
fn medians(spent: &[Spent]) -> Spent {
    let cpu: Vec<f64> = spent.iter().map(|s| s.cpu_s).collect();
    let wall: Vec<f64> = spent.iter().map(|s| s.wall_s).collect();
    Spent {
        cpu_s: median(&cpu),
        wall_s: median(&wall),
    }
}

/// Repeats the workload's set-up `w.setup_reps` times and keeps the last
/// deployment; returns it with the median set-up cost.
fn setup(w: &Workload, bytes: &[u8], width: usize) -> Result<(Deployment, Spent), RunError> {
    let mut spent: Vec<Spent> = Vec::with_capacity(w.setup_reps);
    let mut dep = None;
    for _ in 0..w.setup_reps {
        if let Some(d) = dep.take() {
            Deployment::stop(d);
        }
        match w.setup {
            Setup::Serving => {
                let t = Stopwatch::start();
                dep = Some(Deployment::boot(bytes, width, w.sessions)?);
                spent.push(t.spent());
            }
            Setup::Ingest => spent.push(fit::ingest_setup(w)?),
        }
    }
    let dep = match dep {
        Some(d) => d,
        None => Deployment::boot(bytes, width, w.sessions)?,
    };
    Ok((dep, medians(&spent)))
}

struct FixedRate {
    phase: PhaseResult,
    plan: Plan,
}

/// The workload's schedule at `rate` for `secs` on `dep`'s sessions.
fn plan(w: &Workload, dep: &Deployment, stream: &Stream, seed: u64, rate: f64, secs: f64) -> Plan {
    let stride = w.window.sent_stride * w.window.word_stride;
    let warm = dep.warmup as u32 - 1;
    Plan::new(
        w.sessions,
        rate,
        secs,
        warm,
        stride,
        stream.samples.len(),
        seed,
    )
}

fn fixed_rate(
    w: &Workload,
    dep: &mut Deployment,
    stream: &Stream,
    seed: u64,
    secs: f64,
    tracer: &Tracer,
) -> Result<FixedRate, String> {
    let plan = plan(w, dep, stream, seed, w.rate_sps, secs);
    let cfg = PhaseCfg {
        abort_ns: None,
        drain: Duration::from_secs(10),
        keep_frames: tracer.enabled(),
    };
    let phase = loadgen::run_phase(dep, &plan, stream, &cfg, tracer)?;
    Ok(FixedRate { phase, plan })
}

fn cpu_us_per_push(phase: &PhaseResult) -> Result<f64, RunError> {
    let us = phase.cpu_us_per_push().ok_or_else(|| {
        RunError::Step("the fixed-rate phase was too short for one CPU window".to_owned())
    })?;
    println!("cpu_us_per_push = {us:.4} us (median over the phase's CPU windows)");
    Ok(us)
}

fn lag_p99_ms(phase: &PhaseResult) -> f64 {
    let lag = Dist::new(&phase.lag_ms());
    println!("{}", show("loadgen.lag_p99", lag.pct(0.99), "ms"));
    lag.pct(0.99).map_or(0.0, |p| p.value)
}

/// The fixed-rate phase on `dep`. A stall from outside the process can hold
/// the generator back for one phase; when the generator falls behind, the
/// phase runs once more on a fresh deployment, and the run is invalid only
/// if the generator falls behind again.
#[allow(clippy::too_many_arguments)]
fn fixed_rate_checked(
    w: &Workload,
    mut dep: Deployment,
    bytes: &[u8],
    width: usize,
    stream: &Stream,
    seed: u64,
    secs: f64,
    tracer: &Tracer,
) -> Result<FixedRate, RunError> {
    let first = fixed_rate(w, &mut dep, stream, seed, secs, tracer)?;
    dep.stop();
    lag_p99_ms(&first.phase);
    if !first.phase.generator_behind() {
        return Ok(first);
    }
    println!("the generator fell behind; repeating the fixed-rate phase on a fresh deployment");
    let mut dep = Deployment::boot(bytes, width, w.sessions)?;
    let second = fixed_rate(w, &mut dep, stream, seed, secs, tracer)?;
    dep.stop();
    let lag = lag_p99_ms(&second.phase);
    if second.phase.generator_behind() {
        Err(RunError::Invalid(format!(
            "the generator ended two phases behind its schedule (lag p99 {lag:.2} ms): it, \
             not the daemon, set the pace"
        )))
    } else {
        Ok(second)
    }
}

pub(crate) fn median_ms(phase: &PhaseResult, kind: Kind, label: &str) -> Result<f64, RunError> {
    let d = Dist::new(&phase.latencies_ms(kind));
    println!("{}", show(label, d.median(), "ms"));
    d.median()
        .map(|p| p.value)
        .ok_or_else(|| RunError::Step(format!("{label}: no samples")))
}

pub(crate) fn p99_ms(phase: &PhaseResult, kind: Kind, label: &str) -> Result<f64, RunError> {
    let xs = phase.latencies_ms(kind);
    let t = stats::chunked_tail(&xs, 0.99);
    println!("{}", show_chunked(label, t.as_ref(), "ms"));
    t.map(|t| t.value)
        .ok_or_else(|| RunError::Step(format!("{label}: too few samples ({})", xs.len())))
}

struct Trial {
    passed: bool,
    delivered_sps: f64,
}

/// One rung of the ladder on a fresh daemon: passes when every push is
/// answered, the score p99 meets the limit, latency does not climb through
/// the trial, and the generator kept its schedule.
fn trial(
    w: &Workload,
    bytes: &[u8],
    width: usize,
    stream: &Stream,
    seed: u64,
    rate: f64,
    secs: f64,
) -> Result<Trial, RunError> {
    let mut dep = Deployment::boot(bytes, width, w.sessions)?;
    let plan = plan(w, &dep, stream, seed, rate, secs);
    let cfg = PhaseCfg {
        abort_ns: Some((3.0 * P99_LIMIT_MS * 1e6) as u64),
        drain: Duration::from_millis(500),
        keep_frames: false,
    };
    let phase = loadgen::run_phase(&mut dep, &plan, stream, &cfg, &Tracer::new(false))?;
    dep.stop();
    let scores = Dist::new(&phase.latencies_ms(Kind::Score));
    let p99 = scores.pct(0.99).map_or(f64::INFINITY, |p| p.value);
    let lag = Dist::new(&phase.lag_ms())
        .pct(0.99)
        .map_or(0.0, |p| p.value);
    let mut misses = Vec::new();
    if phase.aborted {
        misses.push("aborted");
    }
    if phase.failed() > 0 {
        misses.push("failed pushes");
    }
    if p99 > P99_LIMIT_MS {
        misses.push("p99 over limit");
    }
    if phase.backlog_grew(secs) {
        misses.push("backlog grew");
    }
    if phase.generator_behind() {
        misses.push("generator behind");
    }
    println!(
        "  rung {rate:>9.1} sps: {} (score p99 {p99:.2} ms over {} scores, lag p99 {lag:.2} ms, \
         failed {}/{})",
        if misses.is_empty() {
            "meets".to_owned()
        } else {
            format!("misses: {}", misses.join(", "))
        },
        scores.len(),
        phase.failed(),
        phase.attempted()
    );
    Ok(Trial {
        passed: misses.is_empty(),
        delivered_sps: phase.delivered_sps(),
    })
}

/// Bisects the ladder for the highest rung that meets the limit. A rung
/// that misses is tried once more before it counts as missed: a stall
/// from outside the process can sink one trial, but not two in a row.
pub(crate) fn max_rate(
    w: &Workload,
    bytes: &[u8],
    width: usize,
    stream: &Stream,
    seed: u64,
    budget_s: f64,
) -> Result<f64, RunError> {
    // Sized for the usual number of trials (each rung once, about half of
    // them twice), so a run stays close to `--seconds`; never shorter than
    // `MIN_TRIAL_S`, so a trial still spans dozens of ticks.
    let secs = (budget_s / (1.5 * w.ladder.max_trials() as f64)).max(MIN_TRIAL_S);
    let mut best: Option<f64> = None;
    let mut err = None;
    let found = ladder::bisect(w.ladder.rungs(), |rung| {
        for _ in 0..2 {
            if err.is_some() {
                return false;
            }
            match trial(w, bytes, width, stream, seed, w.ladder.rate(rung), secs) {
                Ok(t) if t.passed => {
                    best = Some(t.delivered_sps);
                    return true;
                }
                Ok(_) => {}
                Err(e) => err = Some(e),
            }
        }
        false
    });
    if let Some(e) = err {
        return Err(e);
    }
    match (found, best) {
        (Some(rung), Some(sps)) => {
            println!(
                "max_rate: rung {rung} ({:.1} sps offered, {sps:.1} sps delivered)",
                w.ladder.rate(rung)
            );
            Ok(sps)
        }
        _ => Err(RunError::Step(format!(
            "not even the lowest rung ({:.1} sps) met the {} ms limit",
            w.ladder.rate(0),
            P99_LIMIT_MS
        ))),
    }
}

fn run(w: &Workload, args: &Args, work: &Path) -> Result<Outcome, RunError> {
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    let plant = w.generate();
    let width = plant.traces.len();
    let stream = test_stream(&plant);
    let ckpt = work.join("ckpt");
    let mut fits: Vec<Spent> = Vec::with_capacity(w.fit_reps);
    let mut published = None;
    for _ in 0..w.fit_reps {
        // One fit's output at a time, so `peak_rss_mib` is one fit's peak.
        drop(published.take());
        let _ = std::fs::remove_dir_all(&ckpt);
        let p = fit::fit_and_publish(w, &plant, &ckpt, &Tracer::new(false))?;
        fits.push(p.fit);
        published = Some(p);
    }
    let published = published.expect("at least one fit runs");
    let fit = medians(&fits);
    let fit_cpus: Vec<String> = fits.iter().map(|f| format!("{:.4}", f.cpu_s)).collect();
    println!(
        "fit: {} sensors, {} pairs → {} survivors → {} trained + {} quarantined; \
         {} valid models; snapshot {} bytes; median of {} fits: {:.4} s CPU, {:.4} s wall \
         (CPU s per fit: {})",
        published.sensors,
        published.total_pairs,
        published.survivors,
        published.trained,
        published.quarantined,
        published.snapshot.valid_models().len(),
        published.bytes.len(),
        fits.len(),
        fit.cpu_s,
        fit.wall_s,
        fit_cpus.join(" ")
    );
    let mut failures = fit::check(&published);
    let (dep, setup) = setup(w, &published.bytes, width)?;
    println!(
        "setup: median {:.5} s CPU, {:.5} s wall",
        setup.cpu_s, setup.wall_s
    );
    if args.trace {
        return layers::traced(
            w, args, work, &plant, &stream, &published, fit, dep, failures,
        );
    }

    let fixed = fixed_rate_checked(
        w,
        dep,
        &published.bytes,
        width,
        &stream,
        args.seed,
        args.seconds,
        &Tracer::new(false),
    )?;
    let push_cpu_us = cpu_us_per_push(&fixed.phase)?;
    // Wall-clock latencies: printed for reading, bounded nowhere (they move
    // with the host; the traced run reports them in its ledger).
    let _ = median_ms(&fixed.phase, Kind::Score, "score_p50")?;
    let _ = p99_ms(&fixed.phase, Kind::Score, "score_p99");
    let _ = p99_ms(&fixed.phase, Kind::Ack, "ack_p99");
    let (attempted, failed) = (fixed.phase.attempted(), fixed.phase.failed());
    println!(
        "failed_frac = {} ({failed} of {attempted} pushes)",
        failed as f64 / attempted.max(1) as f64
    );
    let replay = check::replay(
        &published.snapshot,
        width,
        &fixed.phase,
        &fixed.plan,
        &stream,
    )?;
    println!(
        "replay: {} scores, {} mismatches; mean score normal day {:.4}, anomaly day {:.4}",
        replay.scores, replay.mismatches, replay.normal_mean, replay.anomaly_mean
    );
    failures.extend(check::verdicts(&replay));

    let metrics: Metrics = vec![
        ("setup_s", setup.cpu_s, "s"),
        ("fit_cpu_s", fit.cpu_s, "s"),
        ("cpu_us_per_push", push_cpu_us, "us"),
        (
            "snapshot_mib",
            published.bytes.len() as f64 / (1 << 20) as f64,
            "MiB",
        ),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        failures,
    })
}
