//! `mdes` — command-line interface to the analytics framework.
//!
//! Workflows:
//!
//! ```text
//! mdes simulate-plant --out traces.json --sensors 16 --days 14
//! mdes fit    --traces traces.json --train 0..4032 --dev 4032..6048 --out model.mdsn
//! mdes detect --model model.mdsn --traces traces.json --range 6048..8064 --threshold 0.5
//! mdes discover --model model.mdsn --range 80..90 --dot graph.dot
//! mdes diagnose --model model.mdsn --traces traces.json --range 6048..8064
//! mdes-serve --snapshot model.mdsn
//! ```
//!
//! Traces are JSON arrays of `{ "name": ..., "events": [...] }`; a fitted
//! model is an MDSN snapshot file
//! ([`write_snapshot`](mdes::core::write_snapshot)), the same file
//! `mdes-serve` serves.

use mdes::core::{read_snapshot, write_snapshot, Mdes, MdesConfig, TranslatorConfig};
use mdes::graph::{to_dot, walktrap, DotOptions, ScoreRange, WalktrapConfig};
use mdes::lang::{RawTrace, WindowConfig};
use mdes::synth::hdd::{self, HddConfig};
use mdes::synth::plant::{self, PlantConfig};
use std::collections::HashSet;
use std::fmt;
use std::io::{self, Write};
use std::ops::Range;
use std::path::Path;
use std::process::ExitCode;

/// `println!` through [`print_line`], returning its error from the command.
macro_rules! say {
    ($($arg:tt)*) => {
        print_line(format_args!($($arg)*))?
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

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Writes one line to stdout. Once stdout's reader has gone away
/// (`mdes detect ... | head -1`) the rest of the output is dropped and the
/// command still finishes and exits 0; any other write failure is an error.
fn print_line(line: fmt::Arguments) -> io::Result<()> {
    match writeln!(io::stdout().lock(), "{line}") {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        written => written,
    }
}

fn run(args: &[String]) -> CliResult {
    let Some(command) = args.first() else {
        print_usage();
        return Err("missing command".into());
    };
    let rest = &args[1..];
    match command.as_str() {
        "simulate-plant" => simulate_plant(rest),
        "simulate-hdd" => simulate_hdd(rest),
        "fit" => fit(rest),
        "detect" => detect(rest),
        "discover" => discover(rest),
        "diagnose" => diagnose(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => {
            print_usage();
            Err(format!("unknown command `{other}`").into())
        }
    }
}

fn print_usage() {
    eprintln!(
        "mdes — mining multivariate discrete event sequences (DSN 2020)\n\
         \n\
         USAGE: mdes <command> [--key=value ...]\n\
         \n\
         commands:\n\
           simulate-plant  --out FILE [--sensors N] [--days D] [--minutes M] [--seed S]\n\
           simulate-hdd    --out FILE [--drives N] [--days D] [--seed S]\n\
           fit             --traces FILE --train A..B --dev A..B --out FILE.mdsn\n\
                           [--word-len N] [--sent-len N] [--translator ngram|nmt]\n\
                           [--valid LO..HI]\n\
           detect          --model FILE.mdsn --traces FILE --range A..B [--threshold T]\n\
           discover        --model FILE.mdsn [--range LO..HI] [--dot FILE]\n\
           diagnose        --model FILE.mdsn --traces FILE --range A..B [--window K]"
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

fn require(args: &[String], key: &str) -> Result<String, String> {
    opt(args, key).ok_or_else(|| format!("missing required option --{key}"))
}

fn parse_range(s: &str) -> Result<Range<usize>, String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("range `{s}` must be A..B"))?;
    let a: usize = a
        .trim()
        .parse()
        .map_err(|_| format!("bad range start `{a}`"))?;
    let b: usize = b
        .trim()
        .parse()
        .map_err(|_| format!("bad range end `{b}`"))?;
    if a >= b {
        return Err(format!("empty range `{s}`"));
    }
    Ok(a..b)
}

fn parse_score_range(s: &str) -> Result<ScoreRange, String> {
    let r = parse_range(s)?;
    let (lo, hi) = (r.start as f64, r.end as f64);
    if hi > 100.0 {
        return Err(format!("score range `{s}` exceeds 100"));
    }
    Ok(if (hi - 100.0).abs() < f64::EPSILON {
        ScoreRange::closed(lo, hi)
    } else {
        ScoreRange::half_open(lo, hi)
    })
}

fn parse_num<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match opt(args, key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad numeric value for --{key}: `{v}`")),
    }
}

fn load_traces(path: &str) -> Result<Vec<RawTrace>, Box<dyn std::error::Error>> {
    let data = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read traces file `{path}`: {e}"))?;
    let traces: Vec<RawTrace> = serde_json::from_str(&data)
        .map_err(|e| format!("cannot parse traces file `{path}`: {e}"))?;
    if traces.is_empty() {
        return Err("traces file contains no sensors".into());
    }
    Ok(traces)
}

fn simulate_plant(args: &[String]) -> CliResult {
    let out = require(args, "out")?;
    let cfg = PlantConfig {
        n_sensors: parse_num(args, "sensors", 16)?,
        days: parse_num(args, "days", 14)?,
        minutes_per_day: parse_num(args, "minutes", 288)?,
        seed: parse_num(args, "seed", 2017u64)?,
        ..PlantConfig::default()
    };
    let data = plant::generate(&cfg);
    std::fs::write(&out, serde_json::to_string(&data.traces)?)?;
    say!(
        "wrote {} sensors x {} samples to {out} (anomaly days: {:?})",
        data.traces.len(),
        cfg.samples(),
        cfg.anomaly_days
    );
    Ok(())
}

fn simulate_hdd(args: &[String]) -> CliResult {
    let out = require(args, "out")?;
    let cfg = HddConfig {
        n_drives: parse_num(args, "drives", 24)?,
        days: parse_num(args, "days", 200)?,
        seed: parse_num(args, "seed", 7u64)?,
        ..HddConfig::default()
    };
    let fleet = hdd::generate(&cfg);
    std::fs::write(&out, serde_json::to_string(&fleet)?)?;
    let failed = fleet.drives.iter().filter(|d| d.failed).count();
    say!(
        "wrote {} drives ({failed} failing) to {out}",
        fleet.drives.len()
    );
    Ok(())
}

fn fit(args: &[String]) -> CliResult {
    let traces = load_traces(&require(args, "traces")?)?;
    let train = parse_range(&require(args, "train")?)?;
    let dev = parse_range(&require(args, "dev")?)?;
    let out = require(args, "out")?;
    let mut cfg = MdesConfig {
        window: WindowConfig {
            word_len: parse_num(args, "word-len", 8)?,
            word_stride: 1,
            sent_len: parse_num(args, "sent-len", 10)?,
            sent_stride: parse_num(args, "sent-len", 10)?,
        },
        ..MdesConfig::default()
    };
    cfg.build.translator = match opt(args, "translator").as_deref() {
        Some("nmt") => TranslatorConfig::neural(),
        Some("ngram") | None => TranslatorConfig::fast(),
        Some(other) => return Err(format!("unknown translator `{other}`").into()),
    };
    if let Some(v) = opt(args, "valid") {
        cfg.detection.valid_range = parse_score_range(&v)?;
    }
    let model = Mdes::fit(&traces, train, dev, cfg)?;
    write_snapshot(Path::new(&out), model.snapshot())?;
    say!(
        "fitted {} sensors, {} directional models; wrote {out}",
        model.language().sensor_count(),
        model.snapshot().models().len()
    );
    Ok(())
}

fn detect(args: &[String]) -> CliResult {
    let model = read_snapshot(Path::new(&require(args, "model")?))?;
    let traces = load_traces(&require(args, "traces")?)?;
    let range = parse_range(&require(args, "range")?)?;
    let threshold: f64 = parse_num(args, "threshold", 0.5)?;
    let result = model.detect_range(&traces, range.clone())?;
    say!("window | start | a_t | broken");
    for (t, (&score, &start)) in result.scores.iter().zip(&result.starts).enumerate() {
        let mark = if score >= threshold {
            "  <-- anomaly"
        } else {
            ""
        };
        say!(
            "{t:6} | {:5} | {score:.3} | {}{mark}",
            range.start + start,
            result.alerts[t].len()
        );
    }
    let hits = result.detections(threshold);
    say!(
        "\n{} of {} windows over threshold {threshold} ({} valid models)",
        hits.len(),
        result.scores.len(),
        result.valid_models
    );
    Ok(())
}

fn discover(args: &[String]) -> CliResult {
    let model = read_snapshot(Path::new(&require(args, "model")?))?;
    let range = match opt(args, "range") {
        Some(v) => parse_score_range(&v)?,
        None => ScoreRange::best_detection(),
    };
    let sub = model.global_subgraph(&range);
    let thr = sub.scaled_popular_threshold();
    let popular = sub.popular(thr);
    say!(
        "global subgraph {range}: {} sensors, {} relationships",
        sub.active_nodes().len(),
        sub.edge_count()
    );
    say!("popular sensors (in-degree >= {thr}):");
    for &p in &popular {
        say!("  {} (in-degree {})", sub.name(p), sub.in_degree(p));
    }
    let local = sub.without_nodes(&popular);
    let comms = walktrap(&local, &WalktrapConfig::default());
    say!("communities (modularity {:.2}):", comms.modularity);
    for (i, group) in comms.groups.iter().enumerate() {
        let names: Vec<&str> = group.iter().map(|&s| local.name(s)).collect();
        say!("  {i}: {names:?}");
    }
    if let Some(path) = opt(args, "dot") {
        let dot = to_dot(
            &sub,
            &DotOptions {
                title: format!("global subgraph {range}"),
                highlight_nodes: popular.into_iter().collect::<HashSet<_>>(),
                ..DotOptions::default()
            },
        );
        std::fs::write(&path, dot)?;
        say!("wrote {path}");
    }
    Ok(())
}

fn diagnose(args: &[String]) -> CliResult {
    let model = read_snapshot(Path::new(&require(args, "model")?))?;
    let traces = load_traces(&require(args, "traces")?)?;
    let range = parse_range(&require(args, "range")?)?;
    let result = model.detect_range(&traces, range)?;
    let window = match opt(args, "window") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("bad --window `{v}`"))?,
        None => (0..result.scores.len())
            .max_by(|&a, &b| result.scores[a].total_cmp(&result.scores[b]))
            .ok_or("no detection windows")?,
    };
    if window >= result.scores.len() {
        return Err(format!("window {window} out of range 0..{}", result.scores.len()).into());
    }
    let diag = model.diagnose_alerts(&result.alerts[window]);
    say!(
        "window {window}: a_t = {:.3}, {} broken pairs, {:.0}% of local subgraph broken{}",
        result.scores[window],
        result.alerts[window].len(),
        100.0 * diag.broken_fraction,
        if diag.is_severe(0.8) { " (SEVERE)" } else { "" }
    );
    for (i, cluster) in diag.faulty_clusters.iter().enumerate() {
        let names: Vec<&str> = cluster.iter().map(|&s| model.graph().name(s)).collect();
        say!("faulty cluster {i}: {names:?}");
    }
    say!("suspect sensors:");
    for (sensor, count) in diag.sensor_ranking.iter().take(10) {
        say!(
            "  {} ({count} broken relationships)",
            model.graph().name(*sensor)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn opt_parses_both_forms() {
        let args = s(&["--a=1", "--b", "2", "--flag"]);
        assert_eq!(opt(&args, "a").as_deref(), Some("1"));
        assert_eq!(opt(&args, "b").as_deref(), Some("2"));
        assert_eq!(opt(&args, "missing"), None);
    }

    #[test]
    fn parse_range_accepts_well_formed() {
        assert_eq!(parse_range("3..10").unwrap(), 3..10);
        assert!(parse_range("10..3").is_err());
        assert!(parse_range("5").is_err());
        assert!(parse_range("a..b").is_err());
    }

    #[test]
    fn parse_score_range_distinguishes_top_bucket() {
        let r = parse_score_range("80..90").unwrap();
        assert!(r.contains(80.0) && !r.contains(90.0));
        let top = parse_score_range("90..100").unwrap();
        assert!(top.contains(100.0));
        assert!(parse_score_range("90..120").is_err());
    }

    #[test]
    fn parse_num_defaults_and_rejects() {
        let args = s(&["--n=7"]);
        assert_eq!(parse_num(&args, "n", 1usize).unwrap(), 7);
        assert_eq!(parse_num(&args, "m", 5usize).unwrap(), 5);
        assert!(parse_num(&s(&["--n=x"]), "n", 1usize).is_err());
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn missing_required_option_fails() {
        assert!(fit(&s(&["--traces", "nope.json"])).is_err());
        assert!(simulate_plant(&[]).is_err());
    }
}
