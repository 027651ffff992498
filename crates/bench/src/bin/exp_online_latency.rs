//! Experiment — online serving latency of one serving-engine stream.
//!
//! A stream's per-push cost is the paper's serving-path metric: every
//! completed sentence window runs Algorithm 2 across all valid pair models.
//! This experiment fits an NMT plant, then measures
//!
//! 1. single-stream [`ServingEngine::push_opt`] latency, split into
//!    window-completing pushes (which run detection) and buffering pushes;
//! 2. whole-segment decode throughput via `detect_range`;
//! 3. detection thread scaling at 1/2/4 worker threads.
//!
//! Run before and after an inference-path change to produce the
//! EXPERIMENTS.md "Online inference" table.
//!
//! Set `MDES_TRACE=1` to install the observability recorder for the run:
//! spans and events stream to `results/online_latency_trace.jsonl` and the
//! aggregate `Recorder::report()` is printed after the tables. The default
//! (no recorder) path is what the latency tables measure — identical to
//! the pre-observability numbers (see EXPERIMENTS.md "Observability
//! overhead").

use mdes_bench::report::{print_table, results_dir, write_csv, ScoreDist};
use mdes_core::{
    DetectionConfig, GraphSnapshot, Mdes, MdesConfig, ServingEngine, TranslatorConfig,
};
use mdes_graph::ScoreRange;
use mdes_lang::WindowConfig;
use mdes_nn::Seq2SeqConfig;
use mdes_synth::plant::{generate, PlantConfig};
use std::sync::Arc;
use std::time::Instant;

fn stats(us: Vec<f64>) -> (f64, f64, f64) {
    let d = ScoreDist::from_samples(&us).summary();
    (d.mean, d.p50, d.p95)
}

fn main() {
    let traced = std::env::var("MDES_TRACE").is_ok_and(|v| !v.is_empty() && v != "0");
    let recorder = traced.then(|| {
        let path = results_dir().join("online_latency_trace.jsonl");
        let r = std::sync::Arc::new(
            mdes_obs::Recorder::with_jsonl_path(&path).expect("create trace sink"),
        );
        mdes_obs::install(r.clone());
        eprintln!("tracing to {}", path.display());
        r
    });
    let plant = generate(&PlantConfig {
        n_sensors: 8,
        days: 10,
        minutes_per_day: 288,
        n_components: 2,
        anomaly_days: vec![9],
        precursor_days: vec![],
        ..PlantConfig::default()
    });
    let mut cfg = MdesConfig {
        window: WindowConfig {
            word_len: 5,
            word_stride: 1,
            sent_len: 6,
            sent_stride: 6,
        },
        ..MdesConfig::default()
    };
    cfg.build.translator = TranslatorConfig::Nmt(Seq2SeqConfig {
        embed_dim: 16,
        hidden: 16,
        train_steps: 30,
        ..Seq2SeqConfig::default()
    });
    cfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);
    let fit_started = Instant::now();
    let m = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 5),
        plant.days_range(6, 7),
        cfg.clone(),
    )
    .expect("fit NMT plant");
    eprintln!(
        "fitted {} pair models in {:.1}s",
        m.snapshot().models().len(),
        fit_started.elapsed().as_secs_f64()
    );

    // 1. Streaming push latency over the test days.
    let test = plant.days_range(8, 10);
    let engine = ServingEngine::new(Arc::clone(m.snapshot()));
    let mut session = engine
        .open_session(plant.traces.len())
        .expect("stream width");
    let mut detect_us: Vec<f64> = Vec::new();
    let mut buffer_us: Vec<f64> = Vec::new();
    for t in test.clone() {
        let sample: Vec<Option<String>> = plant
            .traces
            .iter()
            .map(|tr| Some(tr.events[t].clone()))
            .collect();
        let started = Instant::now();
        let out = engine.push_opt(&mut session, &sample).expect("push");
        let us = started.elapsed().as_secs_f64() * 1e6;
        if out.is_some() {
            detect_us.push(us);
        } else {
            buffer_us.push(us);
        }
    }
    let windows = detect_us.len();
    let (det_mean, det_p50, det_p95) = stats(detect_us);
    let (buf_mean, _, _) = stats(buffer_us);

    // 2. Segment decode throughput (the batch path). The engine serves
    // `m`'s snapshot and filled its translation memo; a frozen copy starts
    // with an empty one, so every window decodes.
    let cold = GraphSnapshot::freeze(&m);
    let seg_started = Instant::now();
    let result = cold
        .detect_range(&plant.traces, test.clone())
        .expect("detect");
    let seg_secs = seg_started.elapsed().as_secs_f64();
    let sent_per_sec = result.scores.len() as f64 / seg_secs;

    // 3. Detection thread scaling.
    let lang = m.language();
    let sets = lang
        .encode_segment(&plant.traces, test.clone())
        .expect("encode test segment");
    let mut scaling: Vec<(usize, f64)> = Vec::new();
    for threads in [1usize, 2, 4] {
        let dcfg = DetectionConfig {
            threads,
            ..cfg.detection.clone()
        };
        // Warm once, then time the median of 3 runs, each on a cold memo.
        let _ = GraphSnapshot::freeze(&m)
            .detect(&sets, &dcfg, &[])
            .expect("warm");
        let mut runs: Vec<f64> = (0..3)
            .map(|_| {
                let cold = GraphSnapshot::freeze(&m);
                let s = Instant::now();
                let r = cold.detect(&sets, &dcfg, &[]).expect("detect");
                assert_eq!(r.scores.len(), result.scores.len());
                s.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        scaling.push((threads, runs[1]));
    }

    let mut rows = vec![
        vec![
            "push (window)".to_owned(),
            format!("{windows} windows"),
            format!("{det_mean:.0}"),
            format!("{det_p50:.0}"),
            format!("{det_p95:.0}"),
        ],
        vec![
            "push (buffering)".to_owned(),
            format!("{} samples", test.len() - windows),
            format!("{buf_mean:.1}"),
            String::new(),
            String::new(),
        ],
        vec![
            "segment decode".to_owned(),
            format!("{} sentences", result.scores.len()),
            format!("{:.0} ms total", seg_secs * 1e3),
            format!("{sent_per_sec:.0}/s"),
            String::new(),
        ],
    ];
    for (threads, ms) in &scaling {
        rows.push(vec![
            format!("detect x{threads} threads"),
            format!("{} sentences", result.scores.len()),
            format!("{ms:.0} ms"),
            String::new(),
            String::new(),
        ]);
    }
    print_table(&["path", "volume", "mean us", "p50 us", "p95 us"], &rows);
    write_csv(
        "online_latency.csv",
        &["path", "volume", "mean_us", "p50_us", "p95_us"],
        &rows,
    );
    if let Some(r) = recorder {
        mdes_obs::uninstall();
        r.flush().expect("flush trace sink");
        println!("\n{}", r.report());
    }
}
