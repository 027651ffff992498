//! Experiment — end-to-end observability trace of a synthetic plant run.
//!
//! Installs an [`mdes_obs::Recorder`] with a JSONL sink, fits a small NMT
//! plant, runs batch detection and one serving-engine stream with an injected
//! sensor dropout, then *asserts* that the recorded telemetry reconciles
//! exactly with the values the pipeline returned:
//!
//! - one `algo1.pair` span per trained/quarantined pair;
//! - `algo2.broken` counter == total broken edges across all detections;
//! - `online.push` span count == emitted windows, with one dropout and one
//!   readmission event for the injected outage;
//! - every JSONL line parses as a JSON object with `kind`/`name` fields.
//!
//! The asserts make this binary the CI smoke test for the observability
//! layer (see DESIGN.md §10 for the schema); it finishes by printing
//! `Recorder::report()` — the run's counters and latency histograms.

use mdes_bench::report::results_dir;
use mdes_core::{Mdes, MdesConfig, ServingEngine, TranslatorConfig};
use mdes_graph::ScoreRange;
use mdes_lang::WindowConfig;
use mdes_nn::Seq2SeqConfig;
use mdes_synth::plant::{generate, PlantConfig};
use std::sync::Arc;

fn main() {
    let trace_path = results_dir().join("trace.jsonl");
    let recorder = Arc::new(
        mdes_obs::Recorder::with_jsonl_path(&trace_path).expect("create JSONL trace sink"),
    );
    mdes_obs::install(recorder.clone());

    let plant = generate(&PlantConfig {
        n_sensors: 5,
        days: 8,
        minutes_per_day: 288,
        n_components: 2,
        anomaly_days: vec![7],
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
        embed_dim: 12,
        hidden: 12,
        train_steps: 20,
        ..Seq2SeqConfig::default()
    });
    cfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);

    // Offline phase: every pair trained under the recorder.
    let m = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 4),
        plant.days_range(5, 6),
        cfg,
    )
    .expect("fit NMT plant");
    let trained = m.snapshot().models().len();
    let quarantined = m.quarantined().len();
    assert_eq!(
        recorder.counter_value("algo1.pairs_trained"),
        trained as u64,
        "algo1.pairs_trained must match the trained model count"
    );
    assert_eq!(
        recorder.counter_value("algo1.pairs_quarantined"),
        quarantined as u64,
        "algo1.pairs_quarantined must match the quarantine list"
    );
    let pair_spans = recorder
        .histogram("algo1.pair")
        .expect("per-pair training spans recorded");
    assert_eq!(pair_spans.count, (trained + quarantined) as u64);
    assert!(
        recorder.histogram("nn.fit").is_some(),
        "NMT training must emit nn.fit spans"
    );

    // Batch detection: the broken counter must reconcile with the result.
    let broken_before = recorder.counter_value("algo2.broken");
    let windows_before = recorder.counter_value("algo2.windows");
    let result = m
        .snapshot()
        .detect_range(&plant.traces, plant.days_range(6, 8))
        .expect("detect");
    let broken_edges: usize = result.alerts.iter().map(Vec::len).sum();
    assert_eq!(
        recorder.counter_value("algo2.broken") - broken_before,
        broken_edges as u64,
        "algo2.broken must equal the sum of returned alert lists"
    );
    assert_eq!(
        recorder.counter_value("algo2.windows") - windows_before,
        result.scores.len() as u64,
        "algo2.windows must equal the number of scored windows"
    );
    assert!(
        recorder
            .histogram("algo2.model_decode_us")
            .is_some_and(|h| h.count > 0),
        "per-model decode latency must be recorded"
    );

    // Streaming phase with an injected outage on sensor 1.
    let width = plant.traces.len();
    let engine = ServingEngine::new(Arc::clone(m.snapshot()));
    let mut session = engine.open_session(width).expect("stream width");
    let test = plant.days_range(6, 8);
    let outage = test.start + 40..test.start + 80;
    let mut emitted = 0u64;
    for t in test.clone() {
        let sample: Vec<Option<String>> = plant
            .traces
            .iter()
            .enumerate()
            .map(|(i, tr)| {
                if i == 1 && outage.contains(&t) {
                    None
                } else {
                    Some(tr.events[t].clone())
                }
            })
            .collect();
        if engine
            .push_opt(&mut session, &sample)
            .expect("push")
            .is_some()
        {
            emitted += 1;
        }
    }
    assert_eq!(
        recorder.counter_value("online.windows"),
        emitted,
        "online.windows must equal the number of emitted detections"
    );
    assert_eq!(
        recorder
            .histogram("online.push")
            .expect("push spans recorded")
            .count,
        emitted
    );
    assert_eq!(
        recorder.counter_value("online.sensor_dropped"),
        1,
        "the injected outage must emit exactly one dropout event"
    );
    assert_eq!(
        recorder.counter_value("online.sensor_readmitted"),
        1,
        "recovery must emit exactly one readmission event"
    );

    // The JSONL stream must be valid, one object per line.
    mdes_obs::uninstall();
    recorder.flush().expect("flush trace sink");
    let text = std::fs::read_to_string(&trace_path).expect("read trace.jsonl");
    let mut lines = 0usize;
    for line in text.lines() {
        let value: serde::Content =
            serde_json::from_str(line).expect("every trace line parses as JSON");
        let serde::Content::Map(entries) = value else {
            panic!("trace line is not a JSON object: {line}");
        };
        for key in ["kind", "name"] {
            assert!(
                entries.iter().any(|(k, _)| k == key),
                "trace line missing `{key}`: {line}"
            );
        }
        lines += 1;
    }
    assert!(lines > 0, "trace must not be empty");

    println!("trace: {} JSONL lines -> {}", lines, trace_path.display());
    println!("{}", recorder.report());
    println!("observability reconciliation OK");
}
