//! Integration tests for the serving split (DESIGN.md §11).
//!
//! Covers the acceptance criteria of the training/serving refactor:
//!
//! - a fitted NMT model's [`GraphSnapshot`] scores every window
//!   *bit-identically* to the paper-literal oracle (`common::oracle`),
//!   streamed and batched, before and after a round-trip through the
//!   on-disk snapshot format;
//! - a snapshot published mid-stream yields byte-identical detections for
//!   windows completed before the swap, applies the new graph from the
//!   first window completed after, and never drops or reorders buffered
//!   windows — at 1, 2 and 4 engine worker threads;
//! - an incompatible snapshot is rejected without disturbing live serving.

mod common;

use common::{batch, oracle};
use mdes::core::serve::{GraphSnapshot, ServingEngine, StreamSession};
use mdes::core::{
    read_snapshot, write_snapshot, CoreError, Mdes, MdesConfig, OnlineDetection, TranslatorConfig,
};
use mdes::graph::ScoreRange;
use mdes::lang::{RawTrace, WindowConfig};
use mdes::nn::Seq2SeqConfig;

fn square(name: &str, n: usize, phase: usize) -> RawTrace {
    RawTrace::new(
        name,
        (0..n)
            .map(|t| {
                if ((t + phase) / 5).is_multiple_of(2) {
                    "on"
                } else {
                    "off"
                }
                .to_owned()
            })
            .collect(),
    )
}

fn traces() -> Vec<RawTrace> {
    // 710 samples: the phase-slipped stream reads three samples ahead of
    // the 450..700 replay range.
    vec![
        square("a", 710, 0),
        square("b", 710, 2),
        square("c", 710, 4),
    ]
}

fn base_config() -> MdesConfig {
    let mut cfg = MdesConfig {
        window: WindowConfig {
            word_len: 4,
            word_stride: 1,
            sent_len: 5,
            sent_stride: 5,
        },
        ..MdesConfig::default()
    };
    cfg.detection.valid_range = ScoreRange::closed(60.0, 100.0);
    cfg
}

fn fitted_ngram() -> (Mdes, Vec<RawTrace>) {
    let traces = traces();
    let m = Mdes::fit(&traces, 0..300, 300..450, base_config()).expect("fit");
    (m, traces)
}

fn fitted_nmt() -> (Mdes, Vec<RawTrace>) {
    let traces = traces();
    let mut cfg = base_config();
    cfg.build.translator = TranslatorConfig::Nmt(Seq2SeqConfig {
        embed_dim: 10,
        hidden: 10,
        train_steps: 15,
        ..Seq2SeqConfig::default()
    });
    cfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);
    let m = Mdes::fit(&traces, 0..300, 300..450, cfg).expect("fit NMT");
    (m, traces)
}

/// A test stream with a phase slip on sensor `b` from sample 520 on, so
/// scores and alerts are non-trivial and discriminate between snapshots.
fn slipped_sample(traces: &[RawTrace], t: usize) -> Vec<Option<String>> {
    traces
        .iter()
        .enumerate()
        .map(|(k, tr)| {
            Some(if k == 1 && t >= 520 {
                tr.events[t + 3].clone()
            } else {
                tr.events[t].clone()
            })
        })
        .collect()
}

fn stream_engine(
    engine: &ServingEngine,
    session: &mut StreamSession,
    traces: &[RawTrace],
    range: std::ops::Range<usize>,
) -> Vec<OnlineDetection> {
    let mut out = Vec::new();
    for t in range {
        if let Some(d) = engine
            .push_opt(session, &slipped_sample(traces, t))
            .expect("push")
        {
            out.push(d);
        }
    }
    out
}

#[test]
fn frozen_nmt_detection_matches_the_oracle_bit_for_bit() {
    let (m, traces) = fitted_nmt();
    let snap = GraphSnapshot::freeze(&m);

    // Batch: the snapshot against the oracle, same inputs.
    let sets = m
        .language()
        .encode_segment(&traces, 450..700)
        .expect("encode");
    let want = oracle(snap.models(), &sets, snap.detection(), &[]);
    let frozen = snap
        .detect(&sets, snap.detection(), &[])
        .expect("frozen detect");
    assert_eq!(frozen.valid_models, snap.valid_models().len());
    assert_eq!(batch(frozen), want, "batch scores must be the oracle's");

    // Streamed through the engine: same scores again, window by window.
    let engine = ServingEngine::new(snap);
    let mut session = engine.open_session(traces.len()).expect("session");
    let mut streamed = Vec::new();
    for t in 450..700 {
        let sample: Vec<Option<String>> =
            traces.iter().map(|tr| Some(tr.events[t].clone())).collect();
        if let Some(d) = engine.push_opt(&mut session, &sample).expect("push") {
            streamed.push((d.score.to_bits(), d.alerts));
        }
    }
    assert_eq!(streamed, want, "streamed scores must be the oracle's");
}

#[test]
fn snapshot_file_roundtrip_preserves_nmt_scores_exactly() {
    let (m, traces) = fitted_nmt();
    let snap = GraphSnapshot::freeze(&m);
    let dir = std::env::temp_dir().join(format!("mdes_serving_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("plant.snap");
    write_snapshot(&path, &snap).expect("write snapshot");
    let restored = read_snapshot(&path).expect("read snapshot");
    std::fs::remove_dir_all(&dir).ok();

    let sets = m
        .language()
        .encode_segment(&traces, 450..700)
        .expect("encode");
    let before = snap
        .detect(&sets, snap.detection(), &[])
        .expect("detect before");
    let after = restored
        .detect(&sets, restored.detection(), &[])
        .expect("detect after");
    assert_eq!(before.alerts, after.alerts);
    for (a, b) in before.scores.iter().zip(&after.scores) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "round-trip must not perturb scores"
        );
    }
}

/// Two compatible-but-different snapshots: A is trained on the original
/// phase relationship, B on the *slipped* one (sensor `b` three samples
/// ahead — exactly what [`slipped_sample`] streams from t = 520 on). Post-
/// slip windows therefore break A's pairs but look healthy to B, so the
/// two artifacts are guaranteed to disagree on the replayed stream.
fn snapshot_pair() -> (GraphSnapshot, GraphSnapshot, Vec<RawTrace>) {
    let (m_a, traces) = fitted_ngram();
    let traces_b = vec![
        square("a", 710, 0),
        square("b", 710, 5),
        square("c", 710, 4),
    ];
    let m_b = Mdes::fit(&traces_b, 0..300, 300..450, base_config()).expect("fit B");
    (
        GraphSnapshot::freeze(&m_a),
        GraphSnapshot::freeze(&m_b),
        traces,
    )
}

#[test]
fn hot_swap_applies_from_next_window_without_dropping_any() {
    let (snap_a, snap_b, traces) = snapshot_pair();

    // Reference runs: all-A and all-B over the identical stream.
    let engine_a = ServingEngine::new(snap_a.clone());
    let mut s = engine_a.open_session(3).expect("session");
    let all_a = stream_engine(&engine_a, &mut s, &traces, 450..700);
    let engine_b = ServingEngine::new(snap_b.clone());
    let mut s = engine_b.open_session(3).expect("session");
    let all_b = stream_engine(&engine_b, &mut s, &traces, 450..700);
    assert_eq!(all_a.len(), all_b.len(), "same stream, same emission grid");
    assert_ne!(all_a, all_b, "fixture snapshots must be distinguishable");

    // Swap mid-stream, deliberately between emissions (mid-buffered-window).
    let swap_at = 553;
    let engine = ServingEngine::new(snap_a);
    let mut session = engine.open_session(3).expect("session");
    let mut swapped = Vec::new();
    for t in 450..700 {
        if t == swap_at {
            engine.store().publish(snap_b.clone()).expect("publish");
        }
        if let Some(d) = engine
            .push_opt(&mut session, &slipped_sample(&traces, t))
            .expect("push")
        {
            swapped.push(d);
        }
    }

    // No window dropped or reordered: the emission grid is unchanged.
    assert_eq!(swapped.len(), all_a.len());
    let indices: Vec<usize> = swapped.iter().map(|d| d.sample_index).collect();
    let expected: Vec<usize> = all_a.iter().map(|d| d.sample_index).collect();
    assert_eq!(indices, expected);

    // Windows completed before the publish are byte-identical to the A run;
    // every window completed after scores against B.
    for (i, d) in swapped.iter().enumerate() {
        if d.sample_index < swap_at - 450 {
            assert_eq!(d, &all_a[i], "pre-swap window {i} must match A");
        } else {
            assert_eq!(d, &all_b[i], "post-swap window {i} must match B");
        }
    }
}

#[test]
fn hot_swap_is_deterministic_across_worker_thread_counts() {
    let (snap_a, snap_b, traces) = snapshot_pair();
    let swap_at = 553;
    let streams = 3;

    let run = |threads: usize| -> Vec<Vec<OnlineDetection>> {
        let engine = ServingEngine::new(snap_a.clone()).with_threads(threads);
        let mut sessions: Vec<StreamSession> = (0..streams)
            .map(|_| engine.open_session(3).expect("session"))
            .collect();
        let mut per_stream: Vec<Vec<OnlineDetection>> = vec![Vec::new(); streams];
        for t in 450..700 {
            if t == swap_at {
                engine.store().publish(snap_b.clone()).expect("publish");
            }
            let sample = slipped_sample(&traces, t);
            let results = engine.push_opt_many(&mut sessions, &vec![sample; streams]);
            for (k, r) in results.into_iter().enumerate() {
                if let Some(d) = r.expect("push") {
                    per_stream[k].push(d);
                }
            }
        }
        per_stream
    };

    let reference = run(1);
    assert!(
        !reference[0].is_empty(),
        "the stream must emit detections for the comparison to mean anything"
    );
    // All sessions see the same stream, so they must agree exactly.
    for s in &reference {
        assert_eq!(s, &reference[0]);
    }
    for threads in [2usize, 4] {
        assert_eq!(
            run(threads),
            reference,
            "results must be byte-identical at {threads} worker threads"
        );
    }
}

#[test]
fn rejected_publish_leaves_live_serving_untouched() {
    let (m, traces) = fitted_ngram();
    let snap = GraphSnapshot::freeze(&m);
    let engine = ServingEngine::new(snap.clone());
    let mut session = engine.open_session(3).expect("session");
    let before = stream_engine(&engine, &mut session, &traces, 450..570);

    // An artifact with different windowing must be refused...
    let mut cfg = base_config();
    cfg.window.sent_len = 6;
    let other = Mdes::fit(&traces, 0..300, 300..450, cfg).expect("fit other");
    let err = engine.store().publish(GraphSnapshot::freeze(&other));
    assert!(matches!(err, Err(CoreError::IncompatibleSnapshot { .. })));
    assert_eq!(engine.store().version(), 1, "version must not advance");

    // ...and the live session must keep producing the original results.
    let engine_ref = ServingEngine::new(snap);
    let mut fresh = engine_ref.open_session(3).expect("session");
    let reference = stream_engine(&engine_ref, &mut fresh, &traces, 450..700);
    let after = stream_engine(&engine, &mut session, &traces, 570..700);
    let combined: Vec<OnlineDetection> = before.into_iter().chain(after).collect();
    assert_eq!(combined, reference);
}
