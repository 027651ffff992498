//! Integration tests for the observability layer (DESIGN.md §10).
//!
//! Covers the PR's acceptance criteria: with a recorder installed, the
//! emitted counters reconcile exactly with the values the pipeline returns;
//! with no recorder installed, instrumented paths produce bit-identical
//! output; checkpoint truncation recovery reports through `mdes-obs`.
//!
//! The recorder is process-global and `cargo test` runs test functions on
//! parallel threads, so every test that installs a recorder serializes on
//! [`OBS_LOCK`] and uninstalls before releasing it.

use mdes::core::{
    read_checkpoint, write_checkpoint, CheckpointData, GraphSnapshot, Mdes, MdesConfig,
    ServingEngine, TranslatorConfig,
};
use mdes::graph::ScoreRange;
use mdes::lang::{LanguagePipeline, RawTrace, WindowConfig};
use mdes::nn::Seq2SeqConfig;
use mdes::obs::Recorder;
use std::sync::{Arc, Mutex};

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with a fresh recorder installed, serialized against other
/// recorder-installing tests, and uninstalls afterwards even on panic.
fn with_recorder<T>(f: impl FnOnce(&Recorder) -> T) -> T {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            mdes::obs::uninstall();
        }
    }
    let recorder = Arc::new(Recorder::new());
    mdes::obs::install(recorder.clone());
    let _cleanup = Uninstall;
    f(&recorder)
}

/// Two phase-locked square-wave sensors plus a noisy one: trains in well
/// under a second with the default n-gram translator.
fn toy_traces() -> Vec<RawTrace> {
    let mk = |phase: usize| {
        RawTrace::new(
            format!("s{phase}"),
            (0..900)
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
    };
    let noise = RawTrace::new(
        "noise",
        (0..900)
            .map(|t| if (t * 7 + t / 3) % 5 < 2 { "a" } else { "b" }.to_owned())
            .collect(),
    );
    vec![mk(0), mk(2), noise]
}

fn toy_config() -> MdesConfig {
    let mut cfg = MdesConfig {
        window: WindowConfig {
            word_len: 4,
            word_stride: 1,
            sent_len: 5,
            sent_stride: 5,
        },
        ..MdesConfig::default()
    };
    cfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);
    cfg
}

#[test]
fn counters_reconcile_with_pipeline_outputs() {
    with_recorder(|r| {
        let traces = toy_traces();
        let m = Mdes::fit(&traces, 0..300, 300..500, toy_config()).expect("fit");
        let trained = m.snapshot().models().len();
        let quarantined = m.quarantined().len();
        assert_eq!(r.counter_value("algo1.pairs_trained"), trained as u64);
        assert_eq!(
            r.counter_value("algo1.pairs_quarantined"),
            quarantined as u64
        );
        assert_eq!(
            r.histogram("algo1.pair").expect("pair spans").count,
            (trained + quarantined) as u64
        );
        assert_eq!(r.histogram("algo1.sweep").expect("sweep span").count, 1);

        let result = m
            .snapshot()
            .detect_range(&traces, 500..900)
            .expect("detect");
        let broken: usize = result.alerts.iter().map(Vec::len).sum();
        assert_eq!(r.counter_value("algo2.broken"), broken as u64);
        assert_eq!(r.counter_value("algo2.windows"), result.scores.len() as u64);
        assert_eq!(
            r.counter_value("algo2.evaluations"),
            (result.valid_models * result.scores.len()) as u64
        );
        assert!(r.histogram("algo2.model_decode_us").is_some());
        assert!(r.histogram("algo2.batch_size").is_some());
    });
}

/// On a neural snapshot every (window, participating model) evaluation
/// goes through the translation memo, so its hits and misses add up to
/// `algo2.evaluations`. The fit never touches the memo, and a second pass
/// over the same windows decodes nothing.
#[test]
fn memo_hits_and_misses_add_up_to_evaluations_on_a_neural_snapshot() {
    with_recorder(|r| {
        let traces = toy_traces();
        let mut cfg = toy_config();
        cfg.build.translator = TranslatorConfig::Nmt(Seq2SeqConfig {
            embed_dim: 6,
            hidden: 6,
            train_steps: 20,
            ..Seq2SeqConfig::default()
        });
        let m = Mdes::fit(&traces, 0..300, 300..500, cfg).expect("fit");
        assert_eq!(r.counter_value("algo2.memo_hits"), 0);
        assert_eq!(r.counter_value("algo2.memo_misses"), 0);
        let snap = GraphSnapshot::freeze(&m);
        let sets = m
            .language()
            .encode_segment(&traces, 500..900)
            .expect("encode");
        let first = snap
            .detect(&sets, snap.detection(), &[])
            .expect("first pass");
        let evaluations = (first.valid_models * first.scores.len()) as u64;
        assert_eq!(r.counter_value("algo2.evaluations"), evaluations);
        let hits = r.counter_value("algo2.memo_hits");
        let misses = r.counter_value("algo2.memo_misses");
        assert_eq!(hits + misses, evaluations);
        assert!(hits > 0, "the square waves repeat their sentences");
        assert!(snap.memo_bytes() > 0);

        assert_eq!(
            snap.detect(&sets, snap.detection(), &[])
                .expect("second pass"),
            first
        );
        assert_eq!(r.counter_value("algo2.evaluations"), 2 * evaluations);
        assert_eq!(r.counter_value("algo2.memo_misses"), misses);
        assert_eq!(r.counter_value("algo2.memo_hits"), hits + evaluations);
    });
}

#[test]
fn online_monitor_reports_windows_and_dropout_transitions() {
    with_recorder(|r| {
        let traces = toy_traces();
        let m = Mdes::fit(&traces, 0..300, 300..500, toy_config()).expect("fit");
        let engine = ServingEngine::new(Arc::clone(m.snapshot()));
        let mut session = engine.open_session(traces.len()).expect("stream width");
        let mut emitted = 0u64;
        for t in 500..800 {
            // Sensor 1 goes silent for samples 600..650.
            let sample: Vec<Option<String>> = traces
                .iter()
                .enumerate()
                .map(|(i, tr)| {
                    if i == 1 && (600..650).contains(&t) {
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
        assert!(emitted > 0);
        assert_eq!(r.counter_value("online.windows"), emitted);
        assert_eq!(
            r.histogram("online.push").expect("push spans").count,
            emitted
        );
        assert_eq!(r.counter_value("online.sensor_dropped"), 1);
        assert_eq!(r.counter_value("online.sensor_readmitted"), 1);
    });
}

#[test]
fn no_recorder_output_is_bit_identical() {
    let traces = toy_traces();
    let cfg = toy_config();
    let pipeline = LanguagePipeline::fit(&traces, 0..300, cfg.window).expect("language pipeline");
    let test_sets = pipeline.encode_segment(&traces, 500..900).expect("encode");

    let bare = {
        // Held so no other test's recorder is installed during the bare run.
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let m = Mdes::fit(&traces, 0..300, 300..500, cfg.clone()).expect("fit bare");
        let snap = m.snapshot();
        snap.detect(&test_sets, snap.detection(), &[])
            .expect("detect bare")
    };
    let (recorded, with_obs) = with_recorder(|r| {
        let m = Mdes::fit(&traces, 0..300, 300..500, cfg.clone()).expect("fit recorded");
        let snap = m.snapshot();
        let result = snap
            .detect(&test_sets, snap.detection(), &[])
            .expect("detect recorded");
        (result, r.counter_value("algo1.pairs_trained"))
    });
    assert!(with_obs > 0, "recorder saw the instrumented run");
    assert_eq!(bare.scores, recorded.scores, "scores must be bit-identical");
    assert_eq!(bare.alerts, recorded.alerts);
    assert_eq!(bare.valid_models, recorded.valid_models);
}

#[test]
fn checkpoint_truncation_recovery_reports_through_obs() {
    let dir = std::env::temp_dir().join(format!("mdes_obs_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("sweep.ckpt");
    let data = CheckpointData {
        fingerprint: 42,
        models: Vec::new(),
        quarantined: (0..4)
            .map(|i| mdes::core::QuarantinedPair {
                src: i,
                dst: i + 1,
                error: "injected".to_owned(),
                retries: 0,
            })
            .collect(),
    };
    write_checkpoint(&path, &data).expect("write");
    let bytes = std::fs::read(&path).expect("read bytes");
    std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");

    with_recorder(|r| {
        let back = read_checkpoint(&path).expect("recovering read");
        assert_eq!(back.fingerprint, 42);
        assert_eq!(back.quarantined.len(), 3, "one frame lost to truncation");
        assert_eq!(r.counter_value("checkpoint.frames_recovered"), 3);
        assert_eq!(r.counter_value("checkpoint.frames_dropped"), 1);
        assert_eq!(r.counter_value("checkpoint.recovery"), 1);
        assert_eq!(r.histogram("checkpoint.read").expect("read span").count, 1);
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_lifecycle_events_report_through_obs() {
    use mdes::core::serve::{GraphSnapshot, ServingEngine};
    use mdes::core::{CanaryConfig, CanaryDecision, FrozenPairModel};

    let dir = std::env::temp_dir().join(format!("mdes_obs_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let jsonl = dir.join("serve_events.jsonl");

    // Like `with_recorder`, but with a JSONL sink so event *fields* (the
    // publish-rejection `code`) can be asserted, not just the counters.
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            mdes::obs::uninstall();
        }
    }
    let recorder = Arc::new(Recorder::with_jsonl_path(&jsonl).expect("jsonl recorder"));
    mdes::obs::install(recorder.clone());
    let _cleanup = Uninstall;
    let r = &recorder;

    let traces = toy_traces();
    let m = Mdes::fit(&traces, 0..300, 300..500, toy_config()).expect("fit");
    let snapshot = GraphSnapshot::freeze(&m);
    let engine = ServingEngine::new(snapshot.clone());
    let mut session = engine.open_session(traces.len()).expect("session");
    let mut t = 500usize;
    let mut push_until = |engine: &ServingEngine,
                          session: &mut mdes::core::serve::StreamSession,
                          done: &dyn Fn() -> bool| {
        while !done() {
            assert!(t < 900, "toy stream exhausted before the canary resolved");
            let sample: Vec<Option<String>> =
                traces.iter().map(|tr| Some(tr.events[t].clone())).collect();
            engine.push_opt(session, &sample).expect("push");
            t += 1;
        }
    };

    // A publish whose window config differs from the serving snapshot's is
    // rejected, and the refusal lands on the stream with its error code.
    let mut other_cfg = toy_config();
    other_cfg.window.sent_len = 6;
    other_cfg.window.sent_stride = 6;
    let other = Mdes::fit(&traces, 0..300, 300..500, other_cfg).expect("fit other");
    engine
        .store()
        .publish(GraphSnapshot::freeze(&other))
        .expect_err("incompatible publish must be refused");
    assert_eq!(r.counter_value("serve.publish_rejected"), 1);

    // A candidate carrying the reverse direction's translator under a
    // healthy pair's pinned scores breaks shadow windows the incumbent
    // scores cleanly, tripping the zero-tolerance gate.
    let &k = snapshot.valid_models().first().expect("valid pair");
    let good = &snapshot.models()[k];
    let reverse = snapshot
        .models()
        .iter()
        .find(|m| m.src == good.dst && m.dst == good.src)
        .expect("reverse model");
    let bad = snapshot
        .graft(vec![FrozenPairModel::new(
            good.src,
            good.dst,
            good.train_score,
            good.dev_floor,
            reverse.translator().clone(),
        )])
        .expect("graft sabotaged candidate");
    let gate = CanaryConfig {
        fraction: 1.0,
        sample_budget: 8,
        max_mean_delta: 0.0,
        max_p95_delta: 0.0,
    };
    engine.store().start_canary(bad, gate).expect("bad canary");
    assert_eq!(r.counter_value("serve.canary_start"), 1);
    engine
        .store()
        .publish(snapshot.clone())
        .expect_err("publish during an active canary must be refused");
    assert_eq!(r.counter_value("serve.publish_rejected"), 2);
    push_until(&engine, &mut session, &|| {
        !engine.store().canary_status().active
    });
    assert!(
        matches!(
            engine.store().canary_status().last_decision,
            Some(CanaryDecision::RolledBack { .. })
        ),
        "sabotaged candidate must roll back"
    );
    assert_eq!(r.counter_value("serve.canary_rolled_back"), 1);
    assert_eq!(engine.store().version(), 1);

    // An aborted canary reports the cancellation, not a verdict.
    engine
        .store()
        .start_canary(snapshot.clone(), CanaryConfig::default())
        .expect("cancellable canary");
    assert!(engine.store().cancel_canary());
    assert_eq!(r.counter_value("serve.canary_cancelled"), 1);

    // An identical candidate sails through the default gate: promotion and
    // the swap both report, and the sample counter covers both verdicts.
    engine
        .store()
        .start_canary(
            snapshot.clone(),
            CanaryConfig {
                fraction: 1.0,
                sample_budget: 8,
                ..CanaryConfig::default()
            },
        )
        .expect("good canary");
    push_until(&engine, &mut session, &|| {
        !engine.store().canary_status().active
    });
    assert!(matches!(
        engine.store().canary_status().last_decision,
        Some(CanaryDecision::Promoted { version: 2, .. })
    ));
    assert_eq!(r.counter_value("serve.canary_promoted"), 1);
    assert_eq!(r.counter_value("serve.swap"), 1);
    assert!(r.counter_value("serve.canary_samples") >= 16);

    // The JSONL stream carries the machine-readable rejection codes.
    r.flush().expect("flush sink");
    let lines = std::fs::read_to_string(&jsonl).expect("read jsonl");
    let rejected: Vec<&str> = lines
        .lines()
        .filter(|l| l.contains("\"name\":\"serve.publish_rejected\""))
        .collect();
    assert_eq!(rejected.len(), 2);
    assert!(
        rejected[0].contains("\"code\":\"incompatible_snapshot\""),
        "first rejection must carry the incompatibility code: {}",
        rejected[0]
    );
    assert!(
        rejected[1].contains("\"code\":\"canary\""),
        "second rejection must carry the canary code: {}",
        rejected[1]
    );
    std::fs::remove_dir_all(&dir).ok();
}

mod roundtrip_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Serde-roundtripping a valid ScoreRange never yields bounds the
        /// constructors would reject, and invalid JSON-shaped input never
        /// deserializes.
        #[test]
        fn score_range_roundtrip_stays_valid(
            lo in -50.0f64..150.0,
            span in 0.0f64..100.0,
            inclusive in 0usize..2,
        ) {
            let range = if inclusive == 1 {
                ScoreRange::closed(lo, lo + span)
            } else {
                ScoreRange::half_open(lo, lo + span)
            };
            let json = serde_json::to_string(&range).unwrap();
            let back: ScoreRange = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(back, range);
            prop_assert!(back.lo() <= back.hi());
            prop_assert!(back.lo().is_finite() && back.hi().is_finite());
        }

        #[test]
        fn inverted_score_range_json_never_deserializes(
            lo in -100.0f64..100.0,
            gap in 1e-6f64..100.0,
            inclusive in 0usize..2,
        ) {
            let json = format!(
                "{{\"lo\": {}, \"hi\": {}, \"inclusive_hi\": {}}}",
                lo + gap,
                lo,
                inclusive == 1
            );
            prop_assert!(serde_json::from_str::<ScoreRange>(&json).is_err());
        }

        /// Valid window configs survive the roundtrip; any config with a
        /// zero field fails to deserialize instead of dividing by zero later.
        #[test]
        fn window_config_roundtrip_stays_valid(
            word_len in 0usize..6,
            word_stride in 0usize..6,
            sent_len in 0usize..6,
            sent_stride in 0usize..6,
        ) {
            let cfg = WindowConfig { word_len, word_stride, sent_len, sent_stride };
            let json = serde_json::to_string(&cfg).unwrap();
            let parsed = serde_json::from_str::<WindowConfig>(&json);
            match cfg.validate() {
                Ok(()) => {
                    let back = parsed.unwrap();
                    prop_assert_eq!(back, cfg);
                    prop_assert!(back.validate().is_ok());
                }
                Err(_) => prop_assert!(parsed.is_err()),
            }
        }

        /// Checkpoint files survive arbitrary truncation: the recovered
        /// prefix always re-validates and never exceeds what was written.
        #[test]
        fn checkpoint_truncation_always_recovers_a_valid_prefix(
            n_pairs in 0usize..5,
            cut_back in 0usize..200,
        ) {
            let dir = std::env::temp_dir().join(format!(
                "mdes_obs_prop_{}_{n_pairs}_{cut_back}",
                std::process::id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("sweep.ckpt");
            let data = CheckpointData {
                fingerprint: 7,
                models: Vec::new(),
                quarantined: (0..n_pairs)
                    .map(|i| mdes::core::QuarantinedPair {
                        src: i,
                        dst: i + 1,
                        error: format!("e{i}"),
                        retries: i,
                    })
                    .collect(),
            };
            write_checkpoint(&path, &data).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let cut = bytes.len().saturating_sub(cut_back);
            std::fs::write(&path, &bytes[..cut]).unwrap();
            match read_checkpoint(&path) {
                Ok(back) => {
                    prop_assert_eq!(back.fingerprint, 7);
                    prop_assert!(back.quarantined.len() <= n_pairs);
                    prop_assert_eq!(
                        back.quarantined.as_slice(),
                        &data.quarantined[..back.quarantined.len()]
                    );
                }
                // Only a header shorter than 16 bytes may error.
                Err(_) => prop_assert!(cut < 16),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
