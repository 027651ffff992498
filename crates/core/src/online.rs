//! Streaming (online) detection: the types a stream's detections are made
//! of.
//!
//! [`GraphSnapshot::detect_range`] scores a batch of historical samples;
//! the paper's *online testing phase* (Fig. 1) is [`ServingEngine`]. Serve
//! the fitted model's own snapshot with
//! `ServingEngine::new(Arc::clone(mdes.snapshot()))` (one copy of the
//! weights), open one [`StreamSession`] per stream with
//! [`ServingEngine::open_session`], and
//! feed it one multivariate sample per tick with
//! [`ServingEngine::push_opt`] (or many streams per tick with
//! [`ServingEngine::push_opt_many`]). The session buffers just enough
//! trailing samples to form one sentence per sensor, and each completed
//! window is scored by Algorithm 2, so detections arrive with the
//! granularity the sentence stride configures (every 20 minutes with the
//! paper's plant settings) as [`OnlineDetection`]s.
//!
//! [`GraphSnapshot::detect_range`]: crate::serve::GraphSnapshot::detect_range
//! [`ServingEngine`]: crate::serve::ServingEngine
//! [`ServingEngine::open_session`]: crate::serve::ServingEngine::open_session
//! [`ServingEngine::push_opt`]: crate::serve::ServingEngine::push_opt
//! [`ServingEngine::push_opt_many`]: crate::serve::ServingEngine::push_opt_many
//! [`StreamSession`]: crate::serve::StreamSession
//!
//! # Degraded input
//!
//! Real telemetry is imperfect: records go missing, sensors die silently or
//! freeze on one value. A session absorbs all of it instead of erroring:
//! `None` marks a missing record, and a sensor missing or stuck past the
//! session's [`DegradationConfig`] (set with
//! [`StreamSession::with_degradation`]) is dropped from detection until it
//! recovers; each [`OnlineDetection`] reports the surviving evidence as
//! `coverage` plus the dropped sensors. [`ServingEngine::push_opt`] states
//! the rules.
//!
//! [`StreamSession::with_degradation`]: crate::serve::StreamSession::with_degradation

use serde::{Deserialize, Serialize};

/// When an online sensor is considered *dropped* and excluded from
/// detection until it recovers.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DegradationConfig {
    /// Consecutive missing records (`None` pushed via
    /// [`ServingEngine::push_opt`](crate::serve::ServingEngine::push_opt))
    /// after which a sensor counts as dropped.
    pub missing_limit: usize,
    /// Consecutive *identical* records after which a sensor counts as
    /// stuck-at and dropped; `None` (the default) disables stuck detection,
    /// because legitimately quiet sensors — a valve that stays closed all
    /// shift — would otherwise be flagged.
    pub stuck_limit: Option<usize>,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self {
            missing_limit: 3,
            stuck_limit: None,
        }
    }
}

/// One emitted detection.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OnlineDetection {
    /// Index of the sample (0-based, counted from the session's open) at
    /// which the window completed.
    pub sample_index: usize,
    /// Anomaly score `a_t` of the completed window.
    pub score: f64,
    /// Broken sensor pairs of the completed window.
    pub alerts: Vec<(usize, usize)>,
    /// Fraction of valid pair models that produced this detection, in
    /// `[0, 1]`; `1.0` when no sensor is dropped, `0.0` when dropout has
    /// silenced every valid pair (then `score` is `0.0` by construction and
    /// carries no evidence).
    pub coverage: f64,
    /// Original (push-order) indices of sensors currently dropped.
    pub dropped_sensors: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::pipeline::{Mdes, MdesConfig};
    use crate::serve::{ServingEngine, StreamSession};
    use mdes_graph::ScoreRange;
    use mdes_lang::{RawTrace, WindowConfig};
    use std::sync::Arc;

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

    fn fitted() -> (Mdes, Vec<RawTrace>) {
        let traces = vec![
            square("a", 700, 0),
            square("b", 700, 2),
            square("c", 700, 4),
        ];
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
        let m = Mdes::fit(&traces, 0..300, 300..450, cfg).expect("fit");
        (m, traces)
    }

    /// Serves `m`'s own snapshot and opens one stream of `width` sensors.
    fn stream(m: &Mdes, width: usize) -> (ServingEngine, StreamSession) {
        let engine = ServingEngine::new(Arc::clone(m.snapshot()));
        let session = engine.open_session(width).expect("session");
        (engine, session)
    }

    /// Sample `t` of every trace, with no record missing.
    fn sample(traces: &[RawTrace], t: usize) -> Vec<Option<String>> {
        traces.iter().map(|tr| Some(tr.events[t].clone())).collect()
    }

    #[test]
    fn streaming_matches_batch_detection() {
        let (m, traces) = fitted();
        let batch = m.snapshot().detect_range(&traces, 450..700).expect("batch");
        let (engine, mut session) = stream(&m, 3);
        let mut streamed: Vec<f64> = Vec::new();
        for t in 450..700 {
            let sample = sample(&traces, t);
            if let Some(d) = engine.push_opt(&mut session, &sample).expect("push") {
                assert_eq!(d.coverage, 1.0);
                assert!(d.dropped_sensors.is_empty());
                streamed.push(d.score);
            }
        }
        assert_eq!(streamed.len(), batch.scores.len());
        for (s, b) in streamed.iter().zip(&batch.scores) {
            assert!((s - b).abs() < 1e-12, "streamed {s} vs batch {b}");
        }
    }

    /// A neural stream's engine serves its model's snapshot itself: one
    /// copy of the weights, shared by the model and the engine.
    #[test]
    fn monitor_engine_serves_the_models_own_snapshot() {
        let mut cfg = MdesConfig {
            window: WindowConfig {
                word_len: 4,
                word_stride: 1,
                sent_len: 5,
                sent_stride: 5,
            },
            ..MdesConfig::default()
        };
        cfg.build.translator = crate::TranslatorConfig::Nmt(mdes_nn::Seq2SeqConfig {
            embed_dim: 4,
            hidden: 4,
            train_steps: 4,
            ..mdes_nn::Seq2SeqConfig::default()
        });
        let traces = [square("a", 700, 0), square("b", 700, 2)];
        let nmt = Mdes::fit(&traces, 0..300, 300..450, cfg).expect("neural fit");
        let (engine, _session) = stream(&nmt, 2);
        let (own, served) = (nmt.snapshot(), engine.store().current());
        assert!(own.approx_bytes() > 0);
        assert!(Arc::ptr_eq(own, &served));
    }

    #[test]
    fn fallible_constructor_accepts_a_valid_width() {
        let (m, traces) = fitted();
        let engine = ServingEngine::new(Arc::clone(m.snapshot()));
        let mut session = engine.open_session(3).expect("width 3 is valid");
        for t in 450..480 {
            engine
                .push_opt(&mut session, &sample(&traces, t))
                .expect("push");
        }
    }

    #[test]
    fn warmup_then_periodic_emissions() {
        let (m, traces) = fitted();
        let warmup = {
            let cfg = *m.language().config();
            cfg.min_samples()
        };
        let (engine, mut session) = stream(&m, 3);
        assert_eq!(session.warmup(), warmup);
        let mut emissions = Vec::new();
        for t in 0..(warmup + 11) {
            let sample = sample(&traces, t);
            if engine
                .push_opt(&mut session, &sample)
                .expect("push")
                .is_some()
            {
                emissions.push(t);
            }
        }
        // First emission exactly at warmup - 1; then every step samples.
        assert_eq!(emissions[0], warmup - 1);
        assert_eq!(emissions[1], warmup - 1 + 5);
    }

    #[test]
    fn wrong_width_is_an_error() {
        let (m, _) = fitted();
        let (engine, mut session) = stream(&m, 3);
        let r = engine.push_opt(&mut session, &[Some("on".to_owned())]);
        assert!(matches!(
            r,
            Err(CoreError::MisalignedCorpora {
                expected: 3,
                found: 1
            })
        ));
    }

    #[test]
    fn narrow_width_is_a_typed_error_not_a_panic() {
        let (m, _) = fitted();
        let engine = ServingEngine::new(Arc::clone(m.snapshot()));
        assert!(matches!(
            engine.open_session(1),
            Err(CoreError::WidthMismatch {
                width: 1,
                needed: 3
            })
        ));
    }

    #[test]
    fn alerts_stream_with_scores() {
        let (m, traces) = fitted();
        let (engine, mut session) = stream(&m, 3);
        for t in 450..600 {
            // Decouple sensor b mid-stream.
            let sample: Vec<Option<String>> = traces
                .iter()
                .enumerate()
                .map(|(k, tr)| {
                    Some(if k == 1 && t >= 520 {
                        tr.events[t + 3].clone() // phase slip
                    } else {
                        tr.events[t].clone()
                    })
                })
                .collect();
            if let Some(d) = engine.push_opt(&mut session, &sample).expect("push") {
                assert!((0.0..=1.0).contains(&d.score));
                if d.sample_index > 90 && d.score > 0.5 {
                    assert!(!d.alerts.is_empty());
                }
            }
        }
    }

    #[test]
    fn dropout_shrinks_coverage_then_recovery_restores_it() {
        let (m, traces) = fitted();
        let (engine, mut session) = stream(&m, 3);
        let mut coverages: Vec<(usize, f64, Vec<usize>)> = Vec::new();
        for t in 450..700 {
            // Sensor 1 goes silent for samples 520..570, then recovers.
            let sample: Vec<Option<String>> = traces
                .iter()
                .enumerate()
                .map(|(k, tr)| {
                    if k == 1 && (520..570).contains(&t) {
                        None
                    } else {
                        Some(tr.events[t].clone())
                    }
                })
                .collect();
            if let Some(d) = engine
                .push_opt(&mut session, &sample)
                .expect("never a hard error")
            {
                coverages.push((t, d.coverage, d.dropped_sensors));
            }
        }
        let during: Vec<&(usize, f64, Vec<usize>)> = coverages
            .iter()
            .filter(|(t, _, _)| (525..570).contains(t))
            .collect();
        assert!(!during.is_empty(), "detections keep flowing during dropout");
        for (_, cov, dropped) in &during {
            assert!(*cov < 1.0, "dropout must reduce coverage, got {cov}");
            assert_eq!(dropped, &vec![1]);
        }
        let after: Vec<&(usize, f64, Vec<usize>)> =
            coverages.iter().filter(|(t, _, _)| *t >= 575).collect();
        assert!(!after.is_empty());
        for (_, cov, dropped) in &after {
            assert_eq!(*cov, 1.0, "recovery must restore coverage");
            assert!(dropped.is_empty());
        }
    }

    #[test]
    fn garbled_records_degrade_scores_not_the_process() {
        let (m, traces) = fitted();
        let (engine, mut session) = stream(&m, 3);
        for t in 450..600 {
            let sample: Vec<Option<String>> = traces
                .iter()
                .enumerate()
                .map(|(k, tr)| {
                    Some(if k == 2 && t % 7 == 0 {
                        "!!corrupt!!".to_owned() // never in the alphabet
                    } else {
                        tr.events[t].clone()
                    })
                })
                .collect();
            let d = engine
                .push_opt(&mut session, &sample)
                .expect("garbage is not an error");
            if let Some(d) = d {
                assert!((0.0..=1.0).contains(&d.score));
            }
        }
    }

    #[test]
    fn stuck_sensor_is_dropped_when_enabled() {
        let (m, traces) = fitted();
        let (engine, session) = stream(&m, 3);
        let mut session = session.with_degradation(DegradationConfig {
            missing_limit: 3,
            stuck_limit: Some(12),
        });
        let mut saw_drop = false;
        for t in 450..600 {
            let sample: Vec<Option<String>> = traces
                .iter()
                .enumerate()
                .map(|(k, tr)| {
                    Some(if k == 0 && t >= 500 {
                        "on".to_owned() // frozen output
                    } else {
                        tr.events[t].clone()
                    })
                })
                .collect();
            if let Some(d) = engine.push_opt(&mut session, &sample).expect("push") {
                if t >= 520 {
                    assert!(d.dropped_sensors.contains(&0), "stuck sensor flagged");
                    assert!(d.coverage < 1.0);
                    saw_drop = true;
                }
            }
        }
        assert!(saw_drop);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// A session must absorb arbitrary record strings, missing
            /// records and wrong widths without panicking: every push is
            /// `Ok` or a typed `CoreError`.
            #[test]
            fn push_never_panics(
                samples in proptest::collection::vec(
                    proptest::collection::vec("[a-z!?0-9]{0,6}", 0..5),
                    1..60,
                ),
                missing_mask in proptest::collection::vec(0u8..4, 1..60),
            ) {
                let (m, _) = fitted();
                let (engine, mut session) = stream(&m, 3);
                for (s, mask) in samples.iter().zip(&missing_mask) {
                    let opt: Vec<Option<String>> = s
                        .iter()
                        .enumerate()
                        .map(|(i, r)| {
                            if i == *mask as usize { None } else { Some(r.clone()) }
                        })
                        .collect();
                    match engine.push_opt(&mut session, &opt) {
                        Ok(_) => {}
                        Err(CoreError::MisalignedCorpora { expected, found }) => {
                            prop_assert_eq!(expected, 3);
                            prop_assert_eq!(found, s.len());
                        }
                        Err(e) => {
                            // Any other failure must still be a typed error.
                            prop_assert!(!e.to_string().is_empty());
                        }
                    }
                }
            }
        }
    }
}
