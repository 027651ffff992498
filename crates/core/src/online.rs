//! Streaming (online) detection: feed one multivariate sample per tick and
//! receive a detection every time a sentence window completes.
//!
//! [`Mdes::detect_range`] scores a batch of historical samples;
//! [`OnlineMonitor`] is the production-facing equivalent of the paper's
//! *online testing phase* (Fig. 1): it buffers just enough trailing samples
//! to form one sentence per sensor and runs Algorithm 2 on each completed
//! window, so detections arrive with the granularity the sentence stride
//! configures (every 20 minutes with the paper's plant settings).
//!
//! Since the serving split, the monitor is a convenience wrapper over the
//! real machinery in [`crate::serve`]: it freezes the fitted model into a
//! [`GraphSnapshot`], starts a private [`ServingEngine`] and opens one
//! [`StreamSession`]. Monitoring many streams —
//! or hot-swapping a retrained model under a live stream — is what the
//! engine API is for; use it directly.
//!
//! # Degraded input
//!
//! Real telemetry is imperfect: records go missing, sensors die silently or
//! freeze on one value. The monitor absorbs all of it instead of erroring:
//!
//! * [`OnlineMonitor::push_opt`] accepts `None` per sensor (a missing
//!   record), substituting the [`MISSING_RECORD`](mdes_lang::MISSING_RECORD)
//!   sentinel — which encodes to the unknown letter, like any garbled record
//!   the alphabet has never seen;
//! * per-sensor counters track consecutive missing (and, optionally, stuck)
//!   samples; a sensor crossing the [`DegradationConfig`] limits is marked
//!   *dropped*, its pairs are excluded from detection, and each emitted
//!   [`OnlineDetection`] reports the surviving evidence as `coverage` plus
//!   the dropped original sensor indices;
//! * a dropped sensor that resumes delivering records is readmitted
//!   automatically once its counters reset.

use crate::error::CoreError;
use crate::pipeline::Mdes;
use crate::serve::{GraphSnapshot, ServingEngine, StreamSession};
use serde::{Deserialize, Serialize};

/// When an online sensor is considered *dropped* and excluded from
/// detection until it recovers.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DegradationConfig {
    /// Consecutive missing records (`None` pushed via
    /// [`OnlineMonitor::push_opt`]) after which a sensor counts as dropped.
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
    /// Index of the sample (0-based, counted from monitor creation) at which
    /// the window completed.
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

/// A stateful streaming detector wrapping a fitted [`Mdes`].
///
/// Samples are pushed in the *original trace order used at fit time*
/// (including sensors that were filtered out as constant — their values are
/// simply ignored).
///
/// This is single-stream sugar over [`crate::serve`]: construction freezes
/// the model once, and every push delegates to a private engine. The frozen
/// path is bit-identical to scoring against the training-state graph.
#[derive(Clone, Debug)]
pub struct OnlineMonitor {
    mdes: Mdes,
    engine: ServingEngine,
    session: StreamSession,
}

impl OnlineMonitor {
    /// Wraps a fitted model. `width` is the number of sensors per pushed
    /// sample — the length of the trace array used at fit time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::WidthMismatch`] if `width` is smaller than the
    /// largest original sensor index the model references.
    pub fn try_new(mdes: Mdes, width: usize) -> Result<Self, CoreError> {
        // Pushes detect on the engine's threads; keep the model's setting.
        let engine = ServingEngine::new(GraphSnapshot::freeze(&mdes))
            .with_threads(mdes.config().detection.threads);
        let session = engine.open_session(width)?;
        Ok(Self {
            mdes,
            engine,
            session,
        })
    }

    /// Replaces the dropout-detection thresholds (builder style).
    #[must_use]
    pub fn with_degradation(mut self, degradation: DegradationConfig) -> Self {
        self.session = self.session.with_degradation(degradation);
        self
    }

    /// The wrapped model (full training state, not the frozen artifact).
    pub fn mdes(&self) -> &Mdes {
        &self.mdes
    }

    /// The serving engine this monitor pushes through. Exposed so a caller
    /// that outgrew the single-stream wrapper can publish retrained
    /// snapshots or open further sessions without rebuilding.
    pub fn engine(&self) -> &ServingEngine {
        &self.engine
    }

    /// Samples needed before the first detection can be emitted.
    pub fn warmup(&self) -> usize {
        self.session.warmup()
    }

    /// Original indices of sensors currently considered dropped.
    pub fn dropped_sensors(&self) -> Vec<usize> {
        self.session.dropped_sensors()
    }

    /// Consumes one multivariate sample (one record per sensor, in the
    /// original fit order). Returns a detection when this sample completes a
    /// sentence window.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MisalignedCorpora`] when the sample width is
    /// wrong, and propagates detection errors (e.g. no valid models).
    pub fn push(&mut self, records: &[String]) -> Result<Option<OnlineDetection>, CoreError> {
        self.engine.push(&mut self.session, records)
    }

    /// Consumes one possibly-incomplete multivariate sample: `None` marks a
    /// sensor that delivered no record this tick. Missing records enter the
    /// window as the [`MISSING_RECORD`](mdes_lang::MISSING_RECORD) sentinel
    /// (encoding to the unknown letter); sensors missing or stuck past the
    /// [`DegradationConfig`] limits are excluded from detection until they
    /// recover, and the emitted detection's `coverage` shrinks accordingly.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MisalignedCorpora`] when the sample width is
    /// wrong, and propagates detection errors (e.g. no valid models).
    pub fn push_opt(
        &mut self,
        records: &[Option<String>],
    ) -> Result<Option<OnlineDetection>, CoreError> {
        self.engine.push_opt(&mut self.session, records)
    }
}

impl Mdes {
    /// Converts the fitted model into a streaming monitor over samples of
    /// `width` sensors (the original trace count used at fit time).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::WidthMismatch`] if `width` is smaller than the
    /// model's largest original sensor index.
    pub fn try_into_online_monitor(self, width: usize) -> Result<OnlineMonitor, CoreError> {
        OnlineMonitor::try_new(self, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::MdesConfig;
    use mdes_graph::ScoreRange;
    use mdes_lang::{RawTrace, WindowConfig};

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

    fn monitor(m: Mdes, width: usize) -> OnlineMonitor {
        m.try_into_online_monitor(width).expect("monitor")
    }

    #[test]
    fn streaming_matches_batch_detection() {
        let (m, traces) = fitted();
        let batch = m.detect_range(&traces, 450..700).expect("batch");
        let mut monitor = monitor(m, 3);
        let mut streamed: Vec<f64> = Vec::new();
        for t in 450..700 {
            let sample: Vec<String> = traces.iter().map(|tr| tr.events[t].clone()).collect();
            if let Some(d) = monitor.push(&sample).expect("push") {
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

    #[test]
    fn fallible_constructor_accepts_a_valid_width() {
        let (m, traces) = fitted();
        let mut monitor = m.try_into_online_monitor(3).expect("width 3 is valid");
        for t in 450..480 {
            let sample: Vec<String> = traces.iter().map(|tr| tr.events[t].clone()).collect();
            monitor.push(&sample).expect("push");
        }
    }

    #[test]
    fn warmup_then_periodic_emissions() {
        let (m, traces) = fitted();
        let warmup = {
            let cfg = *m.language().config();
            cfg.min_samples()
        };
        let mut monitor = monitor(m, 3);
        assert_eq!(monitor.warmup(), warmup);
        let mut emissions = Vec::new();
        for t in 0..(warmup + 11) {
            let sample: Vec<String> = traces.iter().map(|tr| tr.events[t].clone()).collect();
            if monitor.push(&sample).expect("push").is_some() {
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
        let mut monitor = monitor(m, 3);
        let r = monitor.push(&["on".to_owned()]);
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
        assert!(matches!(
            m.try_into_online_monitor(1),
            Err(CoreError::WidthMismatch {
                width: 1,
                needed: 3
            })
        ));
    }

    #[test]
    fn alerts_stream_with_scores() {
        let (m, traces) = fitted();
        let mut monitor = monitor(m, 3);
        for t in 450..600 {
            // Decouple sensor b mid-stream.
            let sample: Vec<String> = traces
                .iter()
                .enumerate()
                .map(|(k, tr)| {
                    if k == 1 && t >= 520 {
                        tr.events[t + 3].clone() // phase slip
                    } else {
                        tr.events[t].clone()
                    }
                })
                .collect();
            if let Some(d) = monitor.push(&sample).expect("push") {
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
        let mut monitor = monitor(m, 3);
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
            if let Some(d) = monitor.push_opt(&sample).expect("never a hard error") {
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
        let mut monitor = monitor(m, 3);
        for t in 450..600 {
            let sample: Vec<String> = traces
                .iter()
                .enumerate()
                .map(|(k, tr)| {
                    if k == 2 && t % 7 == 0 {
                        "!!corrupt!!".to_owned() // never in the alphabet
                    } else {
                        tr.events[t].clone()
                    }
                })
                .collect();
            let d = monitor.push(&sample).expect("garbage is not an error");
            if let Some(d) = d {
                assert!((0.0..=1.0).contains(&d.score));
            }
        }
    }

    #[test]
    fn stuck_sensor_is_dropped_when_enabled() {
        let (m, traces) = fitted();
        let mut monitor = monitor(m, 3).with_degradation(DegradationConfig {
            missing_limit: 3,
            stuck_limit: Some(12),
        });
        let mut saw_drop = false;
        for t in 450..600 {
            let sample: Vec<String> = traces
                .iter()
                .enumerate()
                .map(|(k, tr)| {
                    if k == 0 && t >= 500 {
                        "on".to_owned() // frozen output
                    } else {
                        tr.events[t].clone()
                    }
                })
                .collect();
            if let Some(d) = monitor.push(&sample).expect("push") {
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

            /// The monitor must absorb arbitrary record strings, missing
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
                let mut monitor = m.try_into_online_monitor(3).expect("monitor");
                for (s, mask) in samples.iter().zip(&missing_mask) {
                    let opt: Vec<Option<String>> = s
                        .iter()
                        .enumerate()
                        .map(|(i, r)| {
                            if i == *mask as usize { None } else { Some(r.clone()) }
                        })
                        .collect();
                    match monitor.push_opt(&opt) {
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
