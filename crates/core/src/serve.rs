//! Serving layer: frozen artifacts, hot-swappable stores and multi-stream
//! sessions.
//!
//! Algorithm 1 already produces frozen pair models ([`FrozenPairModel`],
//! defined in [`crate::translator`] and re-exported at the crate root), and
//! a fitted [`Mdes`] moves them into the one artifact the online phase
//! reads, a shared [`GraphSnapshot`]; the fit keeps only its bookkeeping
//! (per-pair runtimes, quarantined pairs) beside it. This module holds that
//! artifact and the serving side:
//!
//! * [`GraphSnapshot`] — an immutable serving artifact, written to disk as
//!   MDSN ([`write_snapshot`](crate::checkpoint::write_snapshot)): packed
//!   weights ([`mdes_nn::ModelSpec`]) per pair, the vocab tables of the
//!   language pipeline, the detection config, and the `ScoreRange`-filtered
//!   valid-model index, computed once instead of per serving round.
//!   [`GraphSnapshot::detect`] is Algorithm 2's one offline entry point.
//!   Each value also memoizes its neural pair models' translations, so a
//!   repeated source sentence decodes once per snapshot
//!   ([`GraphSnapshot::memo_bytes`]);
//! * [`ModelStore`] — an atomically swappable `Arc<GraphSnapshot>` holder:
//!   [`ModelStore::publish`] deploys a retrained graph mid-stream without
//!   dropping a single buffered window;
//! * [`StreamSession`] — the per-stream state only: window buffers and
//!   degradation counters. Sessions are cheap (a few hundred bytes plus the
//!   buffered records), so N concurrent streams cost one shared snapshot
//!   plus N sessions instead of N full model copies;
//! * [`ServingEngine`] — multiplexes many sessions over the crate's worker
//!   pool with one scratch [`mdes_nn::InferArena`] per worker
//!   ([`ServingEngine::push_opt_many`]; a single [`ServingEngine::push_opt`]
//!   is a one-session call into it).
//!
//! A snapshot holds the trained graph's own pair models, so dev scoring,
//! offline detection and serving decode the same
//! [`FrozenNmt`](crate::translator::FrozenNmt) weights
//! through the same kernels in the same order (each pinned to the
//! paper-literal oracle by `tests/algorithm2_oracle.rs`).

use crate::algorithm2::{detect_many_with_bank, Bank, DetectJob, DetectionConfig, DetectionResult};
use crate::error::CoreError;
use crate::lifecycle::ScoreDist;
use crate::memo::TranslationMemo;
pub use crate::memo::MEMO_ENTRIES_PER_MODEL;
use crate::online::{DegradationConfig, OnlineDetection};
use crate::pipeline::Mdes;
use crate::pool::lock;
use crate::translator::{FrozenPairModel, FrozenTranslator};
use mdes_graph::RelGraph;
use mdes_lang::{LanguagePipeline, SentenceSet, MISSING_RECORD};
use mdes_nn::QuantMode;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Bounds a quantized serving artifact must respect before it may be
/// published.
///
/// Both bounds are checked at quantization time
/// ([`GraphSnapshot::quantize`] / [`GraphSnapshot::quantize_calibrated`])
/// and re-checked from the artifact's own [`QuantCalibration`] record by
/// [`ModelStore::publish`], so a quantized snapshot arriving over a
/// network publish path cannot sneak past the policy it was built under.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuantPolicy {
    /// Largest allowed elementwise `|quantized − f32|` over every
    /// re-encoded weight. Int8's per-row symmetric scale bounds this by
    /// `max|row| / 254`, so the default tolerates rows up to ~12.7.
    pub max_weight_error: f64,
    /// Largest allowed `|Δ anomaly score|` between the quantized artifact
    /// and its f32 original on the calibration windows. Anomaly scores are
    /// fractions of broken pairs in `[0, 1]`, so 0.25 means no calibration
    /// window may flip more than a quarter of the valid relationships.
    pub max_score_drift: f64,
}

impl Default for QuantPolicy {
    fn default() -> Self {
        Self {
            max_weight_error: 0.05,
            max_score_drift: 0.25,
        }
    }
}

/// The calibration record a quantized [`GraphSnapshot`] carries: what the
/// weights were re-encoded to, how far they moved, and the bounds in force
/// when the artifact was built. [`ModelStore::publish`] refuses artifacts
/// whose record is inconsistent with the actual weight encodings or
/// violates its own bounds.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuantCalibration {
    /// Weight encoding of every neural pair model.
    pub mode: QuantMode,
    /// Measured max elementwise weight error vs the f32 original.
    pub max_weight_error: f64,
    /// Weight-error bound in force at quantization time.
    pub weight_bound: f64,
    /// Measured max `|Δ anomaly score|` on the calibration windows; `None`
    /// when the artifact was quantized without calibration data
    /// ([`GraphSnapshot::quantize`] instead of `quantize_calibrated`).
    pub score_drift: Option<f64>,
    /// Score-drift bound in force at quantization time.
    pub score_bound: f64,
    /// Number of weight matrices re-encoded.
    pub matrices: usize,
}

/// An immutable serving artifact frozen from a fitted model.
///
/// Everything Algorithm 2 needs and nothing training-related: the
/// relationship graph, the language pipeline (vocab tables), the detection
/// config, one [`FrozenPairModel`] per trained pair, and the valid-model
/// index (`detection.valid_range` applied to the training scores) that
/// serving reads, computed once instead of per round.
///
/// Serving fills a bounded translation memo per neural pair model
/// ([`MEMO_ENTRIES_PER_MODEL`] entries): decode is a pure, batch-invariant
/// function of the weights, the source sentence and the output length, so
/// a memoized row is the row the decoder would return. The memo belongs to
/// this value: it is never serialized, and every new value — clones,
/// grafts and re-encodings included — starts with an empty one.
///
/// Serializable: a snapshot round-trips through serde (and
/// [`write_snapshot`](crate::checkpoint::write_snapshot)) and keeps
/// producing bit-identical detection scores. Like
/// [`DetectionConfig::threads`], the thread knob is not persisted — a
/// restored snapshot uses the host's available parallelism.
#[derive(Clone, Serialize)]
pub struct GraphSnapshot {
    graph: RelGraph,
    lang: LanguagePipeline,
    detection: DetectionConfig,
    models: Vec<FrozenPairModel>,
    valid: Vec<usize>,
    /// Present iff the artifact was re-encoded by [`GraphSnapshot::quantize`].
    quant: Option<QuantCalibration>,
    /// Translations this value's neural pair models have decoded. Never
    /// serialized, and empty in every new value, clones included.
    #[serde(skip)]
    memo: TranslationMemo,
}

// Hand-written so pre-quantization artifacts (MDSN v1 payloads, which have
// no `quant` key) keep deserializing, and so a damaged or hand-built valid
// index can never address past the model table.
impl Deserialize for GraphSnapshot {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        let graph = serde::__field(content, "graph")?;
        let lang = serde::__field(content, "lang")?;
        let detection = serde::__field(content, "detection")?;
        let models: Vec<FrozenPairModel> = serde::__field(content, "models")?;
        let valid: Vec<usize> = serde::__field(content, "valid")?;
        let quant: Option<QuantCalibration> = match content {
            serde::Content::Map(entries) if entries.iter().any(|(k, _)| k == "quant") => {
                serde::__field(content, "quant")?
            }
            _ => None,
        };
        if let Some(&bad) = valid.iter().find(|&&k| k >= models.len()) {
            return Err(serde::DeError::custom(format!(
                "valid index {bad} out of range for {} models",
                models.len()
            )));
        }
        Ok(Self {
            graph,
            lang,
            detection,
            models,
            valid,
            quant,
            memo: TranslationMemo::default(),
        })
    }
}

impl std::fmt::Debug for GraphSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphSnapshot")
            .field("sensors", &self.lang.sensor_count())
            .field("models", &self.models.len())
            .field("valid", &self.valid.len())
            .finish()
    }
}

impl GraphSnapshot {
    /// An owned copy of a fitted model's snapshot (weights included, memo
    /// empty); [`Mdes::snapshot`] shares it without a copy.
    pub fn freeze(mdes: &Mdes) -> Self {
        Self::clone(mdes.snapshot())
    }

    /// Assembles a serving artifact from its parts, computing the
    /// valid-model index from `detection.valid_range` — the one place that
    /// index is computed ([`Mdes::from_parts`] and [`GraphSnapshot::graft`]
    /// build through it). Tools that build synthetic artifacts (e.g.
    /// `exp_quant`'s 128-sensor plant) call it without an Algorithm 1 sweep.
    pub fn from_frozen_parts(
        graph: RelGraph,
        lang: LanguagePipeline,
        detection: DetectionConfig,
        models: Vec<FrozenPairModel>,
    ) -> Self {
        let valid: Vec<usize> = (0..models.len())
            .filter(|&k| detection.valid_range.contains(models[k].train_score))
            .collect();
        Self {
            graph,
            lang,
            detection,
            models,
            valid,
            quant: None,
            memo: TranslationMemo::default(),
        }
    }

    /// Splices retrained pair models into a copy of this snapshot — the
    /// partial-refit path of the continuous-learning loop (see
    /// [`crate::lifecycle`]).
    ///
    /// Each replacement overwrites the existing model with the same
    /// `(src, dst)` (or is appended, for a pair the original sweep never
    /// trained), and the relationship graph's edge weight is updated to the
    /// new training score. The valid-model index is recomputed from
    /// `detection.valid_range` over the *merged* model table — a refit that
    /// lands outside the range demotes its pair instead of serving it — and
    /// the quant-mode consistency checks [`ModelStore::publish`] runs are
    /// re-applied, so a graft can never produce an artifact the store would
    /// refuse for encoding reasons.
    ///
    /// Grafting zero replacements returns a byte-identical copy (pinned by
    /// a property test). `self` is never mutated; sessions scoring against
    /// the original snapshot are unaffected.
    ///
    /// # Errors
    ///
    /// [`CoreError::IncompatibleSnapshot`] when a replacement references an
    /// out-of-range node, is a self-pair, duplicates another replacement's
    /// `(src, dst)`, carries malformed weights
    /// ([`mdes_nn::ModelSpec::validate`]), or mixes weight encodings with
    /// the retained models (e.g. f32 refits grafted into an int8 artifact).
    pub fn graft(&self, replacements: Vec<FrozenPairModel>) -> Result<Self, CoreError> {
        let mut seen = std::collections::BTreeSet::new();
        if let Some(m) = replacements.iter().find(|m| !seen.insert((m.src, m.dst))) {
            return Err(CoreError::IncompatibleSnapshot {
                detail: format!("duplicate grafted pair ({} -> {})", m.src, m.dst),
            });
        }
        let edges: Vec<_> = replacements
            .iter()
            .map(|r| (r.src, r.dst, r.train_score))
            .collect();
        let mut models = self.models.clone();
        let mut replaced = 0usize;
        for r in replacements {
            match models.iter_mut().find(|m| m.src == r.src && m.dst == r.dst) {
                Some(slot) => {
                    *slot = r;
                    replaced += 1;
                }
                None => models.push(r),
            }
        }
        let added = models.len() - self.models.len();
        let (lang, detection) = (self.lang.clone(), self.detection.clone());
        let mut out = Self::from_frozen_parts(self.graph.clone(), lang, detection, models);
        out.quant = self.quant.clone();
        // Refuses a pair off the graph before its edge is set.
        out.validate_models()?;
        out.validate_quant()?;
        for (src, dst, score) in edges {
            out.graph.set_score(src, dst, score);
        }
        mdes_obs::event(
            "serve.graft",
            &[
                ("replaced", replaced.into()),
                ("added", added.into()),
                ("models", out.models.len().into()),
                ("valid", out.valid.len().into()),
            ],
        );
        Ok(out)
    }

    /// Checks the model table against the graph and the pipeline — one
    /// graph node per surviving sensor, and every pair model joining two
    /// distinct nodes — and every neural pair model's frozen weights for
    /// internally consistent shapes ([`mdes_nn::ModelSpec::validate`]). So a
    /// malformed model is refused at fit assembly, load, publish, canary or
    /// graft instead of panicking in Algorithm 2 on every window.
    ///
    /// # Errors
    ///
    /// [`CoreError::IncompatibleSnapshot`] naming the pair model and field.
    pub(crate) fn validate_models(&self) -> Result<(), CoreError> {
        let (n, sensors) = (self.graph.len(), self.lang.sensor_count());
        if n != sensors {
            return Err(CoreError::IncompatibleSnapshot {
                detail: format!("graph has {n} nodes for {sensors} sensors"),
            });
        }
        for (k, m) in self.models.iter().enumerate() {
            if m.src >= n || m.dst >= n || m.src == m.dst {
                return Err(CoreError::IncompatibleSnapshot {
                    detail: format!(
                        "pair model {k} ({} -> {}) is not a pair of distinct nodes below {n}",
                        m.src, m.dst
                    ),
                });
            }
            if let FrozenTranslator::Nmt(t) = &m.translator {
                t.spec
                    .validate()
                    .map_err(|e| CoreError::IncompatibleSnapshot {
                        detail: format!("pair model {k} ({} -> {}): {e}", m.src, m.dst),
                    })?;
            }
        }
        Ok(())
    }

    /// The quant-mode consistency checks shared by [`ModelStore::publish`]
    /// and [`GraphSnapshot::graft`]: a uniform weight encoding, and a
    /// calibration record consistent with it and within its own bounds.
    fn validate_quant(&self) -> Result<(), CoreError> {
        let Some(actual) = self.quant_mode() else {
            return Err(CoreError::IncompatibleSnapshot {
                detail: "pair models mix weight encodings".to_owned(),
            });
        };
        match &self.quant {
            None if actual == QuantMode::F32 => {}
            None => {
                return Err(CoreError::IncompatibleSnapshot {
                    detail: format!("{actual} weights carry no calibration record"),
                });
            }
            Some(c) => {
                if c.mode != actual {
                    return Err(CoreError::IncompatibleSnapshot {
                        detail: format!(
                            "calibration record says {} but the weights are {actual}",
                            c.mode
                        ),
                    });
                }
                // NaN-safe: a NaN error must refuse, not pass.
                if c.max_weight_error.is_nan() || c.max_weight_error > c.weight_bound {
                    return Err(CoreError::QuantizationDrift {
                        metric: "weight error".to_owned(),
                        observed: c.max_weight_error,
                        bound: c.weight_bound,
                    });
                }
                if let Some(drift) = c.score_drift {
                    if drift.is_nan() || drift > c.score_bound {
                        return Err(CoreError::QuantizationDrift {
                            metric: "score drift".to_owned(),
                            observed: drift,
                            bound: c.score_bound,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The relationship graph.
    pub fn graph(&self) -> &RelGraph {
        &self.graph
    }

    /// The fitted language pipeline (vocab tables).
    pub fn language(&self) -> &LanguagePipeline {
        &self.lang
    }

    /// The detection configuration frozen into this artifact.
    pub fn detection(&self) -> &DetectionConfig {
        &self.detection
    }

    /// All frozen pair models.
    pub fn models(&self) -> &[FrozenPairModel] {
        &self.models
    }

    /// Indices (into [`GraphSnapshot::models`]) of models whose training
    /// score falls in the frozen validity range.
    pub fn valid_models(&self) -> &[usize] {
        &self.valid
    }

    /// Minimum sample width a session must offer: the largest original
    /// sensor index the pipeline references, plus one.
    pub fn min_width(&self) -> usize {
        self.lang
            .languages()
            .iter()
            .map(|l| l.source_index + 1)
            .max()
            .unwrap_or(0)
    }

    /// Approximate heap footprint of the frozen models in bytes — the part
    /// of serving memory that is shared across all sessions.
    pub fn approx_bytes(&self) -> usize {
        self.models
            .iter()
            .map(|m| m.translator.approx_bytes())
            .sum()
    }

    /// Heap bytes held by this value's translation memo — shared across
    /// all sessions like [`GraphSnapshot::approx_bytes`], but grown by
    /// serving: 0 until the first neural decode, and at most
    /// [`MEMO_ENTRIES_PER_MODEL`] translations per neural pair model.
    pub fn memo_bytes(&self) -> usize {
        self.memo.bytes()
    }

    /// The calibration record, present iff this artifact was produced by
    /// [`GraphSnapshot::quantize`] / [`GraphSnapshot::quantize_calibrated`].
    pub fn quant(&self) -> Option<&QuantCalibration> {
        self.quant.as_ref()
    }

    /// The uniform weight encoding of the neural pair models: `Some(F32)`
    /// for a classic artifact (or one with no neural models at all),
    /// `None` when models disagree — a hand-built or tampered artifact
    /// that [`ModelStore::publish`] refuses.
    pub fn quant_mode(&self) -> Option<QuantMode> {
        let mut seen: Option<QuantMode> = None;
        for m in &self.models {
            if let Some(q) = m.translator.quant_mode() {
                match seen {
                    None => seen = Some(q),
                    Some(s) if s != q => return None,
                    Some(_) => {}
                }
            }
        }
        Some(seen.unwrap_or(QuantMode::F32))
    }

    /// Re-encodes every neural pair model's weights to `mode`, measuring
    /// the worst elementwise weight drift against `policy`.
    ///
    /// The result carries a [`QuantCalibration`] record with
    /// `score_drift: None`; run [`GraphSnapshot::quantize_calibrated`]
    /// instead to also measure (and bound) anomaly-score drift on held-out
    /// windows. Detection configuration, vocab tables, thresholds and the
    /// valid-model index are untouched — only the decode weights shrink.
    ///
    /// # Errors
    ///
    /// [`CoreError::QuantizationDrift`] when the measured weight error
    /// exceeds `policy.max_weight_error`; [`CoreError::Nn`] when a weight
    /// is non-finite.
    pub fn quantize(&self, mode: QuantMode, policy: &QuantPolicy) -> Result<Self, CoreError> {
        let mut max_err = 0.0f64;
        let mut matrices = 0usize;
        let models = self
            .models
            .iter()
            .map(|m| -> Result<FrozenPairModel, CoreError> {
                Ok(FrozenPairModel {
                    src: m.src,
                    dst: m.dst,
                    train_score: m.train_score,
                    dev_floor: m.dev_floor,
                    translator: m.translator.quantize(mode, &mut max_err, &mut matrices)?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        if max_err > policy.max_weight_error {
            return Err(CoreError::QuantizationDrift {
                metric: "weight error".to_owned(),
                observed: max_err,
                bound: policy.max_weight_error,
            });
        }
        Ok(Self {
            graph: self.graph.clone(),
            lang: self.lang.clone(),
            detection: self.detection.clone(),
            models,
            valid: self.valid.clone(),
            quant: Some(QuantCalibration {
                mode,
                max_weight_error: max_err,
                weight_bound: policy.max_weight_error,
                score_drift: None,
                score_bound: policy.max_score_drift,
                matrices,
            }),
            memo: TranslationMemo::default(),
        })
    }

    /// [`GraphSnapshot::quantize`], plus a calibration pass: both artifacts
    /// run Algorithm 2 over `calib_sets` and the largest `|Δ anomaly
    /// score|` is measured, bounded by `policy.max_score_drift`, and
    /// recorded in the artifact for [`ModelStore::publish`] to re-check.
    ///
    /// # Errors
    ///
    /// As [`GraphSnapshot::quantize`], plus
    /// [`CoreError::QuantizationDrift`] when the measured score drift
    /// exceeds the bound, and any detection error on `calib_sets`.
    pub fn quantize_calibrated(
        &self,
        mode: QuantMode,
        policy: &QuantPolicy,
        calib_sets: &[SentenceSet],
    ) -> Result<Self, CoreError> {
        let mut q = self.quantize(mode, policy)?;
        let base = self.detect(calib_sets, &self.detection, &[])?;
        let quantized = q.detect(calib_sets, &self.detection, &[])?;
        let drift = base
            .scores
            .iter()
            .zip(&quantized.scores)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        if drift > policy.max_score_drift {
            return Err(CoreError::QuantizationDrift {
                metric: "score drift".to_owned(),
                observed: drift,
                bound: policy.max_score_drift,
            });
        }
        if let Some(c) = &mut q.quant {
            c.score_drift = Some(drift);
        }
        Ok(q)
    }

    /// Runs Algorithm 2 on aligned test sentence sets against this
    /// snapshot's models under `cfg` — pass [`GraphSnapshot::detection`]
    /// for the frozen config — excluding `excluded_sensors` (graph node
    /// indices), on `cfg.threads` pool workers. The models are filtered on
    /// `cfg.valid_range` per call, so a sweep over validity ranges reuses
    /// one snapshot (and its translation memo).
    ///
    /// Every valid pair touching an excluded node leaves the participating
    /// set, and the result's `coverage` reports the fraction of valid models
    /// that remained. With every valid model excluded a degenerate result is
    /// returned (all scores `0.0`, `coverage` `0.0`) rather than an error:
    /// upstream dropout detection already explains *why* there is no
    /// evidence, and a monitoring loop must keep running through it.
    ///
    /// # Errors
    ///
    /// Empty or misaligned corpora; [`CoreError::NoValidModels`] when no
    /// model is in the validity range *before* exclusions (a broken
    /// configuration, not a degraded plant); [`CoreError::WorkerLost`] when
    /// a decode worker panics.
    pub fn detect(
        &self,
        test_sets: &[SentenceSet],
        cfg: &DetectionConfig,
        excluded_sensors: &[usize],
    ) -> Result<DetectionResult, CoreError> {
        let job = DetectJob {
            test_sets,
            excluded_sensors,
        };
        let bank = Bank {
            valid: None,
            ..self.bank()
        };
        detect_many_with_bank(&bank, &[job], cfg, cfg.threads)
            .pop()
            .expect("one result per job")
    }

    /// Algorithm 2's view of this snapshot: its frozen valid index, and
    /// its translation memo.
    pub(crate) fn bank(&self) -> Bank<'_> {
        Bank {
            nodes: self.graph.len(),
            models: &self.models,
            valid: Some(&self.valid),
            memo: Some(&self.memo),
        }
    }
}

/// Gates of a canaried rollout (see [`ModelStore::start_canary`]).
///
/// While a canary is active, the deterministic `fraction` of stream
/// sessions (selected by their immutable route key) are *shadow*-scored:
/// every completed window is scored against both the incumbent and the
/// candidate, and only the incumbent's result is emitted. Once
/// `sample_budget` paired scores accumulate, the candidate's anomaly-score
/// distribution is compared against the incumbent's — the MTAD-GAT-style
/// gate for accepting a retrained detector:
///
/// * promote when `candidate − incumbent` mean and p95 deltas are at most
///   `max_mean_delta` / `max_p95_delta` — a candidate may score *lower*
///   (a drift refit restoring a healthy band) by any amount, but may score
///   higher only within the tolerances;
/// * roll back otherwise. The incumbent never stopped serving, so rollback
///   is a no-op for emitted output.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CanaryConfig {
    /// Fraction of stream sessions shadow-scored, in `(0, 1]`.
    pub fraction: f64,
    /// Paired windows required before a decision (at least 1).
    pub sample_budget: usize,
    /// Largest tolerated `candidate − incumbent` mean-score increase.
    pub max_mean_delta: f64,
    /// Largest tolerated `candidate − incumbent` p95-score increase.
    pub max_p95_delta: f64,
}

impl Default for CanaryConfig {
    fn default() -> Self {
        Self {
            fraction: 0.25,
            sample_budget: 64,
            max_mean_delta: 0.1,
            max_p95_delta: 0.15,
        }
    }
}

/// The verdict of a completed canary, kept as [`CanaryStatus::last_decision`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum CanaryDecision {
    /// The candidate's score distribution stayed within the tolerances and
    /// was installed as the served snapshot.
    Promoted {
        /// Store version of the promoted snapshot.
        version: u64,
        /// Paired windows the decision was made over.
        samples: usize,
        /// Measured `candidate − incumbent` mean-score delta.
        mean_delta: f64,
        /// Measured `candidate − incumbent` p95-score delta.
        p95_delta: f64,
    },
    /// The candidate scored too high and was discarded; the incumbent kept
    /// serving throughout.
    RolledBack {
        /// Paired windows the decision was made over.
        samples: usize,
        /// Measured `candidate − incumbent` mean-score delta.
        mean_delta: f64,
        /// Measured `candidate − incumbent` p95-score delta.
        p95_delta: f64,
    },
}

/// A point-in-time view of the canary machinery, for the admin plane.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct CanaryStatus {
    /// Whether a canary is currently collecting samples.
    pub active: bool,
    /// Paired windows collected so far (0 when inactive).
    pub samples: usize,
    /// The active canary's sample budget (0 when inactive).
    pub budget: usize,
    /// The active canary's session fraction (0.0 when inactive).
    pub fraction: f64,
    /// The most recent completed canary's verdict, if any.
    pub last_decision: Option<CanaryDecision>,
}

/// The in-flight canary: the candidate and the paired scores collected so
/// far. Guarded by [`ModelStore::canary`].
#[derive(Debug)]
struct CanaryState {
    candidate: Arc<GraphSnapshot>,
    cfg: CanaryConfig,
    incumbent_scores: Vec<f64>,
    candidate_scores: Vec<f64>,
}

/// Deterministic session routing: whether the session holding `route_key`
/// is shadow-scored under `fraction`. A SplitMix64 finalizer spreads
/// consecutive keys uniformly, so "25% of sessions" holds even when keys
/// are assigned sequentially by [`ServingEngine::open_session`].
fn canary_routed(route_key: u64, fraction: f64) -> bool {
    let mut h = route_key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let cut = (fraction.clamp(0.0, 1.0) * (1u64 << 32) as f64) as u64;
    (h >> 32) < cut
}

/// The served snapshot and its version, swapped together under one lock.
#[derive(Debug)]
struct Served {
    snapshot: Arc<GraphSnapshot>,
    /// Starts at 1; each publish or canary promotion adds one.
    version: u64,
}

impl Served {
    /// Installs `snapshot` as the next version and returns that version.
    fn install(&mut self, snapshot: Arc<GraphSnapshot>) -> u64 {
        self.snapshot = snapshot;
        self.version += 1;
        self.version
    }
}

/// An atomically swappable holder of the current [`GraphSnapshot`].
///
/// Readers take a cheap `Arc` clone ([`ModelStore::current`]); a window
/// mid-flight keeps scoring against the snapshot it started with while
/// [`ModelStore::publish`] installs a retrained one for every window that
/// completes afterwards — no session restart, no dropped buffers.
///
/// The store also owns the two-snapshot canary state
/// ([`ModelStore::start_canary`]): an incumbent that keeps serving and a
/// candidate that is shadow-scored until the sample budget decides between
/// promotion and rollback.
// Lock order: `canary` before `current`, everywhere — `record_canary` holds
// `canary` while promoting through `current`, so any path taking them in
// the opposite order would deadlock.
#[derive(Debug)]
pub struct ModelStore {
    current: Mutex<Served>,
    canary: Mutex<Option<CanaryState>>,
    last_decision: Mutex<Option<CanaryDecision>>,
}

impl ModelStore {
    /// Starts serving `snapshot` at version 1. An `Arc` (e.g. a fitted
    /// model's [`Mdes::snapshot`]) is served as is, with no copy.
    pub fn new(snapshot: impl Into<Arc<GraphSnapshot>>) -> Self {
        Self {
            current: Mutex::new(Served {
                snapshot: snapshot.into(),
                version: 1,
            }),
            canary: Mutex::new(None),
            last_decision: Mutex::new(None),
        }
    }

    /// The snapshot currently being served.
    pub fn current(&self) -> Arc<GraphSnapshot> {
        Arc::clone(&lock(&self.current).snapshot)
    }

    /// Monotonic version of the current snapshot (bumped by each publish).
    pub fn version(&self) -> u64 {
        lock(&self.current).version
    }

    /// The current snapshot together with its version, read under one
    /// lock, so the version names exactly the snapshot returned.
    pub fn current_versioned(&self) -> (Arc<GraphSnapshot>, u64) {
        let served = lock(&self.current);
        (Arc::clone(&served.snapshot), served.version)
    }

    /// Atomically replaces the served snapshot, returning the new version.
    ///
    /// Open sessions pick the new snapshot up at their next window
    /// completion; windows already buffered are neither dropped nor
    /// reordered, because buffers live in the sessions, not here.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IncompatibleSnapshot`] when the new snapshot
    /// uses different windowing (sessions derive their buffer length and
    /// emission stride from it), requires a wider minimum sample width
    /// than the current one (open sessions were only validated against the
    /// current minimum), has a graph whose node count is not its pipeline's
    /// sensor count, or carries a pair model that is not a pair of distinct
    /// graph nodes or has malformed weights ([`mdes_nn::ModelSpec::validate`]).
    pub fn publish(&self, snapshot: GraphSnapshot) -> Result<u64, CoreError> {
        self.publish_inner(snapshot).inspect_err(|e| {
            // A refused rollout is an operator-facing incident, not just a
            // caller error: surface it on the JSONL stream too.
            mdes_obs::event(
                "serve.publish_rejected",
                &[("code", e.code().into()), ("detail", e.to_string().into())],
            );
        })
    }

    fn publish_inner(&self, snapshot: GraphSnapshot) -> Result<u64, CoreError> {
        // Holding the canary lock across the swap keeps the incumbent fixed
        // for the whole comparison a concurrent `start_canary` would pin.
        let canary = lock(&self.canary);
        if canary.is_some() {
            return Err(CoreError::Canary {
                detail: "a canary is active; cancel it or let it decide before publishing"
                    .to_owned(),
            });
        }
        let mut current = lock(&self.current);
        Self::validate_compatible(&current.snapshot, &snapshot)?;
        let models = snapshot.models.len();
        let valid = snapshot.valid.len();
        let version = current.install(Arc::new(snapshot));
        drop(current);
        drop(canary);
        mdes_obs::event(
            "serve.swap",
            &[
                ("version", (version as usize).into()),
                ("models", models.into()),
                ("valid", valid.into()),
            ],
        );
        Ok(version)
    }

    /// The compatibility checks a snapshot must pass before it may serve
    /// the sessions opened against `current` — shared by [`ModelStore::publish`]
    /// and [`ModelStore::start_canary`].
    fn validate_compatible(
        current: &GraphSnapshot,
        snapshot: &GraphSnapshot,
    ) -> Result<(), CoreError> {
        if snapshot.lang.config() != current.lang.config() {
            return Err(CoreError::IncompatibleSnapshot {
                detail: format!(
                    "window config changed: serving {:?}, offered {:?}",
                    current.lang.config(),
                    snapshot.lang.config()
                ),
            });
        }
        if snapshot.min_width() > current.min_width() {
            return Err(CoreError::IncompatibleSnapshot {
                detail: format!(
                    "minimum sample width grew from {} to {}; open sessions \
                     may be narrower",
                    current.min_width(),
                    snapshot.min_width()
                ),
            });
        }
        // Quantized artifacts must arrive with a self-consistent calibration
        // record that respects its own bounds, and every model with weights
        // that fit together — a snapshot uploaded over the network publish
        // path is otherwise free to claim whatever it likes.
        snapshot.validate_models()?;
        snapshot.validate_quant()
    }

    /// Starts a canaried rollout of `candidate` against the currently
    /// served snapshot.
    ///
    /// The candidate is validated exactly like a publish (windowing, width,
    /// quant consistency) but **not** installed: sessions selected by
    /// `cfg.fraction` are shadow-scored against it until
    /// `cfg.sample_budget` paired windows accumulate, at which point the
    /// engine promotes or rolls back automatically (see [`CanaryConfig`]).
    /// Emitted detections keep coming from the incumbent for the entire
    /// canary, so a bad candidate never influences served output.
    ///
    /// # Errors
    ///
    /// [`CoreError::Canary`] for an invalid `cfg`, an already-active
    /// canary, or a candidate with no valid models; the usual
    /// [`CoreError::IncompatibleSnapshot`] / [`CoreError::QuantizationDrift`]
    /// when the candidate could not be published to the open sessions.
    pub fn start_canary(
        &self,
        candidate: GraphSnapshot,
        cfg: CanaryConfig,
    ) -> Result<(), CoreError> {
        if !(cfg.fraction > 0.0 && cfg.fraction <= 1.0) {
            return Err(CoreError::Canary {
                detail: format!("fraction {} outside (0, 1]", cfg.fraction),
            });
        }
        if cfg.sample_budget == 0 {
            return Err(CoreError::Canary {
                detail: "sample budget must be at least 1".to_owned(),
            });
        }
        // NaN tolerances must be refused too, hence the negated form.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(cfg.max_mean_delta >= 0.0) || !(cfg.max_p95_delta >= 0.0) {
            return Err(CoreError::Canary {
                detail: "score-delta tolerances must be non-negative".to_owned(),
            });
        }
        if candidate.valid.is_empty() {
            return Err(CoreError::Canary {
                detail: "candidate has no valid models; its shadow windows would \
                         all error instead of scoring"
                    .to_owned(),
            });
        }
        let mut canary = lock(&self.canary);
        if canary.is_some() {
            return Err(CoreError::Canary {
                detail: "a canary is already active".to_owned(),
            });
        }
        Self::validate_compatible(&lock(&self.current).snapshot, &candidate)?;
        let models = candidate.models.len();
        let valid = candidate.valid.len();
        *canary = Some(CanaryState {
            candidate: Arc::new(candidate),
            cfg,
            incumbent_scores: Vec::new(),
            candidate_scores: Vec::new(),
        });
        drop(canary);
        mdes_obs::event(
            "serve.canary_start",
            &[
                ("models", models.into()),
                ("valid", valid.into()),
                ("fraction", cfg.fraction.into()),
                ("budget", cfg.sample_budget.into()),
            ],
        );
        Ok(())
    }

    /// Aborts an active canary without a verdict; returns whether one was
    /// active. The collected samples are discarded and
    /// [`CanaryStatus::last_decision`] is left untouched.
    pub fn cancel_canary(&self) -> bool {
        let cancelled = lock(&self.canary).take().is_some();
        if cancelled {
            mdes_obs::event("serve.canary_cancelled", &[]);
        }
        cancelled
    }

    /// The canary machinery's current state, for the admin plane.
    pub fn canary_status(&self) -> CanaryStatus {
        let canary = lock(&self.canary);
        let last_decision = *lock(&self.last_decision);
        match &*canary {
            Some(st) => CanaryStatus {
                active: true,
                samples: st.incumbent_scores.len(),
                budget: st.cfg.sample_budget,
                fraction: st.cfg.fraction,
                last_decision,
            },
            None => CanaryStatus {
                active: false,
                samples: 0,
                budget: 0,
                fraction: 0.0,
                last_decision,
            },
        }
    }

    /// The active candidate and routing fraction, if a canary is running —
    /// read once per engine tick, like [`ModelStore::current`].
    fn canary_arm(&self) -> Option<(Arc<GraphSnapshot>, f64)> {
        lock(&self.canary)
            .as_ref()
            .map(|st| (Arc::clone(&st.candidate), st.cfg.fraction))
    }

    /// Feeds `(incumbent, candidate)` score pairs from shadow-scored
    /// windows; decides once the budget is reached. Pairs arriving after a
    /// decision (from ticks that read the arm before it resolved) are
    /// dropped silently.
    fn record_canary(&self, pairs: &[(f64, f64)]) {
        if pairs.is_empty() {
            return;
        }
        let mut canary = lock(&self.canary);
        let Some(st) = canary.as_mut() else {
            return;
        };
        for &(inc, cand) in pairs {
            st.incumbent_scores.push(inc);
            st.candidate_scores.push(cand);
        }
        mdes_obs::counter("serve.canary_samples", pairs.len() as u64);
        if st.incumbent_scores.len() < st.cfg.sample_budget {
            return;
        }
        let st = canary.take().expect("state present");
        let inc = ScoreDist::from_samples(&st.incumbent_scores).summary();
        let cand = ScoreDist::from_samples(&st.candidate_scores).summary();
        let mean_delta = cand.mean - inc.mean;
        let p95_delta = cand.p95 - inc.p95;
        let samples = st.incumbent_scores.len();
        // NaN deltas fail both comparisons, so a pathological candidate
        // rolls back instead of promoting.
        let promote = mean_delta <= st.cfg.max_mean_delta && p95_delta <= st.cfg.max_p95_delta;
        let decision = if promote {
            let mut current = lock(&self.current);
            let models = st.candidate.models.len();
            let valid = st.candidate.valid.len();
            let version = current.install(Arc::clone(&st.candidate));
            drop(current);
            mdes_obs::event(
                "serve.swap",
                &[
                    ("version", (version as usize).into()),
                    ("models", models.into()),
                    ("valid", valid.into()),
                ],
            );
            CanaryDecision::Promoted {
                version,
                samples,
                mean_delta,
                p95_delta,
            }
        } else {
            CanaryDecision::RolledBack {
                samples,
                mean_delta,
                p95_delta,
            }
        };
        drop(canary);
        *lock(&self.last_decision) = Some(decision);
        match decision {
            CanaryDecision::Promoted { version, .. } => mdes_obs::event(
                "serve.canary_promoted",
                &[
                    ("version", (version as usize).into()),
                    ("samples", samples.into()),
                    ("mean_delta", mean_delta.into()),
                    ("p95_delta", p95_delta.into()),
                ],
            ),
            CanaryDecision::RolledBack { .. } => mdes_obs::event(
                "serve.canary_rolled_back",
                &[
                    ("samples", samples.into()),
                    ("mean_delta", mean_delta.into()),
                    ("p95_delta", p95_delta.into()),
                ],
            ),
        }
    }
}

/// Per-stream serving state: the trailing window and degradation
/// counters — nothing else. All model weights live in the shared
/// [`GraphSnapshot`], so a session costs only its buffered records.
///
/// The window is dictionary-coded per sensor: a small table of the distinct
/// raw records it holds, and a ring of `u16` indices into that table
/// (`u16`, not `u8`: a window of `n` samples can hold `n` distinct records
/// plus the last delivered one, and the window config does not bound `n`
/// below 255). A sample equal to its sensor's previous record, the common
/// case on a plant, costs one string comparison and no allocation; a new
/// record reuses a freed table slot. Records become letters only when a
/// window completes, each distinct one looked up once in the alphabet of
/// the snapshot that scores the window — a publish or a canary candidate
/// may have been fit on other days, with other alphabets.
///
/// Created by [`ServingEngine::open_session`]; pushed through
/// [`ServingEngine::push_opt`] / [`ServingEngine::push_opt_many`]. Cloning a
/// session (or dropping one) updates the engine's live-session gauge.
#[derive(Debug)]
pub struct StreamSession {
    /// Distinct records per original sensor index.
    tables: Vec<Vec<Slot>>,
    /// The window as `tables` indices, `window` entries per sensor
    /// (sensor-major); sample `seen` lands at position `seen % window`.
    ring: Vec<u16>,
    /// Samples required to form one sentence.
    window: usize,
    /// Samples between consecutive sentence completions.
    step: usize,
    /// Total samples consumed.
    seen: usize,
    /// Number of sensors expected per pushed sample.
    width: usize,
    degradation: DegradationConfig,
    /// Consecutive missing records per original sensor.
    consec_missing: Vec<usize>,
    /// Length of the current run of identical records per original sensor.
    consec_same: Vec<usize>,
    /// Table index of the last delivered (non-missing) record per original
    /// sensor; [`NO_RECORD`] before the first.
    last: Vec<u16>,
    /// Dropout state per sensor as of the previous push, so dropout and
    /// readmission emit one observability event per *transition* rather
    /// than one per sample spent in the state.
    was_dropped: Vec<bool>,
    /// One sensor's window as letter codes, reused by every encode.
    letters: Vec<u8>,
    /// The last completed window, encoded under the snapshot that scores
    /// it: one sentence set per surviving sensor, reused window to window.
    sets: Vec<SentenceSet>,
    /// Live-session gauge shared with the engine that opened this session.
    gauge: Arc<AtomicUsize>,
    /// Immutable canary routing key, assigned at open time. Whether this
    /// session is shadow-scored during a canary is a pure function of the
    /// key and the canary fraction, so routing is deterministic across
    /// restarts of the comparison.
    route_key: u64,
    /// Version of the snapshot that scored the last completed window; 0
    /// before the first.
    scored_by: u64,
}

/// `StreamSession::last` before a sensor's first delivered record; also one
/// past the largest table index a session may use.
const NO_RECORD: u16 = u16::MAX;

/// One distinct raw record of a sensor's window.
#[derive(Clone, Debug)]
struct Slot {
    record: String,
    /// Ring entries holding this slot, plus one while it is the sensor's
    /// last delivered record. A slot at zero is free for reuse.
    refs: u32,
    /// Letter code under the alphabet of the window being encoded.
    code: u8,
}

/// The table index of `record`: its own slot if the table has one, else a
/// freed slot rewritten in place, else a new slot.
fn intern(table: &mut Vec<Slot>, record: &str) -> u16 {
    let at = match table.iter().position(|s| s.record == record) {
        Some(at) => at,
        None => match table.iter().position(|s| s.refs == 0) {
            Some(free) => {
                table[free].record.clear();
                table[free].record.push_str(record);
                free
            }
            None => {
                table.push(Slot {
                    record: record.to_owned(),
                    refs: 0,
                    code: 0,
                });
                table.len() - 1
            }
        },
    };
    u16::try_from(at).expect("open_session bounds a table below NO_RECORD slots")
}

/// The graph nodes of `lang` whose sensors (original indices) are `dropped`.
fn excluded_nodes(lang: &LanguagePipeline, dropped: &[usize]) -> Vec<usize> {
    let nodes = lang.languages().iter().enumerate();
    nodes
        .filter(|(_, l)| dropped.contains(&l.source_index))
        .map(|(node, _)| node)
        .collect()
}

impl StreamSession {
    fn new(
        width: usize,
        window: usize,
        step: usize,
        gauge: Arc<AtomicUsize>,
        route_key: u64,
    ) -> Self {
        gauge.fetch_add(1, Ordering::Relaxed);
        Self {
            tables: vec![Vec::new(); width],
            ring: vec![0; width * window],
            window,
            step,
            seen: 0,
            width,
            degradation: DegradationConfig::default(),
            consec_missing: vec![0; width],
            consec_same: vec![0; width],
            last: vec![NO_RECORD; width],
            was_dropped: vec![false; width],
            letters: Vec::with_capacity(window),
            sets: Vec::new(),
            gauge,
            route_key,
            scored_by: 0,
        }
    }

    /// This session's immutable canary routing key (see [`CanaryConfig`]).
    pub fn route_key(&self) -> u64 {
        self.route_key
    }

    /// The [`ModelStore::version`] of the snapshot that scored this
    /// session's last completed window (0 before its first window), so a
    /// detection can name the model that produced it across hot-swaps.
    pub fn snapshot_version(&self) -> u64 {
        self.scored_by
    }

    /// Replaces the dropout-detection thresholds (builder style).
    #[must_use]
    pub fn with_degradation(mut self, degradation: DegradationConfig) -> Self {
        self.degradation = degradation;
        self
    }

    /// Sensors expected per pushed sample.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Samples needed before the first detection can be emitted.
    pub fn warmup(&self) -> usize {
        self.window
    }

    /// Total samples consumed so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Original indices of sensors currently considered dropped.
    pub fn dropped_sensors(&self) -> Vec<usize> {
        (0..self.width).filter(|&i| self.is_dropped(i)).collect()
    }

    /// Approximate heap footprint of this session's state in bytes — the
    /// per-stream cost that `exp_serving` compares against the shared
    /// snapshot.
    pub fn approx_bytes(&self) -> usize {
        let slots: usize = self
            .tables
            .iter()
            .flatten()
            .map(|s| std::mem::size_of::<Slot>() + s.record.capacity())
            .sum();
        let tables = slots + self.width * std::mem::size_of::<Vec<Slot>>();
        let sets: usize = self.sets.iter().map(SentenceSet::approx_bytes).sum();
        let counters = self.width
            * (2 * std::mem::size_of::<usize>()
                + std::mem::size_of::<u16>()
                + std::mem::size_of::<bool>());
        tables
            + self.ring.len() * std::mem::size_of::<u16>()
            + self.letters.capacity()
            + sets
            + counters
    }

    fn is_dropped(&self, sensor: usize) -> bool {
        self.consec_missing[sensor] >= self.degradation.missing_limit.max(1)
            || self
                .degradation
                .stuck_limit
                .is_some_and(|limit| self.consec_same[sensor] >= limit.max(1))
    }

    /// Absorbs one sample into the window; `Ok(true)` when this sample
    /// completes a sentence window.
    fn absorb(&mut self, records: &[Option<String>]) -> Result<bool, CoreError> {
        if records.len() != self.width {
            return Err(CoreError::MisalignedCorpora {
                expected: self.width,
                found: records.len(),
            });
        }
        let pos = self.seen % self.window;
        for (i, rec) in records.iter().enumerate() {
            let table = &mut self.tables[i];
            let cell = &mut self.ring[i * self.window + pos];
            if self.seen >= self.window {
                // The record leaving the window.
                table[usize::from(*cell)].refs -= 1;
            }
            let at = match rec {
                Some(r) => {
                    self.consec_missing[i] = 0;
                    let last = self.last[i];
                    if last != NO_RECORD && table[usize::from(last)].record == *r {
                        self.consec_same[i] += 1;
                        last
                    } else {
                        self.consec_same[i] = 1;
                        let at = intern(table, r);
                        table[usize::from(at)].refs += 1;
                        if last != NO_RECORD {
                            table[usize::from(last)].refs -= 1;
                        }
                        self.last[i] = at;
                        at
                    }
                }
                None => {
                    self.consec_missing[i] += 1;
                    intern(table, MISSING_RECORD)
                }
            };
            table[usize::from(at)].refs += 1;
            *cell = at;
        }
        if mdes_obs::enabled() {
            for i in 0..self.width {
                let now_dropped = self.is_dropped(i);
                if now_dropped != self.was_dropped[i] {
                    mdes_obs::event(
                        if now_dropped {
                            "online.sensor_dropped"
                        } else {
                            "online.sensor_readmitted"
                        },
                        &[("sensor", i.into()), ("sample", self.seen.into())],
                    );
                    self.was_dropped[i] = now_dropped;
                }
            }
        }
        self.seen += 1;
        Ok(self.seen >= self.window && (self.seen - self.window).is_multiple_of(self.step))
    }

    /// Encodes the (complete) window under `lang` into `out`, one sentence
    /// set per surviving sensor, reusing `out`'s buffers. Each distinct
    /// record is looked up in the sensor's alphabet once.
    fn encode_window(&mut self, lang: &LanguagePipeline, out: &mut Vec<SentenceSet>) {
        out.resize_with(lang.sensor_count(), SentenceSet::default);
        let oldest = self.seen % self.window;
        for ((node, l), set) in lang.languages().iter().enumerate().zip(out) {
            let table = &mut self.tables[l.source_index];
            for slot in table.iter_mut().filter(|s| s.refs > 0) {
                slot.code = l.alphabet.encode_one(&slot.record);
            }
            let ring = &self.ring[l.source_index * self.window..][..self.window];
            let chronological = ring[oldest..].iter().chain(&ring[..oldest]);
            self.letters.clear();
            let letters = chronological.map(|&at| table[usize::from(at)].code);
            self.letters.extend(letters);
            lang.encode_letters(node, &self.letters, set);
        }
    }
}

impl Clone for StreamSession {
    fn clone(&self) -> Self {
        self.gauge.fetch_add(1, Ordering::Relaxed);
        Self {
            tables: self.tables.clone(),
            ring: self.ring.clone(),
            window: self.window,
            step: self.step,
            seen: self.seen,
            width: self.width,
            degradation: self.degradation,
            consec_missing: self.consec_missing.clone(),
            consec_same: self.consec_same.clone(),
            last: self.last.clone(),
            was_dropped: self.was_dropped.clone(),
            letters: self.letters.clone(),
            sets: self.sets.clone(),
            gauge: Arc::clone(&self.gauge),
            route_key: self.route_key,
            scored_by: self.scored_by,
        }
    }
}

impl Drop for StreamSession {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A shared serving engine multiplexing many [`StreamSession`]s over one
/// [`ModelStore`].
///
/// Cloning the engine is cheap (two `Arc`s); clones share the store and the
/// live-session gauge, so an engine can be handed to every ingestion thread.
#[derive(Clone, Debug)]
pub struct ServingEngine {
    store: Arc<ModelStore>,
    sessions: Arc<AtomicUsize>,
    /// Next session route key; sequential keys hash to a uniform canary
    /// routing (see [`canary_routed`]).
    route_keys: Arc<AtomicU64>,
    /// Worker threads for [`ServingEngine::push_opt`] and
    /// [`ServingEngine::push_opt_many`] (0 = all CPUs).
    threads: usize,
}

impl ServingEngine {
    /// Starts an engine serving `snapshot` (see [`ModelStore::new`]).
    pub fn new(snapshot: impl Into<Arc<GraphSnapshot>>) -> Self {
        Self {
            store: Arc::new(ModelStore::new(snapshot)),
            sessions: Arc::new(AtomicUsize::new(0)),
            route_keys: Arc::new(AtomicU64::new(0)),
            threads: 0,
        }
    }

    /// Replaces the multiplexing thread count (builder style; 0 = all
    /// CPUs). Results are byte-identical at any thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The underlying hot-swappable store.
    pub fn store(&self) -> &Arc<ModelStore> {
        &self.store
    }

    /// Number of sessions currently alive (opened or cloned, not dropped).
    pub fn session_count(&self) -> usize {
        self.sessions.load(Ordering::Relaxed)
    }

    /// Opens a session over samples of `width` sensors (the original trace
    /// count used at fit time).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::WidthMismatch`] if `width` is smaller than the
    /// served snapshot's minimum width.
    pub fn open_session(&self, width: usize) -> Result<StreamSession, CoreError> {
        let snapshot = self.store.current();
        let needed = snapshot.min_width();
        if width < needed {
            return Err(CoreError::WidthMismatch { width, needed });
        }
        let cfg = *snapshot.language().config();
        if cfg.min_samples() >= usize::from(NO_RECORD) {
            return Err(CoreError::IncompatibleSnapshot {
                detail: format!(
                    "a window of {} samples is longer than a session can buffer ({})",
                    cfg.min_samples(),
                    NO_RECORD - 1
                ),
            });
        }
        let session = StreamSession::new(
            width,
            cfg.min_samples(),
            cfg.sent_stride * cfg.word_stride,
            Arc::clone(&self.sessions),
            self.route_keys.fetch_add(1, Ordering::Relaxed),
        );
        mdes_obs::observe("serve.sessions", self.session_count() as f64);
        Ok(session)
    }

    /// Consumes one possibly-incomplete multivariate sample for `session`,
    /// one record per sensor in the original fit order (values of sensors
    /// filtered out as constant are ignored). Returns a detection when this
    /// sample completes a sentence window.
    ///
    /// `None` marks a sensor that delivered no record this tick. It enters
    /// the window as the [`MISSING_RECORD`] sentinel, which encodes to the
    /// unknown letter like any garbled record the alphabet has never seen.
    /// A sensor missing (or, if enabled, stuck) past the session's
    /// [`DegradationConfig`] limits is dropped: its pairs are excluded
    /// from detection, and the detection's `coverage` and
    /// `dropped_sensors` report the surviving evidence. A dropped sensor is
    /// readmitted once its counters reset: a delivered record ends a
    /// missing run, a changed record ends a stuck run.
    ///
    /// A one-session [`ServingEngine::push_opt_many`] call. The completed
    /// window is scored against the snapshot served when the push starts:
    /// a [`ModelStore::publish`] between pushes applies from the first
    /// window completed after it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MisalignedCorpora`] when the sample width is
    /// wrong, and propagates detection errors (e.g. no valid models).
    pub fn push_opt(
        &self,
        session: &mut StreamSession,
        records: &[Option<String>],
    ) -> Result<Option<OnlineDetection>, CoreError> {
        self.push_opt_many(
            std::slice::from_mut(session),
            std::slice::from_ref(&records),
        )
        .pop()
        .expect("one result per session")
    }

    /// Pushes one sample into each of `sessions` (sample `i` into session
    /// `i`). Result `i` is session `i`'s outcome, in order; results are
    /// byte-identical to pushing serially at any thread count.
    ///
    /// Sessions that complete a window on this tick are detected *together*
    /// in one cross-session Algorithm 2 round
    /// (`detect_many_with_bank`): every window needing pair model `k` is
    /// decoded in shared `(shape)`-keyed batches, so B streams completing
    /// the same-shaped window cost one GEMM per decode step instead of B.
    /// Batch invariance of the kernels (including the quantized family)
    /// keeps the scores bitwise equal to per-session pushes.
    ///
    /// Every window completed by this call is scored against the same
    /// snapshot (read once at entry), so one tick is never split across a
    /// hot-swap; [`StreamSession::snapshot_version`] then names it.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` and `samples` have different lengths.
    pub fn push_opt_many<S: AsRef<[Option<String>]>>(
        &self,
        sessions: &mut [StreamSession],
        samples: &[S],
    ) -> Vec<Result<Option<OnlineDetection>, CoreError>> {
        assert_eq!(
            sessions.len(),
            samples.len(),
            "one sample per session required"
        );
        mdes_obs::observe("serve.sessions", self.session_count() as f64);
        let (snapshot, version) = self.store.current_versioned();
        let mut results: Vec<Option<Result<Option<OnlineDetection>, CoreError>>> =
            sessions.iter().map(|_| None).collect();

        /// A session whose window completed on this tick; its encoded
        /// window waits in the session for the shared detection round below.
        struct Completing {
            idx: usize,
            excluded: Vec<usize>,
            dropped: Vec<usize>,
            sample_index: usize,
            span: mdes_obs::Span,
        }

        // Phase 1 — absorb every sample and encode the completed windows.
        // Each session still gets its own `serve.push_us` measurement: in a
        // batched round, the effective latency of one push *is* the round's
        // duration, so the timers all run until the round ends.
        let push_timers: Vec<_> = sessions
            .iter()
            .map(|_| mdes_obs::timer("serve.push_us"))
            .collect();
        let mut completing: Vec<Completing> = Vec::new();
        for (i, (session, sample)) in sessions.iter_mut().zip(samples).enumerate() {
            match session.absorb(sample.as_ref()) {
                Err(e) => results[i] = Some(Err(e)),
                Ok(false) => results[i] = Some(Ok(None)),
                Ok(true) => {
                    let span = mdes_obs::span("online.push");
                    mdes_obs::counter("online.windows", 1);
                    let mut sets = std::mem::take(&mut session.sets);
                    session.encode_window(snapshot.language(), &mut sets);
                    session.sets = sets;
                    session.scored_by = version;
                    let dropped = session.dropped_sensors();
                    completing.push(Completing {
                        idx: i,
                        excluded: excluded_nodes(snapshot.language(), &dropped),
                        dropped,
                        sample_index: session.seen - 1,
                        span,
                    });
                }
            }
        }

        // Phase 2 — one cross-session detection round over every completed
        // window, sharing decode batches between sessions.
        let jobs: Vec<DetectJob<'_>> = completing
            .iter()
            .map(|c| DetectJob {
                test_sets: &sessions[c.idx].sets,
                excluded_sensors: &c.excluded,
            })
            .collect();
        let detections =
            detect_many_with_bank(&snapshot.bank(), &jobs, &snapshot.detection, self.threads);
        drop(jobs);

        // Shadow round — during a canary, routed sessions' windows are also
        // scored against the candidate (read once per tick, like the
        // incumbent snapshot) and the paired scores feed the comparator.
        // Emitted results below still come exclusively from the incumbent.
        // The candidate may have been fit on other days (other alphabets,
        // vocabularies or surviving sensors), so each routed window is
        // encoded, and its dropped sensors mapped, by the candidate's own
        // pipeline.
        if let Some((candidate, fraction)) = self.store.canary_arm() {
            let routed: Vec<usize> = completing
                .iter()
                .enumerate()
                .filter(|(_, c)| canary_routed(sessions[c.idx].route_key, fraction))
                .map(|(k, _)| k)
                .collect();
            if !routed.is_empty() {
                let lang = candidate.language();
                let own: Vec<(Vec<SentenceSet>, Vec<usize>)> = routed
                    .iter()
                    .map(|&k| {
                        let c = &completing[k];
                        let mut sets = Vec::new();
                        sessions[c.idx].encode_window(lang, &mut sets);
                        (sets, excluded_nodes(lang, &c.dropped))
                    })
                    .collect();
                let shadow_jobs: Vec<DetectJob<'_>> = own
                    .iter()
                    .map(|(sets, excluded)| DetectJob {
                        test_sets: sets,
                        excluded_sensors: excluded,
                    })
                    .collect();
                let shadow = detect_many_with_bank(
                    &candidate.bank(),
                    &shadow_jobs,
                    &candidate.detection,
                    self.threads,
                );
                let paired: Vec<(f64, f64)> = routed
                    .iter()
                    .zip(shadow)
                    .filter_map(|(&k, s)| match (&detections[k], s) {
                        (Ok(inc), Ok(cand)) => Some((inc.scores[0], cand.scores[0])),
                        _ => None,
                    })
                    .collect();
                self.store.record_canary(&paired);
            }
        }

        // Phase 3 — per-session outcomes.
        for (c, detection) in completing.into_iter().zip(detections) {
            let mut span = c.span;
            results[c.idx] = Some(match detection {
                Err(e) => Err(e),
                Ok(result) => {
                    span.field("sample_index", c.sample_index);
                    span.field("score", result.scores[0]);
                    span.field("coverage", result.coverage);
                    Ok(Some(OnlineDetection {
                        sample_index: c.sample_index,
                        score: result.scores[0],
                        alerts: result.alerts.into_iter().next().unwrap_or_default(),
                        coverage: result.coverage,
                        dropped_sensors: c.dropped,
                    }))
                }
            });
        }
        drop(push_timers);
        results
            .into_iter()
            .map(|r| r.expect("every session resolved"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::MdesConfig;
    use crate::translator::FrozenNmt;
    use mdes_graph::ScoreRange;
    use mdes_lang::{RawTrace, WindowConfig};
    use mdes_nn::{InferArena, ModelSpec};

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

    fn plant_cfg() -> MdesConfig {
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

    fn fitted() -> (Mdes, Vec<RawTrace>) {
        let traces = vec![
            square("a", 700, 0),
            square("b", 700, 2),
            square("c", 700, 4),
        ];
        let m = Mdes::fit(&traces, 0..300, 300..450, plant_cfg()).expect("fit");
        (m, traces)
    }

    /// A two-sensor plant trained with the paper's neural family — the
    /// quantization tests need packed neural weights to re-encode. The
    /// detection margin gives BLEU a few points of slack so quantization
    /// noise cannot flip a broken/healthy decision on this tiny fixture.
    fn neural_fitted() -> (Mdes, Vec<RawTrace>) {
        let traces = vec![square("a", 700, 0), square("b", 700, 2)];
        let mut cfg = MdesConfig {
            window: WindowConfig {
                word_len: 4,
                word_stride: 1,
                sent_len: 5,
                sent_stride: 5,
            },
            ..MdesConfig::default()
        };
        cfg.build.translator = crate::translator::TranslatorConfig::neural();
        cfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);
        cfg.detection.margin = 5.0;
        let m = Mdes::fit(&traces, 0..300, 300..450, cfg).expect("fit");
        (m, traces)
    }

    /// Malformed input never reaches the decode kernels: an out-of-vocabulary
    /// sentence decodes to `vec![0; out_len]`, a batch that cannot decode as
    /// one returns each row's single-sentence translation, and `out_len == 0`
    /// gives empty rows.
    #[test]
    fn frozen_nmt_falls_back_per_sentence_on_malformed_input() {
        let cfg = mdes_nn::Seq2SeqConfig {
            embed_dim: 4,
            hidden: 5,
            ..mdes_nn::Seq2SeqConfig::default()
        };
        let t = FrozenNmt::new(mdes_nn::Seq2Seq::new(6, 7, 1, cfg).freeze());
        let mut arena = InferArena::new();
        let alone = |src: &[u32], arena: &mut InferArena| {
            arena
                .translate_batch(t.spec(), &[src], 4)
                .pop()
                .expect("one row")
        };
        let (a, b, short): (&[u32], &[u32], &[u32]) = (&[1, 2, 3], &[5, 0, 4], &[2, 2]);
        let oov: &[u32] = &[1, 6, 3];
        assert_eq!(t.translate(oov, 4, &mut arena), vec![0; 4]);
        assert_eq!(t.translate(&[], 4, &mut arena), vec![0; 4]);
        let want = vec![alone(a, &mut arena), alone(b, &mut arena)];
        assert_eq!(t.translate_batch(&[a, b], 4, &mut arena), want);
        for batch in [vec![a, short, b], vec![a, oov, b]] {
            let rows = t.translate_batch(&batch, 4, &mut arena);
            let expected: Vec<Vec<u32>> = batch
                .iter()
                .map(|s| t.translate(s, 4, &mut arena))
                .collect();
            assert_eq!(rows, expected);
            assert_eq!((&rows[0], &rows[2]), (&want[0], &want[1]));
        }
        assert_eq!(
            t.translate_batch(&[a, b], 0, &mut arena),
            vec![Vec::<u32>::new(); 2]
        );
        assert!(t.translate(a, 0, &mut arena).is_empty());
    }

    #[test]
    fn snapshot_freezes_valid_index_and_width() {
        let (m, _) = fitted();
        let snap = GraphSnapshot::freeze(&m);
        assert_eq!(snap.min_width(), 3);
        let range = &plant_cfg().detection.valid_range;
        let expected: Vec<usize> = (0..snap.models().len())
            .filter(|&k| range.contains(snap.models()[k].train_score))
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(snap.valid_models(), expected.as_slice());
        assert!(snap.approx_bytes() > 0);
    }

    #[test]
    fn snapshot_detection_matches_the_oracle_bitwise() {
        let (m, traces) = fitted();
        let snap = m.snapshot();
        let sets = m
            .language()
            .encode_segment(&traces, 450..700)
            .expect("encode");
        let (scores, alerts) =
            crate::algorithm2::tests::oracle(snap.models(), &sets, snap.detection(), &[]);
        let got = snap.detect(&sets, snap.detection(), &[]).expect("detect");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.scores), bits(&scores));
        assert_eq!(got.alerts, alerts);
    }

    #[test]
    fn store_publish_bumps_version_and_swaps() {
        let (m, _) = fitted();
        let store = ModelStore::new(GraphSnapshot::freeze(&m));
        assert_eq!(store.version(), 1);
        let v2 = store.publish(GraphSnapshot::freeze(&m)).expect("publish");
        assert_eq!(v2, 2);
        assert_eq!(store.version(), 2);
    }

    #[test]
    fn incompatible_window_config_is_rejected() {
        let (m, traces) = fitted();
        let store = ModelStore::new(GraphSnapshot::freeze(&m));
        let mut cfg = plant_cfg();
        cfg.window.sent_len = 6;
        let other = Mdes::fit(&traces, 0..300, 300..450, cfg).expect("fit");
        let r = store.publish(GraphSnapshot::freeze(&other));
        assert!(matches!(r, Err(CoreError::IncompatibleSnapshot { .. })));
        assert_eq!(store.version(), 1, "rejected publish must not bump");
    }

    #[test]
    fn session_gauge_tracks_open_clone_and_drop() {
        let (m, _) = fitted();
        let engine = ServingEngine::new(GraphSnapshot::freeze(&m));
        assert_eq!(engine.session_count(), 0);
        let s1 = engine.open_session(3).expect("open");
        let s2 = s1.clone();
        assert_eq!(engine.session_count(), 2);
        drop(s1);
        drop(s2);
        assert_eq!(engine.session_count(), 0);
    }

    #[test]
    fn open_session_rejects_narrow_width() {
        let (m, _) = fitted();
        let engine = ServingEngine::new(GraphSnapshot::freeze(&m));
        assert!(matches!(
            engine.open_session(1),
            Err(CoreError::WidthMismatch {
                width: 1,
                needed: 3
            })
        ));
    }

    #[test]
    fn snapshot_serde_roundtrip_preserves_detection() {
        let (m, traces) = fitted();
        let snap = GraphSnapshot::freeze(&m);
        let json = serde_json::to_string(&snap).expect("serialize");
        let restored: GraphSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(restored.valid_models(), snap.valid_models());
        assert_eq!(restored.min_width(), snap.min_width());
        let sets = m
            .language()
            .encode_segment(&traces, 450..700)
            .expect("encode");
        assert_eq!(
            snap.detect(&sets, snap.detection(), &[]).expect("original"),
            restored
                .detect(&sets, restored.detection(), &[])
                .expect("restored"),
        );
    }

    #[test]
    fn quantized_snapshot_scores_stay_within_declared_drift() {
        let (m, traces) = neural_fitted();
        let snap = GraphSnapshot::freeze(&m);
        let sets = m
            .language()
            .encode_segment(&traces, 450..700)
            .expect("encode");
        let policy = QuantPolicy::default();
        let base = snap
            .detect(&sets, snap.detection(), &[])
            .expect("f32 detect");
        for mode in [QuantMode::F16, QuantMode::Int8] {
            let q = snap
                .quantize_calibrated(mode, &policy, &sets)
                .expect("quantize");
            let c = q.quant().expect("calibration record");
            assert_eq!(c.mode, mode);
            assert!(c.max_weight_error <= c.weight_bound);
            let drift = c.score_drift.expect("calibrated");
            assert!(drift <= c.score_bound, "{mode}: drift {drift}");
            assert_eq!(q.quant_mode(), Some(mode));
            assert!(c.matrices > 0);
            // The record is honest: re-measuring reproduces it.
            let scores = q.detect(&sets, q.detection(), &[]).expect("quant detect");
            let measured = base
                .scores
                .iter()
                .zip(&scores.scores)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert_eq!(measured, drift, "{mode}");
            assert!(q.approx_bytes() < snap.approx_bytes(), "{mode}");
            if mode == QuantMode::Int8 {
                assert!(
                    q.approx_bytes() * 2 <= snap.approx_bytes(),
                    "int8 must at least halve the artifact: {} vs {}",
                    q.approx_bytes(),
                    snap.approx_bytes()
                );
            }
        }
        // An impossible weight bound is enforced at quantization time.
        let strict = QuantPolicy {
            max_weight_error: 1e-12,
            ..QuantPolicy::default()
        };
        assert!(matches!(
            snap.quantize(QuantMode::Int8, &strict),
            Err(CoreError::QuantizationDrift { .. })
        ));
    }

    #[test]
    fn quantized_snapshot_serde_roundtrip_preserves_scores() {
        let (m, traces) = neural_fitted();
        let sets = m
            .language()
            .encode_segment(&traces, 450..700)
            .expect("encode");
        let q = GraphSnapshot::freeze(&m)
            .quantize_calibrated(QuantMode::Int8, &QuantPolicy::default(), &sets)
            .expect("quantize");
        let json = serde_json::to_string(&q).expect("serialize");
        let restored: GraphSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(restored.quant(), q.quant());
        assert_eq!(restored.quant_mode(), Some(QuantMode::Int8));
        assert_eq!(
            q.detect(&sets, q.detection(), &[]).expect("original"),
            restored
                .detect(&sets, restored.detection(), &[])
                .expect("restored"),
        );
    }

    #[test]
    fn snapshot_deserialize_tolerates_missing_quant_and_validates_valid_index() {
        use serde::Content;
        let (m, _) = fitted();
        let snap = GraphSnapshot::freeze(&m);
        let Content::Map(entries) = snap.to_content() else {
            panic!("snapshot serializes as a map");
        };
        // A pre-quantization (MDSN v1) payload has no `quant` key at all.
        let stripped = Content::Map(
            entries
                .iter()
                .filter(|(k, _)| k != "quant")
                .cloned()
                .collect(),
        );
        let back = GraphSnapshot::from_content(&stripped).expect("v1 payload");
        assert!(back.quant().is_none());
        assert_eq!(back.valid_models(), snap.valid_models());
        // A valid index addressing past the model table is damage, not data.
        let forged = Content::Map(
            entries
                .iter()
                .map(|(k, v)| {
                    if k == "valid" {
                        (k.clone(), vec![snap.models().len()].to_content())
                    } else {
                        (k.clone(), v.clone())
                    }
                })
                .collect(),
        );
        assert!(GraphSnapshot::from_content(&forged).is_err());
    }

    #[test]
    fn publish_accepts_calibrated_quantized_snapshot_and_rejects_forgeries() {
        let (m, traces) = neural_fitted();
        let snap = GraphSnapshot::freeze(&m);
        let sets = m
            .language()
            .encode_segment(&traces, 450..700)
            .expect("encode");
        let store = ModelStore::new(snap.clone());
        let q = snap
            .quantize_calibrated(QuantMode::Int8, &QuantPolicy::default(), &sets)
            .expect("quantize");
        store.publish(q.clone()).expect("calibrated publish");
        // Quantized weights without a calibration record are refused.
        let mut naked = q.clone();
        naked.quant = None;
        assert!(matches!(
            store.publish(naked),
            Err(CoreError::IncompatibleSnapshot { .. })
        ));
        // A record whose mode disagrees with the actual weights is refused.
        let mut lying = q.clone();
        lying.quant.as_mut().expect("record").mode = QuantMode::F16;
        assert!(matches!(
            store.publish(lying),
            Err(CoreError::IncompatibleSnapshot { .. })
        ));
        // A record violating its own recorded bounds is refused.
        let mut drifted = q.clone();
        drifted.quant.as_mut().expect("record").score_drift = Some(0.9);
        assert!(matches!(
            store.publish(drifted),
            Err(CoreError::QuantizationDrift { .. })
        ));
        let mut heavy = q.clone();
        heavy.quant.as_mut().expect("record").max_weight_error = 1.0;
        assert!(matches!(
            store.publish(heavy),
            Err(CoreError::QuantizationDrift { .. })
        ));
        // Models mixing encodings (hand-spliced artifact) are refused.
        let mut mixed = q.clone();
        mixed.models[0].translator = snap.models()[0].translator.clone();
        assert!(matches!(
            store.publish(mixed),
            Err(CoreError::IncompatibleSnapshot { .. })
        ));
    }

    #[test]
    fn quantized_push_opt_many_matches_individual_pushes() {
        let (m, traces) = neural_fitted();
        let sets = m
            .language()
            .encode_segment(&traces, 450..700)
            .expect("encode");
        let q = GraphSnapshot::freeze(&m)
            .quantize_calibrated(QuantMode::Int8, &QuantPolicy::default(), &sets)
            .expect("quantize");
        let engine = ServingEngine::new(q).with_threads(2);
        let mut many: Vec<StreamSession> = (0..3)
            .map(|_| engine.open_session(2).expect("open"))
            .collect();
        let mut single = engine.open_session(2).expect("open");
        for t in 450..530 {
            let sample: Vec<Option<String>> =
                traces.iter().map(|tr| Some(tr.events[t].clone())).collect();
            let batch = engine.push_opt_many(&mut many, &vec![sample.clone(); 3]);
            let lone = engine.push_opt(&mut single, &sample).expect("push");
            for r in batch {
                assert_eq!(r.expect("batch push"), lone);
            }
        }
    }

    #[test]
    fn push_opt_many_matches_individual_pushes() {
        let (m, traces) = fitted();
        let engine = ServingEngine::new(GraphSnapshot::freeze(&m)).with_threads(2);
        let mut many: Vec<StreamSession> = (0..4)
            .map(|_| engine.open_session(3).expect("open"))
            .collect();
        let mut single = engine.open_session(3).expect("open");
        for t in 450..560 {
            let sample: Vec<Option<String>> =
                traces.iter().map(|tr| Some(tr.events[t].clone())).collect();
            let batch = engine.push_opt_many(&mut many, &vec![sample.clone(); 4]);
            let lone = engine.push_opt(&mut single, &sample).expect("push");
            for r in batch {
                assert_eq!(r.expect("batch push"), lone);
            }
        }
    }

    /// A deliberately bad candidate: a copy of `snap` where the model for
    /// one valid pair keeps its pinned `s(i, j)` but carries the translator
    /// trained for the *opposite* direction — its translations are
    /// systematically phase-wrong, so the pair breaks on healthy traffic.
    fn sabotaged(snap: &GraphSnapshot) -> GraphSnapshot {
        let &k = snap.valid_models().first().expect("a valid pair");
        let good = &snap.models()[k];
        let reverse = snap
            .models()
            .iter()
            .find(|m| m.src == good.dst && m.dst == good.src)
            .expect("reverse pair");
        let bad = FrozenPairModel::new(
            good.src,
            good.dst,
            good.train_score,
            good.dev_floor,
            reverse.translator().clone(),
        );
        snap.graft(vec![bad]).expect("graft sabotage")
    }

    /// A copy of `good` whose pair model 1 has its weights edited by `edit`:
    /// intact bytes, impossible weights.
    fn malformed(good: &GraphSnapshot, edit: impl FnOnce(&mut ModelSpec)) -> GraphSnapshot {
        let mut bad = good.clone();
        let FrozenTranslator::Nmt(t) = &mut bad.models[1].translator else {
            panic!("neural fixture");
        };
        edit(&mut t.spec);
        bad
    }

    /// Asserts a typed refusal whose detail names every one of `needles`.
    fn assert_names(needles: &[&str], result: Result<impl std::fmt::Debug, CoreError>) {
        match result {
            Err(CoreError::IncompatibleSnapshot { detail }) => {
                assert!(needles.iter().all(|n| detail.contains(n)), "{detail}");
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }

    #[test]
    fn malformed_pair_model_is_refused_at_load_publish_canary_and_graft() {
        let (m, _) = neural_fitted();
        let good = GraphSnapshot::freeze(&m);
        good.validate_models()
            .expect("frozen models are well formed");
        let mut past_graph = good.clone();
        past_graph.models[1].dst = 7;
        let (src, mut names) = (past_graph.models[1].src, good.graph.names().to_vec());
        names.push("ghost".to_owned());
        let wide = GraphSnapshot::from_frozen_parts(
            RelGraph::new(names),
            good.lang.clone(),
            good.detection.clone(),
            good.models.clone(),
        );
        let past = format!("({src} -> 7)");
        let cases: [(&[&str], GraphSnapshot); 4] = [
            // Begin-of-sentence token past the target vocabulary.
            (
                &["pair model 1", "bos"],
                malformed(&good, |s| s.bos = s.tgt_vocab() + 5),
            ),
            // One table re-encoded int8 under f32 weights elsewhere: the
            // model would report f32 and go live with no calibration record.
            (
                &["pair model 1", "src_emb"],
                malformed(&good, |s| {
                    s.src_emb =
                        mdes_nn::QMatrix::quantize(&s.src_emb.dequantize(), QuantMode::Int8)
                            .expect("finite weights");
                }),
            ),
            // A target past the graph: Algorithm 2 would index its
            // reference sentences out of bounds.
            (&[&past], past_graph),
            // A graph node the pipeline has no sensor for.
            (&["graph has 3 nodes for 2 sensors"], wide),
        ];
        for (needles, bad) in cases {
            let bytes = crate::checkpoint::snapshot_to_bytes(&bad).expect("encode");
            assert_names(needles, crate::checkpoint::snapshot_from_bytes(&bytes));
            let store = ModelStore::new(good.clone());
            assert_names(needles, store.publish(bad.clone()));
            assert_names(
                needles,
                store.start_canary(bad.clone(), CanaryConfig::default()),
            );
            assert_eq!(store.version(), 1, "nothing refused may go live");
            assert!(!store.canary_status().active);
            let grafted = good.graft(vec![bad.models()[1].clone()]);
            if bad.graph.len() == good.graph.len() {
                assert_names(needles, grafted);
            } else {
                grafted.expect("the wide snapshot's models are well formed");
            }
        }
    }

    #[test]
    fn graft_of_zero_pairs_is_byte_identical() {
        let (m, _) = fitted();
        let snap = GraphSnapshot::freeze(&m);
        let grafted = snap.graft(Vec::new()).expect("empty graft");
        assert_eq!(
            serde_json::to_string(&snap).expect("serialize source"),
            serde_json::to_string(&grafted).expect("serialize graft"),
        );
    }

    #[test]
    fn graft_replaces_updates_graph_edge_and_revalidates() {
        let (m, _) = fitted();
        let snap = GraphSnapshot::freeze(&m);
        let &k = snap.valid_models().first().expect("valid pair");
        let victim = &snap.models()[k];
        let (src, dst) = (victim.src, victim.dst);
        // Refit lands outside the valid range: the pair must be demoted.
        let replacement = FrozenPairModel::new(
            src,
            dst,
            10.0,
            victim.dev_floor,
            victim.translator().clone(),
        );
        let grafted = snap.graft(vec![replacement]).expect("graft");
        assert_eq!(grafted.models().len(), snap.models().len());
        assert_eq!(grafted.graph().score(src, dst), Some(10.0));
        assert!(!grafted.valid_models().contains(&k));
        assert_eq!(grafted.valid_models().len(), snap.valid_models().len() - 1);
        // The source snapshot is untouched.
        assert_eq!(snap.models()[k].train_score, victim.train_score);
    }

    #[test]
    fn graft_appends_models_the_sweep_never_trained() {
        let (m, _) = fitted();
        let full = GraphSnapshot::freeze(&m);
        // A snapshot missing one trained pair...
        let partial_models: Vec<FrozenPairModel> = full.models().iter().skip(1).cloned().collect();
        let missing = full.models()[0].clone();
        let partial = GraphSnapshot::from_frozen_parts(
            full.graph().clone(),
            full.language().clone(),
            full.detection().clone(),
            partial_models,
        );
        // ... regains it through a graft.
        let grafted = partial.graft(vec![missing.clone()]).expect("graft append");
        assert_eq!(grafted.models().len(), full.models().len());
        let back = grafted
            .models()
            .iter()
            .find(|g| g.src == missing.src && g.dst == missing.dst)
            .expect("appended model");
        assert_eq!(back.train_score, missing.train_score);
    }

    #[test]
    fn graft_refuses_invalid_and_duplicate_pairs() {
        let (m, _) = fitted();
        let snap = GraphSnapshot::freeze(&m);
        let model = snap.models()[0].clone();
        let self_pair = FrozenPairModel::new(
            1,
            1,
            model.train_score,
            model.dev_floor,
            model.translator().clone(),
        );
        assert!(matches!(
            snap.graft(vec![self_pair]),
            Err(CoreError::IncompatibleSnapshot { .. })
        ));
        let out_of_range = FrozenPairModel::new(
            0,
            99,
            model.train_score,
            model.dev_floor,
            model.translator().clone(),
        );
        assert!(matches!(
            snap.graft(vec![out_of_range]),
            Err(CoreError::IncompatibleSnapshot { .. })
        ));
        assert!(matches!(
            snap.graft(vec![model.clone(), model.clone()]),
            Err(CoreError::IncompatibleSnapshot { .. })
        ));
    }

    #[test]
    fn graft_refuses_mixed_quant_modes() {
        let (m, _) = neural_fitted();
        let snap = GraphSnapshot::freeze(&m);
        let quantized = snap
            .quantize(QuantMode::Int8, &QuantPolicy::default())
            .expect("quantize");
        // Splicing an f32 refit into an int8 artifact mixes encodings.
        let f32_refit = snap.models()[0].clone();
        assert!(matches!(
            quantized.graft(vec![f32_refit]),
            Err(CoreError::IncompatibleSnapshot { .. })
        ));
        // A same-mode refit is fine.
        let int8_refit = quantized.models()[0].clone();
        quantized.graft(vec![int8_refit]).expect("uniform graft");
    }

    #[test]
    fn grafted_snapshot_round_trips_mdsn() {
        let (m, _) = fitted();
        let snap = GraphSnapshot::freeze(&m);
        let grafted = sabotaged(&snap);
        let bytes = crate::checkpoint::snapshot_to_bytes(&grafted).expect("encode");
        let back = crate::checkpoint::snapshot_from_bytes(&bytes).expect("decode");
        assert_eq!(
            serde_json::to_string(&grafted).expect("serialize graft"),
            serde_json::to_string(&back).expect("serialize roundtrip"),
        );
    }

    /// The memo belongs to one snapshot value. A clone or a graft of a
    /// warm snapshot starts cold, so a copy given other weights scores
    /// exactly like a never-served snapshot with those weights.
    #[test]
    fn clones_and_grafts_of_a_warm_snapshot_start_with_an_empty_memo() {
        let (m, traces) = neural_fitted();
        let snap = GraphSnapshot::freeze(&m);
        let sets = m
            .language()
            .encode_segment(&traces, 450..700)
            .expect("encode");
        assert_eq!(snap.memo_bytes(), 0, "nothing is allocated before a decode");
        let warm = snap
            .detect(&sets, snap.detection(), &[])
            .expect("first pass");
        assert!(snap.memo_bytes() > 0);
        assert_eq!(
            snap.detect(&sets, snap.detection(), &[]).expect("all hits"),
            warm
        );

        let grafted = sabotaged(&snap);
        let mut cloned = snap.clone();
        assert_eq!((grafted.memo_bytes(), cloned.memo_bytes()), (0, 0));
        cloned.models.clone_from(&grafted.models);
        let cold = |s: &GraphSnapshot| {
            GraphSnapshot::from_frozen_parts(
                s.graph.clone(),
                s.lang.clone(),
                s.detection.clone(),
                s.models.clone(),
            )
            .detect(&sets, &s.detection, &[])
            .expect("cold detect")
        };
        let want = cold(&grafted);
        assert_ne!(want.scores, warm.scores, "the swapped weights must show");
        assert_eq!(
            grafted
                .detect(&sets, grafted.detection(), &[])
                .expect("graft"),
            want
        );
        assert_eq!(
            cloned
                .detect(&sets, cloned.detection(), &[])
                .expect("clone"),
            cold(&cloned)
        );
        assert_eq!(
            snap.detect(&sets, snap.detection(), &[]).expect("source"),
            warm
        );
    }

    #[test]
    fn canary_routing_is_deterministic_and_tracks_fraction() {
        for key in 0..64u64 {
            assert!(canary_routed(key, 1.0), "fraction 1.0 routes everything");
            assert!(!canary_routed(key, 0.0), "fraction 0.0 routes nothing");
            assert_eq!(canary_routed(key, 0.5), canary_routed(key, 0.5));
        }
        let routed = (0..10_000u64).filter(|&k| canary_routed(k, 0.25)).count();
        assert!(
            (2_000..3_000).contains(&routed),
            "~25% of sequential keys routed, got {routed}"
        );
    }

    #[test]
    fn canary_promotes_equivalent_candidate_and_bumps_version() {
        let (m, traces) = fitted();
        let snap = GraphSnapshot::freeze(&m);
        let engine = ServingEngine::new(snap.clone()).with_threads(2);
        let mut sessions: Vec<StreamSession> = (0..2)
            .map(|_| engine.open_session(3).expect("open"))
            .collect();
        let cfg = CanaryConfig {
            fraction: 1.0,
            sample_budget: 6,
            max_mean_delta: 0.05,
            max_p95_delta: 0.05,
        };
        engine
            .store()
            .start_canary(snap.graft(Vec::new()).expect("identical candidate"), cfg)
            .expect("start");
        assert!(engine.store().canary_status().active);
        for t in 450..620 {
            let sample: Vec<Option<String>> =
                traces.iter().map(|tr| Some(tr.events[t].clone())).collect();
            let results = engine.push_opt_many(&mut sessions, &vec![sample; 2]);
            for r in results {
                r.expect("push");
            }
            if !engine.store().canary_status().active {
                break;
            }
        }
        let status = engine.store().canary_status();
        assert!(!status.active, "budget must resolve the canary");
        match status.last_decision {
            Some(CanaryDecision::Promoted {
                version,
                samples,
                mean_delta,
                p95_delta,
            }) => {
                assert_eq!(version, 2);
                assert!(samples >= 6);
                assert_eq!(mean_delta, 0.0, "identical candidate scores identically");
                assert_eq!(p95_delta, 0.0);
            }
            other => panic!("expected promotion, got {other:?}"),
        }
        assert_eq!(engine.store().version(), 2);
    }

    #[test]
    fn canary_rolls_back_bad_candidate_and_serving_stays_incumbent_bitwise() {
        let (m, traces) = fitted();
        let snap = GraphSnapshot::freeze(&m);
        // Control: the same stream with no canary at all.
        let control_engine = ServingEngine::new(snap.clone()).with_threads(2);
        let mut control = control_engine.open_session(3).expect("open");
        let engine = ServingEngine::new(snap.clone()).with_threads(2);
        let mut session = engine.open_session(3).expect("open");
        let cfg = CanaryConfig {
            fraction: 1.0,
            sample_budget: 6,
            max_mean_delta: 0.02,
            max_p95_delta: 0.02,
        };
        engine
            .store()
            .start_canary(sabotaged(&snap), cfg)
            .expect("start");
        let mut resolved_at = None;
        for t in 450..620 {
            let sample: Vec<Option<String>> =
                traces.iter().map(|tr| Some(tr.events[t].clone())).collect();
            let got = engine.push_opt(&mut session, &sample).expect("push");
            let want = control_engine
                .push_opt(&mut control, &sample)
                .expect("push");
            assert_eq!(got, want, "canary must never touch emitted output");
            if resolved_at.is_none() && !engine.store().canary_status().active {
                resolved_at = Some(t);
            }
        }
        let status = engine.store().canary_status();
        assert!(!status.active);
        match status.last_decision {
            Some(CanaryDecision::RolledBack {
                samples,
                mean_delta,
                ..
            }) => {
                assert!(samples >= 6);
                assert!(
                    mean_delta > 0.02,
                    "sabotaged candidate must score higher (delta {mean_delta})"
                );
            }
            other => panic!("expected rollback, got {other:?}"),
        }
        assert_eq!(engine.store().version(), 1, "rollback must not bump");
        assert!(resolved_at.is_some(), "budget must resolve the canary");
    }

    #[test]
    fn canary_protocol_violations_are_refused() {
        let (m, _) = fitted();
        let snap = GraphSnapshot::freeze(&m);
        let store = ModelStore::new(snap.clone());
        let bad_cfgs = [
            CanaryConfig {
                fraction: 0.0,
                ..CanaryConfig::default()
            },
            CanaryConfig {
                fraction: 1.5,
                ..CanaryConfig::default()
            },
            CanaryConfig {
                sample_budget: 0,
                ..CanaryConfig::default()
            },
            CanaryConfig {
                max_mean_delta: f64::NAN,
                ..CanaryConfig::default()
            },
        ];
        for cfg in bad_cfgs {
            assert!(matches!(
                store.start_canary(snap.clone(), cfg),
                Err(CoreError::Canary { .. })
            ));
        }
        // A candidate with no valid models can never produce shadow scores.
        let empty = GraphSnapshot::from_frozen_parts(
            snap.graph().clone(),
            snap.language().clone(),
            snap.detection().clone(),
            Vec::new(),
        );
        assert!(matches!(
            store.start_canary(empty, CanaryConfig::default()),
            Err(CoreError::Canary { .. })
        ));
        store
            .start_canary(snap.clone(), CanaryConfig::default())
            .expect("first canary");
        // One at a time, and no publishes while it runs.
        assert!(matches!(
            store.start_canary(snap.clone(), CanaryConfig::default()),
            Err(CoreError::Canary { .. })
        ));
        assert!(matches!(
            store.publish(snap.clone()),
            Err(CoreError::Canary { .. })
        ));
        assert_eq!(store.version(), 1);
        assert!(store.cancel_canary());
        assert!(!store.cancel_canary(), "already cancelled");
        store.publish(snap).expect("publish after cancel");
        assert_eq!(store.version(), 2);
    }

    /// The budget arrives from the admin socket as any `usize`; it bounds
    /// the comparison, never an up-front allocation.
    #[test]
    fn huge_canary_budget_allocates_nothing_up_front() {
        let (m, _) = fitted();
        let snap = GraphSnapshot::freeze(&m);
        let store = ModelStore::new(snap.clone());
        let cfg = CanaryConfig {
            sample_budget: usize::MAX,
            ..CanaryConfig::default()
        };
        store.start_canary(snap, cfg).expect("huge budget");
        let status = store.canary_status();
        assert!(status.active);
        assert_eq!(status.budget, usize::MAX);
        assert!(store.cancel_canary());
    }

    #[test]
    fn session_route_keys_are_sequential_and_survive_clone() {
        let (m, _) = fitted();
        let engine = ServingEngine::new(GraphSnapshot::freeze(&m));
        let a = engine.open_session(3).expect("open");
        let b = engine.open_session(3).expect("open");
        assert_eq!(a.route_key(), 0);
        assert_eq!(b.route_key(), 1);
        assert_eq!(a.clone().route_key(), 0, "a clone is the same stream");
        assert_eq!(engine.open_session(3).expect("open").route_key(), 2);
    }

    mod graft_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// Grafting any subset of refits (possibly none) yields an
            /// artifact whose valid index matches a recomputation from the
            /// merged model table, and which round-trips MDSN byte-
            /// identically. The zero-subset graft equals the source.
            #[test]
            fn graft_revalidates_and_round_trips(
                mask in 0usize..64,
                jitter in -80.0f64..20.0,
            ) {
                let (m, _) = fitted();
                let snap = GraphSnapshot::freeze(&m);
                let replacements: Vec<FrozenPairModel> = snap
                    .models()
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| mask & (1 << k) != 0)
                    .map(|(_, mo)| FrozenPairModel::new(
                        mo.src,
                        mo.dst,
                        (mo.train_score + jitter).clamp(0.0, 100.0),
                        mo.dev_floor,
                        mo.translator().clone(),
                    ))
                    .collect();
                let n_replaced = replacements.len();
                let grafted = snap.graft(replacements).expect("graft");
                prop_assert_eq!(grafted.models().len(), snap.models().len());
                let expected_valid: Vec<usize> = (0..grafted.models().len())
                    .filter(|&k| grafted
                        .detection()
                        .valid_range
                        .contains(grafted.models()[k].train_score))
                    .collect();
                prop_assert_eq!(grafted.valid_models(), expected_valid.as_slice());
                if n_replaced == 0 {
                    prop_assert_eq!(
                        serde_json::to_string(&snap).expect("src"),
                        serde_json::to_string(&grafted).expect("graft"),
                    );
                }
                let bytes = crate::checkpoint::snapshot_to_bytes(&grafted).expect("encode");
                let back = crate::checkpoint::snapshot_from_bytes(&bytes).expect("decode");
                prop_assert_eq!(
                    serde_json::to_string(&grafted).expect("graft"),
                    serde_json::to_string(&back).expect("roundtrip"),
                );
            }
        }
    }
}
