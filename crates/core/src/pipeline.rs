//! End-to-end framework facade: fit on normal data, then monitor.
//!
//! [`Mdes::fit`] runs the full offline phase of Fig. 1 — sequence filtering,
//! encryption, word/sentence generation, the pairwise translation sweep
//! (Algorithm 1) — and holds the resulting relationship graph.
//! [`Mdes::detect_range`] runs the online phase (Algorithm 2) on any later
//! sample range, and the knowledge-discovery helpers expose the global/local
//! subgraph views of §II-B.

use crate::algorithm1::{build_graph, GraphBuildConfig, TrainedGraph};
use crate::algorithm2::{detect, DetectionConfig, DetectionResult};
use crate::diagnosis::{diagnose, Diagnosis};
use crate::error::CoreError;
use crate::prescreen::{prescreen_pairs, PrescreenConfig, PrescreenResult};
use crate::sharded::{build_graph_sharded, ShardedSweepConfig, ShardedSweepReport};
use mdes_graph::{walktrap, Communities, RelGraph, ScoreRange, WalktrapConfig};
use mdes_lang::{LanguagePipeline, RawTrace, WindowConfig};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Full framework configuration.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MdesConfig {
    /// Windowing (characters -> words -> sentences).
    pub window: WindowConfig,
    /// Pairwise training sweep.
    pub build: GraphBuildConfig,
    /// Online detection.
    pub detection: DetectionConfig,
}

/// Scaling knobs for [`Mdes::fit_prescreened`]: the n-gram prescreen plus
/// the sharding of the surviving sweep. The per-pair training configuration
/// comes from [`MdesConfig::build`] as usual.
#[derive(Clone, Debug)]
pub struct ScalableFitConfig {
    /// Prescreen stage. Its `range` should normally match (or contain) the
    /// detection validity range, since pairs outside it never become valid
    /// edges; [`ScalableFitConfig::for_detection`] sets this up.
    pub prescreen: PrescreenConfig,
    /// Pairs per sweep shard.
    pub pairs_per_shard: usize,
    /// Directory for per-shard resume checkpoints (`None` disables).
    pub checkpoint_dir: Option<String>,
    /// Within-shard checkpoint cadence.
    pub checkpoint_every: usize,
}

impl Default for ScalableFitConfig {
    fn default() -> Self {
        let sharded = ShardedSweepConfig::default();
        Self {
            prescreen: PrescreenConfig::default(),
            pairs_per_shard: sharded.pairs_per_shard,
            checkpoint_dir: None,
            checkpoint_every: sharded.checkpoint_every,
        }
    }
}

impl ScalableFitConfig {
    /// A configuration whose prescreen band is derived from `detection`'s
    /// validity range (widened by `margin` BLEU points on both sides).
    pub fn for_detection(detection: &DetectionConfig, margin: f64) -> Self {
        Self {
            prescreen: PrescreenConfig {
                range: detection.valid_range,
                margin,
                ..PrescreenConfig::default()
            },
            ..Self::default()
        }
    }
}

/// A fitted analytics framework instance.
///
/// Serializable: a trained instance can be persisted with `serde` and
/// restored for online monitoring without retraining.
#[derive(Clone, Serialize, Deserialize)]
pub struct Mdes {
    cfg: MdesConfig,
    lang: LanguagePipeline,
    trained: TrainedGraph,
}

impl std::fmt::Debug for Mdes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mdes")
            .field("sensors", &self.lang.sensor_count())
            .field("edges", &self.trained.graph.edge_count())
            .finish()
    }
}

impl Mdes {
    /// Offline phase: fits languages on `train`, trains a translator per
    /// ordered sensor pair, scores each on `dev`, and assembles the graph.
    ///
    /// # Errors
    ///
    /// Propagates language-pipeline and training errors (empty/constant
    /// data, bad ranges, fewer than two surviving sensors).
    pub fn fit(
        traces: &[RawTrace],
        train: Range<usize>,
        dev: Range<usize>,
        cfg: MdesConfig,
    ) -> Result<Self, CoreError> {
        // Reject invalid windowing at the construction boundary: a config
        // assembled in code (bypassing the validating `Deserialize`) must
        // surface `ZeroWindowParameter` here, not panic mid-windowing.
        cfg.window.validate().map_err(CoreError::from)?;
        let lang = LanguagePipeline::fit(traces, train.clone(), cfg.window)?;
        let train_sets = lang.encode_segment(traces, train)?;
        let dev_sets = lang.encode_segment(traces, dev)?;
        let trained = build_graph(&lang, &train_sets, &dev_sets, &cfg.build)?;
        Ok(Self { cfg, lang, trained })
    }

    /// Scalable offline phase: prescreens all ordered pairs with the n-gram
    /// translator, then trains only the survivors in independently
    /// checkpointed shards with per-shard streamed corpora. The fitted
    /// instance behaves exactly like one from [`Mdes::fit`], except pairs
    /// the prescreen pruned have no model (and no edge) — by construction
    /// those pairs could not have produced valid edges anyway.
    ///
    /// Returns the instance plus the prescreen and sweep reports, so
    /// callers can record recall, pruning, and memory measurements.
    ///
    /// # Errors
    ///
    /// Propagates language-pipeline, prescreen, and sharded-sweep errors;
    /// [`CoreError::NoValidModels`] when the prescreen prunes every pair.
    pub fn fit_prescreened(
        traces: &[RawTrace],
        train: Range<usize>,
        dev: Range<usize>,
        cfg: MdesConfig,
        scale: &ScalableFitConfig,
    ) -> Result<(Self, PrescreenResult, ShardedSweepReport), CoreError> {
        cfg.window.validate().map_err(CoreError::from)?;
        let lang = LanguagePipeline::fit(traces, train.clone(), cfg.window)?;
        let screened =
            prescreen_pairs(&lang, traces, train.clone(), dev.clone(), &scale.prescreen)?;
        let sharded_cfg = ShardedSweepConfig {
            build: cfg.build.clone(),
            pairs_per_shard: scale.pairs_per_shard,
            checkpoint_dir: scale.checkpoint_dir.clone(),
            checkpoint_every: scale.checkpoint_every,
        };
        let (trained, report) = build_graph_sharded(
            &lang,
            traces,
            train,
            dev,
            &screened.survivors(),
            &sharded_cfg,
        )?;
        Ok((Self { cfg, lang, trained }, screened, report))
    }

    /// Assembles an instance from an externally built graph (e.g. a sharded
    /// sweep driven through the lower-level
    /// [`build_graph_sharded`](crate::sharded::build_graph_sharded) API).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TooFewSensors`] when `trained` references a
    /// sensor index outside `lang`'s surviving languages — the graph and
    /// pipeline must come from the same fit.
    pub fn from_parts(
        cfg: MdesConfig,
        lang: LanguagePipeline,
        trained: TrainedGraph,
    ) -> Result<Self, CoreError> {
        let n = lang.sensor_count();
        let max_ref = trained
            .models()
            .iter()
            .flat_map(|m| [m.src, m.dst])
            .max()
            .map_or(0, |m| m + 1);
        if max_ref > n {
            return Err(CoreError::TooFewSensors { available: n });
        }
        Ok(Self { cfg, lang, trained })
    }

    /// The fitted language pipeline.
    pub fn language(&self) -> &LanguagePipeline {
        &self.lang
    }

    /// The trained pairwise models and graph.
    pub fn trained(&self) -> &TrainedGraph {
        &self.trained
    }

    /// The full multivariate relationship graph (Ori-MVRG).
    pub fn graph(&self) -> &RelGraph {
        &self.trained.graph
    }

    /// The configuration in effect.
    pub fn config(&self) -> &MdesConfig {
        &self.cfg
    }

    /// Online phase: detects anomalies over `test` samples of the same
    /// traces.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid ranges or when no model falls in the
    /// validity range.
    pub fn detect_range(
        &self,
        traces: &[RawTrace],
        test: Range<usize>,
    ) -> Result<DetectionResult, CoreError> {
        let test_sets = self.lang.encode_segment(traces, test)?;
        detect(&self.trained, &test_sets, &self.cfg.detection)
    }

    /// Global subgraph at a score range (§III-B1).
    pub fn global_subgraph(&self, range: &ScoreRange) -> RelGraph {
        self.trained.graph.subgraph(range)
    }

    /// Local subgraph: global subgraph with popular sensors removed
    /// (§III-B2). `popular_threshold = None` uses the scaled paper threshold.
    pub fn local_subgraph(&self, range: &ScoreRange, popular_threshold: Option<usize>) -> RelGraph {
        let sub = self.global_subgraph(range);
        let thr = popular_threshold.unwrap_or_else(|| sub.scaled_popular_threshold());
        let popular = sub.popular(thr);
        sub.without_nodes(&popular)
    }

    /// Sensor communities of the local subgraph via Walktrap (§II-B).
    pub fn communities(&self, range: &ScoreRange, popular_threshold: Option<usize>) -> Communities {
        walktrap(
            &self.local_subgraph(range, popular_threshold),
            &WalktrapConfig::default(),
        )
    }

    /// Diagnoses one detection timestamp against the local subgraph at the
    /// detection validity range.
    pub fn diagnose_alerts(&self, alerts: &[(usize, usize)]) -> Diagnosis {
        let local = self.local_subgraph(&self.cfg.detection.valid_range, None);
        diagnose(&local, alerts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_synth::plant::{generate, PlantConfig};

    fn small_plant_cfg() -> MdesConfig {
        MdesConfig {
            window: WindowConfig {
                word_len: 5,
                word_stride: 1,
                sent_len: 6,
                sent_stride: 6,
            },
            ..MdesConfig::default()
        }
    }

    fn fitted() -> (Mdes, mdes_synth::plant::PlantData) {
        let plant = generate(&PlantConfig {
            n_sensors: 10,
            days: 12,
            minutes_per_day: 288,
            n_components: 3,
            anomaly_days: vec![11],
            precursor_days: vec![],
            ..PlantConfig::default()
        });
        let train = plant.days_range(1, 4);
        let dev = plant.days_range(5, 6);
        let m = Mdes::fit(&plant.traces, train, dev, small_plant_cfg()).expect("fit");
        (m, plant)
    }

    #[test]
    fn fit_builds_dense_graph() {
        let (m, _) = fitted();
        let n = m.language().sensor_count();
        assert!(n >= 2);
        assert_eq!(m.graph().edge_count(), n * (n - 1));
    }

    #[test]
    fn fit_prescreened_with_open_band_matches_fit() {
        let (m, plant) = fitted();
        let train = plant.days_range(1, 4);
        let dev = plant.days_range(5, 6);
        // The full BLEU band with zero margin keeps every pair, so the
        // prescreened + sharded path must reproduce the monolithic graph.
        let scale = ScalableFitConfig {
            prescreen: crate::prescreen::PrescreenConfig {
                range: ScoreRange::closed(0.0, 100.0),
                margin: 0.0,
                ..crate::prescreen::PrescreenConfig::default()
            },
            pairs_per_shard: 7,
            checkpoint_dir: None,
            checkpoint_every: 4,
        };
        let (m2, screened, report) =
            Mdes::fit_prescreened(&plant.traces, train, dev, small_plant_cfg(), &scale)
                .expect("prescreened fit");
        assert_eq!(screened.pruned(), 0);
        let n = m.language().sensor_count();
        assert_eq!(report.pairs_total, n * (n - 1));
        assert!(report.shards >= 2, "expected multiple shards");
        assert_eq!(m2.graph().edge_count(), m.graph().edge_count());
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    assert_eq!(m2.graph().score(i, j), m.graph().score(i, j));
                }
            }
        }
    }

    #[test]
    fn from_parts_reassembles_a_working_instance() {
        let (m, plant) = fitted();
        let Mdes {
            mut cfg,
            lang,
            trained,
        } = m;
        cfg.detection.valid_range = ScoreRange::closed(40.0, 100.0);
        let m2 = Mdes::from_parts(cfg, lang, trained).expect("matching parts");
        assert!(m2.graph().edge_count() > 0);
        m2.detect_range(&plant.traces, plant.day_range(8))
            .expect("reassembled instance detects");
    }

    #[test]
    fn anomalous_day_scores_higher_than_normal_day() {
        let (m, plant) = fitted();
        // Use a generous validity range — the miniature plant's score
        // distribution differs from the 128-sensor paper setup.
        let mut mdes = m;
        mdes.cfg.detection.valid_range = ScoreRange::closed(40.0, 100.0);
        let normal = mdes
            .detect_range(&plant.traces, plant.day_range(8))
            .expect("normal detection");
        let anomalous = mdes
            .detect_range(&plant.traces, plant.day_range(11))
            .expect("anomalous detection");
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mn, ma) = (mean(&normal.scores), mean(&anomalous.scores));
        assert!(ma > mn, "anomalous {ma} should exceed normal {mn}");
    }

    #[test]
    fn knowledge_discovery_views_consistent() {
        let (m, _) = fitted();
        let range = ScoreRange::closed(0.0, 100.0);
        let global = m.global_subgraph(&range);
        assert_eq!(global.edge_count(), m.graph().edge_count());
        let local = m.local_subgraph(&range, Some(3));
        assert!(local.edge_count() <= global.edge_count());
        let comms = m.communities(&range, Some(global.len() + 1));
        // With no popular removal, every active node is in some community.
        let members: usize = comms.groups.iter().map(Vec::len).sum();
        assert_eq!(members, global.active_nodes().len());
    }

    #[test]
    fn serde_roundtrip_preserves_graph_and_detection() {
        let (ngram, plant) = fitted();
        // A few train steps give every neural pair weights of its own.
        let mut cfg = small_plant_cfg();
        cfg.build.translator = crate::TranslatorConfig::Nmt(mdes_nn::Seq2SeqConfig {
            embed_dim: 4,
            hidden: 4,
            train_steps: 4,
            ..mdes_nn::Seq2SeqConfig::default()
        });
        let (train, dev) = (plant.days_range(1, 4), plant.days_range(5, 6));
        let nmt = Mdes::fit(&plant.traces, train, dev, cfg).expect("neural fit");
        let detect = |m: &Mdes| {
            let r = m
                .detect_range(&plant.traces, plant.day_range(8))
                .expect("detect");
            let bits: Vec<u64> = r.scores.iter().map(|s| s.to_bits()).collect();
            (bits, r.alerts)
        };
        for mut m in [ngram, nmt] {
            m.cfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);
            let json = serde_json::to_string(&m).expect("serialize");
            let restored: Mdes = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(restored.graph(), m.graph());
            assert_eq!(restored.trained().runtimes(), m.trained().runtimes());
            assert_eq!(detect(&restored), detect(&m));
        }
    }

    #[test]
    fn diagnose_alerts_roundtrip() {
        let (mut m, plant) = fitted();
        m.cfg.detection.valid_range = ScoreRange::closed(40.0, 100.0);
        let res = m
            .detect_range(&plant.traces, plant.day_range(11))
            .expect("detect");
        let worst = (0..res.scores.len())
            .max_by(|&a, &b| res.scores[a].partial_cmp(&res.scores[b]).expect("finite"))
            .expect("non-empty");
        let diag = m.diagnose_alerts(&res.alerts[worst]);
        // Ranking lists every sensor that participates in a broken pair.
        let alerted: std::collections::HashSet<usize> = res.alerts[worst]
            .iter()
            .flat_map(|&(s, d)| [s, d])
            .collect();
        assert_eq!(diag.sensor_ranking.len(), alerted.len());
    }
}
