//! End-to-end framework facade: fit on normal data, then monitor.
//!
//! [`Mdes::fit`] runs the full offline phase of Fig. 1 — sequence filtering,
//! encryption, word/sentence generation, the pairwise translation sweep
//! (Algorithm 1) — and holds its one output, a [`GraphSnapshot`].
//! [`GraphSnapshot::detect_range`] runs the online phase (Algorithm 2) on
//! any later sample range, and the knowledge-discovery helpers expose the
//! global/local subgraph views of §II-B.

use crate::algorithm1::{build_graph, GraphBuildConfig, QuarantinedPair, TrainedGraph};
use crate::algorithm2::{DetectionConfig, DetectionResult};
use crate::diagnosis::{diagnose, Diagnosis};
use crate::error::CoreError;
use crate::serve::GraphSnapshot;
use mdes_graph::{walktrap, Communities, RelGraph, ScoreRange, WalktrapConfig};
use mdes_lang::{LanguagePipeline, RawTrace, WindowConfig};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

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

/// A fitted analytics framework instance: the [`GraphSnapshot`] Algorithm 2
/// consumes (relationship graph, language pipeline, detection config and one
/// frozen model per trained pair), shared behind an `Arc`, plus what only
/// the fit knows — the build configuration, per-pair runtimes and
/// quarantined pairs.
///
/// Detection and knowledge discovery are [`GraphSnapshot`] methods
/// ([`GraphSnapshot::detect_range`], [`GraphSnapshot::communities`], ...);
/// [`write_snapshot`](crate::checkpoint::write_snapshot) persists the
/// snapshot, and [`read_snapshot`](crate::checkpoint::read_snapshot)
/// restores it without retraining.
#[derive(Clone)]
pub struct Mdes {
    snapshot: Arc<GraphSnapshot>,
    build: GraphBuildConfig,
    runtimes: Vec<f64>,
    quarantined: Vec<QuarantinedPair>,
}

impl std::fmt::Debug for Mdes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mdes")
            .field("sensors", &self.language().sensor_count())
            .field("edges", &self.graph().edge_count())
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
        // `LanguagePipeline::fit` refuses invalid windowing first, so a
        // config assembled in code surfaces `ZeroWindowParameter` here.
        let lang = LanguagePipeline::fit(traces, train.clone(), cfg.window)?;
        let train_sets = lang.encode_segment(traces, train)?;
        let dev_sets = lang.encode_segment(traces, dev)?;
        let trained = build_graph(&lang, &train_sets, &dev_sets, &cfg.build)?;
        Self::from_parts(cfg, lang, trained)
    }

    /// Assembles an instance from an externally built graph — the scalable
    /// offline phase is [`prescreen_pairs`](crate::prescreen::prescreen_pairs)
    /// → [`build_graph_sharded`](crate::sharded::build_graph_sharded) → this.
    /// The graph and models move into the snapshot; nothing is copied. The
    /// window configuration is `lang`'s own, so `cfg.window` is not read.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IncompatibleSnapshot`] when `trained` and
    /// `lang` do not come from the same fit, or a model is malformed (see
    /// [`ModelStore::publish`](crate::ModelStore::publish)).
    pub fn from_parts(
        cfg: MdesConfig,
        lang: LanguagePipeline,
        trained: TrainedGraph,
    ) -> Result<Self, CoreError> {
        let snapshot =
            GraphSnapshot::from_frozen_parts(trained.graph, lang, cfg.detection, trained.models);
        snapshot.validate_models()?;
        Ok(Self {
            snapshot: Arc::new(snapshot),
            build: cfg.build,
            runtimes: trained.runtimes,
            quarantined: trained.quarantined,
        })
    }

    /// The fitted model as a serving artifact: what Algorithm 2, knowledge
    /// discovery and serving read.
    pub fn snapshot(&self) -> &Arc<GraphSnapshot> {
        &self.snapshot
    }

    /// The fitted language pipeline.
    pub fn language(&self) -> &LanguagePipeline {
        self.snapshot.language()
    }

    /// The full multivariate relationship graph (Ori-MVRG).
    pub fn graph(&self) -> &RelGraph {
        self.snapshot.graph()
    }

    /// The pairwise training configuration the fit ran with.
    pub fn build_config(&self) -> &GraphBuildConfig {
        &self.build
    }

    /// Per-model runtimes in seconds (for the Fig. 4a CDF), in model order.
    pub fn runtimes(&self) -> &[f64] {
        &self.runtimes
    }

    /// All development BLEU scores (for the Fig. 4b histogram), in model
    /// order.
    pub fn scores(&self) -> Vec<f64> {
        self.snapshot
            .models()
            .iter()
            .map(|m| m.train_score)
            .collect()
    }

    /// Pairs whose training failed under a
    /// [`Degrade`](crate::FailurePolicy::Degrade) policy; their edges are
    /// absent from the graph.
    pub fn quarantined(&self) -> &[QuarantinedPair] {
        &self.quarantined
    }
}

/// Batch detection and the knowledge-discovery views of §II-B over the
/// frozen graph, pipeline and detection config.
impl GraphSnapshot {
    /// Online phase over recorded samples: encodes `test` samples of
    /// `traces` and runs Algorithm 2 under the frozen detection config.
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
        let test_sets = self.language().encode_segment(traces, test)?;
        self.detect(&test_sets, self.detection(), &[])
    }

    /// Global subgraph at a score range (§III-B1).
    pub fn global_subgraph(&self, range: &ScoreRange) -> RelGraph {
        self.graph().subgraph(range)
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
        let local = self.local_subgraph(&self.detection().valid_range, None);
        diagnose(&local, alerts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_synth::plant::{generate, PlantConfig};

    /// A generous validity range: the miniature plant's score distribution
    /// differs from the 128-sensor paper setup.
    fn small_plant_cfg() -> MdesConfig {
        MdesConfig {
            window: WindowConfig {
                word_len: 5,
                word_stride: 1,
                sent_len: 6,
                sent_stride: 6,
            },
            detection: DetectionConfig::default().with_valid_range(ScoreRange::closed(40.0, 100.0)),
            ..MdesConfig::default()
        }
    }

    fn plant() -> mdes_synth::plant::PlantData {
        generate(&PlantConfig {
            n_sensors: 10,
            days: 12,
            minutes_per_day: 288,
            n_components: 3,
            anomaly_days: vec![11],
            precursor_days: vec![],
            ..PlantConfig::default()
        })
    }

    fn fitted() -> (Mdes, mdes_synth::plant::PlantData) {
        let plant = plant();
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
        assert_eq!(m.runtimes().len(), m.snapshot().models().len());
        assert_eq!(m.scores().len(), m.snapshot().models().len());
    }

    #[test]
    fn from_parts_reassembles_a_working_instance_from_one_fit_only() {
        let plant = plant();
        let cfg = small_plant_cfg();
        let train = plant.days_range(1, 4);
        let lang = LanguagePipeline::fit(&plant.traces, train.clone(), cfg.window).expect("lang");
        let train_sets = lang.encode_segment(&plant.traces, train).expect("train");
        let dev_sets = lang
            .encode_segment(&plant.traces, plant.days_range(5, 6))
            .expect("dev");
        let trained = build_graph(&lang, &train_sets, &dev_sets, &cfg.build).expect("build");
        // A pipeline over fewer sensors than the graph is another fit's.
        let narrow = LanguagePipeline::fit(&plant.traces[..3], plant.days_range(1, 4), cfg.window)
            .expect("narrow lang");
        let refused = Mdes::from_parts(cfg.clone(), narrow, trained.clone());
        assert!(
            matches!(refused, Err(CoreError::IncompatibleSnapshot { .. })),
            "{refused:?}"
        );
        let m = Mdes::from_parts(cfg, lang, trained).expect("matching parts");
        assert!(m.graph().edge_count() > 0);
        m.snapshot()
            .detect_range(&plant.traces, plant.day_range(8))
            .expect("reassembled instance detects");
    }

    #[test]
    fn anomalous_day_scores_higher_than_normal_day() {
        let (m, plant) = fitted();
        let snap = m.snapshot();
        let normal = snap
            .detect_range(&plant.traces, plant.day_range(8))
            .expect("normal detection");
        let anomalous = snap
            .detect_range(&plant.traces, plant.day_range(11))
            .expect("anomalous detection");
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mn, ma) = (mean(&normal.scores), mean(&anomalous.scores));
        assert!(ma > mn, "anomalous {ma} should exceed normal {mn}");
    }

    #[test]
    fn knowledge_discovery_views_consistent() {
        let (m, _) = fitted();
        let snap = m.snapshot();
        let range = ScoreRange::closed(0.0, 100.0);
        let global = snap.global_subgraph(&range);
        assert_eq!(global.edge_count(), m.graph().edge_count());
        let local = snap.local_subgraph(&range, Some(3));
        assert!(local.edge_count() <= global.edge_count());
        let comms = snap.communities(&range, Some(global.len() + 1));
        // With no popular removal, every active node is in some community.
        let members: usize = comms.groups.iter().map(Vec::len).sum();
        assert_eq!(members, global.active_nodes().len());
    }

    #[test]
    fn snapshot_file_roundtrip_preserves_graph_and_detection() {
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
        let cfg = DetectionConfig::default().with_valid_range(ScoreRange::closed(0.0, 100.0));
        let detect = |s: &GraphSnapshot| {
            let sets = s
                .language()
                .encode_segment(&plant.traces, plant.day_range(8))
                .expect("encode");
            let r = s.detect(&sets, &cfg, &[]).expect("detect");
            let bits: Vec<u64> = r.scores.iter().map(|s| s.to_bits()).collect();
            (bits, r.alerts)
        };
        for m in [ngram, nmt] {
            let bytes = crate::checkpoint::snapshot_to_bytes(m.snapshot()).expect("encode");
            let restored = crate::checkpoint::snapshot_from_bytes(&bytes).expect("decode");
            assert_eq!(restored.graph(), m.graph());
            assert_eq!(detect(&restored), detect(m.snapshot()));
        }
    }

    #[test]
    fn diagnose_alerts_roundtrip() {
        let (m, plant) = fitted();
        let snap = m.snapshot();
        let res = snap
            .detect_range(&plant.traces, plant.day_range(11))
            .expect("detect");
        let worst = (0..res.scores.len())
            .max_by(|&a, &b| res.scores[a].partial_cmp(&res.scores[b]).expect("finite"))
            .expect("non-empty");
        let diag = snap.diagnose_alerts(&res.alerts[worst]);
        // Ranking lists every sensor that participates in a broken pair.
        let alerted: std::collections::HashSet<usize> = res.alerts[worst]
            .iter()
            .flat_map(|&(s, d)| [s, d])
            .collect();
        assert_eq!(diag.sensor_ranking.len(), alerted.len());
    }
}
