//! Shared harness for the physical-plant case study (paper §III).
//!
//! Every plant experiment (Figs. 2–9, Table I) starts from the same fitted
//! state: a generated plant and the fitted model (language pipeline,
//! relationship graph and pair models). [`PlantStudy::run`] builds that
//! state once; the experiment binaries then extract the artifact they
//! reproduce.

use mdes_core::{DetectionConfig, GraphBuildConfig, Mdes, MdesConfig, TranslatorConfig};
use mdes_graph::ScoreRange;
use mdes_lang::WindowConfig;
use mdes_synth::plant::{generate, PlantConfig, PlantData};

/// Scale of a plant study.
#[derive(Clone, Debug)]
pub struct PlantScale {
    /// Number of sensors.
    pub n_sensors: usize,
    /// Samples per day.
    pub minutes_per_day: usize,
    /// Word length (characters).
    pub word_len: usize,
    /// Sentence length (words).
    pub sent_len: usize,
}

impl PlantScale {
    /// Reduced scale (default): 32 sensors at 240 samples/day — the same
    /// 30-day / 2-anomaly structure as the paper at ~1/40 of the compute.
    pub fn reduced() -> Self {
        Self {
            n_sensors: 32,
            minutes_per_day: 240,
            word_len: 10,
            sent_len: 20,
        }
    }

    /// The paper's full scale: 128 sensors, per-minute sampling, 10-char
    /// words, 20-word sentences.
    pub fn full() -> Self {
        Self {
            n_sensors: 128,
            minutes_per_day: 1440,
            word_len: 10,
            sent_len: 20,
        }
    }
}

/// A fitted plant study.
pub struct PlantStudy {
    /// The generated dataset.
    pub plant: PlantData,
    /// The fitted model: language pipeline, relationship graph and pair
    /// models, frozen once for every detection sweep.
    pub mdes: Mdes,
}

impl PlantStudy {
    /// Generates the plant (30 days, anomalies on days 21 and 28,
    /// precursors on 19/20/27), fits languages on days 1–10, scores pairs on
    /// days 11–13 — exactly the paper's split (test = days 14–30).
    ///
    /// # Panics
    ///
    /// Panics if the study cannot be built (generation and training on
    /// well-formed synthetic data cannot fail in practice).
    pub fn run(scale: &PlantScale, translator: TranslatorConfig) -> Self {
        let plant = generate(&PlantConfig {
            n_sensors: scale.n_sensors,
            minutes_per_day: scale.minutes_per_day,
            ..PlantConfig::default()
        });
        let window = WindowConfig {
            word_len: scale.word_len,
            word_stride: 1,
            sent_len: scale.sent_len,
            sent_stride: scale.sent_len,
        };
        let cfg = MdesConfig {
            window,
            build: GraphBuildConfig {
                translator,
                ..GraphBuildConfig::default()
            },
            ..MdesConfig::default()
        };
        let (train, dev) = (plant.days_range(1, 10), plant.days_range(11, 13));
        let mdes = Mdes::fit(&plant.traces, train, dev, cfg).expect("fit plant");
        Self { plant, mdes }
    }

    /// Runs detection over the full test period (days 14–30) at a validity
    /// range, returning per-sentence scores plus each sentence's 1-based day.
    ///
    /// # Errors
    ///
    /// Returns an error when no trained model's score falls in `range`.
    pub fn detect_test_period(
        &self,
        range: ScoreRange,
    ) -> Result<(mdes_core::DetectionResult, Vec<usize>), mdes_core::CoreError> {
        let cfg = DetectionConfig {
            valid_range: range,
            ..DetectionConfig::default()
        };
        let test_range = self.plant.days_range(14, self.plant.config.days);
        let test_sets = self
            .mdes
            .language()
            .encode_segment(&self.plant.traces, test_range.clone())?;
        let result = self.mdes.snapshot().detect(&test_sets, &cfg, &[])?;
        let days: Vec<usize> = result
            .starts
            .iter()
            .map(|&s| (test_range.start + s) / self.plant.config.minutes_per_day + 1)
            .collect();
        Ok((result, days))
    }

    /// Per-sensor vocabulary sizes (Fig. 3b).
    pub fn vocabulary_sizes(&self) -> Vec<f64> {
        self.mdes
            .language()
            .languages()
            .iter()
            .map(|l| l.vocab.word_count() as f64)
            .collect()
    }

    /// Per-sensor cardinalities of surviving sensors (Fig. 3a).
    pub fn cardinalities(&self) -> Vec<f64> {
        self.mdes
            .language()
            .languages()
            .iter()
            .map(|l| l.alphabet.cardinality() as f64)
            .collect()
    }

    /// The paper's popular-sensor in-degree threshold, scaled to this node
    /// count.
    pub fn popular_threshold(&self) -> usize {
        self.mdes.graph().scaled_popular_threshold()
    }
}

/// Parses `--translator=nmt|ngram` (default ngram) into a config.
pub fn translator_from_args(args: &[String]) -> TranslatorConfig {
    match crate::report::arg_value(args, "translator").as_deref() {
        Some("nmt") => TranslatorConfig::neural(),
        _ => TranslatorConfig::fast(),
    }
}

/// Parses `--full` / `--sensors=N` into a scale.
pub fn scale_from_args(args: &[String]) -> PlantScale {
    let mut scale = if crate::report::arg_flag(args, "full") {
        PlantScale::full()
    } else {
        PlantScale::reduced()
    };
    if let Some(n) = crate::report::arg_value(args, "sensors").and_then(|v| v.parse().ok()) {
        scale.n_sensors = n;
    }
    scale
}
