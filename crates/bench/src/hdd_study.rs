//! Shared harness for the HDD case study (paper §IV).
//!
//! Mirrors the paper's protocol: drives with a long history are selected,
//! continuous SMART features are discretized with schemes fitted on pooled
//! training data (binary for zero-inflated counters, quintiles otherwise),
//! and training data is aggregated across all drives so that one directional
//! model exists per feature pair. Detection then runs per drive over its
//! final month, with its development month as the normal baseline.

use mdes_core::{
    build_graph, DetectionConfig, GraphBuildConfig, Mdes, MdesConfig, TranslatorConfig,
};
use mdes_graph::ScoreRange;
use mdes_lang::{LanguagePipeline, RawTrace, SentenceSet, WindowConfig};
use mdes_synth::hdd::{generate, HddConfig, HddData};
use std::ops::Range;

/// Per-drive windows used by the study (in days of that drive's telemetry).
#[derive(Clone, Debug)]
pub struct DriveWindows {
    /// Index into `fleet.drives`.
    pub drive: usize,
    /// Discretized traces (shared feature set/order across drives).
    pub traces: Vec<RawTrace>,
    /// Training days.
    pub train: Range<usize>,
    /// Development days.
    pub dev: Range<usize>,
    /// Test days (ends at failure for failed drives).
    pub test: Range<usize>,
}

/// A fitted HDD study.
pub struct HddStudy {
    /// The generated fleet.
    pub fleet: HddData,
    /// The model fitted on pooled training data: language pipeline,
    /// relationship graph and one pair model per feature pair, frozen once
    /// for every detection sweep.
    pub mdes: Mdes,
    /// Per-drive windows for detection.
    pub drives: Vec<DriveWindows>,
}

/// Per-drive detection outcome.
#[derive(Clone, Debug)]
pub struct DriveOutcome {
    /// Index into `fleet.drives`.
    pub drive: usize,
    /// Whether the drive actually fails.
    pub failed: bool,
    /// Max anomaly score over the development (known-normal) month.
    pub dev_baseline: f64,
    /// Anomaly scores over the test month.
    pub test_scores: Vec<f64>,
    /// Whether the detection rule fired.
    pub detected: bool,
}

impl HddStudy {
    /// Builds the study: generates a fleet (`days` per healthy drive),
    /// fits pooled discretization schemes, trains one model per ordered
    /// feature pair on the aggregated training sentences of all drives.
    ///
    /// Each drive contributes its last 110 days: 60 train / 25 dev / 25
    /// test. Drives with shorter telemetry are excluded (the paper keeps
    /// drives with 10+ months of data).
    ///
    /// # Panics
    ///
    /// Panics if generation or training fails (cannot happen on well-formed
    /// synthetic data).
    pub fn run(cfg: &HddConfig, translator: TranslatorConfig) -> Self {
        let fleet = generate(cfg);
        let eligible = fleet.drives_with_min_days(110);
        assert!(eligible.len() >= 2, "too few drives with a long history");
        let schemes = fleet.pooled_schemes(&eligible, 60);
        let window = WindowConfig::hdd();

        let drives: Vec<DriveWindows> = eligible
            .iter()
            .map(|&d| {
                let days = fleet.drives[d].days();
                DriveWindows {
                    drive: d,
                    traces: fleet.drive_traces_with_schemes(d, &schemes),
                    train: days - 110..days - 50,
                    dev: days - 50..days - 25,
                    test: days - 25..days,
                }
            })
            .collect();

        // Fit the pipeline on concatenated training segments (pooled corpus).
        let nf = drives[0].traces.len();
        let cat: Vec<RawTrace> = (0..nf)
            .map(|f| {
                let mut events = Vec::new();
                for dw in &drives {
                    events.extend_from_slice(&dw.traces[f].events[dw.train.clone()]);
                }
                RawTrace::new(drives[0].traces[f].name.clone(), events)
            })
            .collect();
        let total = cat[0].events.len();
        let pipeline = LanguagePipeline::fit(&cat, 0..total, window).expect("fit pooled languages");

        // Aggregate aligned train/dev sentences across drives.
        let n = pipeline.sensor_count();
        let empty = SentenceSet {
            sentences: Vec::new(),
            starts: Vec::new(),
        };
        let mut train_sets = vec![empty.clone(); n];
        let mut dev_sets = vec![empty; n];
        for dw in &drives {
            let t = pipeline
                .encode_segment(&dw.traces, dw.train.clone())
                .expect("train");
            let v = pipeline
                .encode_segment(&dw.traces, dw.dev.clone())
                .expect("dev");
            for k in 0..n {
                train_sets[k].sentences.extend_from_slice(&t[k].sentences);
                train_sets[k].starts.extend_from_slice(&t[k].starts);
                dev_sets[k].sentences.extend_from_slice(&v[k].sentences);
                dev_sets[k].starts.extend_from_slice(&v[k].starts);
            }
        }
        let build = GraphBuildConfig {
            translator,
            ..GraphBuildConfig::default()
        };
        let trained = build_graph(&pipeline, &train_sets, &dev_sets, &build).expect("build graph");
        let cfg = MdesConfig {
            window,
            build,
            ..MdesConfig::default()
        };
        let mdes = Mdes::from_parts(cfg, pipeline, trained).expect("one fit's parts");
        Self {
            fleet,
            mdes,
            drives,
        }
    }

    /// Runs detection for every drive at the given validity range and
    /// applies the Fig. 12 rule: a drive is flagged when the mean of three
    /// *early-warning* windows (ending one window before the drive's last,
    /// so the alarm precedes the failure) exceeds its development-month mean
    /// by at least `jump` (default 0.3).
    pub fn evaluate(&self, range: ScoreRange, jump: f64) -> Vec<DriveOutcome> {
        let dcfg = DetectionConfig {
            valid_range: range,
            ..DetectionConfig::default()
        };
        let (lang, snap) = (self.mdes.language(), self.mdes.snapshot());
        let mut out = Vec::new();
        for dw in &self.drives {
            let Ok(dev_sets) = lang.encode_segment(&dw.traces, dw.dev.clone()) else {
                continue;
            };
            let Ok(test_sets) = lang.encode_segment(&dw.traces, dw.test.clone()) else {
                continue;
            };
            let (Ok(dev_res), Ok(test_res)) = (
                snap.detect(&dev_sets, &dcfg, &[]),
                snap.detect(&test_sets, &dcfg, &[]),
            ) else {
                continue;
            };
            let dev_mean = dev_res.scores.iter().sum::<f64>() / dev_res.scores.len().max(1) as f64;
            let n = test_res.scores.len();
            let tail = &test_res.scores[n.saturating_sub(4)..n.saturating_sub(1).max(1)];
            let tail_mean = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
            out.push(DriveOutcome {
                drive: dw.drive,
                failed: self.fleet.drives[dw.drive].failed,
                dev_baseline: dev_mean,
                test_scores: test_res.scores,
                detected: tail_mean - dev_mean >= jump,
            });
        }
        out
    }

    /// Recall over failed drives for a set of outcomes.
    pub fn recall(outcomes: &[DriveOutcome]) -> f64 {
        let failed = outcomes.iter().filter(|o| o.failed).count();
        if failed == 0 {
            return 0.0;
        }
        let hit = outcomes.iter().filter(|o| o.failed && o.detected).count();
        hit as f64 / failed as f64
    }

    /// False-alarm rate over healthy drives.
    pub fn false_alarm_rate(outcomes: &[DriveOutcome]) -> f64 {
        let healthy = outcomes.iter().filter(|o| !o.failed).count();
        if healthy == 0 {
            return 0.0;
        }
        let fp = outcomes.iter().filter(|o| !o.failed && o.detected).count();
        fp as f64 / healthy as f64
    }
}

/// The study's default fleet configuration: 30 drives over 240 days.
pub fn default_fleet() -> HddConfig {
    HddConfig {
        n_drives: 30,
        days: 240,
        failure_fraction: 0.4,
        ..HddConfig::default()
    }
}
