//! The three workloads and the inputs each one builds.
//!
//! The plant behind each workload is fixed (the generator's default seed):
//! `--seed` drives the serving schedule — which stream position each session
//! starts from and the order of their phase slots — not the plant. The
//! fleet's prescreen survivors swing about twofold between plant seeds
//! (254 against 480 at 48 sensors), so a seeded plant would make `fit_s`
//! and `snapshot_mib` measure the seed rather than the code.
//!
//! Every workload runs the same two paths the ROADMAP names as end to end:
//! raw traces → published `GraphSnapshot` (prescreen → sharded sweep →
//! freeze → MDSN → publish), then socket → score reply under an open-loop
//! schedule. They differ in where the cost sits:
//!
//! * `stream_ngram` — the default n-gram family on an 8-sensor plant with
//!   256 sessions: engine work per sample is small, so the wire, frame,
//!   pump, `encode_segment` and BLEU layers take the largest share.
//! * `stream_nmt` — the same plant and protocol with the neural family
//!   (`TranslatorConfig::neural()`, f32) and 64 sessions: per-window decode
//!   is about ten times the n-gram cost, so the net layers are a small
//!   share.
//! * `fit_fleet` — a 40-sensor fleet with the [80, 100] prescreen band and a
//!   tiny seq2seq per pair: the write path (tape training, GEMM at training
//!   shapes, dev decode, MDCK/MDSN codecs) dominates the run.

use crate::ladder::Ladder;
use mdes_core::TranslatorConfig;
use mdes_graph::ScoreRange;
use mdes_lang::WindowConfig;
use mdes_nn::Seq2SeqConfig;
use mdes_synth::plant::{generate, PlantConfig, PlantData};

/// What `setup_s` times for a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Setup {
    /// `snapshot_from_bytes`, then `start`, then opening every session.
    Serving,
    /// Trace generation, then `LanguagePipeline::fit`.
    Ingest,
}

pub struct Workload {
    pub name: &'static str,
    pub setup: Setup,
    pub plant: PlantConfig,
    pub window: WindowConfig,
    pub translator: TranslatorConfig,
    /// Prescreen band, also the served snapshot's valid-score range.
    pub band: ScoreRange,
    pub margin: f64,
    pub sessions: usize,
    /// Fits and set-ups per run; each metric is the median. Fixed per
    /// workload, so every run of it averages the same amount of work.
    pub fit_reps: usize,
    pub setup_reps: usize,
    /// The fixed offered rate (samples/s) for the latency metrics.
    pub rate_sps: f64,
    pub ladder: Ladder,
}

/// Worker threads for the fit (prescreen and sweep) and for the daemon's
/// engine. The bounded metrics are CPU time, and on one worker CPU time is
/// the work itself: with two, it also counts how the workers happened to
/// be scheduled against each other and against the rest of the host.
pub const THREADS: usize = 1;

/// Days 1–4 train, 5–6 dev, 7 (normal) and 8 (the plant's anomaly day) test.
pub const TRAIN_DAYS: (usize, usize) = (1, 4);
pub const DEV_DAYS: (usize, usize) = (5, 6);
pub const NORMAL_DAY: usize = 7;
pub const ANOMALY_DAY: usize = 8;

pub const NAMES: [&str; 3] = ["stream_ngram", "stream_nmt", "fit_fleet"];

/// The score p99 every rung of `max_rate_sps` must meet, on every workload:
/// four times the p99 measured just below each knee (about 25 ms, while
/// one tick's work still fits in its 20 ms tick) and below the p99 of every
/// rung above it, where the backlog grows.
pub const P99_LIMIT_MS: f64 = 100.0;

fn stream_plant() -> PlantConfig {
    PlantConfig {
        n_sensors: 8,
        days: 8,
        minutes_per_day: 288,
        n_components: 2,
        anomaly_days: vec![ANOMALY_DAY],
        precursor_days: vec![],
        ..PlantConfig::default()
    }
}

fn stream_window() -> WindowConfig {
    WindowConfig {
        word_len: 5,
        word_stride: 1,
        sent_len: 6,
        sent_stride: 6,
    }
}

pub fn by_name(name: &str) -> Option<Workload> {
    // Fixed rates sit well below each workload's knee.
    let w = match name {
        "stream_ngram" => Workload {
            name: "stream_ngram",
            setup: Setup::Serving,
            plant: stream_plant(),
            window: stream_window(),
            translator: TranslatorConfig::fast(),
            band: ScoreRange::closed(0.0, 100.0),
            margin: 0.0,
            sessions: 256,
            fit_reps: 60,
            setup_reps: 30,
            rate_sps: 4000.0,
            ladder: Ladder::new(2000.0, 64_000.0, 1.05),
        },
        "stream_nmt" => Workload {
            name: "stream_nmt",
            setup: Setup::Serving,
            plant: stream_plant(),
            window: stream_window(),
            translator: TranslatorConfig::neural(),
            band: ScoreRange::closed(0.0, 100.0),
            margin: 0.0,
            sessions: 64,
            fit_reps: 1,
            setup_reps: 10,
            rate_sps: 1000.0,
            ladder: Ladder::new(500.0, 16_000.0, 1.05),
        },
        "fit_fleet" => Workload {
            name: "fit_fleet",
            setup: Setup::Ingest,
            plant: PlantConfig::fleet(40),
            window: WindowConfig {
                word_len: 8,
                word_stride: 1,
                sent_len: 10,
                sent_stride: 10,
            },
            // `exp_scalability`'s per-pair model.
            translator: TranslatorConfig::Nmt(Seq2SeqConfig {
                embed_dim: 8,
                hidden: 8,
                train_steps: 30,
                batch_size: 4,
                ..Seq2SeqConfig::default()
            }),
            band: ScoreRange::closed(80.0, 100.0),
            margin: 10.0,
            sessions: 32,
            fit_reps: 1,
            setup_reps: 50,
            rate_sps: 900.0,
            ladder: Ladder::new(250.0, 8_000.0, 1.05),
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    pub fn generate(&self) -> PlantData {
        generate(&self.plant)
    }
}

/// SplitMix64: the benchmark's only randomness, driven by `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6d64_6573_6265_6e63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}
