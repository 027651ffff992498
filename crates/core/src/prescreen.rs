//! Pair prescreening — stage one of the scalable Algorithm 1.
//!
//! An exhaustive Algorithm 1 sweep trains `N·(N-1)` translators; at 1,000
//! sensors that is ~10⁶ neural models and out of reach. The translator
//! ablation (`exp_ablation_translator`) showed the n-gram translator is
//! ~175× cheaper than NMT while preserving the score *ordering* — exactly
//! the cheap-screen-then-refine recipe large-scale graph construction uses.
//!
//! [`prescreen_pairs`] runs the n-gram translator over all ordered pairs,
//! predicts each pair's translatability score, and keeps only pairs whose
//! predicted score can plausibly land inside the valid [`ScoreRange`]
//! (widened by [`PrescreenConfig::margin`] on both sides to absorb the
//! n-gram-vs-NMT score shift). The surviving pairs are ranked by predicted
//! score and handed to the sharded NMT sweep
//! ([`build_graph_sharded`](crate::sharded::build_graph_sharded)).
//!
//! Corpus construction is *block-streamed*: sensors are encoded in blocks
//! of [`PrescreenConfig::block_sensors`], so at any moment at most two
//! blocks of corpora are resident — peak memory is bounded by the block
//! size, not the fleet. Re-encoding a block per (src, dst) block pairing is
//! cheap next to the N² n-gram fits.

use crate::error::CoreError;
use crate::pool::{self, OneWorker};
use crate::translator::{NgramConfig, NgramTranslator, Translator};
use mdes_bleu::{corpus_bleu, BleuConfig};
use mdes_graph::ScoreRange;
use mdes_lang::{LanguagePipeline, RawTrace, SentenceSet};
use std::ops::Range;

/// Configuration of the n-gram prescreen stage.
#[derive(Clone, Debug)]
pub struct PrescreenConfig {
    /// The cheap translator family used for score prediction.
    pub ngram: NgramConfig,
    /// Corpus-BLEU configuration; use the same settings as the main sweep's
    /// [`GraphBuildConfig::bleu`](crate::algorithm1::GraphBuildConfig) so
    /// predicted and final scores live on the same scale.
    pub bleu: BleuConfig,
    /// The validity range the main sweep will apply — pairs that cannot
    /// plausibly land inside it are pruned.
    pub range: ScoreRange,
    /// Widening applied to both ends of `range` when deciding survival: a
    /// pair survives iff `range.lo() - margin <= predicted <= range.hi() +
    /// margin`. Absorbs the systematic shift between n-gram and NMT scores;
    /// larger margins trade sweep work for recall.
    pub margin: f64,
    /// Sensors encoded per corpus block (0 = all sensors in one block).
    /// Peak prescreen memory is about two blocks of corpora.
    pub block_sensors: usize,
    /// Worker threads for pair scoring (0 = number of available CPUs).
    pub threads: usize,
}

impl Default for PrescreenConfig {
    fn default() -> Self {
        Self {
            ngram: NgramConfig::default(),
            bleu: BleuConfig {
                smoothing: mdes_bleu::Smoothing::AddOne,
                ..BleuConfig::default()
            },
            range: ScoreRange::best_detection(),
            margin: 10.0,
            block_sensors: 128,
            threads: 0,
        }
    }
}

impl PrescreenConfig {
    /// Whether a predicted score survives the widened validity band.
    pub fn keeps(&self, predicted: f64) -> bool {
        predicted >= self.range.lo() - self.margin && predicted <= self.range.hi() + self.margin
    }
}

/// One surviving pair with its predicted translatability score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrescreenedPair {
    /// Source sensor index (into the pipeline's surviving sensors).
    pub src: usize,
    /// Target sensor index.
    pub dst: usize,
    /// Predicted dev-set corpus BLEU under the n-gram translator.
    pub predicted: f64,
}

/// Output of [`prescreen_pairs`].
#[derive(Clone, Debug)]
pub struct PrescreenResult {
    ranked: Vec<PrescreenedPair>,
    total_pairs: usize,
    peak_block_corpus_bytes: usize,
}

impl PrescreenResult {
    /// Surviving pairs ranked by predicted score, best first (ties broken
    /// by `(src, dst)` so the ranking is deterministic).
    pub fn ranked(&self) -> &[PrescreenedPair] {
        &self.ranked
    }

    /// Number of surviving pairs.
    pub fn kept(&self) -> usize {
        self.ranked.len()
    }

    /// All ordered pairs considered (`N·(N-1)`).
    pub fn total_pairs(&self) -> usize {
        self.total_pairs
    }

    /// Pairs pruned away.
    pub fn pruned(&self) -> usize {
        self.total_pairs - self.ranked.len()
    }

    /// Largest resident corpus footprint observed while screening, in
    /// bytes (at most two sensor blocks).
    pub fn peak_block_corpus_bytes(&self) -> usize {
        self.peak_block_corpus_bytes
    }

    /// The surviving pair list in canonical `(src, dst)` sweep order — the
    /// exact list whose hash gates sharded-checkpoint resume.
    pub fn survivors(&self) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = self.ranked.iter().map(|p| (p.src, p.dst)).collect();
        pairs.sort_unstable();
        pairs
    }
}

/// Scores every ordered sensor pair with the n-gram translator and prunes
/// pairs that cannot plausibly land inside the valid score range.
///
/// `train` / `dev` are sample ranges of `traces` (the same ranges the main
/// sweep will use). Corpora are encoded block by block via
/// [`LanguagePipeline::encode_sensor_segment`], so peak memory is bounded
/// by [`PrescreenConfig::block_sensors`], not the fleet.
///
/// # Errors
///
/// Returns [`CoreError::TooFewSensors`] for fewer than two surviving
/// sensors, propagates encoding errors (bad ranges, segments too short),
/// and returns [`CoreError::WorkerLost`] if a scoring worker panics.
pub fn prescreen_pairs(
    pipeline: &LanguagePipeline,
    traces: &[RawTrace],
    train: Range<usize>,
    dev: Range<usize>,
    cfg: &PrescreenConfig,
) -> Result<PrescreenResult, CoreError> {
    let n = pipeline.sensor_count();
    if n < 2 {
        return Err(CoreError::TooFewSensors { available: n });
    }
    let total_pairs = n * (n - 1);
    let mut span = mdes_obs::span("algo1.prescreen");
    span.field("sensors", n);
    span.field("pairs", total_pairs);
    mdes_obs::counter("algo1.prescreen.pairs", total_pairs as u64);

    let block = if cfg.block_sensors == 0 {
        n
    } else {
        cfg.block_sensors.min(n)
    };
    let blocks: Vec<Range<usize>> = (0..n.div_ceil(block))
        .map(|b| b * block..((b + 1) * block).min(n))
        .collect();
    span.field("blocks", blocks.len());

    // Encodes one block's (train, dev) corpora, per sensor.
    let encode_block =
        |range: &Range<usize>| -> Result<Vec<(SentenceSet, SentenceSet)>, CoreError> {
            range
                .clone()
                .map(|s| {
                    let t = pipeline.encode_sensor_segment(traces, train.clone(), s)?;
                    let d = pipeline.encode_sensor_segment(traces, dev.clone(), s)?;
                    if t.is_empty() || d.is_empty() {
                        return Err(CoreError::EmptyCorpus);
                    }
                    Ok((t, d))
                })
                .collect()
        };
    let block_bytes = |corpora: &[(SentenceSet, SentenceSet)]| -> usize {
        corpora
            .iter()
            .map(|(t, d)| t.approx_bytes() + d.approx_bytes())
            .sum()
    };

    let mut ranked: Vec<PrescreenedPair> = Vec::new();
    let mut peak_bytes = 0usize;
    for (sb, src_range) in blocks.iter().enumerate() {
        let src_corpora = encode_block(src_range)?;
        for (db, dst_range) in blocks.iter().enumerate() {
            let dst_corpora = if db == sb {
                None // same block: reuse src_corpora
            } else {
                Some(encode_block(dst_range)?)
            };
            let dst_ref: &[(SentenceSet, SentenceSet)] =
                dst_corpora.as_deref().unwrap_or(&src_corpora);
            peak_bytes = peak_bytes
                .max(block_bytes(&src_corpora) + dst_corpora.as_deref().map_or(0, block_bytes));

            let pairs: Vec<(usize, usize)> = src_range
                .clone()
                .flat_map(|i| dst_range.clone().map(move |j| (i, j)))
                .filter(|(i, j)| i != j)
                .collect();
            let scores = pool::run(
                pairs.len(),
                cfg.threads,
                OneWorker::OnCaller,
                || (),
                |_, k| {
                    let (i, j) = pairs[k];
                    let (src_train, src_dev) = &src_corpora[i - src_range.start];
                    let (dst_train, dst_dev) = &dst_ref[j - dst_range.start];
                    predict_score(
                        src_train,
                        src_dev,
                        dst_train,
                        dst_dev,
                        pipeline.config().sent_len,
                        cfg,
                    )
                },
            )
            .map_err(|lost| lost.error())?;
            for (k, predicted) in scores.into_iter().enumerate() {
                if cfg.keeps(predicted) {
                    let (src, dst) = pairs[k];
                    ranked.push(PrescreenedPair {
                        src,
                        dst,
                        predicted,
                    });
                }
            }
        }
    }

    ranked.sort_by(|a, b| {
        b.predicted
            .total_cmp(&a.predicted)
            .then_with(|| (a.src, a.dst).cmp(&(b.src, b.dst)))
    });
    span.field("kept", ranked.len());
    span.field("pruned", total_pairs - ranked.len());
    mdes_obs::counter("algo1.prescreen.kept", ranked.len() as u64);
    mdes_obs::counter(
        "algo1.prescreen.pruned",
        (total_pairs - ranked.len()) as u64,
    );
    Ok(PrescreenResult {
        ranked,
        total_pairs,
        peak_block_corpus_bytes: peak_bytes,
    })
}

/// Fits the n-gram translator on one directional pair's training sentences
/// and scores it on the dev set — the cheap stand-in for a full
/// `train_pair`.
fn predict_score(
    src_train: &SentenceSet,
    src_dev: &SentenceSet,
    dst_train: &SentenceSet,
    dst_dev: &SentenceSet,
    out_len: usize,
    cfg: &PrescreenConfig,
) -> f64 {
    let pairs: Vec<(Vec<u32>, Vec<u32>)> = src_train
        .sentences
        .iter()
        .zip(&dst_train.sentences)
        .map(|(s, t)| (s.clone(), t.clone()))
        .collect();
    let model = NgramTranslator::fit(&pairs, &cfg.ngram);
    let dev_srcs: Vec<&[u32]> = src_dev.sentences.iter().map(Vec::as_slice).collect();
    let hyps = model.translate_batch(&dev_srcs, out_len);
    corpus_bleu(&hyps, &dst_dev.sentences, &cfg.bleu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::{build_graph, GraphBuildConfig};
    use mdes_lang::WindowConfig;

    fn toggling(name: &str, n: usize, period: usize, phase: usize) -> RawTrace {
        RawTrace::new(
            name,
            (0..n)
                .map(|t| {
                    if ((t + phase) / period).is_multiple_of(2) {
                        "on"
                    } else {
                        "off"
                    }
                    .to_owned()
                })
                .collect(),
        )
    }

    fn setup() -> (LanguagePipeline, Vec<RawTrace>) {
        let traces = vec![
            toggling("a", 600, 5, 0),
            toggling("b", 600, 5, 2),
            toggling("c", 600, 7, 0),
            toggling("d", 600, 11, 3),
        ];
        let cfg = WindowConfig {
            word_len: 4,
            word_stride: 1,
            sent_len: 5,
            sent_stride: 5,
        };
        let p = LanguagePipeline::fit(&traces, 0..300, cfg).expect("fit");
        (p, traces)
    }

    #[test]
    fn full_band_keeps_everything_and_ranks_by_score() {
        let (p, traces) = setup();
        let cfg = PrescreenConfig {
            range: ScoreRange::closed(0.0, 100.0),
            margin: 0.0,
            ..PrescreenConfig::default()
        };
        let r = prescreen_pairs(&p, &traces, 0..300, 300..450, &cfg).expect("prescreen");
        assert_eq!(r.total_pairs(), 12);
        assert_eq!(r.kept(), 12);
        assert_eq!(r.pruned(), 0);
        assert!(r.peak_block_corpus_bytes() > 0);
        for w in r.ranked().windows(2) {
            assert!(w[0].predicted >= w[1].predicted, "ranked descending");
        }
        let survivors = r.survivors();
        assert!(survivors.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
    }

    #[test]
    fn narrow_band_prunes_and_never_confuses_blocks() {
        let (p, traces) = setup();
        // Compare the one-block and two-sensor-block screens: identical
        // predictions regardless of streaming granularity.
        let base = PrescreenConfig {
            range: ScoreRange::closed(0.0, 100.0),
            margin: 0.0,
            threads: 1,
            ..PrescreenConfig::default()
        };
        let blocked = PrescreenConfig {
            block_sensors: 2,
            ..base.clone()
        };
        let a = prescreen_pairs(&p, &traces, 0..300, 300..450, &base).expect("one block");
        let b = prescreen_pairs(&p, &traces, 0..300, 300..450, &blocked).expect("blocked");
        let key = |r: &PrescreenResult| {
            let mut v: Vec<(usize, usize, f64)> = r
                .ranked()
                .iter()
                .map(|p| (p.src, p.dst, p.predicted))
                .collect();
            v.sort_by_key(|x| (x.0, x.1));
            v
        };
        assert_eq!(key(&a), key(&b));
        // Blocked screening's peak is bounded by two blocks, below the
        // whole-fleet footprint.
        assert!(b.peak_block_corpus_bytes() <= a.peak_block_corpus_bytes());

        // A band above every unrelated pair prunes something.
        let narrow = PrescreenConfig {
            range: ScoreRange::half_open(80.0, 90.0),
            margin: 5.0,
            ..base
        };
        let r = prescreen_pairs(&p, &traces, 0..300, 300..450, &narrow).expect("narrow");
        assert!(r.kept() < r.total_pairs(), "narrow band must prune");
    }

    #[test]
    fn margin_zero_same_family_prescreen_agrees_with_sweep() {
        // When the main sweep uses the SAME n-gram family, predictions equal
        // final scores, so a margin-0 prescreen must keep exactly the pairs
        // the sweep scores in range.
        let (p, traces) = setup();
        let train = p.encode_segment(&traces, 0..300).expect("train");
        let dev = p.encode_segment(&traces, 300..450).expect("dev");
        let range = ScoreRange::half_open(30.0, 95.0);
        let trained = build_graph(&p, &train, &dev, &GraphBuildConfig::default()).expect("sweep");
        let in_range: Vec<(usize, usize)> = trained
            .models()
            .iter()
            .filter(|m| range.contains(m.train_score))
            .map(|m| (m.src, m.dst))
            .collect();
        let cfg = PrescreenConfig {
            range,
            margin: 0.0,
            ..PrescreenConfig::default()
        };
        let r = prescreen_pairs(&p, &traces, 0..300, 300..450, &cfg).expect("prescreen");
        let survivors = r.survivors();
        for pair in &in_range {
            assert!(
                survivors.contains(pair),
                "prescreen pruned in-range pair {pair:?}"
            );
        }
    }

    #[test]
    fn too_few_sensors_rejected() {
        let traces = vec![toggling("a", 400, 5, 0)];
        let cfg = WindowConfig {
            word_len: 4,
            word_stride: 1,
            sent_len: 5,
            sent_stride: 5,
        };
        let p = LanguagePipeline::fit(&traces, 0..200, cfg).expect("fit");
        let r = prescreen_pairs(&p, &traces, 0..200, 200..400, &PrescreenConfig::default());
        assert!(matches!(r, Err(CoreError::TooFewSensors { available: 1 })));
    }
}
