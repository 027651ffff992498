//! The paper-literal Algorithm 2 oracle shared by the integration tests.
//!
//! For each test window and each valid pair model that no excluded sensor
//! touches, the oracle translates the source sentence on its own, scores
//! it against the target's actual sentence with plain sentence BLEU, and
//! calls the pair broken when `f < threshold − margin`; the anomaly score is
//! `a_t` = broken / participating.

use mdes::bleu::sentence_bleu;
use mdes::core::{BrokenRule, DetectionConfig, DetectionResult, FrozenPairModel};
use mdes::lang::SentenceSet;
use mdes::nn::InferArena;

/// Per window: the anomaly score's bits and the broken pairs.
pub type Windows = Vec<(u64, Vec<(usize, usize)>)>;

/// The oracle over `models`, each sentence decoded alone.
pub fn oracle(
    models: &[FrozenPairModel],
    sets: &[SentenceSet],
    cfg: &DetectionConfig,
    excluded: &[usize],
) -> Windows {
    let live: Vec<&FrozenPairModel> = models
        .iter()
        .filter(|m| {
            cfg.valid_range.contains(m.train_score)
                && !excluded.contains(&m.src)
                && !excluded.contains(&m.dst)
        })
        .collect();
    let mut arena = InferArena::new();
    (0..sets[0].len())
        .map(|t| {
            let mut broken = Vec::new();
            for m in &live {
                let reference = &sets[m.dst].sentences[t];
                let src: &[u32] = &sets[m.src].sentences[t];
                let hyp = m
                    .translator()
                    .translate_batch(&[src], reference.len(), &mut arena);
                let threshold = match cfg.rule {
                    BrokenRule::CorpusScore => m.train_score,
                    BrokenRule::DevQuantileFloor => m.dev_floor,
                };
                if sentence_bleu(&hyp[0], reference, &cfg.bleu) < threshold - cfg.margin {
                    broken.push((m.src, m.dst));
                }
            }
            let a_t = if live.is_empty() {
                0.0
            } else {
                broken.len() as f64 / live.len() as f64
            };
            (a_t.to_bits(), broken)
        })
        .collect()
}

/// A detection result in the oracle's form.
pub fn batch(r: DetectionResult) -> Windows {
    r.scores.iter().map(|s| s.to_bits()).zip(r.alerts).collect()
}
