//! Cross-crate integration: the neural and statistical translators must
//! agree on relationship structure, and the seq2seq + BLEU combination must
//! behave sanely on coupled vs uncoupled sensor languages.

use mdes::bleu::{corpus_bleu, BleuConfig};
use mdes::core::{train_translator, TranslatorConfig};
use mdes::lang::{LanguagePipeline, RawTrace, Vocab, WindowConfig};
use mdes::nn::{InferArena, Seq2SeqConfig};

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

/// Trains one directional translator and scores it on the dev segment.
fn pair_score(cfg: &TranslatorConfig, src: usize, dst: usize) -> f64 {
    let traces = vec![
        toggling("a", 700, 5, 0),
        toggling("b", 700, 5, 2),
        toggling("c", 700, 7, 3),
    ];
    let wcfg = WindowConfig {
        word_len: 4,
        word_stride: 1,
        sent_len: 5,
        sent_stride: 5,
    };
    let pipeline = LanguagePipeline::fit(&traces, 0..400, wcfg).expect("fit");
    let train = pipeline.encode_segment(&traces, 0..400).expect("train");
    let dev = pipeline.encode_segment(&traces, 400..700).expect("dev");
    let pairs: Vec<(Vec<u32>, Vec<u32>)> = train[src]
        .sentences
        .iter()
        .zip(&train[dst].sentences)
        .map(|(s, t)| (s.clone(), t.clone()))
        .collect();
    let translator = train_translator(
        cfg,
        &pairs,
        pipeline.languages()[src].vocab.size(),
        pipeline.languages()[dst].vocab.size(),
        Vocab::BOS,
    )
    .expect("train translator");
    let srcs: Vec<&[u32]> = dev[src].sentences.iter().map(Vec::as_slice).collect();
    let hyps = translator.translate_batch(&srcs, 5, &mut InferArena::new());
    corpus_bleu(&hyps, &dev[dst].sentences, &BleuConfig::sentence())
}

#[test]
fn both_translators_rank_related_above_unrelated() {
    let nmt = TranslatorConfig::Nmt(Seq2SeqConfig {
        embed_dim: 16,
        hidden: 16,
        train_steps: 120,
        ..Seq2SeqConfig::default()
    });
    for cfg in [TranslatorConfig::fast(), nmt] {
        let related = pair_score(&cfg, 0, 1); // same period, fixed phase
        let unrelated = pair_score(&cfg, 0, 2); // different period
        assert!(
            related > unrelated + 10.0,
            "{cfg:?}: related {related:.1} should beat unrelated {unrelated:.1}"
        );
        assert!(
            related > 70.0,
            "{cfg:?}: related pair too weak: {related:.1}"
        );
    }
}

#[test]
fn perfect_translation_scores_100_bleu() {
    // Translating a sensor into itself (identity pair) must be learnable to
    // a perfect corpus BLEU by the statistical model.
    let score = pair_score(&TranslatorConfig::fast(), 1, 1);
    assert!((score - 100.0).abs() < 1e-6, "identity score {score}");
}

#[test]
fn translators_expose_deterministic_output() {
    let cfg = TranslatorConfig::fast();
    let a = pair_score(&cfg, 0, 1);
    let b = pair_score(&cfg, 0, 1);
    assert_eq!(a, b);
}
