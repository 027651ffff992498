//! Paper-literal oracle for Algorithm 2.
//!
//! For each test window and each valid pair model that no excluded sensor
//! touches, the oracle translates the source sentence on its own, scores
//! it against the target's actual sentence with plain sentence BLEU, and
//! calls the pair broken when `f < threshold − margin`; the anomaly score is
//! `a_t` = broken / participating. Every optimised path must reproduce it
//! bit for bit: batched and grouped decode, shared reference n-grams, the
//! worker pool, cross-session batching, frozen and int8 snapshots, and
//! streamed pushes.

use mdes::bleu::sentence_bleu;
use mdes::core::{
    detect, detect_excluding, BrokenRule, DetectionConfig, DetectionResult, FrozenTranslator,
    GraphSnapshot, Mdes, MdesConfig, OnlineDetection, QuantMode, QuantPolicy, ServingEngine,
    TranslatorConfig,
};
use mdes::graph::ScoreRange;
use mdes::lang::{RawTrace, SentenceSet, WindowConfig};
use mdes::nn::{InferArena, Seq2SeqConfig};
use mdes::synth::plant::{generate, PlantConfig, PlantData};

/// Per window: the anomaly score's bits and the broken pairs.
type Windows = Vec<(u64, Vec<(usize, usize)>)>;

/// `(src, dst, train_score, dev_floor)` of every pair model, in model order.
type Metas = Vec<(usize, usize, f64, f64)>;

/// Single-sentence translation by model `k`: `(k, source, output length)`.
type Translate<'a> = dyn FnMut(usize, &[u32], usize) -> Vec<u32> + 'a;

fn oracle(
    metas: &Metas,
    translate: &mut Translate<'_>,
    sets: &[SentenceSet],
    cfg: &DetectionConfig,
    excluded: &[usize],
) -> Windows {
    let live: Vec<usize> = (0..metas.len())
        .filter(|&k| {
            let (src, dst, score, _) = metas[k];
            cfg.valid_range.contains(score) && !excluded.contains(&src) && !excluded.contains(&dst)
        })
        .collect();
    (0..sets[0].len())
        .map(|t| {
            let mut broken = Vec::new();
            for &k in &live {
                let (src, dst, score, floor) = metas[k];
                let reference = &sets[dst].sentences[t];
                let hyp = translate(k, &sets[src].sentences[t], reference.len());
                let threshold = match cfg.rule {
                    BrokenRule::CorpusScore => score,
                    BrokenRule::DevQuantileFloor => floor,
                };
                if sentence_bleu(&hyp, reference, &cfg.bleu) < threshold - cfg.margin {
                    broken.push((src, dst));
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

fn batch(r: DetectionResult) -> Windows {
    r.scores.iter().map(|s| s.to_bits()).zip(r.alerts).collect()
}

fn streamed(ds: &[OnlineDetection]) -> Windows {
    ds.iter()
        .map(|d| (d.score.to_bits(), d.alerts.clone()))
        .collect()
}

fn sample(traces: &[RawTrace], t: usize) -> Vec<Option<String>> {
    traces.iter().map(|tr| Some(tr.events[t].clone())).collect()
}

/// Checks every detection path of `m` against the oracle on `test`.
fn check_against_oracle(m: &Mdes, plant: &PlantData, test: std::ops::Range<usize>, int8: bool) {
    let traces = &plant.traces;
    let sets = m
        .language()
        .encode_segment(traces, test.clone())
        .expect("encode");
    let n = m.language().sensor_count();
    let exclusions: [Vec<usize>; 3] = [vec![], vec![1], (0..n).collect()];
    let trained: Metas = m
        .trained()
        .models()
        .iter()
        .map(|p| (p.src, p.dst, p.train_score, p.dev_floor))
        .collect();
    let mut trained_translate =
        |k: usize, src: &[u32], len: usize| m.trained().models()[k].translate(src, len);
    let mut saw_alert = false;
    // Test BLEU lands within a few points below some corpus scores and
    // exactly on many dev floors, so these settings separate `<` from `<=`
    // and a dropped margin from a kept one.
    for (rule, margin) in [
        (BrokenRule::CorpusScore, 0.0),
        (BrokenRule::CorpusScore, 5.0),
        (BrokenRule::DevQuantileFloor, 0.0),
    ] {
        for threads in [1, 4] {
            let cfg = DetectionConfig {
                rule,
                margin,
                threads,
                ..m.config().detection.clone()
            };
            for excl in &exclusions {
                let want = oracle(&trained, &mut trained_translate, &sets, &cfg, excl);
                saw_alert |= want.iter().any(|(_, a)| !a.is_empty());
                let got =
                    detect_excluding(m.trained(), &sets, &cfg, excl).expect("detect_excluding");
                assert_eq!(
                    batch(got),
                    want,
                    "detect_excluding {rule:?} {threads}t {excl:?}"
                );
                if excl.is_empty() {
                    assert_eq!(
                        batch(detect(m.trained(), &sets, &cfg).expect("detect")),
                        want
                    );
                }
            }
            let f32_snap =
                GraphSnapshot::from_parts(m.language().clone(), m.trained(), cfg.clone());
            let mut snaps = vec![f32_snap.clone()];
            if int8 {
                let loose = QuantPolicy {
                    max_weight_error: 1.0,
                    max_score_drift: 1.0,
                };
                snaps.push(f32_snap.quantize(QuantMode::Int8, &loose).expect("int8"));
            }
            for snap in snaps {
                let metas: Metas = snap
                    .models()
                    .iter()
                    .map(|p| (p.src, p.dst, p.train_score, p.dev_floor))
                    .collect();
                let mut arena = InferArena::new();
                let mut translate = |k: usize, src: &[u32], len: usize| match snap.models()[k]
                    .translator()
                {
                    FrozenTranslator::Ngram(t) => mdes::core::Translator::translate(t, src, len),
                    FrozenTranslator::Nmt(t) => t.translate(src, len, &mut arena),
                };
                for excl in &exclusions {
                    let want = oracle(&metas, &mut translate, &sets, &cfg, excl);
                    let got = snap.detect_excluding(&sets, excl).expect("snapshot detect");
                    assert_eq!(
                        batch(got),
                        want,
                        "snapshot {:?} {rule:?} {threads}t {excl:?}",
                        snap.quant_mode()
                    );
                }
                let want = oracle(&metas, &mut translate, &sets, &cfg, &[]);
                let engine = ServingEngine::new(snap).with_threads(threads);

                // One session through `push_opt`.
                let mut session = engine.open_session(traces.len()).expect("session");
                let single: Vec<OnlineDetection> = test
                    .clone()
                    .filter_map(|t| {
                        engine
                            .push_opt(&mut session, &sample(traces, t))
                            .expect("push")
                    })
                    .collect();
                assert_eq!(streamed(&single), want, "push_opt {rule:?} {threads}t");

                // Two sessions through `push_opt_many`, the second one
                // sentence ahead, so each round batches different windows.
                let stride = m.config().window.sent_stride * m.config().window.word_stride;
                let mut sessions: Vec<_> = (0..2)
                    .map(|_| engine.open_session(traces.len()).expect("session"))
                    .collect();
                let mut outs: [Vec<OnlineDetection>; 2] = Default::default();
                for t in test.start..test.end - stride {
                    let samples = [sample(traces, t), sample(traces, t + stride)];
                    for (out, r) in outs
                        .iter_mut()
                        .zip(engine.push_opt_many(&mut sessions, &samples))
                    {
                        out.extend(r.expect("push_opt_many"));
                    }
                }
                assert_eq!(
                    streamed(&outs[0]),
                    want[..outs[0].len()],
                    "push_opt_many lag 0"
                );
                assert_eq!(
                    streamed(&outs[1]),
                    want[1..=outs[1].len()],
                    "push_opt_many lag 1"
                );
            }
        }
    }
    assert!(
        saw_alert,
        "the oracle must see broken pairs for the check to bite"
    );
}

fn plant() -> PlantData {
    generate(&PlantConfig {
        n_sensors: 4,
        days: 8,
        minutes_per_day: 288,
        n_components: 2,
        anomaly_days: vec![7],
        precursor_days: vec![],
        ..PlantConfig::default()
    })
}

fn config(translator: TranslatorConfig) -> MdesConfig {
    let mut cfg = MdesConfig {
        window: WindowConfig {
            word_len: 5,
            word_stride: 1,
            sent_len: 6,
            sent_stride: 6,
        },
        ..MdesConfig::default()
    };
    cfg.build.translator = translator;
    cfg.build.threads = 1;
    cfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);
    cfg
}

#[test]
fn ngram_detection_paths_match_the_oracle() {
    let plant = plant();
    let cfg = config(TranslatorConfig::fast());
    let m = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 3),
        plant.days_range(4, 5),
        cfg,
    )
    .expect("fit");
    check_against_oracle(&m, &plant, plant.day_range(7), false);
}

#[test]
fn nmt_detection_paths_match_the_oracle() {
    let plant = plant();
    let nmt = Seq2SeqConfig {
        embed_dim: 6,
        hidden: 6,
        train_steps: 20,
        ..Seq2SeqConfig::default()
    };
    let cfg = config(TranslatorConfig::Nmt(nmt));
    let m = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 3),
        plant.days_range(4, 5),
        cfg,
    )
    .expect("fit");
    check_against_oracle(&m, &plant, plant.day_range(7), true);
}
