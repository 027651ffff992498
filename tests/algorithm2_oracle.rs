//! Paper-literal oracle for Algorithm 2.
//!
//! For each test window and each valid pair model that no excluded sensor
//! touches, the oracle translates the source sentence on its own, scores
//! it against the target's actual sentence with plain sentence BLEU, and
//! calls the pair broken when `f < threshold − margin`; the anomaly score is
//! `a_t` = broken / participating. Every optimised path must reproduce it
//! bit for bit: batched and grouped decode, shared reference n-grams, the
//! worker pool, cross-session batching, frozen and int8 snapshots,
//! streamed pushes, and the snapshot's translation memo — on hits, across
//! table clears, and across hot-swaps, grafts and canaries.

use mdes::bleu::sentence_bleu;
use mdes::core::serve::MEMO_ENTRIES_PER_MODEL;
use mdes::core::{
    detect, detect_excluding, BrokenRule, CanaryConfig, CanaryDecision, DetectionConfig,
    DetectionResult, FrozenPairModel, FrozenTranslator, GraphSnapshot, Mdes, MdesConfig,
    OnlineDetection, QuantMode, QuantPolicy, ScoreDist, ServingEngine, TranslatorConfig,
};
use mdes::graph::ScoreRange;
use mdes::lang::{RawTrace, SentenceSet, WindowConfig};
use mdes::nn::{InferArena, Seq2SeqConfig};
use mdes::synth::plant::{generate, PlantConfig, PlantData};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

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

/// The oracle for a frozen snapshot's models under `cfg`, each sentence
/// decoded alone through a fresh arena.
fn snapshot_oracle(
    snap: &GraphSnapshot,
    sets: &[SentenceSet],
    cfg: &DetectionConfig,
    excluded: &[usize],
) -> Windows {
    let metas: Metas = snap
        .models()
        .iter()
        .map(|p| (p.src, p.dst, p.train_score, p.dev_floor))
        .collect();
    let mut arena = InferArena::new();
    let mut translate = |k: usize, src: &[u32], len: usize| match snap.models()[k].translator() {
        FrozenTranslator::Ngram(t) => mdes::core::Translator::translate(t, src, len),
        FrozenTranslator::Nmt(t) => t.translate(src, len, &mut arena),
    };
    oracle(&metas, &mut translate, sets, cfg, excluded)
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

/// Streams `test` through a fresh session of `engine`.
fn stream(engine: &ServingEngine, traces: &[RawTrace], test: Range<usize>) -> Vec<OnlineDetection> {
    let mut session = engine.open_session(traces.len()).expect("session");
    test.filter_map(|t| {
        engine
            .push_opt(&mut session, &sample(traces, t))
            .expect("push")
    })
    .collect()
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
                snaps.push(f32_snap.quantize(QuantMode::Int8, &LOOSE).expect("int8"));
            }
            for snap in snaps {
                for excl in &exclusions {
                    let want = snapshot_oracle(&snap, &sets, &cfg, excl);
                    let got = snap.detect_excluding(&sets, excl).expect("snapshot detect");
                    assert_eq!(
                        batch(got),
                        want,
                        "snapshot {:?} {rule:?} {threads}t {excl:?}",
                        snap.quant_mode()
                    );
                }
                let want = snapshot_oracle(&snap, &sets, &cfg, &[]);
                let engine = ServingEngine::new(snap).with_threads(threads);

                // One session through `push_opt`, then a second over the
                // same span, whose translations all come from the memo.
                for pass in 0..2 {
                    let single = stream(&engine, traces, test.clone());
                    assert_eq!(
                        streamed(&single),
                        want,
                        "push_opt pass {pass} {rule:?} {threads}t"
                    );
                }

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

/// The tiny seq2seq every neural case here trains.
fn tiny_nmt(seed: u64, train_steps: usize) -> TranslatorConfig {
    TranslatorConfig::Nmt(Seq2SeqConfig {
        embed_dim: 6,
        hidden: 6,
        train_steps,
        seed,
        ..Seq2SeqConfig::default()
    })
}

/// Weights re-encoded int8 under bounds loose enough for any tiny model.
const LOOSE: QuantPolicy = QuantPolicy {
    max_weight_error: 1.0,
    max_score_drift: 1.0,
};

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
    let cfg = config(tiny_nmt(Seq2SeqConfig::default().seed, 20));
    let m = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 3),
        plant.days_range(4, 5),
        cfg,
    )
    .expect("fit");
    check_against_oracle(&m, &plant, plant.day_range(7), true);
}

/// `n` sensors of independent random `on`/`off` records (SplitMix64), so
/// almost no sentence repeats: a span of them holds more distinct sources
/// per pair model than a memo table keeps.
fn random_traces(n: usize, len: usize) -> Vec<RawTrace> {
    let mut state = 0x6d65_6d6f_u64;
    let mut bit = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) & 1 == 1
    };
    (0..n)
        .map(|i| {
            let events = (0..len)
                .map(|_| if bit() { "on" } else { "off" }.to_owned())
                .collect();
            RawTrace::new(format!("r{i}"), events)
        })
        .collect()
}

#[test]
fn nmt_memo_tables_clear_mid_stream_and_still_match_the_oracle() {
    let traces = random_traces(3, 3000);
    let cfg = config(tiny_nmt(Seq2SeqConfig::default().seed, 20));
    let m = Mdes::fit(&traces, 0..600, 600..900, cfg).expect("fit");
    let test = 900..traces[0].events.len();
    let sets = m
        .language()
        .encode_segment(&traces, test.clone())
        .expect("encode");
    for (node, set) in sets.iter().enumerate() {
        let distinct: BTreeSet<&Vec<u32>> = set.sentences.iter().collect();
        assert!(
            distinct.len() > MEMO_ENTRIES_PER_MODEL,
            "sensor {node} has only {} distinct sentences",
            distinct.len()
        );
    }
    let f32_snap = GraphSnapshot::from_parts(
        m.language().clone(),
        m.trained(),
        m.config().detection.clone(),
    );
    let int8 = f32_snap.quantize(QuantMode::Int8, &LOOSE).expect("int8");
    for snap in [f32_snap, int8] {
        let mode = snap.quant_mode();
        let want = snapshot_oracle(&snap, &sets, &m.config().detection, &[]);
        assert!(
            want.iter().any(|(_, a)| !a.is_empty()),
            "{mode:?}: no alert"
        );
        let engine = ServingEngine::new(snap).with_threads(2);
        for pass in 0..2 {
            let got = stream(&engine, &traces, test.clone());
            assert_eq!(streamed(&got), want, "{mode:?} pass {pass}");
        }
    }
}

/// Streams `test` through a fresh session and checks every reply against
/// the oracle of the snapshot that served it: the one current when its
/// push started, named by the store version read then. Returns the
/// version of each reply.
fn stream_against_versions(
    engine: &ServingEngine,
    traces: &[RawTrace],
    test: Range<usize>,
    sets: &[SentenceSet],
    oracles: &mut BTreeMap<u64, Windows>,
) -> Vec<u64> {
    let mut session = engine.open_session(traces.len()).expect("session");
    let mut versions = Vec::new();
    for t in test {
        let (version, snap) = (engine.store().version(), engine.snapshot());
        if let Some(d) = engine
            .push_opt(&mut session, &sample(traces, t))
            .expect("push")
        {
            let want = oracles
                .entry(version)
                .or_insert_with(|| snapshot_oracle(&snap, sets, snap.detection(), &[]));
            let w = versions.len();
            assert_eq!(
                streamed(std::slice::from_ref(&d)),
                want[w..=w],
                "version {version}, window {w}"
            );
            versions.push(version);
        }
    }
    versions
}

/// The anomaly scores of `windows`.
fn scores(windows: &[(u64, Vec<(usize, usize)>)]) -> Vec<f64> {
    windows
        .iter()
        .map(|(bits, _)| f64::from_bits(*bits))
        .collect()
}

/// Pair model `k` of `live` with its pinned thresholds and the weights
/// `from` trained for the same pair, so a changed reply can only come
/// from a changed translation.
fn retranslated(live: &GraphSnapshot, k: usize, from: &GraphSnapshot) -> FrozenPairModel {
    let (m, f) = (&live.models()[k], &from.models()[k]);
    assert_eq!(
        (m.src, m.dst),
        (f.src, f.dst),
        "both fits train the same pairs"
    );
    FrozenPairModel::new(
        m.src,
        m.dst,
        m.train_score,
        m.dev_floor,
        f.translator().clone(),
    )
}

/// A warm memo never serves another snapshot's translations. The served
/// snapshot is swapped four ways, each time for weights of the same
/// shapes and under the same thresholds: an int8 re-encoding is
/// published, a refit pair is grafted, a worse candidate is canaried and
/// rolled back, and a refit candidate is canaried and promoted. Every
/// reply must equal the oracle of the snapshot that served it, and each
/// canary verdict must carry the deltas the oracle predicts.
#[test]
fn hot_swaps_grafts_and_canaries_never_serve_a_stale_translation() {
    let plant = plant();
    let traces = &plant.traces;
    let fit = |seed: u64, train_steps: usize| {
        let m = Mdes::fit(
            traces,
            plant.days_range(1, 3),
            plant.days_range(4, 5),
            config(tiny_nmt(seed, train_steps)),
        )
        .expect("fit");
        GraphSnapshot::from_parts(
            m.language().clone(),
            m.trained(),
            m.config().detection.clone(),
        )
    };
    let seed = Seq2SeqConfig::default().seed;
    let base = fit(seed, 20);
    let refit = fit(seed + 1, 20)
        .quantize(QuantMode::Int8, &LOOSE)
        .expect("int8");
    let untrained = fit(seed, 1)
        .quantize(QuantMode::Int8, &LOOSE)
        .expect("int8");
    let test = plant.day_range(7);
    let sets = base
        .language()
        .encode_segment(traces, test.clone())
        .expect("encode");
    let engine = ServingEngine::new(base).with_threads(2);
    let mut oracles = BTreeMap::new();
    let run = |engine: &ServingEngine, oracles: &mut BTreeMap<u64, Windows>| {
        stream_against_versions(engine, traces, test.clone(), &sets, oracles)
    };

    // Warm: every translation of the span lands in version 1's memo.
    assert!(run(&engine, &mut oracles).iter().all(|&v| v == 1));
    assert!(engine.snapshot().memo_bytes() > 0);

    // 1. Publish an int8 re-encoding of the warm snapshot.
    let live = engine.snapshot();
    assert_eq!(
        engine.publish(live.quantize(QuantMode::Int8, &LOOSE).expect("int8")),
        Ok(2)
    );
    assert!(run(&engine, &mut oracles).iter().all(|&v| v == 2));

    // 2. Graft one refit pair into the warm int8 snapshot: the first one
    //    whose new translations change some reply.
    let live = engine.snapshot();
    let grafted = live
        .valid_models()
        .iter()
        .map(|&k| {
            live.graft(vec![retranslated(&live, k, &refit)])
                .expect("graft")
        })
        .find(|g| snapshot_oracle(g, &sets, g.detection(), &[]) != oracles[&2])
        .expect("a refit pair that changes a reply");
    assert_eq!(engine.publish(grafted), Ok(3));
    assert!(run(&engine, &mut oracles).iter().all(|&v| v == 3));

    // 3. Canary every valid pair with barely trained weights under the
    //    pinned thresholds; it scores higher, so it rolls back.
    let live = engine.snapshot();
    let worse: Vec<FrozenPairModel> = live
        .valid_models()
        .iter()
        .map(|&k| retranslated(&live, k, &untrained))
        .collect();
    let candidate = live.graft(worse).expect("graft");
    let budget = 16;
    let expected_deltas = |cand: &GraphSnapshot, inc: u64, oracles: &BTreeMap<u64, Windows>| {
        let c = ScoreDist::from_samples(&scores(
            &snapshot_oracle(cand, &sets, cand.detection(), &[])[..budget],
        ))
        .summary();
        let i = ScoreDist::from_samples(&scores(&oracles[&inc][..budget])).summary();
        ((c.mean - i.mean).to_bits(), (c.p95 - i.p95).to_bits())
    };
    let cfg = |tolerance: f64| CanaryConfig {
        fraction: 1.0,
        sample_budget: budget,
        max_mean_delta: tolerance,
        max_p95_delta: tolerance,
    };
    engine
        .start_canary(candidate.clone(), cfg(0.0))
        .expect("canary");
    assert!(run(&engine, &mut oracles).iter().all(|&v| v == 3));
    let want = expected_deltas(&candidate, 3, &oracles);
    match engine.canary_status().last_decision {
        Some(CanaryDecision::RolledBack {
            samples,
            mean_delta,
            p95_delta,
        }) => {
            assert_eq!(samples, budget);
            assert!(mean_delta > 0.0, "the candidate must score higher");
            assert_eq!((mean_delta.to_bits(), p95_delta.to_bits()), want);
        }
        other => panic!("expected a rollback, got {other:?}"),
    }

    // 4. Canary a second refit pair; any delta passes, so it promotes
    //    after `budget` shadowed windows and serves the rest of the span.
    let live = engine.snapshot();
    let candidate = live
        .valid_models()
        .iter()
        .map(|&k| {
            live.graft(vec![retranslated(&live, k, &refit)])
                .expect("graft")
        })
        .find(|g| snapshot_oracle(g, &sets, g.detection(), &[])[budget..] != oracles[&3][budget..])
        .expect("a refit pair that changes a reply after the promotion");
    engine
        .start_canary(candidate.clone(), cfg(1.0))
        .expect("canary");
    let versions = run(&engine, &mut oracles);
    assert!(versions[..budget].iter().all(|&v| v == 3));
    assert!(versions[budget..].iter().all(|&v| v == 4));
    let want = expected_deltas(&candidate, 3, &oracles);
    match engine.canary_status().last_decision {
        Some(CanaryDecision::Promoted {
            version,
            mean_delta,
            p95_delta,
            ..
        }) => {
            assert_eq!(version, 4);
            assert_eq!((mean_delta.to_bits(), p95_delta.to_bits()), want);
        }
        other => panic!("expected a promotion, got {other:?}"),
    }

    // Every swap changed some reply it served, so a memo carried across
    // any of them would have shown.
    assert_ne!(oracles[&1], oracles[&2], "the int8 re-encoding");
    assert_ne!(
        oracles[&3][budget..],
        oracles[&4][budget..],
        "the promotion"
    );
}
