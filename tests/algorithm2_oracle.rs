//! Paper-literal oracle for Algorithm 2.
//!
//! For each test window and each valid pair model that no excluded sensor
//! touches, the oracle translates the source sentence on its own, scores
//! it against the target's actual sentence with plain sentence BLEU, and
//! calls the pair broken when `f < threshold − margin`; the anomaly score is
//! `a_t` = broken / participating. Every optimised path must reproduce it
//! bit for bit: batched and grouped decode, shared reference n-grams, the
//! worker pool, cross-session batching, frozen and int8 snapshots,
//! streamed pushes (clean or degraded, batched so that one round mixes
//! excluded sets), and the snapshot's translation memo — on hits, across
//! table clears, and across hot-swaps, grafts and canaries, including a
//! canary whose candidate encodes windows with another language pipeline.

use mdes::bleu::sentence_bleu;
use mdes::core::serve::MEMO_ENTRIES_PER_MODEL;
use mdes::core::{
    detect, detect_excluding, BrokenRule, CanaryConfig, CanaryDecision, DegradationConfig,
    DetectionConfig, DetectionResult, FrozenPairModel, GraphSnapshot, Mdes, MdesConfig,
    OnlineDetection, QuantMode, QuantPolicy, ScoreDist, ServingEngine, StreamSession,
    TranslatorConfig,
};
use mdes::graph::ScoreRange;
use mdes::lang::{RawTrace, SentenceSet, Vocab, WindowConfig, MISSING_RECORD};
use mdes::nn::{InferArena, Seq2SeqConfig};
use mdes::synth::plant::{generate, PlantConfig, PlantData};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Per window: the anomaly score's bits and the broken pairs.
type Windows = Vec<(u64, Vec<(usize, usize)>)>;

/// The oracle over `models`, each sentence decoded alone.
fn oracle(
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

/// The oracle for a frozen snapshot's models under `cfg`.
fn snapshot_oracle(
    snap: &GraphSnapshot,
    sets: &[SentenceSet],
    cfg: &DetectionConfig,
    excluded: &[usize],
) -> Windows {
    oracle(snap.models(), sets, cfg, excluded)
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
                let want = oracle(m.trained().models(), &sets, &cfg, excl);
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

/// The snapshot of an n-gram fit with training days `train` and development
/// days `dev` of `plant`.
fn ngram_snapshot(plant: &PlantData, train: (usize, usize), dev: (usize, usize)) -> GraphSnapshot {
    let m = Mdes::fit(
        &plant.traces,
        plant.days_range(train.0, train.1),
        plant.days_range(dev.0, dev.1),
        config(TranslatorConfig::fast()),
    )
    .expect("fit");
    GraphSnapshot::from_parts(
        m.language().clone(),
        m.trained(),
        m.config().detection.clone(),
    )
}

/// Sessions in every degraded state, pushed together so that each round
/// scores windows with different excluded sets: every reply must equal the
/// oracle for its own window, encoded from its raw records (`None` as
/// `MISSING_RECORD`), with its own dropped sensors excluded.
#[test]
fn degraded_sessions_in_one_round_match_the_oracle() {
    let plant = plant();
    let traces = &plant.traces;
    let snap = ngram_snapshot(&plant, (1, 3), (4, 5));
    let test = plant.day_range(7);
    let width = traces.len();
    let clean = |t: usize, i: usize| Some(traces[i].events[test.start + t].clone());
    type Stream<'a> = Box<dyn Fn(usize, usize) -> Option<String> + 'a>;
    let streams: Vec<Stream<'_>> = vec![
        Box::new(clean),
        // Sensor 1 delivers nothing for a stretch.
        Box::new(|t, i| {
            (i != 1 || !(40..100).contains(&t))
                .then(|| clean(t, i))
                .flatten()
        }),
        // Sensor 2 sticks at one record, past the stuck limit.
        Box::new(|t, i| clean(if i == 2 { t.min(30) } else { t }, i)),
        // Sensor 0 reports states never seen at fit time.
        Box::new(|t, i| match i == 0 && t % 7 < 3 {
            true => Some(format!("alien{}", t % 2)),
            false => clean(t, i),
        }),
        // Every record of every sample is new.
        Box::new(|t, i| Some(format!("new-{t}-{i}"))),
    ];
    let engine = ServingEngine::new(snap.clone()).with_threads(2);
    let mut sessions: Vec<StreamSession> = (0..streams.len())
        .map(|s| {
            let session = engine.open_session(width).expect("session");
            // Only the stuck stream checks for stuck sensors: plant sensors
            // stay legitimately quiet for longer than the limit.
            session.with_degradation(DegradationConfig {
                missing_limit: 3,
                stuck_limit: (s == 2).then_some(12),
            })
        })
        .collect();
    let window = sessions[0].warmup();
    let mut history: Vec<Vec<Vec<Option<String>>>> = vec![Vec::new(); streams.len()];
    let mut dropped_seen = vec![BTreeSet::new(); streams.len()];
    let (mut mixed_rounds, mut unknown_windows, mut all_new_bytes) = (0, 0, Vec::new());
    for t in 0..test.len() {
        let samples: Vec<Vec<Option<String>>> = streams
            .iter()
            .map(|f| (0..width).map(|i| f(t, i)).collect())
            .collect();
        let results = engine.push_opt_many(&mut sessions, &samples);
        let mut excluded_sets = BTreeSet::new();
        for (s, (sample, result)) in samples.into_iter().zip(results).enumerate() {
            history[s].push(sample);
            let Some(d) = result.expect("push") else {
                continue;
            };
            let records = &history[s][history[s].len() - window..];
            let window_traces: Vec<RawTrace> = (0..width)
                .map(|i| {
                    let events = records.iter().map(|r| r[i].clone());
                    let events = events.map(|r| r.unwrap_or_else(|| MISSING_RECORD.to_owned()));
                    RawTrace::new(format!("w{i}"), events.collect())
                })
                .collect();
            let sets = snap
                .language()
                .encode_segment(&window_traces, 0..window)
                .expect("encode");
            unknown_windows += usize::from(
                sets.iter()
                    .any(|set| set.sentences[0].contains(&Vocab::UNK)),
            );
            let nodes = snap.language().languages().iter().enumerate();
            let excluded: Vec<usize> = nodes
                .filter(|(_, l)| d.dropped_sensors.contains(&l.source_index))
                .map(|(node, _)| node)
                .collect();
            assert_eq!(
                streamed(std::slice::from_ref(&d)),
                snapshot_oracle(&snap, &sets, snap.detection(), &excluded),
                "session {s}, step {t}, dropped {:?}",
                d.dropped_sensors
            );
            dropped_seen[s].extend(d.dropped_sensors);
            excluded_sets.insert(excluded);
        }
        mixed_rounds += usize::from(excluded_sets.len() > 1);
        all_new_bytes.push(sessions[4].approx_bytes());
    }
    assert!(mixed_rounds > 0, "no round mixed excluded sets");
    assert!(unknown_windows > 0, "no window held an unknown word");
    assert!(dropped_seen[0].is_empty(), "{:?}", dropped_seen[0]);
    assert!(dropped_seen[1].contains(&1), "{:?}", dropped_seen[1]);
    assert!(dropped_seen[2].contains(&2), "{:?}", dropped_seen[2]);

    // The all-new stream never repeats a record, yet its session holds at
    // most the window's records (plus each sensor's last one): its size
    // stops growing once every table slot is reused, under a bound of
    // window × width entries.
    let bytes = *all_new_bytes.last().expect("pushed");
    assert_eq!(all_new_bytes[all_new_bytes.len() / 2], bytes);
    let per_entry = std::mem::size_of::<String>() + 32;
    let bound = sessions[0].approx_bytes() + (window + 1) * width * per_entry;
    assert!(
        bytes <= bound,
        "all-new session holds {bytes} bytes > {bound}"
    );
}

/// A canary candidate fit on other days encodes windows with its own
/// alphabets and vocabularies (and may keep other sensors): it must be
/// shadow-scored on windows its own pipeline encodes, with the dropped
/// sensors mapped through its own sensor list. Its verdict must carry the
/// deltas of serving each snapshot alone over the same stream, and after
/// the promotion it serves the candidate's scores.
#[test]
fn canary_candidate_with_another_pipeline_scores_its_own_encoding() {
    let plant = plant();
    let traces = &plant.traces;
    let incumbent = ngram_snapshot(&plant, (1, 4), (5, 6));
    let candidate = ngram_snapshot(&plant, (3, 6), (1, 2));
    let test = plant.day_range(7);
    let encode = |snap: &GraphSnapshot| snap.language().encode_segment(traces, test.clone());
    assert_ne!(
        encode(&incumbent).expect("encode"),
        encode(&candidate).expect("encode"),
        "the two fits must encode differently for the check to bite"
    );
    // Sensor 1 goes dark for a stretch, so some windows exclude it.
    let dark = test.start + 60..test.start + 90;
    let samples: Vec<Vec<Option<String>>> = test
        .map(|t| {
            let mut sample = sample(traces, t);
            if dark.contains(&t) {
                sample[1] = None;
            }
            sample
        })
        .collect();
    let serve = |engine: &ServingEngine| -> Vec<OnlineDetection> {
        let mut session = engine.open_session(traces.len()).expect("session");
        let pushes = samples.iter().map(|s| engine.push_opt(&mut session, s));
        pushes.filter_map(|r| r.expect("push")).collect()
    };
    let alone = |snap: &GraphSnapshot| serve(&ServingEngine::new(snap.clone()));
    let (inc, cand) = (alone(&incumbent), alone(&candidate));
    let budget = 32;
    assert!(inc.len() > budget && cand.len() == inc.len());
    assert!(
        inc[..budget].iter().any(|d| !d.dropped_sensors.is_empty()),
        "some shadowed window must exclude a sensor"
    );
    let scores = |ds: &[OnlineDetection]| ds.iter().map(|d| d.score).collect::<Vec<_>>();
    let summary =
        |ds: &[OnlineDetection]| ScoreDist::from_samples(&scores(&ds[..budget])).summary();
    let (i, c) = (summary(&inc), summary(&cand));
    let want = ((c.mean - i.mean).to_bits(), (c.p95 - i.p95).to_bits());

    let engine = ServingEngine::new(incumbent);
    let cfg = CanaryConfig {
        fraction: 1.0,
        sample_budget: budget,
        max_mean_delta: 1.0,
        max_p95_delta: 1.0,
    };
    engine.start_canary(candidate, cfg).expect("canary");
    let served = serve(&engine);
    match engine.canary_status().last_decision {
        Some(CanaryDecision::Promoted {
            samples,
            mean_delta,
            p95_delta,
            ..
        }) => {
            assert_eq!(samples, budget);
            assert_eq!((mean_delta.to_bits(), p95_delta.to_bits()), want);
        }
        other => panic!("expected a promotion, got {other:?}"),
    }
    assert_eq!(streamed(&served[..budget]), streamed(&inc[..budget]));
    assert_eq!(streamed(&served[budget..]), streamed(&cand[budget..]));
}
