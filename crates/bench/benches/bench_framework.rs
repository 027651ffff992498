//! Framework-level benchmarks: n-gram pair training (the Algorithm 1 inner
//! loop), the full pairwise sweep on a small plant, Algorithm 2 detection
//! throughput, one serving engine round, MDSN encode and decode of an
//! n-gram snapshot, and the frame checksum.

use criterion::{criterion_group, criterion_main, Criterion};
use mdes_core::checksum::crc32c_parts;
use mdes_core::{
    build_graph, snapshot_from_bytes, snapshot_to_bytes, DetectionConfig, GraphBuildConfig,
    GraphSnapshot, Mdes, MdesConfig, NgramConfig, NgramTranslator, ServingEngine, StreamSession,
    TranslatorConfig,
};
use mdes_graph::ScoreRange;
use mdes_lang::{LanguagePipeline, RawTrace, WindowConfig};
use mdes_synth::plant::{generate, PlantConfig, PlantData};
use std::hint::black_box;

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

fn setup() -> (
    LanguagePipeline,
    Vec<mdes_lang::SentenceSet>,
    Vec<mdes_lang::SentenceSet>,
    Vec<RawTrace>,
) {
    let traces: Vec<RawTrace> = (0..6)
        .map(|i| toggling(&format!("s{i}"), 2_000, 4 + i % 3, i))
        .collect();
    let cfg = WindowConfig {
        word_len: 6,
        word_stride: 1,
        sent_len: 8,
        sent_stride: 8,
    };
    let pipeline = LanguagePipeline::fit(&traces, 0..1_000, cfg).expect("fit");
    let train = pipeline.encode_segment(&traces, 0..1_000).expect("train");
    let dev = pipeline.encode_segment(&traces, 1_000..1_500).expect("dev");
    (pipeline, train, dev, traces)
}

fn bench_ngram_fit(c: &mut Criterion) {
    let (_, train, _, _) = setup();
    let pairs: Vec<(Vec<u32>, Vec<u32>)> = train[0]
        .sentences
        .iter()
        .zip(&train[1].sentences)
        .map(|(s, t)| (s.clone(), t.clone()))
        .collect();
    c.bench_function("framework/ngram_fit_124_pairs", |b| {
        b.iter(|| {
            black_box(NgramTranslator::fit(
                black_box(&pairs),
                &NgramConfig::default(),
            ))
        })
    });
    let model = NgramTranslator::fit(&pairs, &NgramConfig::default());
    c.bench_function("framework/ngram_translate_len8", |b| {
        b.iter(|| black_box(model.translate(black_box(&pairs[0].0), 8)))
    });
}

fn bench_build_graph(c: &mut Criterion) {
    let (pipeline, train, dev, _) = setup();
    let cfg = GraphBuildConfig {
        threads: 1,
        ..GraphBuildConfig::default()
    };
    c.bench_function("framework/algorithm1_6_sensors", |b| {
        b.iter(|| black_box(build_graph(&pipeline, &train, &dev, &cfg).expect("build")))
    });
}

fn bench_detection(c: &mut Criterion) {
    let (pipeline, train, dev, traces) = setup();
    let cfg = GraphBuildConfig {
        threads: 1,
        ..GraphBuildConfig::default()
    };
    let trained = build_graph(&pipeline, &train, &dev, &cfg).expect("build");
    let test = pipeline
        .encode_segment(&traces, 1_500..2_000)
        .expect("test");
    let dcfg = DetectionConfig {
        valid_range: ScoreRange::closed(0.0, 100.0),
        ..DetectionConfig::default()
    };
    let cfg = MdesConfig {
        window: *pipeline.config(),
        detection: dcfg.clone(),
        ..MdesConfig::default()
    };
    let m = Mdes::from_parts(cfg, pipeline, trained).expect("one fit's parts");
    let snap = m.snapshot();
    c.bench_function("framework/algorithm2_30_models", |b| {
        b.iter(|| black_box(snap.detect(black_box(&test), &dcfg, &[]).expect("detect")))
    });
}

/// Before/after pair for the batched NMT dev decode: Algorithm 1 now scores
/// the whole dev set with one `translate_batch` call (one GEMM per decode
/// step for the segment) instead of decoding sentence by sentence.
fn bench_nmt_dev_decode(c: &mut Criterion) {
    use mdes_core::{train_translator, FrozenTranslator, TranslatorConfig};
    use mdes_lang::Vocab;
    use mdes_nn::{InferArena, Seq2SeqConfig};

    let (pipeline, train, dev, _) = setup();
    let pairs: Vec<(Vec<u32>, Vec<u32>)> = train[0]
        .sentences
        .iter()
        .zip(&train[1].sentences)
        .map(|(s, t)| (s.clone(), t.clone()))
        .collect();
    let cfg = TranslatorConfig::Nmt(Seq2SeqConfig {
        embed_dim: 16,
        hidden: 16,
        train_steps: 30,
        ..Seq2SeqConfig::default()
    });
    let trained = train_translator(
        &cfg,
        &pairs,
        pipeline.languages()[0].vocab.size(),
        pipeline.languages()[1].vocab.size(),
        Vocab::BOS,
    )
    .expect("train");
    let FrozenTranslator::Nmt(translator) = trained else {
        panic!("neural config trains a neural translator");
    };
    let srcs: Vec<&[u32]> = dev[0].sentences.iter().map(Vec::as_slice).collect();
    let mut arena = InferArena::new();
    c.bench_function("framework/nmt_dev_decode_batched", |b| {
        b.iter(|| black_box(translator.translate_batch(black_box(&srcs), 8, &mut arena)))
    });
    c.bench_function("framework/nmt_dev_decode_per_sentence", |b| {
        b.iter(|| {
            black_box(
                srcs.iter()
                    .map(|s| translator.translate(s, 8, &mut arena))
                    .collect::<Vec<Vec<u32>>>(),
            )
        })
    });
}

/// The mdesbench `stream_ngram` plant (8 sensors) and its n-gram snapshot:
/// its window config, days 1–4 train, 5–6 dev, every model valid.
fn stream_ngram_snapshot() -> (PlantData, GraphSnapshot) {
    let plant = generate(&PlantConfig {
        n_sensors: 8,
        days: 8,
        minutes_per_day: 288,
        n_components: 2,
        anomaly_days: vec![8],
        precursor_days: vec![],
        ..PlantConfig::default()
    });
    let mut cfg = MdesConfig {
        window: WindowConfig {
            word_len: 5,
            word_stride: 1,
            sent_len: 6,
            sent_stride: 6,
        },
        ..MdesConfig::default()
    };
    cfg.build.translator = TranslatorConfig::fast();
    cfg.build.threads = 1;
    cfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);
    let m = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 4),
        plant.days_range(5, 6),
        cfg,
    )
    .expect("fit");
    let snapshot = GraphSnapshot::freeze(&m);
    (plant, snapshot)
}

/// One `push_opt_many` round of the mdesbench `stream_ngram` engine: the
/// [`stream_ngram_snapshot`], and 256 sessions each streaming days 7–8
/// from its own offset. A round pushes the next sample of 83 of them (three
/// groups of 83 take turns) on one worker. Sessions are staggered by their
/// warm-up, so 13 or 14 of a round's 83 complete a window. The `_distinct`
/// variant suffixes every record with its stream position, so no record
/// repeats within a window: the input without the repeats the session
/// tables rely on.
fn bench_serve_round(c: &mut Criterion) {
    const SESSIONS: usize = 256;
    const ROUND: usize = 83;
    let (plant, snapshot) = stream_ngram_snapshot();
    let width = plant.traces.len();
    for (name, distinct) in [
        ("framework/serve_round_ngram", false),
        ("framework/serve_round_ngram_distinct", true),
    ] {
        let stream: Vec<Vec<Option<String>>> = plant
            .days_range(7, 8)
            .map(|t| {
                let record = |tr: &RawTrace| match distinct {
                    false => tr.events[t].clone(),
                    true => format!("{}#{t}", tr.events[t]),
                };
                plant.traces.iter().map(|tr| Some(record(tr))).collect()
            })
            .collect();
        let engine = ServingEngine::new(snapshot.clone()).with_threads(1);
        let mut sessions: Vec<StreamSession> = (0..SESSIONS)
            .map(|_| engine.open_session(width).expect("session"))
            .collect();
        let mut next: Vec<usize> = (0..SESSIONS).map(|s| s * 131 % stream.len()).collect();
        let mut sample = |s: usize| {
            next[s] = (next[s] + 1) % stream.len();
            stream[next[s]].as_slice()
        };
        let warmup = sessions[0].warmup();
        for (s, session) in sessions.iter_mut().enumerate() {
            for _ in 0..warmup + s % 6 {
                engine.push_opt(session, sample(s)).expect("warm-up");
            }
        }
        let mut group = 0;
        c.bench_function(name, |b| {
            b.iter(|| {
                let members = group * ROUND..(group + 1) * ROUND;
                group = (group + 1) % (SESSIONS / ROUND);
                let samples: Vec<&[Option<String>]> = members.clone().map(&mut sample).collect();
                black_box(engine.push_opt_many(&mut sessions[members], &samples))
            })
        });
    }
}

/// MDSN encode and decode of the [`stream_ngram_snapshot`] (56 pair
/// models): the artifact a daemon start, `publish`, canary or hot-swap
/// loads.
fn bench_snapshot(c: &mut Criterion) {
    let (_, snapshot) = stream_ngram_snapshot();
    let bytes = snapshot_to_bytes(&snapshot).expect("encode");
    c.bench_function("snapshot/encode_ngram", |b| {
        b.iter(|| black_box(snapshot_to_bytes(black_box(&snapshot)).expect("encode")))
    });
    c.bench_function("snapshot/decode_ngram", |b| {
        b.iter(|| black_box(snapshot_from_bytes(black_box(&bytes)).expect("decode")))
    });
}

/// The 64-bit FNV-1a that MDSN v1–v3, MDCK v1–v4 and MDSV v2 frames
/// carried, as the baseline for CRC-32C.
fn legacy_fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in *part {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The frame checksum over a snapshot-sized record (4 MiB, about
/// `stream_nmt`'s artifact) and over an 84-byte reply frame (kind, u32
/// length and a 79-byte payload), CRC-32C against the FNV-1a it replaced.
fn bench_checksum(c: &mut Criterion) {
    let big: Vec<u8> = (0..4usize << 20).map(|i| (i * 131 + i / 7) as u8).collect();
    let reply: Vec<u8> = big[..79].to_vec();
    let len = (reply.len() as u32).to_le_bytes();
    let frame: [&[u8]; 3] = [&[18], &len, &reply];
    c.bench_function("checksum/crc32c_4mib", |b| {
        b.iter(|| black_box(crc32c_parts(&[black_box(&big)])))
    });
    c.bench_function("checksum/fnv1a_4mib", |b| {
        b.iter(|| black_box(legacy_fnv1a(&[black_box(&big)])))
    });
    c.bench_function("checksum/crc32c_reply84", |b| {
        b.iter(|| black_box(crc32c_parts(black_box(&frame))))
    });
    c.bench_function("checksum/fnv1a_reply84", |b| {
        b.iter(|| black_box(legacy_fnv1a(black_box(&frame))))
    });
}

criterion_group!(
    benches,
    bench_ngram_fit,
    bench_build_graph,
    bench_detection,
    bench_nmt_dev_decode,
    bench_serve_round,
    bench_snapshot,
    bench_checksum
);
criterion_main!(benches);
