//! Thread-count invariance of the full pipeline.
//!
//! Algorithm 1's sweep distributes sensor pairs over worker threads, but each
//! pair model is trained independently and deterministically, so the fitted
//! framework must not depend on the thread count in any way. These tests
//! extend the `multithreaded_matches_single_thread` unit test (which compares
//! graphs on a toy corpus) to the whole [`Mdes`] pipeline on synthetic plant
//! data: the serialized MVRG must be byte identical between a
//! single-threaded and a four-threaded fit, for both translator families;
//! every pair model's score and calibrated floor must match; and detection on
//! the fitted instance must agree too (for NMT that exercises every decoder
//! weight of every pair model).

use mdes::core::{
    snapshot_from_bytes, snapshot_to_bytes, GraphSnapshot, Mdes, MdesConfig, TranslatorConfig,
};
use mdes::graph::ScoreRange;
use mdes::lang::WindowConfig;
use mdes::nn::Seq2SeqConfig;
use mdes::synth::plant::{generate, PlantConfig, PlantData};

struct FitOutput {
    /// The serialized multivariate relationship graph.
    graph_json: String,
    /// `(src, dst, train_score, dev_floor)` per pair model.
    models: Vec<(usize, usize, f64, f64)>,
    /// Anomaly scores on the held-out anomalous day.
    detection: Vec<f64>,
}

/// Fits the same plant with the given thread count.
fn fit_mdes(threads: usize, translator: TranslatorConfig) -> (Mdes, PlantData) {
    let plant = generate(&PlantConfig {
        n_sensors: 6,
        days: 8,
        minutes_per_day: 288,
        n_components: 2,
        anomaly_days: vec![7],
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
    cfg.build.translator = translator;
    cfg.build.threads = threads;
    cfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);
    let m = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 3),
        plant.days_range(4, 5),
        cfg,
    )
    .expect("fit");
    (m, plant)
}

fn fit_plant(threads: usize, translator: TranslatorConfig) -> FitOutput {
    let (m, plant) = fit_mdes(threads, translator);
    FitOutput {
        graph_json: serde_json::to_string(m.graph()).expect("serialize"),
        models: m
            .snapshot()
            .models()
            .iter()
            .map(|p| (p.src, p.dst, p.train_score, p.dev_floor))
            .collect(),
        detection: m
            .snapshot()
            .detect_range(&plant.traces, plant.day_range(7))
            .expect("detect")
            .scores,
    }
}

/// 64-bit FNV-1a, a dependency-free digest for pinning bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The same plant's artifact as the MDSN v2 writer produced it: one JSON
/// payload. Kept as a read-compatibility fixture for the legacy reader.
const NGRAM_PLANT_V2: &[u8] = include_bytes!("fixtures/ngram_plant_v2.mdsn");

/// The same plant's artifact as the MDSN v3 writer produced it: the
/// sectioned record under a 17-byte frame header with an FNV-1a checksum.
const NGRAM_PLANT_V3: &[u8] = include_bytes!("fixtures/ngram_plant_v3.mdsn");

/// The same plant's artifact as the MDSN v4 writer produced it: the v5
/// framing, with each n-gram pair model's counts as nested JSON maps in the
/// record header.
const NGRAM_PLANT_V4: &[u8] = include_bytes!("fixtures/ngram_plant_v4.mdsn");

/// Digest over every window's score bits and alerts.
fn score_digest(result: &mdes::core::DetectionResult) -> (usize, u64) {
    let mut score_bytes = Vec::new();
    for (score, alerts) in result.scores.iter().zip(&result.alerts) {
        score_bytes.extend_from_slice(&score.to_bits().to_le_bytes());
        for &(src, dst) in alerts {
            score_bytes.extend_from_slice(&(src as u64).to_le_bytes());
            score_bytes.extend_from_slice(&(dst as u64).to_le_bytes());
        }
    }
    (result.scores.len(), fnv1a(&score_bytes))
}

/// Pins the MDSN bytes of a small n-gram plant snapshot, and the anomaly
/// scores and alerts it produces, to digests recorded before the n-gram
/// translator gained derived decode tables and BLEU its trie kernel. The
/// snapshot bytes carry every pair's dev corpus BLEU (Algorithm 1), so the
/// byte digests also pin corpus scoring; the tables are rebuilt on load and
/// must never reach the artifact. The score digest pins Algorithm 2's
/// decode and sentence BLEU, through the restored snapshot.
///
/// Four byte pins: the v5 layout this build writes (packed count tables),
/// and the v4, v3 and v2 bytes earlier layouts wrote for the same fit —
/// committed as fixtures, whose count maps must convert to the same
/// artifact and the same scores.
#[test]
fn ngram_snapshot_bytes_and_scores_are_pinned() {
    let (m, plant) = fit_mdes(1, TranslatorConfig::fast());
    let bytes = snapshot_to_bytes(&GraphSnapshot::freeze(&m)).expect("encode");
    let restored = snapshot_from_bytes(&bytes).expect("decode");
    assert_eq!(snapshot_to_bytes(&restored).expect("re-encode"), bytes);
    let sets = m
        .language()
        .encode_segment(&plant.traces, plant.day_range(7))
        .expect("encode");
    let result = restored
        .detect(&sets, restored.detection(), &[])
        .expect("detect");
    assert_eq!(
        result,
        m.snapshot()
            .detect_range(&plant.traces, plant.day_range(7))
            .expect("detect")
    );
    // v5 pin.
    assert_eq!((bytes.len(), fnv1a(&bytes)), (59689, 0x27a3_7c54_baeb_61a0));
    assert_eq!(score_digest(&result), (47, 0x9531_6a39_5802_9dda));

    // v4, v3 and v2 pins: the fixtures are earlier layouts' bytes, and each
    // decodes to the artifact v5 encodes and to the same scores.
    assert_eq!(
        (NGRAM_PLANT_V4.len(), fnv1a(NGRAM_PLANT_V4)),
        (62138, 0x09e4_8833_67c4_57bc)
    );
    assert_eq!(
        (NGRAM_PLANT_V3.len(), fnv1a(NGRAM_PLANT_V3)),
        (62142, 0xe0d5_fdcb_48ed_e9f8)
    );
    assert_eq!(
        (NGRAM_PLANT_V2.len(), fnv1a(NGRAM_PLANT_V2)),
        (62134, 0xce00_4e10_a181_86b0)
    );
    for (tag, fixture) in [
        ("v4", NGRAM_PLANT_V4),
        ("v3", NGRAM_PLANT_V3),
        ("v2", NGRAM_PLANT_V2),
    ] {
        let legacy = snapshot_from_bytes(fixture).unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_eq!(snapshot_to_bytes(&legacy).expect("encode"), bytes, "{tag}");
        let legacy_result = legacy
            .detect(&sets, legacy.detection(), &[])
            .expect("detect");
        assert_eq!(
            score_digest(&legacy_result),
            (47, 0x9531_6a39_5802_9dda),
            "{tag}"
        );
    }
}

#[test]
fn ngram_pipeline_identical_across_thread_counts() {
    let one = fit_plant(1, TranslatorConfig::fast());
    let four = fit_plant(4, TranslatorConfig::fast());
    assert_eq!(
        one.graph_json, four.graph_json,
        "MVRG differs across thread counts"
    );
    assert_eq!(one.models, four.models);
    assert_eq!(one.detection, four.detection);
}

/// Algorithm 2's per-model loop also runs on a worker pool; the merged
/// result (scores, alert order, coverage — the whole serialized
/// `DetectionResult`) must be byte identical to a serial run at any thread
/// count, with and without excluded sensors.
#[test]
fn detection_identical_across_thread_counts() {
    let plant = generate(&PlantConfig {
        n_sensors: 6,
        days: 8,
        minutes_per_day: 288,
        n_components: 2,
        anomaly_days: vec![7],
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
    cfg.build.translator = TranslatorConfig::Nmt(Seq2SeqConfig {
        embed_dim: 10,
        hidden: 10,
        train_steps: 25,
        ..Seq2SeqConfig::default()
    });
    cfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);
    let m = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 3),
        plant.days_range(4, 5),
        cfg,
    )
    .expect("fit");
    let sets = m
        .language()
        .encode_segment(&plant.traces, plant.day_range(7))
        .expect("encode");

    // Each run decodes on a fresh copy of the snapshot, whose translation
    // memo is empty, so every thread count decodes every window.
    let run = |threads: usize, excluded: &[usize]| {
        let snap = GraphSnapshot::freeze(&m);
        let dcfg = snap.detection().clone().with_threads(threads);
        let result = snap.detect(&sets, &dcfg, excluded).expect("detect");
        serde_json::to_string(&result).expect("serialize")
    };
    let (serial_full, serial_excl) = (run(1, &[]), run(1, &[1]));
    for threads in [2, 4] {
        assert_eq!(
            serial_full,
            run(threads, &[]),
            "detection differs between 1 and {threads} threads"
        );
        assert_eq!(
            serial_excl,
            run(threads, &[1]),
            "detection excluding sensor 1 differs between 1 and {threads} threads"
        );
    }
}

#[test]
fn nmt_pipeline_identical_across_thread_counts() {
    let tiny = TranslatorConfig::Nmt(Seq2SeqConfig {
        embed_dim: 10,
        hidden: 10,
        train_steps: 25,
        ..Seq2SeqConfig::default()
    });
    let one = fit_plant(1, tiny.clone());
    let four = fit_plant(4, tiny);
    assert_eq!(
        one.graph_json, four.graph_json,
        "MVRG differs across thread counts"
    );
    assert_eq!(one.models, four.models);
    assert_eq!(one.detection, four.detection);
}
