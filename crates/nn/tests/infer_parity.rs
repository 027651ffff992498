//! Parity harness for the tape-free inference engine (`mdes_nn::infer`).
//!
//! The engine replicates the tape's forward arithmetic op for op, so its
//! output must match the tape oracle (`translate*_tape`) **bit for bit** —
//! not approximately — on any model configuration: both cell families, both
//! attention kinds, input feeding on/off, stacked layers, greedy single,
//! greedy batched, and beam decoding. The whole suite also runs under
//! `--features reference-kernels` in CI so both kernel families are checked
//! against the oracle.

use mdes_nn::{AttentionKind, CellKind, InferArena, InferState, ModelSpec, Seq2Seq, Seq2SeqConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A model with xavier-initialized (untrained) weights — parity is a
/// property of the arithmetic, not of the weight values, and skipping `fit`
/// keeps the proptest cases fast.
fn build_model(
    vocab: usize,
    cell: CellKind,
    attention: AttentionKind,
    input_feeding: bool,
    layers: usize,
    seed: u64,
) -> Seq2Seq {
    let cfg = Seq2SeqConfig {
        embed_dim: 6,
        hidden: 7,
        layers,
        cell,
        attention,
        input_feeding,
        seed,
        ..Seq2SeqConfig::default()
    };
    Seq2Seq::new(vocab, vocab, 0, cfg)
}

fn random_sentence(len: usize, vocab: usize, rng: &mut StdRng) -> Vec<usize> {
    (0..len).map(|_| rng.gen_range(0..vocab)).collect()
}

fn cell_from(flag: u8) -> CellKind {
    if flag != 0 {
        CellKind::Gru
    } else {
        CellKind::Lstm
    }
}

fn attention_from(flag: u8) -> AttentionKind {
    if flag != 0 {
        AttentionKind::General
    } else {
        AttentionKind::Dot
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Greedy single-sentence decoding: engine bit-identical to the tape.
    /// Two rounds per case so the second run exercises the warm scratch
    /// arena, not just the freshly-built context.
    #[test]
    fn greedy_matches_tape_exactly(
        gru in 0u8..=1,
        general in 0u8..=1,
        feeding in 0u8..=1,
        layers in 1usize..=2,
        src_len in 1usize..=6,
        out_len in 1usize..=6,
        vocab in 3usize..=9,
        seed in 0u64..1 << 32,
    ) {
        let model = build_model(vocab, cell_from(gru), attention_from(general), feeding != 0, layers, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        for _ in 0..2 {
            let src = random_sentence(src_len, vocab, &mut rng);
            let engine = model.translate(&src, out_len).expect("engine");
            let tape = model.translate_tape(&src, out_len).expect("tape");
            prop_assert_eq!(engine, tape);
        }
    }

    /// Batched greedy decoding: engine bit-identical to the tape, including
    /// batch-size changes between calls on the same context.
    #[test]
    fn batched_matches_tape_exactly(
        gru in 0u8..=1,
        general in 0u8..=1,
        feeding in 0u8..=1,
        layers in 1usize..=2,
        src_len in 1usize..=5,
        out_len in 1usize..=5,
        batch in 1usize..=4,
        vocab in 3usize..=9,
        seed in 0u64..1 << 32,
    ) {
        let model = build_model(vocab, cell_from(gru), attention_from(general), feeding != 0, layers, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
        for round in 0..2 {
            let b = if round == 0 { batch } else { (batch % 4) + 1 };
            let sentences: Vec<Vec<usize>> =
                (0..b).map(|_| random_sentence(src_len, vocab, &mut rng)).collect();
            let srcs: Vec<&[usize]> = sentences.iter().map(Vec::as_slice).collect();
            let engine = model.translate_batch(&srcs, out_len).expect("engine");
            let tape = model.translate_batch_tape(&srcs, out_len).expect("tape");
            prop_assert_eq!(engine, tape);
        }
    }

    /// Beam decoding: engine bit-identical to the tape at widths 1–3.
    #[test]
    fn beam_matches_tape_exactly(
        gru in 0u8..=1,
        general in 0u8..=1,
        feeding in 0u8..=1,
        layers in 1usize..=2,
        src_len in 1usize..=5,
        out_len in 1usize..=5,
        beam_width in 1usize..=3,
        vocab in 3usize..=9,
        seed in 0u64..1 << 32,
    ) {
        let model = build_model(vocab, cell_from(gru), attention_from(general), feeding != 0, layers, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5678);
        let src = random_sentence(src_len, vocab, &mut rng);
        let engine = model.translate_beam(&src, out_len, beam_width).expect("engine");
        let tape = model.translate_beam_tape(&src, out_len, beam_width).expect("tape");
        prop_assert_eq!(engine, tape);
    }
}

/// Training after a translate must invalidate the packed weights: a stale
/// inference cache would silently keep decoding with the old parameters.
#[test]
fn refit_invalidates_inference_cache() {
    let pairs: Vec<(Vec<usize>, Vec<usize>)> = {
        let mut rng = StdRng::seed_from_u64(3);
        (0..20)
            .map(|_| {
                let src: Vec<usize> = (0..4).map(|_| rng.gen_range(1..6)).collect();
                let tgt: Vec<usize> = src.iter().map(|&t| (t + 1) % 6).collect();
                (src, tgt)
            })
            .collect()
    };
    let cfg = Seq2SeqConfig {
        embed_dim: 8,
        hidden: 8,
        train_steps: 15,
        ..Seq2SeqConfig::default()
    };
    let mut model = Seq2Seq::new(6, 6, 0, cfg);
    model.fit(&pairs).expect("fit");
    // Build the cache, then change the parameters by training further.
    let before = model.translate(&pairs[0].0, 4).expect("warm translate");
    assert_eq!(before, model.translate_tape(&pairs[0].0, 4).expect("tape"));
    model.fit(&pairs).expect("refit");
    let after = model
        .translate(&pairs[0].0, 4)
        .expect("translate after refit");
    assert_eq!(
        after,
        model
            .translate_tape(&pairs[0].0, 4)
            .expect("tape after refit"),
        "engine served stale weights after refit"
    );
}

/// A deserialized model (which starts with an empty cache) must agree with
/// the original on both paths.
#[test]
fn serde_roundtrip_engine_matches_tape() {
    let mut rng = StdRng::seed_from_u64(9);
    let model = build_model(7, CellKind::Lstm, AttentionKind::General, true, 2, 42);
    let src = random_sentence(5, 7, &mut rng);
    let json = serde_json::to_string(&model).expect("serialize");
    let restored: Seq2Seq = serde_json::from_str(&json).expect("deserialize");
    let original = model.translate(&src, 5).expect("original");
    assert_eq!(original, restored.translate(&src, 5).expect("restored"));
    assert_eq!(original, restored.translate_tape(&src, 5).expect("tape"));
}

/// A frozen `ModelSpec`, round-tripped through serde and decoded through a
/// cold shared `InferArena`, must stay bit-identical to the tape oracle —
/// this is the serving-artifact contract, checked across both cell families
/// and both attention kinds.
#[test]
fn frozen_spec_roundtrip_matches_tape_exactly() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut arena = InferArena::new();
    for (i, (cell, attention, feeding)) in [
        (CellKind::Lstm, AttentionKind::Dot, false),
        (CellKind::Lstm, AttentionKind::General, true),
        (CellKind::Gru, AttentionKind::Dot, true),
        (CellKind::Gru, AttentionKind::General, false),
    ]
    .into_iter()
    .enumerate()
    {
        let model = build_model(8, cell, attention, feeding, 2, 100 + i as u64);
        let spec = model.freeze();
        let json = serde_json::to_string(&spec).expect("serialize spec");
        let restored: ModelSpec = serde_json::from_str(&json).expect("deserialize spec");
        assert_eq!(spec, restored, "freeze artifact must round-trip exactly");
        assert_eq!(restored.src_vocab(), 8);
        assert_eq!(restored.tgt_vocab(), 8);
        assert!(restored.approx_bytes() > 0);
        for _ in 0..2 {
            let sentences: Vec<Vec<usize>> =
                (0..3).map(|_| random_sentence(4, 8, &mut rng)).collect();
            let srcs: Vec<&[usize]> = sentences.iter().map(Vec::as_slice).collect();
            // The same warm arena serves every spec in turn, as a serving
            // worker would.
            let engine = arena.translate_batch(&restored, &srcs, 5);
            let tape = model.translate_batch_tape(&srcs, 5).expect("tape");
            assert_eq!(engine, tape, "frozen decode diverged from the tape");
        }
    }
}

/// Every decode step's logits for window r carry the same bits whether r is
/// decoded alone or inside a batch of up to five (the batch sizes serving
/// reaches, across the GEMM's one- to four-row tiles): cross-session
/// batching must never change a score.
#[test]
fn decode_logits_are_batch_invariant() {
    let mut rng = StdRng::seed_from_u64(29);
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (i, (cell, attention, feeding)) in [
        (CellKind::Lstm, AttentionKind::Dot, false),
        (CellKind::Gru, AttentionKind::General, true),
    ]
    .into_iter()
    .enumerate()
    {
        let spec = build_model(9, cell, attention, feeding, 2, 200 + i as u64).freeze();
        for batch in 1..=5 {
            let sentences: Vec<Vec<usize>> = (0..batch)
                .map(|_| random_sentence(6, 9, &mut rng))
                .collect();
            let prevs: Vec<Vec<usize>> = (0..4)
                .map(|_| random_sentence(batch, 9, &mut rng))
                .collect();
            // Per-step logits of each row, decoded with the given windows.
            let decode = |rows: &[usize]| {
                let mut arena = InferArena::new();
                let srcs: Vec<&[usize]> = rows.iter().map(|&r| sentences[r].as_slice()).collect();
                arena.encode(&spec, &srcs);
                let mut state = InferState::default();
                arena.start_state(&mut state);
                let mut steps = Vec::new();
                for prev in &prevs {
                    let prev: Vec<usize> = rows.iter().map(|&r| prev[r]).collect();
                    arena.decode_step(&spec, &prev, &mut state);
                    steps.push(
                        (0..rows.len())
                            .map(|b| bits(arena.logits().row(b)))
                            .collect::<Vec<_>>(),
                    );
                }
                steps
            };
            let together = decode(&(0..batch).collect::<Vec<_>>());
            for r in 0..batch {
                let alone = decode(&[r]);
                for (t, (a, b)) in alone.iter().zip(&together).enumerate() {
                    assert_eq!(a[0], b[r], "{cell:?} batch {batch} row {r} step {t}");
                }
            }
        }
    }
}

/// The frozen artifact must be strictly smaller than the full training-state
/// model on the wire: freezing drops the tape, optimizer moments and
/// gradient buffers.
#[test]
fn frozen_spec_serializes_compactly() {
    let pairs: Vec<(Vec<usize>, Vec<usize>)> = {
        let mut rng = StdRng::seed_from_u64(23);
        (0..12)
            .map(|_| {
                let src: Vec<usize> = (0..4).map(|_| rng.gen_range(1..6)).collect();
                let tgt: Vec<usize> = src.iter().map(|&t| (t + 1) % 6).collect();
                (src, tgt)
            })
            .collect()
    };
    let cfg = Seq2SeqConfig {
        embed_dim: 8,
        hidden: 8,
        train_steps: 5,
        ..Seq2SeqConfig::default()
    };
    let mut model = Seq2Seq::new(6, 6, 0, cfg);
    model.fit(&pairs).expect("fit");
    let full = serde_json::to_string(&model).expect("serialize model");
    let frozen = serde_json::to_string(&model.freeze()).expect("serialize spec");
    assert!(
        frozen.len() * 2 < full.len(),
        "frozen artifact ({} bytes) should be well under half the full \
         training state ({} bytes)",
        frozen.len(),
        full.len()
    );
}
