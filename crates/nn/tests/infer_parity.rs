//! Properties of the tape-free inference engine (`mdes_nn::infer`) that
//! need no tape: decode-step logits are batch invariant, and the frozen
//! artifact is compact. The bit-parity proptests against the tape forward
//! pass live in `seq2seq`'s unit tests, because that oracle is compiled
//! into test builds only. The whole suite also runs under
//! `--features reference-kernels` in CI.

use mdes_nn::{AttentionKind, CellKind, InferArena, InferState, Seq2Seq, Seq2SeqConfig};
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
