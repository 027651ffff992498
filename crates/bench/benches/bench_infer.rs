//! Micro-benchmarks of the tape-free inference engine, the crate's only
//! decoder: greedy single-sentence decoding, batched decoding and beam
//! search of a frozen paper-scale model through an `InferArena`, then the
//! quantized encodings, the serving shapes and the gate activations.

use criterion::{criterion_group, criterion_main, Criterion};
use mdes_nn::{InferArena, Seq2Seq, Seq2SeqConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn paper_scale_model(vocab: usize) -> Seq2Seq {
    // Embedding/hidden sizes in the range the plant experiments use; weights
    // stay untrained — decode cost does not depend on the weight values.
    let cfg = Seq2SeqConfig {
        embed_dim: 32,
        hidden: 64,
        ..Seq2SeqConfig::default()
    };
    Seq2Seq::new(vocab, vocab, 0, cfg)
}

fn random_sentences(n: usize, len: usize, vocab: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..len).map(|_| rng.gen_range(0..vocab)).collect())
        .collect()
}

fn bench_greedy(c: &mut Criterion) {
    let vocab = 24;
    let spec = paper_scale_model(vocab).freeze();
    let src = random_sentences(1, 10, vocab, 7).remove(0);
    let mut arena = InferArena::new();
    // Size the arena first so the entry measures the steady-state push.
    black_box(arena.translate_batch(&spec, &[src.as_slice()], 10));
    c.bench_function("infer/greedy_len10", |bench| {
        bench.iter(|| black_box(arena.translate_batch(&spec, &[black_box(src.as_slice())], 10)))
    });
}

fn bench_batched(c: &mut Criterion) {
    let vocab = 24;
    let spec = paper_scale_model(vocab).freeze();
    let sentences = random_sentences(16, 10, vocab, 8);
    let srcs: Vec<&[usize]> = sentences.iter().map(Vec::as_slice).collect();
    let mut arena = InferArena::new();
    black_box(arena.translate_batch(&spec, &srcs, 10));
    c.bench_function("infer/batch16_len10", |bench| {
        bench.iter(|| black_box(arena.translate_batch(&spec, black_box(&srcs), 10)))
    });
}

fn bench_beam(c: &mut Criterion) {
    let vocab = 24;
    let spec = paper_scale_model(vocab).freeze();
    let src = random_sentences(1, 10, vocab, 9).remove(0);
    let mut arena = InferArena::new();
    black_box(arena.translate_beam(&spec, &src, 10, 3).expect("warm"));
    c.bench_function("infer/beam3_len10", |bench| {
        bench.iter(|| {
            black_box(
                arena
                    .translate_beam(&spec, black_box(&src), 10, 3)
                    .expect("beam"),
            )
        })
    });
}

/// Frozen-artifact decode across the three weight encodings, through the
/// same shared arena a serving worker uses. The `bytes` field of each JSON
/// record carries the resident weight footprint, so one `BENCH_infer.json`
/// shows the size/speed trade of f16/int8 against the f32 baseline.
fn bench_quantized(c: &mut Criterion) {
    use mdes_nn::QuantMode;
    let vocab = 24;
    let model = paper_scale_model(vocab);
    let spec = model.freeze();
    let sentences = random_sentences(16, 10, vocab, 11);
    let srcs: Vec<&[usize]> = sentences.iter().map(Vec::as_slice).collect();
    let mut arena = InferArena::new();
    black_box(arena.translate_batch(&spec, &srcs, 10));
    c.bench_function("infer/batch16_len10_frozen_f32", |bench| {
        bench.bytes(spec.approx_bytes() as u64);
        bench.iter(|| black_box(arena.translate_batch(black_box(&spec), &srcs, 10)))
    });
    for mode in [QuantMode::F16, QuantMode::Int8] {
        let (qspec, report) = spec.quantize(mode).expect("quantize");
        assert!(report.matrices > 0);
        black_box(arena.translate_batch(&qspec, &srcs, 10));
        c.bench_function(&format!("infer/batch16_len10_frozen_{mode}"), |bench| {
            bench.bytes(qspec.approx_bytes() as u64);
            bench.iter(|| black_box(arena.translate_batch(black_box(&qspec), &srcs, 10)))
        });
    }
}

/// The serving regime the quantized encodings exist for: a worker sweeping
/// many pair models per window, so every model's weights stream through the
/// cache once per round instead of staying resident. Halving (f16) or
/// quartering (int8) the weight bytes is a bandwidth win here, not just a
/// disk-size win — this is where the measured decode speedup shows up.
fn bench_quantized_sweep(c: &mut Criterion) {
    use mdes_nn::QuantMode;
    let vocab = 32;
    let models = 24;
    let cfg = Seq2SeqConfig {
        embed_dim: 64,
        hidden: 128,
        ..Seq2SeqConfig::default()
    };
    let specs: Vec<_> = (0..models)
        .map(|_| Seq2Seq::new(vocab, vocab, 0, cfg.clone()).freeze())
        .collect();
    let sentences = random_sentences(4, 6, vocab, 13);
    let srcs: Vec<&[usize]> = sentences.iter().map(Vec::as_slice).collect();
    let mut arena = InferArena::new();
    let total_bytes = |bytes_each: usize| (bytes_each * models) as u64;

    black_box(arena.translate_batch(&specs[0], &srcs, 6));
    c.bench_function("infer/sweep24_models_f32", |bench| {
        bench.bytes(total_bytes(specs[0].approx_bytes()));
        bench.iter(|| {
            for spec in &specs {
                black_box(arena.translate_batch(spec, &srcs, 6));
            }
        })
    });
    for mode in [QuantMode::F16, QuantMode::Int8] {
        let qspecs: Vec<_> = specs
            .iter()
            .map(|s| s.quantize(mode).expect("quantize").0)
            .collect();
        black_box(arena.translate_batch(&qspecs[0], &srcs, 6));
        c.bench_function(&format!("infer/sweep24_models_{mode}"), |bench| {
            bench.bytes(total_bytes(qspecs[0].approx_bytes()));
            bench.iter(|| {
                for qspec in &qspecs {
                    black_box(arena.translate_batch(qspec, &srcs, 6));
                }
            })
        });
    }
}

/// Frozen decode at the two benchmark serving shapes, through one shared
/// arena with `u32` tokens as a serving worker decodes: the neural stream
/// snapshot (embed and hidden 32, six-word windows) at a lone window and at
/// the decode batch of about three that cross-session batching reaches,
/// and the fleet's tiny pair models (embed and hidden 8, ten-word windows)
/// at a batch of two.
fn bench_serving_shapes(c: &mut Criterion) {
    let vocab = 24;
    let mut arena = InferArena::new();
    for (dim, words, batch) in [(32, 6, 1), (32, 6, 3), (8, 10, 2)] {
        let cfg = Seq2SeqConfig {
            embed_dim: dim,
            hidden: dim,
            ..Seq2SeqConfig::default()
        };
        let spec = Seq2Seq::new(vocab, vocab, 0, cfg).freeze();
        let sentences: Vec<Vec<u32>> = random_sentences(batch, words, vocab, 17)
            .into_iter()
            .map(|s| s.into_iter().map(|t| t as u32).collect())
            .collect();
        let srcs: Vec<&[u32]> = sentences.iter().map(Vec::as_slice).collect();
        black_box(arena.translate_batch(&spec, &srcs, words));
        c.bench_function(
            &format!("infer/serve_h{dim}_len{words}_b{batch}"),
            |bench| bench.iter(|| black_box(arena.translate_batch(black_box(&spec), &srcs, words))),
        );
    }
}

/// The gate activations over one LSTM step's gate width at the stream
/// shape (4 x 32 values), across the range trained pre-activations span.
fn bench_activations(c: &mut Criterion) {
    let xs: Vec<f32> = (0..128).map(|i| (i as f32 - 64.0) * 0.125).collect();
    let mut out = vec![0.0f32; xs.len()];
    c.bench_function("activation/sigmoid_slice_128", |bench| {
        bench.iter(|| mdes_nn::matrix::sigmoid_slice(black_box(&xs), &mut out))
    });
    c.bench_function("activation/tanh_slice_128", |bench| {
        bench.iter(|| mdes_nn::matrix::tanh_slice(black_box(&xs), &mut out))
    });
}

criterion_group!(
    benches,
    bench_serving_shapes,
    bench_activations,
    bench_greedy,
    bench_batched,
    bench_beam,
    bench_quantized,
    bench_quantized_sweep
);
criterion_main!(benches);
