//! Micro-benchmarks of the neural substrate: matrix products, LSTM steps,
//! seq2seq training steps and greedy decoding.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mdes_nn::{Matrix, Seq2Seq, Seq2SeqConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = Matrix::uniform(64, 64, 1.0, &mut rng);
    let b = Matrix::uniform(64, 64, 1.0, &mut rng);
    c.bench_function("matrix/matmul_64x64", |bench| {
        bench.iter(|| black_box(a.matmul(black_box(&b))))
    });
    c.bench_function("matrix/matmul_tn_64x64", |bench| {
        bench.iter(|| black_box(a.matmul_tn(black_box(&b))))
    });

    // Before/after pairs: the blocked kernels against the naive reference
    // loops they replaced (bit-identical output, see crates/nn/tests/parity.rs).
    let a = Matrix::uniform(128, 128, 1.0, &mut rng);
    let b = Matrix::uniform(128, 128, 1.0, &mut rng);
    c.bench_function("matrix/matmul_128x128", |bench| {
        bench.iter(|| black_box(a.matmul(black_box(&b))))
    });
    c.bench_function("matrix/matmul_128x128_reference", |bench| {
        bench.iter(|| black_box(mdes_nn::reference::matmul(black_box(&a), black_box(&b))))
    });
    c.bench_function("matrix/matmul_tn_128x128", |bench| {
        bench.iter(|| black_box(a.matmul_tn(black_box(&b))))
    });
    c.bench_function("matrix/matmul_tn_128x128_reference", |bench| {
        bench.iter(|| black_box(mdes_nn::reference::matmul_tn(black_box(&a), black_box(&b))))
    });
    c.bench_function("matrix/matmul_nt_128x128", |bench| {
        bench.iter(|| black_box(a.matmul_nt(black_box(&b))))
    });
    c.bench_function("matrix/matmul_nt_128x128_reference", |bench| {
        bench.iter(|| black_box(mdes_nn::reference::matmul_nt(black_box(&a), black_box(&b))))
    });
}

fn bench_lstm_step(c: &mut Criterion) {
    use mdes_nn::lstm::{LstmLayer, LstmState};
    use mdes_nn::{ParamSet, Tape};
    let mut rng = StdRng::seed_from_u64(2);
    let mut params = ParamSet::new();
    let layer = LstmLayer::new(&mut params, 32, 32, &mut rng);
    let x_value = Matrix::uniform(8, 32, 1.0, &mut rng);
    // Warm (nonzero) recurrent state: a zero state would let the reference
    // kernels' `== 0.0` skip dodge the whole hidden GEMM, which no real
    // mid-sequence step can. One tape is reused across iterations, the
    // steady-state shape of the training loop.
    let h_value = Matrix::uniform(8, 32, 0.5, &mut rng);
    let c_value = Matrix::uniform(8, 32, 0.5, &mut rng);
    let setup = || {
        let mut tape = Tape::new();
        let bound = layer.bind(&mut tape, &params);
        let state = LstmState {
            h: tape.leaf(h_value.clone()),
            c: tape.leaf(c_value.clone()),
        };
        let x = tape.leaf(x_value.clone());
        (tape, bound, state, x)
    };
    c.bench_function("lstm/step_batch8_hidden32", |bench| {
        bench.iter_batched(
            setup,
            |(mut tape, bound, state, x)| black_box(bound.step(&mut tape, x, state)),
            BatchSize::SmallInput,
        )
    });
    // Steady-state recurrence on one reused tape: 16 fused steps plus the
    // recycling backward pass, the shape of a seq2seq training iteration.
    c.bench_function("lstm/forward_backward_16steps", |bench| {
        let mut tape = Tape::new();
        let mut p = params.clone();
        bench.iter(|| {
            tape.reset();
            let bound = layer.bind(&mut tape, &p);
            let mut state = layer.zero_state(&mut tape, 8);
            let x = tape.leaf(x_value.clone());
            for _ in 0..16 {
                state = bound.step(&mut tape, x, state);
            }
            let loss = tape.cross_entropy(state.h, &[0, 1, 2, 3, 4, 5, 6, 7]);
            p.zero_grads();
            tape.backward_accumulate(loss, &mut p);
            black_box(p.grad_norm())
        })
    });
}

fn shifted_corpus(n: usize, len: usize, vocab: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut rng = StdRng::seed_from_u64(3);
    (0..n)
        .map(|_| {
            let src: Vec<usize> = (0..len).map(|_| rng.gen_range(2..vocab)).collect();
            let tgt: Vec<usize> = src.iter().map(|&t| (t + 1) % vocab).collect();
            (src, tgt)
        })
        .collect()
}

fn bench_seq2seq(c: &mut Criterion) {
    let corpus = shifted_corpus(32, 8, 12);
    let cfg = Seq2SeqConfig {
        embed_dim: 16,
        hidden: 16,
        train_steps: 1,
        batch_size: 8,
        ..Seq2SeqConfig::default()
    };
    c.bench_function("seq2seq/train_step_len8", |bench| {
        bench.iter_batched(
            || Seq2Seq::new(12, 12, 1, cfg.clone()),
            |mut model| {
                model.fit(black_box(&corpus)).expect("fit");
                black_box(model)
            },
            BatchSize::SmallInput,
        )
    });

    // One training step (a `fit` of one step on a fresh model) at the pair
    // model shapes of the mdesbench `fit_fleet` and `stream_nmt` workloads.
    for (name, cfg, len) in [
        (
            "seq2seq/train_step_fleet",
            Seq2SeqConfig {
                embed_dim: 8,
                hidden: 8,
                batch_size: 4,
                train_steps: 1,
                ..Seq2SeqConfig::default()
            },
            10,
        ),
        (
            "seq2seq/train_step_stream",
            Seq2SeqConfig {
                train_steps: 1,
                ..Seq2SeqConfig::default()
            },
            6,
        ),
    ] {
        let corpus = shifted_corpus(32, len, 12);
        c.bench_function(name, |bench| {
            bench.iter_batched(
                || Seq2Seq::new(12, 12, 1, cfg.clone()),
                |mut model| {
                    model.fit(black_box(&corpus)).expect("fit");
                    black_box(model)
                },
                BatchSize::SmallInput,
            )
        });
    }

    let mut trained = Seq2Seq::new(
        12,
        12,
        1,
        Seq2SeqConfig {
            train_steps: 40,
            ..cfg
        },
    );
    trained.fit(&corpus).expect("fit");
    let src = corpus[0].0.clone();
    c.bench_function("seq2seq/greedy_decode_len8", |bench| {
        bench.iter(|| black_box(trained.translate(black_box(&src), 8).expect("translate")))
    });
}

criterion_group!(benches, bench_matmul, bench_lstm_step, bench_seq2seq);
criterion_main!(benches);
