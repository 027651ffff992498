//! Micro-benchmarks of BLEU scoring — the inner loop of both Algorithm 1
//! (corpus scoring per pair) and Algorithm 2 (sentence scoring per window).

use criterion::{criterion_group, criterion_main, Criterion};
use mdes_bleu::{corpus_bleu, sentence_bleu, sentence_bleu_pre, BleuConfig, RefNgrams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn sentences(n: usize, len: usize, vocab: u32, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..len).map(|_| rng.gen_range(0..vocab)).collect())
        .collect()
}

fn bench_sentence(c: &mut Criterion) {
    let hyp = &sentences(1, 20, 30, 1)[0];
    let reference = &sentences(1, 20, 30, 2)[0];
    let cfg = BleuConfig::sentence();
    c.bench_function("bleu/sentence_len20", |b| {
        b.iter(|| black_box(sentence_bleu(black_box(hyp), black_box(reference), &cfg)))
    });
    // Algorithm 2's form: the reference trie is built once per test window
    // and shared by every model scored against it.
    let pre = RefNgrams::new(reference, cfg.max_n);
    c.bench_function("bleu/sentence_pre_len20", |b| {
        b.iter(|| black_box(sentence_bleu_pre(black_box(hyp), black_box(&pre), &cfg)))
    });
}

fn bench_corpus(c: &mut Criterion) {
    let hyps = sentences(200, 20, 30, 3);
    let refs = sentences(200, 20, 30, 4);
    let cfg = BleuConfig::sentence();
    c.bench_function("bleu/corpus_200x20", |b| {
        b.iter(|| black_box(corpus_bleu(black_box(&hyps), black_box(&refs), &cfg)))
    });
}

criterion_group!(benches, bench_sentence, bench_corpus);
criterion_main!(benches);
