//! The tape's steady-state allocation claim: once a training step's op
//! sequence has been recorded and replayed on a tape, replaying it again
//! after [`Tape::reset`] performs no heap allocation at all — values,
//! gradients, dropout masks, index lists and gradient slots all come back
//! from the tape's own pools. (The first replay may still grow the arena's
//! bucket lists, which then hold the forward and the backward buffers of a
//! step at once.)
//!
//! A counting global allocator measures the replay. The claim is about the
//! default kernels: the `reference-kernels` build's naive GEMMs return
//! freshly allocated products, so this binary is empty under that feature.
#![cfg(not(feature = "reference-kernels"))]

use mdes_nn::gru::GruLayer;
use mdes_nn::lstm::LstmLayer;
use mdes_nn::{Matrix, ParamSet, Tape, TensorId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers to the system allocator; the counter has no effect on the
// memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const BATCH: usize = 3;
const HIDDEN: usize = 5;
const SRC: [[usize; BATCH]; 4] = [[1, 2, 3], [4, 5, 6], [7, 1, 2], [3, 3, 0]];
const TGT: [[usize; BATCH]; 3] = [[2, 4, 6], [1, 3, 5], [0, 7, 2]];

struct Model {
    params: ParamSet,
    emb: usize,
    encoder: LstmLayer,
    decoder: GruLayer,
    w_c: usize,
    b_c: usize,
    w_out: usize,
}

/// One seq2seq-shaped training step: an LSTM encoder over embedded,
/// dropped-out tokens, a GRU decoder attending over the encoder states, an
/// attentional output layer, cross-entropy per step, their mean, and the
/// recycling backward pass. `keys` and `losses` are the caller's reused
/// buffers.
fn step(
    tape: &mut Tape,
    m: &mut Model,
    rng: &mut StdRng,
    keys: &mut Vec<TensorId>,
    losses: &mut Vec<TensorId>,
) {
    tape.reset();
    keys.clear();
    losses.clear();
    let emb = tape.param(&m.params, m.emb);
    let enc = m.encoder.bind(tape, &m.params);
    let dec = m.decoder.bind(tape, &m.params);
    let w_c = tape.param(&m.params, m.w_c);
    let b_c = tape.param(&m.params, m.b_c);
    let w_out = tape.param(&m.params, m.w_out);
    let mut state = m.encoder.zero_state(tape, BATCH);
    for tokens in &SRC {
        let x = tape.gather(emb, tokens);
        let x = tape.dropout(x, 0.25, rng);
        state = enc.step(tape, x, state);
        keys.push(state.h);
    }
    let mut h = state.h;
    for (t, targets) in TGT.iter().enumerate() {
        let prev = if t == 0 { &SRC[0] } else { &TGT[t - 1] };
        let x = tape.gather(emb, prev);
        h = dec.step(tape, x, h);
        let ctx = tape.attention(h, keys);
        let cat = tape.concat_cols(ctx, h);
        let att = tape.matmul(cat, w_c);
        let att = tape.add_row(att, b_c);
        let att = tape.tanh(att);
        let logits = tape.matmul(att, w_out);
        losses.push(tape.cross_entropy(logits, targets));
    }
    let loss = tape.mean_of(losses);
    m.params.zero_grads();
    tape.backward_accumulate(loss, &mut m.params);
}

#[test]
fn a_second_replay_of_a_training_step_does_not_allocate() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut params = ParamSet::new();
    let emb = params.add(Matrix::uniform(8, 4, 0.5, &mut rng));
    let encoder = LstmLayer::new(&mut params, 4, HIDDEN, &mut rng);
    let decoder = GruLayer::new(&mut params, 4, HIDDEN, &mut rng);
    let w_c = params.add(Matrix::uniform(2 * HIDDEN, HIDDEN, 0.5, &mut rng));
    let b_c = params.add(Matrix::zeros(1, HIDDEN));
    let w_out = params.add(Matrix::uniform(HIDDEN, 8, 0.5, &mut rng));
    let mut model = Model {
        params,
        emb,
        encoder,
        decoder,
        w_c,
        b_c,
        w_out,
    };
    let mut tape = Tape::new();
    let mut keys = Vec::with_capacity(SRC.len());
    let mut losses = Vec::with_capacity(TGT.len());

    // Record, then replay once.
    step(&mut tape, &mut model, &mut rng, &mut keys, &mut losses);
    step(&mut tape, &mut model, &mut rng, &mut keys, &mut losses);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    step(&mut tape, &mut model, &mut rng, &mut keys, &mut losses);
    let replay = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(tape.len() > 50, "the step recorded {} nodes", tape.len());
    assert_eq!(replay, 0, "the second replay allocated {replay} times");
}
