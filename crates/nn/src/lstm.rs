//! Long Short-Term Memory layers on top of the autodiff [`Tape`].
//!
//! An [`LstmLayer`] owns parameter *slots* inside a shared [`ParamSet`]; at
//! forward time the caller binds those slots onto a tape once per pass
//! ([`LstmLayer::bind`]) and then advances the recurrence step by step.
//!
//! Two separate fusions make a step cheap. The *fused gate* GEMM packs the
//! input and hidden weights into one `[wx; wh]` operand at bind time, so
//! the four gates come from one product of `[x | h]`. The *fused cell op*
//! ([`Tape::lstm_step`]) then records that GEMM, the gate activations and
//! the state update as three tape nodes (gates, `c`, `h`) with hand-written
//! backward kernels, where the elementary graph took sixteen.

use crate::matrix::Matrix;
use crate::tape::{ParamSet, Tape, TensorId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameter slots of a single LSTM layer (input, hidden and bias weights for
/// the four gates, laid out as `[i | f | g | o]` along the columns).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LstmLayer {
    wx: usize,
    wh: usize,
    b: usize,
    input: usize,
    hidden: usize,
}

/// Tape-bound handles to an [`LstmLayer`]'s parameters, valid for one tape.
///
/// Binding pre-concatenates `wx` (on top of) `wh` into one packed
/// `(input + hidden) x 4H` operand so [`BoundLstm::step`] issues a single
/// fused-gate GEMM per step instead of two; gradients flow back through the
/// concatenation to the original parameter slots.
#[derive(Clone, Copy, Debug)]
pub struct BoundLstm {
    /// Packed `[wx; wh]`, the fused-gate GEMM operand.
    w: TensorId,
    #[cfg(test)]
    wx: TensorId,
    #[cfg(test)]
    wh: TensorId,
    b: TensorId,
    #[cfg(test)]
    hidden: usize,
}

/// Recurrent state `(h, c)` of one LSTM layer on a tape.
#[derive(Clone, Copy, Debug)]
pub struct LstmState {
    /// Hidden state, `B x H`.
    pub h: TensorId,
    /// Cell state, `B x H`.
    pub c: TensorId,
}

impl LstmLayer {
    /// Allocates parameters for a layer mapping `input` features to `hidden`
    /// units inside `params`. The forget-gate bias is initialized to `1.0`
    /// (the standard trick to ease gradient flow early in training).
    pub fn new(params: &mut ParamSet, input: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        let wx = params.add(Matrix::xavier(input, 4 * hidden, rng));
        let wh = params.add(Matrix::xavier(hidden, 4 * hidden, rng));
        let mut bias = Matrix::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            bias.set(0, c, 1.0);
        }
        let b = params.add(bias);
        Self {
            wx,
            wh,
            b,
            input,
            hidden,
        }
    }

    /// Input feature count.
    pub fn input(&self) -> usize {
        self.input
    }

    /// Hidden unit count.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Binds the layer parameters onto `tape` (once per forward pass),
    /// packing the input and hidden weights into one fused-gate operand.
    pub fn bind(&self, tape: &mut Tape, params: &ParamSet) -> BoundLstm {
        let wx = tape.param(params, self.wx);
        let wh = tape.param(params, self.wh);
        BoundLstm {
            w: tape.concat_rows(wx, wh),
            #[cfg(test)]
            wx,
            #[cfg(test)]
            wh,
            b: tape.param(params, self.b),
            #[cfg(test)]
            hidden: self.hidden,
        }
    }

    /// Creates a zero initial state for a batch of `batch` rows.
    pub fn zero_state(&self, tape: &mut Tape, batch: usize) -> LstmState {
        LstmState {
            h: tape.zeros(batch, self.hidden),
            c: tape.zeros(batch, self.hidden),
        }
    }

    /// Packs the layer weights for the tape-free inference engine: the same
    /// fused `[wx; wh]` gate operand [`LstmLayer::bind`] builds on a tape,
    /// copied out of `params` once instead of per forward pass.
    pub fn pack_infer(&self, params: &ParamSet) -> crate::infer::PackedCell {
        crate::infer::PackedCell::Lstm {
            w: crate::QMatrix::F32(crate::infer::pack_rows(
                params.value(self.wx),
                params.value(self.wh),
            )),
            b: params.value(self.b).clone(),
            hidden: self.hidden,
        }
    }
}

impl BoundLstm {
    /// Advances the recurrence one step: consumes input `x` (`B x input`) and
    /// the previous state, returning the next state.
    ///
    /// One fused-gate GEMM of `[x | h]` against the packed `[wx; wh]`
    /// operand feeds the fused LSTM cell op ([`Tape::lstm_step`]), which
    /// records three tape nodes per step.
    pub fn step(&self, tape: &mut Tape, x: TensorId, state: LstmState) -> LstmState {
        let (h, c) = tape.lstm_step(x, state.h, state.c, self.w, self.b);
        LstmState { h, c }
    }

    /// The step as the composite graph the cell op replaced: the fused-gate
    /// GEMM, then slice, activation and elementwise nodes. The bit-identity
    /// oracle for [`BoundLstm::step`].
    #[cfg(test)]
    fn step_composite(&self, tape: &mut Tape, x: TensorId, state: LstmState) -> LstmState {
        let xh = tape.concat_cols(x, state.h);
        let z = tape.matmul(xh, self.w);
        let z = tape.add_row(z, self.b);
        self.finish_composite(tape, z, state)
    }

    /// The original two-GEMM step (`x * wx + h * wh`), the oracle for the
    /// fused-gate GEMM: it sums the products in a different order, so the
    /// two agree within rounding only.
    #[cfg(test)]
    fn step_unfused(&self, tape: &mut Tape, x: TensorId, state: LstmState) -> LstmState {
        let zx = tape.matmul(x, self.wx);
        let zh = tape.matmul(state.h, self.wh);
        let z = tape.add(zx, zh);
        let z = tape.add_row(z, self.b);
        self.finish_composite(tape, z, state)
    }

    /// Gate nonlinearities and state update as separate tape nodes.
    #[cfg(test)]
    fn finish_composite(&self, tape: &mut Tape, z: TensorId, state: LstmState) -> LstmState {
        let h = self.hidden;
        let i_pre = tape.slice_cols(z, 0, h);
        let f_pre = tape.slice_cols(z, h, h);
        let g_pre = tape.slice_cols(z, 2 * h, h);
        let o_pre = tape.slice_cols(z, 3 * h, h);
        let i = tape.sigmoid(i_pre);
        let f = tape.sigmoid(f_pre);
        let g = tape.tanh(g_pre);
        let o = tape.sigmoid(o_pre);
        let fc = tape.hadamard(f, state.c);
        let ig = tape.hadamard(i, g);
        let c = tape.add(fc, ig);
        let tc = tape.tanh(c);
        let h_out = tape.hadamard(o, tc);
        LstmState { h: h_out, c }
    }
}

/// A stack of LSTM layers; layer `l + 1` consumes the hidden states of layer
/// `l`, with optional inter-layer dropout during training.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LstmStack {
    layers: Vec<LstmLayer>,
}

/// Tape-bound handles for an [`LstmStack`].
#[derive(Clone, Debug)]
pub struct BoundStack {
    layers: Vec<BoundLstm>,
}

impl LstmStack {
    /// Allocates `n_layers` layers, the first consuming `input` features and
    /// the rest consuming `hidden`.
    ///
    /// # Panics
    ///
    /// Panics if `n_layers == 0`.
    pub fn new(
        params: &mut ParamSet,
        input: usize,
        hidden: usize,
        n_layers: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(n_layers > 0, "LstmStack requires at least one layer");
        let mut layers = Vec::with_capacity(n_layers);
        for l in 0..n_layers {
            let in_dim = if l == 0 { input } else { hidden };
            layers.push(LstmLayer::new(params, in_dim, hidden, rng));
        }
        Self { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty (never true for a constructed stack).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Binds all layers onto `tape`.
    pub fn bind(&self, tape: &mut Tape, params: &ParamSet) -> BoundStack {
        BoundStack {
            layers: self.layers.iter().map(|l| l.bind(tape, params)).collect(),
        }
    }

    /// Zero state for every layer.
    pub fn zero_state(&self, tape: &mut Tape, batch: usize) -> Vec<LstmState> {
        self.layers
            .iter()
            .map(|l| l.zero_state(tape, batch))
            .collect()
    }

    /// Packs every layer for the tape-free inference engine, bottom first.
    pub fn pack_infer(&self, params: &ParamSet) -> Vec<crate::infer::PackedCell> {
        self.layers.iter().map(|l| l.pack_infer(params)).collect()
    }
}

impl BoundStack {
    /// Advances every layer one step. `dropout` (with the given rng) is
    /// applied between layers when `Some`; pass `None` at inference.
    ///
    /// Returns the new per-layer states; the top layer's `h` is the stack
    /// output.
    pub fn step(
        &self,
        tape: &mut Tape,
        x: TensorId,
        states: &[LstmState],
        dropout: Option<(f32, &mut dyn FnMut() -> f32)>,
    ) -> Vec<LstmState> {
        debug_assert_eq!(states.len(), self.layers.len());
        let mut out = Vec::with_capacity(self.layers.len());
        let mut input = x;
        let mut drop = dropout;
        for (l, layer) in self.layers.iter().enumerate() {
            let next = layer.step(tape, input, states[l]);
            input = next.h;
            if l + 1 < self.layers.len() {
                if let Some((p, sampler)) = drop.as_mut() {
                    input = apply_dropout(tape, input, *p, sampler);
                }
            }
            out.push(next);
        }
        out
    }
}

/// Dropout that draws uniforms from a boxed sampler (used so `BoundStack` can
/// stay object-safe with respect to the RNG).
fn apply_dropout(
    tape: &mut Tape,
    x: TensorId,
    p: f32,
    sampler: &mut dyn FnMut() -> f32,
) -> TensorId {
    if p == 0.0 {
        return x;
    }
    struct FnRng<'a>(&'a mut dyn FnMut() -> f32);
    impl rand::RngCore for FnRng<'_> {
        fn next_u32(&mut self) -> u32 {
            ((self.0)() * u32::MAX as f32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            (self.next_u32() as u64) << 32 | self.next_u32() as u64
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for b in dest {
                *b = (self.next_u32() & 0xff) as u8;
            }
        }
        fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
            self.fill_bytes(dest);
            Ok(())
        }
    }
    let mut rng = FnRng(sampler);
    tape.dropout(x, p, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{grad_check, loss_and_grad_bits, max_abs_diff, random_matrix};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A layer plus inputs, initial state and an output projection, all as
    /// parameters so every gradient is harvested.
    struct Case {
        params: ParamSet,
        layer: LstmLayer,
        xs: Vec<usize>,
        h0: usize,
        c0: usize,
        w_out: usize,
        targets: Vec<usize>,
    }

    fn case(seed: u64, batch: usize, input: usize, hidden: usize, steps: usize) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let layer = LstmLayer::new(&mut params, input, hidden, &mut rng);
        let xs = (0..steps)
            .map(|_| params.add(Matrix::uniform(batch, input, 1.0, &mut rng)))
            .collect();
        let h0 = params.add(Matrix::uniform(batch, hidden, 0.5, &mut rng));
        let c0 = params.add(Matrix::uniform(batch, hidden, 0.5, &mut rng));
        let w_out = params.add(Matrix::uniform(hidden, 3, 0.5, &mut rng));
        let targets = (0..batch).map(|b| b % 3).collect();
        Case {
            params,
            layer,
            xs,
            h0,
            c0,
            w_out,
            targets,
        }
    }

    /// Mean cross-entropy of every step's output projection, so each hidden
    /// state feeds both the loss and the next step.
    fn loss(case: &Case, tape: &mut Tape, params: &ParamSet, fused: bool) -> TensorId {
        let bound = case.layer.bind(tape, params);
        let w = tape.param(params, case.w_out);
        let mut state = LstmState {
            h: tape.param(params, case.h0),
            c: tape.param(params, case.c0),
        };
        let mut losses = Vec::new();
        for &x in &case.xs {
            let x = tape.param(params, x);
            state = if fused {
                bound.step(tape, x, state)
            } else {
                bound.step_composite(tape, x, state)
            };
            let logits = tape.matmul(state.h, w);
            losses.push(tape.cross_entropy(logits, &case.targets));
        }
        tape.mean_of(&losses)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The fused cell op's loss and every gradient are bit-identical to
        /// the composite graph's, over several steps.
        #[test]
        fn cell_op_is_bit_identical_to_composite(
            seed in 0u64..1 << 32, batch in 1usize..=5, input in 1usize..=6,
            hidden in 1usize..=6, steps in 1usize..=4,
        ) {
            let case = case(seed, batch, input, hidden, steps);
            let run = |fused| loss_and_grad_bits(&case.params, |t, p| loss(&case, t, p, fused));
            prop_assert_eq!(run(true), run(false));
        }

        /// Finite-difference check of the fused cell op, including a batch
        /// of one and one hidden unit.
        #[test]
        fn gradcheck_cell_op(
            seed in 0u64..1 << 32, batch in 1usize..=3, input in 1usize..=3,
            hidden in 1usize..=3,
        ) {
            let mut case = case(seed, batch, input, hidden, 2);
            let mut params = std::mem::take(&mut case.params);
            grad_check(&mut params, |t, p| loss(&case, t, p, true));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Fused-gate step vs the two-GEMM oracle: `h` and `c` within `1e-5`.
        #[test]
        fn fused_step_matches_unfused(
            batch in 1usize..=6, input in 1usize..=8, hidden in 1usize..=8, seed in 0u64..1 << 32,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut params = ParamSet::new();
            let layer = LstmLayer::new(&mut params, input, hidden, &mut rng);
            let mut tape = Tape::new();
            let bound = layer.bind(&mut tape, &params);
            let x = tape.leaf(random_matrix(batch, input, &mut rng));
            let h0 = tape.leaf(random_matrix(batch, hidden, &mut rng));
            let c0 = tape.leaf(random_matrix(batch, hidden, &mut rng));
            let state = LstmState { h: h0, c: c0 };
            let fused = bound.step(&mut tape, x, state);
            let oracle = bound.step_unfused(&mut tape, x, state);
            let dh = max_abs_diff(tape.value(fused.h), tape.value(oracle.h));
            let dc = max_abs_diff(tape.value(fused.c), tape.value(oracle.c));
            prop_assert!(dh <= 1e-5, "fused h diverged by {dh}");
            prop_assert!(dc <= 1e-5, "fused c diverged by {dc}");
        }
    }

    #[test]
    fn lstm_step_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = ParamSet::new();
        let layer = LstmLayer::new(&mut params, 3, 4, &mut rng);
        let mut tape = Tape::new();
        let bound = layer.bind(&mut tape, &params);
        let state = layer.zero_state(&mut tape, 2);
        let x = tape.leaf(Matrix::uniform(2, 3, 1.0, &mut rng));
        let next = bound.step(&mut tape, x, state);
        assert_eq!(tape.value(next.h).shape(), (2, 4));
        assert_eq!(tape.value(next.c).shape(), (2, 4));
    }

    #[test]
    fn lstm_hidden_values_bounded() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut params = ParamSet::new();
        let layer = LstmLayer::new(&mut params, 2, 3, &mut rng);
        let mut tape = Tape::new();
        let bound = layer.bind(&mut tape, &params);
        let mut state = layer.zero_state(&mut tape, 1);
        for _ in 0..50 {
            let x = tape.leaf(Matrix::uniform(1, 2, 10.0, &mut rng));
            state = bound.step(&mut tape, x, state);
        }
        // h = o * tanh(c) is always within (-1, 1).
        for &v in tape.value(state.h).data() {
            assert!(v.abs() < 1.0);
        }
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut params = ParamSet::new();
        let layer = LstmLayer::new(&mut params, 2, 3, &mut rng);
        let bias = params.value(2); // wx, wh, b
        for c in 0..12 {
            let expect = if (3..6).contains(&c) { 1.0 } else { 0.0 };
            assert_eq!(bias.get(0, c), expect);
        }
        assert_eq!(layer.hidden(), 3);
    }

    #[test]
    fn stack_runs_and_differs_from_single_layer() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut params = ParamSet::new();
        let stack = LstmStack::new(&mut params, 2, 3, 2, &mut rng);
        assert_eq!(stack.len(), 2);
        let mut tape = Tape::new();
        let bound = stack.bind(&mut tape, &params);
        let states = stack.zero_state(&mut tape, 1);
        let x = tape.leaf(Matrix::uniform(1, 2, 1.0, &mut rng));
        let next = bound.step(&mut tape, x, &states, None);
        assert_eq!(next.len(), 2);
        assert_eq!(tape.value(next[1].h).shape(), (1, 3));
    }

    #[test]
    fn lstm_gradients_flow_through_time() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut params = ParamSet::new();
        let layer = LstmLayer::new(&mut params, 2, 3, &mut rng);
        let out_w = params.add(Matrix::xavier(3, 2, &mut rng));
        let mut tape = Tape::new();
        let bound = layer.bind(&mut tape, &params);
        let w = tape.param(&params, out_w);
        let mut state = layer.zero_state(&mut tape, 1);
        for _ in 0..4 {
            let x = tape.leaf(Matrix::uniform(1, 2, 1.0, &mut rng));
            state = bound.step(&mut tape, x, state);
        }
        let logits = tape.matmul(state.h, w);
        let loss = tape.cross_entropy(logits, &[0]);
        let grads = tape.backward(loss);
        params.zero_grads();
        tape.accumulate_param_grads(&grads, &mut params);
        // All LSTM parameters should receive a nonzero gradient.
        for p in 0..3 {
            assert!(params.grad(p).norm_sq() > 0.0, "param {p} has zero grad");
        }
    }
}
