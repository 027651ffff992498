//! Gated Recurrent Unit layers (Cho et al., 2014) on the autodiff [`Tape`].
//!
//! Provided as an alternative recurrent cell for the seq2seq model
//! ([`crate::seq2seq::CellKind`]): GRUs use ~25 % fewer parameters than
//! LSTMs, which matters when thousands of pair models are trained.
//!
//! As for the LSTM, the *fused gate* GEMMs (one product of `[x | h]` against
//! packed `[wx_gates; wh_gates]`, one of `[x | r ⊙ h]` against
//! `[wx_cand; wh_cand]`) are separate from the *fused cell op*
//! ([`Tape::gru_step`]), which records a whole step as two tape nodes
//! (gates, `h`) with hand-written backward kernels instead of sixteen.

use crate::matrix::Matrix;
use crate::tape::{ParamSet, Tape, TensorId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameter slots of a single GRU layer. Gate weights are laid out as
/// `[r | z]` (reset, update) along the columns, with a separate candidate
/// block.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GruLayer {
    /// Input weights for reset and update gates (`input x 2H`).
    wx_gates: usize,
    /// Hidden weights for reset and update gates (`H x 2H`).
    wh_gates: usize,
    /// Gate bias (`1 x 2H`).
    b_gates: usize,
    /// Input weights for the candidate state (`input x H`).
    wx_cand: usize,
    /// Hidden weights for the candidate state (`H x H`).
    wh_cand: usize,
    /// Candidate bias (`1 x H`).
    b_cand: usize,
    input: usize,
    hidden: usize,
}

/// Tape-bound handles to a [`GruLayer`]'s parameters.
///
/// Binding pre-concatenates each weight pair (`[wx_gates; wh_gates]` and
/// `[wx_cand; wh_cand]`) so [`BoundGru::step`] issues one fused-gate GEMM
/// per block instead of two; gradients flow back through the concatenation
/// to the original parameter slots.
#[derive(Clone, Copy, Debug)]
pub struct BoundGru {
    /// Packed `[wx_gates; wh_gates]`, the fused gate GEMM operand.
    w_gates: TensorId,
    /// Packed `[wx_cand; wh_cand]`, the fused candidate GEMM operand.
    w_cand: TensorId,
    b_gates: TensorId,
    b_cand: TensorId,
    #[cfg(test)]
    wx_gates: TensorId,
    #[cfg(test)]
    wh_gates: TensorId,
    #[cfg(test)]
    wx_cand: TensorId,
    #[cfg(test)]
    wh_cand: TensorId,
    #[cfg(test)]
    hidden: usize,
}

impl GruLayer {
    /// Allocates parameters for a layer mapping `input` features to `hidden`
    /// units.
    pub fn new(params: &mut ParamSet, input: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        Self {
            wx_gates: params.add(Matrix::xavier(input, 2 * hidden, rng)),
            wh_gates: params.add(Matrix::xavier(hidden, 2 * hidden, rng)),
            b_gates: params.add(Matrix::zeros(1, 2 * hidden)),
            wx_cand: params.add(Matrix::xavier(input, hidden, rng)),
            wh_cand: params.add(Matrix::xavier(hidden, hidden, rng)),
            b_cand: params.add(Matrix::zeros(1, hidden)),
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
    /// packing the input/hidden weight pairs into fused GEMM operands.
    pub fn bind(&self, tape: &mut Tape, params: &ParamSet) -> BoundGru {
        let wx_gates = tape.param(params, self.wx_gates);
        let wh_gates = tape.param(params, self.wh_gates);
        let wx_cand = tape.param(params, self.wx_cand);
        let wh_cand = tape.param(params, self.wh_cand);
        BoundGru {
            w_gates: tape.concat_rows(wx_gates, wh_gates),
            w_cand: tape.concat_rows(wx_cand, wh_cand),
            b_gates: tape.param(params, self.b_gates),
            b_cand: tape.param(params, self.b_cand),
            #[cfg(test)]
            wx_gates,
            #[cfg(test)]
            wh_gates,
            #[cfg(test)]
            wx_cand,
            #[cfg(test)]
            wh_cand,
            #[cfg(test)]
            hidden: self.hidden,
        }
    }

    /// Zero initial hidden state for a batch of `batch` rows.
    pub fn zero_state(&self, tape: &mut Tape, batch: usize) -> TensorId {
        tape.zeros(batch, self.hidden)
    }

    /// Packs the layer weights for the tape-free inference engine: the same
    /// fused gate/candidate operands [`GruLayer::bind`] builds on a tape,
    /// copied out of `params` once instead of per forward pass.
    pub fn pack_infer(&self, params: &ParamSet) -> crate::infer::PackedCell {
        crate::infer::PackedCell::Gru {
            w_gates: crate::QMatrix::F32(crate::infer::pack_rows(
                params.value(self.wx_gates),
                params.value(self.wh_gates),
            )),
            b_gates: params.value(self.b_gates).clone(),
            w_cand: crate::QMatrix::F32(crate::infer::pack_rows(
                params.value(self.wx_cand),
                params.value(self.wh_cand),
            )),
            b_cand: params.value(self.b_cand).clone(),
            hidden: self.hidden,
        }
    }
}

impl BoundGru {
    /// Advances the recurrence one step:
    ///
    /// ```text
    /// r = sigmoid(x Wxr + h Whr + br)      (reset gate)
    /// z = sigmoid(x Wxz + h Whz + bz)      (update gate)
    /// c = tanh(x Wxc + (r ⊙ h) Whc + bc)   (candidate)
    /// h' = z ⊙ h + (1 - z) ⊙ c
    /// ```
    /// One fused-gate GEMM of `[x | h]` (and of `[x | r ⊙ h]`) per block
    /// feeds the fused GRU cell op ([`Tape::gru_step`]), which records two
    /// tape nodes per step.
    pub fn step(&self, tape: &mut Tape, x: TensorId, h: TensorId) -> TensorId {
        tape.gru_step(x, h, self.w_gates, self.b_gates, self.w_cand, self.b_cand)
    }

    /// The step as the composite graph the cell op replaced: fused-gate
    /// GEMMs, then slice, activation and elementwise nodes. The bit-identity
    /// oracle for [`BoundGru::step`].
    #[cfg(test)]
    fn step_composite(&self, tape: &mut Tape, x: TensorId, h: TensorId) -> TensorId {
        let hd = self.hidden;
        let xh = tape.concat_cols(x, h);
        let g = tape.matmul(xh, self.w_gates);
        let g = tape.add_row(g, self.b_gates);
        let r_pre = tape.slice_cols(g, 0, hd);
        let z_pre = tape.slice_cols(g, hd, hd);
        let r = tape.sigmoid(r_pre);
        let z = tape.sigmoid(z_pre);

        let rh = tape.hadamard(r, h);
        let xrh = tape.concat_cols(x, rh);
        let c = tape.matmul(xrh, self.w_cand);
        let c = tape.add_row(c, self.b_cand);
        let c = tape.tanh(c);

        combine_composite(tape, h, z, c)
    }

    /// The original two-GEMM-per-block step, the oracle for the fused-gate
    /// GEMMs: it sums the products in a different order, so the two agree
    /// within rounding only.
    #[cfg(test)]
    fn step_unfused(&self, tape: &mut Tape, x: TensorId, h: TensorId) -> TensorId {
        let hd = self.hidden;
        let gx = tape.matmul(x, self.wx_gates);
        let gh = tape.matmul(h, self.wh_gates);
        let g = tape.add(gx, gh);
        let g = tape.add_row(g, self.b_gates);
        let r_pre = tape.slice_cols(g, 0, hd);
        let z_pre = tape.slice_cols(g, hd, hd);
        let r = tape.sigmoid(r_pre);
        let z = tape.sigmoid(z_pre);

        let rh = tape.hadamard(r, h);
        let cx = tape.matmul(x, self.wx_cand);
        let ch = tape.matmul(rh, self.wh_cand);
        let c = tape.add(cx, ch);
        let c = tape.add_row(c, self.b_cand);
        let c = tape.tanh(c);

        combine_composite(tape, h, z, c)
    }
}

/// `h' = z ⊙ (h - c) + c` as separate tape nodes.
#[cfg(test)]
fn combine_composite(tape: &mut Tape, h: TensorId, z: TensorId, c: TensorId) -> TensorId {
    let neg_c = tape.scale(c, -1.0);
    let h_minus_c = tape.add(h, neg_c);
    let gated = tape.hadamard(z, h_minus_c);
    tape.add(gated, c)
}

/// A stack of GRU layers; layer `l + 1` consumes layer `l`'s hidden states.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GruStack {
    layers: Vec<GruLayer>,
}

/// Tape-bound handles for a [`GruStack`].
#[derive(Clone, Debug)]
pub struct BoundGruStack {
    layers: Vec<BoundGru>,
}

impl GruStack {
    /// Allocates `n_layers` layers, the first consuming `input` features.
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
        assert!(n_layers > 0, "GruStack requires at least one layer");
        let mut layers = Vec::with_capacity(n_layers);
        for l in 0..n_layers {
            let in_dim = if l == 0 { input } else { hidden };
            layers.push(GruLayer::new(params, in_dim, hidden, rng));
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
    pub fn bind(&self, tape: &mut Tape, params: &ParamSet) -> BoundGruStack {
        BoundGruStack {
            layers: self.layers.iter().map(|l| l.bind(tape, params)).collect(),
        }
    }

    /// Zero hidden state for every layer.
    pub fn zero_state(&self, tape: &mut Tape, batch: usize) -> Vec<TensorId> {
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

impl BoundGruStack {
    /// Advances every layer one step, returning the new per-layer hidden
    /// states; the top layer's output is the stack output.
    pub fn step(&self, tape: &mut Tape, x: TensorId, states: &[TensorId]) -> Vec<TensorId> {
        debug_assert_eq!(states.len(), self.layers.len());
        let mut out = Vec::with_capacity(self.layers.len());
        let mut input = x;
        for (l, layer) in self.layers.iter().enumerate() {
            let next = layer.step(tape, input, states[l]);
            input = next;
            out.push(next);
        }
        out
    }
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
        layer: GruLayer,
        xs: Vec<usize>,
        h0: usize,
        w_out: usize,
        targets: Vec<usize>,
    }

    fn case(seed: u64, batch: usize, input: usize, hidden: usize, steps: usize) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let layer = GruLayer::new(&mut params, input, hidden, &mut rng);
        // Nonzero biases, so the zero-initialised ones do not hide a bias
        // gradient error.
        for b in [2, 5] {
            let (r, c) = params.value(b).shape();
            *params.value_mut(b) = Matrix::uniform(r, c, 0.5, &mut rng);
        }
        let xs = (0..steps)
            .map(|_| params.add(Matrix::uniform(batch, input, 1.0, &mut rng)))
            .collect();
        let h0 = params.add(Matrix::uniform(batch, hidden, 0.5, &mut rng));
        let w_out = params.add(Matrix::uniform(hidden, 3, 0.5, &mut rng));
        let targets = (0..batch).map(|b| b % 3).collect();
        Case {
            params,
            layer,
            xs,
            h0,
            w_out,
            targets,
        }
    }

    /// Mean cross-entropy of every step's output projection, so each hidden
    /// state feeds both the loss and the next step.
    fn loss(case: &Case, tape: &mut Tape, params: &ParamSet, fused: bool) -> TensorId {
        let bound = case.layer.bind(tape, params);
        let w = tape.param(params, case.w_out);
        let mut h = tape.param(params, case.h0);
        let mut losses = Vec::new();
        for &x in &case.xs {
            let x = tape.param(params, x);
            h = if fused {
                bound.step(tape, x, h)
            } else {
                bound.step_composite(tape, x, h)
            };
            let logits = tape.matmul(h, w);
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

        /// Fused-gate step vs the three-GEMM oracle: `h` within `1e-5`.
        #[test]
        fn fused_step_matches_unfused(
            batch in 1usize..=6, input in 1usize..=8, hidden in 1usize..=8, seed in 0u64..1 << 32,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut params = ParamSet::new();
            let layer = GruLayer::new(&mut params, input, hidden, &mut rng);
            let mut tape = Tape::new();
            let bound = layer.bind(&mut tape, &params);
            let x = tape.leaf(random_matrix(batch, input, &mut rng));
            let h0 = tape.leaf(random_matrix(batch, hidden, &mut rng));
            let fused = bound.step(&mut tape, x, h0);
            let oracle = bound.step_unfused(&mut tape, x, h0);
            let dh = max_abs_diff(tape.value(fused), tape.value(oracle));
            prop_assert!(dh <= 1e-5, "fused GRU h diverged by {dh}");
        }
    }

    #[test]
    fn gru_step_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = ParamSet::new();
        let layer = GruLayer::new(&mut params, 3, 5, &mut rng);
        let mut tape = Tape::new();
        let bound = layer.bind(&mut tape, &params);
        let h = layer.zero_state(&mut tape, 2);
        let x = tape.leaf(Matrix::uniform(2, 3, 1.0, &mut rng));
        let h2 = bound.step(&mut tape, x, h);
        assert_eq!(tape.value(h2).shape(), (2, 5));
    }

    #[test]
    fn gru_hidden_values_bounded() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = ParamSet::new();
        let layer = GruLayer::new(&mut params, 2, 3, &mut rng);
        let mut tape = Tape::new();
        let bound = layer.bind(&mut tape, &params);
        let mut h = layer.zero_state(&mut tape, 1);
        for _ in 0..40 {
            let x = tape.leaf(Matrix::uniform(1, 2, 10.0, &mut rng));
            h = bound.step(&mut tape, x, h);
        }
        // h is a convex combination of tanh outputs, so stays in (-1, 1).
        for &v in tape.value(h).data() {
            assert!(v.abs() < 1.0);
        }
    }

    #[test]
    fn gru_gradients_flow_through_time() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = ParamSet::new();
        let layer = GruLayer::new(&mut params, 2, 3, &mut rng);
        let out_w = params.add(Matrix::xavier(3, 2, &mut rng));
        let mut tape = Tape::new();
        let bound = layer.bind(&mut tape, &params);
        let w = tape.param(&params, out_w);
        let mut h = layer.zero_state(&mut tape, 1);
        for _ in 0..4 {
            let x = tape.leaf(Matrix::uniform(1, 2, 1.0, &mut rng));
            h = bound.step(&mut tape, x, h);
        }
        let logits = tape.matmul(h, w);
        let loss = tape.cross_entropy(logits, &[1]);
        let grads = tape.backward(loss);
        params.zero_grads();
        tape.accumulate_param_grads(&grads, &mut params);
        for p in 0..6 {
            assert!(params.grad(p).norm_sq() > 0.0, "param {p} has zero grad");
        }
    }

    #[test]
    fn gru_uses_fewer_parameters_than_lstm() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut gru_params = ParamSet::new();
        let _ = GruLayer::new(&mut gru_params, 16, 16, &mut rng);
        let gru_count: usize = (0..gru_params.len())
            .map(|i| gru_params.value(i).data().len())
            .sum();
        let mut lstm_params = ParamSet::new();
        let _ = crate::lstm::LstmLayer::new(&mut lstm_params, 16, 16, &mut rng);
        let lstm_count: usize = (0..lstm_params.len())
            .map(|i| lstm_params.value(i).data().len())
            .sum();
        assert!(
            gru_count < lstm_count,
            "gru {gru_count} vs lstm {lstm_count}"
        );
    }

    #[test]
    fn stack_runs() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = ParamSet::new();
        let stack = GruStack::new(&mut params, 4, 6, 2, &mut rng);
        assert_eq!(stack.len(), 2);
        let mut tape = Tape::new();
        let bound = stack.bind(&mut tape, &params);
        let states = stack.zero_state(&mut tape, 3);
        let x = tape.leaf(Matrix::uniform(3, 4, 1.0, &mut rng));
        let next = bound.step(&mut tape, x, &states);
        assert_eq!(next.len(), 2);
        assert_eq!(tape.value(next[1]).shape(), (3, 6));
    }

    /// Finite-difference check of the full GRU step.
    #[test]
    fn gru_gradcheck() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut params = ParamSet::new();
        let layer = GruLayer::new(&mut params, 2, 3, &mut rng);
        let x_val = Matrix::uniform(2, 2, 0.5, &mut rng);
        let forward = |tape: &mut Tape, params: &ParamSet| {
            let bound = layer.bind(tape, params);
            let h = layer.zero_state(tape, 2);
            let x = tape.leaf(x_val.clone());
            let h1 = bound.step(tape, x, h);
            let x2 = tape.leaf(x_val.clone());
            let h2 = bound.step(tape, x2, h1);
            tape.cross_entropy(h2, &[0, 2])
        };
        let mut tape = Tape::new();
        let loss = forward(&mut tape, &params);
        let grads = tape.backward(loss);
        params.zero_grads();
        tape.accumulate_param_grads(&grads, &mut params);

        let eps = 1e-2f32;
        for p in 0..params.len() {
            let (rows, cols) = params.value(p).shape();
            for r in 0..rows {
                for c in 0..cols {
                    let orig = params.value(p).get(r, c);
                    params.value_mut(p).set(r, c, orig + eps);
                    let mut t1 = Tape::new();
                    let l1 = forward(&mut t1, &params);
                    let up = t1.value(l1).get(0, 0);
                    params.value_mut(p).set(r, c, orig - eps);
                    let mut t2 = Tape::new();
                    let l2 = forward(&mut t2, &params);
                    let down = t2.value(l2).get(0, 0);
                    params.value_mut(p).set(r, c, orig);
                    let numeric = (up - down) / (2.0 * eps);
                    let analytic = params.grad(p).get(r, c);
                    let denom = numeric.abs().max(analytic.abs()).max(1e-3);
                    assert!(
                        (numeric - analytic).abs() / denom < 5e-2,
                        "param {p} ({r},{c}): numeric {numeric} vs analytic {analytic}"
                    );
                }
            }
        }
    }
}
