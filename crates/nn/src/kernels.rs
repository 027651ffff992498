//! Forward kernels of the recurrent cells and of Luong attention, shared by
//! the training tape's cell ops ([`crate::tape::Tape::lstm_step`],
//! [`crate::tape::Tape::gru_step`], [`crate::tape::Tape::attention`]) and the
//! tape-free inference engine ([`crate::infer`]).
//!
//! Each function is the one place its arithmetic is written, so training
//! and serving cannot drift apart: a decode through [`crate::InferArena`] is
//! bit-identical to a forward pass on the tape because both call these
//! loops on the same values. The per-element expressions (and the order of
//! every sum) are those of the composite graphs the cell ops replaced, which
//! is what keeps trained weights `to_bits`-identical to them.
//!
//! Gate activations live in a *stacked* layout: `n` contiguous `B x H`
//! blocks, one per gate (`[i; f; g; o]` for the LSTM, `[r; z]` for the GRU),
//! instead of the GEMM's `B x nH` column blocks.

use crate::matrix::{sigmoid_kernel, tanh_kernel, tanh_slice, Matrix};

/// Nonlinearity applied to one gate block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Act {
    Sigmoid,
    Tanh,
}

/// LSTM gate blocks `[i | f | g | o]`.
pub(crate) const LSTM_GATES: &[Act] = &[Act::Sigmoid, Act::Sigmoid, Act::Tanh, Act::Sigmoid];
/// GRU gate blocks `[r | z]` (reset, update).
pub(crate) const GRU_GATES: &[Act] = &[Act::Sigmoid, Act::Sigmoid];

/// Writes `[a | b]` (row-wise concatenation) into `out`, which must already
/// be `rows x (a.cols + b.cols)` — the fused-gate GEMM operand `[x | h]`.
#[inline]
pub(crate) fn concat_cols_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let ac = a.cols();
    debug_assert_eq!(out.shape(), (a.rows(), ac + b.cols()));
    for r in 0..a.rows() {
        let row = out.row_mut(r);
        row[..ac].copy_from_slice(a.row(r));
        row[ac..].copy_from_slice(b.row(r));
    }
}

/// Adds the `1 x C` row `bias` to every row of `m` in place.
#[inline]
pub(crate) fn add_row_inplace(m: &mut Matrix, bias: &Matrix) {
    debug_assert_eq!(bias.shape(), (1, m.cols()));
    for r in 0..m.rows() {
        for (o, &b) in m.row_mut(r).iter_mut().zip(bias.row(0)) {
            *o += b;
        }
    }
}

/// Activates the gate pre-activations `z` (`B x nH`, one column block per
/// entry of `acts`) into `gates` (`n` stacked `B x H` blocks), reading each
/// gate block straight out of its row of `z`. One AVX2-dispatched pass
/// covers every gate of every row; the per-element arithmetic is that of
/// [`sigmoid_slice`](crate::matrix::sigmoid_slice) and
/// [`tanh_slice`](crate::matrix::tanh_slice), and under
/// `reference-kernels` their libm oracles.
#[inline]
pub(crate) fn activate_gates(z: &Matrix, acts: &[Act], gates: &mut [f32]) {
    debug_assert_eq!(gates.len(), z.data().len());
    if cfg!(feature = "reference-kernels") {
        return gate_pass(
            z,
            acts,
            gates,
            crate::reference::sigmoid_slice,
            crate::reference::tanh_slice,
        );
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check; the function has no
        // other preconditions.
        return unsafe { activate_gates_avx2(z, acts, gates) };
    }
    gate_pass(z, acts, gates, sigmoid_kernel, tanh_kernel);
}

/// [`activate_gates`]' fast kernels compiled with AVX2 enabled, so the
/// activation blocks inline here and vectorize 8-wide.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn activate_gates_avx2(z: &Matrix, acts: &[Act], gates: &mut [f32]) {
    gate_pass(z, acts, gates, sigmoid_kernel, tanh_kernel);
}

#[inline(always)]
fn gate_pass(
    z: &Matrix,
    acts: &[Act],
    gates: &mut [f32],
    sigmoid: impl Fn(&[f32], &mut [f32]),
    tanh: impl Fn(&[f32], &mut [f32]),
) {
    let batch = z.rows();
    let hidden = z.cols() / acts.len();
    let block = batch * hidden;
    for r in 0..batch {
        let row = z.row(r);
        for (k, act) in acts.iter().enumerate() {
            let src = &row[k * hidden..(k + 1) * hidden];
            let dst = &mut gates[k * block + r * hidden..k * block + (r + 1) * hidden];
            match act {
                Act::Sigmoid => sigmoid(src, dst),
                Act::Tanh => tanh(src, dst),
            }
        }
    }
}

/// LSTM cell update in place: `c = f ⊙ c + i ⊙ g`, from stacked
/// `[i; f; g; o]` gates.
#[inline]
pub(crate) fn lstm_cell(gates: &[f32], c: &mut [f32]) {
    let n = c.len();
    let (i, f, g) = (&gates[..n], &gates[n..2 * n], &gates[2 * n..3 * n]);
    for e in 0..n {
        let fc = f[e] * c[e];
        let ig = i[e] * g[e];
        c[e] = fc + ig;
    }
}

/// LSTM output: `tanh_c = tanh(c)` and `h = o ⊙ tanh_c`, from stacked
/// `[i; f; g; o]` gates.
#[inline]
pub(crate) fn lstm_hidden(gates: &[f32], c: &[f32], tanh_c: &mut [f32], h: &mut [f32]) {
    let n = c.len();
    let o = &gates[3 * n..];
    tanh_slice(c, tanh_c);
    for e in 0..n {
        h[e] = o[e] * tanh_c[e];
    }
}

/// GRU candidate GEMM operand: writes `[x | r ⊙ h]` into `out`, with `r` the
/// first block of stacked `[r; z]` gates.
#[inline]
pub(crate) fn gru_candidate_input(x: &Matrix, h: &Matrix, gates: &[f32], out: &mut Matrix) {
    let (ic, hd) = (x.cols(), h.cols());
    debug_assert_eq!(out.shape(), (x.rows(), ic + hd));
    for r in 0..x.rows() {
        let reset = &gates[r * hd..(r + 1) * hd];
        let row = out.row_mut(r);
        row[..ic].copy_from_slice(x.row(r));
        for ((o, &rv), &hv) in row[ic..].iter_mut().zip(reset).zip(h.row(r)) {
            *o = rv * hv;
        }
    }
}

/// GRU state blend in place: `h = z ⊙ (h - c) + c`, with `c` the candidate
/// state and `z` the second block of stacked `[r; z]` gates. `h - c` is
/// `h + (-c)`, the rounding of the composite graph's `h + (-1 · c)`.
#[inline]
pub(crate) fn gru_blend(gates: &[f32], cand: &[f32], h: &mut [f32]) {
    let n = h.len();
    let z = &gates[n..2 * n];
    for e in 0..n {
        let h_minus_c = h[e] + (-cand[e]);
        let gated = z[e] * h_minus_c;
        h[e] = gated + cand[e];
    }
}

/// Luong attention of query `q` (`B x H`) over the encoder states `keys`
/// (each `B x H`): `weights` (`B x S`) receives the softmax of the row-wise
/// dot scores, `ctx` (`B x H`) the weighted sum of the keys, accumulated in
/// key order. Both outputs must already have their shapes.
#[inline]
pub(crate) fn attention<'a>(
    q: &Matrix,
    keys: impl Iterator<Item = &'a Matrix> + Clone,
    weights: &mut Matrix,
    ctx: &mut Matrix,
) {
    let batch = q.rows();
    attention_scores(q, keys.clone(), weights);
    softmax_rows(weights);
    for (s, hs) in keys.enumerate() {
        for r in 0..batch {
            let w = weights.get(r, s);
            let crow = ctx.row_mut(r);
            if s == 0 {
                for (o, &v) in crow.iter_mut().zip(hs.row(r)) {
                    *o = v * w;
                }
            } else {
                for (o, &v) in crow.iter_mut().zip(hs.row(r)) {
                    *o += v * w;
                }
            }
        }
    }
}

/// Keys whose score chains [`attention_scores`] runs side by side.
const SCORE_CHAINS: usize = 4;

/// The dot score `q_r · key_s` of every row `r` and key `s`, into `scores`
/// (`B x S`). Each score is one strictly ordered chain that starts where
/// `Iterator::sum` over `f32` starts (`-0.0`) and adds the products in
/// ascending element order, exactly as `.map(|(x, y)| x * y).sum()` does;
/// [`SCORE_CHAINS`] keys' chains are interleaved so the adds of one hide
/// the latency of another.
#[inline]
fn attention_scores<'a>(q: &Matrix, keys: impl Iterator<Item = &'a Matrix>, scores: &mut Matrix) {
    let batch = q.rows();
    let mut keys = keys.fuse();
    let mut s = 0;
    loop {
        let group: [Option<&Matrix>; SCORE_CHAINS] = std::array::from_fn(|_| keys.next());
        match group {
            [Some(k0), Some(k1), Some(k2), Some(k3)] => {
                for r in 0..batch {
                    let d = dot_chains(q.row(r), [k0.row(r), k1.row(r), k2.row(r), k3.row(r)]);
                    for (l, v) in d.into_iter().enumerate() {
                        scores.set(r, s + l, v);
                    }
                }
                s += SCORE_CHAINS;
            }
            tail => {
                for hs in tail.into_iter().flatten() {
                    for r in 0..batch {
                        let [d] = dot_chains(q.row(r), [hs.row(r)]);
                        scores.set(r, s, d);
                    }
                    s += 1;
                }
                return;
            }
        }
    }
}

/// `L` dot products of `q` with the rows `ks`, one strictly ordered chain
/// each (see [`attention_scores`]).
#[inline(always)]
fn dot_chains<const L: usize>(q: &[f32], ks: [&[f32]; L]) -> [f32; L] {
    let ks = ks.map(|k| &k[..q.len()]);
    let mut acc = [-0.0f32; L];
    for (e, &x) in q.iter().enumerate() {
        for (a, k) in acc.iter_mut().zip(&ks) {
            *a += x * k[e];
        }
    }
    acc
}

/// Row-wise softmax in place: max-subtract, exponentiate and sum in
/// iteration order, divide.
#[inline]
pub(crate) fn softmax_rows(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The score loop as first written: one `Iterator::sum` per key and row.
    fn scores_oracle(q: &Matrix, keys: &[Matrix]) -> Matrix {
        let mut out = Matrix::zeros(q.rows(), keys.len());
        for (s, hs) in keys.iter().enumerate() {
            for r in 0..q.rows() {
                let d: f32 = q.row(r).iter().zip(hs.row(r)).map(|(&x, &y)| x * y).sum();
                out.set(r, s, d);
            }
        }
        out
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    fn scores(q: &Matrix, keys: &[Matrix]) -> Matrix {
        let mut out = Matrix::zeros(q.rows(), keys.len());
        attention_scores(q, keys.iter(), &mut out);
        out
    }

    #[test]
    fn score_chains_start_where_sum_starts() {
        // Every product is -0.0, so only the chain's start value decides
        // the sign of the score.
        let q = Matrix::from_vec(1, 3, vec![0.0; 3]);
        let keys: Vec<Matrix> = (0..5)
            .map(|_| Matrix::from_vec(1, 3, vec![-1.0; 3]))
            .collect();
        let want = scores_oracle(&q, &keys);
        assert!(want.get(0, 0).is_sign_negative());
        assert_eq!(bits(&scores(&q, &keys)), bits(&want));
    }

    /// An element value from a `(kind, value)` draw: signed zeros and
    /// magnitudes far apart, so any reordering of a chain's adds would show
    /// in the rounding.
    fn element((kind, v): (u8, f32)) -> f32 {
        match kind {
            0 => 0.0,
            1 => -0.0,
            2 => v * 1e6,
            3 => v * 1e-6,
            _ => v,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Interleaved score chains are bit-identical to the per-key
        /// `.sum()` loop, at every key count around the chain group size.
        #[test]
        fn interleaved_scores_match_sum(
            batch in 1usize..=4,
            hidden in 1usize..=40,
            keys in 1usize..=11,
            draws in proptest::collection::vec((0u8..5, -1.0f32..1.0), 4 * 40 * 12),
        ) {
            let mut vals = draws.into_iter().map(element);
            let mut take = |rows, cols| {
                Matrix::from_vec(rows, cols, vals.by_ref().take(rows * cols).collect())
            };
            let q = take(batch, hidden);
            let keys: Vec<Matrix> = (0..keys).map(|_| take(batch, hidden)).collect();
            prop_assert_eq!(bits(&scores(&q, &keys)), bits(&scores_oracle(&q, &keys)));
        }
    }
}
