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

use crate::matrix::{sigmoid_slice, tanh_slice, Matrix};

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
/// entry of `acts`) into `gates` (`n` stacked `B x H` blocks). Each block is
/// first copied out contiguously into `pre` (`B x H` elements), so the
/// activation kernels run over whole `B x H` buffers.
#[inline]
pub(crate) fn activate_gates(z: &Matrix, acts: &[Act], pre: &mut [f32], gates: &mut [f32]) {
    let batch = z.rows();
    let hidden = z.cols() / acts.len();
    let block = batch * hidden;
    debug_assert_eq!(pre.len(), block);
    debug_assert_eq!(gates.len(), acts.len() * block);
    for (k, (act, out)) in acts.iter().zip(gates.chunks_exact_mut(block)).enumerate() {
        for (r, dst) in pre.chunks_exact_mut(hidden).enumerate() {
            dst.copy_from_slice(&z.row(r)[k * hidden..(k + 1) * hidden]);
        }
        match act {
            Act::Sigmoid => sigmoid_slice(pre, out),
            Act::Tanh => tanh_slice(pre, out),
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
    for (s, hs) in keys.clone().enumerate() {
        for r in 0..batch {
            let d: f32 = q.row(r).iter().zip(hs.row(r)).map(|(&x, &y)| x * y).sum();
            weights.set(r, s, d);
        }
    }
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
