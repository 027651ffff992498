//! Define-by-run reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation applied to [`TensorId`] handles. Values
//! are computed eagerly during the forward pass; [`Tape::backward`] then walks
//! the recorded nodes in reverse, producing gradients for every node.
//! Parameters live outside the tape in a [`ParamSet`] so the tape can be
//! discarded and rebuilt every training step.
//!
//! # Fused cell and attention ops
//!
//! Besides the elementary ops, the tape has three fused ops for the seq2seq
//! model's hot loop: [`Tape::lstm_step`] (gates, `c`, `h`: three nodes),
//! [`Tape::gru_step`] (gates, `h`: two nodes) and [`Tape::attention`] (scores,
//! softmax and context: one node). Each has one forward kernel, shared with
//! the inference engine (the crate's `kernels` module), and one hand-written
//! backward kernel. A fleet-sized training step (hidden 8, batch 4, ten-word
//! sentences) records about 200 nodes instead of the ~950 its elementary
//! graph took, and on matrices this small the per-node overhead was most of
//! the step. The backward kernels evaluate the elementary graph's per-element
//! expressions and add into each input's gradient in the order its reverse
//! walk did, so values and gradients are bit-identical to it; proptests in
//! this module and in `lstm`/`gru` pin that against the elementary graphs.
//! The elementary ops that only those graphs used (add, hadamard, scale,
//! sigmoid, softmax, column slice, row dot, column-scaled rows) are compiled
//! for tests only, as that oracle.
//!
//! # Buffer reuse
//!
//! Every forward op and every gradient draws its storage from an internal
//! arena of recycled `Vec<f32>` buffers, and index lists (gather rows,
//! cross-entropy targets, attention keys, averaged nodes) and the gradient
//! slots come from pools of their own. Training loops should keep **one**
//! tape alive and call [`Tape::reset`] between steps instead of constructing
//! a fresh `Tape`: because a step replays the same op sequence, the arena
//! hands back same-sized buffers in the same order. Combined with
//! [`Tape::backward_accumulate`] — which harvests parameter gradients in the
//! reverse walk and recycles every intermediate gradient — a training step
//! performs no heap allocation once it has been recorded and replayed once
//! (`tests/tape_alloc.rs`; with the default kernels — the naive
//! `reference-kernels` GEMMs allocate their products).

use crate::kernels::{self, Act, GRU_GATES, LSTM_GATES};
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Handle to a value recorded on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TensorId(usize);

/// A set of trainable parameters, addressed by the index returned from
/// [`ParamSet::add`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ParamSet {
    values: Vec<Matrix>,
    grads: Vec<Matrix>,
}

impl ParamSet {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its slot index.
    pub fn add(&mut self, value: Matrix) -> usize {
        let (r, c) = value.shape();
        self.values.push(value);
        self.grads.push(Matrix::zeros(r, c));
        self.values.len() - 1
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set contains no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Immutable access to a parameter value.
    pub fn value(&self, idx: usize) -> &Matrix {
        &self.values[idx]
    }

    /// Mutable access to a parameter value.
    pub fn value_mut(&mut self, idx: usize) -> &mut Matrix {
        &mut self.values[idx]
    }

    /// Immutable access to a parameter gradient accumulator.
    pub fn grad(&self, idx: usize) -> &Matrix {
        &self.grads[idx]
    }

    /// Mutable access to a parameter gradient accumulator.
    pub fn grad_mut(&mut self, idx: usize) -> &mut Matrix {
        &mut self.grads[idx]
    }

    /// Resets all gradient accumulators to zero in place.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.data_mut().fill(0.0);
        }
    }

    /// Global L2 norm over all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.grads.iter().map(Matrix::norm_sq).sum::<f32>().sqrt()
    }

    /// Scales all gradients so the global norm does not exceed `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_grads(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in &mut self.grads {
                g.scale_assign(s);
            }
        }
        norm
    }
}

enum Op {
    /// Constant input; no gradient flows past it.
    Leaf,
    /// Parameter from a [`ParamSet`] slot; gradient is harvested by
    /// [`Tape::accumulate_param_grads`].
    Param(usize),
    MatMul(TensorId, TensorId),
    ConcatRows(TensorId, TensorId),
    #[cfg(test)]
    Add(TensorId, TensorId),
    AddRow(TensorId, TensorId),
    #[cfg(test)]
    Hadamard(TensorId, TensorId),
    #[cfg(test)]
    Scale(TensorId, f32),
    #[cfg(test)]
    Sigmoid(TensorId),
    Tanh(TensorId),
    #[cfg(test)]
    Softmax(TensorId),
    ConcatCols(TensorId, TensorId),
    #[cfg(test)]
    SliceCols(TensorId, usize, usize),
    Gather(TensorId, Vec<usize>),
    #[cfg(test)]
    RowDot(TensorId, TensorId),
    #[cfg(test)]
    MulCol(TensorId, TensorId),
    Dropout(TensorId, Vec<f32>),
    CrossEntropy {
        logits: TensorId,
        targets: Vec<usize>,
        probs: Matrix,
    },
    /// Node indices of the averaged scalars.
    MeanOf(Vec<usize>),
    /// Activated gate blocks of `[x | h] w + b`, stacked (see
    /// [`crate::kernels`]); keeps the GEMM operand `[x | h]`.
    Gates {
        x: TensorId,
        h: TensorId,
        w: TensorId,
        b: TensorId,
        acts: &'static [Act],
        xh: Matrix,
    },
    /// LSTM cell state `f ⊙ c + i ⊙ g` from stacked gates and the previous
    /// cell state.
    LstmCell {
        gates: TensorId,
        c: TensorId,
    },
    /// LSTM output `o ⊙ tanh(c)`; keeps `tanh(c)`.
    LstmHidden {
        gates: TensorId,
        c: TensorId,
        tanh_c: Matrix,
    },
    /// GRU output `z ⊙ (h - c) + c` with candidate
    /// `c = tanh([x | r ⊙ h] w + b)`; keeps `[x | r ⊙ h]` and `c`.
    GruCell {
        x: TensorId,
        h: TensorId,
        gates: TensorId,
        w: TensorId,
        b: TensorId,
        xrh: Matrix,
        cand: Matrix,
    },
    /// Luong attention context of `query` over the key nodes; keeps the
    /// softmax weights.
    Attention {
        query: TensorId,
        keys: Vec<usize>,
        weights: Matrix,
    },
}

struct Node {
    value: Matrix,
    op: Op,
}

/// Arena of recycled flat buffers, bucketed by capacity. A training step
/// replays roughly the same op sequence every iteration, so each request
/// finds a bucket whose capacity matches exactly and no allocation happens
/// in steady state. (A single LIFO stack does not work here: buffers are
/// recycled in recording order but requested in the same order, so nearly
/// every request would pop a wrong-sized buffer and reallocate it.)
#[derive(Default)]
struct Pool {
    buckets: std::collections::BTreeMap<usize, Vec<Vec<f32>>>,
}

impl Pool {
    /// Pops a recycled buffer with capacity at least `len`, preferring the
    /// tightest fit.
    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        // Drained buckets stay in the map so their allocation is reused
        // when the step's reset refills them.
        self.buckets
            .range_mut(len..)
            .find_map(|(_, bucket)| bucket.pop())
    }

    /// Returns a buffer of exactly `len` zeros, reusing a recycled allocation
    /// when one is available.
    fn zeros(&mut self, len: usize) -> Vec<f32> {
        match self.take(len) {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer of exactly `len` elements with *unspecified* (stale
    /// but valid) contents. Callers must overwrite every element before the
    /// buffer is read; skipping the zero fill is what makes this cheaper
    /// than [`Pool::zeros`] for ops that fully define their output.
    fn scratch(&mut self, len: usize) -> Vec<f32> {
        match self.take(len) {
            Some(mut buf) => {
                if buf.len() < len {
                    buf.resize(len, 0.0);
                } else {
                    buf.truncate(len);
                }
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer's allocation to the arena.
    fn put(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.buckets.entry(buf.capacity()).or_default().push(buf);
        }
    }
}

/// The autodiff tape. See the [module documentation](self) for the life cycle
/// and the buffer-reuse contract.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    pool: Pool,
    /// Recycled index vectors (gather and target rows, node lists).
    indices: Vec<Vec<usize>>,
    /// Gradient slots of the reverse pass, kept for their allocation
    /// ([`Tape::backward`] hands them to the caller instead).
    grads: Vec<Option<Matrix>>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all recorded nodes, recycling their storage into the tape's
    /// buffer arena. Call this between training steps instead of building a
    /// fresh `Tape` — the next forward pass then reuses the allocations.
    pub fn reset(&mut self) {
        // Split borrows: drain `nodes` while feeding the pools.
        let Tape {
            nodes,
            pool,
            indices,
            ..
        } = self;
        for node in nodes.drain(..) {
            pool.put(node.value.into_data());
            match node.op {
                Op::Dropout(_, mask) => pool.put(mask),
                Op::CrossEntropy { targets, probs, .. } => {
                    indices.push(targets);
                    pool.put(probs.into_data());
                }
                Op::Gather(_, idx) | Op::MeanOf(idx) => indices.push(idx),
                Op::Gates { xh, .. } => pool.put(xh.into_data()),
                Op::LstmHidden { tanh_c, .. } => pool.put(tanh_c.into_data()),
                Op::GruCell { xrh, cand, .. } => {
                    pool.put(xrh.into_data());
                    pool.put(cand.into_data());
                }
                Op::Attention { keys, weights, .. } => {
                    indices.push(keys);
                    pool.put(weights.into_data());
                }
                _ => {}
            }
        }
    }

    /// A recycled index vector holding `items`, preferring one whose
    /// capacity already fits.
    fn index_vec(&mut self, items: impl ExactSizeIterator<Item = usize>) -> Vec<usize> {
        let len = items.len();
        let mut v = match self.indices.iter().rposition(|v| v.capacity() >= len) {
            Some(k) => self.indices.swap_remove(k),
            None => self.indices.pop().unwrap_or_default(),
        };
        v.clear();
        v.extend(items);
        v
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value of a recorded node.
    pub fn value(&self, id: TensorId) -> &Matrix {
        &self.nodes[id.0].value
    }

    fn push(&mut self, value: Matrix, op: Op) -> TensorId {
        self.nodes.push(Node { value, op });
        TensorId(self.nodes.len() - 1)
    }

    /// Pooled `rows x cols` matrix of zeros.
    fn pooled(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.pool.zeros(rows * cols))
    }

    /// Pooled `rows x cols` matrix with unspecified contents, for ops that
    /// overwrite every output element (see [`Pool::scratch`]).
    fn pooled_scratch(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.pool.scratch(rows * cols))
    }

    /// Pooled element-wise map of node `a` recorded as `op`.
    #[cfg(test)]
    fn unary_map(&mut self, a: TensorId, op: Op, f: impl Fn(f32) -> f32) -> TensorId {
        let (r, c) = self.value(a).shape();
        let mut out = self.pooled_scratch(r, c);
        for (o, &x) in out.data_mut().iter_mut().zip(self.value(a).data()) {
            *o = f(x);
        }
        self.push(out, op)
    }

    /// Records a constant (non-differentiable) input.
    pub fn leaf(&mut self, value: Matrix) -> TensorId {
        self.push(value, Op::Leaf)
    }

    /// Records a constant `rows x cols` input of zeros, drawn from the
    /// tape's arena (a recurrent zero state, say) instead of a fresh
    /// allocation.
    pub fn zeros(&mut self, rows: usize, cols: usize) -> TensorId {
        let v = self.pooled(rows, cols);
        self.push(v, Op::Leaf)
    }

    /// Records parameter `idx` from `params` as a differentiable leaf.
    pub fn param(&mut self, params: &ParamSet, idx: usize) -> TensorId {
        let (r, c) = params.value(idx).shape();
        let mut v = self.pooled_scratch(r, c);
        v.data_mut().copy_from_slice(params.value(idx).data());
        self.push(v, Op::Param(idx))
    }

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let m = self.value(a).rows();
        let n = self.value(b).cols();
        let mut v = self.pooled(m, n);
        self.value(a).matmul_into(self.value(b), &mut v);
        self.push(v, Op::MatMul(a, b))
    }

    /// Element-wise sum of two same-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[cfg(test)]
    pub fn add(&mut self, a: TensorId, b: TensorId) -> TensorId {
        assert_eq!(
            self.value(a).shape(),
            self.value(b).shape(),
            "add shape mismatch"
        );
        let (r, c) = self.value(a).shape();
        let mut v = self.pooled_scratch(r, c);
        let (va, vb) = (self.value(a), self.value(b));
        for ((o, &x), &y) in v.data_mut().iter_mut().zip(va.data()).zip(vb.data()) {
            *o = x + y;
        }
        self.push(v, Op::Add(a, b))
    }

    /// Adds a `1 x C` row vector to every row of a `B x C` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x C` for the `B x C` input.
    pub fn add_row(&mut self, a: TensorId, bias: TensorId) -> TensorId {
        let (ar, ac) = self.value(a).shape();
        let (br, bc) = self.value(bias).shape();
        assert_eq!(
            (br, bc),
            (1, ac),
            "add_row bias must be 1x{ac}, got {br}x{bc}"
        );
        let mut v = self.pooled_scratch(ar, ac);
        let (va, vb) = (self.value(a), self.value(bias));
        for r in 0..ar {
            let bias_row = vb.row(0);
            for ((o, &x), &b) in v.row_mut(r).iter_mut().zip(va.row(r)).zip(bias_row) {
                *o = x + b;
            }
        }
        self.push(v, Op::AddRow(a, bias))
    }

    /// Element-wise product of two same-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[cfg(test)]
    pub fn hadamard(&mut self, a: TensorId, b: TensorId) -> TensorId {
        assert_eq!(
            self.value(a).shape(),
            self.value(b).shape(),
            "hadamard shape mismatch"
        );
        let (r, c) = self.value(a).shape();
        let mut v = self.pooled_scratch(r, c);
        let (va, vb) = (self.value(a), self.value(b));
        for ((o, &x), &y) in v.data_mut().iter_mut().zip(va.data()).zip(vb.data()) {
            *o = x * y;
        }
        self.push(v, Op::Hadamard(a, b))
    }

    /// Multiplies a tensor by a scalar.
    #[cfg(test)]
    pub fn scale(&mut self, a: TensorId, s: f32) -> TensorId {
        self.unary_map(a, Op::Scale(a, s), |x| x * s)
    }

    /// Logistic sigmoid, element-wise.
    ///
    /// Routes through [`crate::matrix::sigmoid_slice`], whose vectorized
    /// polynomial fast path stays within `1e-6` of the libm-exact reference
    /// (`--features reference-kernels` restores the latter).
    #[cfg(test)]
    pub fn sigmoid(&mut self, a: TensorId) -> TensorId {
        let (r, c) = self.value(a).shape();
        let mut out = self.pooled_scratch(r, c);
        crate::matrix::sigmoid_slice(self.value(a).data(), out.data_mut());
        self.push(out, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent, element-wise.
    ///
    /// Routes through [`crate::matrix::tanh_slice`], whose vectorized
    /// polynomial fast path stays within `1e-6` of the libm-exact reference
    /// (`--features reference-kernels` restores the latter).
    pub fn tanh(&mut self, a: TensorId) -> TensorId {
        let (r, c) = self.value(a).shape();
        let mut out = self.pooled_scratch(r, c);
        crate::matrix::tanh_slice(self.value(a).data(), out.data_mut());
        self.push(out, Op::Tanh(a))
    }

    /// Row-wise softmax.
    #[cfg(test)]
    pub fn softmax(&mut self, a: TensorId) -> TensorId {
        let (r, c) = self.value(a).shape();
        let mut v = self.pooled_scratch(r, c);
        v.data_mut().copy_from_slice(self.value(a).data());
        kernels::softmax_rows(&mut v);
        self.push(v, Op::Softmax(a))
    }

    /// Concatenates two tensors with equal row counts along columns.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn concat_cols(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let (ar, ac) = self.value(a).shape();
        let (br, bc) = self.value(b).shape();
        assert_eq!(ar, br, "concat_cols row mismatch: {ar} vs {br}");
        let mut v = self.pooled_scratch(ar, ac + bc);
        let (va, vb) = (self.value(a), self.value(b));
        for r in 0..ar {
            v.row_mut(r)[..ac].copy_from_slice(va.row(r));
            v.row_mut(r)[ac..].copy_from_slice(vb.row(r));
        }
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Stacks two tensors with equal column counts along rows: `a` on top of
    /// `b`. Used to pack separate weight matrices into one GEMM operand (the
    /// fused LSTM/GRU gate path).
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn concat_rows(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let (ar, ac) = self.value(a).shape();
        let (br, bc) = self.value(b).shape();
        assert_eq!(ac, bc, "concat_rows col mismatch: {ac} vs {bc}");
        let mut v = self.pooled_scratch(ar + br, ac);
        let (va, vb) = (self.value(a), self.value(b));
        v.data_mut()[..ar * ac].copy_from_slice(va.data());
        v.data_mut()[ar * ac..].copy_from_slice(vb.data());
        self.push(v, Op::ConcatRows(a, b))
    }

    /// Takes columns `[start, start + len)` of a tensor.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the column count.
    #[cfg(test)]
    pub fn slice_cols(&mut self, a: TensorId, start: usize, len: usize) -> TensorId {
        let (ar, ac) = self.value(a).shape();
        assert!(
            start + len <= ac,
            "slice_cols [{start}, {}) out of 0..{ac}",
            start + len
        );
        let mut v = self.pooled_scratch(ar, len);
        let va = self.value(a);
        for r in 0..ar {
            v.row_mut(r).copy_from_slice(&va.row(r)[start..start + len]);
        }
        self.push(v, Op::SliceCols(a, start, len))
    }

    /// Gathers rows of `src` by index: output row `r` is `src` row
    /// `indices[r]`. The canonical embedding lookup.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather(&mut self, src: TensorId, indices: &[usize]) -> TensorId {
        let (sr, sc) = self.value(src).shape();
        let mut v = self.pooled_scratch(indices.len(), sc);
        let vs = self.value(src);
        for (r, &i) in indices.iter().enumerate() {
            assert!(i < sr, "gather index {i} out of bounds for {sr} rows");
            v.row_mut(r).copy_from_slice(vs.row(i));
        }
        let indices = self.index_vec(indices.iter().copied());
        self.push(v, Op::Gather(src, indices))
    }

    /// Row-wise dot product of two `B x C` tensors producing `B x 1`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[cfg(test)]
    pub fn row_dot(&mut self, a: TensorId, b: TensorId) -> TensorId {
        assert_eq!(
            self.value(a).shape(),
            self.value(b).shape(),
            "row_dot shape mismatch"
        );
        let (rows, _) = self.value(a).shape();
        let mut v = self.pooled_scratch(rows, 1);
        let (va, vb) = (self.value(a), self.value(b));
        for r in 0..rows {
            let d: f32 = va.row(r).iter().zip(vb.row(r)).map(|(&x, &y)| x * y).sum();
            v.set(r, 0, d);
        }
        self.push(v, Op::RowDot(a, b))
    }

    /// Multiplies each row of a `B x C` tensor by the matching entry of a
    /// `B x 1` column vector.
    ///
    /// # Panics
    ///
    /// Panics if `col` is not `B x 1`.
    #[cfg(test)]
    pub fn mul_col(&mut self, a: TensorId, col: TensorId) -> TensorId {
        let (ar, ac) = self.value(a).shape();
        assert_eq!(
            self.value(col).shape(),
            (ar, 1),
            "mul_col expects a {ar}x1 column"
        );
        let mut v = self.pooled_scratch(ar, ac);
        let (va, vc) = (self.value(a), self.value(col));
        for r in 0..ar {
            let s = vc.get(r, 0);
            for (o, &x) in v.row_mut(r).iter_mut().zip(va.row(r)) {
                *o = x * s;
            }
        }
        self.push(v, Op::MulCol(a, col))
    }

    /// Inverted dropout: keeps each element with probability `1 - p`, scaling
    /// kept elements by `1 / (1 - p)`. `p == 0` is the identity.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn dropout(&mut self, a: TensorId, p: f32, rng: &mut impl rand::Rng) -> TensorId {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability {p} must be in [0, 1)"
        );
        if p == 0.0 {
            return a;
        }
        let (r, c) = self.value(a).shape();
        let keep = 1.0 - p;
        let mut mask = self.pool.scratch(r * c);
        for m in mask.iter_mut() {
            *m = if rng.gen::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            };
        }
        let mut v = self.pooled_scratch(r, c);
        let va = self.value(a);
        for ((o, &x), &m) in v.data_mut().iter_mut().zip(va.data()).zip(mask.iter()) {
            *o = x * m;
        }
        self.push(v, Op::Dropout(a, mask))
    }

    /// Mean cross-entropy loss of row-wise logits against integer targets.
    /// Produces a `1 x 1` scalar node.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of logit rows, or a
    /// target is out of vocabulary range.
    pub fn cross_entropy(&mut self, logits: TensorId, targets: &[usize]) -> TensorId {
        let (rows, cols) = self.value(logits).shape();
        assert_eq!(rows, targets.len(), "cross_entropy target count mismatch");
        let mut probs = self.pooled_scratch(rows, cols);
        probs.data_mut().copy_from_slice(self.value(logits).data());
        kernels::softmax_rows(&mut probs);
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < cols, "cross_entropy target {t} out of vocab {cols}");
            let p = probs.get(r, t);
            // Floor the probability so ln stays finite, but let NaN through:
            // NaN here means the forward pass diverged, and `f32::max`
            // silently swallowing it would hide that from loss guards.
            loss -= if p.is_nan() { p } else { p.max(1e-12) }.ln();
        }
        loss /= rows as f32;
        let mut v = self.pooled(1, 1);
        v.set(0, 0, loss);
        let targets = self.index_vec(targets.iter().copied());
        self.push(
            v,
            Op::CrossEntropy {
                logits,
                targets,
                probs,
            },
        )
    }

    /// Averages several `1 x 1` scalar nodes into one.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty or any node is not `1 x 1`.
    pub fn mean_of(&mut self, ids: &[TensorId]) -> TensorId {
        assert!(!ids.is_empty(), "mean_of needs at least one node");
        let mut acc = 0.0;
        for &id in ids {
            assert_eq!(
                self.value(id).shape(),
                (1, 1),
                "mean_of expects scalar nodes"
            );
            acc += self.value(id).get(0, 0);
        }
        acc /= ids.len() as f32;
        let mut v = self.pooled(1, 1);
        v.set(0, 0, acc);
        let ids = self.index_vec(ids.iter().map(|id| id.0));
        self.push(v, Op::MeanOf(ids))
    }

    /// One fused LSTM cell step: gates `[x | h] w + b` (one GEMM against the
    /// packed fused-gate operand `w = [wx; wh]`, columns `[i | f | g | o]`),
    /// then `c' = f ⊙ c + i ⊙ g` and `h' = o ⊙ tanh(c')`. Returns `(h', c')`.
    ///
    /// Records three nodes (gates, `c'`, `h'`) with hand-written backward
    /// kernels. Values and gradients are bit-identical to the composite graph
    /// of concat, matmul, bias, slice, activation and elementwise nodes it
    /// replaces.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not describe one `B x H` LSTM step.
    pub fn lstm_step(
        &mut self,
        x: TensorId,
        h: TensorId,
        c: TensorId,
        w: TensorId,
        b: TensorId,
    ) -> (TensorId, TensorId) {
        let gates = self.gates(x, h, w, b, LSTM_GATES);
        let (rows, cols) = self.value(h).shape();
        assert_eq!(self.value(c).shape(), (rows, cols), "lstm_step cell shape");
        let mut c_next = self.pooled_scratch(rows, cols);
        c_next.data_mut().copy_from_slice(self.value(c).data());
        kernels::lstm_cell(self.value(gates).data(), c_next.data_mut());
        let c_next = self.push(c_next, Op::LstmCell { gates, c });
        let mut tanh_c = self.pooled_scratch(rows, cols);
        let mut h_next = self.pooled_scratch(rows, cols);
        kernels::lstm_hidden(
            self.value(gates).data(),
            self.value(c_next).data(),
            tanh_c.data_mut(),
            h_next.data_mut(),
        );
        let h_next = self.push(
            h_next,
            Op::LstmHidden {
                gates,
                c: c_next,
                tanh_c,
            },
        );
        (h_next, c_next)
    }

    /// One fused GRU cell step: gates `[r | z]` from `[x | h] w_gates +
    /// b_gates`, candidate `c = tanh([x | r ⊙ h] w_cand + b_cand)`, and
    /// `h' = z ⊙ (h - c) + c`. `w_gates` and `w_cand` are the packed
    /// fused-gate operands.
    ///
    /// Records two nodes (gates, `h'`) with hand-written backward kernels,
    /// bit-identical to the composite graph they replace.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not describe one `B x H` GRU step.
    pub fn gru_step(
        &mut self,
        x: TensorId,
        h: TensorId,
        w_gates: TensorId,
        b_gates: TensorId,
        w_cand: TensorId,
        b_cand: TensorId,
    ) -> TensorId {
        let gates = self.gates(x, h, w_gates, b_gates, GRU_GATES);
        let (batch, in_dim) = self.value(x).shape();
        let hd = self.value(h).cols();
        assert_eq!(
            self.value(w_cand).shape(),
            (in_dim + hd, hd),
            "gru_step candidate weight shape"
        );
        let mut xrh = self.pooled_scratch(batch, in_dim + hd);
        kernels::gru_candidate_input(
            self.value(x),
            self.value(h),
            self.value(gates).data(),
            &mut xrh,
        );
        let mut pre = self.pooled_scratch(batch, hd);
        xrh.matmul_into(self.value(w_cand), &mut pre);
        kernels::add_row_inplace(&mut pre, self.value(b_cand));
        let mut cand = self.pooled_scratch(batch, hd);
        crate::matrix::tanh_slice(pre.data(), cand.data_mut());
        self.pool.put(pre.into_data());
        let mut out = self.pooled_scratch(batch, hd);
        out.data_mut().copy_from_slice(self.value(h).data());
        kernels::gru_blend(self.value(gates).data(), cand.data(), out.data_mut());
        self.push(
            out,
            Op::GruCell {
                x,
                h,
                gates,
                w: w_cand,
                b: b_cand,
                xrh,
                cand,
            },
        )
    }

    /// Records the stacked activated gate blocks of `[x | h] w + b`.
    fn gates(
        &mut self,
        x: TensorId,
        h: TensorId,
        w: TensorId,
        b: TensorId,
        acts: &'static [Act],
    ) -> TensorId {
        let (batch, in_dim) = self.value(x).shape();
        let hd = self.value(h).cols();
        let width = acts.len() * hd;
        assert_eq!(self.value(h).rows(), batch, "cell step batch mismatch");
        assert_eq!(
            self.value(w).shape(),
            (in_dim + hd, width),
            "cell step gate weight shape"
        );
        assert_eq!(
            self.value(b).shape(),
            (1, width),
            "cell step gate bias shape"
        );
        let mut xh = self.pooled_scratch(batch, in_dim + hd);
        kernels::concat_cols_into(self.value(x), self.value(h), &mut xh);
        let mut z = self.pooled_scratch(batch, width);
        xh.matmul_into(self.value(w), &mut z);
        kernels::add_row_inplace(&mut z, self.value(b));
        let mut gates = self.pooled_scratch(acts.len() * batch, hd);
        kernels::activate_gates(&z, acts, gates.data_mut());
        self.pool.put(z.into_data());
        self.push(
            gates,
            Op::Gates {
                x,
                h,
                w,
                b,
                acts,
                xh,
            },
        )
    }

    /// Luong attention step: scores `query · key_s` for every key, a row
    /// softmax over them, and the context `Σ_s weight_s ⊙ key_s`. Each key
    /// and the query are `B x H`; returns the `B x H` context.
    ///
    /// Records one node with a hand-written backward kernel, bit-identical
    /// to the composite graph of row-dot, concat, softmax, slice, mul-col
    /// and add nodes it replaces.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty or a key's shape differs from the query's.
    pub fn attention(&mut self, query: TensorId, keys: &[TensorId]) -> TensorId {
        assert!(!keys.is_empty(), "attention needs at least one key");
        let (batch, hd) = self.value(query).shape();
        for &k in keys {
            assert_eq!(self.value(k).shape(), (batch, hd), "attention key shape");
        }
        let mut weights = self.pooled_scratch(batch, keys.len());
        let mut ctx = self.pooled_scratch(batch, hd);
        let nodes = &self.nodes;
        kernels::attention(
            self.value(query),
            keys.iter().map(|k| &nodes[k.0].value),
            &mut weights,
            &mut ctx,
        );
        let keys = self.index_vec(keys.iter().map(|k| k.0));
        self.push(
            ctx,
            Op::Attention {
                query,
                keys,
                weights,
            },
        )
    }

    /// Runs the reverse pass from `loss` (which must be `1 x 1`) and returns
    /// the gradient of every node with respect to the loss.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar node.
    pub fn backward(&mut self, loss: TensorId) -> Vec<Option<Matrix>> {
        self.backward_impl(loss, None);
        std::mem::take(&mut self.grads)
    }

    /// Runs the reverse pass and adds every `Param` node's gradient straight
    /// into the matching [`ParamSet`] accumulator, recycling all intermediate
    /// gradient buffers into the tape's arena. This is the allocation-free
    /// training path; use [`Tape::backward`] when per-node gradients are
    /// needed (tests, diagnostics). The gradient values are identical to
    /// `backward` + [`Tape::accumulate_param_grads`].
    pub fn backward_accumulate(&mut self, loss: TensorId, params: &mut ParamSet) {
        self.backward_impl(loss, Some(params));
    }

    /// Leaves every node's gradient in `self.grads` (all taken and recycled
    /// when harvesting).
    fn backward_impl(&mut self, loss: TensorId, mut harvest: Option<&mut ParamSet>) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward root must be a 1x1 scalar"
        );
        // When harvesting, gradients are consumed as soon as their node is
        // processed, so each buffer can go straight back to the arena.
        let recycle = harvest.is_some();
        // Split borrows: node reads and pool writes coexist below.
        let Tape {
            nodes, pool, grads, ..
        } = self;
        /// Pooled `rows x cols` zero matrix.
        fn pz(pool: &mut Pool, rows: usize, cols: usize) -> Matrix {
            Matrix::from_vec(rows, cols, pool.zeros(rows * cols))
        }
        /// Pooled copy of `src`.
        fn pc(pool: &mut Pool, src: &Matrix) -> Matrix {
            let mut out = pz(pool, src.rows(), src.cols());
            out.data_mut().copy_from_slice(src.data());
            out
        }
        grads.clear();
        grads.resize(nodes.len(), None);
        let grads = grads.as_mut_slice();
        let mut seed = pz(pool, 1, 1);
        seed.set(0, 0, 1.0);
        grads[loss.0] = Some(seed);

        for i in (0..nodes.len()).rev() {
            let g = if recycle {
                match grads[i].take() {
                    Some(g) => g,
                    None => continue,
                }
            } else {
                match &grads[i] {
                    Some(g) => g.clone(),
                    None => continue,
                }
            };
            match &nodes[i].op {
                Op::Leaf => {}
                Op::Param(idx) => {
                    if let Some(params) = harvest.as_deref_mut() {
                        params.grad_mut(*idx).add_assign(&g);
                    }
                }
                Op::MatMul(a, b) => {
                    let (va, vb) = (&nodes[a.0].value, &nodes[b.0].value);
                    let mut ga = pz(pool, g.rows(), vb.rows());
                    g.matmul_nt_into(vb, &mut ga);
                    let mut gb = pz(pool, va.cols(), g.cols());
                    va.matmul_tn_into(&g, &mut gb);
                    accumulate(grads, pool, a.0, ga);
                    accumulate(grads, pool, b.0, gb);
                }
                Op::ConcatRows(a, b) => {
                    let ar = nodes[a.0].value.rows();
                    let (br, c) = nodes[b.0].value.shape();
                    let mut ga = pz(pool, ar, c);
                    ga.data_mut().copy_from_slice(&g.data()[..ar * c]);
                    let mut gb = pz(pool, br, c);
                    gb.data_mut().copy_from_slice(&g.data()[ar * c..]);
                    accumulate(grads, pool, a.0, ga);
                    accumulate(grads, pool, b.0, gb);
                }
                #[cfg(test)]
                Op::Add(a, b) => {
                    let ga = pc(pool, &g);
                    let gb = pc(pool, &g);
                    accumulate(grads, pool, a.0, ga);
                    accumulate(grads, pool, b.0, gb);
                }
                Op::AddRow(a, bias) => {
                    let mut gb = pz(pool, 1, g.cols());
                    for r in 0..g.rows() {
                        for (o, &v) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
                            *o += v;
                        }
                    }
                    let ga = pc(pool, &g);
                    accumulate(grads, pool, a.0, ga);
                    accumulate(grads, pool, bias.0, gb);
                }
                #[cfg(test)]
                Op::Hadamard(a, b) => {
                    let (va, vb) = (&nodes[a.0].value, &nodes[b.0].value);
                    let mut ga = pz(pool, g.rows(), g.cols());
                    for ((o, &gv), &bv) in ga.data_mut().iter_mut().zip(g.data()).zip(vb.data()) {
                        *o = gv * bv;
                    }
                    let mut gb = pz(pool, g.rows(), g.cols());
                    for ((o, &gv), &av) in gb.data_mut().iter_mut().zip(g.data()).zip(va.data()) {
                        *o = gv * av;
                    }
                    accumulate(grads, pool, a.0, ga);
                    accumulate(grads, pool, b.0, gb);
                }
                #[cfg(test)]
                Op::Scale(a, s) => {
                    let mut ga = pz(pool, g.rows(), g.cols());
                    for (o, &gv) in ga.data_mut().iter_mut().zip(g.data()) {
                        *o = gv * s;
                    }
                    accumulate(grads, pool, a.0, ga);
                }
                #[cfg(test)]
                Op::Sigmoid(a) => {
                    let y = &nodes[i].value;
                    let mut ga = pz(pool, g.rows(), g.cols());
                    for ((o, &gv), &yv) in ga.data_mut().iter_mut().zip(g.data()).zip(y.data()) {
                        *o = gv * (yv * (1.0 - yv));
                    }
                    accumulate(grads, pool, a.0, ga);
                }
                Op::Tanh(a) => {
                    let y = &nodes[i].value;
                    let mut ga = pz(pool, g.rows(), g.cols());
                    for ((o, &gv), &yv) in ga.data_mut().iter_mut().zip(g.data()).zip(y.data()) {
                        *o = gv * (1.0 - yv * yv);
                    }
                    accumulate(grads, pool, a.0, ga);
                }
                #[cfg(test)]
                Op::Softmax(a) => {
                    let y = &nodes[i].value;
                    let mut ga = pz(pool, y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let dot: f32 = g
                            .row(r)
                            .iter()
                            .zip(y.row(r))
                            .map(|(&gv, &yv)| gv * yv)
                            .sum();
                        for ((o, &gv), &yv) in ga.row_mut(r).iter_mut().zip(g.row(r)).zip(y.row(r))
                        {
                            *o = (gv - dot) * yv;
                        }
                    }
                    accumulate(grads, pool, a.0, ga);
                }
                Op::ConcatCols(a, b) => {
                    let ac = nodes[a.0].value.cols();
                    let bc = nodes[b.0].value.cols();
                    let rows = g.rows();
                    let mut ga = pz(pool, rows, ac);
                    let mut gb = pz(pool, rows, bc);
                    for r in 0..rows {
                        ga.row_mut(r).copy_from_slice(&g.row(r)[..ac]);
                        gb.row_mut(r).copy_from_slice(&g.row(r)[ac..]);
                    }
                    accumulate(grads, pool, a.0, ga);
                    accumulate(grads, pool, b.0, gb);
                }
                #[cfg(test)]
                Op::SliceCols(a, start, len) => {
                    let (ar, ac) = nodes[a.0].value.shape();
                    let mut ga = pz(pool, ar, ac);
                    for r in 0..ar {
                        ga.row_mut(r)[*start..start + len].copy_from_slice(g.row(r));
                    }
                    accumulate(grads, pool, a.0, ga);
                }
                Op::Gather(src, indices) => {
                    let (sr, sc) = nodes[src.0].value.shape();
                    let mut gs = pz(pool, sr, sc);
                    for (r, &idx) in indices.iter().enumerate() {
                        for (o, &v) in gs.row_mut(idx).iter_mut().zip(g.row(r)) {
                            *o += v;
                        }
                    }
                    accumulate(grads, pool, src.0, gs);
                }
                #[cfg(test)]
                Op::RowDot(a, b) => {
                    let (va, vb) = (&nodes[a.0].value, &nodes[b.0].value);
                    let mut ga = pz(pool, va.rows(), va.cols());
                    let mut gb = pz(pool, vb.rows(), vb.cols());
                    for r in 0..va.rows() {
                        let gr = g.get(r, 0);
                        for (o, &bv) in ga.row_mut(r).iter_mut().zip(vb.row(r)) {
                            *o = gr * bv;
                        }
                        for (o, &av) in gb.row_mut(r).iter_mut().zip(va.row(r)) {
                            *o = gr * av;
                        }
                    }
                    accumulate(grads, pool, a.0, ga);
                    accumulate(grads, pool, b.0, gb);
                }
                #[cfg(test)]
                Op::MulCol(a, col) => {
                    let (va, vc) = (&nodes[a.0].value, &nodes[col.0].value);
                    let mut ga = pz(pool, va.rows(), va.cols());
                    let mut gc = pz(pool, va.rows(), 1);
                    for r in 0..va.rows() {
                        let s = vc.get(r, 0);
                        let mut dot = 0.0;
                        for ((o, &gv), &av) in ga.row_mut(r).iter_mut().zip(g.row(r)).zip(va.row(r))
                        {
                            *o = gv * s;
                            dot += gv * av;
                        }
                        gc.set(r, 0, dot);
                    }
                    accumulate(grads, pool, a.0, ga);
                    accumulate(grads, pool, col.0, gc);
                }
                Op::Dropout(a, mask) => {
                    let mut ga = pz(pool, g.rows(), g.cols());
                    for ((o, &gv), &m) in ga.data_mut().iter_mut().zip(g.data()).zip(mask.iter()) {
                        *o = gv * m;
                    }
                    accumulate(grads, pool, a.0, ga);
                }
                Op::CrossEntropy {
                    logits,
                    targets,
                    probs,
                } => {
                    let scale = g.get(0, 0) / targets.len() as f32;
                    let mut gl = pc(pool, probs);
                    for (r, &t) in targets.iter().enumerate() {
                        gl.set(r, t, gl.get(r, t) - 1.0);
                    }
                    gl.scale_assign(scale);
                    accumulate(grads, pool, logits.0, gl);
                }
                Op::MeanOf(ids) => {
                    let share = g.get(0, 0) / ids.len() as f32;
                    for &id in ids {
                        let mut gi = pz(pool, 1, 1);
                        gi.set(0, 0, share);
                        accumulate(grads, pool, id, gi);
                    }
                }
                Op::Gates {
                    x,
                    h,
                    w,
                    b,
                    acts,
                    xh,
                } => {
                    let y = &nodes[i].value;
                    let hd = y.cols();
                    let batch = y.rows() / acts.len();
                    let block = batch * hd;
                    // Gate pre-activation gradient in the GEMM's column
                    // layout. The composite graph summed one zero-padded
                    // slice gradient per block into it, so every element
                    // also took `+ 0.0` (which turns -0 into +0).
                    let mut dz = pz(pool, batch, acts.len() * hd);
                    for (k, act) in acts.iter().enumerate() {
                        let gk = &g.data()[k * block..(k + 1) * block];
                        let yk = &y.data()[k * block..(k + 1) * block];
                        for r in 0..batch {
                            let rows = r * hd..(r + 1) * hd;
                            let dst = &mut dz.row_mut(r)[k * hd..(k + 1) * hd];
                            for ((o, &gv), &yv) in
                                dst.iter_mut().zip(&gk[rows.clone()]).zip(&yk[rows])
                            {
                                let d = match act {
                                    Act::Sigmoid => gv * (yv * (1.0 - yv)),
                                    Act::Tanh => gv * (1.0 - yv * yv),
                                };
                                *o = d + 0.0;
                            }
                        }
                    }
                    let g_xh = gemm_backward(grads, pool, &dz, xh, &nodes[w.0].value, *w, *b);
                    let in_dim = nodes[x.0].value.cols();
                    add_cols(grads, pool, &g_xh, 0, in_dim, x.0);
                    add_cols(grads, pool, &g_xh, in_dim, y.cols(), h.0);
                    pool.put(g_xh.into_data());
                    pool.put(dz.into_data());
                }
                Op::LstmCell { gates, c } => {
                    let gv = nodes[gates.0].value.data();
                    let cv = &nodes[c.0].value;
                    let n = cv.data().len();
                    let (iv, fv, ggv) = (&gv[..n], &gv[n..2 * n], &gv[2 * n..3 * n]);
                    let gd = g.data();
                    let (gs, fresh) = grad_slot(grads, pool, gates.0, 4 * cv.rows(), cv.cols());
                    let gs = gs.data_mut();
                    for e in 0..n {
                        put(&mut gs[e], gd[e] * ggv[e], fresh);
                        put(&mut gs[2 * n + e], gd[e] * iv[e], fresh);
                    }
                    for e in 0..n {
                        put(&mut gs[n + e], gd[e] * cv.data()[e], fresh);
                    }
                    let (cs, fresh) = grad_slot(grads, pool, c.0, cv.rows(), cv.cols());
                    for ((o, &gv), &f) in cs.data_mut().iter_mut().zip(gd).zip(fv) {
                        put(o, gv * f, fresh);
                    }
                }
                Op::LstmHidden { gates, c, tanh_c } => {
                    let (rows, cols) = tanh_c.shape();
                    let n = rows * cols;
                    let ov = &nodes[gates.0].value.data()[3 * n..];
                    let (gd, td) = (g.data(), tanh_c.data());
                    let (gs, fresh) = grad_slot(grads, pool, gates.0, 4 * rows, cols);
                    for ((o, &gv), &t) in gs.data_mut()[3 * n..].iter_mut().zip(gd).zip(td) {
                        put(o, gv * t, fresh);
                    }
                    let (cs, fresh) = grad_slot(grads, pool, c.0, rows, cols);
                    for (e, o) in cs.data_mut().iter_mut().enumerate() {
                        put(o, (gd[e] * ov[e]) * (1.0 - td[e] * td[e]), fresh);
                    }
                }
                Op::GruCell {
                    x,
                    h,
                    gates,
                    w,
                    b,
                    xrh,
                    cand,
                } => {
                    let (rows, cols) = cand.shape();
                    let n = rows * cols;
                    let gv = nodes[gates.0].value.data();
                    let (rv, zv) = (&gv[..n], &gv[n..2 * n]);
                    let hv = &nodes[h.0].value;
                    let (gd, cd) = (g.data(), cand.data());
                    // Reverse of `h' = z ⊙ (h + (-c)) + c`: the update gate,
                    // then `h`, then the candidate's pre-activation.
                    let mut g_pre = pz(pool, rows, cols);
                    let (gs, fresh) = grad_slot(grads, pool, gates.0, 2 * rows, cols);
                    for e in 0..n {
                        put(
                            &mut gs.data_mut()[n + e],
                            gd[e] * (hv.data()[e] + (-cd[e])),
                            fresh,
                        );
                    }
                    let (hs, fresh) = grad_slot(grads, pool, h.0, rows, cols);
                    for e in 0..n {
                        let g_hmc = gd[e] * zv[e];
                        put(&mut hs.data_mut()[e], g_hmc, fresh);
                        let gc = gd[e] + -g_hmc;
                        g_pre.data_mut()[e] = gc * (1.0 - cd[e] * cd[e]);
                    }
                    let g_xrh = gemm_backward(grads, pool, &g_pre, xrh, &nodes[w.0].value, *w, *b);
                    let in_dim = nodes[x.0].value.cols();
                    add_cols(grads, pool, &g_xrh, 0, in_dim, x.0);
                    // `r ⊙ h`: the reset gate, then `h`. Both slots exist
                    // by now.
                    let (gs, _) = grad_slot(grads, pool, gates.0, 2 * rows, cols);
                    for (r, dst) in gs.data_mut()[..n].chunks_exact_mut(cols).enumerate() {
                        let g_rh = &g_xrh.row(r)[in_dim..];
                        for ((o, &g), &hh) in dst.iter_mut().zip(g_rh).zip(hv.row(r)) {
                            *o += g * hh;
                        }
                    }
                    let (hs, _) = grad_slot(grads, pool, h.0, rows, cols);
                    for (r, dst) in hs.data_mut().chunks_exact_mut(cols).enumerate() {
                        let g_rh = &g_xrh.row(r)[in_dim..];
                        for ((o, &g), &rr) in dst.iter_mut().zip(g_rh).zip(&rv[r * cols..]) {
                            *o += g * rr;
                        }
                    }
                    pool.put(g_pre.into_data());
                    pool.put(g_xrh.into_data());
                }
                Op::Attention {
                    query,
                    keys,
                    weights,
                } => {
                    let (batch, steps) = weights.shape();
                    let qv = &nodes[query.0].value;
                    let hd = qv.cols();
                    // Context: each key's weighted term (last key first), and
                    // the weight gradients.
                    let mut gw = pz(pool, batch, steps);
                    for s in (0..steps).rev() {
                        let kv = &nodes[keys[s]].value;
                        let (ks, fresh) = grad_slot(grads, pool, keys[s], batch, hd);
                        for r in 0..batch {
                            let w = weights.get(r, s);
                            let mut dot = 0.0;
                            for ((o, &gv), &av) in
                                ks.row_mut(r).iter_mut().zip(g.row(r)).zip(kv.row(r))
                            {
                                put(o, gv * w, fresh);
                                dot += gv * av;
                            }
                            gw.set(r, s, dot);
                        }
                    }
                    // Softmax, in place.
                    for r in 0..batch {
                        let dot: f32 = gw
                            .row(r)
                            .iter()
                            .zip(weights.row(r))
                            .map(|(&gv, &yv)| gv * yv)
                            .sum();
                        for (o, &yv) in gw.row_mut(r).iter_mut().zip(weights.row(r)) {
                            *o = (*o - dot) * yv;
                        }
                    }
                    // Scores: the query's term, then the key's, last key first.
                    for s in (0..steps).rev() {
                        let kv = &nodes[keys[s]].value;
                        let (qs, fresh) = grad_slot(grads, pool, query.0, batch, hd);
                        for r in 0..batch {
                            let gr = gw.get(r, s);
                            for (o, &bv) in qs.row_mut(r).iter_mut().zip(kv.row(r)) {
                                put(o, gr * bv, fresh);
                            }
                        }
                        let (ks, fresh) = grad_slot(grads, pool, keys[s], batch, hd);
                        for r in 0..batch {
                            let gr = gw.get(r, s);
                            for (o, &av) in ks.row_mut(r).iter_mut().zip(qv.row(r)) {
                                put(o, gr * av, fresh);
                            }
                        }
                    }
                    pool.put(gw.into_data());
                }
            }
            // `g` is always an owned temporary here (taken or cloned), so its
            // allocation can be recycled regardless of mode.
            pool.put(g.into_data());
        }
    }

    /// Adds the gradients of every `Param` node recorded on this tape into the
    /// matching [`ParamSet`] accumulators.
    pub fn accumulate_param_grads(&self, grads: &[Option<Matrix>], params: &mut ParamSet) {
        for (i, node) in self.nodes.iter().enumerate() {
            if let Op::Param(idx) = node.op {
                if let Some(g) = &grads[i] {
                    params.grad_mut(idx).add_assign(g);
                }
            }
        }
    }
}

/// The gradient slot of node `idx`, created as pooled `rows x cols` zeros
/// when empty. The flag says whether it was just created: a fresh slot takes
/// its first contribution by assignment ([`put`]), the way [`accumulate`]
/// stores a first gradient as is.
fn grad_slot<'g>(
    grads: &'g mut [Option<Matrix>],
    pool: &mut Pool,
    idx: usize,
    rows: usize,
    cols: usize,
) -> (&'g mut Matrix, bool) {
    let fresh = grads[idx].is_none();
    let slot =
        grads[idx].get_or_insert_with(|| Matrix::from_vec(rows, cols, pool.zeros(rows * cols)));
    (slot, fresh)
}

/// One gradient contribution: assigned into a fresh slot, added otherwise.
#[inline(always)]
fn put(o: &mut f32, v: f32, fresh: bool) {
    if fresh {
        *o = v;
    } else {
        *o += v;
    }
}

/// Adds columns `[start, start + len)` of `g` into node `idx`'s gradient:
/// one half of a `[a | b]` concatenation's backward.
fn add_cols(
    grads: &mut [Option<Matrix>],
    pool: &mut Pool,
    g: &Matrix,
    start: usize,
    len: usize,
    idx: usize,
) {
    let (slot, fresh) = grad_slot(grads, pool, idx, g.rows(), len);
    for r in 0..g.rows() {
        for (o, &v) in slot
            .row_mut(r)
            .iter_mut()
            .zip(&g.row(r)[start..start + len])
        {
            put(o, v, fresh);
        }
    }
}

/// Backward of `z = a w + b` given `dz`: adds the bias and then the weight
/// gradient into `b` and `w` (the order of the composite add-row and matmul
/// nodes) and returns `dz w^T`, the gradient of `a`, in a pooled buffer.
fn gemm_backward(
    grads: &mut [Option<Matrix>],
    pool: &mut Pool,
    dz: &Matrix,
    a: &Matrix,
    w_value: &Matrix,
    w: TensorId,
    b: TensorId,
) -> Matrix {
    let mut gb = Matrix::from_vec(1, dz.cols(), pool.zeros(dz.cols()));
    for r in 0..dz.rows() {
        for (o, &v) in gb.row_mut(0).iter_mut().zip(dz.row(r)) {
            *o += v;
        }
    }
    accumulate(grads, pool, b.0, gb);
    let mut g_a = Matrix::from_vec(dz.rows(), a.cols(), pool.zeros(dz.rows() * a.cols()));
    dz.matmul_nt_into(w_value, &mut g_a);
    let mut gw = Matrix::from_vec(a.cols(), dz.cols(), pool.zeros(a.cols() * dz.cols()));
    a.matmul_tn_into(dz, &mut gw);
    accumulate(grads, pool, w.0, gw);
    g_a
}

/// Adds `g` into the gradient slot `idx`, recycling `g`'s buffer when the
/// slot is already populated.
fn accumulate(grads: &mut [Option<Matrix>], pool: &mut Pool, idx: usize, g: Matrix) {
    match &mut grads[idx] {
        Some(existing) => {
            existing.add_assign(&g);
            pool.put(g.into_data());
        }
        slot @ None => *slot = Some(g),
    }
}

/// Finite-difference gradient check: builds the loss with `f` twice per
/// perturbed parameter element and compares against the tape gradient.
#[cfg(test)]
pub(crate) fn grad_check(params: &mut ParamSet, f: impl Fn(&mut Tape, &ParamSet) -> TensorId) {
    let mut tape = Tape::new();
    let loss = f(&mut tape, params);
    let grads = tape.backward(loss);
    params.zero_grads();
    tape.accumulate_param_grads(&grads, params);

    let eps = 1e-2f32;
    for p in 0..params.len() {
        let (rows, cols) = params.value(p).shape();
        for r in 0..rows {
            for c in 0..cols {
                let orig = params.value(p).get(r, c);
                params.value_mut(p).set(r, c, orig + eps);
                let mut t1 = Tape::new();
                let l1 = f(&mut t1, params);
                let up = t1.value(l1).get(0, 0);
                params.value_mut(p).set(r, c, orig - eps);
                let mut t2 = Tape::new();
                let l2 = f(&mut t2, params);
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

/// The loss value and every parameter gradient of the graph `f` builds, as
/// raw bits: the comparison key of the fused-op bit-identity tests.
#[cfg(test)]
pub(crate) fn loss_and_grad_bits(
    params: &ParamSet,
    f: impl Fn(&mut Tape, &ParamSet) -> TensorId,
) -> Vec<u32> {
    let mut p = params.clone();
    p.zero_grads();
    let mut tape = Tape::new();
    let loss = f(&mut tape, &p);
    tape.backward_accumulate(loss, &mut p);
    let mut bits = vec![tape.value(loss).get(0, 0).to_bits()];
    for i in 0..p.len() {
        bits.extend(p.grad(i).data().iter().map(|v| v.to_bits()));
    }
    bits
}

/// Random matrix with entries in `[-2, 2]`, including exact zeros (the old
/// kernels special-cased them) roughly once per sixteen entries.
#[cfg(test)]
pub(crate) fn random_matrix(rows: usize, cols: usize, rng: &mut impl rand::Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.gen_range(0u32..16) == 0 {
            0.0
        } else {
            rng.gen_range(-2.0f32..2.0)
        }
    })
}

/// Largest elementwise absolute difference of two same-shape matrices.
#[cfg(test)]
pub(crate) fn max_abs_diff(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(a.shape(), b.shape());
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gradcheck_matmul_chain() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut params = ParamSet::new();
        let w1 = params.add(Matrix::uniform(3, 4, 0.5, &mut rng));
        let w2 = params.add(Matrix::uniform(4, 2, 0.5, &mut rng));
        let x = Matrix::uniform(2, 3, 0.5, &mut rng);
        grad_check(&mut params, move |t, p| {
            let xi = t.leaf(x.clone());
            let a = t.param(p, w1);
            let b = t.param(p, w2);
            let h = t.matmul(xi, a);
            let h = t.tanh(h);
            let logits = t.matmul(h, b);
            t.cross_entropy(logits, &[0, 1])
        });
    }

    #[test]
    fn gradcheck_gates_and_bias() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut params = ParamSet::new();
        let w = params.add(Matrix::uniform(3, 4, 0.5, &mut rng));
        let b = params.add(Matrix::uniform(1, 4, 0.5, &mut rng));
        let x = Matrix::uniform(2, 3, 0.5, &mut rng);
        grad_check(&mut params, move |t, p| {
            let xi = t.leaf(x.clone());
            let wi = t.param(p, w);
            let bi = t.param(p, b);
            let z = t.matmul(xi, wi);
            let z = t.add_row(z, bi);
            let i = t.slice_cols(z, 0, 2);
            let j = t.slice_cols(z, 2, 2);
            let i = t.sigmoid(i);
            let j = t.tanh(j);
            let h = t.hadamard(i, j);
            t.cross_entropy(h, &[1, 0])
        });
    }

    #[test]
    fn gradcheck_attention_ops() {
        let mut rng = StdRng::seed_from_u64(44);
        let mut params = ParamSet::new();
        let w = params.add(Matrix::uniform(2, 3, 0.5, &mut rng));
        let q = Matrix::uniform(2, 3, 0.5, &mut rng);
        grad_check(&mut params, move |t, p| {
            let wi = t.param(p, w);
            let keys = t.leaf(Matrix::from_vec(2, 3, vec![0.3, -0.2, 0.5, 0.1, 0.4, -0.3]));
            // Project the 2x2 identity through w to get 2x3 "queries".
            let eye = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
            let qs = t.matmul(eye, wi);
            let qfixed = t.leaf(q.clone());
            let qs = t.add(qs, qfixed);
            let s1 = t.row_dot(qs, keys);
            let weights = t.softmax(s1);
            let ctx = t.mul_col(keys, weights);
            let both = t.concat_cols(ctx, qs);
            let both = t.tanh(both);
            let sum = t.slice_cols(both, 0, 2);
            t.cross_entropy(sum, &[0, 1])
        });
    }

    #[test]
    fn gradcheck_gather_embedding() {
        let mut rng = StdRng::seed_from_u64(45);
        let mut params = ParamSet::new();
        let emb = params.add(Matrix::uniform(5, 3, 0.5, &mut rng));
        let proj = params.add(Matrix::uniform(3, 4, 0.5, &mut rng));
        grad_check(&mut params, move |t, p| {
            let e = t.param(p, emb);
            let w = t.param(p, proj);
            let x = t.gather(e, &[1, 3, 1]);
            let logits = t.matmul(x, w);
            t.cross_entropy(logits, &[0, 2, 3])
        });
    }

    #[test]
    fn gradcheck_mean_of_losses() {
        let mut rng = StdRng::seed_from_u64(46);
        let mut params = ParamSet::new();
        let w = params.add(Matrix::uniform(2, 3, 0.5, &mut rng));
        let x = Matrix::uniform(2, 2, 0.5, &mut rng);
        grad_check(&mut params, move |t, p| {
            let wi = t.param(p, w);
            let xi = t.leaf(x.clone());
            let l1_in = t.matmul(xi, wi);
            let l1 = t.cross_entropy(l1_in, &[0, 1]);
            let scaled = t.scale(l1_in, 0.5);
            let l2 = t.cross_entropy(scaled, &[2, 0]);
            t.mean_of(&[l1, l2])
        });
    }

    #[test]
    fn dropout_zero_probability_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut tape = Tape::new();
        let a = tape.leaf(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let b = tape.dropout(a, 0.0, &mut rng);
        assert_eq!(a, b);
    }

    #[test]
    fn dropout_scales_kept_elements() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut tape = Tape::new();
        let a = tape.leaf(Matrix::filled(1, 1000, 1.0));
        let b = tape.dropout(a, 0.5, &mut rng);
        let mean: f32 = tape.value(b).data().iter().sum::<f32>() / 1000.0;
        // Inverted dropout preserves the expectation.
        assert!((mean - 1.0).abs() < 0.15, "mean {mean}");
        for &v in tape.value(b).data() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn clip_grads_caps_norm() {
        let mut params = ParamSet::new();
        let p = params.add(Matrix::zeros(1, 2));
        *params.grad_mut(p) = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        let pre = params.clip_grads(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((params.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let mut tape = Tape::new();
        let logits = tape.leaf(Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        let loss = tape.cross_entropy(logits, &[0]);
        // Uniform distribution over 2 classes => loss = ln 2.
        assert!((tape.value(loss).get(0, 0) - 2.0f32.ln()).abs() < 1e-6);
    }

    /// Small two-layer network used by the arena tests below.
    fn demo_net(tape: &mut Tape, params: &ParamSet, w1: usize, w2: usize, x: &Matrix) -> TensorId {
        let xi = tape.leaf(x.clone());
        let a = tape.param(params, w1);
        let b = tape.param(params, w2);
        let h = tape.matmul(xi, a);
        let h = tape.tanh(h);
        let logits = tape.matmul(h, b);
        tape.cross_entropy(logits, &[0, 1])
    }

    #[test]
    fn backward_accumulate_matches_backward_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut params = ParamSet::new();
        let w1 = params.add(Matrix::uniform(3, 4, 0.5, &mut rng));
        let w2 = params.add(Matrix::uniform(4, 2, 0.5, &mut rng));
        let x = Matrix::uniform(2, 3, 0.5, &mut rng);

        let mut t1 = Tape::new();
        let loss1 = demo_net(&mut t1, &params, w1, w2, &x);
        let grads = t1.backward(loss1);
        let mut via_backward = params.clone();
        via_backward.zero_grads();
        t1.accumulate_param_grads(&grads, &mut via_backward);

        let mut t2 = Tape::new();
        let loss2 = demo_net(&mut t2, &params, w1, w2, &x);
        let mut via_accumulate = params.clone();
        via_accumulate.zero_grads();
        t2.backward_accumulate(loss2, &mut via_accumulate);

        for p in 0..params.len() {
            assert_eq!(via_backward.grad(p), via_accumulate.grad(p), "param {p}");
        }
    }

    #[test]
    fn reset_tape_replays_identically() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut params = ParamSet::new();
        let w1 = params.add(Matrix::uniform(3, 4, 0.5, &mut rng));
        let w2 = params.add(Matrix::uniform(4, 2, 0.5, &mut rng));
        let x = Matrix::uniform(2, 3, 0.5, &mut rng);

        // One long-lived tape with reset between steps must reproduce the
        // fresh-tape-per-step losses and gradients exactly.
        let mut reused = Tape::new();
        for _ in 0..3 {
            let mut fresh = Tape::new();
            let fresh_loss = demo_net(&mut fresh, &params, w1, w2, &x);
            let mut fresh_params = params.clone();
            fresh_params.zero_grads();
            fresh.backward_accumulate(fresh_loss, &mut fresh_params);

            reused.reset();
            let reused_loss = demo_net(&mut reused, &params, w1, w2, &x);
            assert_eq!(fresh.value(fresh_loss), reused.value(reused_loss));
            params.zero_grads();
            reused.backward_accumulate(reused_loss, &mut params);
            for p in 0..params.len() {
                assert_eq!(fresh_params.grad(p), params.grad(p), "param {p}");
            }
        }
    }

    #[test]
    fn concat_rows_forward_and_gradient() {
        let mut params = ParamSet::new();
        let top = params.add(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let bot = params.add(Matrix::from_vec(1, 2, vec![5.0, 6.0]));
        let mut tape = Tape::new();
        let a = tape.param(&params, top);
        let b = tape.param(&params, bot);
        let stacked = tape.concat_rows(a, b);
        assert_eq!(tape.value(stacked).data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // Rows of the 1x3 operand pick out rows of the stack: the loss
        // gradient must split back into the two original parameters.
        let x = tape.leaf(Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]));
        let prod = tape.matmul(x, stacked);
        let loss = tape.cross_entropy(prod, &[0]);
        params.zero_grads();
        tape.backward_accumulate(loss, &mut params);
        assert_eq!(params.grad(top).shape(), (2, 2));
        assert_eq!(params.grad(bot).shape(), (1, 2));
        let g: Vec<f32> = params
            .grad(top)
            .data()
            .iter()
            .chain(params.grad(bot).data())
            .copied()
            .collect();
        assert!(
            g.iter().any(|&v| v != 0.0),
            "gradient should flow through concat_rows"
        );
    }

    #[test]
    #[should_panic(expected = "backward root must be a 1x1 scalar")]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let a = tape.leaf(Matrix::zeros(2, 2));
        let _ = tape.backward(a);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Randomized gradient check: a two-layer network with random shapes and
    /// random activation choices must match finite differences.
    fn check_random_net(seed: u64, b: usize, d_in: usize, d_h: usize, d_out: usize, act: u8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let w1 = params.add(Matrix::uniform(d_in, d_h, 0.5, &mut rng));
        let b1 = params.add(Matrix::uniform(1, d_h, 0.5, &mut rng));
        let w2 = params.add(Matrix::uniform(d_h, d_out, 0.5, &mut rng));
        let x = Matrix::uniform(b, d_in, 0.5, &mut rng);
        let targets: Vec<usize> = (0..b).map(|i| i % d_out).collect();

        let forward = |tape: &mut Tape, params: &ParamSet| {
            let xi = tape.leaf(x.clone());
            let w1i = tape.param(params, w1);
            let b1i = tape.param(params, b1);
            let w2i = tape.param(params, w2);
            let h = tape.matmul(xi, w1i);
            let h = tape.add_row(h, b1i);
            let h = match act {
                0 => tape.tanh(h),
                1 => tape.sigmoid(h),
                _ => {
                    // Softmax keeps values in the interior, so finite
                    // differences stay valid.
                    tape.softmax(h)
                }
            };
            let logits = tape.matmul(h, w2i);
            tape.cross_entropy(logits, &targets)
        };

        let mut tape = Tape::new();
        let loss = forward(&mut tape, &params);
        let grads = tape.backward(loss);
        params.zero_grads();
        tape.accumulate_param_grads(&grads, &mut params);

        let eps = 1e-2f32;
        for p in 0..params.len() {
            let (rows, cols) = params.value(p).shape();
            // Spot-check a handful of coordinates to keep runtime bounded.
            for (r, c) in [(0, 0), (rows - 1, cols - 1), (rows / 2, cols / 2)] {
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
                    (numeric - analytic).abs() / denom < 6e-2,
                    "seed {seed} act {act} param {p} ({r},{c}): numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    /// Attention as the composite graph the fused op replaced: one row-dot
    /// per key, concatenated, softmax, then a slice, mul-col and add per key.
    fn attention_composite(tape: &mut Tape, query: TensorId, keys: &[TensorId]) -> TensorId {
        let score_cols: Vec<TensorId> = keys.iter().map(|&k| tape.row_dot(query, k)).collect();
        let mut scores = score_cols[0];
        for &c in &score_cols[1..] {
            scores = tape.concat_cols(scores, c);
        }
        let weights = tape.softmax(scores);
        let mut context: Option<TensorId> = None;
        for (s, &k) in keys.iter().enumerate() {
            let w_col = tape.slice_cols(weights, s, 1);
            let part = tape.mul_col(k, w_col);
            context = Some(match context {
                Some(acc) => tape.add(acc, part),
                None => part,
            });
        }
        context.expect("at least one key")
    }

    /// Two decoder-like steps attending over shared keys: each query also
    /// feeds the output through `[context | query]`, and the first key is
    /// read once more on its own, so the query and key gradients arrive
    /// from several consumers, as in a seq2seq decoder.
    fn attention_loss(
        tape: &mut Tape,
        params: &ParamSet,
        queries: &[usize],
        keys: &[usize],
        w_out: usize,
        targets: &[usize],
        fused: bool,
    ) -> TensorId {
        let keys: Vec<TensorId> = keys.iter().map(|&k| tape.param(params, k)).collect();
        let w = tape.param(params, w_out);
        let mut losses = Vec::new();
        for &q in queries {
            let q = tape.param(params, q);
            let ctx = if fused {
                tape.attention(q, &keys)
            } else {
                attention_composite(tape, q, &keys)
            };
            let cat = tape.concat_cols(ctx, q);
            let logits = tape.matmul(cat, w);
            losses.push(tape.cross_entropy(logits, targets));
        }
        let head = tape.concat_cols(keys[0], keys[0]);
        let logits = tape.matmul(head, w);
        losses.push(tape.cross_entropy(logits, targets));
        tape.mean_of(&losses)
    }

    /// Random queries (two), keys, output weights and targets.
    #[allow(clippy::type_complexity)]
    fn attention_case(
        seed: u64,
        batch: usize,
        hidden: usize,
        steps: usize,
    ) -> (ParamSet, Vec<usize>, Vec<usize>, usize, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let queries = (0..2)
            .map(|_| params.add(Matrix::uniform(batch, hidden, 1.0, &mut rng)))
            .collect();
        let keys = (0..steps)
            .map(|_| params.add(Matrix::uniform(batch, hidden, 1.0, &mut rng)))
            .collect();
        let w_out = params.add(Matrix::uniform(2 * hidden, 3, 0.5, &mut rng));
        let targets = (0..batch).map(|b| b % 3).collect();
        (params, queries, keys, w_out, targets)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The fused attention op's loss and every gradient are bit-identical
        /// to the composite graph's.
        #[test]
        fn attention_op_is_bit_identical_to_composite(
            seed in 0u64..1 << 32, batch in 1usize..=5, hidden in 1usize..=6, steps in 1usize..=6,
        ) {
            let (params, queries, keys, w_out, targets) = attention_case(seed, batch, hidden, steps);
            let run = |fused| loss_and_grad_bits(&params, |t, p| {
                attention_loss(t, p, &queries, &keys, w_out, &targets, fused)
            });
            prop_assert_eq!(run(true), run(false));
        }

        /// Finite-difference check of the fused attention op, including a
        /// batch of one, a single key and one hidden unit.
        #[test]
        fn gradcheck_attention_op(
            seed in 0u64..1 << 32, batch in 1usize..=3, hidden in 1usize..=3, steps in 1usize..=3,
        ) {
            let (mut params, queries, keys, w_out, targets) = attention_case(seed, batch, hidden, steps);
            grad_check(&mut params, |t, p| {
                attention_loss(t, p, &queries, &keys, w_out, &targets, true)
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn gradcheck_random_networks(
            seed in 0u64..10_000,
            b in 1usize..4,
            d_in in 2usize..5,
            d_h in 2usize..6,
            d_out in 2usize..5,
            act in 0u8..3,
        ) {
            check_random_net(seed, b, d_in, d_h, d_out, act);
        }
    }
}
