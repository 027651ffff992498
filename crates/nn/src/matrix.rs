//! Dense row-major `f32` matrix used throughout the neural substrate.
//!
//! The matrix is deliberately minimal: it supports exactly the operations the
//! autodiff tape ([`crate::tape`]) and the sequence models need, with shape
//! checks on every binary operation. All storage is a flat `Vec<f32>` in
//! row-major order.

use rand::Rng;
use serde::{Content, DeError, Deserialize, Serialize, Tensor};

/// A dense row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use mdes_nn::Matrix;
/// let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(m.get(1, 0), 3.0);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Serialize for Matrix {
    /// `{rows, cols, data}`, with `data` one packed [`Tensor`] node: JSON
    /// renders it as the same float array as before, and binary artifacts
    /// lift it out as a raw little-endian section.
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("rows".to_owned(), self.rows.to_content()),
            ("cols".to_owned(), self.cols.to_content()),
            (
                "data".to_owned(),
                Tensor::from_f32(vec![self.rows, self.cols], &self.data).into(),
            ),
        ])
    }
}

impl Deserialize for Matrix {
    /// Hand-written so the shape is *validated* against the payload: a
    /// crafted or corrupted artifact whose `data` disagrees with
    /// `rows x cols` (length, tensor shape or element type) is rejected
    /// here instead of panicking later inside a kernel's row indexing.
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let rows: usize = serde::__field(content, "rows")?;
        let cols: usize = serde::__field(content, "cols")?;
        let data = tensor_field(content, "data", &[rows, cols], Tensor::to_f32)?;
        Ok(Matrix { rows, cols, data })
    }
}

/// Reads the numeric array under `key`, expected to hold a tensor of
/// `shape`: either a packed [`Content::Tensor`] (decoded with `unpack`,
/// which answers `None` for the wrong element type) or — from JSON and from
/// artifacts that predate packed tensors — a plain array with exactly as
/// many elements.
pub(crate) fn tensor_field<T: Deserialize>(
    content: &Content,
    key: &str,
    shape: &[usize],
    unpack: impl Fn(&Tensor) -> Option<Vec<T>>,
) -> Result<Vec<T>, DeError> {
    let Content::Map(entries) = content else {
        return Err(DeError::mismatch("object", content));
    };
    let value = entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError::missing_field(key))?;
    let dims = shape
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("x");
    let elems = shape
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| DeError::custom(format!("`{key}` shape {dims} overflows")))?;
    let values = match value {
        Content::Tensor(t) => {
            if t.shape() != shape {
                return Err(DeError::custom(format!(
                    "`{key}` tensor has shape {:?}, expected {dims}",
                    t.shape()
                )));
            }
            unpack(t).ok_or_else(|| {
                DeError::custom(format!(
                    "`{key}` tensor has element type {}",
                    t.dtype().name()
                ))
            })?
        }
        other => Vec::<T>::from_content(other)?,
    };
    if values.len() != elems {
        return Err(DeError::custom(format!(
            "`{key}` of shape {dims} carries {} values",
            values.len()
        )));
    }
    Ok(values)
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix with elements drawn uniformly from `[-limit, limit]`.
    pub fn uniform(rows: usize, cols: usize, limit: f32, rng: &mut impl Rng) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.gen_range(-limit..=limit))
    }

    /// Creates a matrix with Xavier/Glorot-uniform initialization for a layer
    /// mapping `rows` inputs to `cols` outputs.
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        Self::uniform(rows, cols, limit, rng)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its flat row-major storage, letting
    /// callers (the tape's buffer pool) recycle the allocation.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Returns element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * other`.
    ///
    /// Uses register tiles (four output rows by sixteen columns, and tiles
    /// of their own height for the last one to three rows) with unrolled,
    /// branch-free inner loops that the compiler can vectorize. Build with
    /// `--features reference-kernels` to route through the original naive
    /// loops in [`crate::reference`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        if cfg!(feature = "reference-kernels") {
            return crate::reference::matmul(self, other);
        }
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        fast_matmul(self, other)
    }

    /// Computes `self^T * other` without materializing the transpose.
    ///
    /// Accumulates four shared rows per pass (rank-4 update) so each output
    /// row is loaded and stored once per four `k` steps instead of once per
    /// step. Build with `--features reference-kernels` for the naive loops.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        if cfg!(feature = "reference-kernels") {
            return crate::reference::matmul_tn(self, other);
        }
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        fast_matmul_tn(self, other)
    }

    /// Computes `self * other^T` without materializing the transpose.
    ///
    /// Computes a 4×4 tile of dot products per pass: sixteen independent
    /// accumulator chains hide the floating-point add latency while each chain
    /// still sums strictly in ascending shared-index order, so the result is
    /// identical to the naive loops. Build with `--features reference-kernels`
    /// for the naive loops.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        if cfg!(feature = "reference-kernels") {
            return crate::reference::matmul_nt(self, other);
        }
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        fast_matmul_nt(self, other)
    }

    /// Computes `self * other` into an existing output matrix, reusing its
    /// allocation. `out` must already have shape `self.rows x other.cols`.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul_into output shape mismatch"
        );
        if cfg!(feature = "reference-kernels") {
            *out = crate::reference::matmul(self, other);
            return;
        }
        gemm_nn(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
    }

    /// Computes `self^T * other` into an existing output matrix.
    /// `out` must already have shape `self.cols x other.cols`.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.cols, other.cols),
            "matmul_tn_into output shape mismatch"
        );
        if cfg!(feature = "reference-kernels") {
            *out = crate::reference::matmul_tn(self, other);
            return;
        }
        out.data.fill(0.0);
        gemm_tn(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
    }

    /// Computes `self * other^T` into an existing output matrix.
    /// `out` must already have shape `self.rows x other.rows`.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "matmul_nt_into output shape mismatch"
        );
        if cfg!(feature = "reference-kernels") {
            *out = crate::reference::matmul_nt(self, other);
            return;
        }
        gemm_nt(
            self.rows,
            self.cols,
            other.rows,
            &self.data,
            &other.data,
            &mut out.data,
        );
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Element-wise addition in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Element-wise subtraction in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "sub_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_assign(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Returns `self + other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Returns element-wise product `self ⊙ other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Squared Frobenius norm (sum of squared elements).
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Index of the maximum element of row `r` (first occurrence on ties).
    ///
    /// # Panics
    ///
    /// Panics if the matrix has zero columns or `r` is out of bounds.
    pub fn argmax_row(&self, r: usize) -> usize {
        assert!(self.cols > 0, "argmax_row on matrix with zero columns");
        let row = self.row(r);
        let mut best = 0;
        let mut best_v = row[0];
        for (i, &v) in row.iter().enumerate().skip(1) {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        best
    }

    /// Row-wise softmax, returning a new matrix whose rows sum to one.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Blocked GEMM kernels
// ---------------------------------------------------------------------------
//
// All three kernels preserve the reference implementations' per-element
// accumulation order: every output element is the sum of its products in
// strictly ascending shared-index order, and dropping the `== 0.0` skip is
// exact for finite inputs (`x + 0.0 * y == x`). The speedup comes from
// register blocking (a 4-row × 16-column accumulator tile lives in registers
// across the whole shared dimension; in `a * b`, the one to three rows a
// decode batch leaves over get tiles of their own height), branch-free
// unrolled inner loops the compiler can keep vectorized, and — for the `nt`
// case, where a true dot product cannot be vectorized without reassociating
// — sixteen independent scalar chains that hide the floating-point add
// latency.

/// Output rows held in registers per micro-kernel pass.
const MR: usize = 4;
/// Output columns held in registers per micro-kernel pass.
const NR: usize = 16;

fn fast_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.cols);
    gemm_nn(a.rows, a.cols, b.cols, &a.data, &b.data, &mut out.data);
    out
}

fn fast_matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols, b.cols);
    gemm_tn(a.rows, a.cols, b.cols, &a.data, &b.data, &mut out.data);
    out
}

fn fast_matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.rows);
    gemm_nt(a.rows, a.cols, b.rows, &a.data, &b.data, &mut out.data);
    out
}

/// `out = a * b` where `a` is `m x k`, `b` is `k x n`, `out` is `m x n`.
/// Dispatches to an AVX2-compiled clone of the kernel when the CPU
/// supports it.
fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check; the function has no
        // other preconditions.
        return unsafe { avx2::gemm_nn(m, k, n, a, b, out) };
    }
    kernel_nn(m, k, n, a, b, out);
}

/// `out += a^T * b` — see [`kernel_tn`]; dispatches like [`gemm_nn`].
fn gemm_tn(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check; the function has no
        // other preconditions.
        return unsafe { avx2::gemm_tn(k, m, n, a, b, out) };
    }
    kernel_tn(k, m, n, a, b, out);
}

/// `out = a * b^T` — see [`kernel_nt`]; dispatches like [`gemm_nn`].
fn gemm_nt(m: usize, c: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check; the function has no
        // other preconditions.
        return unsafe { avx2::gemm_nt(m, c, n, a, b, out) };
    }
    kernel_nt(m, c, n, a, b, out);
}

/// Clones of the scalar kernels compiled with AVX2 enabled, so the
/// autovectorizer emits 256-bit `vmulps`/`vaddps` for the unrolled tile
/// loops. Rust never contracts `mul` + `add` into FMA, and vector lanes map
/// to distinct output elements, so each element is still accumulated in
/// ascending shared-index order with one rounding per product and per sum —
/// results remain bit-identical to the reference loops.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{kernel_nn, kernel_nt, kernel_tn};

    #[target_feature(enable = "avx2")]
    pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        kernel_nn(m, k, n, a, b, out);
    }

    #[target_feature(enable = "avx2")]
    pub fn gemm_tn(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        kernel_tn(k, m, n, a, b, out);
    }

    #[target_feature(enable = "avx2")]
    pub fn gemm_nt(m: usize, c: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        kernel_nt(m, c, n, a, b, out);
    }

    #[target_feature(enable = "avx2")]
    pub fn sigmoid_slice(src: &[f32], dst: &mut [f32]) {
        super::sigmoid_kernel(src, dst);
    }

    #[target_feature(enable = "avx2")]
    pub fn tanh_slice(src: &[f32], dst: &mut [f32]) {
        super::tanh_kernel(src, dst);
    }
}

/// Element-wise logistic sigmoid of `src` into `dst`.
///
/// The fast path evaluates `1 / (1 + e^-x)` with the polynomial
/// [`exp_approx`], eight lanes per AVX2 instruction when the host has it;
/// it stays within `1e-6` of libm (pinned by `tests/parity.rs`). Build with
/// `--features reference-kernels` to route through the libm-exact
/// [`crate::reference::sigmoid_slice`] instead.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn sigmoid_slice(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "sigmoid_slice length mismatch");
    if cfg!(feature = "reference-kernels") {
        return crate::reference::sigmoid_slice(src, dst);
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check; the function has no
        // other preconditions.
        return unsafe { avx2::sigmoid_slice(src, dst) };
    }
    sigmoid_kernel(src, dst);
}

/// Element-wise hyperbolic tangent of `src` into `dst`.
///
/// Fast path: `tanh x = (e^2x - 1) / (e^2x + 1)` on the polynomial
/// [`exp_approx`], absolute error below `1e-6` (worst near saturation).
/// Build with `--features reference-kernels` for libm
/// [`crate::reference::tanh_slice`].
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn tanh_slice(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "tanh_slice length mismatch");
    if cfg!(feature = "reference-kernels") {
        return crate::reference::tanh_slice(src, dst);
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check; the function has no
        // other preconditions.
        return unsafe { avx2::tanh_slice(src, dst) };
    }
    tanh_kernel(src, dst);
}

/// Sigmoid body shared by every dispatch tier; see [`sigmoid_slice`].
#[inline(always)]
pub(crate) fn sigmoid_kernel(src: &[f32], dst: &mut [f32]) {
    for (o, &x) in dst.iter_mut().zip(src) {
        *o = 1.0 / (1.0 + exp_approx(-x));
    }
}

/// Tanh body shared by every dispatch tier; see [`tanh_slice`].
#[inline(always)]
pub(crate) fn tanh_kernel(src: &[f32], dst: &mut [f32]) {
    for (o, &x) in dst.iter_mut().zip(src) {
        // Clamp the doubled argument so `t` stays finite: beyond |x| = 8.5
        // f32 tanh is within one ulp of +/-1 anyway.
        let t = exp_approx((2.0 * x).clamp(-17.0, 17.0));
        *o = (t - 1.0) / (t + 1.0);
    }
}

/// Branch-free polynomial `e^x` (the Cephes `expf` scheme): split
/// `x = n ln 2 + r`, evaluate a degree-6 polynomial on `r` and scale by
/// `2^n` through exponent bits. Maximum relative error is about `2e-7`
/// over the clamped range. Every operation is one vector instruction
/// (clamp, multiply, add, round-down, integer add and shift), so the
/// activation loops run whole in vector registers; every lane computes an
/// independent element with the same operations, so scalar and vector
/// evaluation produce identical bits.
#[inline(always)]
#[allow(clippy::excessive_precision)]
fn exp_approx(x: f32) -> f32 {
    // High/low split of ln 2 keeps the range reduction exact in f32.
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5 * 2^23: adding it to an integral float below 2^22 in magnitude
    // leaves that integer, two's complement, in the low mantissa bits.
    const MAGIC: f32 = 12_582_912.0;
    let x = x.clamp(-87.3, 88.7);
    let n = (x * std::f32::consts::LOG2_E + 0.5).floor();
    let r = x - n * LN2_HI - n * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 0.5;
    let p = p * (r * r) + r + 1.0;
    // 2^n assembled directly in the exponent field; n is in [-126, 128]
    // after the clamp (n = 128 overflows to +inf, matching exp overflow).
    // The magic add reads n out exactly, in one vector add. A saturating
    // `n as i32` has no AVX2 instruction and compiles to a scalar convert,
    // two compares and two selects per lane. For a NaN `x`, `p` is NaN
    // and the product below keeps `p`'s NaN whatever `scale` is.
    let n_bits = (n + MAGIC).to_bits().wrapping_sub(MAGIC.to_bits());
    let scale = f32::from_bits(n_bits.wrapping_add(127) << 23);
    p * scale
}

/// `out = a * b` where `a` is `m x k`, `b` is `k x n`, `out` is `m x n`.
/// Every output element is written exactly once, from a register tile, so
/// `out` need not be zeroed. Full four-row panels come first; the last one
/// to three rows (every row of a decode batch below four) get a tile of
/// their own height instead of a rank-1 loop over the whole output row.
/// `inline(always)` so the body inlines into the AVX2-attributed wrappers
/// above and gets vectorized with their features.
#[inline(always)]
fn kernel_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let mut i = 0;
    while i + MR <= m {
        panel_nn::<MR, NR>(i, k, n, a, b, out);
        i += MR;
    }
    // One- and two-row tails hold as many accumulators as a four-row tile
    // by widening the tile instead.
    match m - i {
        3 => panel_nn::<3, NR>(i, k, n, a, b, out),
        2 => panel_nn::<2, { 2 * NR }>(i, k, n, a, b, out),
        1 => panel_nn::<1, { 4 * NR }>(i, k, n, a, b, out),
        _ => {}
    }
}

/// Rows `i..i + R` of [`kernel_nn`]: `C`-wide register tiles across the
/// columns, then the narrow column tail in halving widths down to 4 and
/// single columns.
#[inline(always)]
fn panel_nn<const R: usize, const C: usize>(
    i: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let mut j = 0;
    while j + C <= n {
        tile_nn::<R, C>(i, j, k, n, a, b, out);
        j += C;
    }
    if C > 32 && j + 32 <= n {
        tile_nn::<R, 32>(i, j, k, n, a, b, out);
        j += 32;
    }
    if C > 16 && j + 16 <= n {
        tile_nn::<R, 16>(i, j, k, n, a, b, out);
        j += 16;
    }
    if C > 8 && j + 8 <= n {
        tile_nn::<R, 8>(i, j, k, n, a, b, out);
        j += 8;
    }
    if C > 4 && j + 4 <= n {
        tile_nn::<R, 4>(i, j, k, n, a, b, out);
        j += 4;
    }
    while j < n {
        tile_nn::<R, 1>(i, j, k, n, a, b, out);
        j += 1;
    }
}

/// One `R x C` output tile at `(i, j)`, accumulated in registers across the
/// whole shared dimension in ascending `p` and stored once.
#[inline(always)]
fn tile_nn<const R: usize, const C: usize>(
    i: usize,
    j: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
    let mut acc = [[0.0f32; C]; R];
    for p in 0..k {
        let bp = &b[p * n + j..p * n + j + C];
        for (acc_r, a_r) in acc.iter_mut().zip(&a_rows) {
            let a_rp = a_r[p];
            for (av, &bv) in acc_r.iter_mut().zip(bp) {
                *av += a_rp * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out[(i + r) * n + j..(i + r) * n + j + C].copy_from_slice(acc_r);
    }
}

/// `out += a^T * b` where `a` is `k x m`, `b` is `k x n`, `out` is `m x n`
/// (zeroed by the caller).
#[inline(always)]
fn kernel_tn(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let mut i = 0;
    while i + MR <= m {
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [[0.0f32; NR]; MR];
            for p in 0..k {
                // The four `a` scalars for this tile are contiguous in memory.
                let ap = &a[p * m + i..p * m + i + MR];
                let bp = &b[p * n + j..p * n + j + NR];
                for (acc_r, &a_rp) in acc.iter_mut().zip(ap) {
                    for (av, &bv) in acc_r.iter_mut().zip(bp) {
                        *av += a_rp * bv;
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(acc_r);
            }
            j += NR;
        }
        if j < n {
            for p in 0..k {
                let bp = &b[p * n + j..(p + 1) * n];
                for r in 0..MR {
                    let a_rp = a[p * m + i + r];
                    let or = &mut out[(i + r) * n + j..(i + r + 1) * n];
                    for (o, &bv) in or.iter_mut().zip(bp) {
                        *o += a_rp * bv;
                    }
                }
            }
        }
        i += MR;
    }
    while i < m {
        for p in 0..k {
            let a_ip = a[p * m + i];
            let bp = &b[p * n..(p + 1) * n];
            let or = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in or.iter_mut().zip(bp) {
                *o += a_ip * bv;
            }
        }
        i += 1;
    }
}

/// `out = a * b^T` where `a` is `m x c`, `b` is `n x c`, `out` is `m x n`.
/// Every output element is written exactly once, so `out` need not be zeroed.
#[inline(always)]
fn kernel_nt(m: usize, c: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    /// Square tile edge: 16 concurrent dot-product chains.
    const DR: usize = 4;
    let mut i = 0;
    while i + DR <= m {
        let mut j = 0;
        while j + DR <= n {
            let mut acc = [[0.0f32; DR]; DR];
            for p in 0..c {
                let mut bvals = [0.0f32; DR];
                for (s, bv) in bvals.iter_mut().enumerate() {
                    *bv = b[(j + s) * c + p];
                }
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let av = a[(i + r) * c + p];
                    for (ac, &bv) in acc_r.iter_mut().zip(&bvals) {
                        *ac += av * bv;
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + j + DR].copy_from_slice(acc_r);
            }
            j += DR;
        }
        for jj in j..n {
            let brow = &b[jj * c..(jj + 1) * c];
            for r in 0..DR {
                out[(i + r) * n + jj] = dot(&a[(i + r) * c..(i + r + 1) * c], brow);
            }
        }
        i += DR;
    }
    while i < m {
        let arow = &a[i * c..(i + 1) * c];
        for jj in 0..n {
            out[i * n + jj] = dot(arow, &b[jj * c..(jj + 1) * c]);
        }
        i += 1;
    }
}

/// Scalar dot product in strict left-to-right order (matches the reference).
#[inline(always)]
fn dot(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&a, &b) in x.iter().zip(y) {
        acc += a * b;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::uniform(4, 3, 1.0, &mut rng);
        let b = Matrix::uniform(4, 5, 1.0, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = Matrix::uniform(4, 3, 1.0, &mut rng);
        let b = Matrix::uniform(5, 3, 1.0, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Matrix::uniform(3, 5, 2.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn hadamard_and_add() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Larger logits get larger probabilities.
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn argmax_row_picks_max() {
        let a = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.5, 3.0, 2.0, 1.0]);
        assert_eq!(a.argmax_row(0), 1);
        assert_eq!(a.argmax_row(1), 0);
    }

    #[test]
    fn fast_kernels_bit_identical_to_reference_on_odd_shapes() {
        let mut rng = StdRng::seed_from_u64(42);
        // Shapes straddling the tile boundaries, plus degenerate ones: every
        // row count from one to two full four-row panels plus a tail, at
        // widths around the 4-, 8-, 16-, 32- and 64-column tiles.
        let mut shapes = vec![
            (1, 1, 1),
            (3, 5, 7),
            (4, 4, 16),
            (5, 17, 19),
            (8, 2, 33),
            (0, 3, 4),
            (6, 0, 5),
        ];
        for m in 1..=9 {
            for n in [
                1, 3, 4, 5, 8, 12, 15, 16, 17, 24, 31, 32, 33, 47, 63, 64, 65, 100,
            ] {
                shapes.push((m, 64, n));
            }
        }
        for &(m, k, n) in &shapes {
            let a = Matrix::uniform(m, k, 1.0, &mut rng);
            let b = Matrix::uniform(k, n, 1.0, &mut rng);
            assert_eq!(
                a.matmul(&b),
                crate::reference::matmul(&a, &b),
                "{m}x{k}x{n}"
            );
            let at = Matrix::uniform(k, m, 1.0, &mut rng);
            assert_eq!(
                at.matmul_tn(&b),
                crate::reference::matmul_tn(&at, &b),
                "{m}x{k}x{n} tn"
            );
            let bt = Matrix::uniform(n, k, 1.0, &mut rng);
            assert_eq!(
                a.matmul_nt(&bt),
                crate::reference::matmul_nt(&a, &bt),
                "{m}x{k}x{n} nt"
            );
        }
    }

    #[test]
    fn matmul_is_batch_invariant() {
        // Row r of a batch product must carry the same bits as row r
        // multiplied alone: a window decodes to the same scores whichever
        // sessions share its decode batch.
        let mut rng = StdRng::seed_from_u64(12);
        for n in [8, 24, 32, 100, 128] {
            let w = Matrix::uniform(64, n, 1.0, &mut rng);
            for m in 1..=9 {
                let a = Matrix::uniform(m, 64, 1.0, &mut rng);
                let mut batch = Matrix::zeros(m, n);
                a.matmul_into(&w, &mut batch);
                for r in 0..m {
                    let single = Matrix::from_vec(1, 64, a.row(r).to_vec());
                    let mut alone = Matrix::zeros(1, n);
                    single.matmul_into(&w, &mut alone);
                    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(alone.row(0)), bits(batch.row(r)), "{m}x64x{n} row {r}");
                }
            }
        }
    }

    /// The activation formulas as first written, with the saturating
    /// `n as i32` exponent: the oracle the vectorizable kernels must match
    /// bit for bit.
    #[allow(clippy::excessive_precision)]
    fn exp_oracle(x: f32) -> f32 {
        const LN2_HI: f32 = 0.693_359_375;
        const LN2_LO: f32 = -2.121_944_4e-4;
        let x = x.clamp(-87.3, 88.7);
        let n = (x * std::f32::consts::LOG2_E + 0.5).floor();
        let r = x - n * LN2_HI - n * LN2_LO;
        let mut p = 1.987_569_1e-4;
        p = p * r + 1.398_199_9e-3;
        p = p * r + 8.333_452e-3;
        p = p * r + 4.166_579_6e-2;
        p = p * r + 1.666_666_6e-1;
        p = p * r + 0.5;
        let p = p * (r * r) + r + 1.0;
        let scale = f32::from_bits(((n as i32 + 127) << 23) as u32);
        p * scale
    }

    fn sigmoid_oracle(x: f32) -> f32 {
        1.0 / (1.0 + exp_oracle(-x))
    }

    fn tanh_oracle(x: f32) -> f32 {
        let t = exp_oracle((2.0 * x).clamp(-17.0, 17.0));
        (t - 1.0) / (t + 1.0)
    }

    /// Every 256th f32 bit pattern, plus the values where the formulas
    /// change regime: signed zeros, infinities, NaNs with several payloads,
    /// subnormals, the `exp` and `tanh` clamp edges and their neighbours.
    fn activation_probe_values() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=u32::MAX >> 8)
            .map(|i| f32::from_bits(i << 8))
            .collect();
        let next = |x: f32, d: i32| f32::from_bits((x.to_bits() as i32 + d) as u32);
        for edge in [87.3f32, 88.7, 8.5, 17.0] {
            for x in [edge, -edge] {
                xs.extend([next(x, -1), x, next(x, 1)]);
            }
        }
        xs.extend([
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0x7fc0_01ff),
            f32::from_bits(0xffc0_0100),
            f32::from_bits(0x7f80_0001),
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0x807f_ffff),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ]);
        xs
    }

    fn assert_bits_match(name: &str, xs: &[f32], got: &[f32], want: impl Fn(f32) -> f32) {
        for (&x, &g) in xs.iter().zip(got) {
            let w = want(x);
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{name}({x:e} = {:#010x}): {g:e} vs oracle {w:e}",
                x.to_bits()
            );
        }
    }

    #[test]
    fn activations_bit_identical_to_scalar_oracle() {
        let xs = activation_probe_values();
        let exp: Vec<f32> = xs.iter().map(|&x| exp_approx(x)).collect();
        assert_bits_match("exp_approx", &xs, &exp, exp_oracle);
        let mut out = vec![0.0f32; xs.len()];
        sigmoid_kernel(&xs, &mut out);
        assert_bits_match("sigmoid", &xs, &out, sigmoid_oracle);
        tanh_kernel(&xs, &mut out);
        assert_bits_match("tanh", &xs, &out, tanh_oracle);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 check.
            unsafe { avx2::sigmoid_slice(&xs, &mut out) };
            assert_bits_match("sigmoid avx2", &xs, &out, sigmoid_oracle);
            // SAFETY: as above.
            unsafe { avx2::tanh_slice(&xs, &mut out) };
            assert_bits_match("tanh avx2", &xs, &out, tanh_oracle);
        }
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Matrix::uniform(5, 7, 1.0, &mut rng);
        let b = Matrix::uniform(7, 9, 1.0, &mut rng);
        let mut out = Matrix::filled(5, 9, f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        let mut out_tn = Matrix::filled(7, 9, f32::NAN);
        let at = Matrix::uniform(5, 7, 1.0, &mut rng);
        let bt = Matrix::uniform(5, 9, 1.0, &mut rng);
        at.matmul_tn_into(&bt, &mut out_tn);
        assert_eq!(out_tn, at.matmul_tn(&bt));
        let mut out_nt = Matrix::filled(5, 5, f32::NAN);
        let c = Matrix::uniform(5, 7, 1.0, &mut rng);
        a.matmul_nt_into(&c, &mut out_nt);
        assert_eq!(out_nt, a.matmul_nt(&c));
    }

    #[test]
    fn deserialize_validates_shape_against_payload() {
        let m = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let c = m.to_content();
        assert_eq!(Matrix::from_content(&c).expect("roundtrip"), m);
        let lying = Content::Map(vec![
            ("rows".to_owned(), 2usize.to_content()),
            ("cols".to_owned(), 3usize.to_content()),
            ("data".to_owned(), vec![1.0f32; 4].to_content()),
        ]);
        let err = Matrix::from_content(&lying).expect_err("short payload");
        assert!(err.to_string().contains("2x3"));
        // A packed tensor must agree with the declared shape and be f32.
        let with_data = |data: Tensor| {
            Content::Map(vec![
                ("rows".to_owned(), 2usize.to_content()),
                ("cols".to_owned(), 3usize.to_content()),
                ("data".to_owned(), data.into()),
            ])
        };
        let transposed = with_data(Tensor::from_f32(vec![3, 2], &[1.0; 6]));
        assert!(Matrix::from_content(&transposed).is_err());
        let wrong_type = with_data(Tensor::from_i8(vec![2, 3], &[1; 6]));
        assert!(Matrix::from_content(&wrong_type).is_err());
        // Legacy float arrays still deserialize.
        let legacy = Content::Map(vec![
            ("rows".to_owned(), 2usize.to_content()),
            ("cols".to_owned(), 3usize.to_content()),
            ("data".to_owned(), vec![1.0f32; 6].to_content()),
        ]);
        assert_eq!(Matrix::from_content(&legacy).expect("legacy"), m);
    }

    #[test]
    fn xavier_within_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::xavier(10, 20, &mut rng);
        let limit = (6.0f32 / 30.0).sqrt();
        assert!(m.data().iter().all(|&x| x.abs() <= limit + 1e-6));
    }
}
