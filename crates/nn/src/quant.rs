//! Quantized weight storage and the quantized GEMM kernel family.
//!
//! The f32 fast kernels in [`crate::matrix`] are pinned bit-identical to
//! [`crate::reference`]; quantized inference deliberately is **not**. A
//! [`QMatrix`] stores a weight operand in one of three encodings —
//!
//! * [`QMatrix::F32`]: the plain [`Matrix`], byte- and bit-compatible with
//!   every artifact produced before quantization existed;
//! * [`QMatrix::F16`]: IEEE 754 binary16 bits in a `Vec<u16>` (half the
//!   bytes, ≤ 2^-11 relative rounding error per weight);
//! * [`QMatrix::Int8`]: symmetric per-row-scale int8 (`q = round(x / s)`,
//!   `s = max_abs(row) / 127`), a quarter of the bytes with an absolute
//!   error of at most `s / 2` per weight
//!
//! — and [`Matrix::matmul_q_into`] multiplies an f32 activation against any
//! of them. The F32 arm routes through the bit-identity-pinned
//! [`Matrix::matmul_into`]; the F16/Int8 arms use dedicated kernels that
//! dequantize weight tiles on load (one scale broadcast per packed row) into
//! a wider 4×32 register tile, and extend the runtime dispatch with an
//! AVX2+FMA tier (`mul_add` contracts to hardware FMA only inside the
//! `#[target_feature(enable = "avx2,fma")]` clone; the f32 path keeps FMA
//! off because contraction would break bit parity with the reference loops,
//! as documented in `crate::matrix`).
//!
//! Accuracy is governed by the drift harness instead of bit parity:
//! `crates/nn/tests/quant_parity.rs` proptests reconstruction error against
//! the analytic bounds above and quantized GEMM output against an
//! elementwise error budget, and the serving layer
//! (`mdes_core::serve::GraphSnapshot::quantize`) refuses to publish an
//! artifact whose measured score drift exceeds its declared bound.
//!
//! Every output element is still accumulated in strictly ascending
//! shared-index order with a per-element chain that never depends on the
//! batch size, so quantized decode — like f32 decode — is invariant to how
//! windows are batched. Cross-session batching in `push_opt_many` relies on
//! this.

use crate::matrix::Matrix;
use crate::NnError;
use serde::{tensor_field, Content, DeError, Deserialize, Serialize, Tensor};

/// Weight encoding of a frozen artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuantMode {
    /// Full-precision f32 weights (the only mode before MDSN v2).
    F32,
    /// IEEE binary16 weights: 2 bytes/weight, ≤ 2^-11 relative error.
    F16,
    /// Symmetric per-row-scale int8: 1 byte/weight + one f32 scale per row.
    Int8,
}

impl QuantMode {
    /// Lower-case wire/display name (`"f32"`, `"f16"`, `"int8"`).
    pub fn name(self) -> &'static str {
        match self {
            QuantMode::F32 => "f32",
            QuantMode::F16 => "f16",
            QuantMode::Int8 => "int8",
        }
    }
}

impl std::fmt::Display for QuantMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// f16 conversion
// ---------------------------------------------------------------------------

/// Decodes IEEE binary16 bits to f32.
///
/// Branch-free multiply trick: the f16 exponent/mantissa shifted into f32
/// position decodes to `2^(e - 127) · 1.m`; multiplying by `2^112` rebases
/// the exponent to the f16 bias (`e - 15`) and renormalizes subnormals for
/// free. Inf/NaN bit patterns decode to large finite values instead — the
/// deserializer rejects them, and [`f32_to_f16`] never produces them.
#[inline(always)]
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let mag = u32::from(h & 0x7fff) << 13;
    let val = f32::from_bits(mag) * f32::from_bits(0x7780_0000); // × 2^112
    f32::from_bits(val.to_bits() | sign)
}

/// Encodes an f32 as IEEE binary16 bits, rounding to nearest-even.
///
/// Magnitudes that would round past the largest finite f16 (65504) saturate
/// there instead of producing Inf, and non-finite inputs saturate too —
/// quantized weights must stay finite (callers reject non-finite weights
/// before encoding; this keeps the conversion total anyway).
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7fff_ffff;
    if abs >= 0x477f_f000 {
        // 65520 rounds to 65536 > f16 max; saturate (also Inf/NaN inputs).
        return sign | 0x7bff;
    }
    if abs >= 0x3880_0000 {
        // Normal f16: rebias the exponent (127 → 15) and drop 13 mantissa
        // bits, rounding to nearest-even via the parity-plus-half trick
        // (the carry propagates into the exponent field correctly).
        let adj = abs - (112 << 23);
        let round = ((adj >> 13) & 1) + 0x0fff;
        return sign | ((adj + round) >> 13) as u16;
    }
    if abs >= 0x3300_0000 {
        // Subnormal f16 (2^-25 ≤ |x| < 2^-14): shift the implicit-bit
        // mantissa down by the exponent deficit, ties to even.
        let exp = (abs >> 23) as i32 - 127;
        let mant = (abs & 0x007f_ffff) | 0x0080_0000;
        let shift = (13 + (-14 - exp)) as u32;
        let lower = mant & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let mut h = (mant >> shift) as u16;
        if lower > half || (lower == half && h & 1 == 1) {
            h += 1;
        }
        return sign | h;
    }
    sign // |x| < 2^-25 underflows to (signed) zero
}

/// Summary returned by [`crate::infer::ModelSpec::quantize`]: what the
/// artifact was re-encoded to and how far the weights moved.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantReport {
    /// Encoding the weights were converted to.
    pub mode: QuantMode,
    /// Largest elementwise `|quantized - f32|` across every re-encoded
    /// weight matrix (0.0 for `F32`).
    pub max_weight_error: f64,
    /// Number of weight matrices re-encoded (biases are excluded — they
    /// always stay f32).
    pub matrices: usize,
}

// ---------------------------------------------------------------------------
// QMatrix
// ---------------------------------------------------------------------------

/// A weight matrix in one of the [`QuantMode`] encodings.
///
/// Shapes and serialization stay row-major. The `F32` arm serializes
/// exactly like a bare [`Matrix`] (`{rows, cols, data}`), so pre-quantization
/// artifacts (MDSN v1, old MDCK checkpoints) deserialize unchanged; the
/// quantized arms add a discriminating key (`"f16"` / `"i8"`) that the
/// deserializer dispatches on.
#[derive(Clone, Debug, PartialEq)]
pub enum QMatrix {
    /// Full-precision weights.
    F32(Matrix),
    /// binary16 weights, row-major.
    F16 {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
        /// Row-major binary16 bit patterns, `rows * cols` entries.
        data: Vec<u16>,
    },
    /// Symmetric per-row-scale int8 weights, row-major.
    Int8 {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
        /// One dequantization scale per row (`x ≈ scale * q`).
        scales: Vec<f32>,
        /// Row-major quantized values in `[-127, 127]`.
        data: Vec<i8>,
    },
}

impl QMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            QMatrix::F32(m) => m.rows(),
            QMatrix::F16 { rows, .. } | QMatrix::Int8 { rows, .. } => *rows,
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            QMatrix::F32(m) => m.cols(),
            QMatrix::F16 { cols, .. } | QMatrix::Int8 { cols, .. } => *cols,
        }
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// The encoding of this matrix.
    pub fn mode(&self) -> QuantMode {
        match self {
            QMatrix::F32(_) => QuantMode::F32,
            QMatrix::F16 { .. } => QuantMode::F16,
            QMatrix::Int8 { .. } => QuantMode::Int8,
        }
    }

    /// Approximate heap footprint in bytes — the serving-side cost of
    /// holding this operand resident.
    pub fn approx_bytes(&self) -> usize {
        match self {
            QMatrix::F32(m) => std::mem::size_of_val(m.data()),
            QMatrix::F16 { data, .. } => std::mem::size_of_val(data.as_slice()),
            QMatrix::Int8 { scales, data, .. } => {
                std::mem::size_of_val(scales.as_slice()) + std::mem::size_of_val(data.as_slice())
            }
        }
    }

    /// Encodes `m` in `mode`.
    ///
    /// Fails with [`NnError::NonFiniteWeight`] if any element is NaN or
    /// infinite — a quantized scale derived from a non-finite row maximum
    /// would silently poison every weight in the row.
    pub fn quantize(m: &Matrix, mode: QuantMode) -> Result<QMatrix, NnError> {
        if m.data().iter().any(|v| !v.is_finite()) {
            return Err(NnError::NonFiniteWeight);
        }
        let (rows, cols) = m.shape();
        Ok(match mode {
            QuantMode::F32 => QMatrix::F32(m.clone()),
            QuantMode::F16 => QMatrix::F16 {
                rows,
                cols,
                data: m.data().iter().map(|&x| f32_to_f16(x)).collect(),
            },
            QuantMode::Int8 => {
                let mut scales = Vec::with_capacity(rows);
                let mut data = Vec::with_capacity(rows * cols);
                for r in 0..rows {
                    let row = m.row(r);
                    let max_abs = row.iter().fold(0.0f32, |acc, &x| acc.max(x.abs()));
                    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
                    scales.push(scale);
                    data.extend(row.iter().map(|&x| {
                        let q = (x / scale).round();
                        q.clamp(-127.0, 127.0) as i8
                    }));
                }
                QMatrix::Int8 {
                    rows,
                    cols,
                    scales,
                    data,
                }
            }
        })
    }

    /// Decodes back to full precision (exact for `F32`).
    pub fn dequantize(&self) -> Matrix {
        match self {
            QMatrix::F32(m) => m.clone(),
            QMatrix::F16 { rows, cols, data } => {
                Matrix::from_vec(*rows, *cols, data.iter().map(|&h| f16_to_f32(h)).collect())
            }
            QMatrix::Int8 {
                rows,
                cols,
                scales,
                data,
            } => {
                let mut out = Vec::with_capacity(rows * cols);
                for r in 0..*rows {
                    let s = scales[r];
                    out.extend(data[r * cols..(r + 1) * cols].iter().map(|&q| s * q as f32));
                }
                Matrix::from_vec(*rows, *cols, out)
            }
        }
    }

    /// Largest elementwise `|self - reference|` (0.0 for identical shapes
    /// with identical values).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_error(&self, reference: &Matrix) -> f64 {
        assert_eq!(
            self.shape(),
            reference.shape(),
            "max_abs_error shape mismatch"
        );
        let deq = self.dequantize();
        deq.data()
            .iter()
            .zip(reference.data())
            .map(|(&a, &b)| (f64::from(a) - f64::from(b)).abs())
            .fold(0.0, f64::max)
    }

    /// Dequantizes row `r` into `dst` (`dst.len()` must equal `cols`) — the
    /// embedding-lookup path.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds or `dst` has the wrong length.
    #[inline]
    pub fn copy_row_into(&self, r: usize, dst: &mut [f32]) {
        match self {
            QMatrix::F32(m) => dst.copy_from_slice(m.row(r)),
            QMatrix::F16 { cols, data, .. } => {
                let src = &data[r * cols..(r + 1) * cols];
                assert_eq!(dst.len(), *cols, "copy_row_into length mismatch");
                for (o, &h) in dst.iter_mut().zip(src) {
                    *o = f16_to_f32(h);
                }
            }
            QMatrix::Int8 {
                cols, scales, data, ..
            } => {
                let src = &data[r * cols..(r + 1) * cols];
                assert_eq!(dst.len(), *cols, "copy_row_into length mismatch");
                let s = scales[r];
                for (o, &q) in dst.iter_mut().zip(src) {
                    *o = s * q as f32;
                }
            }
        }
    }
}

// --- serde: F32 must stay byte-compatible with a bare `Matrix` -------------

impl Serialize for QMatrix {
    /// Weight arrays serialize as packed [`Tensor`] nodes, like
    /// [`Matrix`]'s; the int8 scales are an `f32` tensor of shape `[rows]`.
    fn to_content(&self) -> Content {
        match self {
            QMatrix::F32(m) => m.to_content(),
            QMatrix::F16 { rows, cols, data } => Content::Map(vec![
                ("rows".to_owned(), rows.to_content()),
                ("cols".to_owned(), cols.to_content()),
                (
                    "f16".to_owned(),
                    Tensor::from_f16_bits(vec![*rows, *cols], data).into(),
                ),
            ]),
            QMatrix::Int8 {
                rows,
                cols,
                scales,
                data,
            } => Content::Map(vec![
                ("rows".to_owned(), rows.to_content()),
                ("cols".to_owned(), cols.to_content()),
                (
                    "scales".to_owned(),
                    Tensor::from_f32(vec![*rows], scales).into(),
                ),
                (
                    "i8".to_owned(),
                    Tensor::from_i8(vec![*rows, *cols], data).into(),
                ),
            ]),
        }
    }
}

impl Deserialize for QMatrix {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let Content::Map(entries) = content else {
            return Err(DeError::mismatch("object", content));
        };
        let has = |k: &str| entries.iter().any(|(key, _)| key == k);
        let rows: usize = serde::__field(content, "rows")?;
        let cols: usize = serde::__field(content, "cols")?;
        if has("i8") {
            let scales = tensor_field(content, "scales", &[rows], Tensor::to_f32)?;
            let data = tensor_field(content, "i8", &[rows, cols], Tensor::to_i8)?;
            if let Some(&bad) = scales.iter().find(|s| !s.is_finite()) {
                return Err(DeError::custom(format!("non-finite int8 scale {bad}")));
            }
            return Ok(QMatrix::Int8 {
                rows,
                cols,
                scales,
                data,
            });
        }
        if has("f16") {
            let data = tensor_field(content, "f16", &[rows, cols], Tensor::to_f16_bits)?;
            // Inf/NaN bit patterns (exponent field all ones) cannot come
            // from `f32_to_f16` and would silently decode to wrong finite
            // values through the multiply trick.
            if data.iter().any(|&h| h & 0x7c00 == 0x7c00) {
                return Err(DeError::custom("non-finite f16 weight"));
            }
            return Ok(QMatrix::F16 { rows, cols, data });
        }
        Matrix::from_content(content).map(QMatrix::F32)
    }
}

// ---------------------------------------------------------------------------
// Quantized GEMM: out = a(f32, m×k) · w(quantized, k×n)
// ---------------------------------------------------------------------------
//
// Structure mirrors `crate::matrix`'s kernels — register tiles accumulated
// across the whole shared dimension in strictly ascending `p` order, one
// independent chain per output element — but with two changes the f32 path
// cannot afford:
//
// * the `b` tile is dequantized on load (per packed row: one scale broadcast
//   for int8, a shift-and-multiply for f16), so the quantized bytes are the
//   only weight traffic through the cache;
// * the AVX2+FMA dispatch tier fuses the multiply-accumulate (`mul_add`
//   contracts to `vfmadd` only inside the `avx2,fma` target-feature clone).
//   Fusing changes rounding, which is fine here: the quantized path is
//   drift-bounded, not bit-pinned. The tile is also twice as wide (4×32) —
//   16 ymm accumulators instead of 8 — because halving the weight bytes
//   makes the f32 accumulator traffic the next bottleneck.
//
// The f16 dispatch has one extra tier above AVX2+FMA: when the host also
// reports F16C, the tile dequant runs through hardware `vcvtph2ps`
// (`deq_f16_tile`) instead of the scalar multiply trick. f16→f32 widening
// is exact either way, so that tier changes no bits — only the dequant
// throughput, which is what made the scalar f16 path slower than f32.

/// Output rows per quantized micro-kernel pass.
const QMR: usize = 4;
/// Output columns per quantized micro-kernel pass (wider than the f32
/// kernels' 16: the dequantized tile is cheap to stream, the accumulators
/// are not).
const QNR: usize = 32;

impl Matrix {
    /// Computes `self * w` into `out`, dispatching on `w`'s encoding.
    ///
    /// `QMatrix::F32` routes through [`Matrix::matmul_into`] and stays
    /// bit-identical to the reference kernels (including under the
    /// `reference-kernels` feature). The quantized arms dequantize weight
    /// tiles on load; under `reference-kernels` they run a naive
    /// dequantize-and-accumulate triple loop instead of the tiled kernels,
    /// which the drift proptests exercise as the quantized oracle.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_q_into(&self, w: &QMatrix, out: &mut Matrix) {
        match w {
            QMatrix::F32(m) => self.matmul_into(m, out),
            _ => {
                assert_eq!(
                    self.cols(),
                    w.rows(),
                    "matmul_q shape mismatch: {}x{} * {}x{}",
                    self.rows(),
                    self.cols(),
                    w.rows(),
                    w.cols()
                );
                assert_eq!(
                    out.shape(),
                    (self.rows(), w.cols()),
                    "matmul_q output shape mismatch"
                );
                let (m, k, n) = (self.rows(), self.cols(), w.cols());
                out.data_mut().fill(0.0);
                match w {
                    QMatrix::F16 { data, .. } => {
                        qgemm_f16(m, k, n, self.data(), data, out.data_mut())
                    }
                    QMatrix::Int8 { scales, data, .. } => {
                        qgemm_i8(m, k, n, self.data(), scales, data, out.data_mut())
                    }
                    QMatrix::F32(_) => unreachable!("handled above"),
                }
            }
        }
    }
}

/// Dispatches the int8 kernel: AVX2+FMA, then AVX2, then scalar.
fn qgemm_i8(m: usize, k: usize, n: usize, a: &[f32], scales: &[f32], q: &[i8], out: &mut [f32]) {
    if cfg!(feature = "reference-kernels") {
        return reference_qgemm(m, k, n, a, out, |p, j| scales[p] * q[p * n + j] as f32);
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: guarded by the runtime AVX2+FMA check; no other
            // preconditions.
            return unsafe { qavx::qgemm_i8_fma(m, k, n, a, scales, q, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 check.
            return unsafe { qavx::qgemm_i8(m, k, n, a, scales, q, out) };
        }
    }
    kernel_qi8::<false, false>(m, k, n, a, scales, q, out);
}

/// Dispatches the f16 kernel like [`qgemm_i8`], with one extra tier: when
/// the host also has F16C, the tile dequant uses the hardware `vcvtph2ps`
/// converter instead of the scalar multiply trick (which both costs more
/// instructions per weight and can hit subnormal-multiply stalls on the
/// smallest trained weights).
fn qgemm_f16(m: usize, k: usize, n: usize, a: &[f32], h: &[u16], out: &mut [f32]) {
    if cfg!(feature = "reference-kernels") {
        return reference_qgemm(m, k, n, a, out, |p, j| f16_to_f32(h[p * n + j]));
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            if std::arch::is_x86_feature_detected!("f16c") {
                // SAFETY: guarded by the runtime AVX2+FMA+F16C check.
                return unsafe { qavx::qgemm_f16_fma_f16c(m, k, n, a, h, out) };
            }
            // SAFETY: guarded by the runtime AVX2+FMA check; no other
            // preconditions.
            return unsafe { qavx::qgemm_f16_fma(m, k, n, a, h, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 check.
            return unsafe { qavx::qgemm_f16(m, k, n, a, h, out) };
        }
    }
    kernel_qf16::<false, false>(m, k, n, a, h, out);
}

/// Naive dequantize-and-accumulate oracle: ascending `p`, one chain per
/// output element — the quantized counterpart of `crate::reference::matmul`.
fn reference_qgemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    out: &mut [f32],
    deq: impl Fn(usize, usize) -> f32,
) {
    for i in 0..m {
        for p in 0..k {
            let a_ip = a[i * k + p];
            if a_ip == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += a_ip * deq(p, j);
            }
        }
    }
}

/// Target-feature clones of the quantized kernels. The `_fma` variants are
/// the only place in the workspace where `mul_add` is allowed: under
/// `avx2,fma` it compiles to hardware `vfmadd`, and the quantized path's
/// drift bound absorbs the (smaller) fused rounding.
#[cfg(target_arch = "x86_64")]
mod qavx {
    use super::{kernel_qf16, kernel_qi8};

    #[target_feature(enable = "avx2,fma")]
    pub fn qgemm_i8_fma(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        scales: &[f32],
        q: &[i8],
        out: &mut [f32],
    ) {
        kernel_qi8::<true, true>(m, k, n, a, scales, q, out);
    }

    #[target_feature(enable = "avx2")]
    pub fn qgemm_i8(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        scales: &[f32],
        q: &[i8],
        out: &mut [f32],
    ) {
        kernel_qi8::<false, true>(m, k, n, a, scales, q, out);
    }

    #[target_feature(enable = "avx2,fma,f16c")]
    pub fn qgemm_f16_fma_f16c(m: usize, k: usize, n: usize, a: &[f32], h: &[u16], out: &mut [f32]) {
        kernel_qf16::<true, true>(m, k, n, a, h, out);
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn qgemm_f16_fma(m: usize, k: usize, n: usize, a: &[f32], h: &[u16], out: &mut [f32]) {
        kernel_qf16::<true, false>(m, k, n, a, h, out);
    }

    #[target_feature(enable = "avx2")]
    pub fn qgemm_f16(m: usize, k: usize, n: usize, a: &[f32], h: &[u16], out: &mut [f32]) {
        kernel_qf16::<false, false>(m, k, n, a, h, out);
    }
}

/// Fused multiply-accumulate selected at monomorphization time: the `FMA`
/// instantiation lives only inside `avx2,fma` target-feature wrappers where
/// `mul_add` is a single instruction; everywhere else the plain
/// multiply-then-add keeps the kernel fast without calling libm `fmaf`.
#[inline(always)]
fn acc_step<const FMA: bool>(acc: f32, a: f32, b: f32) -> f32 {
    if FMA {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// Dequantizes one `QNR`-wide packed-int8 tile row into `bv` with the
/// row's scale broadcast.
///
/// The `AVX` instantiation widens through `vpmovsxbd`/`vcvtdq2ps` and one
/// `vmulps`; the fallback is the scalar loop. Both are bit-identical: the
/// int widenings are exact for `|q| ≤ 127` and each element sees exactly
/// one rounded multiply either way.
#[inline(always)]
fn deq_i8_tile<const AVX: bool>(s: f32, qp: &[i8], bv: &mut [f32; QNR]) {
    #[cfg(target_arch = "x86_64")]
    if AVX {
        // SAFETY: `AVX = true` instantiations are reachable only through
        // the `qavx` wrappers, whose dispatch is gated on a runtime AVX2
        // check; `qp` spans QNR bytes and `bv` QNR floats.
        unsafe {
            use std::arch::x86_64::{
                _mm256_cvtepi32_ps, _mm256_cvtepi8_epi32, _mm256_mul_ps, _mm256_set1_ps,
                _mm256_storeu_ps, _mm_loadl_epi64,
            };
            let sv = _mm256_set1_ps(s);
            for t in 0..QNR / 8 {
                let q32 = _mm256_cvtepi8_epi32(_mm_loadl_epi64(qp.as_ptr().add(t * 8).cast()));
                let f = _mm256_mul_ps(_mm256_cvtepi32_ps(q32), sv);
                _mm256_storeu_ps(bv.as_mut_ptr().add(t * 8), f);
            }
        }
        return;
    }
    for (b, &qv) in bv.iter_mut().zip(qp) {
        *b = s * qv as f32;
    }
}

/// `out += a · dequant(q)` with per-row int8 scales. `out` zeroed by caller.
#[inline(always)]
fn kernel_qi8<const FMA: bool, const AVX: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    scales: &[f32],
    q: &[i8],
    out: &mut [f32],
) {
    kernel_q::<FMA>(
        m,
        k,
        n,
        a,
        out,
        #[inline(always)]
        |p, j, bv| deq_i8_tile::<AVX>(scales[p], &q[p * n + j..p * n + j + QNR], bv),
        #[inline(always)]
        |p, j| scales[p] * q[p * n + j] as f32,
    );
}

/// The quantized GEMM body shared by both encodings: `out += a · W` where
/// `tile(p, j, bv)` dequantizes `W[p][j..j + QNR]` into `bv` and
/// `weight(p, j)` dequantizes one element, with the same bits. Full
/// [`QMR`]-row panels come first; the last one to three rows (every row of
/// a decode batch below four) get a panel of their own height instead of a
/// rank-1 loop over the whole output row. `out` zeroed by caller.
#[inline(always)]
fn kernel_q<const FMA: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    out: &mut [f32],
    tile: impl Fn(usize, usize, &mut [f32; QNR]),
    weight: impl Fn(usize, usize) -> f32,
) {
    let mut i = 0;
    while i + QMR <= m {
        panel_q::<QMR, FMA>(i, k, n, a, out, &tile, &weight);
        i += QMR;
    }
    match m - i {
        3 => panel_q::<3, FMA>(i, k, n, a, out, &tile, &weight),
        2 => panel_q::<2, FMA>(i, k, n, a, out, &tile, &weight),
        1 => panel_q::<1, FMA>(i, k, n, a, out, &tile, &weight),
        _ => {}
    }
}

/// Rows `i..i + R` of [`kernel_q`]: `R x QNR` register tiles across the
/// columns, then rank-1 updates over the narrow column tail, every output
/// element accumulated in ascending `p`.
#[inline(always)]
fn panel_q<const R: usize, const FMA: bool>(
    i: usize,
    k: usize,
    n: usize,
    a: &[f32],
    out: &mut [f32],
    tile: &impl Fn(usize, usize, &mut [f32; QNR]),
    weight: &impl Fn(usize, usize) -> f32,
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
    let mut j = 0;
    while j + QNR <= n {
        let mut acc = [[0.0f32; QNR]; R];
        for p in 0..k {
            let mut bv = [0.0f32; QNR];
            tile(p, j, &mut bv);
            for (acc_r, a_r) in acc.iter_mut().zip(&a_rows) {
                let a_rp = a_r[p];
                for (av, &b) in acc_r.iter_mut().zip(&bv) {
                    *av = acc_step::<FMA>(*av, a_rp, b);
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            out[(i + r) * n + j..(i + r) * n + j + QNR].copy_from_slice(acc_r);
        }
        j += QNR;
    }
    if j < n {
        for p in 0..k {
            for (r, a_r) in a_rows.iter().enumerate() {
                let a_rp = a_r[p];
                let or = &mut out[(i + r) * n + j..(i + r + 1) * n];
                for (jj, o) in (j..n).zip(or) {
                    *o = acc_step::<FMA>(*o, a_rp, weight(p, jj));
                }
            }
        }
    }
}

/// Dequantizes one `QNR`-wide packed-f16 tile row into `bv`.
///
/// The `F16C` instantiation converts through hardware `vcvtph2ps`; the
/// fallback runs the scalar multiply trick. Both produce identical bits —
/// f16→f32 widening is exact in either implementation — so the dispatch
/// tiers differ only in speed, never output. The scalar trick pays per
/// weight (shift, classify, multiply) and its subnormal-range multiplies
/// can stall; the hardware converter does 8 lanes per instruction.
#[inline(always)]
fn deq_f16_tile<const F16C: bool>(hp: &[u16], bv: &mut [f32; QNR]) {
    #[cfg(target_arch = "x86_64")]
    if F16C {
        // SAFETY: the `F16C = true` instantiation is reachable only through
        // `qavx::qgemm_f16_fma_f16c`, whose dispatch is gated on a runtime
        // F16C check; `hp` spans QNR half-words and `bv` QNR floats.
        unsafe {
            use std::arch::x86_64::{_mm256_cvtph_ps, _mm256_storeu_ps, _mm_loadu_si128};
            for t in 0..QNR / 8 {
                let v = _mm256_cvtph_ps(_mm_loadu_si128(hp.as_ptr().add(t * 8).cast()));
                _mm256_storeu_ps(bv.as_mut_ptr().add(t * 8), v);
            }
        }
        return;
    }
    for (b, &hv) in bv.iter_mut().zip(hp) {
        *b = f16_to_f32(hv);
    }
}

/// `out += a · dequant(h)` with binary16 weights. `out` zeroed by caller.
#[inline(always)]
fn kernel_qf16<const FMA: bool, const F16C: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    h: &[u16],
    out: &mut [f32],
) {
    kernel_q::<FMA>(
        m,
        k,
        n,
        a,
        out,
        #[inline(always)]
        |p, j, bv| deq_f16_tile::<F16C>(&h[p * n + j..p * n + j + QNR], bv),
        #[inline(always)]
        |p, j| f16_to_f32(h[p * n + j]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn f16_roundtrips_exact_values() {
        for x in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            65504.0,
            2.0f32.powi(-14),
            2.0f32.powi(-24),
        ] {
            let h = f32_to_f16(x);
            assert_eq!(f16_to_f32(h), x, "{x} through bits {h:#06x}");
        }
        // Sign of zero survives.
        assert!(f16_to_f32(f32_to_f16(-0.0)).is_sign_negative());
    }

    #[test]
    fn f16_rounds_to_nearest_even_and_saturates() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16; ties to
        // even keeps 1.0. Slightly above rounds up.
        assert_eq!(f16_to_f32(f32_to_f16(1.0 + 2.0f32.powi(-11))), 1.0);
        let up = f16_to_f32(f32_to_f16(1.0 + 1.5 * 2.0f32.powi(-11)));
        assert!((up - (1.0 + 2.0f32.powi(-10))).abs() < 1e-7);
        // Overflow saturates to max finite, never Inf.
        assert_eq!(f16_to_f32(f32_to_f16(1e9)), 65504.0);
        assert_eq!(f16_to_f32(f32_to_f16(f32::INFINITY)), 65504.0);
        assert_eq!(f16_to_f32(f32_to_f16(-1e9)), -65504.0);
    }

    #[test]
    fn f16_error_within_half_ulp_over_random_floats() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20_000 {
            let x: f32 = rng.gen_range(-100.0..100.0);
            let y = f16_to_f32(f32_to_f16(x));
            let bound = (x.abs() * 2.0f32.powi(-11)).max(2.0f32.powi(-25));
            assert!((x - y).abs() <= bound, "{x} -> {y}");
        }
    }

    #[test]
    fn int8_reconstruction_within_half_scale() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = Matrix::uniform(13, 37, 2.5, &mut rng);
        let q = QMatrix::quantize(&m, QuantMode::Int8).expect("finite");
        let deq = q.dequantize();
        for r in 0..13 {
            let max_abs = m.row(r).iter().fold(0.0f32, |a, &x| a.max(x.abs()));
            let scale = max_abs / 127.0;
            for (a, b) in m.row(r).iter().zip(deq.row(r)) {
                assert!((a - b).abs() <= scale / 2.0 + 1e-7, "row {r}: {a} vs {b}");
            }
        }
        assert!(q.max_abs_error(&m) <= 2.5 / 127.0 / 2.0 + 1e-6);
    }

    #[test]
    fn quantize_rejects_non_finite() {
        let m = Matrix::from_vec(1, 2, vec![1.0, f32::NAN]);
        assert!(matches!(
            QMatrix::quantize(&m, QuantMode::Int8),
            Err(NnError::NonFiniteWeight)
        ));
        assert!(matches!(
            QMatrix::quantize(&m, QuantMode::F16),
            Err(NnError::NonFiniteWeight)
        ));
    }

    #[test]
    fn f32_serde_is_plain_matrix() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let q = QMatrix::F32(m.clone());
        assert_eq!(
            q.to_content(),
            m.to_content(),
            "byte-compatible with Matrix"
        );
        // And a bare Matrix tree parses as the F32 arm.
        let back = QMatrix::from_content(&m.to_content()).expect("parse");
        assert_eq!(back, q);
    }

    #[test]
    fn quantized_serde_roundtrips_and_validates() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = Matrix::uniform(4, 6, 1.0, &mut rng);
        for mode in [QuantMode::F16, QuantMode::Int8] {
            let q = QMatrix::quantize(&m, mode).expect("finite");
            let back = QMatrix::from_content(&q.to_content()).expect("roundtrip");
            assert_eq!(back, q, "{mode}");
        }
        // Length mismatches are rejected, not trusted.
        let bad = Content::Map(vec![
            ("rows".into(), 2usize.to_content()),
            ("cols".into(), 3usize.to_content()),
            ("f16".into(), vec![0u16; 5].to_content()),
        ]);
        assert!(QMatrix::from_content(&bad).is_err());
        let bad = Content::Map(vec![
            ("rows".into(), 2usize.to_content()),
            ("cols".into(), 2usize.to_content()),
            ("scales".into(), vec![1.0f32; 3].to_content()),
            ("i8".into(), vec![0i8; 4].to_content()),
        ]);
        assert!(QMatrix::from_content(&bad).is_err());
        // Non-finite f16 bit patterns (would decode silently wrong) error.
        let inf = Content::Map(vec![
            ("rows".into(), 1usize.to_content()),
            ("cols".into(), 1usize.to_content()),
            ("f16".into(), vec![0x7c00u16].to_content()),
        ]);
        assert!(QMatrix::from_content(&inf).is_err());
    }

    #[test]
    fn f32_arm_matmul_is_bit_identical_to_matmul_into() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::uniform(5, 17, 1.0, &mut rng);
        let w = Matrix::uniform(17, 35, 1.0, &mut rng);
        let mut exact = Matrix::zeros(5, 35);
        a.matmul_into(&w, &mut exact);
        let mut q_out = Matrix::zeros(5, 35);
        a.matmul_q_into(&QMatrix::F32(w), &mut q_out);
        assert_eq!(exact, q_out);
    }

    #[test]
    fn quantized_matmul_matches_dequantized_f32_within_bound() {
        let mut rng = StdRng::seed_from_u64(21);
        // Shapes straddling the 4x32 tile edges.
        for &(m, k, n) in &[(1, 3, 5), (4, 16, 32), (5, 33, 37), (9, 8, 64), (3, 1, 1)] {
            let a = Matrix::uniform(m, k, 1.0, &mut rng);
            let w = Matrix::uniform(k, n, 1.0, &mut rng);
            for mode in [QuantMode::F16, QuantMode::Int8] {
                let q = QMatrix::quantize(&w, mode).expect("finite");
                let deq = q.dequantize();
                let mut want = Matrix::zeros(m, n);
                a.matmul_into(&deq, &mut want);
                let mut got = Matrix::zeros(m, n);
                a.matmul_q_into(&q, &mut got);
                for (x, y) in got.data().iter().zip(want.data()) {
                    // Same products, possibly fused rounding: tiny budget.
                    assert!((x - y).abs() <= 1e-4 * k as f32, "{mode} {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn quantized_matmul_is_batch_invariant() {
        // Decoding row r of a batch must produce the same bits as decoding
        // it alone — cross-session batching in serving relies on this.
        let mut rng = StdRng::seed_from_u64(33);
        let a = Matrix::uniform(7, 19, 1.0, &mut rng);
        let w = Matrix::uniform(19, 41, 1.0, &mut rng);
        for mode in [QuantMode::F16, QuantMode::Int8] {
            let q = QMatrix::quantize(&w, mode).expect("finite");
            let mut full = Matrix::zeros(7, 41);
            a.matmul_q_into(&q, &mut full);
            for r in 0..7 {
                let single = Matrix::from_vec(1, 19, a.row(r).to_vec());
                let mut one = Matrix::zeros(1, 41);
                single.matmul_q_into(&q, &mut one);
                assert_eq!(one.row(0), full.row(r), "{mode} row {r}");
            }
        }
    }

    /// Each dispatch tier of the quantized kernels against its own
    /// per-element oracle: one chain per output element in ascending `p`,
    /// with the tier's accumulate step (fused under FMA, which `mul_add`
    /// rounds identically in software) over the same dequantized weight.
    /// Covers every row count through two four-row panels plus a tail and
    /// widths around the 32-column tile.
    #[test]
    fn every_tier_matches_its_per_element_oracle() {
        fn oracle<const FMA: bool>(
            m: usize,
            k: usize,
            n: usize,
            a: &[f32],
            w: impl Fn(usize, usize) -> f32,
        ) -> Vec<u32> {
            let mut out = Vec::with_capacity(m * n);
            for i in 0..m {
                for j in 0..n {
                    let acc =
                        (0..k).fold(0.0f32, |acc, p| acc_step::<FMA>(acc, a[i * k + p], w(p, j)));
                    out.push(acc.to_bits());
                }
            }
            out
        }
        type I8Tier = fn(usize, usize, usize, &[f32], &[f32], &[i8], &mut [f32]);
        type F16Tier = fn(usize, usize, usize, &[f32], &[u16], &mut [f32]);
        let mut i8_tiers: Vec<(&str, bool, I8Tier)> =
            vec![("i8 scalar", false, kernel_qi8::<false, false>)];
        let mut f16_tiers: Vec<(&str, bool, F16Tier)> =
            vec![("f16 scalar", false, kernel_qf16::<false, false>)];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") {
                // SAFETY: each wrapper runs only after its runtime feature
                // check; the closures are called nowhere else.
                i8_tiers.push(("i8 avx2", false, |m, k, n, a, s, q, o| unsafe {
                    qavx::qgemm_i8(m, k, n, a, s, q, o)
                }));
                f16_tiers.push(("f16 avx2", false, |m, k, n, a, h, o| unsafe {
                    qavx::qgemm_f16(m, k, n, a, h, o)
                }));
            }
            if has!("avx2") && has!("fma") {
                // SAFETY: as above.
                i8_tiers.push(("i8 fma", true, |m, k, n, a, s, q, o| unsafe {
                    qavx::qgemm_i8_fma(m, k, n, a, s, q, o)
                }));
                f16_tiers.push(("f16 fma", true, |m, k, n, a, h, o| unsafe {
                    qavx::qgemm_f16_fma(m, k, n, a, h, o)
                }));
            }
            if has!("avx2") && has!("fma") && has!("f16c") {
                // SAFETY: as above.
                f16_tiers.push(("f16 fma+f16c", true, |m, k, n, a, h, o| unsafe {
                    qavx::qgemm_f16_fma_f16c(m, k, n, a, h, o)
                }));
            }
        }
        let mut rng = StdRng::seed_from_u64(44);
        for m in 1..=9 {
            for &(k, n) in &[(1, 5), (17, 31), (17, 32), (40, 33), (23, 64), (8, 70)] {
                let a = Matrix::uniform(m, k, 1.0, &mut rng);
                let w = Matrix::uniform(k, n, 1.5, &mut rng);
                let Ok(QMatrix::Int8 { scales, data, .. }) = QMatrix::quantize(&w, QuantMode::Int8)
                else {
                    unreachable!("int8 encoding");
                };
                let Ok(QMatrix::F16 { data: h, .. }) = QMatrix::quantize(&w, QuantMode::F16) else {
                    unreachable!("f16 encoding");
                };
                let deq_i8 = |p: usize, j: usize| scales[p] * data[p * n + j] as f32;
                let deq_f16 = |p: usize, j: usize| f16_to_f32(h[p * n + j]);
                let want = |fma: bool, deq: &dyn Fn(usize, usize) -> f32| {
                    if fma {
                        oracle::<true>(m, k, n, a.data(), deq)
                    } else {
                        oracle::<false>(m, k, n, a.data(), deq)
                    }
                };
                for &(name, fma, tier) in &i8_tiers {
                    let mut out = vec![0.0f32; m * n];
                    tier(m, k, n, a.data(), &scales, &data, &mut out);
                    let got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want(fma, &deq_i8), "{name} {m}x{k}x{n}");
                }
                for &(name, fma, tier) in &f16_tiers {
                    let mut out = vec![0.0f32; m * n];
                    tier(m, k, n, a.data(), &h, &mut out);
                    let got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want(fma, &deq_f16), "{name} {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn approx_bytes_shrink_with_mode() {
        let m = Matrix::zeros(64, 64);
        let f32b = QMatrix::F32(m.clone()).approx_bytes();
        let f16b = QMatrix::quantize(&m, QuantMode::F16)
            .unwrap()
            .approx_bytes();
        let i8b = QMatrix::quantize(&m, QuantMode::Int8)
            .unwrap()
            .approx_bytes();
        assert_eq!(f16b * 2, f32b);
        assert!(i8b * 2 < f32b, "{i8b} vs {f32b}");
    }
}
