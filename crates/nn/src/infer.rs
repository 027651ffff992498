//! Tape-free inference engine for the seq2seq model.
//!
//! [`crate::Seq2Seq`] trains on the autodiff [`crate::tape::Tape`], which
//! records an op node, allocates (or pools) an output buffer, and keeps
//! backprop bookkeeping for every operation. None of that is needed at
//! serving time: online detection (Algorithm 2) only ever runs forward. This
//! module is the crate's only decoder. It runs the forward pass — embedding
//! lookup, fused-gate LSTM/GRU steps, Luong attention, and the output
//! projection — against a reusable scratch arena:
//!
//! * weights are packed **once** per model into a [`ModelSpec`] by
//!   [`crate::Seq2Seq::freeze`] (the `[wx; wh]` fused-GEMM operands that the
//!   tape re-concatenates on every bind), and
//! * every intermediate lives in a pre-sized [`InferArena`] buffer, so a
//!   decode step performs no heap allocation in the steady state (the first
//!   call at a given batch/sequence shape sizes the arena; later calls reuse
//!   it).
//!
//! **Bit parity.** The engine is not "close to" the tape — it runs the
//! tape's forward arithmetic: GEMMs go through [`Matrix::matmul_into`]
//! (which routes to `reference-kernels` under that feature, same as the
//! tape), and the gate activations, LSTM/GRU state updates and attention
//! (scores, softmax, context) are the very kernels the tape's fused cell and
//! attention ops call (the crate's `kernels` module). The tape forward pass
//! is kept only as a test-build parity oracle in `seq2seq`'s unit tests,
//! which assert bit-identical greedy and batched output under both
//! kernel families.

use crate::kernels::{self, GRU_GATES, LSTM_GATES};
use crate::matrix::{tanh_slice, Matrix};
use crate::quant::{QMatrix, QuantMode, QuantReport};
use crate::NnError;
use serde::{Deserialize, Serialize};

/// Forward-only packed weights of one recurrent layer.
///
/// The input and hidden weight blocks are pre-stacked (input block on top)
/// into the single fused-gate GEMM operand that the tape builds with
/// `concat_rows` on every bind.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PackedCell {
    /// LSTM layer with gate columns laid out `[i | f | g | o]`.
    Lstm {
        /// Packed `[wx; wh]`, shape `(input + hidden) x 4H`. Possibly
        /// quantized; biases stay f32 (they are a rounding-error's worth of
        /// bytes and an outsized share of the accuracy).
        w: QMatrix,
        /// Gate bias, `1 x 4H`.
        b: Matrix,
        /// Hidden units.
        hidden: usize,
    },
    /// GRU layer with gate columns laid out `[r | z]`.
    Gru {
        /// Packed `[wx_gates; wh_gates]`, shape `(input + hidden) x 2H`.
        w_gates: QMatrix,
        /// Gate bias, `1 x 2H`.
        b_gates: Matrix,
        /// Packed `[wx_cand; wh_cand]`, shape `(input + hidden) x H`.
        w_cand: QMatrix,
        /// Candidate bias, `1 x H`.
        b_cand: Matrix,
        /// Hidden units.
        hidden: usize,
    },
}

impl PackedCell {
    fn hidden(&self) -> usize {
        match self {
            PackedCell::Lstm { hidden, .. } | PackedCell::Gru { hidden, .. } => *hidden,
        }
    }

    fn is_lstm(&self) -> bool {
        matches!(self, PackedCell::Lstm { .. })
    }

    /// Approximate heap footprint of the packed weights in bytes.
    pub fn approx_bytes(&self) -> usize {
        let f = std::mem::size_of::<f32>();
        match self {
            PackedCell::Lstm { w, b, .. } => w.approx_bytes() + std::mem::size_of_val(b.data()),
            PackedCell::Gru {
                w_gates,
                b_gates,
                w_cand,
                b_cand,
                ..
            } => {
                w_gates.approx_bytes()
                    + w_cand.approx_bytes()
                    + (b_gates.data().len() + b_cand.data().len()) * f
            }
        }
    }

    /// Re-encodes the weight matrices in `mode`, tracking the largest
    /// elementwise error into `max_err`.
    fn quantize(&self, mode: QuantMode, max_err: &mut f64) -> Result<PackedCell, NnError> {
        Ok(match self {
            PackedCell::Lstm { w, b, hidden } => PackedCell::Lstm {
                w: requantize(w, mode, max_err)?,
                b: b.clone(),
                hidden: *hidden,
            },
            PackedCell::Gru {
                w_gates,
                b_gates,
                w_cand,
                b_cand,
                hidden,
            } => PackedCell::Gru {
                w_gates: requantize(w_gates, mode, max_err)?,
                b_gates: b_gates.clone(),
                w_cand: requantize(w_cand, mode, max_err)?,
                b_cand: b_cand.clone(),
                hidden: *hidden,
            },
        })
    }
}

/// Re-encodes one weight operand (through f32 if it was already quantized),
/// folding its reconstruction error into `max_err`.
fn requantize(w: &QMatrix, mode: QuantMode, max_err: &mut f64) -> Result<QMatrix, NnError> {
    let full = w.dequantize();
    let q = QMatrix::quantize(&full, mode)?;
    *max_err = max_err.max(q.max_abs_error(&full));
    Ok(q)
}

/// Stacks `top` above `bottom` — the tape's `concat_rows`, used to pack the
/// separate input/hidden weights into one fused GEMM operand.
pub fn pack_rows(top: &Matrix, bottom: &Matrix) -> Matrix {
    assert_eq!(top.cols(), bottom.cols(), "pack_rows column mismatch");
    let mut out = Matrix::zeros(top.rows() + bottom.rows(), top.cols());
    let split = top.data().len();
    out.data_mut()[..split].copy_from_slice(top.data());
    out.data_mut()[split..].copy_from_slice(bottom.data());
    out
}

/// Everything the engine needs from a trained [`crate::Seq2Seq`]: owned
/// weight copies (recurrent layers pre-packed) plus decoding
/// hyper-parameters.
///
/// A `ModelSpec` is the model's *frozen serving artifact*: produced by
/// [`crate::Seq2Seq::freeze`], it carries no tape, optimizer moments or
/// gradient buffers, serializes compactly, and decodes bit-identically to
/// the training tape's forward pass through an [`InferArena`] (pinned by
/// the tape-oracle tests in `seq2seq`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Source embedding table, `src_vocab x E`.
    pub src_emb: QMatrix,
    /// Target embedding table, `tgt_vocab x E`.
    pub tgt_emb: QMatrix,
    /// Encoder layers, bottom first.
    pub encoder: Vec<PackedCell>,
    /// Decoder layers, bottom first.
    pub decoder: Vec<PackedCell>,
    /// Bilinear attention weight (`General` attention only), `H x H`.
    pub w_a: Option<QMatrix>,
    /// Attentional combination weight, `2H x H`.
    pub w_c: QMatrix,
    /// Attentional combination bias, `1 x H`.
    pub b_c: Matrix,
    /// Output projection, `H x V`.
    pub w_out: QMatrix,
    /// Output bias, `1 x V`.
    pub b_out: Matrix,
    /// Hidden units per layer.
    pub hidden: usize,
    /// Luong input feeding: the previous attentional hidden state is
    /// concatenated to the decoder input.
    pub input_feeding: bool,
    /// Target begin-of-sentence token fed at step zero.
    pub bos: usize,
}

impl ModelSpec {
    /// Source vocabulary size (rows of the source embedding table).
    pub fn src_vocab(&self) -> usize {
        self.src_emb.rows()
    }

    /// Target vocabulary size (rows of the target embedding table).
    pub fn tgt_vocab(&self) -> usize {
        self.tgt_emb.rows()
    }

    /// Checks that the weights fit together: embedding widths against the
    /// first layers' packed rows, packed rows = layer input + hidden, gate
    /// and bias widths per cell kind, `w_a` `H x H`, `w_c` `2H x H`,
    /// `w_out` `H x V` with `V` the target vocabulary, `bos < V`,
    /// non-empty encoder and decoder stacks of one cell kind, one depth and
    /// one hidden size, and one weight encoding across every weight matrix
    /// (both embeddings, every packed cell matrix, `w_a`, `w_c` and
    /// `w_out`). The decode kernels index by these shapes without
    /// re-checking them, and [`ModelSpec::quant_mode`] reads the encoding
    /// off `w_out` alone, so a spec from outside ([`Seq2Seq::freeze`]
    /// always passes) must pass this before it decodes.
    ///
    /// [`Seq2Seq::freeze`]: crate::Seq2Seq::freeze
    ///
    /// # Errors
    ///
    /// [`NnError::MalformedSpec`] naming the first field found wrong.
    pub fn validate(&self) -> Result<(), NnError> {
        let bad = |field: String, detail: String| Err(NnError::MalformedSpec { field, detail });
        // The field name is built only for a mismatch: a well-formed spec
        // passes without allocating.
        let shape = |got: (usize, usize), want: (usize, usize), field: &dyn Fn() -> String| {
            if got == want {
                Ok(())
            } else {
                bad(
                    field(),
                    format!("is {}x{}, expected {}x{}", got.0, got.1, want.0, want.1),
                )
            }
        };
        // A weight matrix needs its shape and the spec's one encoding.
        let mode = self.w_out.mode();
        let weight = |w: &QMatrix, want: (usize, usize), field: &dyn Fn() -> String| {
            shape(w.shape(), want, field)?;
            if w.mode() == mode {
                Ok(())
            } else {
                bad(field(), format!("is {}, but w_out is {mode}", w.mode()))
            }
        };
        let hd = self.hidden;
        let vocab = self.tgt_vocab();
        if hd == 0 {
            return bad("hidden".into(), "is 0".into());
        }
        if self.bos >= vocab {
            return bad(
                "bos".into(),
                format!("is {}, not below the target vocabulary {vocab}", self.bos),
            );
        }
        // Embedding widths are checked against the first layers below.
        weight(&self.src_emb, self.src_emb.shape(), &|| "src_emb".into())?;
        weight(&self.tgt_emb, self.tgt_emb.shape(), &|| "tgt_emb".into())?;
        if self.encoder.len() != self.decoder.len() {
            return bad(
                "decoder".into(),
                format!(
                    "has {} layers but starts from a {}-layer encoder state",
                    self.decoder.len(),
                    self.encoder.len()
                ),
            );
        }
        let feed = if self.input_feeding { hd } else { 0 };
        for (name, stack, first_in) in [
            ("encoder", &self.encoder, self.src_emb.cols()),
            ("decoder", &self.decoder, self.tgt_emb.cols() + feed),
        ] {
            if stack.is_empty() {
                return bad(name.into(), "has no layers".into());
            }
            for (l, cell) in stack.iter().enumerate() {
                let at = |part: &str| format!("{name}[{l}].{part}");
                if cell.is_lstm() != self.encoder[0].is_lstm() {
                    return bad(format!("{name}[{l}]"), "mixes LSTM and GRU layers".into());
                }
                if cell.hidden() != hd {
                    return bad(at("hidden"), format!("is {}, expected {hd}", cell.hidden()));
                }
                let rows = if l == 0 { first_in } else { hd } + hd;
                match cell {
                    PackedCell::Lstm { w, b, .. } => {
                        weight(w, (rows, 4 * hd), &|| at("w"))?;
                        shape(b.shape(), (1, 4 * hd), &|| at("b"))?;
                    }
                    PackedCell::Gru {
                        w_gates,
                        b_gates,
                        w_cand,
                        b_cand,
                        ..
                    } => {
                        weight(w_gates, (rows, 2 * hd), &|| at("w_gates"))?;
                        shape(b_gates.shape(), (1, 2 * hd), &|| at("b_gates"))?;
                        weight(w_cand, (rows, hd), &|| at("w_cand"))?;
                        shape(b_cand.shape(), (1, hd), &|| at("b_cand"))?;
                    }
                }
            }
        }
        if let Some(w_a) = &self.w_a {
            weight(w_a, (hd, hd), &|| "w_a".into())?;
        }
        weight(&self.w_c, (2 * hd, hd), &|| "w_c".into())?;
        shape(self.b_c.shape(), (1, hd), &|| "b_c".into())?;
        weight(&self.w_out, (hd, vocab), &|| "w_out".into())?;
        shape(self.b_out.shape(), (1, vocab), &|| "b_out".into())
    }

    /// Approximate heap footprint of the frozen weights in bytes — the
    /// per-model cost of holding this artifact in a serving snapshot.
    pub fn approx_bytes(&self) -> usize {
        let f = std::mem::size_of::<f32>();
        let mut bytes = self.src_emb.approx_bytes()
            + self.tgt_emb.approx_bytes()
            + self.w_c.approx_bytes()
            + self.w_out.approx_bytes()
            + (self.b_c.data().len() + self.b_out.data().len()) * f;
        if let Some(w_a) = &self.w_a {
            bytes += w_a.approx_bytes();
        }
        bytes += self
            .encoder
            .iter()
            .chain(&self.decoder)
            .map(PackedCell::approx_bytes)
            .sum::<usize>();
        bytes
    }

    /// The weight encoding of this artifact.
    ///
    /// Weights are only ever re-encoded together (by [`ModelSpec::quantize`]),
    /// and [`ModelSpec::validate`] refuses a spec that mixes encodings, so
    /// the output projection's mode speaks for all of them.
    pub fn quant_mode(&self) -> QuantMode {
        self.w_out.mode()
    }

    /// Checks a decode request before [`InferArena::translate_batch`], which
    /// indexes embedding tables without re-checking.
    ///
    /// # Errors
    ///
    /// [`NnError::EmptyCorpus`] for an empty batch,
    /// [`NnError::EmptySequence`] for an empty first sentence or a zero
    /// `out_len`, then, row by row, [`NnError::RaggedSequences`] for a
    /// sentence unlike the first in length and [`NnError::TokenOutOfRange`]
    /// for a token outside the source vocabulary.
    pub fn check_src<T: Token>(&self, srcs: &[&[T]], out_len: usize) -> Result<(), NnError> {
        let Some(first) = srcs.first() else {
            return Err(NnError::EmptyCorpus);
        };
        if out_len == 0 || first.is_empty() {
            return Err(NnError::EmptySequence);
        }
        let vocab = self.src_vocab();
        for s in srcs {
            if s.len() != first.len() {
                return Err(NnError::RaggedSequences {
                    expected: first.len(),
                    found: s.len(),
                });
            }
            if let Some(tok) = s.iter().find(|t| t.index() >= vocab) {
                return Err(NnError::TokenOutOfRange {
                    token: tok.index(),
                    vocab,
                });
            }
        }
        Ok(())
    }

    /// Re-encodes every weight matrix in `mode` (via f32 if already
    /// quantized), leaving biases and hyper-parameters untouched.
    ///
    /// Returns the quantized spec plus a [`QuantReport`] with the largest
    /// elementwise weight error — the serving layer folds this into its
    /// calibration record and refuses artifacts that drift past the declared
    /// bound.
    ///
    /// Fails with [`NnError::NonFiniteWeight`] if any weight is NaN or
    /// infinite.
    pub fn quantize(&self, mode: QuantMode) -> Result<(ModelSpec, QuantReport), NnError> {
        let mut max_err = 0.0f64;
        let mut matrices = 0usize;
        let mut q = |w: &QMatrix| -> Result<QMatrix, NnError> {
            matrices += 1;
            requantize(w, mode, &mut max_err)
        };
        let src_emb = q(&self.src_emb)?;
        let tgt_emb = q(&self.tgt_emb)?;
        let w_a = self.w_a.as_ref().map(&mut q).transpose()?;
        let w_c = q(&self.w_c)?;
        let w_out = q(&self.w_out)?;
        let mut cells = |layers: &[PackedCell]| -> Result<Vec<PackedCell>, NnError> {
            layers
                .iter()
                .map(|c| {
                    matrices += match c {
                        PackedCell::Lstm { .. } => 1,
                        PackedCell::Gru { .. } => 2,
                    };
                    c.quantize(mode, &mut max_err)
                })
                .collect()
        };
        let encoder = cells(&self.encoder)?;
        let decoder = cells(&self.decoder)?;
        let spec = ModelSpec {
            src_emb,
            tgt_emb,
            encoder,
            decoder,
            w_a,
            w_c,
            b_c: self.b_c.clone(),
            w_out,
            b_out: self.b_out.clone(),
            hidden: self.hidden,
            input_feeding: self.input_feeding,
            bos: self.bos,
        };
        Ok((
            spec,
            QuantReport {
                mode,
                max_weight_error: max_err,
                matrices,
            },
        ))
    }
}

/// Recurrent state carried across decode steps: per-layer hidden (and, for
/// LSTM, cell) matrices plus the fed-back attentional hidden state.
///
/// All matrices are `B x H`.
#[derive(Clone, Debug, Default)]
pub struct InferState {
    h: Vec<Matrix>,
    /// LSTM cell states; empty for GRU.
    c: Vec<Matrix>,
    att: Matrix,
    has_att: bool,
}

impl InferState {
    fn reset(&mut self, layers: &[PackedCell], batch: usize) {
        let n = layers.len();
        let hidden = layers[0].hidden();
        let n_cells = if layers[0].is_lstm() { n } else { 0 };
        self.h.resize_with(n, Matrix::default);
        self.c.resize_with(n_cells, Matrix::default);
        for m in self.h.iter_mut().chain(self.c.iter_mut()) {
            shape_to(m, batch, hidden);
            m.data_mut().fill(0.0);
        }
        self.has_att = false;
    }

    fn copy_from(&mut self, src: &InferState) {
        self.h.resize_with(src.h.len(), Matrix::default);
        self.c.resize_with(src.c.len(), Matrix::default);
        for (dst, s) in self.h.iter_mut().zip(&src.h) {
            assign(dst, s);
        }
        for (dst, s) in self.c.iter_mut().zip(&src.c) {
            assign(dst, s);
        }
        self.has_att = false;
    }
}

/// Reused intermediate buffers. Each field is resized on first use at a given
/// shape and then reused verbatim; in the steady state no buffer reallocates.
#[derive(Debug, Default)]
struct Scratch {
    /// Step input: embeddings, plus the fed-back attentional state under
    /// input feeding.
    x: Matrix,
    /// Fused GEMM input `[x | h]` (also `[x | r ⊙ h]` for the GRU candidate).
    xh: Matrix,
    /// Gate pre-activations, `B x 4H` (LSTM) or `B x 2H` (GRU).
    z: Matrix,
    /// GRU candidate pre-activation, `B x H`.
    gate_pre: Matrix,
    /// Activated gates, stacked `[i; f; g; o]` (LSTM) or `[r; z]` (GRU).
    gates: Matrix,
    /// `tanh(c)` (LSTM) / candidate state (GRU).
    tc: Matrix,
    /// Attention query `h_t W_a` (General attention only).
    query: Matrix,
    /// Attention scores, then weights after in-place softmax, `B x S`.
    scores: Matrix,
    /// Attention context vector, `B x H`.
    ctx: Matrix,
    /// `[context | h_top]`, `B x 2H`.
    cat: Matrix,
    /// Pre-activation of the attentional hidden state, `B x H`.
    att_pre: Matrix,
    /// Output logits, `B x V`.
    logits: Matrix,
}

/// A model-independent inference arena: every reusable buffer the forward
/// pass needs, with the weights supplied per call as a [`ModelSpec`].
///
/// One arena can serve any number of models sequentially — a serving worker
/// holds one arena and decodes whichever pair model the scheduler hands it,
/// instead of every model (or every stream) owning a private scratch set.
/// Callers must validate tokens/shapes first ([`ModelSpec::check_src`]) —
/// the engine indexes embedding tables directly.
#[derive(Debug, Default)]
pub struct InferArena {
    /// Per-step top-layer encoder hidden states; `enc_len` entries are live.
    enc_hs: Vec<Matrix>,
    enc_len: usize,
    /// Encoder final state (the decoder's initial state).
    enc_final: InferState,
    /// Greedy-decode state, reused across `translate_batch` calls.
    greedy: InferState,
    /// Previous-token buffer for greedy decoding.
    prev: Vec<usize>,
    scratch: Scratch,
}

impl InferArena {
    /// An empty arena; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes a batch of equal-length source sentences with `spec`'s
    /// weights, leaving the per-step top-layer hidden states and the final
    /// state in the arena.
    pub fn encode<T: Token>(&mut self, spec: &ModelSpec, srcs: &[&[T]]) {
        let batch = srcs.len();
        let steps = srcs[0].len();
        let mut state = std::mem::take(&mut self.enc_final);
        state.reset(&spec.encoder, batch);
        if self.enc_hs.len() < steps {
            self.enc_hs.resize_with(steps, Matrix::default);
        }
        self.enc_len = steps;
        let embed = spec.src_emb.cols();
        for t in 0..steps {
            let scr = &mut self.scratch;
            shape_to(&mut scr.x, batch, embed);
            for (r, s) in srcs.iter().enumerate() {
                spec.src_emb.copy_row_into(s[t].index(), scr.x.row_mut(r));
            }
            step_stack(&spec.encoder, scr, &mut state);
            assign(
                &mut self.enc_hs[t],
                state.h.last().expect("non-empty stack"),
            );
        }
        self.enc_final = state;
    }

    /// Copies the encoder final state into `out` (reusing its buffers) as
    /// the decoder's initial state.
    pub fn start_state(&self, out: &mut InferState) {
        out.copy_from(&self.enc_final);
    }

    /// One decoder step over the most recently encoded batch: embeds `prev`,
    /// advances the stack, attends, and leaves the logits in the arena
    /// ([`InferArena::logits`]). `state` is updated in place. `spec` must be
    /// the model the last [`InferArena::encode`] ran with.
    pub fn decode_step(&mut self, spec: &ModelSpec, prev: &[usize], state: &mut InferState) {
        let batch = prev.len();
        let scr = &mut self.scratch;
        let embed = spec.tgt_emb.cols();
        let hd = spec.hidden;
        let in_dim = if spec.input_feeding {
            embed + hd
        } else {
            embed
        };
        shape_to(&mut scr.x, batch, in_dim);
        for (r, &tok) in prev.iter().enumerate() {
            let row = scr.x.row_mut(r);
            spec.tgt_emb.copy_row_into(tok, &mut row[..embed]);
            if spec.input_feeding {
                if state.has_att {
                    row[embed..].copy_from_slice(state.att.row(r));
                } else {
                    row[embed..].fill(0.0);
                }
            }
        }
        step_stack(&spec.decoder, scr, state);
        attend(spec, scr, state, &self.enc_hs[..self.enc_len]);
    }

    /// Logits of the last [`InferArena::decode_step`], `B x V`.
    pub fn logits(&self) -> &Matrix {
        &self.scratch.logits
    }

    /// Greedy batched translation with `spec`'s weights. Inputs must pass
    /// [`ModelSpec::check_src`]. Tokens come in and go out as `T`, so a
    /// caller holding `u32` ids decodes without converting the batch.
    pub fn translate_batch<T: Token>(
        &mut self,
        spec: &ModelSpec,
        srcs: &[&[T]],
        out_len: usize,
    ) -> Vec<Vec<T>> {
        let batch = srcs.len();
        self.encode(spec, srcs);
        let mut state = std::mem::take(&mut self.greedy);
        self.start_state(&mut state);
        let mut prev = std::mem::take(&mut self.prev);
        prev.clear();
        prev.resize(batch, spec.bos);
        // Built row by row: `vec![v; n]` clones `v`, and a clone drops
        // its capacity.
        let mut out: Vec<Vec<T>> = (0..batch).map(|_| Vec::with_capacity(out_len)).collect();
        for _ in 0..out_len {
            self.decode_step(spec, &prev, &mut state);
            for (b, (p, o)) in prev.iter_mut().zip(&mut out).enumerate() {
                *p = self.scratch.logits.argmax_row(b);
                o.push(T::from_index(*p));
            }
        }
        self.greedy = state;
        self.prev = prev;
        out
    }
}

/// A token id the engine decodes: an index into an embedding table. The
/// crate's own `usize` ids and the `u32` ids of serving snapshots both
/// implement it, so neither converts a batch before decoding.
pub trait Token: Copy {
    /// The embedding-table row of this token.
    fn index(self) -> usize;
    /// The token of embedding-table row `index`.
    fn from_index(index: usize) -> Self;
}

impl Token for usize {
    #[inline]
    fn index(self) -> usize {
        self
    }
    #[inline]
    fn from_index(index: usize) -> Self {
        index
    }
}

impl Token for u32 {
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
    #[inline]
    fn from_index(index: usize) -> Self {
        u32::try_from(index).expect("vocabulary index fits in u32")
    }
}

/// Advances every layer of a packed stack one step, updating `state` in
/// place. Layer 0 consumes `scr.x`; layer `l` consumes layer `l - 1`'s fresh
/// hidden state, exactly like the tape's stack step. The gate activations
/// and state updates are the tape cell ops' own kernels.
fn step_stack(layers: &[PackedCell], scr: &mut Scratch, state: &mut InferState) {
    let Scratch {
        x,
        xh,
        z,
        gate_pre,
        gates,
        tc,
        ..
    } = scr;
    for (l, cell) in layers.iter().enumerate() {
        let (done, rest) = state.h.split_at_mut(l);
        let input: &Matrix = if l == 0 { x } else { &done[l - 1] };
        let h = &mut rest[0];
        let (batch, hd) = h.shape();
        shape_to(xh, batch, input.cols() + hd);
        kernels::concat_cols_into(input, h, xh);
        match cell {
            PackedCell::Lstm { w, b, .. } => {
                shape_to(z, batch, 4 * hd);
                xh.matmul_q_into(w, z);
                kernels::add_row_inplace(z, b);
                shape_to(gates, 4 * batch, hd);
                kernels::activate_gates(z, LSTM_GATES, gates.data_mut());
                kernels::lstm_cell(gates.data(), state.c[l].data_mut());
                shape_to(tc, batch, hd);
                kernels::lstm_hidden(gates.data(), state.c[l].data(), tc.data_mut(), h.data_mut());
            }
            PackedCell::Gru {
                w_gates,
                b_gates,
                w_cand,
                b_cand,
                ..
            } => {
                shape_to(z, batch, 2 * hd);
                xh.matmul_q_into(w_gates, z);
                kernels::add_row_inplace(z, b_gates);
                shape_to(gates, 2 * batch, hd);
                kernels::activate_gates(z, GRU_GATES, gates.data_mut());
                kernels::gru_candidate_input(input, h, gates.data(), xh);
                shape_to(gate_pre, batch, hd);
                xh.matmul_q_into(w_cand, gate_pre);
                kernels::add_row_inplace(gate_pre, b_cand);
                shape_to(tc, batch, hd);
                tanh_slice(gate_pre.data(), tc.data_mut());
                kernels::gru_blend(gates.data(), tc.data(), h.data_mut());
            }
        }
    }
}

/// Luong attention and output projection over the encoder states, writing
/// the attentional hidden state into `state.att` and logits into
/// `scr.logits`. Mirrors the tape's `decode_step` tail op for op; the
/// attention itself is the tape attention op's kernel.
fn attend(spec: &ModelSpec, scr: &mut Scratch, state: &mut InferState, enc_hs: &[Matrix]) {
    let hd = spec.hidden;
    let InferState {
        h, att, has_att, ..
    } = state;
    let h_top = h.last().expect("non-empty stack");
    let batch = h_top.rows();
    let Scratch {
        query,
        scores,
        ctx,
        cat,
        att_pre,
        logits,
        ..
    } = scr;
    let q: &Matrix = match &spec.w_a {
        Some(w_a) => {
            shape_to(query, batch, hd);
            h_top.matmul_q_into(w_a, query);
            query
        }
        None => h_top,
    };
    shape_to(scores, batch, enc_hs.len());
    shape_to(ctx, batch, hd);
    kernels::attention(q, enc_hs.iter(), scores, ctx);
    shape_to(cat, batch, 2 * hd);
    kernels::concat_cols_into(ctx, h_top, cat);
    shape_to(att_pre, batch, hd);
    cat.matmul_q_into(&spec.w_c, att_pre);
    kernels::add_row_inplace(att_pre, &spec.b_c);
    shape_to(att, batch, hd);
    tanh_slice(att_pre.data(), att.data_mut());
    *has_att = true;
    shape_to(logits, batch, spec.w_out.cols());
    att.matmul_q_into(&spec.w_out, logits);
    kernels::add_row_inplace(logits, &spec.b_out);
}

/// Resizes `m` to `rows x cols`, reusing its allocation when capacity
/// suffices. Contents are unspecified afterwards.
fn shape_to(m: &mut Matrix, rows: usize, cols: usize) {
    if m.shape() != (rows, cols) {
        let mut data = std::mem::take(m).into_data();
        data.resize(rows * cols, 0.0);
        *m = Matrix::from_vec(rows, cols, data);
    }
}

/// Copies `src` into `dst`, reusing `dst`'s allocation.
fn assign(dst: &mut Matrix, src: &Matrix) {
    shape_to(dst, src.rows(), src.cols());
    dst.data_mut().copy_from_slice(src.data());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_rows_stacks_in_order() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let p = pack_rows(&a, &b);
        assert_eq!(p.shape(), (3, 2));
        assert_eq!(p.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn shape_to_reuses_capacity() {
        let mut m = Matrix::zeros(4, 4);
        let ptr = m.data().as_ptr();
        shape_to(&mut m, 2, 8);
        assert_eq!(m.shape(), (2, 8));
        assert_eq!(
            m.data().as_ptr(),
            ptr,
            "same-size reshape must not allocate"
        );
    }

    fn frozen(cell: crate::CellKind, attention: crate::AttentionKind, feeding: bool) -> ModelSpec {
        let cfg = crate::Seq2SeqConfig {
            embed_dim: 5,
            hidden: 3,
            layers: 2,
            cell,
            attention,
            input_feeding: feeding,
            ..crate::Seq2SeqConfig::default()
        };
        crate::Seq2Seq::new(7, 6, 2, cfg).freeze()
    }

    fn int8(w: &QMatrix) -> QMatrix {
        QMatrix::quantize(&w.dequantize(), QuantMode::Int8).expect("finite weights")
    }

    fn field_of(spec: &ModelSpec) -> String {
        match spec.validate() {
            Err(NnError::MalformedSpec { field, .. }) => field,
            other => panic!("expected a malformed spec, got {other:?}"),
        }
    }

    #[test]
    fn validate_accepts_every_frozen_configuration() {
        use crate::{AttentionKind, CellKind};
        for cell in [CellKind::Lstm, CellKind::Gru] {
            for attention in [AttentionKind::Dot, AttentionKind::General] {
                for feeding in [false, true] {
                    frozen(cell, attention, feeding)
                        .validate()
                        .expect("a frozen model is well formed");
                }
            }
        }
    }

    #[test]
    fn validate_names_the_inconsistent_field() {
        use crate::{AttentionKind, CellKind};
        let lstm = frozen(CellKind::Lstm, AttentionKind::General, true);
        let gru = frozen(CellKind::Gru, AttentionKind::Dot, false);
        type Edit = fn(&mut ModelSpec);
        let cases: [(&ModelSpec, Edit, &str); 19] = [
            (&lstm, |s| s.bos = 6 + 5, "bos"),
            (&lstm, |s| s.hidden = 0, "hidden"),
            (
                &lstm,
                |s| s.src_emb = QMatrix::F32(Matrix::zeros(7, 4)),
                "encoder[0].w",
            ),
            (
                &lstm,
                |s| s.tgt_emb = QMatrix::F32(Matrix::zeros(6, 4)),
                "decoder[0].w",
            ),
            (&lstm, |s| s.input_feeding = false, "decoder[0].w"),
            (&lstm, |s| s.encoder.clear(), "decoder"),
            (
                &lstm,
                |s| {
                    s.encoder.clear();
                    s.decoder.clear();
                },
                "encoder",
            ),
            (
                &lstm,
                |s| {
                    s.decoder.pop();
                },
                "decoder",
            ),
            (
                &lstm,
                |s| s.w_a = Some(QMatrix::F32(Matrix::zeros(3, 4))),
                "w_a",
            ),
            (&lstm, |s| s.w_c = QMatrix::F32(Matrix::zeros(3, 3)), "w_c"),
            (&lstm, |s| s.b_out = Matrix::zeros(1, 5), "b_out"),
            (
                &lstm,
                |s| s.tgt_emb = QMatrix::F32(Matrix::zeros(9, 5)),
                "w_out",
            ),
            (
                &gru,
                |s| {
                    if let PackedCell::Gru { w_cand, .. } = &mut s.decoder[1] {
                        *w_cand = QMatrix::F32(Matrix::zeros(6, 2));
                    }
                },
                "decoder[1].w_cand",
            ),
            (
                &gru,
                |s| {
                    s.decoder[1] =
                        frozen(CellKind::Lstm, AttentionKind::Dot, false).decoder[1].clone()
                },
                "decoder[1]",
            ),
            // One weight re-encoded alone: the spec would report f32 and
            // decode int8 weights.
            (&lstm, |s| s.src_emb = int8(&s.src_emb), "src_emb"),
            (&lstm, |s| s.tgt_emb = int8(&s.tgt_emb), "tgt_emb"),
            (&lstm, |s| s.w_c = int8(&s.w_c), "w_c"),
            (&lstm, |s| s.w_a = s.w_a.as_ref().map(int8), "w_a"),
            (
                &gru,
                |s| {
                    if let PackedCell::Gru { w_gates, .. } = &mut s.encoder[0] {
                        *w_gates = int8(w_gates);
                    }
                },
                "encoder[0].w_gates",
            ),
        ];
        for (base, edit, field) in cases {
            let mut spec = base.clone();
            edit(&mut spec);
            assert_eq!(field_of(&spec), field);
        }
        // A layer of the wrong hidden size is named by its own field.
        let mut spec = lstm.clone();
        if let PackedCell::Lstm { hidden, .. } = &mut spec.encoder[1] {
            *hidden = 4;
        }
        assert_eq!(field_of(&spec), "encoder[1].hidden");
        // Every weight in one other encoding is consistent; only `w_out`
        // re-encoded is named against the first weight checked.
        let (q, _) = lstm.quantize(QuantMode::Int8).expect("quantize");
        q.validate().expect("one encoding throughout");
        let mut spec = lstm.clone();
        spec.w_out = int8(&spec.w_out);
        assert_eq!(field_of(&spec), "src_emb");
        let mut spec = gru.clone();
        if let PackedCell::Gru { w_cand, .. } = &mut spec.decoder[1] {
            *w_cand = int8(w_cand);
        }
        assert_eq!(field_of(&spec), "decoder[1].w_cand");
    }

    #[test]
    fn check_src_reports_each_malformed_request() {
        let spec = frozen(crate::CellKind::Lstm, crate::AttentionKind::Dot, false);
        let (a, b): (&[usize], &[usize]) = (&[1, 2, 3], &[6, 0, 4]);
        assert_eq!(spec.check_src(&[a, b], 4), Ok(()));
        assert_eq!(spec.check_src(&[&[1u32, 6][..]], 1), Ok(()));
        let cases: [(&[&[usize]], usize, NnError); 6] = [
            (&[], 4, NnError::EmptyCorpus),
            (&[&[], &[]], 4, NnError::EmptySequence),
            (&[a], 0, NnError::EmptySequence),
            (
                &[a, &[1, 2], b],
                4,
                NnError::RaggedSequences {
                    expected: 3,
                    found: 2,
                },
            ),
            (
                &[a, &[1, 7, 2]],
                4,
                NnError::TokenOutOfRange { token: 7, vocab: 7 },
            ),
            // Rows are checked in order: an out-of-vocabulary token is
            // reported before a later ragged sentence.
            (
                &[&[9, 1, 1], &[1]],
                4,
                NnError::TokenOutOfRange { token: 9, vocab: 7 },
            ),
        ];
        for (srcs, out_len, want) in cases {
            assert_eq!(spec.check_src(srcs, out_len), Err(want), "{srcs:?}");
        }
        assert_eq!(
            spec.check_src(&[&[3u32, 7][..]], 2),
            Err(NnError::TokenOutOfRange { token: 7, vocab: 7 })
        );
    }
}
