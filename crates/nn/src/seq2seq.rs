//! Sequence-to-sequence encoder–decoder with Luong global attention.
//!
//! This is the neural machine translation model of the paper (Luong, Pham &
//! Manning, 2015): a recurrent encoder maps the source sentence to a
//! sequence of hidden states; a recurrent decoder, initialized from the
//! encoder's final state, attends over those states and produces one target
//! token per step. Training uses teacher forcing and Adam. A trained model
//! is its weights: [`Seq2Seq::freeze`] packs them into a [`ModelSpec`], and
//! [`crate::InferArena`] decodes that spec greedily.
//!
//! Configurable axes (all from Luong et al.):
//!
//! * [`CellKind`] — LSTM (the paper's cell) or GRU (fewer parameters);
//! * [`AttentionKind`] — `dot` or `general` (bilinear) score functions.
//!
//! Sentences produced by the language pipeline are fixed-length by
//! construction, so no padding or EOS machinery is needed: the decoder
//! always emits exactly as many tokens as the reference sentence.

use crate::error::NnError;
use crate::gru::{BoundGruStack, GruStack};
use crate::infer::{ModelSpec, PackedCell};
use crate::lstm::{BoundStack, LstmStack, LstmState};
use crate::matrix::Matrix;
use crate::optim::Adam;
use crate::tape::{ParamSet, Tape, TensorId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Recurrent cell family used by encoder and decoder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellKind {
    /// Long Short-Term Memory (the paper's choice).
    #[default]
    Lstm,
    /// Gated Recurrent Unit (≈25 % fewer parameters).
    Gru,
}

/// Luong attention score function.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttentionKind {
    /// `score(h_t, h_s) = h_t · h_s`.
    #[default]
    Dot,
    /// `score(h_t, h_s) = h_t W_a · h_s` (bilinear).
    General,
}

/// Hyper-parameters of a [`Seq2Seq`] model.
///
/// The paper (§III-A2) uses 2 LSTM layers with 64 hidden units, 64-dim
/// embeddings, 1000 training steps and dropout 0.2; the defaults here are
/// scaled down for single-core CPU training but are directly comparable
/// because every sensor pair shares one configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Seq2SeqConfig {
    /// Token embedding dimension.
    pub embed_dim: usize,
    /// Hidden units per recurrent layer.
    pub hidden: usize,
    /// Number of stacked recurrent layers in encoder and decoder.
    pub layers: usize,
    /// Recurrent cell family.
    pub cell: CellKind,
    /// Attention score function.
    pub attention: AttentionKind,
    /// Luong *input feeding*: concatenate the previous attentional hidden
    /// state to the decoder input so alignment decisions are remembered
    /// across steps (Luong et al., §3.3).
    pub input_feeding: bool,
    /// Dropout probability applied to embeddings, between stacked LSTM
    /// layers and before the output projection (training only).
    pub dropout: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Number of mini-batch updates performed by [`Seq2Seq::fit`].
    pub train_steps: usize,
    /// Mini-batch size (sampled with replacement).
    pub batch_size: usize,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// RNG seed for initialization, batching and dropout.
    pub seed: u64,
}

impl Seq2SeqConfig {
    /// Checks that a model can be trained with this configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] naming the first offending field:
    /// a zero `embed_dim`, `hidden`, `layers` or `batch_size`; a `dropout`
    /// outside `[0, 1)` (NaN included); or a `learning_rate` or `grad_clip`
    /// that is not finite and positive.
    pub fn validate(&self) -> Result<(), NnError> {
        let invalid = |field, detail: String| Err(NnError::InvalidConfig { field, detail });
        for (field, value) in [
            ("embed_dim", self.embed_dim),
            ("hidden", self.hidden),
            ("layers", self.layers),
            ("batch_size", self.batch_size),
        ] {
            if value == 0 {
                return invalid(field, "0 must be positive".into());
            }
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return invalid("dropout", format!("{} must be in [0, 1)", self.dropout));
        }
        for (field, value) in [
            ("learning_rate", self.learning_rate),
            ("grad_clip", self.grad_clip),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return invalid(field, format!("{value} must be finite and positive"));
            }
        }
        Ok(())
    }
}

impl Default for Seq2SeqConfig {
    fn default() -> Self {
        Self {
            embed_dim: 32,
            hidden: 32,
            layers: 1,
            cell: CellKind::Lstm,
            attention: AttentionKind::Dot,
            input_feeding: false,
            dropout: 0.2,
            learning_rate: 0.01,
            train_steps: 80,
            batch_size: 8,
            grad_clip: 5.0,
            seed: 17,
        }
    }
}

/// Encoder or decoder recurrence of either cell family.
#[derive(Clone, Debug, Serialize, Deserialize)]
enum Recurrent {
    Lstm(LstmStack),
    Gru(GruStack),
}

enum BoundRecurrent {
    Lstm(BoundStack),
    Gru(BoundGruStack),
}

/// Per-layer recurrent state of either family, cheap to clone (ids only).
#[derive(Clone, Debug)]
enum RecState {
    Lstm(Vec<LstmState>),
    Gru(Vec<TensorId>),
}

impl Recurrent {
    fn new(
        cell: CellKind,
        params: &mut ParamSet,
        input: usize,
        hidden: usize,
        layers: usize,
        rng: &mut StdRng,
    ) -> Self {
        match cell {
            CellKind::Lstm => Recurrent::Lstm(LstmStack::new(params, input, hidden, layers, rng)),
            CellKind::Gru => Recurrent::Gru(GruStack::new(params, input, hidden, layers, rng)),
        }
    }

    fn bind(&self, tape: &mut Tape, params: &ParamSet) -> BoundRecurrent {
        match self {
            Recurrent::Lstm(s) => BoundRecurrent::Lstm(s.bind(tape, params)),
            Recurrent::Gru(s) => BoundRecurrent::Gru(s.bind(tape, params)),
        }
    }

    fn pack_infer(&self, params: &ParamSet) -> Vec<PackedCell> {
        match self {
            Recurrent::Lstm(s) => s.pack_infer(params),
            Recurrent::Gru(s) => s.pack_infer(params),
        }
    }

    fn zero_state(&self, tape: &mut Tape, batch: usize) -> RecState {
        match self {
            Recurrent::Lstm(s) => RecState::Lstm(s.zero_state(tape, batch)),
            Recurrent::Gru(s) => RecState::Gru(s.zero_state(tape, batch)),
        }
    }
}

impl BoundRecurrent {
    /// Advances one step; dropout (LSTM inter-layer only) applies when an
    /// rng is supplied.
    fn step(
        &self,
        tape: &mut Tape,
        x: TensorId,
        state: &RecState,
        dropout: f32,
        rng: Option<&mut StdRng>,
    ) -> RecState {
        match (self, state) {
            (BoundRecurrent::Lstm(s), RecState::Lstm(states)) => match rng {
                Some(r) => {
                    let mut sampler = || r.gen::<f32>();
                    RecState::Lstm(s.step(tape, x, states, Some((dropout, &mut sampler))))
                }
                None => RecState::Lstm(s.step(tape, x, states, None)),
            },
            (BoundRecurrent::Gru(s), RecState::Gru(states)) => {
                RecState::Gru(s.step(tape, x, states))
            }
            _ => unreachable!("state family always matches the recurrence family"),
        }
    }
}

impl RecState {
    /// Top layer's hidden output.
    fn top_h(&self) -> TensorId {
        match self {
            RecState::Lstm(states) => states.last().expect("non-empty stack").h,
            RecState::Gru(states) => *states.last().expect("non-empty stack"),
        }
    }
}

/// Encoder–decoder recurrent model with Luong attention. See the
/// [module documentation](self).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Seq2Seq {
    cfg: Seq2SeqConfig,
    params: ParamSet,
    optimizer: Adam,
    src_vocab: usize,
    tgt_vocab: usize,
    bos: usize,
    src_emb: usize,
    tgt_emb: usize,
    encoder: Recurrent,
    decoder: Recurrent,
    /// Bilinear attention weight (`General` attention only).
    w_a: Option<usize>,
    w_c: usize,
    b_c: usize,
    w_out: usize,
    b_out: usize,
}

/// Tape-bound parameter handles, valid for one forward pass.
struct Bound {
    src_emb: TensorId,
    tgt_emb: TensorId,
    enc: BoundRecurrent,
    dec: BoundRecurrent,
    w_a: Option<TensorId>,
    w_c: TensorId,
    b_c: TensorId,
    w_out: TensorId,
    b_out: TensorId,
}

impl Seq2Seq {
    /// Creates a model translating from a `src_vocab`-sized vocabulary to a
    /// `tgt_vocab`-sized vocabulary, with `bos` the target begin-of-sentence
    /// token fed to the decoder at step zero.
    ///
    /// # Panics
    ///
    /// Panics if either vocabulary is empty, `bos >= tgt_vocab`, or any
    /// config dimension is zero.
    pub fn new(src_vocab: usize, tgt_vocab: usize, bos: usize, cfg: Seq2SeqConfig) -> Self {
        assert!(
            src_vocab > 0 && tgt_vocab > 0,
            "vocabularies must be non-empty"
        );
        assert!(
            bos < tgt_vocab,
            "bos token {bos} outside target vocabulary {tgt_vocab}"
        );
        assert!(
            cfg.embed_dim > 0 && cfg.hidden > 0 && cfg.layers > 0 && cfg.batch_size > 0,
            "model dimensions must be positive"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut params = ParamSet::new();
        let src_emb = params.add(Matrix::xavier(src_vocab, cfg.embed_dim, &mut rng));
        let tgt_emb = params.add(Matrix::xavier(tgt_vocab, cfg.embed_dim, &mut rng));
        let encoder = Recurrent::new(
            cfg.cell,
            &mut params,
            cfg.embed_dim,
            cfg.hidden,
            cfg.layers,
            &mut rng,
        );
        let dec_input = if cfg.input_feeding {
            cfg.embed_dim + cfg.hidden
        } else {
            cfg.embed_dim
        };
        let decoder = Recurrent::new(
            cfg.cell,
            &mut params,
            dec_input,
            cfg.hidden,
            cfg.layers,
            &mut rng,
        );
        let w_a = match cfg.attention {
            AttentionKind::Dot => None,
            AttentionKind::General => {
                Some(params.add(Matrix::xavier(cfg.hidden, cfg.hidden, &mut rng)))
            }
        };
        let w_c = params.add(Matrix::xavier(2 * cfg.hidden, cfg.hidden, &mut rng));
        let b_c = params.add(Matrix::zeros(1, cfg.hidden));
        let w_out = params.add(Matrix::xavier(cfg.hidden, tgt_vocab, &mut rng));
        let b_out = params.add(Matrix::zeros(1, tgt_vocab));
        let optimizer = Adam::new(cfg.learning_rate);
        Self {
            cfg,
            params,
            optimizer,
            src_vocab,
            tgt_vocab,
            bos,
            src_emb,
            tgt_emb,
            encoder,
            decoder,
            w_a,
            w_c,
            b_c,
            w_out,
            b_out,
        }
    }

    fn bind(&self, tape: &mut Tape) -> Bound {
        Bound {
            src_emb: tape.param(&self.params, self.src_emb),
            tgt_emb: tape.param(&self.params, self.tgt_emb),
            enc: self.encoder.bind(tape, &self.params),
            dec: self.decoder.bind(tape, &self.params),
            w_a: self.w_a.map(|w| tape.param(&self.params, w)),
            w_c: tape.param(&self.params, self.w_c),
            b_c: tape.param(&self.params, self.b_c),
            w_out: tape.param(&self.params, self.w_out),
            b_out: tape.param(&self.params, self.b_out),
        }
    }

    /// Encodes a batch; returns per-step top-layer hidden states and the
    /// final state.
    fn encode(
        &self,
        tape: &mut Tape,
        bound: &Bound,
        src: &[&[usize]],
        rng: Option<&mut StdRng>,
    ) -> (Vec<TensorId>, RecState) {
        let batch = src.len();
        let steps = src[0].len();
        let mut state = self.encoder.zero_state(tape, batch);
        let mut enc_hs = Vec::with_capacity(steps);
        let mut rng = rng;
        for t in 0..steps {
            let tokens: Vec<usize> = src.iter().map(|s| s[t]).collect();
            let mut x = tape.gather(bound.src_emb, &tokens);
            if let Some(r) = rng.as_deref_mut() {
                x = tape.dropout(x, self.cfg.dropout, r);
            }
            state = bound
                .enc
                .step(tape, x, &state, self.cfg.dropout, rng.as_deref_mut());
            enc_hs.push(state.top_h());
        }
        (enc_hs, state)
    }

    /// One decoder step: embeds `prev_tokens`, advances the stack, attends
    /// over `enc_hs` and returns `(logits, new_state, h_att)` — the
    /// attentional hidden state is fed back as extra input when input
    /// feeding is enabled.
    #[allow(clippy::too_many_arguments)]
    fn decode_step(
        &self,
        tape: &mut Tape,
        bound: &Bound,
        prev_tokens: &[usize],
        state: &RecState,
        prev_att: Option<TensorId>,
        enc_hs: &[TensorId],
        rng: Option<&mut StdRng>,
    ) -> (TensorId, RecState, TensorId) {
        let mut rng = rng;
        let mut x = tape.gather(bound.tgt_emb, prev_tokens);
        if let Some(r) = rng.as_deref_mut() {
            x = tape.dropout(x, self.cfg.dropout, r);
        }
        if self.cfg.input_feeding {
            let feed = match prev_att {
                Some(h) => h,
                None => tape.zeros(prev_tokens.len(), self.cfg.hidden),
            };
            x = tape.concat_cols(x, feed);
        }
        let new_state = bound
            .dec
            .step(tape, x, state, self.cfg.dropout, rng.as_deref_mut());
        let h_top = new_state.top_h();

        // Luong attention over the encoder states: the query is h_t (dot)
        // or h_t W_a (general).
        let query = match bound.w_a {
            Some(w_a) => tape.matmul(h_top, w_a),
            None => h_top,
        };
        let context = tape.attention(query, enc_hs);

        let cat = tape.concat_cols(context, h_top);
        let mut h_att = tape.matmul(cat, bound.w_c);
        h_att = tape.add_row(h_att, bound.b_c);
        h_att = tape.tanh(h_att);
        let feed_back = h_att;
        if let Some(r) = rng {
            h_att = tape.dropout(h_att, self.cfg.dropout, r);
        }
        let mut logits = tape.matmul(h_att, bound.w_out);
        logits = tape.add_row(logits, bound.b_out);
        (logits, new_state, feed_back)
    }

    /// Runs one teacher-forced training step on a batch and returns the mean
    /// per-token cross-entropy loss. The caller owns the tape and resets it
    /// between steps so buffer allocations are reused across the whole run.
    fn train_batch(
        &mut self,
        tape: &mut Tape,
        src: &[&[usize]],
        tgt: &[&[usize]],
        rng: &mut StdRng,
    ) -> f32 {
        tape.reset();
        let bound = self.bind(tape);
        let (enc_hs, final_state) = self.encode(tape, &bound, src, Some(rng));
        let tgt_len = tgt[0].len();
        let batch = tgt.len();
        let mut state = final_state;
        let mut att: Option<TensorId> = None;
        let mut losses = Vec::with_capacity(tgt_len);
        for t in 0..tgt_len {
            let prev: Vec<usize> = if t == 0 {
                vec![self.bos; batch]
            } else {
                tgt.iter().map(|s| s[t - 1]).collect()
            };
            let (logits, new_state, new_att) =
                self.decode_step(tape, &bound, &prev, &state, att, &enc_hs, Some(rng));
            state = new_state;
            att = Some(new_att);
            let targets: Vec<usize> = tgt.iter().map(|s| s[t]).collect();
            losses.push(tape.cross_entropy(logits, &targets));
        }
        let loss = tape.mean_of(&losses);
        let loss_value = tape.value(loss).get(0, 0);
        self.params.zero_grads();
        tape.backward_accumulate(loss, &mut self.params);
        self.params.clip_grads(self.cfg.grad_clip);
        self.optimizer.step(&mut self.params);
        loss_value
    }

    /// Trains on aligned sentence pairs for `config().train_steps` mini-batch
    /// updates and returns the loss curve.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the configuration is out of
    /// range ([`Seq2SeqConfig::validate`]). Returns an error if `pairs` is
    /// empty, any sentence is empty, lengths are inconsistent, or a token is
    /// out of vocabulary. Returns
    /// [`NnError::Diverged`] as soon as a step's loss is NaN or infinite —
    /// the parameters are corrupted past that point, so training stops
    /// immediately instead of burning the remaining steps; callers should
    /// discard the model and retrain (typically re-seeded, with a lower
    /// learning rate).
    pub fn fit(&mut self, pairs: &[(Vec<usize>, Vec<usize>)]) -> Result<Vec<f32>, NnError> {
        self.cfg.validate()?;
        self.validate(pairs)?;
        let mut span = mdes_obs::span("nn.fit");
        span.field("steps", self.cfg.train_steps);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed.wrapping_add(1));
        let mut losses = Vec::with_capacity(self.cfg.train_steps);
        // One tape for the whole run: every step replays the same op sequence,
        // so after the first step the forward+backward pass reuses its buffers
        // instead of allocating.
        let mut tape = Tape::new();
        for step in 0..self.cfg.train_steps {
            let batch: Vec<usize> = (0..self.cfg.batch_size)
                .map(|_| rng.gen_range(0..pairs.len()))
                .collect();
            let src: Vec<&[usize]> = batch.iter().map(|&i| pairs[i].0.as_slice()).collect();
            let tgt: Vec<&[usize]> = batch.iter().map(|&i| pairs[i].1.as_slice()).collect();
            let loss = self.train_batch(&mut tape, &src, &tgt, &mut rng);
            if !loss.is_finite() {
                mdes_obs::event(
                    "nn.diverged",
                    &[("step", step.into()), ("seed", self.cfg.seed.into())],
                );
                return Err(NnError::Diverged { step });
            }
            losses.push(loss);
        }
        span.field(
            "final_loss",
            f64::from(losses.last().copied().unwrap_or(0.0)),
        );
        Ok(losses)
    }

    fn validate(&self, pairs: &[(Vec<usize>, Vec<usize>)]) -> Result<(), NnError> {
        if pairs.is_empty() {
            return Err(NnError::EmptyCorpus);
        }
        let (src_len, tgt_len) = (pairs[0].0.len(), pairs[0].1.len());
        if src_len == 0 || tgt_len == 0 {
            return Err(NnError::EmptySequence);
        }
        for (s, t) in pairs {
            if s.len() != src_len {
                return Err(NnError::RaggedSequences {
                    expected: src_len,
                    found: s.len(),
                });
            }
            if t.len() != tgt_len {
                return Err(NnError::RaggedSequences {
                    expected: tgt_len,
                    found: t.len(),
                });
            }
            if let Some(&tok) = s.iter().find(|&&tok| tok >= self.src_vocab) {
                return Err(NnError::TokenOutOfRange {
                    token: tok,
                    vocab: self.src_vocab,
                });
            }
            if let Some(&tok) = t.iter().find(|&&tok| tok >= self.tgt_vocab) {
                return Err(NnError::TokenOutOfRange {
                    token: tok,
                    vocab: self.tgt_vocab,
                });
            }
        }
        Ok(())
    }

    /// Freezes the current parameters into a serving artifact.
    ///
    /// The returned [`ModelSpec`] carries only packed weights — no tape,
    /// optimizer moments or gradient buffers — serializes compactly, and
    /// decodes through an [`crate::InferArena`] bit-identically to this
    /// model's tape forward pass (pinned by the tape-oracle tests below).
    /// It is the only way to decode a trained model, and the artifact
    /// serving layers deploy and hot-swap.
    pub fn freeze(&self) -> ModelSpec {
        use crate::QMatrix;
        ModelSpec {
            src_emb: QMatrix::F32(self.params.value(self.src_emb).clone()),
            tgt_emb: QMatrix::F32(self.params.value(self.tgt_emb).clone()),
            encoder: self.encoder.pack_infer(&self.params),
            decoder: self.decoder.pack_infer(&self.params),
            w_a: self.w_a.map(|w| QMatrix::F32(self.params.value(w).clone())),
            w_c: QMatrix::F32(self.params.value(self.w_c).clone()),
            b_c: self.params.value(self.b_c).clone(),
            w_out: QMatrix::F32(self.params.value(self.w_out).clone()),
            b_out: self.params.value(self.b_out).clone(),
            hidden: self.cfg.hidden,
            input_feeding: self.cfg.input_feeding,
            bos: self.bos,
        }
    }
}

#[cfg(test)]
/// The tape forward pass as a decoder: the parity oracle for
/// [`crate::InferArena`], compiled into test builds only (the same pattern
/// as [`crate::reference`] for the fast kernels). Inputs must pass
/// [`ModelSpec::check_src`].
impl Seq2Seq {
    /// Batched greedy translation on the autodiff tape.
    fn translate_batch_tape(&self, srcs: &[&[usize]], out_len: usize) -> Vec<Vec<usize>> {
        let batch = srcs.len();
        let mut tape = Tape::new();
        let bound = self.bind(&mut tape);
        let (enc_hs, final_state) = self.encode(&mut tape, &bound, srcs, None);
        let mut state = final_state;
        let mut att: Option<TensorId> = None;
        let mut prev = vec![self.bos; batch];
        let mut out = vec![Vec::with_capacity(out_len); batch];
        for _ in 0..out_len {
            let (logits, new_state, new_att) =
                self.decode_step(&mut tape, &bound, &prev, &state, att, &enc_hs, None);
            state = new_state;
            att = Some(new_att);
            for (b, o) in out.iter_mut().enumerate() {
                let tok = tape.value(logits).argmax_row(b);
                o.push(tok);
            }
            prev = out
                .iter()
                .map(|o| *o.last().expect("pushed above"))
                .collect();
        }
        out
    }

    /// Single-sentence greedy translation on the tape.
    fn translate_tape(&self, src: &[usize], out_len: usize) -> Vec<usize> {
        self.translate_batch_tape(&[src], out_len)
            .pop()
            .expect("one output per input")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InferArena;
    use proptest::prelude::*;

    /// Builds a toy corpus where the target is the source with every token
    /// shifted by one (mod vocab) — learnable by a tiny model.
    fn shifted_corpus(n: usize, len: usize, vocab: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
        let mut rng = StdRng::seed_from_u64(3);
        (0..n)
            .map(|_| {
                let src: Vec<usize> = (0..len).map(|_| rng.gen_range(2..vocab)).collect();
                let tgt: Vec<usize> = src.iter().map(|&t| (t + 1) % vocab).collect();
                (src, tgt)
            })
            .collect()
    }

    fn tiny_config() -> Seq2SeqConfig {
        Seq2SeqConfig {
            embed_dim: 16,
            hidden: 16,
            layers: 1,
            dropout: 0.1,
            learning_rate: 0.02,
            train_steps: 120,
            batch_size: 8,
            grad_clip: 5.0,
            seed: 11,
            ..Seq2SeqConfig::default()
        }
    }

    /// Greedy decode of one sentence the production way: frozen spec,
    /// checked input, arena.
    fn decode(
        spec: &ModelSpec,
        arena: &mut InferArena,
        src: &[usize],
        out_len: usize,
    ) -> Vec<usize> {
        spec.check_src(&[src], out_len).expect("valid input");
        arena
            .translate_batch(spec, &[src], out_len)
            .pop()
            .expect("one output per input")
    }

    fn accuracy(model: &Seq2Seq, corpus: &[(Vec<usize>, Vec<usize>)]) -> f32 {
        let spec = model.freeze();
        let mut arena = InferArena::new();
        let mut correct = 0;
        let mut total = 0;
        for (src, tgt) in corpus.iter().take(10) {
            let hyp = decode(&spec, &mut arena, src, tgt.len());
            correct += hyp.iter().zip(tgt).filter(|(a, b)| a == b).count();
            total += tgt.len();
        }
        correct as f32 / total as f32
    }

    #[test]
    fn fit_reduces_loss_and_translates_shift_task() {
        let corpus = shifted_corpus(40, 5, 8);
        let mut model = Seq2Seq::new(8, 8, 1, tiny_config());
        let losses = model.fit(&corpus).expect("fit");
        let head: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let tail: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(tail < head * 0.5, "loss did not drop: {head} -> {tail}");
        let acc = accuracy(&model, &corpus);
        assert!(acc > 0.6, "accuracy too low: {acc}");
    }

    #[test]
    fn gru_cell_learns_the_task_with_fewer_parameters() {
        let corpus = shifted_corpus(40, 5, 8);
        let lstm = Seq2Seq::new(8, 8, 1, tiny_config());
        let mut model = Seq2Seq::new(
            8,
            8,
            1,
            Seq2SeqConfig {
                cell: CellKind::Gru,
                train_steps: 150,
                ..tiny_config()
            },
        );
        assert!(model.freeze().approx_bytes() < lstm.freeze().approx_bytes());
        model.fit(&corpus).expect("fit");
        let acc = accuracy(&model, &corpus);
        assert!(acc > 0.6, "gru accuracy too low: {acc}");
    }

    #[test]
    fn general_attention_learns_the_task() {
        let corpus = shifted_corpus(40, 5, 8);
        let mut model = Seq2Seq::new(
            8,
            8,
            1,
            Seq2SeqConfig {
                attention: AttentionKind::General,
                ..tiny_config()
            },
        );
        model.fit(&corpus).expect("fit");
        let acc = accuracy(&model, &corpus);
        assert!(acc > 0.6, "general-attention accuracy too low: {acc}");
    }

    #[test]
    fn input_feeding_learns_the_task() {
        let corpus = shifted_corpus(40, 5, 8);
        let mut model = Seq2Seq::new(
            8,
            8,
            1,
            Seq2SeqConfig {
                input_feeding: true,
                train_steps: 150,
                ..tiny_config()
            },
        );
        model.fit(&corpus).expect("fit");
        let acc = accuracy(&model, &corpus);
        assert!(acc > 0.6, "input-feeding accuracy too low: {acc}");
    }

    #[test]
    fn two_layer_stack_learns_the_task() {
        let corpus = shifted_corpus(40, 5, 8);
        let mut model = Seq2Seq::new(
            8,
            8,
            1,
            Seq2SeqConfig {
                layers: 2,
                train_steps: 160,
                ..tiny_config()
            },
        );
        model.fit(&corpus).expect("fit");
        let acc = accuracy(&model, &corpus);
        assert!(acc > 0.55, "two-layer accuracy too low: {acc}");
    }

    #[test]
    fn translate_output_length_and_range() {
        let corpus = shifted_corpus(10, 4, 6);
        let mut cfg = tiny_config();
        cfg.train_steps = 5;
        let mut model = Seq2Seq::new(6, 6, 1, cfg);
        model.fit(&corpus).expect("fit");
        let out = decode(&model.freeze(), &mut InferArena::new(), &corpus[0].0, 7);
        assert_eq!(out.len(), 7);
        assert!(out.iter().all(|&t| t < 6));
    }

    #[test]
    fn absurd_learning_rate_surfaces_as_diverged() {
        let corpus = shifted_corpus(20, 4, 6);
        let mut cfg = tiny_config();
        // Adam's per-step update magnitude is ~learning_rate, so the output
        // projection overflows f32 within a few steps, logits hit ±inf, and
        // the (max-subtracted) cross-entropy produces inf - inf = NaN.
        cfg.learning_rate = 1e38;
        cfg.train_steps = 50;
        let mut model = Seq2Seq::new(6, 6, 1, cfg);
        let r = model.fit(&corpus);
        assert!(
            matches!(r, Err(NnError::Diverged { .. })),
            "expected divergence, got {r:?}"
        );
    }

    /// One training step of the `fit_fleet` benchmark's pair model (embed 8,
    /// hidden 8, batch 4, sentences of 10 words) records 207 tape nodes:
    /// 3 per LSTM step and 1 per attention step.
    #[test]
    fn fleet_shaped_train_step_records_at_most_210_nodes() {
        let corpus = shifted_corpus(8, 10, 12);
        let mut model = Seq2Seq::new(
            12,
            12,
            1,
            Seq2SeqConfig {
                embed_dim: 8,
                hidden: 8,
                batch_size: 4,
                ..Seq2SeqConfig::default()
            },
        );
        let src: Vec<&[usize]> = corpus[..4].iter().map(|p| p.0.as_slice()).collect();
        let tgt: Vec<&[usize]> = corpus[..4].iter().map(|p| p.1.as_slice()).collect();
        let mut tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(1);
        let loss = model.train_batch(&mut tape, &src, &tgt, &mut rng);
        assert!(loss.is_finite());
        assert!(tape.len() <= 210, "{} tape nodes", tape.len());
    }

    #[test]
    fn fit_rejects_an_out_of_range_config() {
        let corpus = shifted_corpus(4, 3, 6);
        for (field, cfg) in [
            (
                "dropout",
                Seq2SeqConfig {
                    dropout: 1.0,
                    ..tiny_config()
                },
            ),
            (
                "dropout",
                Seq2SeqConfig {
                    dropout: f32::NAN,
                    ..tiny_config()
                },
            ),
            (
                "learning_rate",
                Seq2SeqConfig {
                    learning_rate: -0.01,
                    ..tiny_config()
                },
            ),
            (
                "grad_clip",
                Seq2SeqConfig {
                    grad_clip: f32::INFINITY,
                    ..tiny_config()
                },
            ),
        ] {
            let mut model = Seq2Seq::new(6, 6, 1, cfg);
            match model.fit(&corpus) {
                Err(NnError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected InvalidConfig for {field}, got {other:?}"),
            }
        }
        let zero_dim = Seq2SeqConfig {
            embed_dim: 0,
            ..tiny_config()
        };
        assert!(matches!(
            zero_dim.validate(),
            Err(NnError::InvalidConfig {
                field: "embed_dim",
                ..
            })
        ));
        assert_eq!(tiny_config().validate(), Ok(()));
    }

    #[test]
    fn fit_rejects_empty_corpus() {
        let mut model = Seq2Seq::new(4, 4, 0, tiny_config());
        assert_eq!(model.fit(&[]), Err(NnError::EmptyCorpus));
    }

    #[test]
    fn fit_rejects_ragged_sources() {
        let mut model = Seq2Seq::new(4, 4, 0, tiny_config());
        let pairs = vec![(vec![1, 2], vec![1, 2]), (vec![1], vec![1, 2])];
        assert_eq!(
            model.fit(&pairs),
            Err(NnError::RaggedSequences {
                expected: 2,
                found: 1
            })
        );
    }

    #[test]
    fn fit_rejects_out_of_vocab_token() {
        let mut model = Seq2Seq::new(4, 4, 0, tiny_config());
        let pairs = vec![(vec![1, 9], vec![1, 2])];
        assert_eq!(
            model.fit(&pairs),
            Err(NnError::TokenOutOfRange { token: 9, vocab: 4 })
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let corpus = shifted_corpus(10, 4, 6);
        let mut cfg = tiny_config();
        cfg.train_steps = 10;
        let mut a = Seq2Seq::new(6, 6, 1, cfg.clone());
        let mut b = Seq2Seq::new(6, 6, 1, cfg);
        let la = a.fit(&corpus).expect("fit a");
        let lb = b.fit(&corpus).expect("fit b");
        assert_eq!(la, lb);
        assert_eq!(a.freeze(), b.freeze());
    }

    #[test]
    fn serde_roundtrip_preserves_translation() {
        let corpus = shifted_corpus(10, 4, 6);
        let mut cfg = tiny_config();
        cfg.train_steps = 20;
        let mut model = Seq2Seq::new(6, 6, 1, cfg);
        model.fit(&corpus).expect("fit");
        let json = serde_json::to_string(&model).expect("serialize");
        let restored: Seq2Seq = serde_json::from_str(&json).expect("deserialize");
        let mut arena = InferArena::new();
        assert_eq!(
            decode(&model.freeze(), &mut arena, &corpus[1].0, 4),
            decode(&restored.freeze(), &mut arena, &corpus[1].0, 4)
        );
    }

    // Tape-oracle parity: the arena must decode a frozen spec bit for bit as
    // the tape forward pass does — not approximately — on any configuration:
    // both cell families, both attention kinds, input feeding on/off,
    // stacked layers, greedy single and greedy batched decoding. Unit
    // tests also run under `--features reference-kernels`, so both kernel
    // families are checked against the oracle.

    /// A model with xavier-initialized (untrained) weights — parity is a
    /// property of the arithmetic, not of the weight values, and skipping
    /// `fit` keeps the proptest cases fast.
    fn build_model(
        vocab: usize,
        cell: CellKind,
        attention: AttentionKind,
        input_feeding: bool,
        layers: usize,
        seed: u64,
    ) -> Seq2Seq {
        let cfg = Seq2SeqConfig {
            embed_dim: 6,
            hidden: 7,
            layers,
            cell,
            attention,
            input_feeding,
            seed,
            ..Seq2SeqConfig::default()
        };
        Seq2Seq::new(vocab, vocab, 0, cfg)
    }

    fn random_sentence(len: usize, vocab: usize, rng: &mut StdRng) -> Vec<usize> {
        (0..len).map(|_| rng.gen_range(0..vocab)).collect()
    }

    fn cell_from(flag: u8) -> CellKind {
        if flag != 0 {
            CellKind::Gru
        } else {
            CellKind::Lstm
        }
    }

    fn attention_from(flag: u8) -> AttentionKind {
        if flag != 0 {
            AttentionKind::General
        } else {
            AttentionKind::Dot
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Greedy single-sentence decoding: arena bit-identical to the tape.
        /// Two rounds per case so the second run exercises the warm scratch
        /// arena, not just a fresh one.
        #[test]
        fn greedy_matches_tape_exactly(
            gru in 0u8..=1,
            general in 0u8..=1,
            feeding in 0u8..=1,
            layers in 1usize..=2,
            src_len in 1usize..=6,
            out_len in 1usize..=6,
            vocab in 3usize..=9,
            seed in 0u64..1 << 32,
        ) {
            let model = build_model(vocab, cell_from(gru), attention_from(general), feeding != 0, layers, seed);
            let spec = model.freeze();
            let mut arena = InferArena::new();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            for _ in 0..2 {
                let src = random_sentence(src_len, vocab, &mut rng);
                let engine = decode(&spec, &mut arena, &src, out_len);
                prop_assert_eq!(engine, model.translate_tape(&src, out_len));
            }
        }

        /// Batched greedy decoding: arena bit-identical to the tape,
        /// including batch-size changes between calls on the same arena.
        #[test]
        fn batched_matches_tape_exactly(
            gru in 0u8..=1,
            general in 0u8..=1,
            feeding in 0u8..=1,
            layers in 1usize..=2,
            src_len in 1usize..=5,
            out_len in 1usize..=5,
            batch in 1usize..=4,
            vocab in 3usize..=9,
            seed in 0u64..1 << 32,
        ) {
            let model = build_model(vocab, cell_from(gru), attention_from(general), feeding != 0, layers, seed);
            let spec = model.freeze();
            let mut arena = InferArena::new();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
            for round in 0..2 {
                let b = if round == 0 { batch } else { (batch % 4) + 1 };
                let sentences: Vec<Vec<usize>> =
                    (0..b).map(|_| random_sentence(src_len, vocab, &mut rng)).collect();
                let srcs: Vec<&[usize]> = sentences.iter().map(Vec::as_slice).collect();
                spec.check_src(&srcs, out_len).expect("valid input");
                let engine = arena.translate_batch(&spec, &srcs, out_len);
                prop_assert_eq!(engine, model.translate_batch_tape(&srcs, out_len));
            }
        }

    }

    /// Training changes the weights, so a spec frozen before a refit is
    /// stale: the spec frozen after it must decode as the refitted tape does.
    #[test]
    fn refreeze_after_refit_matches_tape() {
        let pairs: Vec<(Vec<usize>, Vec<usize>)> = {
            let mut rng = StdRng::seed_from_u64(3);
            (0..20)
                .map(|_| {
                    let src: Vec<usize> = (0..4).map(|_| rng.gen_range(1..6)).collect();
                    let tgt: Vec<usize> = src.iter().map(|&t| (t + 1) % 6).collect();
                    (src, tgt)
                })
                .collect()
        };
        let cfg = Seq2SeqConfig {
            embed_dim: 8,
            hidden: 8,
            train_steps: 15,
            ..Seq2SeqConfig::default()
        };
        let mut model = Seq2Seq::new(6, 6, 0, cfg);
        model.fit(&pairs).expect("fit");
        let first = model.freeze();
        let mut arena = InferArena::new();
        let src = &pairs[0].0;
        let before = decode(&first, &mut arena, src, 4);
        assert_eq!(before, model.translate_tape(src, 4));
        model.fit(&pairs).expect("refit");
        let second = model.freeze();
        assert_ne!(first, second, "the refit must move the weights");
        assert_eq!(
            decode(&second, &mut arena, src, 4),
            model.translate_tape(src, 4),
            "the spec frozen after the refit diverged from the tape"
        );
    }

    /// A deserialized model freezes to the same spec, which decodes as the
    /// original's tape does.
    #[test]
    fn serde_roundtrip_engine_matches_tape() {
        let mut rng = StdRng::seed_from_u64(9);
        let model = build_model(7, CellKind::Lstm, AttentionKind::General, true, 2, 42);
        let src = random_sentence(5, 7, &mut rng);
        let json = serde_json::to_string(&model).expect("serialize");
        let restored: Seq2Seq = serde_json::from_str(&json).expect("deserialize");
        let spec = restored.freeze();
        assert_eq!(spec, model.freeze());
        let engine = decode(&spec, &mut InferArena::new(), &src, 5);
        assert_eq!(engine, model.translate_tape(&src, 5));
        assert_eq!(engine, restored.translate_tape(&src, 5));
    }

    /// A frozen `ModelSpec`, round-tripped through serde and decoded through
    /// a cold shared `InferArena`, must stay bit-identical to the tape
    /// oracle — this is the serving-artifact contract, checked across both
    /// cell families and both attention kinds.
    #[test]
    fn frozen_spec_roundtrip_matches_tape_exactly() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut arena = InferArena::new();
        for (i, (cell, attention, feeding)) in [
            (CellKind::Lstm, AttentionKind::Dot, false),
            (CellKind::Lstm, AttentionKind::General, true),
            (CellKind::Gru, AttentionKind::Dot, true),
            (CellKind::Gru, AttentionKind::General, false),
        ]
        .into_iter()
        .enumerate()
        {
            let model = build_model(8, cell, attention, feeding, 2, 100 + i as u64);
            let spec = model.freeze();
            let json = serde_json::to_string(&spec).expect("serialize spec");
            let restored: ModelSpec = serde_json::from_str(&json).expect("deserialize spec");
            assert_eq!(spec, restored, "freeze artifact must round-trip exactly");
            assert_eq!(restored.src_vocab(), 8);
            assert_eq!(restored.tgt_vocab(), 8);
            assert!(restored.approx_bytes() > 0);
            for _ in 0..2 {
                let sentences: Vec<Vec<usize>> =
                    (0..3).map(|_| random_sentence(4, 8, &mut rng)).collect();
                let srcs: Vec<&[usize]> = sentences.iter().map(Vec::as_slice).collect();
                // The same warm arena serves every spec in turn, as a serving
                // worker would.
                let engine = arena.translate_batch(&restored, &srcs, 5);
                let tape = model.translate_batch_tape(&srcs, 5);
                assert_eq!(engine, tape, "frozen decode diverged from the tape");
            }
        }
    }
}
