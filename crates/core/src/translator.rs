//! Pairwise sequence translators.
//!
//! The paper quantifies the relationship between two sensors by *training a
//! translation model* from one sensor's language to the other's and scoring
//! its translations with BLEU. [`train_translator`] trains one of two
//! families into a [`FrozenTranslator`]:
//!
//! * the paper's model: a seq2seq LSTM with Luong attention (from
//!   `mdes-nn`), kept as its frozen weights ([`FrozenNmt`]);
//! * [`NgramTranslator`] — a position-aligned statistical model with a
//!   target-bigram term. It trains in microseconds and preserves the score
//!   *ordering* (strongly coupled pairs score high, unrelated pairs low),
//!   which makes full 128-sensor sweeps feasible on one CPU core. The
//!   `exp_ablation_translator` experiment quantifies its agreement with the
//!   NMT scores.

use crate::error::CoreError;
use mdes_nn::{InferArena, ModelSpec, QuantMode, QuantReport, Seq2Seq, Seq2SeqConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Which translator family Algorithm 1 trains for every sensor pair.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TranslatorConfig {
    /// Statistical position-aligned model (fast path).
    Ngram(NgramConfig),
    /// Neural seq2seq with attention (the paper's model).
    Nmt(Seq2SeqConfig),
}

impl TranslatorConfig {
    /// The default fast configuration.
    #[must_use]
    pub fn fast() -> Self {
        TranslatorConfig::Ngram(NgramConfig::default())
    }

    /// The paper-faithful neural configuration (scaled-down dimensions).
    #[must_use]
    pub fn neural() -> Self {
        TranslatorConfig::Nmt(Seq2SeqConfig::default())
    }

    /// Checks that pair models can be trained with this configuration, so a
    /// sweep can refuse a bad one before any pair trains.
    ///
    /// # Errors
    ///
    /// [`CoreError::Nn`] with [`mdes_nn::NnError::InvalidConfig`] for an
    /// out-of-range neural configuration ([`Seq2SeqConfig::validate`]).
    pub fn validate(&self) -> Result<(), CoreError> {
        match self {
            TranslatorConfig::Ngram(_) => Ok(()),
            TranslatorConfig::Nmt(c) => Ok(c.validate()?),
        }
    }
}

/// Trains a translator of the configured family on aligned sentence pairs.
///
/// `src_vocab` / `tgt_vocab` are total vocabulary sizes (reserved tokens
/// included); `bos` is the target begin-of-sentence id.
///
/// # Errors
///
/// Returns an error if the corpus is empty or malformed, or the neural
/// configuration is out of range ([`TranslatorConfig::validate`]; checked
/// here because [`Seq2Seq::new`] asserts positive dimensions).
pub fn train_translator(
    cfg: &TranslatorConfig,
    pairs: &[(Vec<u32>, Vec<u32>)],
    src_vocab: usize,
    tgt_vocab: usize,
    bos: u32,
) -> Result<FrozenTranslator, CoreError> {
    if pairs.is_empty() {
        return Err(CoreError::EmptyCorpus);
    }
    cfg.validate()?;
    match cfg {
        TranslatorConfig::Ngram(c) => Ok(FrozenTranslator::Ngram(NgramTranslator::fit(pairs, c))),
        TranslatorConfig::Nmt(c) => {
            let usize_pairs: Vec<(Vec<usize>, Vec<usize>)> = pairs
                .iter()
                .map(|(s, t)| {
                    (
                        s.iter().map(|&w| w as usize).collect(),
                        t.iter().map(|&w| w as usize).collect(),
                    )
                })
                .collect();
            let mut model = Seq2Seq::new(src_vocab, tgt_vocab, bos as usize, c.clone());
            model.fit(&usize_pairs)?;
            // The trained pair is its weights: the tape, gradients and Adam
            // moments go with `model` here.
            Ok(FrozenTranslator::Nmt(FrozenNmt::new(model.freeze())))
        }
    }
}

/// Hyper-parameters for [`NgramTranslator`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NgramConfig {
    /// Additive smoothing constant.
    pub alpha: f64,
    /// Weight of the target-bigram language-model term (the position-aligned
    /// channel term has weight 1).
    pub lm_weight: f64,
    /// Candidate beam for the marginal fallback: when the channel has no
    /// entry for a source word, only the `fallback_beam` most frequent
    /// target words at that position are scored.
    pub fallback_beam: usize,
}

impl Default for NgramConfig {
    fn default() -> Self {
        Self {
            alpha: 0.1,
            lm_weight: 0.3,
            fallback_beam: 50,
        }
    }
}

/// Position-aligned statistical translator with a target-bigram term.
///
/// For target position `p`, candidate scores combine `P(tgt | src_p, p)`
/// (channel) and `P(tgt | prev_tgt)` (language model), both with additive
/// smoothing; decoding is greedy left-to-right.
///
/// The serialized form is the count tables alone. Decoding runs on
/// lookup tables derived from them on first use, so the artifact bytes
/// do not depend on them and loading an artifact does not pay for them.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NgramTranslator {
    cfg: NgramConfig,
    /// channel[p][src] -> target counts at position p.
    channel: Vec<HashMap<u32, HashMap<u32, u32>>>,
    /// Position marginals of target words.
    marginal: Vec<HashMap<u32, u32>>,
    /// Top fallback candidates per position (most frequent first, then by
    /// id), capped at `cfg.fallback_beam`.
    marginal_top: Vec<Vec<u32>>,
    /// Top channel candidates per (position, source word), capped at
    /// `cfg.fallback_beam` (decode-time beam).
    channel_top: Vec<HashMap<u32, Vec<u32>>>,
    /// Target bigram counts.
    bigram: HashMap<u32, HashMap<u32, u32>>,
    tgt_len: usize,
    #[serde(skip)]
    tables: OnceLock<DecodeTables>,
}

/// A run of `(word, log-score)` entries in one of [`DecodeTables`]' flat
/// arrays.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn of<'a>(&self, entries: &'a [(u32, f64)]) -> &'a [(u32, f64)] {
        &entries[self.start as usize..self.end as usize]
    }
}

/// The channel counts of one source word at one position: its candidate
/// beam and the counts' total.
#[derive(Clone, Copy, Debug)]
struct ChanRow {
    src: u32,
    beam: Span,
    /// Sum of the counts (for `log_likelihood`).
    total: f64,
}

/// The bigram counts following one previous word: every following word
/// with its log-score, and the log-score of a word the counts lack.
#[derive(Clone, Copy, Debug)]
struct LmRow {
    prev: u32,
    next: Span,
    miss: f64,
}

/// Lookup tables derived from an [`NgramTranslator`]'s counts, with every
/// log-score greedy decoding needs computed once. Rows are sorted by key
/// and entries within an LM row by word, so decoding binary-searches
/// instead of hashing.
#[derive(Clone, Debug)]
struct DecodeTables {
    /// Per channel position, one row per source word seen there; its beam
    /// is in `channel_top` order, with channel scores.
    chan: Vec<Vec<ChanRow>>,
    /// Per target position, the positional-marginal fallback beam.
    fallback: Vec<Span>,
    /// Totals of the positional marginals (for `log_likelihood`).
    marginal_total: Vec<f64>,
    /// Beam entries: `(candidate, channel log-score)`.
    beams: Vec<(u32, f64)>,
    /// One row per previous target word.
    lm: Vec<LmRow>,
    /// LM entries: `(word, bigram log-score)`.
    lm_entries: Vec<(u32, f64)>,
    /// Log-score of any word when no count table applies.
    unseen: f64,
}

impl DecodeTables {
    fn build(t: &NgramTranslator) -> Self {
        let alpha = t.cfg.alpha;
        let total = |m: &HashMap<u32, u32>| m.values().map(|&c| c as f64).sum::<f64>();
        // Score of a word counted `c` times in table `m` of total `n`.
        let score = |m: &HashMap<u32, u32>, n: f64, c: u32| {
            log_score(f64::from(c), n, m.len().max(1) as f64, alpha)
        };
        let unseen = log_score(0.0, 0.0, 1.0, alpha);
        let mut beams = Vec::new();
        let mut push_beam = |words: &[u32], entry: &dyn Fn(u32) -> f64| {
            let start = beams.len() as u32;
            beams.extend(words.iter().map(|&w| (w, entry(w))));
            Span {
                start,
                end: beams.len() as u32,
            }
        };
        let chan = t
            .channel
            .iter()
            .zip(&t.channel_top)
            .map(|(counts, tops)| {
                let mut rows: Vec<ChanRow> = counts
                    .iter()
                    .map(|(&src, m)| {
                        let n = total(m);
                        let beam = tops.get(&src).map_or(&[][..], Vec::as_slice);
                        ChanRow {
                            src,
                            beam: push_beam(beam, &|w| {
                                score(m, n, m.get(&w).copied().unwrap_or(0))
                            }),
                            total: n,
                        }
                    })
                    .collect();
                rows.sort_unstable_by_key(|r| r.src);
                rows
            })
            .collect();
        let fallback = t
            .marginal_top
            .iter()
            .map(|words| push_beam(words, &|_| unseen))
            .collect();
        let mut lm_entries = Vec::new();
        let mut lm: Vec<LmRow> = t
            .bigram
            .iter()
            .map(|(&prev, m)| {
                let n = total(m);
                let start = lm_entries.len() as u32;
                lm_entries.extend(m.iter().map(|(&w, &c)| (w, score(m, n, c))));
                lm_entries[start as usize..].sort_unstable_by_key(|e| e.0);
                LmRow {
                    prev,
                    next: Span {
                        start,
                        end: lm_entries.len() as u32,
                    },
                    miss: score(m, n, 0),
                }
            })
            .collect();
        lm.sort_unstable_by_key(|r| r.prev);
        Self {
            chan,
            fallback,
            marginal_total: t.marginal.iter().map(total).collect(),
            beams,
            lm,
            lm_entries,
            unseen,
        }
    }

    /// The channel row of source word `src` at channel position `q`.
    fn chan_row(&self, q: usize, src: u32) -> Option<&ChanRow> {
        let rows = self.chan.get(q)?;
        rows.binary_search_by_key(&src, |r| r.src)
            .ok()
            .map(|i| &rows[i])
    }

    /// The bigram row following previous word `prev`.
    fn lm_row(&self, prev: u32) -> Option<&LmRow> {
        self.lm
            .binary_search_by_key(&prev, |r| r.prev)
            .ok()
            .map(|i| &self.lm[i])
    }

    fn approx_bytes(&self) -> usize {
        self.chan.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<ChanRow>()
            + self.lm.len() * std::mem::size_of::<LmRow>()
            + (self.beams.len() + self.lm_entries.len()) * std::mem::size_of::<(u32, f64)>()
            + self.fallback.len() * std::mem::size_of::<Span>()
            + self.marginal_total.len() * std::mem::size_of::<f64>()
    }
}

/// Additively smoothed log-probability of a word seen `c` times in a table
/// of `n` total counts over `v` distinct words.
fn log_score(c: f64, n: f64, v: f64, alpha: f64) -> f64 {
    ((c + alpha) / (n + alpha * v)).ln()
}

impl NgramTranslator {
    /// Fits the count tables on aligned sentence pairs.
    ///
    /// Position tables are sized by the longest target sentence; source
    /// positions align to target positions by the first pair's lengths.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty (call through [`train_translator`] for a
    /// `Result`-based entry point).
    pub fn fit(pairs: &[(Vec<u32>, Vec<u32>)], cfg: &NgramConfig) -> Self {
        assert!(
            !pairs.is_empty(),
            "ngram translator needs at least one pair"
        );
        let tgt_len = pairs.iter().map(|(_, t)| t.len()).max().unwrap_or(0);
        let (src_len, first_tgt_len) = (pairs[0].0.len(), pairs[0].1.len());
        let mut channel: Vec<HashMap<u32, HashMap<u32, u32>>> = vec![HashMap::new(); tgt_len];
        let mut marginal: Vec<HashMap<u32, u32>> = vec![HashMap::new(); tgt_len];
        let mut bigram: HashMap<u32, HashMap<u32, u32>> = HashMap::new();
        for (src, tgt) in pairs {
            let mut prev: Option<u32> = None;
            for (p, &t) in tgt.iter().enumerate() {
                // Align by relative position when lengths differ.
                let sp = if first_tgt_len == src_len {
                    p
                } else {
                    p * src_len / first_tgt_len.max(1)
                };
                if let Some(&s) = src.get(sp) {
                    *channel[p].entry(s).or_default().entry(t).or_insert(0) += 1;
                }
                *marginal[p].entry(t).or_insert(0) += 1;
                if let Some(pr) = prev {
                    *bigram.entry(pr).or_default().entry(t).or_insert(0) += 1;
                }
                prev = Some(t);
            }
        }
        let beam = cfg.fallback_beam.max(1);
        let top_k = |m: &HashMap<u32, u32>| -> Vec<u32> {
            let mut words: Vec<(u32, u32)> = m.iter().map(|(&w, &c)| (w, c)).collect();
            words.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            words.truncate(beam);
            words.into_iter().map(|(w, _)| w).collect()
        };
        let marginal_top = marginal.iter().map(&top_k).collect();
        let channel_top = channel
            .iter()
            .map(|pos| pos.iter().map(|(&src, m)| (src, top_k(m))).collect())
            .collect();
        Self {
            cfg: *cfg,
            channel,
            marginal,
            marginal_top,
            channel_top,
            bigram,
            tgt_len,
            tables: OnceLock::new(),
        }
    }

    /// The decode tables, derived from the counts on first use.
    fn tables(&self) -> &DecodeTables {
        self.tables.get_or_init(|| DecodeTables::build(self))
    }

    /// Target position `p` clamped to the trained positions.
    fn position(&self, p: usize) -> usize {
        p.min(self.tgt_len.saturating_sub(1))
    }

    /// Source position aligned to target position `p` of `out_len`.
    fn source_position(src_len: usize, p: usize, out_len: usize) -> usize {
        if src_len == 0 {
            0
        } else {
            (p * src_len / out_len.max(1)).min(src_len - 1)
        }
    }

    /// Channel position of target position `mp` (`None` without channels).
    fn channel_position(&self, mp: usize) -> Option<usize> {
        Some(mp.min(self.channel.len().checked_sub(1)?))
    }

    /// Mean per-word natural-log likelihood of `tgt` given `src` under the
    /// position-aligned channel model with additive smoothing over a
    /// `tgt_vocab`-sized vocabulary (positional-marginal backoff when the
    /// source word was never seen at that position).
    ///
    /// This powers the *likelihood score* alternative to BLEU explored by
    /// the `exp_ablation_metric` experiment: BLEU judges the single decoded
    /// sentence, while the likelihood integrates over the model's whole
    /// predictive distribution.
    ///
    /// # Panics
    ///
    /// Panics if `tgt_vocab` is zero.
    pub fn log_likelihood(&self, src: &[u32], tgt: &[u32], tgt_vocab: usize) -> f64 {
        assert!(tgt_vocab > 0, "target vocabulary must be non-empty");
        if tgt.is_empty() {
            return 0.0;
        }
        let v = tgt_vocab as f64;
        let mut total = 0.0;
        for (p, &t) in tgt.iter().enumerate() {
            let mp = self.position(p);
            let sp = Self::source_position(src.len(), p, tgt.len());
            let chan = src.get(sp).and_then(|&sw| {
                let q = self.channel_position(mp)?;
                let counts = self.channel[q].get(&sw).filter(|m| !m.is_empty())?;
                Some((counts, self.tables().chan_row(q, sw)?.total))
            });
            let counts = chan.or_else(|| {
                Some((
                    self.marginal.get(mp)?,
                    *self.tables().marginal_total.get(mp)?,
                ))
            });
            let (c, n) = match counts {
                Some((m, n)) => (*m.get(&t).unwrap_or(&0) as f64, n),
                None => (0.0, 0.0),
            };
            total += log_score(c, n, v, self.cfg.alpha);
        }
        total / tgt.len() as f64
    }

    /// Likelihood score on a 0–100 scale comparable to BLEU: `100` times the
    /// geometric-mean per-word probability over a corpus of sentence pairs.
    ///
    /// # Panics
    ///
    /// Panics if `tgt_vocab` is zero.
    pub fn likelihood_score(&self, pairs: &[(&[u32], &[u32])], tgt_vocab: usize) -> f64 {
        if pairs.is_empty() {
            return 0.0;
        }
        let mean_ll = pairs
            .iter()
            .map(|(s, t)| self.log_likelihood(s, t, tgt_vocab))
            .sum::<f64>()
            / pairs.len() as f64;
        100.0 * mean_ll.exp()
    }

    /// Approximate heap footprint of the count and decode tables in bytes
    /// (entry counts times entry sizes; map overhead ignored). Used by the
    /// serving layer to report shared-snapshot memory.
    pub fn approx_bytes(&self) -> usize {
        let pair = std::mem::size_of::<(u32, u32)>();
        let chan: usize = self
            .channel
            .iter()
            .flat_map(|pos| pos.values())
            .map(|m| m.len() * pair)
            .sum();
        let marg: usize = self.marginal.iter().map(|m| m.len() * pair).sum();
        let tops: usize = (self.marginal_top.iter().map(Vec::len).sum::<usize>()
            + self
                .channel_top
                .iter()
                .flat_map(|pos| pos.values())
                .map(Vec::len)
                .sum::<usize>())
            * std::mem::size_of::<u32>();
        let bigr: usize = self.bigram.values().map(|m| m.len() * pair).sum();
        chan + marg + tops + bigr + self.tables().approx_bytes()
    }

    /// Translates a source sentence into `out_len` target word ids.
    pub fn translate(&self, src: &[u32], out_len: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(out_len);
        self.translate_into(src, out_len, &mut out);
        out
    }

    /// [`NgramTranslator::translate`], appending its `out_len` tokens to
    /// `out`, so that a batch decodes into one flat buffer.
    pub fn translate_into(&self, src: &[u32], out_len: usize, out: &mut Vec<u32>) {
        let tables = self.tables();
        let lm_weight = self.cfg.lm_weight;
        let mut prev: Option<u32> = None;
        for p in 0..out_len {
            let mp = self.position(p);
            // Candidates: the channel beam if the source word was seen at
            // this position, else the positional-marginal beam. The beams
            // have a deterministic order (count-desc, then id), so
            // tie-breaking does not depend on hash iteration order.
            let chan = src
                .get(Self::source_position(src.len(), p, out_len))
                .and_then(|&s| tables.chan_row(self.channel_position(mp)?, s));
            let candidates = match (
                chan.map(|r| r.beam.of(&tables.beams)),
                tables.fallback.get(mp),
            ) {
                (Some(beam), _) if !beam.is_empty() => beam,
                (_, Some(span)) => span.of(&tables.beams),
                _ => &[],
            };
            let Some(&first) = candidates.first() else {
                out.push(0);
                prev = Some(0);
                continue;
            };
            let (lm_next, lm_miss) = match prev.and_then(|pr| tables.lm_row(pr)) {
                Some(row) => (row.next.of(&tables.lm_entries), row.miss),
                None => (&[][..], tables.unseen),
            };
            let mut best = (first.0, f64::NEG_INFINITY);
            for &(cand, chan_score) in candidates {
                let lm_score = lm_next
                    .binary_search_by_key(&cand, |e| e.0)
                    .map_or(lm_miss, |i| lm_next[i].1);
                let s = chan_score + lm_weight * lm_score;
                if s > best.1 {
                    best = (cand, s);
                }
            }
            out.push(best.0);
            prev = Some(best.0);
        }
    }
}

/// A frozen neural pair translator: just the packed weights, decoded through
/// a caller-supplied [`InferArena`].
///
/// Where [`ModelSpec::check_src`] refuses a request with an error, this
/// wrapper degrades instead: a malformed sentence (empty or out of
/// vocabulary) decodes to the deterministic translation `vec![0; out_len]`,
/// and a batch that cannot decode as one is decoded sentence by sentence.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrozenNmt {
    pub(crate) spec: ModelSpec,
}

impl FrozenNmt {
    /// Wraps a frozen spec (see [`mdes_nn::Seq2Seq::freeze`]).
    pub fn new(spec: ModelSpec) -> Self {
        Self { spec }
    }

    /// The packed weights.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Re-encodes the packed weights; see [`ModelSpec::quantize`].
    pub(crate) fn quantize(&self, mode: QuantMode) -> Result<(Self, QuantReport), CoreError> {
        let (spec, report) = self.spec.quantize(mode)?;
        Ok((Self { spec }, report))
    }

    /// Translates one source sentence; malformed input degrades to the
    /// deterministic degenerate translation `vec![0; out_len]`.
    pub fn translate(&self, src: &[u32], out_len: usize, arena: &mut InferArena) -> Vec<u32> {
        if self.spec.check_src(&[src], out_len).is_ok() {
            arena
                .translate_batch(&self.spec, &[src], out_len)
                .pop()
                .expect("one output per input")
        } else {
            vec![0; out_len]
        }
    }

    /// Translates a batch; a malformed batch falls back to the per-sentence
    /// path, sentence by sentence.
    pub fn translate_batch(
        &self,
        srcs: &[&[u32]],
        out_len: usize,
        arena: &mut InferArena,
    ) -> Vec<Vec<u32>> {
        if self.spec.check_src(srcs, out_len).is_ok() {
            arena.translate_batch(&self.spec, srcs, out_len)
        } else {
            srcs.iter()
                .map(|s| self.translate(s, out_len, arena))
                .collect()
        }
    }
}

/// A frozen translator of either family.
///
/// The statistical family carries its own tables and needs no arena; the
/// neural family is weights-only and decodes through the worker's arena.
// Both variants are small fixed headers over heap-owned weight buffers;
// boxing the larger one would add an indirection on every decode for a
// per-pair-model saving of a couple hundred bytes.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum FrozenTranslator {
    /// Statistical position-aligned model (already training-state-free).
    Ngram(NgramTranslator),
    /// Frozen neural seq2seq.
    Nmt(FrozenNmt),
}

impl FrozenTranslator {
    /// Translates a batch of source sentences.
    pub fn translate_batch(
        &self,
        srcs: &[&[u32]],
        out_len: usize,
        arena: &mut InferArena,
    ) -> Vec<Vec<u32>> {
        match self {
            FrozenTranslator::Ngram(t) => srcs.iter().map(|s| t.translate(s, out_len)).collect(),
            FrozenTranslator::Nmt(t) => t.translate_batch(srcs, out_len, arena),
        }
    }

    /// Approximate heap footprint of the frozen weights/tables in bytes.
    pub fn approx_bytes(&self) -> usize {
        match self {
            FrozenTranslator::Ngram(t) => t.approx_bytes(),
            FrozenTranslator::Nmt(t) => t.spec.approx_bytes(),
        }
    }

    /// The weight encoding of this translator, if it carries packed neural
    /// weights; the statistical family has none.
    pub fn quant_mode(&self) -> Option<QuantMode> {
        match self {
            FrozenTranslator::Ngram(_) => None,
            FrozenTranslator::Nmt(t) => Some(t.spec.quant_mode()),
        }
    }

    /// Re-encodes neural weights to `mode`, folding the measured drift into
    /// `max_err` / `matrices`; statistical tables pass through unchanged.
    pub(crate) fn quantize(
        &self,
        mode: QuantMode,
        max_err: &mut f64,
        matrices: &mut usize,
    ) -> Result<Self, CoreError> {
        match self {
            FrozenTranslator::Ngram(t) => Ok(FrozenTranslator::Ngram(t.clone())),
            FrozenTranslator::Nmt(t) => {
                let (q, report) = t.quantize(mode)?;
                *max_err = max_err.max(report.max_weight_error);
                *matrices += report.matrices;
                Ok(FrozenTranslator::Nmt(q))
            }
        }
    }
}

/// One trained directional pair model: its thresholds plus its frozen
/// decoding weights. Algorithm 1 trains one per ordered sensor pair and
/// scores it on the dev set; Algorithm 2 decodes the same value, whether it
/// sits in a [`TrainedGraph`](crate::algorithm1::TrainedGraph) or a
/// [`GraphSnapshot`](crate::serve::GraphSnapshot).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrozenPairModel {
    /// Source sensor node index.
    pub src: usize,
    /// Target sensor node index.
    pub dst: usize,
    /// Training (dev corpus BLEU) score `s(i, j)`.
    pub train_score: f64,
    /// Calibrated floor: the `floor_quantile` quantile of the per-sentence
    /// development BLEU distribution (see
    /// [`BrokenRule::DevQuantileFloor`](crate::algorithm2::BrokenRule)).
    pub dev_floor: f64,
    pub(crate) translator: FrozenTranslator,
}

impl FrozenPairModel {
    /// Assembles a pair model — as Algorithm 1 does for each trained pair,
    /// and as tools do that build serving artifacts without a sweep
    /// (synthetic plants, size/throughput experiments).
    pub fn new(
        src: usize,
        dst: usize,
        train_score: f64,
        dev_floor: f64,
        translator: FrozenTranslator,
    ) -> Self {
        Self {
            src,
            dst,
            train_score,
            dev_floor,
            translator,
        }
    }

    /// The frozen translator.
    pub fn translator(&self) -> &FrozenTranslator {
        &self.translator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_nn::InferArena;

    /// Pairs where tgt word = src word + 100, deterministic.
    fn mapped_pairs(n: usize, len: usize) -> Vec<(Vec<u32>, Vec<u32>)> {
        (0..n)
            .map(|i| {
                let src: Vec<u32> = (0..len).map(|p| ((i + p) % 5) as u32 + 2).collect();
                let tgt: Vec<u32> = src.iter().map(|&w| w + 100).collect();
                (src, tgt)
            })
            .collect()
    }

    #[test]
    fn ngram_learns_deterministic_mapping() {
        let pairs = mapped_pairs(30, 6);
        let t = NgramTranslator::fit(&pairs, &NgramConfig::default());
        for (src, tgt) in pairs.iter().take(5) {
            assert_eq!(&t.translate(src, 6), tgt);
        }
    }

    #[test]
    fn ngram_handles_unseen_source_words() {
        let pairs = mapped_pairs(10, 4);
        let t = NgramTranslator::fit(&pairs, &NgramConfig::default());
        let out = t.translate(&[999, 999, 999, 999], 4);
        assert_eq!(out.len(), 4);
        // Falls back to positional marginals: outputs known target words.
        assert!(out.iter().all(|&w| (102..=106).contains(&w)));
    }

    #[test]
    fn ngram_output_length_honored() {
        let pairs = mapped_pairs(10, 4);
        let t = NgramTranslator::fit(&pairs, &NgramConfig::default());
        assert_eq!(t.translate(&[2, 3, 4, 5], 7).len(), 7);
        assert_eq!(t.translate(&[2, 3, 4, 5], 1).len(), 1);
    }

    #[test]
    fn train_translator_rejects_empty() {
        let r = train_translator(&TranslatorConfig::fast(), &[], 10, 10, 1);
        assert!(matches!(r, Err(CoreError::EmptyCorpus)));
    }

    #[test]
    fn nmt_translator_via_factory() {
        let pairs = mapped_pairs(20, 4);
        let cfg = TranslatorConfig::Nmt(Seq2SeqConfig {
            embed_dim: 12,
            hidden: 12,
            train_steps: 60,
            ..Seq2SeqConfig::default()
        });
        let t = train_translator(&cfg, &pairs, 8, 108, 1).expect("train");
        let out = t.translate_batch(&[&pairs[0].0], 4, &mut InferArena::new());
        let out = &out[0];
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|&w| w < 108));
    }

    #[test]
    fn ngram_batch_matches_per_sentence() {
        let pairs = mapped_pairs(30, 6);
        let t = NgramTranslator::fit(&pairs, &NgramConfig::default());
        let srcs: Vec<&[u32]> = pairs.iter().take(8).map(|(s, _)| s.as_slice()).collect();
        let batched =
            FrozenTranslator::Ngram(t.clone()).translate_batch(&srcs, 6, &mut InferArena::new());
        for (src, hyp) in srcs.iter().zip(&batched) {
            assert_eq!(hyp, &t.translate(src, 6));
        }
    }

    #[test]
    fn nmt_batch_matches_per_sentence() {
        let pairs = mapped_pairs(20, 4);
        let cfg = TranslatorConfig::Nmt(Seq2SeqConfig {
            embed_dim: 12,
            hidden: 12,
            train_steps: 60,
            ..Seq2SeqConfig::default()
        });
        let FrozenTranslator::Nmt(t) = train_translator(&cfg, &pairs, 8, 108, 1).expect("train")
        else {
            panic!("neural config trains a neural translator");
        };
        let srcs: Vec<&[u32]> = pairs.iter().take(6).map(|(s, _)| s.as_slice()).collect();
        // Batched decoding routes every step through one GEMM over the whole
        // batch; rows are independent, so outputs must match exactly.
        let mut arena = InferArena::new();
        let batched = t.translate_batch(&srcs, 4, &mut arena);
        for (src, hyp) in srcs.iter().zip(&batched) {
            assert_eq!(hyp, &t.translate(src, 4, &mut arena));
        }
        // A fresh arena decodes exactly as a reused one.
        assert_eq!(t.translate_batch(&srcs, 4, &mut InferArena::new()), batched);
    }

    #[test]
    fn nmt_zero_dimension_is_an_error_not_a_panic() {
        let cfg = TranslatorConfig::Nmt(Seq2SeqConfig {
            hidden: 0,
            ..Seq2SeqConfig::default()
        });
        let r = train_translator(&cfg, &mapped_pairs(4, 4), 8, 108, 1);
        assert!(
            matches!(
                r,
                Err(CoreError::Nn(mdes_nn::NnError::InvalidConfig {
                    field: "hidden",
                    ..
                }))
            ),
            "{r:?}"
        );
    }

    #[test]
    fn nmt_batch_falls_back_on_ragged_input() {
        let pairs = mapped_pairs(20, 4);
        let cfg = TranslatorConfig::Nmt(Seq2SeqConfig {
            embed_dim: 12,
            hidden: 12,
            train_steps: 10,
            ..Seq2SeqConfig::default()
        });
        let FrozenTranslator::Nmt(t) = train_translator(&cfg, &pairs, 8, 108, 1).expect("train")
        else {
            panic!("neural config trains a neural translator");
        };
        let a: Vec<u32> = pairs[0].0.clone();
        let b: Vec<u32> = pairs[1].0[..2].to_vec();
        let mut arena = InferArena::new();
        let out = t.translate_batch(&[a.as_slice(), b.as_slice()], 4, &mut arena);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], t.translate(&a, 4, &mut arena));
        assert_eq!(out[1], t.translate(&b, 4, &mut arena));
    }

    #[test]
    fn likelihood_ranks_coupled_above_uncoupled() {
        let coupled = mapped_pairs(30, 6);
        let t = NgramTranslator::fit(&coupled, &NgramConfig::default());
        let good: Vec<(&[u32], &[u32])> = coupled
            .iter()
            .map(|(s, g)| (s.as_slice(), g.as_slice()))
            .collect();
        // Scramble targets to simulate an unrelated sensor.
        let scrambled: Vec<(Vec<u32>, Vec<u32>)> = coupled
            .iter()
            .enumerate()
            .map(|(i, (s, _))| (s.clone(), coupled[(i + 7) % coupled.len()].1.clone()))
            .collect();
        let bad: Vec<(&[u32], &[u32])> = scrambled
            .iter()
            .map(|(s, g)| (s.as_slice(), g.as_slice()))
            .collect();
        let hi = t.likelihood_score(&good, 120);
        let lo = t.likelihood_score(&bad, 120);
        assert!(hi > lo, "coupled {hi} should beat scrambled {lo}");
        assert!((0.0..=100.0).contains(&hi));
        assert!((0.0..=100.0).contains(&lo));
    }

    #[test]
    fn log_likelihood_of_training_data_is_high() {
        let pairs = mapped_pairs(200, 5);
        let t = NgramTranslator::fit(&pairs, &NgramConfig::default());
        let ll = t.log_likelihood(&pairs[0].0, &pairs[0].1, 120);
        // Deterministic mapping with enough evidence to dominate the
        // additive smoothing: per-word probability well above chance.
        assert!(ll > -0.4, "mean log-likelihood {ll}");
    }

    #[test]
    fn ngram_bigram_term_breaks_ties() {
        // Channel is ambiguous (same src word everywhere), so the bigram LM
        // must carry the sequential structure tgt = 7,8,7,8...
        let pairs: Vec<(Vec<u32>, Vec<u32>)> = (0..20)
            .map(|_| (vec![3u32; 6], vec![7u32, 8, 7, 8, 7, 8]))
            .collect();
        let t = NgramTranslator::fit(&pairs, &NgramConfig::default());
        let out = t.translate(&[3; 6], 6);
        assert_eq!(out, vec![7, 8, 7, 8, 7, 8]);
    }

    /// Greedy decoding straight from the count maps, re-summing every
    /// table per candidate: the paper-literal scoring loop the decode
    /// tables must reproduce word for word.
    fn translate_oracle(t: &NgramTranslator, src: &[u32], out_len: usize) -> Vec<u32> {
        let score = |counts: Option<&HashMap<u32, u32>>, word: u32| -> f64 {
            let (c, n, v) = match counts {
                Some(m) => (
                    *m.get(&word).unwrap_or(&0) as f64,
                    m.values().map(|&c| c as f64).sum::<f64>(),
                    m.len().max(1) as f64,
                ),
                None => (0.0, 0.0, 1.0),
            };
            ((c + t.cfg.alpha) / (n + t.cfg.alpha * v)).ln()
        };
        let mut out = Vec::with_capacity(out_len);
        let mut prev: Option<u32> = None;
        for p in 0..out_len {
            let mp = p.min(t.tgt_len.saturating_sub(1));
            let sp = if src.is_empty() {
                0
            } else {
                (p * src.len() / out_len.max(1)).min(src.len() - 1)
            };
            let chan = src.get(sp).and_then(|s| {
                t.channel
                    .get(mp.min(t.channel.len().checked_sub(1)?))?
                    .get(s)
            });
            let chan_candidates = src.get(sp).and_then(|s| {
                t.channel_top
                    .get(mp.min(t.channel_top.len().checked_sub(1)?))?
                    .get(s)
            });
            let candidates: &[u32] = match chan_candidates {
                Some(c) if !c.is_empty() => c,
                _ => t.marginal_top.get(mp).map(Vec::as_slice).unwrap_or(&[]),
            };
            if candidates.is_empty() {
                out.push(0);
                prev = Some(0);
                continue;
            }
            let lm_counts = prev.and_then(|pr| t.bigram.get(&pr));
            let mut best = (candidates[0], f64::NEG_INFINITY);
            for &cand in candidates {
                let s = score(chan, cand) + t.cfg.lm_weight * score(lm_counts, cand);
                if s > best.1 {
                    best = (cand, s);
                }
            }
            out.push(best.0);
            prev = Some(best.0);
        }
        out
    }

    /// `n` aligned pairs of the given lengths, drawn cyclically from `words`
    /// (targets offset by 100 so the two vocabularies differ).
    fn corpus(
        words: &[u32],
        n: usize,
        src_len: usize,
        tgt_len: usize,
    ) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut it = words.iter().copied().cycle();
        (0..n)
            .map(|_| {
                let src = it.by_ref().take(src_len).collect();
                let tgt = it.by_ref().take(tgt_len).map(|w| w + 100).collect();
                (src, tgt)
            })
            .collect()
    }

    #[test]
    fn ngram_fit_sizes_tables_from_the_longest_target() {
        // A later pair longer than the first used to index past the
        // position tables sized from the first pair.
        let pairs = vec![
            (vec![2u32, 3, 4], vec![102u32, 103, 104]),
            (vec![2u32, 3, 4, 5], vec![102u32, 103, 104, 105]),
        ];
        let t = train_translator(&TranslatorConfig::fast(), &pairs, 8, 108, 1).expect("train");
        let FrozenTranslator::Ngram(ngram) = &t else {
            panic!("fast config trains an n-gram translator");
        };
        assert_eq!(ngram.tgt_len, 4);
        assert_eq!(
            ngram.translate(&[2, 3, 4, 5], 4),
            translate_oracle(ngram, &[2, 3, 4, 5], 4)
        );
        assert_eq!(ngram.translate(&[2, 3, 4, 5], 4)[3], 105);
    }

    #[test]
    fn ngram_serde_round_trip_decodes_identically() {
        let words: Vec<u32> = (0..97u32).map(|i| (i * 7 + i / 3) % 9).collect();
        let t = NgramTranslator::fit(&corpus(&words, 40, 6, 6), &NgramConfig::default());
        let json = serde_json::to_string(&t).expect("serialize");
        assert!(
            !json.contains("tables"),
            "derived tables leaked into the artifact"
        );
        let back: NgramTranslator = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(serde_json::to_string(&back).expect("re-serialize"), json);
        for (k, src) in corpus(&words, 12, 6, 0).iter().map(|(s, _)| s).enumerate() {
            for out_len in [1, 6, 9] {
                let want = t.translate(src, out_len);
                assert_eq!(
                    back.translate(src, out_len),
                    want,
                    "sentence {k} len {out_len}"
                );
                assert_eq!(translate_oracle(&back, src, out_len), want);
            }
        }
        assert_eq!(back.approx_bytes(), t.approx_bytes());
        let held_out = corpus(&words[5..], 8, 6, 6);
        let pairs: Vec<(&[u32], &[u32])> = held_out
            .iter()
            .map(|(s, g)| (s.as_slice(), g.as_slice()))
            .collect();
        assert_eq!(
            back.likelihood_score(&pairs, 120).to_bits(),
            t.likelihood_score(&pairs, 120).to_bits()
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn decode_tables_match_the_scoring_loop(
                words in proptest::collection::vec(0u32..7, 1..60),
                n in 1usize..25,
                src_len in 1usize..8,
                tgt_len in 1usize..8,
                beam in 1usize..5,
                lm_weight in 0.0..1.5f64,
                query in proptest::collection::vec(0u32..10, 0..10),
                out_len in 0usize..12,
            ) {
                let cfg = NgramConfig { alpha: 0.1, lm_weight, fallback_beam: beam };
                let t = NgramTranslator::fit(&corpus(&words, n, src_len, tgt_len), &cfg);
                // Words 7..10 never occur in the corpus: unseen sources.
                prop_assert_eq!(t.translate(&query, out_len), translate_oracle(&t, &query, out_len));
            }

            #[test]
            fn ragged_corpora_decode_like_the_scoring_loop(
                words in proptest::collection::vec(0u32..5, 1..40),
                lens in proptest::collection::vec((0usize..6, 0usize..6), 1..12),
                query in proptest::collection::vec(0u32..6, 0..8),
                out_len in 0usize..9,
            ) {
                let mut it = words.iter().copied().cycle();
                let pairs: Vec<(Vec<u32>, Vec<u32>)> = lens
                    .iter()
                    .map(|&(s, g)| {
                        (it.by_ref().take(s).collect(), it.by_ref().take(g).map(|w| w + 100).collect())
                    })
                    .collect();
                let t = NgramTranslator::fit(&pairs, &NgramConfig::default());
                prop_assert_eq!(t.translate(&query, out_len), translate_oracle(&t, &query, out_len));
            }
        }
    }
}
