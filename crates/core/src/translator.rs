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
use serde::{Content, DeError, Deserialize, Serialize, Tensor};
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
/// The model is its three count tables, each held as flat sorted `u32`
/// arrays; they serialize as one packed `u32` tensor (`counts`)
/// next to `cfg` and `tgt_len`, so an MDSN record carries them in its raw
/// section. Decoding runs on lookup tables derived from the counts on
/// first use, so the artifact bytes do not depend on them and loading an
/// artifact does not pay for them.
#[derive(Clone, Debug)]
pub struct NgramTranslator {
    cfg: NgramConfig,
    /// Target counts per (position, source word at the aligned position).
    channel: CountTable<2>,
    /// Target counts per position: one row for each of `0..tgt_len`.
    marginal: CountTable<1>,
    /// Target counts per previous target word.
    bigram: CountTable<1>,
    tgt_len: usize,
    tables: OnceLock<DecodeTables>,
}

/// A sorted count table: rows keyed by `W` words, each holding
/// `(word, count)` entries.
///
/// Keys strictly increase, words strictly increase within a row, and every
/// count is non-zero. Row `r` holds entries `ends[r - 1]..ends[r]` (from 0
/// for the first row) of `words` and `counts`.
#[derive(Clone, Debug, Default)]
struct CountTable<const W: usize> {
    keys: Vec<[u32; W]>,
    ends: Vec<u32>,
    words: Vec<u32>,
    counts: Vec<u32>,
}

impl<const W: usize> CountTable<W> {
    /// The table of `(key, word, count)` observations sorted by key, then
    /// word, summing the counts of repeated `(key, word)` pairs.
    fn from_sorted(seen: impl IntoIterator<Item = ([u32; W], u32, u32)>) -> Self {
        let mut t = Self::default();
        for (key, word, count) in seen {
            if t.keys.last() != Some(&key) {
                t.keys.push(key);
                t.ends.push(t.words.len() as u32);
            } else if t.words.last() == Some(&word) {
                *t.counts.last_mut().expect("a counted entry") += count;
                continue;
            }
            t.words.push(word);
            t.counts.push(count);
            *t.ends.last_mut().expect("a row") += 1;
        }
        t
    }

    /// The table of single `(key, word)` observations, each packed into one
    /// integer: the key's words, most significant first, above the word.
    /// Integers sort several times faster than tuples, and the sort is most
    /// of [`NgramTranslator::fit`].
    fn from_packed<T: Copy + Ord + Into<u128>>(mut seen: Vec<T>) -> Self {
        seen.sort_unstable();
        Self::from_sorted(seen.into_iter().map(|v| {
            let v: u128 = v.into();
            let key = std::array::from_fn(|i| (v >> (32 * (W - i))) as u32);
            (key, v as u32, 1)
        }))
    }

    /// The row keyed `key`.
    fn row(&self, key: [u32; W]) -> Option<usize> {
        self.keys.binary_search(&key).ok()
    }

    /// The entry indices of row `r`.
    fn span(&self, r: usize) -> std::ops::Range<usize> {
        let start = r.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        start..self.ends[r] as usize
    }

    /// The words and counts of row `r`.
    fn entries(&self, r: usize) -> (&[u32], &[u32]) {
        let span = self.span(r);
        (&self.words[span.clone()], &self.counts[span])
    }

    /// Row and entry counts: the table's two words in the packed preamble.
    fn sizes(&self) -> [u32; 2] {
        [self.keys.len() as u32, self.words.len() as u32]
    }

    /// `keys ‖ ends ‖ words ‖ counts`, appended to `out`.
    fn pack_into(&self, out: &mut Vec<u32>) {
        out.extend(self.keys.iter().flatten());
        out.extend_from_slice(&self.ends);
        out.extend_from_slice(&self.words);
        out.extend_from_slice(&self.counts);
    }

    /// Takes a table of `rows` rows and `entries` entries off the front of
    /// `packed` (the caller has checked that it is long enough).
    fn unpack(packed: &mut &[u32], [rows, entries]: [usize; 2]) -> Self {
        let mut take = |n: usize| {
            let (head, rest) = packed.split_at(n);
            *packed = rest;
            head
        };
        let keys = take(rows * W)
            .chunks_exact(W)
            .map(|k| k.try_into().expect("W words"))
            .collect();
        Self {
            keys,
            ends: take(rows).to_vec(),
            words: take(entries).to_vec(),
            counts: take(entries).to_vec(),
        }
    }

    /// Checks the table's invariants; the error names the table `name`.
    fn check(&self, name: &str) -> Result<(), String> {
        if let Some(r) = (1..self.keys.len()).find(|&r| self.keys[r - 1] >= self.keys[r]) {
            return Err(format!(
                "n-gram `{name}` keys do not strictly increase at row {r}"
            ));
        }
        let mut start = 0;
        for (r, &end) in self.ends.iter().enumerate() {
            let end = end as usize;
            if end < start {
                return Err(format!("n-gram `{name}` row ends decrease at row {r}"));
            }
            if end > self.words.len() {
                return Err(format!(
                    "n-gram `{name}` row {r} ends at {end}, past its {} entries",
                    self.words.len()
                ));
            }
            if let Some(i) = (start + 1..end).find(|&i| self.words[i - 1] >= self.words[i]) {
                return Err(format!(
                    "n-gram `{name}` words do not strictly increase in row {r} at entry {i}"
                ));
            }
            start = end;
        }
        if start != self.words.len() {
            return Err(format!(
                "n-gram `{name}` rows cover {start} of its {} entries",
                self.words.len()
            ));
        }
        if let Some(i) = self.counts.iter().position(|&c| c == 0) {
            return Err(format!("n-gram `{name}` entry {i} has a zero count"));
        }
        Ok(())
    }

    /// Words the table packs into.
    fn packed_len(&self) -> usize {
        self.keys.len() * W + self.ends.len() + self.words.len() + self.counts.len()
    }
}

/// Sum of a row's counts. Integer sums below 2^53 are exact in `f64`, so
/// this is the value any summation order of the counts as `f64` gives.
fn total(counts: &[u32]) -> f64 {
    counts.iter().map(|&c| u64::from(c)).sum::<u64>() as f64
}

/// Words of the packed `counts` tensor ahead of the tables: the row and
/// entry counts of `channel`, `marginal` and `bigram`.
const PREAMBLE: usize = 6;

/// The n-gram record as MDSN v1–v4 wrote it: nested count maps (object
/// keys are words in decimal), plus candidate beams that are now derived
/// on load and not read here.
#[derive(Deserialize)]
struct LegacyCounts {
    channel: Vec<HashMap<u32, HashMap<u32, u32>>>,
    marginal: Vec<HashMap<u32, u32>>,
    bigram: HashMap<u32, HashMap<u32, u32>>,
}

impl Serialize for NgramTranslator {
    /// `{cfg, tgt_len, counts}`, with `counts` one packed `u32` tensor:
    /// the preamble, then each table's keys, row ends, words and counts.
    fn to_content(&self) -> Content {
        let (c, m, b) = (&self.channel, &self.marginal, &self.bigram);
        let len = PREAMBLE + c.packed_len() + m.packed_len() + b.packed_len();
        let mut packed = Vec::with_capacity(len);
        packed.extend(c.sizes().into_iter().chain(m.sizes()).chain(b.sizes()));
        c.pack_into(&mut packed);
        m.pack_into(&mut packed);
        b.pack_into(&mut packed);
        Content::Map(vec![
            ("cfg".to_owned(), self.cfg.to_content()),
            ("tgt_len".to_owned(), self.tgt_len.to_content()),
            (
                "counts".to_owned(),
                Tensor::from_u32(vec![packed.len()], &packed).into(),
            ),
        ])
    }
}

impl Deserialize for NgramTranslator {
    /// Reads the packed `counts` tensor, or converts a legacy record's
    /// count maps; either way every table invariant is checked here, so
    /// decoding never meets a malformed table.
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let cfg = serde::__field(content, "cfg")?;
        let tgt_len = serde::__field(content, "tgt_len")?;
        let Content::Map(fields) = content else {
            return Err(DeError::mismatch("object", content));
        };
        let (channel, marginal, bigram) = match fields.iter().find(|(k, _)| k == "counts") {
            Some((_, counts)) => {
                let len = match counts {
                    Content::Tensor(t) => t.shape().iter().product(),
                    Content::Seq(items) => items.len(),
                    _ => 0,
                };
                let packed = serde::tensor_field(content, "counts", &[len], Tensor::to_u32)?;
                unpack_counts(&packed).map_err(DeError::custom)?
            }
            None if fields.iter().any(|(k, _)| k == "channel") => {
                LegacyCounts::from_content(content)?.into_tables()
            }
            None => return Err(DeError::missing_field("counts")),
        };
        let t = Self {
            cfg,
            channel,
            marginal,
            bigram,
            tgt_len,
            tables: OnceLock::new(),
        };
        t.check().map_err(DeError::custom)?;
        Ok(t)
    }
}

impl LegacyCounts {
    /// The same counts as sorted tables (not yet checked: a legacy count
    /// may be zero).
    fn into_tables(self) -> (CountTable<2>, CountTable<1>, CountTable<1>) {
        fn table<const W: usize>(
            seen: impl Iterator<Item = ([u32; W], u32, u32)>,
        ) -> CountTable<W> {
            let mut seen: Vec<_> = seen.collect();
            seen.sort_unstable();
            CountTable::from_sorted(seen)
        }
        let channel = self.channel.iter().enumerate().flat_map(|(p, at)| {
            at.iter()
                .flat_map(move |(&src, m)| m.iter().map(move |(&w, &c)| ([p as u32, src], w, c)))
        });
        let marginal = (self.marginal.iter().enumerate())
            .flat_map(|(p, m)| m.iter().map(move |(&w, &c)| ([p as u32], w, c)));
        let bigram = (self.bigram.iter())
            .flat_map(|(&prev, m)| m.iter().map(move |(&w, &c)| ([prev], w, c)));
        (table(channel), table(marginal), table(bigram))
    }
}

/// Splits the packed `counts` tensor into its three tables, checking the
/// preamble against the tensor's length first.
fn unpack_counts(packed: &[u32]) -> Result<(CountTable<2>, CountTable<1>, CountTable<1>), String> {
    let Some((preamble, mut rest)) = packed.split_first_chunk::<PREAMBLE>() else {
        return Err(format!(
            "n-gram `counts` holds {} words, shorter than its preamble",
            packed.len()
        ));
    };
    let sizes = preamble.map(|n| n as usize);
    // Keys and ends per row (a channel key is two words), words and counts
    // per entry.
    let need = [3, 2, 2, 2, 2, 2]
        .iter()
        .zip(sizes)
        .try_fold(PREAMBLE, |acc, (&words, n)| {
            n.checked_mul(words)?.checked_add(acc)
        });
    if need != Some(packed.len()) {
        return Err(format!(
            "n-gram `counts` holds {} words, but its preamble {sizes:?} lays out {}",
            packed.len(),
            need.map_or_else(|| "more than fit in memory".to_owned(), |n| n.to_string())
        ));
    }
    Ok((
        CountTable::unpack(&mut rest, [sizes[0], sizes[1]]),
        CountTable::unpack(&mut rest, [sizes[2], sizes[3]]),
        CountTable::unpack(&mut rest, [sizes[4], sizes[5]]),
    ))
}

/// A run of entries in one of [`DecodeTables`]' flat arrays.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn of<'a, T>(&self, entries: &'a [T]) -> &'a [T] {
        &entries[self.start as usize..self.end as usize]
    }
}

/// Lookup tables derived from an [`NgramTranslator`]'s counts, with every
/// log-score greedy decoding needs computed once. Decoding binary-searches
/// the count tables' row keys; these hold what the counts do not (candidate
/// beams and log-scores), indexed like the count tables' rows and entries.
#[derive(Clone, Debug)]
struct DecodeTables {
    /// Per target position, its run of channel rows.
    chan_at: Vec<Span>,
    /// Per channel row, its candidate beam (the `fallback_beam` most
    /// frequent words, count descending, then id) in `beams`.
    chan_beam: Vec<Span>,
    /// Per target position, the positional-marginal fallback beam.
    fallback: Vec<Span>,
    /// Beam entries: `(candidate, channel log-score)`.
    beams: Vec<(u32, f64)>,
    /// Per bigram row, the log-score of a word the row lacks.
    lm_miss: Vec<f64>,
    /// Per bigram entry, its word and log-score (the word is the count
    /// table's, next to its score so a lookup touches one array).
    lm: Vec<(u32, f64)>,
    /// Log-score of any word when no count table applies.
    unseen: f64,
}

impl DecodeTables {
    fn build(t: &NgramTranslator) -> Self {
        let alpha = t.cfg.alpha;
        let beam = t.cfg.fallback_beam.max(1);
        // Log-score of a count in a row of `counts`.
        let scorer = |counts: &[u32]| {
            let (n, v) = (total(counts), counts.len().max(1) as f64);
            move |c: u32| log_score(f64::from(c), n, v, alpha)
        };
        let unseen = log_score(0.0, 0.0, 1.0, alpha);
        let mut beams = Vec::new();
        // A row's entries ranked count descending, then word: one integer
        // per entry, the complemented count above the word.
        let mut ranked: Vec<u64> = Vec::new();
        let mut push_beam = |(words, counts): (&[u32], &[u32]), entry: &dyn Fn(u32) -> f64| {
            ranked.clear();
            ranked.extend(
                (words.iter().zip(counts)).map(|(&w, &c)| u64::from(!c) << 32 | u64::from(w)),
            );
            ranked.sort_unstable();
            let start = beams.len() as u32;
            beams.extend(
                ranked
                    .iter()
                    .take(beam)
                    .map(|&k| (k as u32, entry(!((k >> 32) as u32)))),
            );
            Span {
                start,
                end: beams.len() as u32,
            }
        };
        let chan_beam = (0..t.channel.keys.len())
            .map(|r| {
                let row = t.channel.entries(r);
                push_beam(row, &scorer(row.1))
            })
            .collect();
        let fallback = (0..t.marginal.keys.len())
            .map(|r| push_beam(t.marginal.entries(r), &|_| unseen))
            .collect();
        let keys = &t.channel.keys;
        let chan_at = (0..t.tgt_len as u32)
            .map(|p| Span {
                start: keys.partition_point(|k| k[0] < p) as u32,
                end: keys.partition_point(|k| k[0] <= p) as u32,
            })
            .collect();
        let mut lm_miss = Vec::with_capacity(t.bigram.keys.len());
        let mut lm = Vec::with_capacity(t.bigram.words.len());
        for r in 0..t.bigram.keys.len() {
            let (words, counts) = t.bigram.entries(r);
            let score = scorer(counts);
            lm_miss.push(score(0));
            lm.extend(words.iter().zip(counts).map(|(&w, &c)| (w, score(c))));
        }
        Self {
            chan_at,
            chan_beam,
            fallback,
            beams,
            lm_miss,
            lm,
            unseen,
        }
    }

    fn approx_bytes(&self) -> usize {
        (self.chan_at.len() + self.chan_beam.len() + self.fallback.len())
            * std::mem::size_of::<Span>()
            + self.beams.len() * std::mem::size_of::<(u32, f64)>()
            + self.lm.len() * std::mem::size_of::<(u32, f64)>()
            + self.lm_miss.len() * std::mem::size_of::<f64>()
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
        let words: usize = pairs.iter().map(|(_, t)| t.len()).sum();
        // Observations packed as `CountTable::from_packed` reads them.
        let mut channel: Vec<u128> = Vec::with_capacity(words);
        let mut marginal: Vec<u64> = Vec::with_capacity(words);
        let mut bigram: Vec<u64> = Vec::with_capacity(words);
        for (src, tgt) in pairs {
            let mut prev: Option<u32> = None;
            for (p, &t) in tgt.iter().enumerate() {
                // Align by relative position when lengths differ.
                let sp = if first_tgt_len == src_len {
                    p
                } else {
                    p * src_len / first_tgt_len.max(1)
                };
                let pos = p as u32;
                if let Some(&s) = src.get(sp) {
                    channel.push(u128::from(pos) << 64 | u128::from(s) << 32 | u128::from(t));
                }
                marginal.push(u64::from(pos) << 32 | u64::from(t));
                if let Some(pr) = prev {
                    bigram.push(u64::from(pr) << 32 | u64::from(t));
                }
                prev = Some(t);
            }
        }
        Self {
            cfg: *cfg,
            channel: CountTable::from_packed(channel),
            marginal: CountTable::from_packed(marginal),
            bigram: CountTable::from_packed(bigram),
            tgt_len,
            tables: OnceLock::new(),
        }
    }

    /// Checks every table's invariants, and the position keys against
    /// `tgt_len`: one marginal row per position `0..tgt_len`, and no
    /// channel row past them.
    fn check(&self) -> Result<(), String> {
        self.channel.check("channel")?;
        self.marginal.check("marginal")?;
        self.bigram.check("bigram")?;
        let dense = (self.marginal.keys.iter().enumerate()).all(|(p, k)| k[0] as usize == p);
        if !dense || self.marginal.keys.len() != self.tgt_len {
            return Err(format!(
                "n-gram `marginal` rows are not keyed 0..{} (tgt_len)",
                self.tgt_len
            ));
        }
        match self.channel.keys.last() {
            Some(k) if k[0] as usize >= self.tgt_len => Err(format!(
                "n-gram `channel` position {} is past tgt_len {}",
                k[0], self.tgt_len
            )),
            _ => Ok(()),
        }
    }

    /// Whether a decode has built the decode tables yet.
    #[cfg(test)]
    pub(crate) fn decode_tables_built(&self) -> bool {
        self.tables.get().is_some()
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
        let mut total_ll = 0.0;
        for (p, &t) in tgt.iter().enumerate() {
            let mp = self.position(p) as u32;
            let sp = Self::source_position(src.len(), p, tgt.len());
            let chan = src
                .get(sp)
                .and_then(|&sw| self.channel.row([mp, sw]))
                .map(|r| self.channel.entries(r))
                .filter(|(words, _)| !words.is_empty());
            let row = chan.or_else(|| Some(self.marginal.entries(self.marginal.row([mp])?)));
            let (c, n) = match row {
                Some((words, counts)) => (
                    words.binary_search(&t).map_or(0, |i| counts[i]) as f64,
                    total(counts),
                ),
                None => (0.0, 0.0),
            };
            total_ll += log_score(c, n, v, self.cfg.alpha);
        }
        total_ll / tgt.len() as f64
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

    /// Approximate heap footprint of the count tables, and of the decode
    /// tables once a decode has built them, in bytes. Used by the serving
    /// layer to report shared-snapshot memory; it builds nothing.
    pub fn approx_bytes(&self) -> usize {
        let counts =
            self.channel.packed_len() + self.marginal.packed_len() + self.bigram.packed_len();
        counts * std::mem::size_of::<u32>()
            + self.tables.get().map_or(0, DecodeTables::approx_bytes)
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
            // have a deterministic order (count-desc, then id).
            let chan = src
                .get(Self::source_position(src.len(), p, out_len))
                .and_then(|&s| {
                    let rows = tables.chan_at.get(mp)?;
                    let i = (rows.of(&self.channel.keys))
                        .binary_search_by_key(&s, |k| k[1])
                        .ok()?;
                    Some(tables.chan_beam[rows.start as usize + i].of(&tables.beams))
                });
            let candidates = match (chan, tables.fallback.get(mp)) {
                (Some(beam), _) if !beam.is_empty() => beam,
                (_, Some(span)) => span.of(&tables.beams),
                _ => &[],
            };
            let Some(&first) = candidates.first() else {
                out.push(0);
                prev = Some(0);
                continue;
            };
            let (lm_next, lm_miss) = match prev.and_then(|pr| self.bigram.row([pr])) {
                Some(r) => (&tables.lm[self.bigram.span(r)], tables.lm_miss[r]),
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
/// scores it on the dev set; Algorithm 2 decodes the same value, moved
/// from the [`TrainedGraph`](crate::algorithm1::TrainedGraph) into the
/// fitted model's [`GraphSnapshot`](crate::serve::GraphSnapshot).
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

    /// An n-gram model's counts as nested maps — the shape the model held
    /// before its tables were packed, and the shape MDSN v1–v4 stored.
    #[derive(Debug, Default, PartialEq)]
    struct CountMaps {
        channel: Vec<HashMap<u32, HashMap<u32, u32>>>,
        marginal: Vec<HashMap<u32, u32>>,
        bigram: HashMap<u32, HashMap<u32, u32>>,
    }

    impl CountMaps {
        /// Counts `pairs` with hash maps, as the map-based `fit` did.
        fn count(pairs: &[(Vec<u32>, Vec<u32>)]) -> Self {
            let tgt_len = pairs.iter().map(|(_, t)| t.len()).max().unwrap_or(0);
            let (src_len, first_tgt_len) = (pairs[0].0.len(), pairs[0].1.len());
            let mut m = CountMaps {
                channel: vec![HashMap::new(); tgt_len],
                marginal: vec![HashMap::new(); tgt_len],
                bigram: HashMap::new(),
            };
            for (src, tgt) in pairs {
                let mut prev: Option<u32> = None;
                for (p, &t) in tgt.iter().enumerate() {
                    let sp = if first_tgt_len == src_len {
                        p
                    } else {
                        p * src_len / first_tgt_len.max(1)
                    };
                    if let Some(&s) = src.get(sp) {
                        *m.channel[p].entry(s).or_default().entry(t).or_insert(0) += 1;
                    }
                    *m.marginal[p].entry(t).or_insert(0) += 1;
                    if let Some(pr) = prev {
                        *m.bigram.entry(pr).or_default().entry(t).or_insert(0) += 1;
                    }
                    prev = Some(t);
                }
            }
            m
        }

        /// Reads a model's packed tables back into maps.
        fn of(t: &NgramTranslator) -> Self {
            let row = |table: &CountTable<1>, r: usize| -> HashMap<u32, u32> {
                let (words, counts) = table.entries(r);
                words.iter().copied().zip(counts.iter().copied()).collect()
            };
            let mut m = CountMaps {
                channel: vec![HashMap::new(); t.tgt_len],
                marginal: (0..t.marginal.keys.len())
                    .map(|r| row(&t.marginal, r))
                    .collect(),
                bigram: (0..t.bigram.keys.len())
                    .map(|r| (t.bigram.keys[r][0], row(&t.bigram, r)))
                    .collect(),
            };
            for (r, &[p, src]) in t.channel.keys.iter().enumerate() {
                let (words, counts) = t.channel.entries(r);
                m.channel[p as usize].insert(
                    src,
                    words.iter().copied().zip(counts.iter().copied()).collect(),
                );
            }
            m
        }

        /// The record MDSN v1–v4 wrote for a model with these counts,
        /// candidate beams included.
        fn legacy_content(&self, t: &NgramTranslator) -> Content {
            let beam = t.cfg.fallback_beam.max(1);
            let top_k = |m: &HashMap<u32, u32>| -> Vec<u32> {
                let mut words: Vec<(u32, u32)> = m.iter().map(|(&w, &c)| (w, c)).collect();
                words.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                words.truncate(beam);
                words.into_iter().map(|(w, _)| w).collect()
            };
            let channel_top: Vec<HashMap<u32, Vec<u32>>> = (self.channel.iter())
                .map(|pos| pos.iter().map(|(&src, m)| (src, top_k(m))).collect())
                .collect();
            let marginal_top: Vec<Vec<u32>> = self.marginal.iter().map(top_k).collect();
            Content::Map(vec![
                ("cfg".to_owned(), t.cfg.to_content()),
                ("channel".to_owned(), self.channel.to_content()),
                ("marginal".to_owned(), self.marginal.to_content()),
                ("marginal_top".to_owned(), marginal_top.to_content()),
                ("channel_top".to_owned(), channel_top.to_content()),
                ("bigram".to_owned(), self.bigram.to_content()),
                ("tgt_len".to_owned(), t.tgt_len.to_content()),
            ])
        }
    }

    /// Greedy decoding straight from the count maps, re-summing every
    /// table per candidate and re-ranking every beam: the paper-literal
    /// scoring loop the decode tables must reproduce word for word.
    fn translate_oracle(t: &NgramTranslator, src: &[u32], out_len: usize) -> Vec<u32> {
        let maps = CountMaps::of(t);
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
        let top_k = |m: &HashMap<u32, u32>| -> Vec<u32> {
            let mut words: Vec<(u32, u32)> = m.iter().map(|(&w, &c)| (w, c)).collect();
            words.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            words.truncate(t.cfg.fallback_beam.max(1));
            words.into_iter().map(|(w, _)| w).collect()
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
                maps.channel
                    .get(mp.min(maps.channel.len().checked_sub(1)?))?
                    .get(s)
            });
            let candidates = match chan.map(top_k) {
                Some(c) if !c.is_empty() => c,
                _ => maps.marginal.get(mp).map(top_k).unwrap_or_default(),
            };
            if candidates.is_empty() {
                out.push(0);
                prev = Some(0);
                continue;
            }
            let lm_counts = prev.and_then(|pr| maps.bigram.get(&pr));
            let mut best = (candidates[0], f64::NEG_INFINITY);
            for &cand in &candidates {
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

    #[test]
    fn legacy_count_maps_convert_to_the_packed_tables() {
        let words: Vec<u32> = (0..61u32).map(|i| (i * 5 + i / 4) % 11).collect();
        let pairs = corpus(&words, 30, 5, 7);
        let t = NgramTranslator::fit(&pairs, &NgramConfig::default());
        let legacy = CountMaps::count(&pairs).legacy_content(&t);
        let back = NgramTranslator::from_content(&legacy).expect("legacy record");
        assert_eq!(
            serde_json::to_string(&back).expect("json"),
            serde_json::to_string(&t).expect("json")
        );
        for (src, _) in &pairs {
            assert_eq!(back.translate(src, 7), t.translate(src, 7));
        }
        // A zero count in a legacy map is refused like a packed one.
        let mut maps = CountMaps::count(&pairs);
        *maps
            .bigram
            .values_mut()
            .next()
            .expect("a bigram row")
            .values_mut()
            .next()
            .expect("an entry") = 0;
        let err = NgramTranslator::from_content(&maps.legacy_content(&t)).unwrap_err();
        assert!(err.to_string().contains("`bigram`"), "{err}");
    }

    #[test]
    fn approx_bytes_counts_decode_tables_only_once_built() {
        let t = NgramTranslator::fit(&mapped_pairs(30, 6), &NgramConfig::default());
        let counts_only = t.approx_bytes();
        assert!(counts_only > 0);
        assert!(
            !t.decode_tables_built(),
            "approx_bytes built the decode tables"
        );
        t.translate(&[2, 3, 4, 5, 6, 2], 6);
        assert!(t.approx_bytes() > counts_only);
    }

    /// Crafted packed tables: each is refused with an error naming the
    /// table or the tensor, never a panic.
    #[test]
    fn malformed_packed_counts_are_refused_by_name() {
        let t = NgramTranslator::fit(&mapped_pairs(20, 4), &NgramConfig::default());
        let Content::Map(fields) = t.to_content() else {
            panic!("an object");
        };
        let packed = match &fields[2] {
            (k, Content::Tensor(tensor)) if k == "counts" => tensor.to_u32().expect("u32"),
            other => panic!("unexpected field {other:?}"),
        };
        let with_counts = |counts: Content| {
            let mut f = fields.clone();
            f[2].1 = counts;
            NgramTranslator::from_content(&Content::Map(f))
        };
        let edit = |at: usize, value: u32| {
            let mut p = packed.clone();
            p[at] = value;
            with_counts(Tensor::from_u32(vec![p.len()], &p).into())
        };
        assert!(edit(0, packed[0]).is_ok(), "an unedited copy decodes");
        let [c_rows, c_entries] = t.channel.sizes().map(|n| n as usize);
        let keys = PREAMBLE;
        let ends = keys + 2 * c_rows;
        let words = ends + c_rows;
        let counts = words + c_entries;
        // Marginal rows hold several words each; channel rows here one.
        let m_words = counts + c_entries + 2 * t.marginal.keys.len();
        let cases = [
            ("preamble", edit(0, packed[0] + 1), "`counts`"),
            ("keys", edit(keys + 1, packed[keys + 3]), "`channel` keys"),
            (
                "ends",
                edit(ends, packed[ends + 1] + 1),
                "`channel` row ends",
            ),
            (
                "end past",
                edit(ends + c_rows - 1, u32::MAX),
                "`channel` row",
            ),
            (
                "words",
                edit(m_words + 1, packed[m_words]),
                "`marginal` words",
            ),
            ("count", edit(counts, 0), "`channel` entry 0"),
            (
                "dtype",
                with_counts(Tensor::from_f32(vec![1], &[1.0]).into()),
                "`counts`",
            ),
            ("string", with_counts("x".to_content()), "expected array"),
        ];
        for (name, r, want) in cases {
            let err = r.err().unwrap_or_else(|| panic!("{name}: accepted"));
            assert!(err.to_string().contains(want), "{name}: {err}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// `log_likelihood` straight from the count maps.
        fn log_likelihood_oracle(t: &NgramTranslator, src: &[u32], tgt: &[u32], v: usize) -> f64 {
            let maps = CountMaps::of(t);
            let mut total = 0.0;
            for (p, &w) in tgt.iter().enumerate() {
                let mp = p.min(t.tgt_len.saturating_sub(1));
                let sp = NgramTranslator::source_position(src.len(), p, tgt.len());
                let row = src
                    .get(sp)
                    .and_then(|s| maps.channel.get(mp)?.get(s))
                    .or_else(|| maps.marginal.get(mp));
                let (c, n) = row.map_or((0.0, 0.0), |m| {
                    (
                        f64::from(m.get(&w).copied().unwrap_or(0)),
                        m.values().map(|&c| f64::from(c)).sum(),
                    )
                });
                total += log_score(c, n, v as f64, t.cfg.alpha);
            }
            if tgt.is_empty() {
                0.0
            } else {
                total / tgt.len() as f64
            }
        }

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
                let pairs = corpus(&words, n, src_len, tgt_len);
                let t = NgramTranslator::fit(&pairs, &cfg);
                prop_assert_eq!(CountMaps::of(&t), CountMaps::count(&pairs));
                // Words 7..10 never occur in the corpus: unseen sources.
                prop_assert_eq!(t.translate(&query, out_len), translate_oracle(&t, &query, out_len));
                let tgt: Vec<u32> = query.iter().map(|w| w + 100).collect();
                prop_assert_eq!(
                    t.log_likelihood(&query, &tgt, 120).to_bits(),
                    log_likelihood_oracle(&t, &query, &tgt, 120).to_bits()
                );
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
                prop_assert_eq!(CountMaps::of(&t), CountMaps::count(&pairs));
                prop_assert_eq!(t.translate(&query, out_len), translate_oracle(&t, &query, out_len));
                let back = NgramTranslator::from_content(&CountMaps::count(&pairs).legacy_content(&t));
                prop_assert_eq!(back.map(|b| b.translate(&query, out_len)).ok(), Some(t.translate(&query, out_len)));
            }
        }
    }
}
