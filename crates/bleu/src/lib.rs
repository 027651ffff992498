//! `mdes-bleu` — BiLingual Evaluation Understudy (BLEU) scores.
//!
//! BLEU (Papineni et al., ACL 2002) measures translation quality as the
//! geometric mean of modified n-gram precisions, multiplied by a brevity
//! penalty. The paper uses BLEU on a 0–100 scale as the pairwise relationship
//! strength between two sensor "languages": the development-set corpus BLEU
//! becomes the edge weight `s(i, j)` of the relationship graph, and
//! sentence-level BLEU at test time (`f(i, j)`) is compared against it to
//! detect broken relationships.
//!
//! Tokens are generic: anything `Ord + Clone` works, so the language
//! pipeline can score word-id sentences without materializing strings.
//!
//! # How matches are counted
//!
//! The reference's distinct n-grams are stored as a sorted trie
//! ([`RefNgrams`]): a node per distinct n-gram, holding its last token and
//! its reference count, with each node's one-token extensions stored as a
//! contiguous, token-sorted run. The hypothesis is never materialized into
//! n-gram keys: from each start position the kernel walks down the trie one
//! token at a time (a binary search over a short run per step) and stops at
//! the first n-gram the reference lacks, since no longer n-gram from that
//! position can then match either. Clipping counts the hypothesis
//! occurrences of every reference node in a scratch buffer that lives on the
//! stack while `max_n` plus the reference's distinct n-gram count is at most
//! 256 (a 64-token reference at BLEU-4).
//! The integer match statistics are those of the textbook per-order count
//! maps, so the `f64` scores are too.
//!
//! # Example
//!
//! ```
//! use mdes_bleu::{corpus_bleu, BleuConfig};
//!
//! let hyps = vec![vec![1u32, 2, 3, 4, 5]];
//! let refs = vec![vec![1u32, 2, 3, 4, 5]];
//! let score = corpus_bleu(&hyps, &refs, &BleuConfig::default());
//! assert!((score - 100.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// Smoothing applied to zero n-gram precision counts.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Smoothing {
    /// No smoothing: any zero precision zeroes the whole score (the original
    /// BLEU definition; appropriate for large corpora).
    None,
    /// Add-one smoothing on matched and total counts for n > 1
    /// (Lin & Och, 2004) — the standard choice for sentence-level BLEU.
    AddOne,
    /// Replace zero matched counts with `epsilon` matches.
    Epsilon(f64),
}

/// Configuration for BLEU computation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BleuConfig {
    /// Maximum n-gram order (standard BLEU-4 uses 4).
    pub max_n: usize,
    /// Smoothing variant for zero counts.
    pub smoothing: Smoothing,
}

impl Default for BleuConfig {
    fn default() -> Self {
        Self {
            max_n: 4,
            smoothing: Smoothing::None,
        }
    }
}

impl BleuConfig {
    /// Standard sentence-level configuration: BLEU-4 with add-one smoothing.
    pub fn sentence() -> Self {
        Self {
            max_n: 4,
            smoothing: Smoothing::AddOne,
        }
    }
}

/// Scratch words (`u32`) the matching kernel keeps on the stack: `max_n`
/// per-order match counters plus one clipping counter per distinct
/// reference n-gram. Larger references use a heap buffer instead.
const STACK_WORDS: usize = 256;

/// Number of n-grams of order `n` in a sentence of `len` tokens.
fn ngram_total(len: usize, n: usize) -> u64 {
    (len + 1).saturating_sub(n) as u64
}

/// Reference-side n-grams, precomputed once per reference sentence.
///
/// Scoring one reference against many hypotheses (as Algorithm 2 does: every
/// model targeting destination sensor `j` is scored against the same test
/// sentence of `j`) would otherwise recount the reference n-grams on every
/// call. Precomputing them here and scoring via [`sentence_bleu_pre`] or
/// [`BleuStats::update_pre`] skips that work while producing exactly the
/// same integer match statistics — and therefore bit-identical `f64`
/// scores.
///
/// The n-grams form a trie of distinct n-grams: order `n` occupies nodes
/// `level[n - 1]..level[n]`, sorted lexicographically by the full n-gram, so
/// the extensions of one (n−1)-gram are a contiguous run sorted by their last
/// token.
#[derive(Clone, Debug)]
pub struct RefNgrams<T> {
    /// Last token of every node.
    last: Vec<T>,
    /// Occurrences of every node's n-gram in the reference (the clip cap).
    count: Vec<u32>,
    /// `level[k]` is the first node of order `k + 1`; `max_n + 1` entries.
    level: Vec<u32>,
    /// The one-token extensions of node `v` are nodes
    /// `child[v]..child[v + 1]`; defined for every node below order `max_n`.
    child: Vec<u32>,
    /// Reference length in tokens (for the brevity penalty).
    len: usize,
    /// Build scratch: sorted n-gram start offsets, then one start offset
    /// per node of the current and of the previous order. Kept so that
    /// [`RefNgrams::rebuild`] allocates nothing once the buffers have grown.
    starts: Vec<usize>,
    nodes: Vec<usize>,
    parents: Vec<usize>,
}

impl<T: Ord + Clone> RefNgrams<T> {
    /// Precomputes the distinct n-grams of orders `1..=max_n` of `reference`.
    pub fn new(reference: &[T], max_n: usize) -> Self {
        let mut grams = Self {
            last: Vec::new(),
            count: Vec::new(),
            level: Vec::new(),
            child: Vec::new(),
            len: 0,
            starts: Vec::new(),
            nodes: Vec::new(),
            parents: Vec::new(),
        };
        grams.rebuild(reference, max_n);
        grams
    }

    /// Recomputes these counts for another `reference`, equal to
    /// `RefNgrams::new(reference, max_n)` but in the buffers already held,
    /// so a caller scoring window after window allocates nothing once they
    /// have grown.
    pub fn rebuild(&mut self, reference: &[T], max_n: usize) {
        let Self {
            last,
            count,
            level,
            child,
            len,
            starts,
            nodes,
            parents,
        } = self;
        last.clear();
        count.clear();
        level.clear();
        level.push(0);
        child.clear();
        parents.clear();
        for n in 1..=max_n {
            let gram = |s: usize| &reference[s..s + n];
            starts.clear();
            starts.extend(0..(reference.len() + 1).saturating_sub(n));
            starts.sort_unstable_by(|&a, &b| gram(a).cmp(gram(b)));
            nodes.clear();
            for &s in starts.iter() {
                match nodes.last() {
                    Some(&r) if gram(r) == gram(s) => *count.last_mut().expect("node") += 1,
                    _ => {
                        nodes.push(s);
                        last.push(reference[s + n - 1].clone());
                        count.push(1);
                    }
                }
            }
            // Both orders are sorted lexicographically, so one merge walk
            // hands every (n-1)-gram its contiguous run of extensions.
            let first = level[n - 1] as usize;
            let mut j = 0;
            for &p in parents.iter() {
                child.push((first + j) as u32);
                while j < nodes.len() && gram(nodes[j])[..n - 1] == reference[p..p + n - 1] {
                    j += 1;
                }
            }
            level.push(last.len() as u32);
            std::mem::swap(parents, nodes);
        }
        child.push(last.len() as u32);
        *len = reference.len();
    }
}

impl<T: Ord> RefNgrams<T> {
    /// The maximum n-gram order these counts cover.
    pub fn max_n(&self) -> usize {
        self.level.len() - 1
    }

    /// Reference length in tokens.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the reference sentence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Runs `f` on the clipped match count of every order `1..=max_n` of
    /// `hyp` against this reference.
    fn with_matches<R>(&self, hyp: &[T], f: impl FnOnce(&[u32]) -> R) -> R {
        let max_n = self.max_n();
        let need = max_n + self.last.len();
        let mut stack = [0u32; STACK_WORDS];
        let mut heap = Vec::new();
        let scratch = if need <= STACK_WORDS {
            &mut stack[..need]
        } else {
            heap.resize(need, 0);
            &mut heap[..]
        };
        let (matched, uses) = scratch.split_at_mut(max_n);
        if max_n > 0 {
            let roots = self.level[1] as usize;
            for start in 0..hyp.len() {
                let (mut lo, mut hi) = (0, roots);
                for (k, tok) in hyp[start..].iter().take(max_n).enumerate() {
                    let Ok(off) = self.last[lo..hi].binary_search(tok) else {
                        break;
                    };
                    let v = lo + off;
                    uses[v] += 1;
                    if uses[v] <= self.count[v] {
                        matched[k] += 1;
                    }
                    if k + 1 < max_n {
                        (lo, hi) = (self.child[v] as usize, self.child[v + 1] as usize);
                    }
                }
            }
        }
        f(matched)
    }
}

/// Aggregated n-gram match statistics for one corpus.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct BleuStats {
    /// Clipped matched n-gram counts per order (index 0 = unigrams).
    pub matched: Vec<u64>,
    /// Total hypothesis n-gram counts per order.
    pub total: Vec<u64>,
    /// Total hypothesis length (tokens).
    pub hyp_len: u64,
    /// Total effective reference length (tokens).
    pub ref_len: u64,
}

impl BleuStats {
    /// Creates empty statistics for n-gram orders up to `max_n`.
    pub fn new(max_n: usize) -> Self {
        Self {
            matched: vec![0; max_n],
            total: vec![0; max_n],
            hyp_len: 0,
            ref_len: 0,
        }
    }

    /// Accumulates statistics for one hypothesis/reference pair.
    pub fn update<T: Ord + Clone>(&mut self, hyp: &[T], reference: &[T]) {
        self.update_pre(hyp, &RefNgrams::new(reference, self.matched.len()));
    }

    /// Accumulates statistics for one hypothesis against a precomputed
    /// reference. Equivalent to [`BleuStats::update`] — identical integer
    /// counts, hence bit-identical scores — without recounting the
    /// reference n-grams.
    ///
    /// # Panics
    ///
    /// Panics if `reference` was built with a different `max_n`.
    pub fn update_pre<T: Ord>(&mut self, hyp: &[T], reference: &RefNgrams<T>) {
        assert_eq!(
            reference.max_n(),
            self.matched.len(),
            "reference n-grams precomputed for a different max_n"
        );
        self.hyp_len += hyp.len() as u64;
        self.ref_len += reference.len() as u64;
        reference.with_matches(hyp, |matched| {
            for (k, &m) in matched.iter().enumerate() {
                self.matched[k] += u64::from(m);
                self.total[k] += ngram_total(hyp.len(), k + 1);
            }
        });
    }

    /// Merges statistics from another corpus chunk.
    ///
    /// # Panics
    ///
    /// Panics if the two statistics track different n-gram orders.
    pub fn merge(&mut self, other: &BleuStats) {
        assert_eq!(
            self.matched.len(),
            other.matched.len(),
            "mismatched max_n in merge"
        );
        for (a, b) in self.matched.iter_mut().zip(&other.matched) {
            *a += b;
        }
        for (a, b) in self.total.iter_mut().zip(&other.total) {
            *a += b;
        }
        self.hyp_len += other.hyp_len;
        self.ref_len += other.ref_len;
    }

    /// Final BLEU score in `[0, 100]` under the given smoothing.
    pub fn score(&self, smoothing: Smoothing) -> f64 {
        score_counts(
            self.matched.iter().copied().zip(self.total.iter().copied()),
            self.matched.len(),
            self.hyp_len,
            self.ref_len,
            smoothing,
        )
    }
}

/// BLEU in `[0, 100]` from per-order `(matched, total)` counts of `max_n`
/// orders plus the hypothesis and reference lengths.
fn score_counts(
    orders: impl Iterator<Item = (u64, u64)>,
    max_n: usize,
    hyp_len: u64,
    ref_len: u64,
    smoothing: Smoothing,
) -> f64 {
    if hyp_len == 0 {
        return 0.0;
    }
    let mut log_sum = 0.0;
    for (n, (matched, total)) in orders.enumerate() {
        let (matched, total) = match smoothing {
            Smoothing::AddOne if n > 0 => (matched as f64 + 1.0, total as f64 + 1.0),
            _ => (matched as f64, total as f64),
        };
        let p = if total > 0.0 {
            match smoothing {
                Smoothing::Epsilon(eps) if matched == 0.0 => eps / total,
                _ => matched / total,
            }
        } else {
            0.0
        };
        if p <= 0.0 {
            return 0.0;
        }
        log_sum += p.ln() / max_n as f64;
    }
    let bp = if hyp_len >= ref_len {
        1.0
    } else {
        (1.0 - ref_len as f64 / hyp_len as f64).exp()
    };
    100.0 * bp * log_sum.exp()
}

/// Corpus-level BLEU of hypothesis sentences against one reference each.
///
/// Returns a score in `[0, 100]`; higher is better. Sentence pairs are
/// matched by index.
///
/// # Panics
///
/// Panics if `hyps.len() != refs.len()`.
pub fn corpus_bleu<T: Ord + Clone>(hyps: &[Vec<T>], refs: &[Vec<T>], cfg: &BleuConfig) -> f64 {
    assert_eq!(
        hyps.len(),
        refs.len(),
        "hypothesis/reference count mismatch"
    );
    let mut stats = BleuStats::new(cfg.max_n);
    for (h, r) in hyps.iter().zip(refs) {
        stats.update(h, r);
    }
    stats.score(cfg.smoothing)
}

/// Sentence-level BLEU with the configured smoothing (use
/// [`BleuConfig::sentence`] for the standard smoothed variant).
pub fn sentence_bleu<T: Ord + Clone>(hyp: &[T], reference: &[T], cfg: &BleuConfig) -> f64 {
    sentence_bleu_pre(hyp, &RefNgrams::new(reference, cfg.max_n), cfg)
}

/// Sentence-level BLEU against a precomputed reference; bit-identical to
/// [`sentence_bleu`] on the same reference tokens. Allocates nothing when
/// `cfg.max_n` plus the reference's distinct n-gram count is at most 256.
///
/// # Panics
///
/// Panics if `reference` was built with a different `max_n` than `cfg.max_n`.
pub fn sentence_bleu_pre<T: Ord>(hyp: &[T], reference: &RefNgrams<T>, cfg: &BleuConfig) -> f64 {
    assert_eq!(
        reference.max_n(),
        cfg.max_n,
        "reference n-grams precomputed for a different max_n"
    );
    reference.with_matches(hyp, |matched| {
        score_counts(
            matched
                .iter()
                .enumerate()
                .map(|(k, &m)| (u64::from(m), ngram_total(hyp.len(), k + 1))),
            cfg.max_n,
            hyp.len() as u64,
            reference.len() as u64,
            cfg.smoothing,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<&str> {
        s.split_whitespace().collect()
    }

    #[test]
    fn perfect_match_scores_100() {
        let h = vec![vec![1u32, 2, 3, 4, 5, 6]];
        let score = corpus_bleu(&h, &h, &BleuConfig::default());
        assert!((score - 100.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_tokens_score_0() {
        let h = vec![vec![1u32, 2, 3, 4, 5]];
        let r = vec![vec![6u32, 7, 8, 9, 10]];
        assert_eq!(corpus_bleu(&h, &r, &BleuConfig::default()), 0.0);
        assert_eq!(corpus_bleu(&h, &r, &BleuConfig::sentence()), 0.0);
    }

    #[test]
    fn papineni_clipping_example() {
        // "the the the the the the the" vs "the cat is on the mat":
        // clipped unigram precision is 2/7.
        let h = words("the the the the the the the");
        let r = words("the cat is on the mat");
        let mut stats = BleuStats::new(1);
        stats.update(&h, &r);
        assert_eq!(stats.matched[0], 2);
        assert_eq!(stats.total[0], 7);
        let score = stats.score(Smoothing::None);
        assert!((score - 100.0 * 2.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn brevity_penalty_applies_to_short_hypotheses() {
        // Hypothesis is a strict prefix of the reference: all precisions are
        // 1 but the hypothesis is half as long, so BP = exp(1 - 2) = e^-1.
        let h = vec![vec![1u32, 2, 3, 4]];
        let r = vec![vec![1u32, 2, 3, 4, 5, 6, 7, 8]];
        let score = corpus_bleu(&h, &r, &BleuConfig::default());
        assert!((score - 100.0 * (-1.0f64).exp()).abs() < 1e-6);
    }

    #[test]
    fn no_brevity_penalty_for_long_hypotheses() {
        let h = vec![vec![1u32, 2, 3, 4, 5, 1, 2, 3, 4, 5]];
        let r = vec![vec![1u32, 2, 3, 4, 5]];
        // Precisions < 1 but BP = 1; score must be strictly positive.
        let score = corpus_bleu(&h, &r, &BleuConfig::default());
        assert!(score > 0.0 && score < 100.0);
    }

    #[test]
    fn smoothing_rescues_zero_higher_order() {
        // One shared unigram, no shared bigrams.
        let h = words("a x");
        let r = words("a y");
        let unsmoothed = sentence_bleu(&h, &r, &BleuConfig::default());
        let smoothed = sentence_bleu(&h, &r, &BleuConfig::sentence());
        assert_eq!(unsmoothed, 0.0);
        assert!(smoothed > 0.0);
    }

    #[test]
    fn epsilon_smoothing_positive_but_tiny() {
        let h = words("a x c y e");
        let r = words("a z c w e");
        let cfg = BleuConfig {
            max_n: 4,
            smoothing: Smoothing::Epsilon(0.1),
        };
        let s = sentence_bleu(&h, &r, &cfg);
        assert!(s > 0.0 && s < 50.0);
    }

    #[test]
    fn corpus_beats_worst_sentence() {
        // A corpus mixing perfect and imperfect sentences scores between.
        let hyps = vec![vec![1u32, 2, 3, 4, 5], vec![1u32, 2, 3, 9, 9]];
        let refs = vec![vec![1u32, 2, 3, 4, 5], vec![1u32, 2, 3, 4, 5]];
        let cfg = BleuConfig::sentence();
        let corpus = corpus_bleu(&hyps, &refs, &cfg);
        let bad = sentence_bleu(&hyps[1], &refs[1], &cfg);
        let good = sentence_bleu(&hyps[0], &refs[0], &cfg);
        assert!(corpus > bad && corpus <= good);
    }

    #[test]
    fn empty_hypothesis_scores_zero() {
        let h: Vec<Vec<u32>> = vec![vec![]];
        let r = vec![vec![1u32, 2, 3]];
        assert_eq!(corpus_bleu(&h, &r, &BleuConfig::default()), 0.0);
    }

    #[test]
    fn merge_equals_single_pass() {
        let h1 = vec![1u32, 2, 3, 4, 5];
        let h2 = vec![2u32, 3, 4, 5, 6];
        let r1 = vec![1u32, 2, 3, 4, 6];
        let r2 = vec![2u32, 3, 4, 5, 6];
        let mut all = BleuStats::new(4);
        all.update(&h1, &r1);
        all.update(&h2, &r2);
        let mut a = BleuStats::new(4);
        a.update(&h1, &r1);
        let mut b = BleuStats::new(4);
        b.update(&h2, &r2);
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn shorter_ngram_order_on_short_sentences() {
        let h = vec![vec![1u32, 2]];
        let r = vec![vec![1u32, 2]];
        let cfg = BleuConfig {
            max_n: 4,
            smoothing: Smoothing::AddOne,
        };
        // With add-one smoothing, 3-gram/4-gram precisions become 1/1.
        let s = corpus_bleu(&h, &r, &cfg);
        assert!(s > 0.0);
    }

    #[test]
    fn empty_hypothesis_zero_under_every_smoothing() {
        let r = vec![1u32, 2, 3];
        for smoothing in [Smoothing::None, Smoothing::AddOne, Smoothing::Epsilon(0.5)] {
            let cfg = BleuConfig {
                max_n: 4,
                smoothing,
            };
            assert_eq!(sentence_bleu(&[], &r, &cfg), 0.0, "{smoothing:?}");
        }
    }

    #[test]
    fn empty_corpus_scores_zero() {
        let none: Vec<Vec<u32>> = Vec::new();
        assert_eq!(corpus_bleu(&none, &none, &BleuConfig::sentence()), 0.0);
    }

    #[test]
    fn empty_reference_epsilon_hand_computed() {
        // hyp = [1, 2, 3], ref = []: nothing matches, but Epsilon replaces
        // each zero matched count. p1 = 0.3/3, p2 = 0.3/2; no brevity penalty
        // (hypothesis is the longer side), so
        // BLEU = 100 * sqrt(0.1 * 0.15).
        let cfg = BleuConfig {
            max_n: 2,
            smoothing: Smoothing::Epsilon(0.3),
        };
        let s = sentence_bleu(&[1u32, 2, 3], &[], &cfg);
        assert!(
            (s - 100.0 * (0.1f64 * 0.15).sqrt()).abs() < 1e-9,
            "score {s}"
        );
        // None and AddOne leave the unsmoothed unigram precision at 0/3.
        for smoothing in [Smoothing::None, Smoothing::AddOne] {
            let cfg = BleuConfig {
                max_n: 2,
                smoothing,
            };
            assert_eq!(sentence_bleu(&[1u32, 2, 3], &[], &cfg), 0.0);
        }
    }

    #[test]
    fn sentence_shorter_than_max_n() {
        // A two-token sentence has no 3-grams or 4-grams at all (total = 0).
        let h = vec![1u32, 2];
        // Without smoothing the missing orders zero the score, and Epsilon
        // only rescues zero *matches*, not zero totals.
        for smoothing in [Smoothing::None, Smoothing::Epsilon(0.1)] {
            let cfg = BleuConfig {
                max_n: 4,
                smoothing,
            };
            assert_eq!(sentence_bleu(&h, &h, &cfg), 0.0, "{smoothing:?}");
        }
        // Add-one turns each missing order into (0+1)/(0+1) = 1, so a perfect
        // short sentence scores a perfect 100.
        let s = sentence_bleu(&h, &h, &BleuConfig::sentence());
        assert!((s - 100.0).abs() < 1e-9, "score {s}");
    }

    #[test]
    fn addone_smoothing_hand_computed() {
        // hyp = a b c d, ref = a b x d: unigram precision 3/4 (unsmoothed —
        // add-one applies only to n > 1), bigram matched {ab} giving
        // (1+1)/(3+1) = 1/2, equal lengths so BP = 1:
        // BLEU-2 = 100 * sqrt(3/4 * 1/2).
        let h = words("a b c d");
        let r = words("a b x d");
        let cfg = BleuConfig {
            max_n: 2,
            smoothing: Smoothing::AddOne,
        };
        let s = sentence_bleu(&h, &r, &cfg);
        assert!(
            (s - 100.0 * (0.75f64 * 0.5).sqrt()).abs() < 1e-9,
            "score {s}"
        );
    }

    #[test]
    fn epsilon_smoothing_hand_computed() {
        // hyp = a b, ref = a c: p1 = 1/2, bigram matched 0 of 1 so
        // p2 = 0.5/1; BLEU-2 = 100 * sqrt(1/2 * 1/2) = 50 exactly.
        let h = words("a b");
        let r = words("a c");
        let cfg = BleuConfig {
            max_n: 2,
            smoothing: Smoothing::Epsilon(0.5),
        };
        let s = sentence_bleu(&h, &r, &cfg);
        assert!((s - 50.0).abs() < 1e-9, "score {s}");
    }

    #[test]
    fn precomputed_reference_matches_direct() {
        let hyps = [
            words("the cat sat on the mat"),
            words("the the the the the the the"),
            words("a completely different sentence"),
            vec![],
        ];
        let r = words("the cat is on the mat");
        for cfg in [BleuConfig::default(), BleuConfig::sentence()] {
            let pre = RefNgrams::new(&r, cfg.max_n);
            for h in &hyps {
                let direct = sentence_bleu(h, &r, &cfg);
                let fast = sentence_bleu_pre(h, &pre, &cfg);
                assert_eq!(direct.to_bits(), fast.to_bits(), "hyp {h:?}");
            }
        }
    }

    #[test]
    fn precomputed_empty_reference() {
        let pre = RefNgrams::<u32>::new(&[], 4);
        assert!(pre.is_empty());
        assert_eq!(pre.max_n(), 4);
        let cfg = BleuConfig::sentence();
        let direct = sentence_bleu(&[1u32, 2, 3], &[], &cfg);
        let fast = sentence_bleu_pre(&[1u32, 2, 3], &RefNgrams::new(&[], cfg.max_n), &cfg);
        assert_eq!(direct.to_bits(), fast.to_bits());
    }

    #[test]
    #[should_panic(expected = "different max_n")]
    fn precomputed_order_mismatch_panics() {
        let pre = RefNgrams::new(&[1u32, 2, 3], 2);
        let mut stats = BleuStats::new(4);
        stats.update_pre(&[1u32, 2], &pre);
    }

    /// The paper-literal kernel: one `HashMap<Vec<T>, usize>` per order and
    /// side, a key per n-gram, and the score formula written out in full.
    /// The trie kernel must reproduce its counts and scores exactly.
    mod oracle {
        use super::{BleuStats, Smoothing};
        use std::collections::HashMap;
        use std::hash::Hash;

        fn ngram_counts<T: Eq + Hash + Clone>(tokens: &[T], n: usize) -> HashMap<Vec<T>, usize> {
            let mut map = HashMap::new();
            if tokens.len() >= n {
                for w in tokens.windows(n) {
                    *map.entry(w.to_vec()).or_insert(0) += 1;
                }
            }
            map
        }

        pub fn update<T: Eq + Hash + Clone>(stats: &mut BleuStats, hyp: &[T], reference: &[T]) {
            let max_n = stats.matched.len();
            stats.hyp_len += hyp.len() as u64;
            stats.ref_len += reference.len() as u64;
            for n in 1..=max_n {
                let hyp_counts = ngram_counts(hyp, n);
                let ref_counts = ngram_counts(reference, n);
                let mut matched = 0u64;
                let mut total = 0u64;
                for (gram, &c) in &hyp_counts {
                    total += c as u64;
                    if let Some(&rc) = ref_counts.get(gram) {
                        matched += c.min(rc) as u64;
                    }
                }
                stats.matched[n - 1] += matched;
                stats.total[n - 1] += total;
            }
        }

        pub fn score(stats: &BleuStats, smoothing: Smoothing) -> f64 {
            let max_n = stats.matched.len();
            if stats.hyp_len == 0 {
                return 0.0;
            }
            let mut log_sum = 0.0;
            for n in 0..max_n {
                let (matched, total) = match smoothing {
                    Smoothing::AddOne if n > 0 => {
                        (stats.matched[n] as f64 + 1.0, stats.total[n] as f64 + 1.0)
                    }
                    _ => (stats.matched[n] as f64, stats.total[n] as f64),
                };
                let p = if total > 0.0 {
                    match smoothing {
                        Smoothing::Epsilon(eps) if matched == 0.0 => eps / total,
                        _ => matched / total,
                    }
                } else {
                    0.0
                };
                if p <= 0.0 {
                    return 0.0;
                }
                log_sum += p.ln() / max_n as f64;
            }
            let bp = if stats.hyp_len >= stats.ref_len {
                1.0
            } else {
                (1.0 - stats.ref_len as f64 / stats.hyp_len as f64).exp()
            };
            100.0 * bp * log_sum.exp()
        }
    }

    const SMOOTHINGS: [Smoothing; 3] =
        [Smoothing::None, Smoothing::AddOne, Smoothing::Epsilon(0.1)];

    /// Checks every kernel entry point against the oracle on one pair.
    fn assert_matches_oracle<T: Eq + std::hash::Hash + Ord + Clone + std::fmt::Debug>(
        hyp: &[T],
        reference: &[T],
        max_n: usize,
    ) {
        let mut expected = BleuStats::new(max_n);
        oracle::update(&mut expected, hyp, reference);
        let mut direct = BleuStats::new(max_n);
        direct.update(hyp, reference);
        let pre = RefNgrams::new(reference, max_n);
        let mut amortized = BleuStats::new(max_n);
        amortized.update_pre(hyp, &pre);
        assert_eq!(direct, expected, "update: hyp {hyp:?} ref {reference:?}");
        assert_eq!(
            amortized, expected,
            "update_pre: hyp {hyp:?} ref {reference:?}"
        );
        for smoothing in SMOOTHINGS {
            let cfg = BleuConfig { max_n, smoothing };
            let want = oracle::score(&expected, smoothing).to_bits();
            assert_eq!(direct.score(smoothing).to_bits(), want, "{smoothing:?}");
            assert_eq!(sentence_bleu(hyp, reference, &cfg).to_bits(), want);
            assert_eq!(sentence_bleu_pre(hyp, &pre, &cfg).to_bits(), want);
        }
    }

    #[test]
    fn kernel_matches_oracle_on_edge_cases() {
        let cases: [(&[u32], &[u32]); 6] = [
            (&[], &[]),
            (&[], &[1, 2, 3]),
            (&[1, 2, 3], &[]),
            (&[7, 7, 7, 7, 7], &[7, 7, 1, 7]),
            (&[1, 2], &[1, 2]),
            (&[1, 2, 1, 2, 1, 2], &[2, 1, 2, 1]),
        ];
        for (h, r) in cases {
            for max_n in 0..=7 {
                assert_matches_oracle(h, r, max_n);
            }
        }
    }

    #[test]
    fn kernel_matches_oracle_beyond_the_stack_scratch() {
        // 300 distinct tokens: 300 + 299 + 298 + 297 distinct n-grams, far
        // past the stack scratch, so the heap fallback does the counting.
        let reference: Vec<u32> = (0..300).collect();
        let hyp: Vec<u32> = (0..300).map(|i| (i * 7) % 311).collect();
        assert_matches_oracle(&hyp, &reference, 4);
        assert_matches_oracle(&reference, &reference, 4);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn token_seq(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec(0u8..6, 1..max_len)
        }

        proptest! {
            #[test]
            fn score_is_bounded(h in token_seq(20), r in token_seq(20)) {
                for cfg in [BleuConfig::default(), BleuConfig::sentence()] {
                    let s = sentence_bleu(&h, &r, &cfg);
                    prop_assert!((0.0..=100.0 + 1e-9).contains(&s), "score {}", s);
                }
            }

            #[test]
            fn identity_is_perfect(h in proptest::collection::vec(0u8..6, 4..20)) {
                let s = sentence_bleu(&h, &h, &BleuConfig::default());
                prop_assert!((s - 100.0).abs() < 1e-9);
            }

            #[test]
            fn identity_is_maximal_under_smoothing(h in token_seq(20), r in token_seq(20)) {
                let cfg = BleuConfig::sentence();
                let self_score = sentence_bleu(&h, &h, &cfg);
                let cross = sentence_bleu(&r, &h, &cfg);
                prop_assert!(cross <= self_score + 1e-9);
            }

            #[test]
            fn precomputed_bit_identical(h in token_seq(20), r in token_seq(20)) {
                for cfg in [BleuConfig::default(), BleuConfig::sentence()] {
                    let pre = RefNgrams::new(&r, cfg.max_n);
                    let direct = sentence_bleu(&h, &r, &cfg);
                    let fast = sentence_bleu_pre(&h, &pre, &cfg);
                    prop_assert_eq!(direct.to_bits(), fast.to_bits());
                }
            }

            /// A rebuilt trie scores like a fresh one, whatever reference
            /// and order it held before.
            #[test]
            fn rebuilt_reference_is_bit_identical(h in token_seq(20), r in token_seq(20),
                                                  before in token_seq(20), n0 in 1usize..6) {
                let mut reused = RefNgrams::new(&before, n0);
                for cfg in [BleuConfig::default(), BleuConfig::sentence()] {
                    reused.rebuild(&r, cfg.max_n);
                    let fresh = sentence_bleu_pre(&h, &RefNgrams::new(&r, cfg.max_n), &cfg);
                    let again = sentence_bleu_pre(&h, &reused, &cfg);
                    prop_assert_eq!(fresh.to_bits(), again.to_bits());
                    prop_assert_eq!(reused.len(), r.len());
                }
            }

            #[test]
            fn merge_matches_batch(hs in proptest::collection::vec(token_seq(12), 1..6),
                                   rs in proptest::collection::vec(token_seq(12), 1..6)) {
                let n = hs.len().min(rs.len());
                let hs = &hs[..n];
                let rs = &rs[..n];
                let mut whole = BleuStats::new(3);
                let mut merged = BleuStats::new(3);
                for (h, r) in hs.iter().zip(rs) {
                    whole.update(h, r);
                    let mut part = BleuStats::new(3);
                    part.update(h, r);
                    merged.merge(&part);
                }
                prop_assert_eq!(whole, merged);
            }

            #[test]
            fn kernel_matches_oracle_u32(h in proptest::collection::vec(0u32..5, 0..14),
                                         r in proptest::collection::vec(0u32..5, 0..14),
                                         max_n in 1usize..7) {
                assert_matches_oracle(&h, &r, max_n);
            }

            #[test]
            fn kernel_matches_oracle_str(h in proptest::collection::vec(0usize..4, 0..14),
                                         r in proptest::collection::vec(0usize..4, 0..14),
                                         max_n in 1usize..7) {
                const WORDS: [&str; 4] = ["the", "cat", "on", "mat"];
                let h: Vec<&str> = h.into_iter().map(|i| WORDS[i]).collect();
                let r: Vec<&str> = r.into_iter().map(|i| WORDS[i]).collect();
                assert_matches_oracle(&h, &r, max_n);
            }

            #[test]
            fn corpus_matches_oracle(hs in proptest::collection::vec(token_seq(16), 1..6),
                                     rs in proptest::collection::vec(token_seq(16), 1..6)) {
                let n = hs.len().min(rs.len());
                let (hs, rs) = (&hs[..n], &rs[..n]);
                for smoothing in SMOOTHINGS {
                    let cfg = BleuConfig { max_n: 4, smoothing };
                    let mut expected = BleuStats::new(4);
                    for (h, r) in hs.iter().zip(rs) {
                        oracle::update(&mut expected, h, r);
                    }
                    prop_assert_eq!(
                        corpus_bleu(hs, rs, &cfg).to_bits(),
                        oracle::score(&expected, smoothing).to_bits()
                    );
                }
            }
        }
    }
}
