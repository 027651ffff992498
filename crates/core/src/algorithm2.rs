//! Algorithm 2 — Anomaly Detection.
//!
//! At each test timestamp (sentence index) every *valid* pair model — one
//! whose training BLEU `s(i, j)` lies in the user's validity range, best
//! `[80, 90)` per the paper — translates the source sensor's test sentence
//! and scores it against the target's actual sentence with sentence-level
//! BLEU `f(i, j)`. A relationship is *broken* when `f(i, j) < s(i, j)`; the
//! anomaly score `a_t` is the fraction of valid relationships broken at `t`,
//! and the alert set `W_t` lists the broken pairs for diagnosis.

use crate::algorithm1::{validate_alignment, TrainedGraph};
use crate::error::CoreError;
use crate::memo::TranslationMemo;
use crate::pool::{self, OneWorker};
use crate::translator::{FrozenPairModel, FrozenTranslator};
use mdes_bleu::{sentence_bleu_pre, BleuConfig, RefNgrams};
use mdes_graph::ScoreRange;
use mdes_lang::SentenceSet;
use mdes_nn::InferArena;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// How a broken relationship is decided from the test score `f(i, j)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum BrokenRule {
    /// The paper's rule: broken when `f < s(i, j)` (the corpus dev BLEU),
    /// minus the configured margin.
    #[default]
    CorpusScore,
    /// Calibrated rule: broken when `f` falls below the pair's stored
    /// development-quantile floor (see
    /// [`GraphBuildConfig::floor_quantile`](crate::algorithm1::GraphBuildConfig)),
    /// minus the margin. Normal-window fluctuation rarely crosses the floor,
    /// so false positives drop (ablation A8).
    DevQuantileFloor,
}

/// Configuration of online detection.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DetectionConfig {
    /// Validity range on training scores: only models inside participate.
    pub valid_range: ScoreRange,
    /// Sentence-BLEU configuration for test scoring (smoothed by default).
    pub bleu: BleuConfig,
    /// Extra slack subtracted from the threshold before comparison. Zero
    /// reproduces the paper exactly.
    pub margin: f64,
    /// Threshold rule.
    pub rule: BrokenRule,
    /// Worker threads for the per-model detection loop (0 = number of
    /// available CPUs). Results are byte-identical at any thread count, so
    /// this is purely a scheduling knob; it is not serialized (a restored
    /// model picks up the deserializing host's default).
    #[serde(skip)]
    pub threads: usize,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        Self {
            valid_range: ScoreRange::best_detection(),
            bleu: BleuConfig::sentence(),
            margin: 0.0,
            rule: BrokenRule::CorpusScore,
            threads: 0,
        }
    }
}

impl DetectionConfig {
    /// Replaces the validity range (builder style).
    #[must_use]
    pub fn with_valid_range(mut self, range: ScoreRange) -> Self {
        self.valid_range = range;
        self
    }

    /// Replaces the threshold margin (builder style).
    #[must_use]
    pub fn with_margin(mut self, margin: f64) -> Self {
        self.margin = margin;
        self
    }

    /// Replaces the broken-relationship rule (builder style).
    #[must_use]
    pub fn with_rule(mut self, rule: BrokenRule) -> Self {
        self.rule = rule;
        self
    }

    /// Replaces the worker thread count (builder style; 0 = all CPUs).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Result of Algorithm 2 over a test segment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DetectionResult {
    /// Anomaly score `a_t` per test sentence index, each in `[0, 1]`.
    pub scores: Vec<f64>,
    /// Broken sensor pairs `W_t` per test sentence index.
    pub alerts: Vec<Vec<(usize, usize)>>,
    /// Character offset of each sentence within the test segment (timestamp).
    pub starts: Vec<usize>,
    /// Number of valid models that participated.
    pub valid_models: usize,
    /// Fraction of valid models that actually participated, in `[0, 1]`.
    /// [`detect`] always reports `1.0`; [`detect_excluding`] reports less
    /// when dropped sensors removed pairs from the valid set, quantifying
    /// how much evidence backs the scores.
    pub coverage: f64,
}

impl DetectionResult {
    /// Sentence indices whose anomaly score is at least `threshold`.
    pub fn detections(&self, threshold: f64) -> Vec<usize> {
        (0..self.scores.len())
            .filter(|&t| self.scores[t] >= threshold)
            .collect()
    }

    /// The maximum anomaly score observed.
    pub fn max_score(&self) -> f64 {
        self.scores.iter().cloned().fold(0.0, f64::max)
    }
}

/// Runs Algorithm 2 on aligned test sentence sets.
///
/// # Errors
///
/// Returns an error if corpora are empty/misaligned or no model's training
/// score falls inside `cfg.valid_range`.
pub fn detect(
    trained: &TrainedGraph,
    test_sets: &[SentenceSet],
    cfg: &DetectionConfig,
) -> Result<DetectionResult, CoreError> {
    detect_excluding(trained, test_sets, cfg, &[])
}

/// Runs Algorithm 2 with some sensors excluded — the degraded-mode entry
/// point used when sensors have dropped out online.
///
/// `excluded_sensors` are graph node indices (the pipeline's surviving
/// sensor order); every valid pair touching one is removed from the
/// participating set, and the result's `coverage` reports the fraction of
/// valid models that remained. With every valid model excluded a degenerate
/// result is returned (all scores `0.0`, `coverage` `0.0`) rather than an
/// error: upstream dropout detection already explains *why* there is no
/// evidence, and a monitoring loop must keep running through it.
///
/// # Errors
///
/// As [`detect`]: empty/misaligned corpora, or no model in the validity
/// range *before* exclusions ([`CoreError::NoValidModels`] — a broken
/// configuration, not a degraded plant). A panicking decode worker is
/// [`CoreError::WorkerLost`].
pub fn detect_excluding(
    trained: &TrainedGraph,
    test_sets: &[SentenceSet],
    cfg: &DetectionConfig,
    excluded_sensors: &[usize],
) -> Result<DetectionResult, CoreError> {
    let job = DetectJob {
        test_sets,
        excluded_sensors,
    };
    detect_many_with_bank(&Bank::trained(trained), &[job], cfg, cfg.threads)
        .pop()
        .expect("one result per job")
}

/// The pair models Algorithm 2 runs over: a [`TrainedGraph`]'s, or a
/// [`GraphSnapshot`](crate::serve::GraphSnapshot)'s with its frozen valid
/// index and translation memo.
pub(crate) struct Bank<'a> {
    /// Number of graph nodes (aligned corpora expected per job).
    pub nodes: usize,
    /// The pair models, indexed as the valid index and the memo are.
    pub models: &'a [FrozenPairModel],
    /// The valid-model index frozen into a snapshot; `None` filters the
    /// models on `cfg.valid_range` per call.
    pub valid: Option<&'a [usize]>,
    /// Memoizes neural translations across calls.
    pub memo: Option<&'a TranslationMemo>,
}

impl<'a> Bank<'a> {
    /// A trained graph's models, filtered on `cfg.valid_range` per call
    /// and decoded without a memo.
    pub(crate) fn trained(trained: &'a TrainedGraph) -> Self {
        Bank {
            nodes: trained.graph.len(),
            models: trained.models(),
            valid: None,
            memo: None,
        }
    }

    /// Decodes a batch of source sentences with model `k`, the neural
    /// family through `arena` (and the memo, if any), appending each row's
    /// `out_len` tokens to `out`.
    fn decode_batch(
        &self,
        k: usize,
        srcs: &[&[u32]],
        out_len: usize,
        arena: &mut InferArena,
        out: &mut Vec<u32>,
    ) {
        match self.models[k].translator() {
            // An n-gram decode costs about what a lookup would.
            FrozenTranslator::Ngram(t) => {
                for src in srcs {
                    t.translate_into(src, out_len, out);
                }
            }
            FrozenTranslator::Nmt(t) => {
                let mut decode = |misses: &[&[u32]]| t.translate_batch(misses, out_len, arena);
                let rows = match self.memo {
                    Some(memo) => memo.translate_batch(k, self.models.len(), srcs, out_len, decode),
                    None => decode(srcs),
                };
                out.extend(rows.into_iter().flatten());
            }
        }
    }
}

/// One detection request of a cross-session batch: aligned test sentence
/// sets plus the graph node indices to exclude (dropped sensors).
pub(crate) struct DetectJob<'a> {
    /// Aligned test sentence sets, one per graph node.
    pub test_sets: &'a [SentenceSet],
    /// Graph node indices excluded from the participating set.
    pub excluded_sensors: &'a [usize],
}

/// The flat buffers of [`detect_many_with_bank`], kept per thread across
/// calls so that a serving round in steady state allocates none of them.
#[derive(Default)]
struct Scratch {
    /// The valid models, then the participating models of each job that
    /// excludes a sensor; a job that excludes none shares the valid list.
    parts: Vec<usize>,
    /// Reference n-grams per (job, target node, window); `ref_at[job * n +
    /// node]` is the node's first window. Entries past this call's are stale.
    refs: Vec<RefNgrams<u32>>,
    ref_at: Vec<usize>,
    /// `(job, first broken slot, slot stride)` per evaluation; model `k`'s
    /// are `evals[model_at[k]..model_at[k + 1]]`, jobs ascending. `models`
    /// lists the models with at least one, ascending: the pool's items.
    evals: Vec<(usize, usize, usize)>,
    model_at: Vec<usize>,
    models: Vec<usize>,
    /// Broken flag per (job, window, participating position), job-major;
    /// `Relaxed` suffices, as the merge reads it after the pool's join.
    broken: Vec<AtomicBool>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Past this many reference sets (0.6–0.8 KiB each on the benchmark plants)
/// a call frees its thread's [`Scratch`] rather than pin it there: a round of
/// 256 sessions on 8 sensors builds 2,048; seven days of a 40-sensor fleet 7,840.
const KEEP_REFS: usize = 4_096;

/// A job refused before decode, or what its merge needs after it.
enum Job {
    Done(CoreError),
    /// `Live(count, part, flags, span)`: `count` windows scored by the models
    /// `parts[part]`, whose broken flags start at slot `flags`.
    Live(usize, Range<usize>, usize, mdes_obs::Span),
}

/// The Algorithm 2 driver: runs detection for many jobs against one shared
/// [`Bank`]. [`detect`], [`detect_excluding`],
/// [`GraphSnapshot::detect_excluding`](crate::serve::GraphSnapshot::detect_excluding)
/// and the serving layer's pushes are all calls into it, most with one job.
///
/// Decode work is batched *across* jobs: every window that needs model `k`
/// — no matter which job it came from — is gathered, grouped by `(source
/// length, output length)` and decoded in one `decode_batch` call. For the
/// NMT family that turns B same-shape decode steps from B stream sessions
/// into one GEMM per step instead of B, which is where serving throughput
/// goes at high stream counts. The models are spread over `threads` pool
/// workers (0 = all CPUs), one private [`InferArena`] each.
///
/// Result `j` does not depend on the other jobs or the thread count: every
/// GEMM output element is an independent accumulation chain (batch
/// invariance, pinned by `mdes-nn`'s `quantized_matmul_is_batch_invariant`
/// and `tests/algorithm2_oracle.rs`), and each job's merge walks its models
/// in participating order. Per-job validation errors (misaligned corpora, no
/// valid models) land in that job's slot without poisoning the others; a
/// panicking decode gives every job still awaiting decode
/// [`CoreError::WorkerLost`].
pub(crate) fn detect_many_with_bank(
    bank: &Bank<'_>,
    jobs: &[DetectJob<'_>],
    cfg: &DetectionConfig,
    threads: usize,
) -> Vec<Result<DetectionResult, CoreError>> {
    let (n, models) = (bank.nodes, bank.models);
    SCRATCH.with_borrow_mut(|s| {
        s.parts.clear();
        let in_range = |&k: &usize| cfg.valid_range.contains(models[k].train_score);
        match bank.valid {
            Some(valid) => s.parts.extend_from_slice(valid),
            None => s.parts.extend((0..models.len()).filter(in_range)),
        }
        let valid = s.parts.len();
        let mut flags = 0;
        let state: Vec<Job> = jobs
            .iter()
            .map(|job| {
                if let Err(e) = validate_alignment(job.test_sets, n) {
                    return Job::Done(e);
                }
                if valid == 0 {
                    return Job::Done(CoreError::NoValidModels);
                }
                let (count, excluded) = (job.test_sets[0].len(), job.excluded_sensors);
                let part = if excluded.is_empty() {
                    0..valid
                } else {
                    let start = s.parts.len();
                    for v in 0..valid {
                        let m = &models[s.parts[v]];
                        if !excluded.contains(&m.src) && !excluded.contains(&m.dst) {
                            s.parts.push(s.parts[v]);
                        }
                    }
                    start..s.parts.len()
                };
                let mut span = mdes_obs::span("algo2.detect");
                span.field("windows", count);
                span.field("valid", valid);
                span.field("participating", part.len());
                span.field("excluded", excluded.len());
                mdes_obs::counter("algo2.windows", count as u64);
                mdes_obs::counter("algo2.evaluations", (part.len() * count) as u64);
                flags += count * part.len();
                Job::Live(count, part.clone(), flags - count * part.len(), span)
            })
            .collect();
        let live = || {
            state.iter().enumerate().filter_map(|(j, job)| match job {
                Job::Live(_, part, flags, _) => Some((j, *flags, &s.parts[part.clone()])),
                Job::Done(_) => None,
            })
        };

        // Reference n-grams once per (job, target node, window), shared by
        // every model into that node; then the evaluations grouped by
        // model (a counting sort), so the work order is deterministic.
        s.ref_at.clear();
        s.ref_at.resize(jobs.len() * n, usize::MAX);
        s.model_at.clear();
        s.model_at.resize(models.len() + 2, 0);
        let mut built = 0;
        for (j, _, part) in live() {
            for &k in part {
                s.model_at[k + 2] += 1;
                let dst = models[k].dst;
                if s.ref_at[j * n + dst] == usize::MAX {
                    s.ref_at[j * n + dst] = built;
                    for r in &jobs[j].test_sets[dst].sentences {
                        match s.refs.get_mut(built) {
                            Some(grams) => grams.rebuild(r, cfg.bleu.max_n),
                            None => s.refs.push(RefNgrams::new(r, cfg.bleu.max_n)),
                        }
                        built += 1;
                    }
                }
            }
        }
        for i in 1..s.model_at.len() {
            s.model_at[i] += s.model_at[i - 1];
        }
        s.evals.resize(s.model_at[models.len() + 1], (0, 0, 0));
        for (j, first, part) in live() {
            for (pos, &k) in part.iter().enumerate() {
                s.evals[s.model_at[k + 1]] = (j, first + pos, part.len());
                s.model_at[k + 1] += 1;
            }
        }
        s.models.clear();
        s.models
            .extend((0..models.len()).filter(|&k| s.model_at[k + 1] > s.model_at[k]));
        if s.broken.len() < flags {
            s.broken.resize_with(flags, AtomicBool::default);
        }

        // Model-parallel: each pull decodes one model's windows of every
        // job that needs it in `(src_len, out_len)` batches into one flat
        // hypothesis buffer, then writes each window's broken flag into the
        // job-major table. Pure given the bank, so scheduling cannot change
        // results. A call that touches one model (or none) starts no worker.
        let run = pool::run(
            s.models.len(),
            threads,
            OneWorker::OnCaller,
            || (InferArena::new(), Vec::new(), Vec::new(), Vec::new()),
            |(arena, shapes, batch, hyps), i| {
                let (k, m) = (s.models[i], &models[s.models[i]]);
                // `(src_len, out_len, job, window, broken slot)`, sorted:
                // one run per decode shape, its windows in job order.
                shapes.clear();
                for &(j, first, stride) in &s.evals[s.model_at[k]..s.model_at[k + 1]] {
                    let sets = jobs[j].test_sets;
                    for (t, r) in sets[m.dst].sentences.iter().enumerate() {
                        let src_len = sets[m.src].sentences[t].len();
                        shapes.push((src_len, r.len(), j, t, first + t * stride));
                    }
                }
                shapes.sort_unstable();
                hyps.clear();
                let decode_timer = mdes_obs::timer("algo2.model_decode_us");
                for group in shapes.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
                    batch.clear();
                    let src = |&(_, _, j, t, _): &(_, _, usize, usize, _)| {
                        jobs[j].test_sets[m.src].sentences[t].as_slice()
                    };
                    batch.extend(group.iter().map(src));
                    mdes_obs::observe("algo2.batch_size", batch.len() as f64);
                    bank.decode_batch(k, batch, group[0].1, arena, hyps);
                }
                drop(decode_timer);
                let threshold = match cfg.rule {
                    BrokenRule::CorpusScore => m.train_score,
                    BrokenRule::DevQuantileFloor => m.dev_floor,
                };
                let mut at = 0;
                for &(_, out_len, j, t, slot) in shapes.iter() {
                    let grams = &s.refs[s.ref_at[j * n + m.dst] + t];
                    let f = sentence_bleu_pre(&hyps[at..at + out_len], grams, &cfg.bleu);
                    s.broken[slot].store(f < threshold - cfg.margin, Relaxed);
                    at += out_len;
                }
            },
        );
        // Merge each job in its own participating order.
        let merge = |(job, state): (&DetectJob<'_>, Job)| {
            let (count, part, flags, mut span) = match (state, &run) {
                (Job::Done(e), _) => return Err(e),
                (Job::Live(_, part, ..), Err(lost)) if !part.is_empty() => return Err(lost.error()),
                (Job::Live(count, part, flags, span), _) => (count, part, flags, span),
            };
            let part = &s.parts[part];
            let alerts: Vec<Vec<(usize, usize)>> = (0..count)
                .map(|t| {
                    let row = &s.broken[flags + t * part.len()..][..part.len()];
                    let broken = part.iter().zip(row).filter(|(_, b)| b.load(Relaxed));
                    broken
                        .map(|(&k, _)| (models[k].src, models[k].dst))
                        .collect()
                })
                .collect();
            let broken: usize = alerts.iter().map(Vec::len).sum();
            span.field("broken", broken);
            mdes_obs::counter("algo2.broken", broken as u64);
            // A job with every valid model excluded scores 0.0 on no evidence.
            let participating = part.len().max(1) as f64;
            let scores = alerts.iter().map(|b| b.len() as f64 / participating);
            Ok(DetectionResult {
                scores: scores.collect(),
                alerts,
                starts: job.test_sets[0].starts.clone(),
                valid_models: part.len(),
                coverage: part.len() as f64 / valid as f64,
            })
        };
        let results = jobs.iter().zip(state).map(merge).collect();
        if built > KEEP_REFS {
            *s = Scratch::default();
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::{build_graph, GraphBuildConfig};
    use crate::pool::lock;
    use mdes_lang::{LanguagePipeline, RawTrace, WindowConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::{Arc, Mutex};

    /// Two phase-locked sensors; the test half optionally decouples them.
    fn scenario(decouple_after: Option<usize>) -> (Vec<f64>, usize) {
        let n = 900;
        let mut rng = StdRng::seed_from_u64(5);
        let mk = |phase: usize, decouple: Option<usize>| -> RawTrace {
            let mut extra = 0usize;
            let events = (0..n)
                .map(|t| {
                    if Some(t) == decouple {
                        extra = 3; // sudden phase slip
                    }
                    let state = ((t + phase + extra) / 5) % 2;
                    if state == 0 { "on" } else { "off" }.to_owned()
                })
                .collect();
            RawTrace::new(format!("p{phase}"), events)
        };
        let traces = vec![mk(0, None), mk(2, decouple_after), mk(4, None), {
            // An unrelated noisy sensor to fill the graph.
            let events = (0..n)
                .map(|_| if rng.gen::<f64>() < 0.5 { "a" } else { "b" }.to_owned())
                .collect();
            RawTrace::new("noise", events)
        }];
        let wcfg = WindowConfig {
            word_len: 4,
            word_stride: 1,
            sent_len: 5,
            sent_stride: 5,
        };
        let p = LanguagePipeline::fit(&traces, 0..300, wcfg).expect("fit");
        let train = p.encode_segment(&traces, 0..300).expect("train");
        let dev = p.encode_segment(&traces, 300..500).expect("dev");
        let test = p.encode_segment(&traces, 500..900).expect("test");
        let trained = build_graph(&p, &train, &dev, &GraphBuildConfig::default()).expect("build");
        // Use a wide validity range so the strong pairs participate.
        let cfg = DetectionConfig {
            valid_range: ScoreRange::closed(60.0, 100.0),
            ..DetectionConfig::default()
        };
        let result = detect(&trained, &test, &cfg).expect("detect");
        (result.scores, result.valid_models)
    }

    #[test]
    fn normal_test_data_scores_low() {
        let (scores, valid) = scenario(None);
        assert!(valid > 0);
        let mean: f64 = scores.iter().sum::<f64>() / scores.len() as f64;
        assert!(mean < 0.35, "normal-period mean anomaly score {mean}");
    }

    #[test]
    fn decoupling_raises_scores_after_the_event() {
        // Decouple at sample 700 = test-segment offset 200 = sentence 10.
        let (scores, _) = scenario(Some(700));
        let before: f64 = scores[..8].iter().sum::<f64>() / 8.0;
        let after: f64 = scores[11..].iter().sum::<f64>() / (scores.len() - 11) as f64;
        assert!(
            after > before + 0.2,
            "anomaly should raise score: before {before}, after {after}"
        );
    }

    #[test]
    fn alerts_identify_the_decoupled_sensor() {
        let (_, _) = scenario(None); // warm path
                                     // Rebuild with alerts inspection.
        let n = 900;
        let mk = |phase: usize, slip: bool| -> RawTrace {
            let events = (0..n)
                .map(|t| {
                    let extra = if slip && t >= 700 { 3 } else { 0 };
                    let state = ((t + phase + extra) / 5) % 2;
                    if state == 0 { "on" } else { "off" }.to_owned()
                })
                .collect();
            RawTrace::new(format!("p{phase}{slip}"), events)
        };
        let traces = vec![mk(0, false), mk(2, true), mk(4, false)];
        let wcfg = WindowConfig {
            word_len: 4,
            word_stride: 1,
            sent_len: 5,
            sent_stride: 5,
        };
        let p = LanguagePipeline::fit(&traces, 0..300, wcfg).expect("fit");
        let train = p.encode_segment(&traces, 0..300).expect("train");
        let dev = p.encode_segment(&traces, 300..500).expect("dev");
        let test = p.encode_segment(&traces, 500..900).expect("test");
        let trained = build_graph(&p, &train, &dev, &GraphBuildConfig::default()).expect("build");
        let cfg = DetectionConfig {
            valid_range: ScoreRange::closed(60.0, 100.0),
            ..DetectionConfig::default()
        };
        let result = detect(&trained, &test, &cfg).expect("detect");
        // After the slip (sentence 10+), broken pairs should involve sensor 1.
        let late_alerts: Vec<&(usize, usize)> = result.alerts[11..].iter().flatten().collect();
        assert!(
            !late_alerts.is_empty(),
            "expected broken pairs after the slip"
        );
        let involving_1 = late_alerts
            .iter()
            .filter(|(s, d)| *s == 1 || *d == 1)
            .count();
        assert!(
            involving_1 * 2 >= late_alerts.len(),
            "sensor 1 should dominate alerts: {involving_1}/{}",
            late_alerts.len()
        );
    }

    #[test]
    fn scores_bounded_and_detections_thresholded() {
        let (scores, _) = scenario(Some(700));
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
        let r = DetectionResult {
            scores: scores.clone(),
            alerts: vec![Vec::new(); scores.len()],
            starts: (0..scores.len()).collect(),
            valid_models: 1,
            coverage: 1.0,
        };
        let hits = r.detections(0.5);
        assert!(hits.iter().all(|&t| scores[t] >= 0.5));
        assert!(r.max_score() <= 1.0);
    }

    #[test]
    fn no_valid_models_is_an_error() {
        let n = 600;
        let mk = |phase: usize| -> RawTrace {
            let events = (0..n)
                .map(|t| {
                    if ((t + phase) / 5).is_multiple_of(2) {
                        "on"
                    } else {
                        "off"
                    }
                    .to_owned()
                })
                .collect();
            RawTrace::new(format!("p{phase}"), events)
        };
        let traces = vec![mk(0), mk(2)];
        let wcfg = WindowConfig {
            word_len: 4,
            word_stride: 1,
            sent_len: 5,
            sent_stride: 5,
        };
        let p = LanguagePipeline::fit(&traces, 0..300, wcfg).expect("fit");
        let train = p.encode_segment(&traces, 0..300).expect("train");
        let dev = p.encode_segment(&traces, 300..450).expect("dev");
        let test = p.encode_segment(&traces, 450..600).expect("test");
        let trained = build_graph(&p, &train, &dev, &GraphBuildConfig::default()).expect("build");
        // Perfectly coupled sensors score ~100, outside [0, 10).
        let cfg = DetectionConfig {
            valid_range: ScoreRange::half_open(0.0, 10.0),
            ..DetectionConfig::default()
        };
        assert!(matches!(
            detect(&trained, &test, &cfg),
            Err(CoreError::NoValidModels)
        ));
    }

    #[test]
    fn detect_many_matches_individual_detects_bitwise() {
        let n = 600;
        let mk = |phase: usize| -> RawTrace {
            let events = (0..n)
                .map(|t| {
                    if ((t + phase) / 5).is_multiple_of(2) {
                        "on"
                    } else {
                        "off"
                    }
                    .to_owned()
                })
                .collect();
            RawTrace::new(format!("p{phase}"), events)
        };
        let traces = vec![mk(0), mk(2), mk(4)];
        let wcfg = WindowConfig {
            word_len: 4,
            word_stride: 1,
            sent_len: 5,
            sent_stride: 5,
        };
        let p = LanguagePipeline::fit(&traces, 0..300, wcfg).expect("fit");
        let train = p.encode_segment(&traces, 0..300).expect("train");
        let dev = p.encode_segment(&traces, 300..450).expect("dev");
        let a = p.encode_segment(&traces, 450..525).expect("test a");
        let b = p.encode_segment(&traces, 500..575).expect("test b");
        let c = p.encode_segment(&traces, 525..600).expect("test c");
        let trained = build_graph(&p, &train, &dev, &GraphBuildConfig::default()).expect("build");
        let cfg = DetectionConfig {
            valid_range: ScoreRange::closed(60.0, 100.0),
            ..DetectionConfig::default()
        };
        let excl = [1usize];
        let jobs = [
            DetectJob {
                test_sets: &a,
                excluded_sensors: &[],
            },
            DetectJob {
                test_sets: &b,
                excluded_sensors: &excl,
            },
            DetectJob {
                test_sets: &c,
                excluded_sensors: &[],
            },
            // A misaligned job must fail alone without poisoning the batch.
            DetectJob {
                test_sets: &a[..2],
                excluded_sensors: &[],
            },
        ];
        for threads in [1, 4] {
            let many = detect_many_with_bank(&Bank::trained(&trained), &jobs, &cfg, threads);
            for (j, job) in jobs[..3].iter().enumerate() {
                let got = many[j].as_ref().expect("live job");
                let (scores, alerts) = oracle(&trained, job.test_sets, &cfg, job.excluded_sensors);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got.scores),
                    bits(&scores),
                    "job {j} at {threads} threads"
                );
                assert_eq!(got.alerts, alerts, "job {j} at {threads} threads");
            }
            assert!(matches!(many[3], Err(CoreError::MisalignedCorpora { .. })));
        }
    }

    /// Algorithm 2 as the paper states it, one window and one valid pair at
    /// a time: single-sentence translate, plain sentence BLEU, broken when
    /// `f < threshold - margin`, `a_t` = broken / participating.
    fn oracle(
        trained: &TrainedGraph,
        sets: &[SentenceSet],
        cfg: &DetectionConfig,
        excluded: &[usize],
    ) -> (Vec<f64>, Vec<Vec<(usize, usize)>>) {
        let live: Vec<_> = trained
            .models()
            .iter()
            .filter(|m| cfg.valid_range.contains(m.train_score))
            .filter(|m| !excluded.contains(&m.src) && !excluded.contains(&m.dst))
            .collect();
        (0..sets[0].len())
            .map(|t| {
                let broken: Vec<(usize, usize)> = live
                    .iter()
                    .filter(|m| {
                        let reference = &sets[m.dst].sentences[t];
                        let src: &[u32] = &sets[m.src].sentences[t];
                        let hyp = m.translator().translate_batch(
                            &[src],
                            reference.len(),
                            &mut InferArena::new(),
                        );
                        let hyp = &hyp[0];
                        let threshold = match cfg.rule {
                            BrokenRule::CorpusScore => m.train_score,
                            BrokenRule::DevQuantileFloor => m.dev_floor,
                        };
                        mdes_bleu::sentence_bleu(hyp, reference, &cfg.bleu) < threshold - cfg.margin
                    })
                    .map(|m| (m.src, m.dst))
                    .collect();
                let score = if live.is_empty() {
                    0.0
                } else {
                    broken.len() as f64 / live.len() as f64
                };
                (score, broken)
            })
            .unzip()
    }

    /// Three phase-locked sensors: a trained n-gram graph and a test segment.
    fn locked() -> (TrainedGraph, Vec<SentenceSet>) {
        let mk = |phase: usize| -> RawTrace {
            let on = |t: usize| ((t + phase) / 5).is_multiple_of(2);
            let events = (0..600).map(|t| if on(t) { "on" } else { "off" }.to_owned());
            RawTrace::new(format!("p{phase}"), events.collect())
        };
        let traces = vec![mk(0), mk(2), mk(4)];
        let wcfg = WindowConfig {
            word_len: 4,
            word_stride: 1,
            sent_len: 5,
            sent_stride: 5,
        };
        let p = LanguagePipeline::fit(&traces, 0..300, wcfg).expect("fit");
        let train = p.encode_segment(&traces, 0..300).expect("train");
        let dev = p.encode_segment(&traces, 300..450).expect("dev");
        let test = p.encode_segment(&traces, 450..600).expect("test");
        let trained = build_graph(&p, &train, &dev, &GraphBuildConfig::default()).expect("build");
        (trained, test)
    }

    /// `trained`'s models with model `k` swapped for a neural model whose
    /// begin-of-sentence token lies past its target vocabulary: every source
    /// sentence passes the input check, and the first decode step slices
    /// its embedding table out of range.
    fn with_malformed(trained: &TrainedGraph, k: usize) -> Vec<FrozenPairModel> {
        let mut spec = mdes_nn::Seq2Seq::new(64, 4, 1, mdes_nn::Seq2SeqConfig::default()).freeze();
        spec.bos = 99;
        let mut models = trained.models().to_vec();
        let m = &models[k];
        let nmt = FrozenTranslator::Nmt(crate::translator::FrozenNmt::new(spec));
        models[k] = FrozenPairModel::new(m.src, m.dst, m.train_score, m.dev_floor, nmt);
        models
    }

    /// A round whose jobs all need one model decodes it on the calling
    /// thread, whatever the thread count: with that model malformed, the
    /// decode panic is raised on the caller.
    #[test]
    fn a_round_touching_one_model_runs_on_the_caller() {
        static PANICKED_ON: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
        let (trained, test) = locked();
        assert!(trained.models().len() > 1);
        let models = with_malformed(&trained, 0);
        let bank = Bank {
            models: &models,
            valid: Some(&[0]),
            ..Bank::trained(&trained)
        };
        let job = |excluded_sensors| DetectJob {
            test_sets: &test,
            excluded_sensors,
        };
        let jobs = [job(&[]), job(&[]), job(&[2])];
        // The hook is process-wide: it records every panicking thread (other
        // tests' too) and then reports the panic as before.
        let previous: Arc<dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync> =
            std::panic::take_hook().into();
        let chained = Arc::clone(&previous);
        std::panic::set_hook(Box::new(move |info| {
            lock(&PANICKED_ON).push(std::thread::current().id());
            chained(info);
        }));
        let many = detect_many_with_bank(&bank, &jobs, &DetectionConfig::default(), 4);
        std::panic::set_hook(Box::new(move |info| previous(info)));
        for result in &many {
            assert!(
                matches!(result, Err(CoreError::WorkerLost { lost: 1, .. })),
                "{result:?}"
            );
        }
        assert!(lock(&PANICKED_ON).contains(&std::thread::current().id()));
    }

    #[test]
    fn a_panicking_decode_is_a_typed_error_for_every_live_job() {
        let (trained, test) = locked();
        let cfg = DetectionConfig {
            valid_range: ScoreRange::closed(60.0, 100.0),
            ..DetectionConfig::default()
        };
        let bad = (0..trained.models().len())
            .find(|&k| cfg.valid_range.contains(trained.models()[k].train_score))
            .expect("a valid model");
        let models = with_malformed(&trained, bad);
        let bank = Bank {
            models: &models,
            ..Bank::trained(&trained)
        };
        let jobs = [
            DetectJob {
                test_sets: &test,
                excluded_sensors: &[],
            },
            DetectJob {
                test_sets: &test,
                excluded_sensors: &[2],
            },
            // Misaligned and fully excluded jobs never reach decode.
            DetectJob {
                test_sets: &test[..2],
                excluded_sensors: &[],
            },
            DetectJob {
                test_sets: &test,
                excluded_sensors: &[0, 1, 2],
            },
        ];
        for threads in [1, 4] {
            let many = detect_many_with_bank(&bank, &jobs, &cfg, threads);
            for result in &many[..2] {
                match result {
                    Err(CoreError::WorkerLost { lost, detail }) => {
                        assert!(*lost >= 1, "{lost}");
                        assert!(detail.contains("out of range for slice"), "{detail}");
                    }
                    other => panic!("expected WorkerLost at {threads} threads, got {other:?}"),
                }
            }
            assert!(matches!(many[2], Err(CoreError::MisalignedCorpora { .. })));
            assert_eq!(many[3].as_ref().expect("dark job").coverage, 0.0);
        }
    }

    #[test]
    fn excluding_sensors_shrinks_coverage_and_never_errors() {
        let (trained, test) = locked();
        let cfg = DetectionConfig {
            valid_range: ScoreRange::closed(60.0, 100.0),
            ..DetectionConfig::default()
        };

        let full = detect(&trained, &test, &cfg).expect("full");
        assert_eq!(full.coverage, 1.0);
        assert_eq!(full.valid_models, 6);

        // Dropping sensor 1 removes the 4 pairs touching it: 2 of 6 remain.
        let partial = detect_excluding(&trained, &test, &cfg, &[1]).expect("partial");
        assert_eq!(partial.valid_models, 2);
        assert!((partial.coverage - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(partial.scores.len(), full.scores.len());
        assert!(partial
            .alerts
            .iter()
            .flatten()
            .all(|&(s, d)| s != 1 && d != 1));

        // Dropping everything degrades to a zero-evidence result, not an
        // error: the monitoring loop must survive a fully dark plant.
        let dark = detect_excluding(&trained, &test, &cfg, &[0, 1, 2]).expect("dark");
        assert_eq!(dark.coverage, 0.0);
        assert_eq!(dark.valid_models, 0);
        assert!(dark.scores.iter().all(|&s| s == 0.0));
        assert!(dark.alerts.iter().all(Vec::is_empty));
    }

    /// A call that builds more than `KEEP_REFS` reference sets (an offline
    /// segment) frees its thread's scratch; a smaller one keeps the buffers
    /// for the next call. Either way the results are the same.
    #[test]
    fn an_oversized_call_frees_the_thread_scratch() {
        let (trained, test) = locked();
        let cfg = DetectionConfig {
            valid_range: ScoreRange::closed(0.0, 100.0),
            ..DetectionConfig::default()
        };
        // Every node is some valid model's target: one set per node and window.
        let per_job = test.len() * test[0].len();
        let job = || DetectJob {
            test_sets: &test,
            excluded_sensors: &[],
        };
        let small = detect_many_with_bank(&Bank::trained(&trained), &[job()], &cfg, 1);
        assert_eq!(SCRATCH.with_borrow(|s| s.refs.len()), per_job);
        let jobs: Vec<DetectJob<'_>> = (0..KEEP_REFS / per_job + 1).map(|_| job()).collect();
        let big = detect_many_with_bank(&Bank::trained(&trained), &jobs, &cfg, 1);
        assert!(SCRATCH.with_borrow(|s| s.refs.is_empty() && s.broken.is_empty()));
        let want = small[0].as_ref().expect("small");
        assert!(big.iter().all(|r| r.as_ref().expect("big") == want));
    }
}
