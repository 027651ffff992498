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
use crate::pool::{self, OneWorker};
use mdes_bleu::{sentence_bleu_pre, BleuConfig, RefNgrams};
use mdes_graph::ScoreRange;
use mdes_lang::SentenceSet;
use mdes_nn::InferArena;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
    detect_many_with_bank(trained, &[job], cfg, cfg.threads)
        .pop()
        .expect("one result per job")
}

/// Just enough of a pair model for thresholding and alert attribution.
pub(crate) struct PairMeta {
    /// Source sensor node index.
    pub src: usize,
    /// Target sensor node index.
    pub dst: usize,
    /// Training (dev corpus BLEU) score `s(i, j)`.
    pub train_score: f64,
    /// Development-quantile floor for [`BrokenRule::DevQuantileFloor`].
    pub dev_floor: f64,
}

/// A source of pair models for Algorithm 2 — the driver's view of either a
/// training-side [`TrainedGraph`] or a frozen
/// [`GraphSnapshot`](crate::serve::GraphSnapshot). Both decode neural pairs
/// through the worker's [`InferArena`].
pub(crate) trait ModelBank: Sync {
    /// Number of graph nodes (aligned corpora expected per detect call).
    fn node_count(&self) -> usize;

    /// Total number of pair models.
    fn model_count(&self) -> usize;

    /// Metadata of model `k`.
    fn meta(&self, k: usize) -> PairMeta;

    /// The precomputed valid-model index, if this bank froze one at build
    /// time; `None` makes [`detect_many_with_bank`] filter on
    /// `cfg.valid_range` per call.
    fn frozen_valid(&self) -> Option<&[usize]>;

    /// Decodes a batch of source sentences with model `k`, through `arena`
    /// for the neural family.
    fn decode_batch(
        &self,
        k: usize,
        srcs: &[&[u32]],
        out_len: usize,
        arena: &mut InferArena,
    ) -> Vec<Vec<u32>>;
}

impl ModelBank for TrainedGraph {
    fn node_count(&self) -> usize {
        self.graph.len()
    }

    fn model_count(&self) -> usize {
        self.models().len()
    }

    fn meta(&self, k: usize) -> PairMeta {
        let m = &self.models()[k];
        PairMeta {
            src: m.src,
            dst: m.dst,
            train_score: m.train_score,
            dev_floor: m.dev_floor,
        }
    }

    fn frozen_valid(&self) -> Option<&[usize]> {
        None
    }

    fn decode_batch(
        &self,
        k: usize,
        srcs: &[&[u32]],
        out_len: usize,
        arena: &mut InferArena,
    ) -> Vec<Vec<u32>> {
        self.models()[k]
            .translator()
            .translate_batch_in(srcs, out_len, arena)
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

/// The Algorithm 2 driver: runs detection for many jobs against one shared
/// bank. [`detect`], [`detect_excluding`],
/// [`GraphSnapshot::detect_excluding`](crate::serve::GraphSnapshot::detect_excluding)
/// and the serving layer's pushes are all calls into it, most with one job.
///
/// Decode work is batched *across* jobs: every window that needs model `k`
/// — no matter which job it came from — is gathered, grouped by `(source
/// length, output length)` and decoded in one `decode_batch` call. For the
/// NMT family that turns B same-shape decode steps from B stream sessions
/// into one GEMM per step instead of B, which is where serving throughput
/// goes at high stream counts. The distinct models are spread over
/// `threads` pool workers (0 = all CPUs), one private [`InferArena`] each.
///
/// Result `j` does not depend on the other jobs or the thread count: every
/// GEMM output element is an independent accumulation chain (batch
/// invariance, pinned by `mdes-nn`'s `quantized_matmul_is_batch_invariant`
/// and `tests/algorithm2_oracle.rs`), and each job's merge walks its models
/// in participating order. Per-job validation errors (misaligned corpora, no
/// valid models) land in that job's slot without poisoning the others; a
/// panicking decode gives every job still awaiting decode
/// [`CoreError::WorkerLost`].
pub(crate) fn detect_many_with_bank<B: ModelBank + ?Sized>(
    bank: &B,
    jobs: &[DetectJob<'_>],
    cfg: &DetectionConfig,
    threads: usize,
) -> Vec<Result<DetectionResult, CoreError>> {
    let n = bank.node_count();
    let valid: Vec<usize> = match bank.frozen_valid() {
        Some(v) => v.to_vec(),
        None => (0..bank.model_count())
            .filter(|&k| cfg.valid_range.contains(bank.meta(k).train_score))
            .collect(),
    };

    /// Per-job state that survives into the batched decode phase.
    struct Prep {
        count: usize,
        participating: Vec<usize>,
        coverage: f64,
        ref_grams: Vec<Option<Vec<RefNgrams<u32>>>>,
        span: mdes_obs::Span,
    }

    let mut results: Vec<Option<Result<DetectionResult, CoreError>>> =
        jobs.iter().map(|_| None).collect();
    let mut preps: Vec<Option<Prep>> = jobs.iter().map(|_| None).collect();

    for (j, job) in jobs.iter().enumerate() {
        if let Err(e) = validate_alignment(job.test_sets, n) {
            results[j] = Some(Err(e));
            continue;
        }
        let count = job.test_sets[0].len();
        if valid.is_empty() {
            results[j] = Some(Err(CoreError::NoValidModels));
            continue;
        }
        let participating: Vec<usize> = valid
            .iter()
            .copied()
            .filter(|&k| {
                let m = bank.meta(k);
                !job.excluded_sensors.contains(&m.src) && !job.excluded_sensors.contains(&m.dst)
            })
            .collect();
        let coverage = participating.len() as f64 / valid.len() as f64;
        let mut span = mdes_obs::span("algo2.detect");
        span.field("windows", count);
        span.field("valid", valid.len());
        span.field("participating", participating.len());
        span.field("excluded", job.excluded_sensors.len());
        mdes_obs::counter("algo2.windows", count as u64);
        mdes_obs::counter("algo2.evaluations", (participating.len() * count) as u64);
        if participating.is_empty() {
            results[j] = Some(Ok(DetectionResult {
                scores: vec![0.0; count],
                alerts: vec![Vec::new(); count],
                starts: job.test_sets[0].starts.clone(),
                valid_models: 0,
                coverage,
            }));
            continue;
        }
        let mut ref_grams: Vec<Option<Vec<RefNgrams<u32>>>> = vec![None; n];
        for &k in &participating {
            let dst = bank.meta(k).dst;
            if ref_grams[dst].is_none() {
                ref_grams[dst] = Some(
                    job.test_sets[dst]
                        .sentences
                        .iter()
                        .map(|r| RefNgrams::new(r, cfg.bleu.max_n))
                        .collect(),
                );
            }
        }
        preps[j] = Some(Prep {
            count,
            participating,
            coverage,
            ref_grams,
            span,
        });
    }

    // One work item per *distinct* model across all live jobs: this is the
    // cross-session fan-in. The map is ordered so work assignment (and the
    // batch-size observations) are deterministic.
    let mut model_jobs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (j, prep) in preps.iter().enumerate() {
        if let Some(p) = prep {
            for &k in &p.participating {
                model_jobs.entry(k).or_default().push(j);
            }
        }
    }
    let work: Vec<(usize, Vec<usize>)> = model_jobs.into_iter().collect();

    // Model-parallel over distinct models; each pull evaluates one model
    // against every job that needs it and yields `(job, broken flags)` per
    // job, decoded through shared `(src_len, out_len)` batches. Pure given
    // the bank, so scheduling cannot change results.
    let run = pool::run(
        work.len(),
        threads,
        OneWorker::OnCaller,
        InferArena::new,
        |arena, w| {
            let (k, js) = (work[w].0, &work[w].1);
            let m = bank.meta(k);
            // Group windows of every job by decode shape. Fixed window configs
            // (the online case) put all B jobs' windows in the same group.
            let mut groups: BTreeMap<(usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
            let mut hyps: BTreeMap<usize, Vec<Vec<u32>>> = BTreeMap::new();
            for &j in js {
                let sets = jobs[j].test_sets;
                for (t, r) in sets[m.dst].sentences.iter().enumerate() {
                    let src_len = sets[m.src].sentences[t].len();
                    groups.entry((src_len, r.len())).or_default().push((j, t));
                }
                hyps.insert(
                    j,
                    vec![Vec::new(); preps[j].as_ref().expect("live job").count],
                );
            }
            let decode_timer = mdes_obs::timer("algo2.model_decode_us");
            for ((_, out_len), entries) in &groups {
                let batch: Vec<&[u32]> = entries
                    .iter()
                    .map(|&(j, t)| jobs[j].test_sets[m.src].sentences[t].as_slice())
                    .collect();
                mdes_obs::observe("algo2.batch_size", batch.len() as f64);
                for (&(j, t), h) in entries
                    .iter()
                    .zip(bank.decode_batch(k, &batch, *out_len, arena))
                {
                    hyps.get_mut(&j).expect("inserted above")[t] = h;
                }
            }
            drop(decode_timer);
            let threshold = match cfg.rule {
                BrokenRule::CorpusScore => m.train_score,
                BrokenRule::DevQuantileFloor => m.dev_floor,
            };
            js.iter()
                .map(|&j| {
                    let grams = preps[j].as_ref().expect("live job").ref_grams[m.dst]
                        .as_deref()
                        .expect("precomputed above");
                    let flags: Vec<bool> = hyps[&j]
                        .iter()
                        .zip(grams)
                        .map(|(hyp, g)| {
                            sentence_bleu_pre(hyp, g, &cfg.bleu) < threshold - cfg.margin
                        })
                        .collect();
                    (j, flags)
                })
                .collect::<Vec<_>>()
        },
    );
    let slots = match run {
        Ok(slots) => slots,
        Err(lost) => {
            for (result, prep) in results.iter_mut().zip(&preps) {
                if prep.is_some() {
                    *result = Some(Err(lost.error()));
                }
            }
            return results
                .into_iter()
                .map(|r| r.expect("every job resolved"))
                .collect();
        }
    };

    // Scatter the per-(model, job) flags, then merge each job in its own
    // participating order.
    let mut flags_by_job: Vec<BTreeMap<usize, Vec<bool>>> =
        jobs.iter().map(|_| BTreeMap::new()).collect();
    for (w, slot) in slots.into_iter().enumerate() {
        let k = work[w].0;
        for (j, flags) in slot {
            flags_by_job[j].insert(k, flags);
        }
    }
    for (j, prep) in preps.into_iter().enumerate() {
        let Some(mut p) = prep else { continue };
        let mut alerts: Vec<Vec<(usize, usize)>> = vec![Vec::new(); p.count];
        for &k in &p.participating {
            let m = bank.meta(k);
            let broken = &flags_by_job[j][&k];
            for (t, &b) in broken.iter().enumerate() {
                if b {
                    alerts[t].push((m.src, m.dst));
                }
            }
        }
        let scores: Vec<f64> = alerts
            .iter()
            .map(|b| b.len() as f64 / p.participating.len() as f64)
            .collect();
        let broken: usize = alerts.iter().map(Vec::len).sum();
        p.span.field("broken", broken);
        mdes_obs::counter("algo2.broken", broken as u64);
        results[j] = Some(Ok(DetectionResult {
            scores,
            alerts,
            starts: jobs[j].test_sets[0].starts.clone(),
            valid_models: p.participating.len(),
            coverage: p.coverage,
        }));
    }
    results
        .into_iter()
        .map(|r| r.expect("every job resolved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::{build_graph, GraphBuildConfig};
    use mdes_lang::{LanguagePipeline, RawTrace, WindowConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
            let many = detect_many_with_bank(&trained, &jobs, &cfg, threads);
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
                        let hyp = m.translate(&sets[m.src].sentences[t], reference.len());
                        let threshold = match cfg.rule {
                            BrokenRule::CorpusScore => m.train_score,
                            BrokenRule::DevQuantileFloor => m.dev_floor,
                        };
                        mdes_bleu::sentence_bleu(&hyp, reference, &cfg.bleu)
                            < threshold - cfg.margin
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

    /// A bank over a trained graph whose decode panics for one model.
    struct PanickingBank<'a> {
        inner: &'a TrainedGraph,
        bad: usize,
    }

    impl ModelBank for PanickingBank<'_> {
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }

        fn model_count(&self) -> usize {
            self.inner.model_count()
        }

        fn meta(&self, k: usize) -> PairMeta {
            self.inner.meta(k)
        }

        fn frozen_valid(&self) -> Option<&[usize]> {
            None
        }

        fn decode_batch(
            &self,
            k: usize,
            srcs: &[&[u32]],
            out_len: usize,
            arena: &mut InferArena,
        ) -> Vec<Vec<u32>> {
            assert!(k != self.bad, "decode of model {k} exploded");
            self.inner.decode_batch(k, srcs, out_len, arena)
        }
    }

    #[test]
    fn a_panicking_decode_is_a_typed_error_for_every_live_job() {
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
        let test = p.encode_segment(&traces, 450..600).expect("test");
        let trained = build_graph(&p, &train, &dev, &GraphBuildConfig::default()).expect("build");
        let cfg = DetectionConfig {
            valid_range: ScoreRange::closed(60.0, 100.0),
            ..DetectionConfig::default()
        };
        let bad = (0..trained.model_count())
            .find(|&k| cfg.valid_range.contains(trained.meta(k).train_score))
            .expect("a valid model");
        let bank = PanickingBank {
            inner: &trained,
            bad,
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
                        assert!(detail.contains("exploded"), "{detail}");
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
        let test = p.encode_segment(&traces, 450..600).expect("test");
        let trained = build_graph(&p, &train, &dev, &GraphBuildConfig::default()).expect("build");
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
}
