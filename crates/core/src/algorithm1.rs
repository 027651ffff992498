//! Algorithm 1 — Multivariate Relationship Graph Generation.
//!
//! For every ordered sensor pair `(i, j)` a directional translator is
//! trained on time-aligned training sentences and scored with corpus BLEU on
//! the development set; the score becomes edge `i -> j` of the
//! [`RelGraph`]. The sweep is embarrassingly parallel and runs on the
//! crate's scoped worker pool (`std::thread::scope` workers pulling pair
//! indices from an atomic counter).
//!
//! # Fault tolerance
//!
//! A full sweep trains `M·(M-1)` models, and a single bad pair — a diverging
//! optimization, a panic deep in a kernel — should not discard hours of
//! completed work. Three mechanisms contain per-pair failures:
//!
//! * **Divergence retries** — when a pair's training loss goes non-finite
//!   ([`NnError::Diverged`]), the pair is retrained up to
//!   [`GraphBuildConfig::max_retries`] times with a re-seeded initialization
//!   and a halved learning rate per attempt.
//! * **Panic isolation** — each pair's work runs under
//!   [`std::panic::catch_unwind`], so a panicking worker poisons one pair,
//!   not the process.
//! * **[`FailurePolicy`]** — when retries are exhausted (or a panic is
//!   caught), `FailFast` aborts the sweep with
//!   [`CoreError::PairQuarantined`], while `Degrade` records the pair as a
//!   [`QuarantinedPair`] on the [`TrainedGraph`] and keeps sweeping, failing
//!   only if too many pairs die ([`CoreError::TooManyFailedPairs`]).
//!
//! Long sweeps can additionally persist progress via
//! [`GraphBuildConfig::checkpoint`]; see the [`checkpoint`]
//! module. Because each pair trains deterministically in isolation, a
//! resumed sweep produces a graph identical to an uninterrupted one.

use crate::checkpoint::{self, CheckpointConfig, CheckpointWriter};
use crate::error::CoreError;
use crate::pool::{self, lock, panic_message, OneWorker};
use crate::translator::{train_translator, FrozenPairModel, TranslatorConfig};
use mdes_bleu::{corpus_bleu, BleuConfig};
use mdes_graph::RelGraph;
use mdes_lang::{LanguagePipeline, SentenceSet, Vocab};
use mdes_nn::{InferArena, NnError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Odd constant (2^64 / φ) used to derive retry seeds; spreads successive
/// attempts across the seed space so a retry never repeats the failed
/// initialization.
const RESEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// How [`build_graph`] responds to a sensor pair whose training fails after
/// all retries (or whose worker panics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum FailurePolicy {
    /// Abort the sweep on the first failed pair with
    /// [`CoreError::PairQuarantined`]. The default.
    #[default]
    FailFast,
    /// Quarantine failed pairs (recorded on
    /// [`TrainedGraph::quarantined`], their edges left absent) and keep
    /// sweeping.
    Degrade {
        /// Minimum fraction of pairs that must train successfully; when the
        /// success fraction drops below it the sweep fails with
        /// [`CoreError::TooManyFailedPairs`]. `0.0` accepts any number of
        /// failures, `1.0` tolerates none.
        min_success_fraction: f64,
    },
}

/// A sensor pair excluded from the graph because its training failed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedPair {
    /// Source sensor index of the failed pair.
    pub src: usize,
    /// Target sensor index of the failed pair.
    pub dst: usize,
    /// Final failure description (error text or panic payload).
    pub error: String,
    /// Retries performed before giving up (0 for panics, which are never
    /// retried — a panic means an invariant broke, not that the optimizer
    /// drew a bad initialization).
    pub retries: usize,
}

/// Configuration of the pairwise training sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GraphBuildConfig {
    /// Translator family and hyper-parameters (shared across all pairs, as
    /// the paper requires for BLEU comparability).
    pub translator: TranslatorConfig,
    /// Corpus-BLEU configuration for development scoring.
    pub bleu: BleuConfig,
    /// Worker threads (0 = number of available CPUs).
    pub threads: usize,
    /// Quantile of the per-sentence development BLEU distribution stored as
    /// each pair's *calibrated floor* (see
    /// [`BrokenRule::DevQuantileFloor`](crate::algorithm2::BrokenRule)).
    pub floor_quantile: f64,
    /// Response to pairs that fail training.
    pub policy: FailurePolicy,
    /// Retrain attempts for a pair whose loss diverges, each with a fresh
    /// seed and a halved learning rate. Only [`NnError::Diverged`] triggers
    /// a retry; structural errors (empty corpus, ragged batches) are
    /// deterministic and retrying them would waste the work.
    pub max_retries: usize,
    /// Periodic crash-safe persistence of completed pairs; `None` (default)
    /// disables checkpointing. With a checkpoint configured, a valid
    /// checkpoint file already at that path resumes the sweep.
    pub checkpoint: Option<CheckpointConfig>,
    /// Fault-injection hook for chaos tests: workers deliberately panic on
    /// these `(src, dst)` pairs. Leave empty (the default) outside tests.
    pub chaos_fail_pairs: Vec<(usize, usize)>,
    /// Fault-injection hook for chaos tests: a worker panics *outside* the
    /// per-pair `catch_unwind` isolation when it claims one of these pairs,
    /// simulating a panic in merge/checkpoint plumbing (the
    /// [`CoreError::WorkerLost`] path). Never serialized; leave empty
    /// outside tests.
    #[serde(skip)]
    pub chaos_lose_worker_pairs: Vec<(usize, usize)>,
}

impl Default for GraphBuildConfig {
    fn default() -> Self {
        Self {
            translator: TranslatorConfig::fast(),
            bleu: BleuConfig {
                smoothing: mdes_bleu::Smoothing::AddOne,
                ..BleuConfig::default()
            },
            threads: 0,
            floor_quantile: 0.1,
            policy: FailurePolicy::FailFast,
            max_retries: 2,
            checkpoint: None,
            chaos_fail_pairs: Vec::new(),
            chaos_lose_worker_pairs: Vec::new(),
        }
    }
}

/// The output of Algorithm 1: the graph plus every pair model.
///
/// Serializable for persistence.
#[derive(Clone, Serialize, Deserialize)]
pub struct TrainedGraph {
    /// The multivariate relationship graph (edge weights = dev BLEU).
    pub graph: RelGraph,
    models: Vec<FrozenPairModel>,
    /// Wall-clock seconds spent training and scoring each model (Fig. 4a),
    /// in model order.
    runtimes: Vec<f64>,
    quarantined: Vec<QuarantinedPair>,
}

impl TrainedGraph {
    /// All pair models, in `(src, dst)` sweep order.
    pub fn models(&self) -> &[FrozenPairModel] {
        &self.models
    }

    /// Pairs whose training failed under a
    /// [`Degrade`](FailurePolicy::Degrade) policy, in deterministic
    /// `(src, dst)` sweep order. Their edges are absent from the graph.
    pub fn quarantined(&self) -> &[QuarantinedPair] {
        &self.quarantined
    }

    /// Per-model runtimes in seconds (for the Fig. 4a CDF), in model order.
    pub fn runtimes(&self) -> &[f64] {
        &self.runtimes
    }

    /// All development BLEU scores (for the Fig. 4b histogram).
    pub fn scores(&self) -> Vec<f64> {
        self.models.iter().map(|m| m.train_score).collect()
    }
}

impl std::fmt::Debug for TrainedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedGraph")
            .field("nodes", &self.graph.len())
            .field("models", &self.models.len())
            .field("quarantined", &self.quarantined.len())
            .finish()
    }
}

/// Per-pair sweep outcome; slot order is the deterministic pair order, so
/// assembly does not depend on thread scheduling.
pub(crate) enum PairOutcome {
    /// A trained model and its runtime in seconds.
    Model(Box<FrozenPairModel>, f64),
    Quarantined(QuarantinedPair),
}

/// Raw result of one [`sweep_pairs`] call: one outcome per requested pair,
/// in pair order, plus how many outcomes came from a resumed checkpoint.
pub(crate) struct SweepOutput {
    pub(crate) slots: Vec<Option<PairOutcome>>,
    pub(crate) resumed: usize,
}

/// Runs Algorithm 1: trains two directional models per sensor pair and
/// assembles the relationship graph.
///
/// `train_sets` and `dev_sets` must come from
/// [`LanguagePipeline::encode_segment`] on the same pipeline (one set per
/// surviving sensor, sentences time-aligned across sensors).
///
/// # Errors
///
/// Returns an error if fewer than two sensors survive, any corpus is empty,
/// or corpora are misaligned; [`CoreError::Nn`] with
/// [`mdes_nn::NnError::InvalidConfig`] before any pair trains when the
/// translator configuration is out of range; [`CoreError::PairQuarantined`] under
/// [`FailurePolicy::FailFast`] when a pair fails training;
/// [`CoreError::TooManyFailedPairs`] under `Degrade` when the success
/// fraction falls below the configured minimum; [`CoreError::Checkpoint`]
/// when a configured checkpoint cannot be resumed or finalized.
pub fn build_graph(
    pipeline: &LanguagePipeline,
    train_sets: &[SentenceSet],
    dev_sets: &[SentenceSet],
    cfg: &GraphBuildConfig,
) -> Result<TrainedGraph, CoreError> {
    let n = pipeline.sensor_count();
    if n < 2 {
        return Err(CoreError::TooFewSensors { available: n });
    }
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .filter(|(i, j)| i != j)
        .collect();
    build_graph_pairs(pipeline, train_sets, dev_sets, &pairs, cfg)
}

/// Runs the Algorithm 1 sweep over an explicit ordered-pair subset with the
/// full fault-tolerance policy, retries, and MDCK checkpointing — the
/// in-memory counterpart of
/// [`build_graph_sharded`](crate::sharded::build_graph_sharded), for callers
/// (the lifecycle partial refit, targeted re-sweeps) whose corpora are
/// already encoded and whose pair list is small enough not to need
/// streaming.
///
/// `pairs` is canonicalized (sorted, duplicates removed) before the sweep,
/// so the checkpoint fingerprint does not depend on the caller's ordering.
/// [`build_graph`] is this over the full ordered-pair list (which is
/// already in canonical order, so its checkpoint fingerprints are
/// unchanged).
///
/// # Errors
///
/// As [`build_graph`], plus [`CoreError::NoValidModels`] for an empty pair
/// list.
///
/// # Panics
///
/// Panics if a pair references an out-of-range sensor index or is a
/// self-pair — programmer errors, not runtime conditions.
pub fn build_graph_pairs(
    pipeline: &LanguagePipeline,
    train_sets: &[SentenceSet],
    dev_sets: &[SentenceSet],
    pairs: &[(usize, usize)],
    cfg: &GraphBuildConfig,
) -> Result<TrainedGraph, CoreError> {
    let n = pipeline.sensor_count();
    if n < 2 {
        return Err(CoreError::TooFewSensors { available: n });
    }
    if pairs.is_empty() {
        return Err(CoreError::NoValidModels);
    }
    cfg.translator.validate()?;
    validate_alignment(train_sets, n)?;
    validate_alignment(dev_sets, n)?;

    let mut pairs: Vec<(usize, usize)> = pairs.to_vec();
    pairs.sort_unstable();
    pairs.dedup();
    let train_refs: Vec<Option<&SentenceSet>> = train_sets.iter().map(Some).collect();
    let dev_refs: Vec<Option<&SentenceSet>> = dev_sets.iter().map(Some).collect();
    let fingerprint = sweep_fingerprint(pipeline, cfg, &pairs);
    let out = sweep_pairs(pipeline, &train_refs, &dev_refs, &pairs, cfg, fingerprint)?;
    assemble_graph(pipeline, out.slots, pairs.len(), cfg.policy)
}

/// Trains the given ordered pairs on a worker pool and returns one outcome
/// slot per pair, honoring retries, the failure policy, checkpointing and
/// resume. The corpus slices are indexed by surviving-sensor index; entries
/// for sensors no swept pair touches may be `None` (the sharded path
/// provides only the shard's sensors).
///
/// # Panics
///
/// Panics if a swept pair references an out-of-range sensor, a self-pair,
/// or a sensor whose corpus slot is `None` — those are caller bugs, not
/// runtime conditions.
pub(crate) fn sweep_pairs(
    pipeline: &LanguagePipeline,
    train_sets: &[Option<&SentenceSet>],
    dev_sets: &[Option<&SentenceSet>],
    pairs: &[(usize, usize)],
    cfg: &GraphBuildConfig,
    fingerprint: u64,
) -> Result<SweepOutput, CoreError> {
    let n = pipeline.sensor_count();
    for &(i, j) in pairs {
        assert!(
            i < n && j < n && i != j,
            "swept pair ({i} -> {j}) invalid for {n} sensors"
        );
        assert!(
            train_sets[i].is_some()
                && train_sets[j].is_some()
                && dev_sets[i].is_some()
                && dev_sets[j].is_some(),
            "corpora for pair ({i} -> {j}) not provided to the sweep"
        );
    }
    let total = pairs.len();

    let mut slots: Vec<Option<PairOutcome>> = (0..total).map(|_| None).collect();
    let mut sweep_span = mdes_obs::span("algo1.sweep");
    sweep_span.field("sensors", n);
    sweep_span.field("pairs", total);
    let mut resumed = 0;

    // Open (or create) the checkpoint before any pair trains, so a path
    // that cannot be written fails the sweep up front; an existing file is
    // resumed from and appended to.
    let checkpoint = match &cfg.checkpoint {
        Some(ck) => {
            let (writer, data) = CheckpointWriter::open(ck, fingerprint)?;
            let mut persisted = vec![false; total];
            if let Some(data) = data {
                let index: HashMap<(usize, usize), usize> =
                    pairs.iter().enumerate().map(|(k, &p)| (p, k)).collect();
                let outcomes = data
                    .models
                    .into_iter()
                    .map(|(m, secs)| ((m.src, m.dst), PairOutcome::Model(Box::new(m), secs)))
                    .chain(
                        data.quarantined
                            .into_iter()
                            .map(|q| ((q.src, q.dst), PairOutcome::Quarantined(q))),
                    );
                for (pair, outcome) in outcomes {
                    if let Some(&k) = index.get(&pair) {
                        slots[k] = Some(outcome);
                        persisted[k] = true;
                    }
                }
                resumed = slots.iter().filter(|s| s.is_some()).count();
                sweep_span.field("resumed", resumed);
                mdes_obs::counter("algo1.pairs_resumed", resumed as u64);
            }
            Some(Mutex::new((writer, persisted)))
        }
        None => None,
    };

    // Pairs restored from the checkpoint are not retrained; the pool runs
    // the rest. An item yields `None` once a `FailFast` failure stops the
    // sweep.
    let todo: Vec<usize> = (0..total).filter(|&k| slots[k].is_none()).collect();
    let failure: Mutex<Option<CoreError>> = Mutex::new(None);
    let run = pool::run(
        todo.len(),
        cfg.threads,
        OneWorker::Spawned,
        || (),
        |_, t| {
            if lock(&failure).is_some() {
                return None;
            }
            let k = todo[t];
            let (i, j) = pairs[k];
            if cfg.chaos_lose_worker_pairs.contains(&(i, j)) {
                // Deliberately OUTSIDE the catch_unwind below: simulates a panic
                // in merge/checkpoint plumbing, killing this worker with the
                // pair claimed but no outcome recorded.
                panic!("chaos: worker lost outside pair isolation at ({i} -> {j})");
            }
            let mut pair_span = mdes_obs::span("algo1.pair");
            pair_span.field("src", i);
            pair_span.field("dst", j);
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                if cfg.chaos_fail_pairs.contains(&(i, j)) {
                    panic!("chaos: injected worker failure for pair ({i} -> {j})");
                }
                train_pair_with_retries(pipeline, train_sets, dev_sets, i, j, cfg)
            }));
            let outcome = match attempt {
                Ok((Ok((model, secs)), retries)) => {
                    pair_span.field("outcome", "trained");
                    pair_span.field("retries", retries);
                    pair_span.field("score", model.train_score);
                    mdes_obs::counter("algo1.pairs_trained", 1);
                    mdes_obs::counter("algo1.retries", retries as u64);
                    PairOutcome::Model(Box::new(model), secs)
                }
                Ok((Err(e), retries)) => {
                    pair_span.field("retries", retries);
                    mdes_obs::counter("algo1.retries", retries as u64);
                    match cfg.policy {
                        FailurePolicy::FailFast => {
                            pair_span.field("outcome", "failfast");
                            *lock(&failure) = Some(CoreError::PairQuarantined {
                                src: i,
                                dst: j,
                                detail: e.to_string(),
                                source: Some(Box::new(e)),
                            });
                            return None;
                        }
                        FailurePolicy::Degrade { .. } => {
                            pair_span.field("outcome", "quarantined");
                            mdes_obs::counter("algo1.pairs_quarantined", 1);
                            PairOutcome::Quarantined(QuarantinedPair {
                                src: i,
                                dst: j,
                                error: e.to_string(),
                                retries,
                            })
                        }
                    }
                }
                Err(payload) => {
                    let detail = format!("worker panicked: {}", panic_message(&*payload));
                    match cfg.policy {
                        FailurePolicy::FailFast => {
                            pair_span.field("outcome", "failfast");
                            *lock(&failure) = Some(CoreError::PairQuarantined {
                                src: i,
                                dst: j,
                                detail,
                                source: None,
                            });
                            return None;
                        }
                        FailurePolicy::Degrade { .. } => {
                            pair_span.field("outcome", "quarantined");
                            mdes_obs::counter("algo1.pairs_quarantined", 1);
                            PairOutcome::Quarantined(QuarantinedPair {
                                src: i,
                                dst: j,
                                error: detail,
                                retries: 0,
                            })
                        }
                    }
                }
            };
            // Each finished pair is encoded once, here, and appended; the
            // writer syncs every `every` frames, best-effort.
            if let Some(ck) = &checkpoint {
                let _ckpt_span = mdes_obs::span("checkpoint.write");
                match outcome_frame(&outcome) {
                    Ok(frame) => {
                        let mut ck = lock(ck);
                        ck.0.append(&frame);
                        ck.1[k] = true;
                    }
                    // Left unpersisted; the final flush retries the encode.
                    Err(e) => mdes_obs::event(
                        "checkpoint.write_failed",
                        &[("src", i.into()), ("dst", j.into()), ("error", e.into())],
                    ),
                }
            }
            Some(outcome)
        },
    );

    // Typed per-pair FailFast failures win over a lost worker: they carry
    // the offending pair and the underlying error.
    if let Some(e) = lock(&failure).take() {
        return Err(e);
    }

    let (done, lost) = match run {
        Ok(done) => (done.into_iter().map(Some).collect(), None),
        Err(lost) => (lost.slots, Some(lost.detail)),
    };
    for (k, outcome) in todo.into_iter().zip(done) {
        slots[k] = outcome.flatten();
    }
    if let Some(message) = lost {
        // A panic escaped between catch_unwind boundaries (slot merge,
        // checkpoint plumbing, a chaos injection), so at least one worker
        // died with pairs unclaimed or claimed-but-unrecorded.
        let detail = format!("worker panicked outside pair isolation: {message}");
        mdes_obs::counter("algo1.workers_lost", 1);
        let lost = slots.iter().filter(|s| s.is_none()).count();
        match cfg.policy {
            FailurePolicy::FailFast => {
                return Err(CoreError::WorkerLost { lost, detail });
            }
            FailurePolicy::Degrade { .. } => {
                for (k, slot) in slots.iter_mut().enumerate() {
                    if slot.is_none() {
                        let (src, dst) = pairs[k];
                        mdes_obs::counter("algo1.pairs_quarantined", 1);
                        *slot = Some(PairOutcome::Quarantined(QuarantinedPair {
                            src,
                            dst,
                            error: detail.clone(),
                            retries: 0,
                        }));
                    }
                }
            }
        }
    }

    if let (Some(ck), Some(ck_cfg)) = (checkpoint, &cfg.checkpoint) {
        // Final flush so the checkpoint holds the completed sweep: pairs
        // whose periodic append never happened (a failed encode, a lost
        // worker's quarantine) are appended now. Unlike periodic writes,
        // failure here is surfaced — the caller asked for a durable
        // artifact and silently lacking one defeats the point.
        let _span = mdes_obs::span("checkpoint.write");
        let (mut writer, persisted) = ck.into_inner().unwrap_or_else(PoisonError::into_inner);
        for (slot, done) in slots.iter().zip(persisted) {
            if let (Some(outcome), false) = (slot, done) {
                let frame = outcome_frame(outcome).map_err(|detail| CoreError::Checkpoint {
                    path: ck_cfg.path.clone(),
                    detail,
                })?;
                writer.append(&frame);
            }
        }
        writer.finish()?;
    }
    let trained = slots
        .iter()
        .filter(|s| matches!(s, Some(PairOutcome::Model(..))))
        .count();
    sweep_span.field("trained", trained);
    sweep_span.field("quarantined", total - trained);
    Ok(SweepOutput { slots, resumed })
}

/// Assembles completed sweep slots into the graph, enforcing the `Degrade`
/// minimum-success-fraction over `total` attempted pairs.
pub(crate) fn assemble_graph(
    pipeline: &LanguagePipeline,
    slots: Vec<Option<PairOutcome>>,
    total: usize,
    policy: FailurePolicy,
) -> Result<TrainedGraph, CoreError> {
    let names: Vec<String> = pipeline
        .languages()
        .iter()
        .map(|l| l.name.clone())
        .collect();
    let mut graph = RelGraph::new(names);
    let mut models = Vec::with_capacity(total);
    let mut runtimes = Vec::with_capacity(total);
    let mut quarantined = Vec::new();
    for outcome in slots.into_iter().flatten() {
        match outcome {
            PairOutcome::Model(model, secs) => {
                graph.set_score(model.src, model.dst, model.train_score);
                models.push(*model);
                runtimes.push(secs);
            }
            PairOutcome::Quarantined(q) => quarantined.push(q),
        }
    }
    if let FailurePolicy::Degrade {
        min_success_fraction,
    } = policy
    {
        let failed = quarantined.len();
        let succeeded = total - failed;
        if (succeeded as f64) < min_success_fraction * total as f64 {
            return Err(CoreError::TooManyFailedPairs { failed, total });
        }
    }
    Ok(TrainedGraph {
        graph,
        models,
        runtimes,
        quarantined,
    })
}

/// Encodes one sweep outcome as an MDCK frame.
fn outcome_frame(outcome: &PairOutcome) -> Result<Vec<u8>, String> {
    match outcome {
        PairOutcome::Model(m, secs) => checkpoint::model_frame(m, *secs),
        PairOutcome::Quarantined(q) => checkpoint::quarantined_frame(q),
    }
}

/// Hashes the sweep inputs that determine pair models: sensor names, the
/// model-affecting configuration, and the exact ordered list of pairs this
/// sweep covers. Scheduling and robustness knobs (threads, policy,
/// checkpointing, chaos hooks) are deliberately excluded — they do not
/// change what a completed pair model contains, so a checkpoint remains
/// resumable across them. The pair list is *included* because it is part of
/// the sweep's identity: a checkpoint taken over a different prescreen
/// selection (or a different shard slice) must not silently resume.
pub(crate) fn sweep_fingerprint(
    pipeline: &LanguagePipeline,
    cfg: &GraphBuildConfig,
    pairs: &[(usize, usize)],
) -> u64 {
    let names: Vec<&str> = pipeline
        .languages()
        .iter()
        .map(|l| l.name.as_str())
        .collect();
    let translator = serde_json::to_string(&cfg.translator).unwrap_or_default();
    let bleu = serde_json::to_string(&cfg.bleu).unwrap_or_default();
    let text = format!(
        "{names:?}|{translator}|{bleu}|{}|{}",
        cfg.floor_quantile, cfg.max_retries
    );
    let mut bytes = text.into_bytes();
    bytes.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for &(i, j) in pairs {
        bytes.extend_from_slice(&(i as u64).to_le_bytes());
        bytes.extend_from_slice(&(j as u64).to_le_bytes());
    }
    crate::checkpoint::fnv1a(&bytes)
}

/// Checks that `sets` holds `n` non-empty corpora of equal length.
pub(crate) fn validate_alignment(sets: &[SentenceSet], n: usize) -> Result<(), CoreError> {
    if sets.len() != n {
        return Err(CoreError::MisalignedCorpora {
            expected: n,
            found: sets.len(),
        });
    }
    let count = sets.first().map_or(0, SentenceSet::len);
    if count == 0 {
        return Err(CoreError::EmptyCorpus);
    }
    for s in sets {
        if s.len() != count {
            return Err(CoreError::MisalignedCorpora {
                expected: count,
                found: s.len(),
            });
        }
    }
    Ok(())
}

/// Alignment check over sparsely-provided corpora (the sharded path encodes
/// only the shard's sensors): every provided set must be non-empty and
/// sentence counts must agree across all provided sets.
pub(crate) fn validate_alignment_sparse(sets: &[Option<&SentenceSet>]) -> Result<(), CoreError> {
    let mut expected: Option<usize> = None;
    for s in sets.iter().flatten() {
        if s.is_empty() {
            return Err(CoreError::EmptyCorpus);
        }
        match expected {
            None => expected = Some(s.len()),
            Some(count) if s.len() != count => {
                return Err(CoreError::MisalignedCorpora {
                    expected: count,
                    found: s.len(),
                });
            }
            Some(_) => {}
        }
    }
    if expected.is_none() {
        return Err(CoreError::EmptyCorpus);
    }
    Ok(())
}

/// Runs `attempt_fn` until it succeeds, the error is not a divergence, or
/// `max_retries` retries are spent. Returns the final result and the number
/// of retries consumed. Only [`NnError::Diverged`] retries: a diverged run
/// is a bad (initialization, learning-rate) draw, which a re-seeded attempt
/// can fix; every other error is deterministic in the inputs.
fn retry_diverged<T>(
    max_retries: usize,
    mut attempt_fn: impl FnMut(usize) -> Result<T, CoreError>,
) -> (Result<T, CoreError>, usize) {
    let mut attempt = 0;
    loop {
        match attempt_fn(attempt) {
            Ok(v) => return (Ok(v), attempt),
            Err(CoreError::Nn(NnError::Diverged { step })) if attempt < max_retries => {
                let _ = step;
                attempt += 1;
            }
            Err(e) => return (Err(e), attempt),
        }
    }
}

/// The translator configuration for retry `attempt` (0 = the original):
/// neural retries draw a fresh seed and halve the learning rate, the two
/// standard divergence mitigations; statistical translators cannot diverge
/// and pass through unchanged.
fn retuned_translator(base: &TranslatorConfig, attempt: u64) -> TranslatorConfig {
    if attempt == 0 {
        return base.clone();
    }
    match base {
        TranslatorConfig::Nmt(c) => {
            let mut c = c.clone();
            c.seed = c.seed.wrapping_add(RESEED.wrapping_mul(attempt));
            c.learning_rate /= 2f32.powi(attempt.min(i32::MAX as u64) as i32);
            TranslatorConfig::Nmt(c)
        }
        other => other.clone(),
    }
}

fn train_pair_with_retries(
    pipeline: &LanguagePipeline,
    train_sets: &[Option<&SentenceSet>],
    dev_sets: &[Option<&SentenceSet>],
    i: usize,
    j: usize,
    cfg: &GraphBuildConfig,
) -> (Result<(FrozenPairModel, f64), CoreError>, usize) {
    retry_diverged(cfg.max_retries, |attempt| {
        let tcfg = retuned_translator(&cfg.translator, attempt as u64);
        train_pair(pipeline, train_sets, dev_sets, i, j, &tcfg, cfg)
    })
}

fn train_pair(
    pipeline: &LanguagePipeline,
    train_sets: &[Option<&SentenceSet>],
    dev_sets: &[Option<&SentenceSet>],
    i: usize,
    j: usize,
    tcfg: &TranslatorConfig,
    cfg: &GraphBuildConfig,
) -> Result<(FrozenPairModel, f64), CoreError> {
    let start = Instant::now();
    // sweep_pairs validated presence for every swept pair up front.
    let present = "sweep validated corpus presence";
    let (train_i, train_j) = (train_sets[i].expect(present), train_sets[j].expect(present));
    let (dev_i, dev_j) = (dev_sets[i].expect(present), dev_sets[j].expect(present));
    let pairs: Vec<(Vec<u32>, Vec<u32>)> = train_i
        .sentences
        .iter()
        .zip(&train_j.sentences)
        .map(|(s, t)| (s.clone(), t.clone()))
        .collect();
    let src_vocab = pipeline.languages()[i].vocab.size();
    let tgt_vocab = pipeline.languages()[j].vocab.size();
    let translator = train_translator(tcfg, &pairs, src_vocab, tgt_vocab, Vocab::BOS)?;

    let out_len = pipeline.config().sent_len;
    let dev_srcs: Vec<&[u32]> = dev_i.sentences.iter().map(Vec::as_slice).collect();
    // The dev set decodes through a scratch arena dropped right here: kept
    // in the model, arenas sized for the whole dev batch were most of a
    // sweep's resident memory.
    let hyps = translator.translate_batch(&dev_srcs, out_len, &mut InferArena::new());
    let score = corpus_bleu(&hyps, &dev_j.sentences, &cfg.bleu);
    // Per-sentence dev scores calibrate the broken-relationship floor.
    let sentence_cfg = mdes_bleu::BleuConfig::sentence();
    let mut sentence_scores: Vec<f64> = hyps
        .iter()
        .zip(&dev_j.sentences)
        .map(|(h, r)| mdes_bleu::sentence_bleu(h, r, &sentence_cfg))
        .collect();
    sentence_scores.sort_by(f64::total_cmp);
    let q = cfg.floor_quantile.clamp(0.0, 1.0);
    let idx = ((sentence_scores.len() as f64 - 1.0) * q).round() as usize;
    let dev_floor = sentence_scores.get(idx).copied().unwrap_or(0.0);
    let model = FrozenPairModel::new(i, j, score, dev_floor, translator);
    Ok((model, start.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_lang::{RawTrace, WindowConfig};
    use std::path::PathBuf;

    fn toggling(name: &str, n: usize, period: usize, phase: usize) -> RawTrace {
        RawTrace::new(
            name,
            (0..n)
                .map(|t| {
                    if ((t + phase) / period).is_multiple_of(2) {
                        "on"
                    } else {
                        "off"
                    }
                    .to_owned()
                })
                .collect(),
        )
    }

    fn setup() -> (
        LanguagePipeline,
        Vec<SentenceSet>,
        Vec<SentenceSet>,
        Vec<RawTrace>,
    ) {
        // Sensors a, b share a period (strongly related); c is unrelated.
        let traces = vec![
            toggling("a", 600, 5, 0),
            toggling("b", 600, 5, 2),
            toggling("c", 600, 7, 0),
        ];
        let cfg = WindowConfig {
            word_len: 4,
            word_stride: 1,
            sent_len: 5,
            sent_stride: 5,
        };
        let p = LanguagePipeline::fit(&traces, 0..300, cfg).expect("fit");
        let train = p.encode_segment(&traces, 0..300).expect("train");
        let dev = p.encode_segment(&traces, 300..450).expect("dev");
        (p, train, dev, traces)
    }

    #[test]
    fn builds_full_directed_graph() {
        let (p, train, dev, _) = setup();
        let trained = build_graph(&p, &train, &dev, &GraphBuildConfig::default()).expect("build");
        assert_eq!(trained.graph.len(), 3);
        assert_eq!(trained.graph.edge_count(), 6);
        assert_eq!(trained.models().len(), 6);
        assert!(trained.quarantined().is_empty());
        let has = |pair| trained.models().iter().any(|m| (m.src, m.dst) == pair);
        assert!(has((0, 1)));
        assert!(!has((0, 0)));
    }

    #[test]
    fn related_pair_outscores_unrelated_pair() {
        let (p, train, dev, _) = setup();
        let trained = build_graph(&p, &train, &dev, &GraphBuildConfig::default()).expect("build");
        let related = trained.graph.score(0, 1).expect("edge");
        let unrelated = trained.graph.score(0, 2).expect("edge");
        assert!(
            related > unrelated + 5.0,
            "related {related} should clearly beat unrelated {unrelated}"
        );
        assert!(
            related > 80.0,
            "phase-locked pair should translate well: {related}"
        );
    }

    #[test]
    fn scores_and_runtimes_populated() {
        let (p, train, dev, _) = setup();
        let trained = build_graph(&p, &train, &dev, &GraphBuildConfig::default()).expect("build");
        assert_eq!(trained.scores().len(), 6);
        assert!(trained.scores().iter().all(|s| (0.0..=100.0).contains(s)));
        assert!(trained.runtimes().iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn single_sensor_rejected() {
        let traces = vec![toggling("a", 400, 5, 0)];
        let cfg = WindowConfig {
            word_len: 4,
            word_stride: 1,
            sent_len: 5,
            sent_stride: 5,
        };
        let p = LanguagePipeline::fit(&traces, 0..200, cfg).expect("fit");
        let train = p.encode_segment(&traces, 0..200).expect("train");
        let dev = p.encode_segment(&traces, 200..400).expect("dev");
        let r = build_graph(&p, &train, &dev, &GraphBuildConfig::default());
        assert!(matches!(r, Err(CoreError::TooFewSensors { available: 1 })));
    }

    #[test]
    fn misaligned_corpora_rejected() {
        let (p, train, dev, _) = setup();
        let r = build_graph(&p, &train[..2], &dev, &GraphBuildConfig::default());
        assert!(matches!(r, Err(CoreError::MisalignedCorpora { .. })));
    }

    #[test]
    fn multithreaded_matches_single_thread() {
        let (p, train, dev, _) = setup();
        let one = GraphBuildConfig {
            threads: 1,
            ..GraphBuildConfig::default()
        };
        let four = GraphBuildConfig {
            threads: 4,
            ..GraphBuildConfig::default()
        };
        let a = build_graph(&p, &train, &dev, &one).expect("1 thread");
        let b = build_graph(&p, &train, &dev, &four).expect("4 threads");
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn retry_helper_retries_only_divergence() {
        let mut calls = 0;
        let (r, retries) = retry_diverged(3, |attempt| {
            calls += 1;
            if attempt < 2 {
                Err(CoreError::Nn(NnError::Diverged { step: attempt }))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(r.expect("recovers"), 2);
        assert_eq!(retries, 2);
        assert_eq!(calls, 3);

        // Exhaustion: keeps the final divergence error.
        let (r, retries) = retry_diverged(2, |a| {
            Result::<(), _>::Err(CoreError::Nn(NnError::Diverged { step: a }))
        });
        assert!(matches!(
            r,
            Err(CoreError::Nn(NnError::Diverged { step: 2 }))
        ));
        assert_eq!(retries, 2);

        // Non-divergence errors never retry.
        let mut calls = 0;
        let (r, retries) = retry_diverged(5, |_| {
            calls += 1;
            Result::<(), _>::Err(CoreError::EmptyCorpus)
        });
        assert!(matches!(r, Err(CoreError::EmptyCorpus)));
        assert_eq!(retries, 0);
        assert_eq!(calls, 1);
    }

    #[test]
    fn retuned_translator_reseeds_and_cools() {
        let base = TranslatorConfig::neural();
        let TranslatorConfig::Nmt(orig) = &base else {
            panic!("neural config expected");
        };
        let TranslatorConfig::Nmt(r1) = retuned_translator(&base, 1) else {
            panic!("family preserved");
        };
        let TranslatorConfig::Nmt(r2) = retuned_translator(&base, 2) else {
            panic!("family preserved");
        };
        assert_ne!(r1.seed, orig.seed);
        assert_ne!(r2.seed, r1.seed);
        assert!((r1.learning_rate - orig.learning_rate / 2.0).abs() < 1e-12);
        assert!((r2.learning_rate - orig.learning_rate / 4.0).abs() < 1e-12);
        // Statistical translators pass through untouched.
        assert_eq!(
            retuned_translator(&TranslatorConfig::fast(), 3),
            TranslatorConfig::fast()
        );
    }

    #[test]
    fn chaos_pair_under_fail_fast_aborts_with_quarantine_error() {
        let (p, train, dev, _) = setup();
        let cfg = GraphBuildConfig {
            chaos_fail_pairs: vec![(1, 2)],
            ..GraphBuildConfig::default()
        };
        match build_graph(&p, &train, &dev, &cfg) {
            Err(CoreError::PairQuarantined {
                src, dst, source, ..
            }) => {
                assert_eq!((src, dst), (1, 2));
                assert!(
                    source.is_none(),
                    "panic-born quarantine has no typed source"
                );
            }
            other => panic!("expected PairQuarantined, got {other:?}"),
        }
    }

    #[test]
    fn chaos_pair_under_degrade_completes_without_that_edge() {
        let (p, train, dev, _) = setup();
        let cfg = GraphBuildConfig {
            policy: FailurePolicy::Degrade {
                min_success_fraction: 0.5,
            },
            chaos_fail_pairs: vec![(1, 2)],
            ..GraphBuildConfig::default()
        };
        let trained = build_graph(&p, &train, &dev, &cfg).expect("degrades, not dies");
        assert_eq!(trained.models().len(), 5);
        assert_eq!(trained.graph.edge_count(), 5);
        assert!(trained.graph.score(1, 2).is_none());
        assert!(!trained.models().iter().any(|m| (m.src, m.dst) == (1, 2)));
        let q = trained.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!((q[0].src, q[0].dst), (1, 2));
        assert!(q[0].error.contains("chaos"));
    }

    #[test]
    fn lost_worker_under_fail_fast_is_a_typed_error() {
        let (p, train, dev, _) = setup();
        let cfg = GraphBuildConfig {
            threads: 1,
            chaos_lose_worker_pairs: vec![(1, 2)],
            ..GraphBuildConfig::default()
        };
        match build_graph(&p, &train, &dev, &cfg) {
            Err(CoreError::WorkerLost { lost, detail }) => {
                // Single worker: its claimed pair plus everything after it
                // never gets an outcome.
                assert!(lost >= 1, "at least the claimed pair is lost: {lost}");
                assert!(detail.contains("outside pair isolation"), "{detail}");
            }
            other => panic!("expected WorkerLost, got {other:?}"),
        }
    }

    #[test]
    fn lost_worker_under_degrade_quarantines_orphaned_pairs() {
        let (p, train, dev, _) = setup();
        let cfg = GraphBuildConfig {
            threads: 2,
            policy: FailurePolicy::Degrade {
                min_success_fraction: 0.0,
            },
            chaos_lose_worker_pairs: vec![(1, 2)],
            ..GraphBuildConfig::default()
        };
        let trained = build_graph(&p, &train, &dev, &cfg).expect("degrades, not dies");
        // The surviving worker drains the remaining pairs; only pairs the
        // dead worker claimed (at least the chaos pair) are quarantined.
        assert!(!trained.models().iter().any(|m| (m.src, m.dst) == (1, 2)));
        assert!(!trained.quarantined().is_empty());
        assert_eq!(trained.models().len() + trained.quarantined().len(), 6);
        let q = trained
            .quarantined()
            .iter()
            .find(|q| (q.src, q.dst) == (1, 2))
            .expect("chaos pair quarantined");
        assert!(q.error.contains("outside pair isolation"), "{}", q.error);
    }

    #[test]
    fn fingerprint_covers_the_pair_list() {
        let (p, _, _, _) = setup();
        let cfg = GraphBuildConfig::default();
        let all = vec![(0usize, 1usize), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)];
        let pruned = vec![(0usize, 1usize), (1, 0)];
        let reordered = vec![(0usize, 2usize), (0, 1), (1, 0), (1, 2), (2, 0), (2, 1)];
        let f_all = sweep_fingerprint(&p, &cfg, &all);
        assert_ne!(f_all, sweep_fingerprint(&p, &cfg, &pruned));
        assert_ne!(f_all, sweep_fingerprint(&p, &cfg, &reordered));
        assert_eq!(f_all, sweep_fingerprint(&p, &cfg, &all.clone()));
    }

    #[test]
    fn degrade_enforces_min_success_fraction() {
        let (p, train, dev, _) = setup();
        let cfg = GraphBuildConfig {
            policy: FailurePolicy::Degrade {
                min_success_fraction: 1.0,
            },
            chaos_fail_pairs: vec![(0, 1)],
            ..GraphBuildConfig::default()
        };
        assert!(matches!(
            build_graph(&p, &train, &dev, &cfg),
            Err(CoreError::TooManyFailedPairs {
                failed: 1,
                total: 6
            })
        ));
    }

    /// Everything a sweep serializes except the runtimes — training
    /// wall-clock is the one legitimately nondeterministic field.
    fn canonical_json(g: &TrainedGraph) -> String {
        serde_json::to_string(&(&g.graph, g.models(), g.quarantined())).expect("serialize")
    }

    fn ckpt_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mdes_sweep_test_{}_{tag}.ckpt", std::process::id()))
    }

    #[test]
    fn interrupted_sweep_resumes_to_identical_graph() {
        let (p, train, dev, _) = setup();
        let path = ckpt_path("resume");
        std::fs::remove_file(&path).ok();

        let uninterrupted =
            build_graph(&p, &train, &dev, &GraphBuildConfig::default()).expect("clean run");

        // "Kill" a sweep mid-way: single worker, checkpoint after every
        // pair, and a chaos panic at the 4th pair under FailFast. The pairs
        // before it are persisted; the run aborts.
        let interrupted = GraphBuildConfig {
            threads: 1,
            checkpoint: Some(CheckpointConfig {
                path: path.display().to_string(),
                every: 1,
            }),
            chaos_fail_pairs: vec![(1, 2)],
            ..GraphBuildConfig::default()
        };
        assert!(build_graph(&p, &train, &dev, &interrupted).is_err());
        let partial = crate::checkpoint::read_checkpoint(&path).expect("partial checkpoint");
        assert!(!partial.models.is_empty() && partial.models.len() < 6);

        // Resume without the chaos hook: only the missing pairs train.
        let resume = GraphBuildConfig {
            threads: 1,
            checkpoint: Some(CheckpointConfig {
                path: path.display().to_string(),
                every: 1,
            }),
            ..GraphBuildConfig::default()
        };
        let resumed = build_graph(&p, &train, &dev, &resume).expect("resumed run");

        let a = canonical_json(&uninterrupted);
        let b = canonical_json(&resumed);
        assert_eq!(a, b, "resumed sweep must be byte-identical");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        let (p, train, dev, _) = setup();
        let path = ckpt_path("mismatch");
        crate::checkpoint::write_checkpoint(
            &path,
            &crate::checkpoint::CheckpointData {
                fingerprint: 0x1234,
                models: Vec::new(),
                quarantined: Vec::new(),
            },
        )
        .expect("write");
        let cfg = GraphBuildConfig {
            checkpoint: Some(CheckpointConfig {
                path: path.display().to_string(),
                every: 1,
            }),
            ..GraphBuildConfig::default()
        };
        match build_graph(&p, &train, &dev, &cfg) {
            Err(CoreError::Checkpoint { detail, .. }) => {
                assert!(detail.contains("fingerprint mismatch"), "{detail}");
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unwritable_checkpoint_fails_before_any_pair_trains() {
        let (p, train, dev, _) = setup();
        let path = std::env::temp_dir()
            .join(format!("mdes_sweep_no_such_dir_{}", std::process::id()))
            .join("sweep.mdck");
        let cfg = GraphBuildConfig {
            threads: 1,
            checkpoint: Some(CheckpointConfig {
                path: path.display().to_string(),
                every: 1,
            }),
            // Had any worker started, this would end the sweep with
            // `WorkerLost` instead.
            chaos_lose_worker_pairs: vec![(0, 1)],
            ..GraphBuildConfig::default()
        };
        match build_graph(&p, &train, &dev, &cfg) {
            Err(CoreError::Checkpoint { detail, .. }) => {
                assert!(detail.contains("create tmp failed"), "{detail}");
            }
            other => panic!("expected an up-front Checkpoint error, got {other:?}"),
        }
    }
}
