//! Continuous-learning control plane: drift detection, partial refit, and
//! the score-distribution summaries behind canaried rollouts.
//!
//! The paper trains the pair-model graph once; real fleets drift. A regime
//! shift invalidates individual `s(i, j)` pins while the rest of the graph
//! stays good, so retraining everything is wasteful and hot-swapping an
//! unvetted artifact is reckless. This module closes the loop:
//!
//! * [`DriftMonitor`] — consumes the per-window [`OnlineDetection`] stream a
//!   serving engine already produces and maintains per-valid-pair broken
//!   rates against the pinned training scores frozen into the served
//!   [`GraphSnapshot`]. Under a [`DriftPolicy`] it separates a *baseline*
//!   phase (what "healthy" looks like for this deployment) from a trailing
//!   *recent* window, and flags exactly the pairs whose broken rate jumped —
//!   not the pairs that were always mediocre.
//! * [`refit_pairs`] — retrains *only* the stale pairs through the sharded
//!   sweep machinery ([`build_graph_sharded`]), inheriting the PR 2 fault
//!   tolerance (retries, quarantine, failure policies) and MDCK per-shard
//!   checkpointing, and returns the retrained [`FrozenPairModel`]s, ready to be
//!   spliced into the live snapshot via
//!   [`GraphSnapshot::graft`](crate::serve::GraphSnapshot::graft).
//! * [`ScoreDist`] / [`DistSummary`] — the one score-distribution summary
//!   shared by the canary comparator
//!   ([`ModelStore::start_canary`](crate::serve::ModelStore::start_canary))
//!   and the bench reporters, so "compare anomaly-score distributions" means
//!   the same arithmetic at decision time and in the experiment tables.
//!
//! The full lifecycle is a state machine ([`LifecycleState`]):
//! healthy → drifting → refitting → canary → promoted / rolled-back, with
//! both terminal states folding back to healthy. Serving never blocks on
//! any transition, and a rejected candidate never influences emitted
//! scores — canary sessions are *shadow*-scored (see
//! [`CanaryConfig`](crate::serve::CanaryConfig)).

use crate::error::CoreError;
use crate::online::OnlineDetection;
use crate::serve::GraphSnapshot;
use crate::sharded::{build_graph_sharded, ShardedSweepConfig, ShardedSweepReport};
use crate::translator::FrozenPairModel;
use mdes_lang::{LanguagePipeline, RawTrace};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

/// Phases of the continuous-learning loop, in causal order.
///
/// Used by control-plane drivers (and the docs) to name where a deployment
/// sits; the states are advisory — each component validates its own inputs
/// and none of them requires an external driver to enforce ordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LifecycleState {
    /// Detection quality is inside the baseline band; nothing to do.
    Healthy,
    /// The drift monitor has flagged a non-empty stale-pair set.
    Drifting,
    /// A partial refit of the stale pairs is in flight.
    Refitting,
    /// A grafted candidate is being shadow-scored against the incumbent.
    Canary,
    /// The candidate won and is now the served snapshot.
    Promoted,
    /// The candidate lost; the incumbent never stopped serving.
    RolledBack,
}

impl LifecycleState {
    /// Whether the loop may move from `self` to `to` (terminal states fold
    /// back to [`LifecycleState::Healthy`]; a canary may also be cut short
    /// straight back to drifting when it is cancelled).
    pub fn can_transition(self, to: LifecycleState) -> bool {
        use LifecycleState::*;
        matches!(
            (self, to),
            (Healthy, Drifting)
                | (Drifting, Refitting)
                | (Refitting, Canary)
                | (Canary, Promoted)
                | (Canary, RolledBack)
                | (Canary, Drifting)
                | (Promoted, Healthy)
                | (RolledBack, Healthy)
                | (RolledBack, Drifting)
        )
    }
}

impl std::fmt::Display for LifecycleState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LifecycleState::Healthy => "healthy",
            LifecycleState::Drifting => "drifting",
            LifecycleState::Refitting => "refitting",
            LifecycleState::Canary => "canary",
            LifecycleState::Promoted => "promoted",
            LifecycleState::RolledBack => "rolled_back",
        };
        f.write_str(s)
    }
}

/// Thresholds under which [`DriftMonitor`] decides a pair model went stale.
///
/// The monitor compares a pair's broken rate over the trailing
/// `recent_windows` against its rate over the first `baseline_windows` it
/// ever saw. Both a *jump* (recent − baseline) and an absolute recent floor
/// must be exceeded, so a pair that was always borderline does not flag,
/// and neither does a pair that worsened from 0% to 5%.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DriftPolicy {
    /// Windows used to establish the per-pair baseline broken rate.
    pub baseline_windows: usize,
    /// Trailing windows the recent broken rate is measured over.
    pub recent_windows: usize,
    /// Minimum `recent − baseline` broken-rate increase to flag a pair.
    pub broken_rate_jump: f64,
    /// Minimum absolute recent broken rate to flag a pair.
    pub min_recent_rate: f64,
    /// Windows whose detection coverage is below this are skipped entirely
    /// — sensor dropout already explains their breakage.
    pub min_coverage: f64,
}

impl Default for DriftPolicy {
    fn default() -> Self {
        Self {
            baseline_windows: 32,
            recent_windows: 32,
            broken_rate_jump: 0.35,
            min_recent_rate: 0.5,
            min_coverage: 0.5,
        }
    }
}

/// One pair the monitor considers stale: the evidence behind the flag.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct PairDrift {
    /// Source sensor node index.
    pub src: usize,
    /// Target sensor node index.
    pub dst: usize,
    /// Broken rate over the baseline phase.
    pub baseline_rate: f64,
    /// Broken rate over the trailing recent window.
    pub recent_rate: f64,
    /// The pinned training score `s(i, j)` the breakage is measured against.
    pub train_score: f64,
}

/// Aggregate outcome of one [`DriftMonitor::scan`].
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DriftReport {
    /// Windows consumed so far (after coverage filtering).
    pub windows: usize,
    /// Windows skipped for insufficient coverage.
    pub skipped_low_coverage: usize,
    /// Valid pairs being watched.
    pub pairs_watched: usize,
    /// Pairs currently over the drift thresholds, sorted by `(src, dst)`.
    pub stale: Vec<PairDrift>,
}

impl DriftReport {
    /// The stale set as bare `(src, dst)` node pairs — the exact argument
    /// shape [`refit_pairs`] and the sharded sweep take.
    pub fn stale_pairs(&self) -> Vec<(usize, usize)> {
        self.stale.iter().map(|p| (p.src, p.dst)).collect()
    }
}

/// Watches a served snapshot's per-pair broken rates for regime drift.
///
/// Construction pins the snapshot's *valid* pair set and training scores;
/// every [`OnlineDetection`] fed to [`DriftMonitor::observe`] contributes
/// its broken-pair alert set. The first [`DriftPolicy::baseline_windows`]
/// observations form the baseline; afterwards a ring of the most recent
/// [`DriftPolicy::recent_windows`] observations is maintained and
/// [`DriftMonitor::scan`] compares the two per pair.
///
/// The monitor is deliberately snapshot-pinned: after a canary promotion the
/// caller should construct a fresh monitor over the new snapshot, because
/// the old baseline no longer describes the served model.
#[derive(Debug)]
pub struct DriftMonitor {
    policy: DriftPolicy,
    /// Watched `(src, dst, s(i, j))` triples, in snapshot valid order.
    pairs: Vec<(usize, usize, f64)>,
    index: BTreeMap<(usize, usize), usize>,
    /// Broken counts per watched pair over the baseline phase.
    baseline_broken: Vec<u64>,
    baseline_seen: usize,
    /// Per recent window: indices (into `pairs`) of the broken pairs.
    recent: VecDeque<Vec<u32>>,
    /// Broken counts per watched pair over the `recent` ring.
    recent_broken: Vec<u64>,
    windows: usize,
    skipped_low_coverage: usize,
}

impl DriftMonitor {
    /// Pins `snapshot`'s valid pairs and training scores and starts the
    /// baseline phase.
    pub fn new(snapshot: &GraphSnapshot, policy: DriftPolicy) -> Self {
        let pairs: Vec<(usize, usize, f64)> = snapshot
            .valid_models()
            .iter()
            .map(|&k| {
                let m = &snapshot.models()[k];
                (m.src, m.dst, m.train_score)
            })
            .collect();
        let index = pairs
            .iter()
            .enumerate()
            .map(|(k, &(i, j, _))| ((i, j), k))
            .collect();
        let n = pairs.len();
        Self {
            policy,
            pairs,
            index,
            baseline_broken: vec![0; n],
            baseline_seen: 0,
            recent: VecDeque::new(),
            recent_broken: vec![0; n],
            windows: 0,
            skipped_low_coverage: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &DriftPolicy {
        &self.policy
    }

    /// Windows consumed so far (excluding coverage-skipped ones).
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Whether the baseline phase has completed.
    pub fn baseline_ready(&self) -> bool {
        self.baseline_seen >= self.policy.baseline_windows.max(1)
    }

    /// Whether both the baseline and a full recent ring are available, i.e.
    /// [`DriftMonitor::scan`] is comparing two fully-populated phases.
    pub fn ready(&self) -> bool {
        self.baseline_ready() && self.recent.len() >= self.policy.recent_windows.max(1)
    }

    /// Feeds one per-window detection. Windows with coverage below
    /// [`DriftPolicy::min_coverage`] are skipped — their breakage is
    /// explained by sensor dropout, not model staleness.
    pub fn observe(&mut self, detection: &OnlineDetection) {
        if detection.coverage < self.policy.min_coverage {
            self.skipped_low_coverage += 1;
            return;
        }
        let broken: Vec<u32> = detection
            .alerts
            .iter()
            .filter_map(|&(i, j)| self.index.get(&(i, j)).map(|&k| k as u32))
            .collect();
        self.windows += 1;
        if !self.baseline_ready() {
            self.baseline_seen += 1;
            for &k in &broken {
                self.baseline_broken[k as usize] += 1;
            }
            return;
        }
        for &k in &broken {
            self.recent_broken[k as usize] += 1;
        }
        self.recent.push_back(broken);
        while self.recent.len() > self.policy.recent_windows.max(1) {
            let evicted = self.recent.pop_front().expect("non-empty ring");
            for k in evicted {
                self.recent_broken[k as usize] -= 1;
            }
        }
    }

    /// Whether any watched pair currently trips the drift thresholds.
    pub fn is_drifting(&self) -> bool {
        !self.scan().stale.is_empty()
    }

    /// Compares recent broken rates against the baseline per pair and
    /// reports the pairs over the thresholds. Empty until
    /// [`DriftMonitor::ready`]; emits a `lifecycle.drift` obs event when the
    /// stale set is non-empty.
    pub fn scan(&self) -> DriftReport {
        let mut stale = Vec::new();
        if self.ready() {
            let base_n = self.baseline_seen as f64;
            let recent_n = self.recent.len() as f64;
            for (k, &(src, dst, train_score)) in self.pairs.iter().enumerate() {
                let baseline_rate = self.baseline_broken[k] as f64 / base_n;
                let recent_rate = self.recent_broken[k] as f64 / recent_n;
                if recent_rate >= self.policy.min_recent_rate
                    && recent_rate - baseline_rate >= self.policy.broken_rate_jump
                {
                    stale.push(PairDrift {
                        src,
                        dst,
                        baseline_rate,
                        recent_rate,
                        train_score,
                    });
                }
            }
        }
        if !stale.is_empty() {
            mdes_obs::event(
                "lifecycle.drift",
                &[
                    ("stale", stale.len().into()),
                    ("watched", self.pairs.len().into()),
                    ("windows", self.windows.into()),
                ],
            );
        }
        DriftReport {
            windows: self.windows,
            skipped_low_coverage: self.skipped_low_coverage,
            pairs_watched: self.pairs.len(),
            stale,
        }
    }
}

/// Outcome of a [`refit_pairs`] run: the retrained pair models ready to be
/// grafted, plus what failed and how the sweep went.
#[derive(Debug)]
pub struct RefitOutcome {
    /// Retrained models for every pair that trained successfully, ready for
    /// [`GraphSnapshot::graft`](crate::serve::GraphSnapshot::graft).
    pub models: Vec<FrozenPairModel>,
    /// Pairs quarantined by the failure policy (only possible under
    /// [`FailurePolicy::Degrade`](crate::algorithm1::FailurePolicy)).
    pub quarantined: Vec<(usize, usize)>,
    /// The sharded sweep's own measurements (shards, resumed pairs, peak
    /// shard corpus bytes).
    pub report: ShardedSweepReport,
}

/// Retrains exactly the given stale pairs over a fresh data range, for
/// grafting.
///
/// A thin lifecycle-facing wrapper over [`build_graph_sharded`]: the sweep
/// inherits the full PR 2 fault-tolerance policy (retries, quarantine,
/// chaos hooks) and, with [`ShardedSweepConfig::checkpoint_dir`] set, MDCK
/// per-shard checkpointing — a refit worker killed mid-sweep resumes from
/// the last persisted pair instead of restarting.
///
/// # Errors
///
/// As [`build_graph_sharded`] — including [`CoreError::NoValidModels`] for
/// an empty stale set and [`CoreError::WorkerLost`] /
/// [`CoreError::PairQuarantined`] under
/// [`FailurePolicy::FailFast`](crate::algorithm1::FailurePolicy).
pub fn refit_pairs(
    pipeline: &LanguagePipeline,
    traces: &[RawTrace],
    train: Range<usize>,
    dev: Range<usize>,
    stale: &[(usize, usize)],
    cfg: &ShardedSweepConfig,
) -> Result<RefitOutcome, CoreError> {
    let mut span = mdes_obs::span("lifecycle.refit");
    span.field("pairs", stale.len());
    let (trained, report) = build_graph_sharded(pipeline, traces, train, dev, stale, cfg)?;
    let models = trained.models().to_vec();
    let quarantined: Vec<(usize, usize)> = trained
        .quarantined()
        .iter()
        .map(|q| (q.src, q.dst))
        .collect();
    span.field("refrozen", models.len());
    span.field("quarantined", quarantined.len());
    mdes_obs::counter("lifecycle.pairs_refit", models.len() as u64);
    Ok(RefitOutcome {
        models,
        quarantined,
        report,
    })
}

/// A growable sample reservoir over anomaly scores (or any `f64` series)
/// with one canonical summary.
///
/// This is the single distribution summary shared by the canary comparator
/// and the bench reporters (`mdes_bench::report` re-exports it), so the
/// promote/roll-back arithmetic and the numbers in the experiment tables
/// can never disagree on what "p95" means.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScoreDist {
    samples: Vec<f64>,
}

impl ScoreDist {
    /// An empty reservoir.
    pub fn new() -> Self {
        Self::default()
    }

    /// A reservoir over a copy of `samples`.
    pub fn from_samples(samples: &[f64]) -> Self {
        Self {
            samples: samples.to_vec(),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Records many samples.
    pub fn extend(&mut self, values: &[f64]) {
        self.samples.extend_from_slice(values);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The recorded samples, in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Summarizes the recorded samples; all fields are `0.0` (count `0`)
    /// for an empty reservoir.
    pub fn summary(&self) -> DistSummary {
        if self.samples.is_empty() {
            return DistSummary::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len();
        let pct = |q: f64| sorted[((q * (n - 1) as f64).round() as usize).min(n - 1)];
        DistSummary {
            count: n,
            mean: sorted.iter().sum::<f64>() / n as f64,
            p50: pct(0.50),
            p95: pct(0.95),
            min: sorted[0],
            max: sorted[n - 1],
        }
    }
}

/// A fixed summary of one score distribution (nearest-rank percentiles over
/// a total order, `NaN`s sorted last).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct DistSummary {
    /// Samples summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detection(alerts: &[(usize, usize)], coverage: f64) -> OnlineDetection {
        OnlineDetection {
            sample_index: 0,
            score: 0.0,
            alerts: alerts.to_vec(),
            coverage,
            dropped_sensors: Vec::new(),
        }
    }

    /// A monitor over a hand-pinned pair set, without building a snapshot.
    fn monitor(pairs: &[(usize, usize)], policy: DriftPolicy) -> DriftMonitor {
        let triples: Vec<(usize, usize, f64)> = pairs.iter().map(|&(i, j)| (i, j, 90.0)).collect();
        let index = triples
            .iter()
            .enumerate()
            .map(|(k, &(i, j, _))| ((i, j), k))
            .collect();
        let n = triples.len();
        DriftMonitor {
            policy,
            pairs: triples,
            index,
            baseline_broken: vec![0; n],
            baseline_seen: 0,
            recent: VecDeque::new(),
            recent_broken: vec![0; n],
            windows: 0,
            skipped_low_coverage: 0,
        }
    }

    fn tiny_policy() -> DriftPolicy {
        DriftPolicy {
            baseline_windows: 4,
            recent_windows: 4,
            broken_rate_jump: 0.5,
            min_recent_rate: 0.5,
            min_coverage: 0.5,
        }
    }

    #[test]
    fn flags_only_pairs_whose_rate_jumped() {
        let mut m = monitor(&[(0, 1), (1, 0), (0, 2)], tiny_policy());
        // Baseline: (0, 2) is chronically broken, the others are healthy.
        for _ in 0..4 {
            m.observe(&detection(&[(0, 2)], 1.0));
        }
        assert!(m.baseline_ready());
        assert!(!m.ready());
        // Recent: (0, 1) starts breaking every window; (0, 2) unchanged.
        for _ in 0..4 {
            m.observe(&detection(&[(0, 1), (0, 2)], 1.0));
        }
        assert!(m.ready());
        let report = m.scan();
        assert_eq!(report.pairs_watched, 3);
        assert_eq!(report.stale_pairs(), vec![(0, 1)]);
        let d = &report.stale[0];
        assert_eq!(d.baseline_rate, 0.0);
        assert_eq!(d.recent_rate, 1.0);
        assert!(m.is_drifting());
    }

    #[test]
    fn chronically_broken_pair_never_flags() {
        let mut m = monitor(&[(0, 1)], tiny_policy());
        for _ in 0..12 {
            m.observe(&detection(&[(0, 1)], 1.0));
        }
        // Recent rate 1.0, but the baseline was also 1.0: no jump.
        assert!(m.scan().stale.is_empty());
        assert!(!m.is_drifting());
    }

    #[test]
    fn low_coverage_windows_are_skipped() {
        let mut m = monitor(&[(0, 1)], tiny_policy());
        for _ in 0..4 {
            m.observe(&detection(&[], 1.0));
        }
        // Broken windows, but under dropout: must not poison the ring.
        for _ in 0..10 {
            m.observe(&detection(&[(0, 1)], 0.2));
        }
        let report = m.scan();
        assert_eq!(report.windows, 4);
        assert_eq!(report.skipped_low_coverage, 10);
        assert!(report.stale.is_empty());
    }

    #[test]
    fn recent_ring_evicts_old_windows() {
        let mut m = monitor(&[(0, 1)], tiny_policy());
        for _ in 0..4 {
            m.observe(&detection(&[], 1.0));
        }
        // A burst of breakage followed by full recovery: after the ring
        // turns over, the pair must unflag.
        for _ in 0..4 {
            m.observe(&detection(&[(0, 1)], 1.0));
        }
        assert_eq!(m.scan().stale_pairs(), vec![(0, 1)]);
        for _ in 0..4 {
            m.observe(&detection(&[], 1.0));
        }
        assert!(m.scan().stale.is_empty());
    }

    #[test]
    fn alerts_outside_the_watched_set_are_ignored() {
        let mut m = monitor(&[(0, 1)], tiny_policy());
        for _ in 0..4 {
            m.observe(&detection(&[], 1.0));
        }
        for _ in 0..4 {
            m.observe(&detection(&[(7, 9)], 1.0));
        }
        assert!(m.scan().stale.is_empty());
    }

    #[test]
    fn lifecycle_transitions() {
        use LifecycleState::*;
        assert!(Healthy.can_transition(Drifting));
        assert!(Drifting.can_transition(Refitting));
        assert!(Refitting.can_transition(Canary));
        assert!(Canary.can_transition(Promoted));
        assert!(Canary.can_transition(RolledBack));
        assert!(Promoted.can_transition(Healthy));
        assert!(RolledBack.can_transition(Healthy));
        assert!(!Healthy.can_transition(Canary));
        assert!(!Promoted.can_transition(RolledBack));
        assert_eq!(RolledBack.to_string(), "rolled_back");
    }

    #[test]
    fn score_dist_summary_matches_nearest_rank() {
        let mut d = ScoreDist::new();
        d.extend(&[0.4, 0.1, 0.2, 0.3]);
        d.record(0.5);
        let s = d.summary();
        assert_eq!(s.count, 5);
        assert!((s.mean - 0.3).abs() < 1e-12);
        assert_eq!(s.p50, 0.3);
        assert_eq!(s.p95, 0.5);
        assert_eq!(s.min, 0.1);
        assert_eq!(s.max, 0.5);
    }

    #[test]
    fn empty_score_dist_summarizes_to_zeros() {
        let s = ScoreDist::new().summary();
        assert_eq!(s, DistSummary::default());
        assert_eq!(s.count, 0);
    }
}
