//! Sharded Algorithm 1 — stage two of the scalable sweep.
//!
//! [`build_graph_sharded`] trains an explicit pair list (typically the
//! survivors of [`prescreen_pairs`](crate::prescreen::prescreen_pairs)) in
//! independently checkpointed partitions:
//!
//! * **Streamed corpora** — each shard encodes only the sensors its pairs
//!   touch, via [`LanguagePipeline::encode_sensor_segment`], and drops them
//!   before the next shard starts. Peak corpus memory is bounded by the
//!   shard's sensor union, not the fleet; the [`ShardedSweepReport`]
//!   measures both so callers can assert the bound.
//! * **Per-shard checkpoints** — with a checkpoint directory configured,
//!   shard `k` persists to `shard_{k:05}.mdck` using the MDCK
//!   prefix-recovery format. A killed run resumes shard by shard; completed
//!   shards replay from disk without retraining.
//! * **Fingerprint-gated resume** — every shard file's fingerprint covers
//!   the shard's exact pair slice (via
//!   [`sweep_fingerprint`](crate::algorithm1)), so a checkpoint written
//!   over a *different prescreen selection* (or different sharding) is
//!   rejected instead of silently resuming stale models.
//!
//! Because each pair trains deterministically in isolation, a resumed
//! sharded run produces a graph byte-identical to an uninterrupted one, and
//! a sharded run over all pairs equals a monolithic
//! [`build_graph`](crate::algorithm1::build_graph)
//! (modulo per-model wall-clock timings).

use crate::algorithm1::{
    assemble_graph, sweep_fingerprint, sweep_pairs, validate_alignment_sparse, GraphBuildConfig,
    TrainedGraph,
};
use crate::checkpoint::CheckpointConfig;
use crate::error::CoreError;
use mdes_lang::{LanguagePipeline, RawTrace, SentenceSet};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Configuration of a sharded sweep.
#[derive(Clone, Debug)]
pub struct ShardedSweepConfig {
    /// Per-pair training configuration (translator, BLEU, retries, failure
    /// policy, threads). Its `checkpoint` field is ignored — sharded sweeps
    /// derive one checkpoint file per shard from `checkpoint_dir` instead.
    pub build: GraphBuildConfig,
    /// Pairs per shard (clamped to at least 1). Smaller shards bound memory
    /// and recover more granularly; larger shards amortize encoding.
    pub pairs_per_shard: usize,
    /// Directory for per-shard MDCK checkpoint files (`shard_00000.mdck`,
    /// …), created if absent. `None` disables checkpointing.
    pub checkpoint_dir: Option<String>,
    /// Within-shard checkpoint cadence (persist after every `n` completed
    /// pairs), as [`CheckpointConfig::every`].
    pub checkpoint_every: usize,
}

impl Default for ShardedSweepConfig {
    fn default() -> Self {
        Self {
            build: GraphBuildConfig::default(),
            pairs_per_shard: 512,
            checkpoint_dir: None,
            checkpoint_every: 32,
        }
    }
}

/// Measurements from one [`build_graph_sharded`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardedSweepReport {
    /// Number of shards swept.
    pub shards: usize,
    /// Total pairs requested (after canonical sort/dedup).
    pub pairs_total: usize,
    /// Pairs restored from shard checkpoints instead of retrained.
    pub resumed: usize,
    /// Largest per-shard resident corpus footprint, in bytes.
    pub peak_shard_corpus_bytes: usize,
    /// Largest per-shard sensor-union size.
    pub peak_shard_sensors: usize,
    /// Combined corpus bytes of every distinct sensor any shard touched —
    /// what a monolithic sweep would have held resident at once.
    pub fleet_corpus_bytes: usize,
    /// Distinct sensors across all shards.
    pub distinct_sensors: usize,
}

/// Trains an explicit ordered-pair list shard by shard and assembles the
/// relationship graph.
///
/// `pairs` is canonicalized (sorted by `(src, dst)`, duplicates removed)
/// before sharding, so shard contents — and therefore checkpoint
/// fingerprints — do not depend on the caller's ordering.
///
/// # Errors
///
/// Returns [`CoreError::TooFewSensors`] for fewer than two surviving
/// sensors, [`CoreError::NoValidModels`] for an empty pair list (an
/// over-aggressive prescreen), [`CoreError::Nn`] for an out-of-range
/// translator configuration (before any pair trains), corpus/encoding
/// errors per shard, and the
/// same failure-policy and checkpoint errors as
/// [`build_graph`](crate::algorithm1::build_graph) — including
/// [`CoreError::Checkpoint`] when a shard file's fingerprint belongs to a
/// different pair selection.
///
/// # Panics
///
/// Panics if any pair references an out-of-range sensor index or is a
/// self-pair — programmer errors, not runtime conditions.
pub fn build_graph_sharded(
    pipeline: &LanguagePipeline,
    traces: &[RawTrace],
    train: Range<usize>,
    dev: Range<usize>,
    pairs: &[(usize, usize)],
    cfg: &ShardedSweepConfig,
) -> Result<(TrainedGraph, ShardedSweepReport), CoreError> {
    let n = pipeline.sensor_count();
    if n < 2 {
        return Err(CoreError::TooFewSensors { available: n });
    }
    if pairs.is_empty() {
        return Err(CoreError::NoValidModels);
    }
    cfg.build.translator.validate()?;
    for &(i, j) in pairs {
        assert!(
            i < n && j < n && i != j,
            "sharded pair ({i} -> {j}) invalid for {n} sensors"
        );
    }
    let mut pairs: Vec<(usize, usize)> = pairs.to_vec();
    pairs.sort_unstable();
    pairs.dedup();

    if let Some(dir) = &cfg.checkpoint_dir {
        std::fs::create_dir_all(dir).map_err(|e| CoreError::Checkpoint {
            path: dir.clone(),
            detail: format!("cannot create checkpoint directory: {e}"),
        })?;
    }

    let per_shard = cfg.pairs_per_shard.max(1);
    let shard_count = pairs.len().div_ceil(per_shard);
    let mut report = ShardedSweepReport {
        shards: shard_count,
        pairs_total: pairs.len(),
        ..ShardedSweepReport::default()
    };
    // Corpus bytes per distinct sensor, accumulated across shards to
    // estimate what a monolithic sweep would hold resident at once.
    let mut sensor_bytes: BTreeMap<usize, usize> = BTreeMap::new();

    let mut slots = Vec::with_capacity(pairs.len());
    for (k, shard) in pairs.chunks(per_shard).enumerate() {
        let sensors: BTreeSet<usize> = shard.iter().flat_map(|&(i, j)| [i, j]).collect();
        let mut shard_span = mdes_obs::span("algo1.shard");
        shard_span.field("shard", k);
        shard_span.field("pairs", shard.len());
        shard_span.field("sensors", sensors.len());

        // Stream in only this shard's sensors; dropped at end of iteration.
        let mut train_sets: Vec<Option<SentenceSet>> = (0..n).map(|_| None).collect();
        let mut dev_sets: Vec<Option<SentenceSet>> = (0..n).map(|_| None).collect();
        let mut shard_bytes = 0usize;
        for &s in &sensors {
            let t = pipeline.encode_sensor_segment(traces, train.clone(), s)?;
            let d = pipeline.encode_sensor_segment(traces, dev.clone(), s)?;
            let bytes = t.approx_bytes() + d.approx_bytes();
            shard_bytes += bytes;
            sensor_bytes.insert(s, bytes);
            train_sets[s] = Some(t);
            dev_sets[s] = Some(d);
        }
        report.peak_shard_corpus_bytes = report.peak_shard_corpus_bytes.max(shard_bytes);
        report.peak_shard_sensors = report.peak_shard_sensors.max(sensors.len());
        shard_span.field("corpus_bytes", shard_bytes);

        let train_refs: Vec<Option<&SentenceSet>> = train_sets.iter().map(Option::as_ref).collect();
        let dev_refs: Vec<Option<&SentenceSet>> = dev_sets.iter().map(Option::as_ref).collect();
        validate_alignment_sparse(&train_refs)?;
        validate_alignment_sparse(&dev_refs)?;

        let mut shard_cfg = cfg.build.clone();
        shard_cfg.checkpoint = cfg.checkpoint_dir.as_ref().map(|dir| CheckpointConfig {
            path: format!("{dir}/shard_{k:05}.mdck"),
            every: cfg.checkpoint_every.max(1),
        });
        // The fingerprint covers this shard's exact pair slice: any change
        // to the prescreen selection or the sharding re-slices the list and
        // invalidates the file.
        let fingerprint = sweep_fingerprint(pipeline, &shard_cfg, shard);
        let out = sweep_pairs(
            pipeline,
            &train_refs,
            &dev_refs,
            shard,
            &shard_cfg,
            fingerprint,
        )?;
        report.resumed += out.resumed;
        shard_span.field("resumed", out.resumed);
        slots.extend(out.slots);
        mdes_obs::counter("algo1.shards_completed", 1);
    }

    report.distinct_sensors = sensor_bytes.len();
    report.fleet_corpus_bytes = sensor_bytes.values().sum();
    let trained = assemble_graph(pipeline, slots, pairs.len(), cfg.build.policy)?;
    Ok((trained, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::build_graph;
    use mdes_lang::WindowConfig;

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

    fn setup() -> (LanguagePipeline, Vec<RawTrace>) {
        let traces = vec![
            toggling("a", 600, 5, 0),
            toggling("b", 600, 5, 2),
            toggling("c", 600, 7, 0),
            toggling("d", 600, 11, 3),
        ];
        let cfg = WindowConfig {
            word_len: 4,
            word_stride: 1,
            sent_len: 5,
            sent_stride: 5,
        };
        let p = LanguagePipeline::fit(&traces, 0..300, cfg).expect("fit");
        (p, traces)
    }

    fn all_pairs(n: usize) -> Vec<(usize, usize)> {
        (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|(i, j)| i != j)
            .collect()
    }

    /// Everything a sweep serializes except the nondeterministic runtimes.
    fn canonical_json(g: &TrainedGraph) -> String {
        serde_json::to_string(&(&g.graph, g.models(), g.quarantined())).expect("serialize")
    }

    #[test]
    fn sharded_over_all_pairs_equals_monolithic() {
        let (p, traces) = setup();
        let train = p.encode_segment(&traces, 0..300).expect("train");
        let dev = p.encode_segment(&traces, 300..450).expect("dev");
        let mono = build_graph(&p, &train, &dev, &GraphBuildConfig::default()).expect("mono");

        let cfg = ShardedSweepConfig {
            pairs_per_shard: 5, // 12 pairs -> 3 uneven shards
            ..ShardedSweepConfig::default()
        };
        let (sharded, report) =
            build_graph_sharded(&p, &traces, 0..300, 300..450, &all_pairs(4), &cfg)
                .expect("sharded");
        assert_eq!(canonical_json(&mono), canonical_json(&sharded));
        assert_eq!(report.shards, 3);
        assert_eq!(report.pairs_total, 12);
        assert_eq!(report.resumed, 0);
        assert_eq!(report.distinct_sensors, 4);
        assert!(report.peak_shard_corpus_bytes <= report.fleet_corpus_bytes);
        assert!(report.peak_shard_sensors <= 4);
    }

    #[test]
    fn shard_memory_is_bounded_by_shard_sensor_union() {
        let (p, traces) = setup();
        // One pair per shard: each shard holds exactly two sensors' corpora.
        let cfg = ShardedSweepConfig {
            pairs_per_shard: 1,
            ..ShardedSweepConfig::default()
        };
        let (_, report) = build_graph_sharded(&p, &traces, 0..300, 300..450, &all_pairs(4), &cfg)
            .expect("sharded");
        assert_eq!(report.peak_shard_sensors, 2);
        // Two sensors of four: peak must sit well under the fleet total
        // (sensor corpora here are near-uniform in size).
        assert!(
            report.peak_shard_corpus_bytes * 3 < report.fleet_corpus_bytes * 2,
            "peak {} vs fleet {}",
            report.peak_shard_corpus_bytes,
            report.fleet_corpus_bytes
        );
    }

    #[test]
    fn empty_pair_list_is_rejected() {
        let (p, traces) = setup();
        let r = build_graph_sharded(
            &p,
            &traces,
            0..300,
            300..450,
            &[],
            &ShardedSweepConfig::default(),
        );
        assert!(matches!(r, Err(CoreError::NoValidModels)));
    }

    #[test]
    fn pair_order_and_duplicates_are_canonicalized() {
        let (p, traces) = setup();
        let cfg = ShardedSweepConfig {
            pairs_per_shard: 2,
            ..ShardedSweepConfig::default()
        };
        let a = build_graph_sharded(
            &p,
            &traces,
            0..300,
            300..450,
            &[(2, 1), (0, 1), (1, 2), (0, 1)],
            &cfg,
        )
        .expect("scrambled");
        let b = build_graph_sharded(
            &p,
            &traces,
            0..300,
            300..450,
            &[(0, 1), (1, 2), (2, 1)],
            &cfg,
        )
        .expect("sorted");
        assert_eq!(canonical_json(&a.0), canonical_json(&b.0));
        assert_eq!(a.1.pairs_total, 3);
    }
}
