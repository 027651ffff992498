//! Scalable-sweep guarantees: prescreen recall, kill-and-resume shard
//! recovery, and fingerprint-gated checkpoint rejection.
//!
//! The prescreen is graded where ground truth is exact: when the main
//! sweep uses the same n-gram family, predicted scores *equal* final
//! scores, so a margin-0 prescreen must keep every pair the exhaustive
//! sweep scores inside the validity band — on every plant, at every band
//! (the proptest below). The sharded sweep must recover from a killed
//! worker pool via its per-shard MDCK checkpoints, replaying completed
//! pairs byte-identically, and must refuse checkpoints written over a
//! different prescreen selection instead of silently resuming stale
//! models.

use mdes::core::{
    build_graph, build_graph_sharded, prescreen_pairs, CoreError, GraphBuildConfig,
    PrescreenConfig, ShardedSweepConfig, TrainedGraph,
};
use mdes::graph::ScoreRange;
use mdes::lang::{LanguagePipeline, RawTrace, WindowConfig};
use mdes::synth::plant::{generate, PlantConfig};
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

/// Six mixed-period sensors: pairs sharing a period translate
/// near-perfectly, the rest poorly — enough score spread for sharding and
/// pruning to be non-trivial.
fn setup() -> (LanguagePipeline, Vec<RawTrace>) {
    let traces = vec![
        toggling("a", 600, 5, 0),
        toggling("b", 600, 5, 2),
        toggling("c", 600, 7, 0),
        toggling("d", 600, 7, 3),
        toggling("e", 600, 11, 0),
        toggling("f", 600, 13, 1),
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

/// A fresh checkpoint directory under the target-adjacent temp dir.
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdes_scalability_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn killed_sweep_resumes_from_shard_checkpoints_byte_identically() {
    let (p, traces) = setup();
    let pairs = all_pairs(6); // 30 pairs -> 8 shards of <=4
    let dir = ckpt_dir("resume");
    let mut cfg = ShardedSweepConfig {
        build: GraphBuildConfig {
            threads: 1,
            ..GraphBuildConfig::default()
        },
        pairs_per_shard: 4,
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        checkpoint_every: 1,
    };

    // Uninterrupted baseline, no checkpoints.
    let baseline_cfg = ShardedSweepConfig {
        checkpoint_dir: None,
        ..cfg.clone()
    };
    let (baseline, _) = build_graph_sharded(&p, &traces, 0..300, 300..450, &pairs, &baseline_cfg)
        .expect("baseline");

    // Kill the worker pool mid-fleet: the worker dies *outside* pair
    // isolation on the 11th pair (shard 2), after shards 0-1 checkpointed.
    cfg.build.chaos_lose_worker_pairs = vec![pairs[10]];
    let err = build_graph_sharded(&p, &traces, 0..300, 300..450, &pairs, &cfg)
        .expect_err("lost worker must fail the sweep");
    assert!(
        matches!(err, CoreError::WorkerLost { .. }),
        "expected WorkerLost, got {err:?}"
    );

    // Resume without the fault: completed shards replay from disk, the
    // rest train live, and the result matches the uninterrupted baseline.
    cfg.build.chaos_lose_worker_pairs.clear();
    let (resumed, report) =
        build_graph_sharded(&p, &traces, 0..300, 300..450, &pairs, &cfg).expect("resume");
    assert!(
        report.resumed >= 8,
        "shards completed before the kill must replay, resumed only {}",
        report.resumed
    );
    assert!(report.resumed < pairs.len(), "the kill left work to redo");
    assert_eq!(canonical_json(&baseline), canonical_json(&resumed));

    // A second resume replays *every* pair from the rewritten checkpoints:
    // byte-identical including per-model wall-clock timings.
    let (replayed, report2) =
        build_graph_sharded(&p, &traces, 0..300, 300..450, &pairs, &cfg).expect("replay");
    assert_eq!(report2.resumed, pairs.len());
    assert_eq!(
        serde_json::to_string(&resumed).expect("resumed json"),
        serde_json::to_string(&replayed).expect("replayed json"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_from_a_different_prescreen_selection_are_rejected() {
    let (p, traces) = setup();
    let pairs = all_pairs(6);
    let dir = ckpt_dir("stale");
    let cfg = ShardedSweepConfig {
        build: GraphBuildConfig {
            threads: 1,
            ..GraphBuildConfig::default()
        },
        pairs_per_shard: 4,
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        checkpoint_every: 1,
    };
    build_graph_sharded(&p, &traces, 0..300, 300..450, &pairs, &cfg).expect("first sweep");

    // A narrower selection re-slices the shards: the stale files must be
    // rejected by fingerprint, not silently replayed.
    let narrowed: Vec<(usize, usize)> = pairs[1..].to_vec();
    let err = build_graph_sharded(&p, &traces, 0..300, 300..450, &narrowed, &cfg)
        .expect_err("stale checkpoints must not resume");
    match err {
        CoreError::Checkpoint { detail, .. } => {
            assert!(detail.contains("fingerprint mismatch"), "{detail}");
        }
        other => panic!("expected Checkpoint error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

mod prescreen_recall {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// With the sweep on the same n-gram family, a margin-0 prescreen
        /// never prunes a pair the exhaustive sweep scores inside the
        /// validity band — for random plants and random bands.
        #[test]
        fn pruning_never_removes_an_in_range_pair(
            seed in 0u64..1000,
            n_sensors in 4usize..8,
            lo in 0.0f64..80.0,
            span in 5.0f64..40.0,
        ) {
            let plant = generate(&PlantConfig {
                n_sensors,
                days: 4,
                minutes_per_day: 96,
                n_components: 2,
                anomaly_days: vec![],
                precursor_days: vec![],
                // All periodic: a rare-event sensor that never fires inside
                // this short horizon would be dropped as flat and shrink
                // the pair set below the test's interest.
                rare_fraction: 0.0,
                seed,
                ..PlantConfig::default()
            });
            let window = WindowConfig {
                word_len: 4,
                word_stride: 1,
                sent_len: 5,
                sent_stride: 5,
            };
            let train = plant.days_range(1, 2);
            let dev = plant.days_range(3, 3);
            let p = LanguagePipeline::fit(&plant.traces, train.clone(), window)
                .expect("fit languages");
            prop_assert!(p.sensor_count() >= 2);

            let train_sets = p.encode_segment(&plant.traces, train.clone()).expect("train");
            let dev_sets = p.encode_segment(&plant.traces, dev.clone()).expect("dev");
            let trained = build_graph(&p, &train_sets, &dev_sets, &GraphBuildConfig::default())
                .expect("exhaustive sweep");

            let range = ScoreRange::closed(lo, lo + span);
            let screened = prescreen_pairs(&p, &plant.traces, train, dev, &PrescreenConfig {
                range,
                margin: 0.0,
                ..PrescreenConfig::default()
            }).expect("prescreen");
            let survivors = screened.survivors();
            for m in trained.models() {
                if range.contains(m.train_score) {
                    prop_assert!(
                        survivors.binary_search(&(m.src, m.dst)).is_ok(),
                        "pruned in-range pair ({}, {}) scoring {}",
                        m.src, m.dst, m.train_score
                    );
                }
            }
        }
    }
}
