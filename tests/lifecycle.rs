//! End-to-end continuous-learning loop (DESIGN.md §15): a mid-stream
//! regime shift degrades detection, the [`DriftMonitor`] flags exactly the
//! genuinely shifted pairs, a partial refit over a small fraction of the
//! pair count produces a grafted candidate, and the canaried rollout
//! promotes it — restoring detection quality to the pre-shift band — while
//! a deliberately bad candidate auto-rolls-back with serving output
//! bit-identical to the incumbent throughout. A separate test kills the
//! refit worker pool mid-sweep and resumes it from per-shard MDCK
//! checkpoints.

use mdes::core::serve::{GraphSnapshot, ServingEngine, StreamSession};
use mdes::core::{
    build_graph_sharded, CanaryConfig, CanaryDecision, CoreError, DriftMonitor, DriftPolicy,
    FrozenPairModel, GraphBuildConfig, Mdes, MdesConfig, OnlineDetection, ScoreDist,
    ShardedSweepConfig,
};
use mdes::graph::ScoreRange;
use mdes::lang::WindowConfig;
use mdes::synth::plant::{generate, PlantConfig, PlantData, RegimeShift};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// When the plant's sensor 0 is re-piped (see [`RegimeShift`]).
const SHIFT_AT: usize = 1700;

/// Post-shift refit ranges. Starts are aligned to the residues of the
/// original fit ranges modulo the driver period (train ≡ 0, dev ≡ 16 mod
/// 24): the sentence grid advances 8 samples per sentence, so a segment's
/// start phase decides which wave phases sentence-initial (context-free)
/// words land on, and an operator refitting on a misaligned grid would
/// score the same translator tens of BLEU points lower.
const REFIT_TRAIN: std::ops::Range<usize> = 1704..2200;
const REFIT_DEV: std::ops::Range<usize> = 2200..2504;

/// One 12-sensor component on a shared period-24 driver (`distinct_periods`
/// pins the period deterministically), sampled for 2 880 minutes. From
/// `SHIFT_AT` onward sensor 0 runs a half-period behind its peers — its
/// wave inverts against the component — so every pair touching sensor 0 is
/// genuinely stale and no other pair is.
fn plant() -> PlantData {
    generate(&PlantConfig {
        n_sensors: 12,
        days: 10,
        minutes_per_day: 288,
        n_components: 1,
        anomaly_days: vec![],
        precursor_days: vec![],
        rare_fraction: 0.0,
        noise_flip_prob: 0.0,
        distinct_periods: true,
        regime_shifts: vec![RegimeShift {
            at_sample: SHIFT_AT,
            sensors: vec![0],
            lag_delta: 12,
        }],
        ..PlantConfig::default()
    })
}

fn config() -> MdesConfig {
    let mut cfg = MdesConfig {
        window: WindowConfig {
            word_len: 6,
            word_stride: 1,
            sent_len: 8,
            sent_stride: 8,
        },
        ..MdesConfig::default()
    };
    cfg.detection.valid_range = ScoreRange::closed(40.0, 100.0);
    cfg
}

fn fit_incumbent(plant: &PlantData) -> Mdes {
    Mdes::fit(&plant.traces, 0..1000, 1000..1400, config()).expect("fit incumbent")
}

/// Streams samples `range` of the plant through `session`, returning the
/// completed windows and feeding each into `monitor` when given.
fn stream(
    engine: &ServingEngine,
    session: &mut StreamSession,
    plant: &PlantData,
    range: std::ops::Range<usize>,
    mut monitor: Option<&mut DriftMonitor>,
) -> Vec<OnlineDetection> {
    let mut out = Vec::new();
    for t in range {
        let sample: Vec<Option<String>> = plant
            .traces
            .iter()
            .map(|tr| Some(tr.events[t].clone()))
            .collect();
        if let Some(d) = engine.push_opt(session, &sample).expect("push") {
            if let Some(m) = monitor.as_deref_mut() {
                m.observe(&d);
            }
            out.push(d);
        }
    }
    out
}

fn mean_score(windows: &[OnlineDetection]) -> f64 {
    ScoreDist::from_samples(&windows.iter().map(|d| d.score).collect::<Vec<_>>())
        .summary()
        .mean
}

/// The ordered pairs touching sensor 0 among the snapshot's valid pairs —
/// the ground-truth stale set for [`plant`]'s regime shift.
fn pairs_touching_sensor0(snapshot: &GraphSnapshot) -> BTreeSet<(usize, usize)> {
    snapshot
        .valid_models()
        .iter()
        .map(|&k| {
            let m = &snapshot.models()[k];
            (m.src, m.dst)
        })
        .filter(|&(i, j)| i == 0 || j == 0)
        .collect()
}

#[test]
fn regime_shift_drift_refit_canary_restores_quality() {
    let plant = plant();
    let mdes = fit_incumbent(&plant);
    let snapshot = GraphSnapshot::freeze(&mdes);
    let watched = snapshot.valid_models().len();
    assert!(watched >= 40, "dense valid graph expected, got {watched}");

    let engine = ServingEngine::new(snapshot.clone());
    let mut session = engine.open_session(12).expect("session");
    let mut monitor = DriftMonitor::new(&snapshot, DriftPolicy::default());

    // Healthy serving up to the shift: no drift flagged.
    let pre_shift = stream(
        &engine,
        &mut session,
        &plant,
        1400..SHIFT_AT,
        Some(&mut monitor),
    );
    assert!(
        pre_shift.len() >= 32,
        "got {} pre-shift windows",
        pre_shift.len()
    );
    assert!(
        !monitor.is_drifting(),
        "healthy stream flagged stale pairs: {:?}",
        monitor.scan().stale
    );

    // The shift degrades detection; once the recent ring is fully
    // post-shift, exactly the sensor-0 pairs trip the policy.
    let drifting = stream(
        &engine,
        &mut session,
        &plant,
        SHIFT_AT..2000,
        Some(&mut monitor),
    );
    assert!(
        mean_score(&drifting) > mean_score(&pre_shift) + 0.05,
        "shift must degrade detection: drift {:.4} vs pre {:.4}",
        mean_score(&drifting),
        mean_score(&pre_shift)
    );
    let report = monitor.scan();
    let stale = report.stale_pairs();
    let flagged: BTreeSet<(usize, usize)> = stale.iter().copied().collect();
    assert_eq!(
        flagged,
        pairs_touching_sensor0(&snapshot),
        "only genuinely shifted pairs may be flagged"
    );
    assert!(
        (stale.len() as f64) < 0.2 * (report.pairs_watched as f64),
        "partial refit must cover < 20% of pairs: {} of {}",
        stale.len(),
        report.pairs_watched
    );

    // Partial refit on post-shift data, reusing the incumbent's language
    // pipeline, then splice the refrozen pairs into the live artifact.
    let refit_cfg = ShardedSweepConfig::default();
    let (refit, _) = build_graph_sharded(
        mdes.language(),
        &plant.traces,
        REFIT_TRAIN,
        REFIT_DEV,
        &stale,
        &refit_cfg,
    )
    .expect("refit");
    assert_eq!(refit.models().len(), stale.len());
    assert!(refit.quarantined().is_empty());
    let candidate = snapshot.graft(refit.models().to_vec()).expect("graft");
    assert_eq!(
        candidate.valid_models().len(),
        snapshot.valid_models().len(),
        "refit pairs must land back inside the validity band"
    );

    // A deliberately bad candidate first: a swath of still-healthy pairs
    // (not touching sensor 0) keep their pinned scores but carry the
    // reverse direction's translator, so the candidate breaks traffic the
    // incumbent scores cleanly. The canary must roll it back, and the
    // emitted stream must stay bit-identical to a canary-free control
    // engine the whole time.
    let healthy: Vec<(usize, usize)> = snapshot
        .valid_models()
        .iter()
        .map(|&k| (snapshot.models()[k].src, snapshot.models()[k].dst))
        .filter(|&(i, j)| i != 0 && j != 0)
        .take(20)
        .collect();
    let bad_models: Vec<FrozenPairModel> = healthy
        .iter()
        .map(|&(src, dst)| {
            let fwd = snapshot
                .models()
                .iter()
                .find(|m| m.src == src && m.dst == dst)
                .expect("healthy model");
            let rev = snapshot
                .models()
                .iter()
                .find(|m| m.src == dst && m.dst == src)
                .expect("reverse model");
            FrozenPairModel::new(
                src,
                dst,
                fwd.train_score,
                fwd.dev_floor,
                rev.translator().clone(),
            )
        })
        .collect();
    let bad_candidate = snapshot.graft(bad_models).expect("graft bad");
    let control_engine = ServingEngine::new(snapshot.clone());
    let mut control_session = control_engine.open_session(12).expect("control session");
    // Align the control with the live session's buffered state.
    let control_catchup = stream(
        &control_engine,
        &mut control_session,
        &plant,
        1400..2000,
        None,
    );
    assert_eq!(control_catchup.len(), pre_shift.len() + drifting.len());
    let canary_cfg = CanaryConfig {
        fraction: 1.0,
        sample_budget: 12,
        // Tight mean gate: a candidate may only be promoted when it is at
        // least no worse than the (currently drifting) incumbent.
        max_mean_delta: 0.02,
        max_p95_delta: 0.3,
    };
    engine
        .store()
        .start_canary(bad_candidate, canary_cfg)
        .expect("bad canary");
    let under_bad = stream(&engine, &mut session, &plant, 2000..2160, None);
    let control = stream(
        &control_engine,
        &mut control_session,
        &plant,
        2000..2160,
        None,
    );
    assert_eq!(under_bad.len(), control.len());
    for (got, want) in under_bad.iter().zip(&control) {
        assert_eq!(got.score.to_bits(), want.score.to_bits(), "shadow leak");
        assert_eq!(got.alerts, want.alerts);
    }
    let status = engine.store().canary_status();
    assert!(!status.active, "budget of 12 must have resolved");
    assert!(
        matches!(
            status.last_decision,
            Some(CanaryDecision::RolledBack { .. })
        ),
        "bad candidate must roll back, got {:?}",
        status.last_decision
    );
    assert_eq!(engine.store().version(), 1);

    // Now the real refit: promoted, version bumps, and detection returns
    // to the pre-shift band even though the plant never shifted back.
    engine
        .store()
        .start_canary(candidate, canary_cfg)
        .expect("good canary");
    let mut post = stream(&engine, &mut session, &plant, 2160..2880, None);
    let status = engine.store().canary_status();
    match status.last_decision {
        Some(CanaryDecision::Promoted {
            version,
            mean_delta,
            ..
        }) => {
            assert_eq!(version, 2);
            assert!(
                mean_delta < -0.05,
                "refit candidate should score well below the drifting incumbent, delta {mean_delta}"
            );
        }
        other => panic!("expected promotion, got {other:?}"),
    }
    assert_eq!(engine.store().version(), 2);
    // Judge quality on windows emitted after the swap took effect.
    let recovered: Vec<OnlineDetection> = post.split_off(post.len() / 2);
    assert!(
        mean_score(&recovered) < mean_score(&pre_shift) + 0.02,
        "promotion must restore the pre-shift band: post {:.4} vs pre {:.4}",
        mean_score(&recovered),
        mean_score(&pre_shift)
    );
}

/// A fresh checkpoint directory under the OS temp dir.
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdes_lifecycle_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn killed_refit_worker_resumes_from_mdck_checkpoints() {
    let plant = plant();
    let mdes = fit_incumbent(&plant);
    let snapshot = GraphSnapshot::freeze(&mdes);
    let stale: Vec<(usize, usize)> = pairs_touching_sensor0(&snapshot).into_iter().collect();
    assert!(stale.len() >= 12, "need a multi-shard stale set");

    let dir = ckpt_dir("refit");
    let mut cfg = ShardedSweepConfig {
        build: GraphBuildConfig {
            threads: 1,
            ..GraphBuildConfig::default()
        },
        pairs_per_shard: 4,
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        checkpoint_every: 1,
    };
    let baseline_cfg = ShardedSweepConfig {
        checkpoint_dir: None,
        ..cfg.clone()
    };
    let (baseline, _) = build_graph_sharded(
        mdes.language(),
        &plant.traces,
        REFIT_TRAIN,
        REFIT_DEV,
        &stale,
        &baseline_cfg,
    )
    .expect("uninterrupted refit");

    // Kill the refit worker pool mid-sweep, after at least one shard
    // checkpointed, then resume without the fault.
    cfg.build.chaos_lose_worker_pairs = vec![stale[9]];
    let err = build_graph_sharded(
        mdes.language(),
        &plant.traces,
        REFIT_TRAIN,
        REFIT_DEV,
        &stale,
        &cfg,
    )
    .expect_err("lost worker must abort the refit");
    assert!(matches!(err, CoreError::WorkerLost { .. }), "got {err:?}");

    cfg.build.chaos_lose_worker_pairs.clear();
    let (resumed, report) = build_graph_sharded(
        mdes.language(),
        &plant.traces,
        REFIT_TRAIN,
        REFIT_DEV,
        &stale,
        &cfg,
    )
    .expect("resumed refit");
    assert!(
        report.resumed >= 4 && report.resumed < stale.len(),
        "completed shards must replay from MDCK, resumed {}",
        report.resumed
    );
    assert_eq!(
        serde_json::to_string(baseline.models()).expect("baseline json"),
        serde_json::to_string(resumed.models()).expect("resumed json"),
        "resumed refit must be byte-identical to the uninterrupted one"
    );

    // The resumed models graft cleanly into the live artifact.
    let candidate = snapshot.graft(resumed.models().to_vec()).expect("graft");
    assert_eq!(
        candidate.valid_models().len(),
        snapshot.valid_models().len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
