//! Experiment — continuous-learning loop cost and recovery quality.
//!
//! DESIGN.md §15's lifecycle claims the control plane is cheap relative to
//! the serving path it protects: drift monitoring rides the existing
//! per-window detections, a partial refit touches only the stale pair
//! subset, and the canaried hot-swap never blocks (or alters) incumbent
//! serving. This experiment replays the `tests/lifecycle.rs` regime-shift
//! scenario — one shared period-24 driver, sensor 0 re-piped half a period
//! out of phase mid-stream — and times each leg of the loop:
//!
//! 1. `drift/push_steady`: per-push serving latency with the
//!    [`DriftMonitor`] attached and no canary active;
//! 2. `drift/push_canary`: the same pushes while a full-fraction canary
//!    shadow-scores every window against a second snapshot;
//! 3. `drift/scan`: one [`DriftMonitor::scan`] sweep over the watched pairs;
//! 4. `drift/refit`: the partial refit of the flagged stale pairs
//!    (grid-aligned post-shift ranges, same sweep machinery as Algorithm 1);
//! 5. `drift/graft`: splicing the refrozen pairs into the frozen artifact,
//!    ScoreRange revalidation included.
//!
//! The run *asserts* the loop's correctness contract while it measures: the
//! scan flags exactly the sensor-0 pairs, a deliberately broken candidate
//! auto-rolls-back, and the real refit is promoted and restores the
//! pre-shift score band. Results land in `results/BENCH_drift.json` in the
//! shared `{name, mean_ns, p50_ns, p95_ns, bytes}` schema. Pass `--smoke`
//! for the reduced CI variant (fewer sensors, same physics).

use mdes_bench::report::{arg_flag, print_table, write_json, BenchRecord};
use mdes_core::serve::{GraphSnapshot, ServingEngine, StreamSession};
use mdes_core::{
    build_graph_sharded, CanaryConfig, CanaryDecision, DriftMonitor, DriftPolicy, FrozenPairModel,
    Mdes, MdesConfig, OnlineDetection, ScoreDist, ShardedSweepConfig,
};
use mdes_graph::ScoreRange;
use mdes_lang::WindowConfig;
use mdes_synth::plant::{generate, PlantConfig, PlantData, RegimeShift};
use std::collections::BTreeSet;
use std::time::Instant;

/// When sensor 0 is re-piped; everything before this is the healthy regime.
const SHIFT_AT: usize = 1700;
/// Post-shift refit ranges, start-aligned to the original fit's residues
/// modulo the period-24 driver (train ≡ 0, dev ≡ 16) — see
/// `tests/lifecycle.rs` for why a misaligned sentence grid mis-scores an
/// otherwise good translator.
const REFIT_TRAIN: std::ops::Range<usize> = 1704..2200;
const REFIT_DEV: std::ops::Range<usize> = 2200..2504;

fn plant(n_sensors: usize) -> PlantData {
    generate(&PlantConfig {
        n_sensors,
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

/// Pushes samples `range`, timing every push (ns) and collecting completed
/// windows; each window also feeds `monitor` when given.
fn timed_stream(
    engine: &ServingEngine,
    session: &mut StreamSession,
    plant: &PlantData,
    range: std::ops::Range<usize>,
    mut monitor: Option<&mut DriftMonitor>,
) -> (Vec<f64>, Vec<OnlineDetection>) {
    let mut ns = Vec::with_capacity(range.len());
    let mut windows = Vec::new();
    for t in range {
        let sample: Vec<Option<String>> = plant
            .traces
            .iter()
            .map(|tr| Some(tr.events[t].clone()))
            .collect();
        let started = Instant::now();
        let out = engine.push_opt(session, &sample).expect("push");
        ns.push(started.elapsed().as_nanos() as f64);
        if let Some(d) = out {
            if let Some(m) = monitor.as_deref_mut() {
                m.observe(&d);
            }
            windows.push(d);
        }
    }
    (ns, windows)
}

fn mean_score(windows: &[OnlineDetection]) -> f64 {
    ScoreDist::from_samples(&windows.iter().map(|d| d.score).collect::<Vec<_>>())
        .summary()
        .mean
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = arg_flag(&args, "smoke");
    let n_sensors = if smoke { 6 } else { 12 };
    let scan_iters = if smoke { 20 } else { 100 };
    let graft_iters = if smoke { 5 } else { 20 };

    let plant = plant(n_sensors);
    let fit_started = Instant::now();
    let mdes = Mdes::fit(&plant.traces, 0..1000, 1000..1400, config()).expect("fit incumbent");
    let snapshot = GraphSnapshot::freeze(&mdes);
    eprintln!(
        "incumbent: {} pair models ({} valid) over {n_sensors} sensors, fitted in {:.1}s",
        snapshot.models().len(),
        snapshot.valid_models().len(),
        fit_started.elapsed().as_secs_f64()
    );

    let engine = ServingEngine::new(snapshot.clone());
    let mut session = engine.open_session(n_sensors).expect("session");
    let mut monitor = DriftMonitor::new(&snapshot, DriftPolicy::default());

    // 1. Steady serving up to the shift: monitored, no canary.
    let (steady_ns, pre_shift) = timed_stream(
        &engine,
        &mut session,
        &plant,
        1400..SHIFT_AT,
        Some(&mut monitor),
    );
    assert!(!monitor.is_drifting(), "healthy stream must not flag drift");
    // Let the shift fill the monitor's recent ring (untimed).
    let (_, drifting) = timed_stream(
        &engine,
        &mut session,
        &plant,
        SHIFT_AT..2000,
        Some(&mut monitor),
    );

    // 2. The drift scan flags exactly the sensor-0 pairs.
    let report = monitor.scan();
    let stale = report.stale_pairs();
    let want: BTreeSet<(usize, usize)> = snapshot
        .valid_models()
        .iter()
        .map(|&k| (snapshot.models()[k].src, snapshot.models()[k].dst))
        .filter(|&(i, j)| i == 0 || j == 0)
        .collect();
    assert_eq!(
        stale.iter().copied().collect::<BTreeSet<_>>(),
        want,
        "scan must flag exactly the genuinely shifted pairs"
    );
    let scan_ns: Vec<f64> = (0..scan_iters)
        .map(|_| {
            let s = Instant::now();
            let r = monitor.scan();
            assert_eq!(r.stale.len(), stale.len());
            s.elapsed().as_nanos() as f64
        })
        .collect();

    // 3. Partial refit of the stale subset on post-shift data.
    let refit_started = Instant::now();
    let (refit, _) = build_graph_sharded(
        mdes.language(),
        &plant.traces,
        REFIT_TRAIN,
        REFIT_DEV,
        &stale,
        &ShardedSweepConfig::default(),
    )
    .expect("refit");
    let refit_ns = refit_started.elapsed().as_nanos() as f64;
    assert_eq!(refit.models().len(), stale.len());
    assert!(refit.quarantined().is_empty());
    eprintln!(
        "refit {} of {} pairs in {:.2}s",
        stale.len(),
        report.pairs_watched,
        refit_ns / 1e9
    );

    // 4. Graft the refrozen pairs into the frozen artifact.
    let graft_ns: Vec<f64> = (0..graft_iters)
        .map(|_| {
            let s = Instant::now();
            let c = snapshot.graft(refit.models().to_vec()).expect("graft");
            assert_eq!(c.valid_models().len(), snapshot.valid_models().len());
            s.elapsed().as_nanos() as f64
        })
        .collect();
    let candidate = snapshot.graft(refit.models().to_vec()).expect("graft");
    let candidate_bytes = candidate.approx_bytes() as u64;

    // 5. Serving cost while a full-fraction canary shadow-scores every
    //    window (budget high enough that it stays active throughout).
    engine
        .store()
        .start_canary(
            candidate.clone(),
            CanaryConfig {
                fraction: 1.0,
                sample_budget: 1_000_000,
                ..CanaryConfig::default()
            },
        )
        .expect("measurement canary");
    let (canary_ns, _) = timed_stream(&engine, &mut session, &plant, 2000..2240, None);
    assert!(
        engine.store().canary_status().active,
        "budget must not resolve yet"
    );
    assert!(engine.store().cancel_canary());

    // 6. Decision e2e: a broken candidate rolls back, the refit promotes.
    let gate = CanaryConfig {
        fraction: 1.0,
        sample_budget: 12,
        max_mean_delta: 0.02,
        max_p95_delta: 0.3,
    };
    let sabotage = if smoke { 8 } else { 20 };
    let bad_models: Vec<FrozenPairModel> = snapshot
        .valid_models()
        .iter()
        .map(|&k| (snapshot.models()[k].src, snapshot.models()[k].dst))
        .filter(|&(i, j)| i != 0 && j != 0)
        .take(sabotage)
        .map(|(src, dst)| {
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
    let bad = snapshot.graft(bad_models).expect("graft bad");
    engine.store().start_canary(bad, gate).expect("bad canary");
    let _ = timed_stream(&engine, &mut session, &plant, 2240..2400, None);
    assert!(
        matches!(
            engine.store().canary_status().last_decision,
            Some(CanaryDecision::RolledBack { .. })
        ),
        "broken candidate must roll back"
    );
    assert_eq!(engine.store().version(), 1);

    engine
        .store()
        .start_canary(candidate, gate)
        .expect("good canary");
    let (_, mut post) = timed_stream(&engine, &mut session, &plant, 2400..2880, None);
    match engine.store().canary_status().last_decision {
        Some(CanaryDecision::Promoted { version, .. }) => assert_eq!(version, 2),
        other => panic!("expected promotion, got {other:?}"),
    }
    let recovered: Vec<OnlineDetection> = post.split_off(post.len() / 2);
    assert!(
        mean_score(&recovered) < mean_score(&pre_shift) + 0.02,
        "promotion must restore the pre-shift band: post {:.4} vs pre {:.4} (drift {:.4})",
        mean_score(&recovered),
        mean_score(&pre_shift),
        mean_score(&drifting)
    );
    eprintln!(
        "scores: pre-shift {:.4}, drifting {:.4}, recovered {:.4}",
        mean_score(&pre_shift),
        mean_score(&drifting),
        mean_score(&recovered)
    );

    let records = vec![
        BenchRecord::from_samples("drift/push_steady", &steady_ns, None),
        BenchRecord::from_samples("drift/push_canary", &canary_ns, None),
        BenchRecord::from_samples("drift/scan", &scan_ns, None),
        BenchRecord::from_samples("drift/refit", &[refit_ns], None),
        BenchRecord::from_samples("drift/graft", &graft_ns, Some(candidate_bytes)),
    ];
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.0}", r.mean_ns),
                format!("{:.0}", r.p50_ns),
                format!("{:.0}", r.p95_ns),
                r.bytes.map(|b| b.to_string()).unwrap_or_default(),
            ]
        })
        .collect();
    print_table(&["record", "mean ns", "p50 ns", "p95 ns", "bytes"], &rows);
    let path = write_json("BENCH_drift.json", &records);
    println!("wrote {}", path.display());
}
