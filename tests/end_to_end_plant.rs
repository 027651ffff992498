//! End-to-end integration test of case study I: synthetic plant -> language
//! pipeline -> pairwise translation graph -> anomaly detection -> diagnosis.

use mdes::core::{Mdes, MdesConfig};
use mdes::graph::ScoreRange;
use mdes::lang::WindowConfig;
use mdes::synth::plant::{generate, PlantConfig};

fn plant() -> mdes::synth::plant::PlantData {
    generate(&PlantConfig {
        n_sensors: 12,
        days: 12,
        minutes_per_day: 288,
        n_components: 3,
        anomaly_days: vec![11],
        precursor_days: vec![10],
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

#[test]
fn full_pipeline_detects_injected_anomaly() {
    let plant = plant();
    let mdes = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 4),
        plant.days_range(5, 6),
        config(),
    )
    .expect("fit");

    // Dense directed graph over surviving sensors.
    let n = mdes.language().sensor_count();
    assert!(n >= 2);
    assert_eq!(mdes.graph().edge_count(), n * (n - 1));
    assert!(mdes
        .graph()
        .edges()
        .all(|(_, _, w)| (0.0..=100.0).contains(&w)));

    // The injected anomaly (day 11) scores above a quiet day (day 8).
    let normal = mdes
        .snapshot()
        .detect_range(&plant.traces, plant.day_range(8))
        .expect("normal");
    let anomalous = mdes
        .snapshot()
        .detect_range(&plant.traces, plant.day_range(11))
        .expect("anomalous");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&anomalous.scores) > mean(&normal.scores) + 0.1,
        "anomaly {:.3} vs normal {:.3}",
        mean(&anomalous.scores),
        mean(&normal.scores)
    );

    // Diagnosis of the worst window produces a consistent sensor ranking.
    let worst = (0..anomalous.scores.len())
        .max_by(|&a, &b| anomalous.scores[a].total_cmp(&anomalous.scores[b]))
        .expect("non-empty");
    let diag = mdes.snapshot().diagnose_alerts(&anomalous.alerts[worst]);
    let alerted: std::collections::HashSet<usize> = anomalous.alerts[worst]
        .iter()
        .flat_map(|&(s, d)| [s, d])
        .collect();
    assert_eq!(diag.sensor_ranking.len(), alerted.len());
    for window in &diag.faulty_clusters {
        assert!(window.len() >= 2, "clusters need at least one edge");
    }
}

#[test]
fn detection_scores_are_valid_probabilities() {
    let plant = plant();
    let mdes = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 4),
        plant.days_range(5, 6),
        config(),
    )
    .expect("fit");
    let result = mdes
        .snapshot()
        .detect_range(&plant.traces, plant.days_range(7, 12))
        .expect("detect");
    assert!(!result.scores.is_empty());
    assert!(result.scores.iter().all(|s| (0.0..=1.0).contains(s)));
    assert_eq!(result.scores.len(), result.alerts.len());
    assert_eq!(result.scores.len(), result.starts.len());
    for (t, alerts) in result.alerts.iter().enumerate() {
        let expected = alerts.len() as f64 / result.valid_models as f64;
        assert!((result.scores[t] - expected).abs() < 1e-12);
    }
}

#[test]
fn refitting_is_deterministic() {
    let plant = plant();
    let a = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 4),
        plant.days_range(5, 6),
        config(),
    )
    .expect("fit a");
    let b = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 4),
        plant.days_range(5, 6),
        config(),
    )
    .expect("fit b");
    assert_eq!(a.graph(), b.graph());
    let ra = a
        .snapshot()
        .detect_range(&plant.traces, plant.day_range(9))
        .expect("detect a");
    let rb = b
        .snapshot()
        .detect_range(&plant.traces, plant.day_range(9))
        .expect("detect b");
    assert_eq!(ra, rb);
}

#[test]
fn global_and_local_subgraphs_partition_consistently() {
    let plant = plant();
    let mdes = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 4),
        plant.days_range(5, 6),
        config(),
    )
    .expect("fit");
    let total: usize = ScoreRange::paper_buckets()
        .iter()
        .map(|r| mdes.snapshot().global_subgraph(r).edge_count())
        .sum();
    assert_eq!(
        total,
        mdes.graph().edge_count(),
        "buckets must partition all edges"
    );
    for r in ScoreRange::paper_buckets() {
        let global = mdes.snapshot().global_subgraph(&r);
        let local = mdes.snapshot().local_subgraph(&r, Some(3));
        assert!(local.edge_count() <= global.edge_count());
    }
}
