//! Case study I (reduced scale): monitor a synthetic physical plant.
//!
//! Mirrors §III of the paper: fit on normal days, build the relationship
//! graph, then compute the per-window anomaly score across the test days —
//! the injected anomalies (and their precursors) should spike.
//!
//! Run with: `cargo run --release --example plant_monitoring`

use mdes::core::{Mdes, MdesConfig};
use mdes::graph::ScoreRange;
use mdes::lang::WindowConfig;
use mdes::synth::plant::{generate, PlantConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A reduced plant: 16 sensors, 14 days at 288 samples/day (5-minute
    // sampling), anomalies on days 12 and 14, precursor on day 11.
    let plant = generate(&PlantConfig {
        n_sensors: 16,
        days: 14,
        minutes_per_day: 288,
        n_components: 4,
        anomaly_days: vec![12, 14],
        precursor_days: vec![11],
        ..PlantConfig::default()
    });
    println!(
        "plant: {} sensors, {} days, mean cardinality {:.2}",
        plant.traces.len(),
        plant.config.days,
        plant.mean_cardinality()
    );

    let mut cfg = MdesConfig {
        window: WindowConfig {
            word_len: 6,
            word_stride: 1,
            sent_len: 8,
            sent_stride: 8,
        },
        ..MdesConfig::default()
    };
    cfg.detection.valid_range = ScoreRange::closed(40.0, 95.0);

    // Days 1-4 train, 5-6 development, 7-14 test (paper: 10 / 3 / 17).
    let mdes = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 4),
        plant.days_range(5, 6),
        cfg,
    )?;
    println!(
        "graph: {} sensors survived filtering, {} directed relationships",
        mdes.graph().len(),
        mdes.graph().edge_count()
    );

    // Per-day mean anomaly score across the test period.
    println!("\nday | mean a_t | max a_t | verdict");
    for day in 7..=plant.config.days {
        let result = mdes
            .snapshot()
            .detect_range(&plant.traces, plant.day_range(day))?;
        let mean: f64 = result.scores.iter().sum::<f64>() / result.scores.len() as f64;
        let max = result.max_score();
        let truth = if plant.config.is_anomalous_day(day) {
            "ANOMALY (injected)"
        } else if plant.config.is_precursor_day(day) {
            "precursor"
        } else {
            "normal"
        };
        println!("{day:3} | {mean:8.3} | {max:7.3} | {truth}");
    }

    // Diagnose the worst window of the first anomalous day.
    let result = mdes
        .snapshot()
        .detect_range(&plant.traces, plant.day_range(12))?;
    let worst = (0..result.scores.len())
        .max_by(|&a, &b| result.scores[a].total_cmp(&result.scores[b]))
        .expect("non-empty");
    let diag = mdes.snapshot().diagnose_alerts(&result.alerts[worst]);
    println!(
        "\nfault diagnosis of day 12, worst window: {} broken pairs, {} faulty cluster(s)",
        result.alerts[worst].len(),
        diag.faulty_clusters.len()
    );
    for (i, cluster) in diag.faulty_clusters.iter().enumerate() {
        let names: Vec<&str> = cluster.iter().map(|&s| mdes.graph().name(s)).collect();
        println!("  cluster {i}: {names:?}");
    }
    Ok(())
}
