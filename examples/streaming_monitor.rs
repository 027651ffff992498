//! Production-style streaming monitor: train once, persist the model, then
//! restore it in a "monitoring service" that scores each incoming window and
//! raises calibrated alerts with diagnosis.
//!
//! Demonstrates model persistence (an MDSN snapshot file), the calibrated
//! dev-quantile-floor threshold rule, and the fault-propagation timeline.
//!
//! Run with: `cargo run --release --example streaming_monitor`

use mdes::core::{
    propagation_timeline, read_snapshot, write_snapshot, BrokenRule, Mdes, MdesConfig,
};
use mdes::graph::ScoreRange;
use mdes::lang::WindowConfig;
use mdes::synth::plant::{generate, PlantConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plant = generate(&PlantConfig {
        n_sensors: 14,
        days: 14,
        minutes_per_day: 288,
        n_components: 4,
        anomaly_days: vec![13],
        precursor_days: vec![12],
        ..PlantConfig::default()
    });

    // --- Offline: fit and persist. ---
    let mut cfg = MdesConfig {
        window: WindowConfig {
            word_len: 6,
            word_stride: 1,
            sent_len: 8,
            sent_stride: 8,
        },
        ..MdesConfig::default()
    };
    cfg.detection.valid_range = ScoreRange::closed(60.0, 100.0);
    cfg.build.floor_quantile = 0.25;
    // Calibrated threshold: fewer false alarms than the paper's rule.
    cfg.detection.rule = BrokenRule::DevQuantileFloor;
    let trained = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 5),
        plant.days_range(6, 7),
        cfg,
    )?;
    let model_path = std::env::temp_dir().join("mdes_streaming_model.mdsn");
    write_snapshot(&model_path, trained.snapshot())?;
    println!(
        "trained on days 1-7, persisted {} sensors / {} models to {}",
        trained.graph().len(),
        trained.snapshot().models().len(),
        model_path.display()
    );
    drop(trained);

    // --- Online: restore and monitor day by day. ---
    let monitor = read_snapshot(&model_path)?;
    println!("\nmonitoring days 8-14 (calibrated floor rule):");
    let mut alert_scores: Vec<f64> = Vec::new();
    let mut alert_sets: Vec<Vec<(usize, usize)>> = Vec::new();
    for day in 8..=14 {
        let result = monitor.detect_range(&plant.traces, plant.day_range(day))?;
        let mean: f64 = result.scores.iter().sum::<f64>() / result.scores.len() as f64;
        let peak = result.max_score();
        let status = if peak >= 0.4 {
            "ALERT"
        } else if peak >= 0.2 {
            "watch"
        } else {
            "ok"
        };
        println!("  day {day:2}: mean a_t {mean:.2}, peak {peak:.2} -> {status}");
        alert_scores.extend(result.scores.iter().copied());
        alert_sets.extend(result.alerts.iter().cloned());
    }

    // --- Incident review: propagation + diagnosis of the alert. ---
    let timeline = propagation_timeline(&alert_scores, &alert_sets);
    if let Some(first_alert) = timeline.iter().find(|s| s.score >= 0.4) {
        println!(
            "\nfirst alert at monitoring window {} (a_t = {:.2});",
            first_alert.window, first_alert.score
        );
        let diag = monitor.diagnose_alerts(&alert_sets[first_alert.window]);
        println!(
            "diagnosis: {} broken pairs across {} cluster(s); top suspects:",
            alert_sets[first_alert.window].len(),
            diag.faulty_clusters.len()
        );
        for (sensor, count) in diag.sensor_ranking.iter().take(5) {
            println!(
                "  {} ({count} broken relationships)",
                monitor.graph().name(*sensor)
            );
        }
        let spread: usize = timeline
            .iter()
            .skip(first_alert.window)
            .take(6)
            .map(|s| s.newly_affected.len())
            .sum();
        println!("fault spread: {spread} sensors newly affected within 6 windows of the alert");
    } else {
        println!("\nno alert raised (peak scores stayed below 0.4)");
    }
    std::fs::remove_file(&model_path).ok();
    Ok(())
}
