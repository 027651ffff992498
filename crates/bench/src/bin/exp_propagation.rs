//! Extension experiment — fault propagation over time (paper §III-C:
//! "describe similar figures for each anomaly at finer granularities ... to
//! visually present how faults propagate through sensors over time").
//!
//! Runs detection over an anomalous day window-by-window and prints the
//! spread front: which sensors join the fault at each detection window.

use mdes_bench::plant_study::{scale_from_args, translator_from_args, PlantStudy};
use mdes_bench::report::write_csv;
use mdes_core::propagation_timeline;
use mdes_graph::ScoreRange;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let study = PlantStudy::run(&scale_from_args(&args), translator_from_args(&args));
    let (result, days) = study
        .detect_test_period(ScoreRange::best_detection())
        .expect("detect over test period");

    let day = *study
        .plant
        .config
        .anomaly_days
        .first()
        .expect("an anomaly day");
    // Timeline over the precursor day before the anomaly plus the anomaly
    // day itself: the fault should spread across windows.
    let windows: Vec<usize> = (0..result.scores.len())
        .filter(|&t| days[t] == day || days[t] + 1 == day)
        .collect();
    let scores: Vec<f64> = windows.iter().map(|&t| result.scores[t]).collect();
    let alerts: Vec<Vec<(usize, usize)>> =
        windows.iter().map(|&t| result.alerts[t].clone()).collect();
    let steps = propagation_timeline(&scores, &alerts);

    println!("Fault propagation into day {day} (window = one sentence):\n");
    println!("window | day | a_t  | affected | newly affected sensors");
    let mut rows = Vec::new();
    for step in &steps {
        let t = windows[step.window];
        let newly: Vec<&str> = step
            .newly_affected
            .iter()
            .map(|&s| study.mdes.graph().name(s))
            .collect();
        println!(
            "{:6} | {:3} | {:.2} | {:8} | {:?}",
            step.window,
            days[t],
            step.score,
            step.affected.len(),
            newly
        );
        rows.push(vec![
            step.window.to_string(),
            days[t].to_string(),
            format!("{:.4}", step.score),
            step.affected.len().to_string(),
            step.newly_affected.len().to_string(),
        ]);
    }

    let cumulative: usize = steps.iter().map(|s| s.newly_affected.len()).sum();
    println!(
        "\n{cumulative} sensors eventually touched by broken relationships \
         (of {} active)",
        study.mdes.graph().len()
    );
    let path = write_csv(
        "propagation_timeline.csv",
        &["window", "day", "a_t", "affected", "newly_affected"],
        &rows,
    );
    println!("wrote {}", path.display());
}
