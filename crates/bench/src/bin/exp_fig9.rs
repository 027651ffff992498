//! Experiment E9 — Fig. 9: fault diagnosis on the two anomalous days using
//! the local subgraph at BLEU [80, 90).
//!
//! For each anomalous day the worst detection window's broken relationships
//! are projected onto the local subgraph; the resulting clusters of red
//! edges are the paper's "green circles" locating faulty sensors. Day 28 in
//! the paper is the severe anomaly where almost all relationships break.

use mdes_bench::plant_study::{scale_from_args, translator_from_args, PlantStudy};
use mdes_bench::report::results_dir;
use mdes_core::diagnose;
use mdes_graph::{to_dot, DotOptions, ScoreRange};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let study = PlantStudy::run(&scale_from_args(&args), translator_from_args(&args));
    let range = ScoreRange::best_detection();
    let (result, days) = study.detect_test_period(range).expect("detect");

    let thr = study.popular_threshold();
    let global = study.mdes.graph().subgraph(&range);
    let local = global.without_nodes(&global.popular(thr));

    for &day in &study.plant.config.anomaly_days.clone() {
        // Worst window of the day.
        let worst = (0..result.scores.len())
            .filter(|&t| days[t] == day)
            .max_by(|&a, &b| result.scores[a].total_cmp(&result.scores[b]));
        let Some(worst) = worst else {
            println!("day {day}: no test windows");
            continue;
        };
        let alerts = &result.alerts[worst];
        let diag = diagnose(&local, alerts);
        println!(
            "=== Fig. 9 — day {day} (worst window a_t = {:.2}) ===",
            result.scores[worst]
        );
        println!(
            "  {} broken relationships, {:.0}% of the local subgraph broken{}",
            alerts.len(),
            100.0 * diag.broken_fraction,
            if diag.is_severe(0.8) {
                " — SEVERE (paper: day 28 pattern)"
            } else {
                ""
            }
        );
        for (i, cluster) in diag.faulty_clusters.iter().enumerate() {
            let names: Vec<&str> = cluster.iter().map(|&s| local.name(s)).collect();
            let comps: Vec<usize> = cluster
                .iter()
                .map(|&s| {
                    study.plant.sensors[study.mdes.language().languages()[s].source_index].component
                })
                .collect();
            println!("  faulty cluster {i}: {names:?} (ground-truth components {comps:?})");
        }
        println!(
            "  top suspect sensors: {:?}",
            diag.sensor_ranking
                .iter()
                .take(5)
                .map(|&(s, c)| format!("{}x{}", local.name(s), c))
                .collect::<Vec<_>>()
        );
        let dot = to_dot(
            &local,
            &DotOptions {
                title: format!("fault diagnosis day {day}"),
                broken_edges: alerts.iter().copied().collect(),
                ..DotOptions::default()
            },
        );
        let path = results_dir().join(format!("fig9_diagnosis_day{day}.dot"));
        std::fs::write(&path, dot).expect("write dot");
        println!("  wrote {}\n", path.display());
    }
}
