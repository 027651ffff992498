//! Experiment E13 — Table III: the top-5 most important SMART features
//! reported by the global subgraph at BLEU [80, 90), with their in/out
//! degrees.
//!
//! Paper result: 192 (power-off retract), 187 (reported uncorrectable),
//! 198 (offline uncorrectable), 197 (pending sectors), 5 (reallocated
//! sectors) — all error counters whose non-zero values signal failing I/O.
//! The simulator's ground-truth failure signals are exactly the error
//! features, so the check here is whether the graph ranking recovers them.

use mdes_bench::hdd_study::{default_fleet, HddStudy};
use mdes_bench::plant_study::translator_from_args;
use mdes_bench::report::{print_table, write_csv};
use mdes_graph::ScoreRange;
use mdes_synth::hdd::{ERROR_FEATURES, FEATURE_NAMES};
use std::collections::HashSet;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let study = HddStudy::run(&default_fleet(), translator_from_args(&args));
    let sub = study.mdes.graph().subgraph(&ScoreRange::best_detection());

    let mut by_in: Vec<(usize, usize)> = sub
        .active_nodes()
        .iter()
        .map(|&n| (n, sub.in_degree(n)))
        .collect();
    by_in.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    println!("Table III — top-5 features by in-degree at [80, 90)\n");
    let truth: HashSet<&str> = ERROR_FEATURES.iter().map(|&f| FEATURE_NAMES[f]).collect();
    let rows: Vec<Vec<String>> = by_in
        .iter()
        .take(5)
        .map(|&(n, d)| {
            let name = sub.name(n);
            vec![
                name.to_owned(),
                d.to_string(),
                sub.out_degree(n).to_string(),
                if truth.contains(name) {
                    "yes".into()
                } else {
                    "no".into()
                },
            ]
        })
        .collect();
    print_table(
        &[
            "feature",
            "in-degree",
            "out-degree",
            "ground-truth failure signal?",
        ],
        &rows,
    );

    let recovered = rows.iter().filter(|r| r[3] == "yes").count();
    println!(
        "\n{recovered}/5 of the top-5 are ground-truth failure signals \
         (paper: all 5 are error counters: SMART 192, 187, 198, 197, 5)"
    );
    let path = write_csv(
        "table3_top_features.csv",
        &["feature", "in_degree", "out_degree", "is_failure_signal"],
        &rows,
    );
    println!("wrote {}", path.display());
}
