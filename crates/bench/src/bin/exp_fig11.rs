//! Experiment E12 — Fig. 11: feature-importance analysis on the HDD fleet.
//!
//! (a) The global subgraph at BLEU [80, 90): features with the highest
//! in-degree are the critical disk-health indicators. (b) The Random Forest
//! feature-importance top-10 as the supervised reference. The paper's
//! validation: all graph-selected features appear in the RF top-10.

use mdes_bench::hdd_study::{default_fleet, HddStudy};
use mdes_bench::plant_study::translator_from_args;
use mdes_bench::report::{print_table, write_csv};
use mdes_graph::ScoreRange;
use mdes_ml::{Dataset, ForestConfig, RandomForest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let study = HddStudy::run(&default_fleet(), translator_from_args(&args));

    // (a) Graph-based ranking: in-degree in the [80, 90) subgraph.
    let sub = study.mdes.graph().subgraph(&ScoreRange::best_detection());
    let mut by_in: Vec<(usize, usize)> = sub
        .active_nodes()
        .iter()
        .map(|&n| (n, sub.in_degree(n)))
        .collect();
    by_in.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("Fig. 11a — features by in-degree in the [80, 90) global subgraph");
    let rows: Vec<Vec<String>> = by_in
        .iter()
        .take(8)
        .map(|&(n, d)| {
            vec![
                sub.name(n).to_owned(),
                d.to_string(),
                sub.out_degree(n).to_string(),
            ]
        })
        .collect();
    print_table(&["feature", "in-degree", "out-degree"], &rows);

    // (b) Random Forest reference ranking.
    let (x, y, names) = study.fleet.to_tabular();
    let data = Dataset::new(x, y).with_feature_names(names.clone());
    let mut rng = StdRng::seed_from_u64(11);
    let (train, _) = data.train_test_split(0.8, &mut rng);
    let balanced = train.undersample_balanced(&mut rng);
    let forest = RandomForest::fit(&balanced, &ForestConfig::default());
    println!("\nFig. 11b — Random Forest top-10 feature importances");
    let ranked = forest.ranked_features();
    let rf_rows: Vec<Vec<String>> = ranked
        .iter()
        .take(10)
        .map(|&(f, w)| vec![names[f].clone(), format!("{w:.3}")])
        .collect();
    print_table(&["feature", "importance"], &rf_rows);

    // Overlap check (the paper's validation). RF features include "_delta"
    // variants of the same underlying SMART attribute; match on the base name.
    let base = |s: &str| s.trim_end_matches("_delta").to_owned();
    let rf_top: HashSet<String> = ranked
        .iter()
        .take(10)
        .map(|&(f, _)| base(&names[f]))
        .collect();
    let graph_top: Vec<String> = by_in
        .iter()
        .take(5)
        .map(|&(n, _)| sub.name(n).to_owned())
        .collect();
    let overlap = graph_top.iter().filter(|g| rf_top.contains(*g)).count();
    println!(
        "\noverlap: {overlap}/{} of the graph's top features appear in the RF top-10 \
         (paper: 5/5)",
        graph_top.len()
    );

    let csv: Vec<Vec<String>> = by_in
        .iter()
        .map(|&(n, d)| vec![sub.name(n).to_owned(), d.to_string()])
        .chain(
            ranked
                .iter()
                .map(|&(f, w)| vec![names[f].clone(), w.to_string()]),
        )
        .collect();
    let path = write_csv("fig11_feature_rankings.csv", &["feature", "score"], &csv);
    println!("wrote {}", path.display());
}
