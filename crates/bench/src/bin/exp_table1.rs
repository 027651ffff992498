//! Experiment E4 — Table I: statistics of the global subgraphs at each BLEU
//! score range.
//!
//! Columns match the paper: % of relationships in the bucket, number of
//! sensors with at least one edge, number of popular sensors (in-degree at
//! or above the scaled threshold), and relationships remaining after the
//! popular sensors are removed.

use mdes_bench::plant_study::{scale_from_args, translator_from_args, PlantStudy};
use mdes_bench::report::{print_table, write_csv};
use mdes_graph::{table_stats, ScoreRange};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let study = PlantStudy::run(&scale_from_args(&args), translator_from_args(&args));
    let thr = study.popular_threshold();

    let rows_stats = table_stats(study.mdes.graph(), &ScoreRange::paper_buckets(), thr);
    println!(
        "Table I — global subgraph statistics ({} sensors, popular threshold in-degree >= {thr})\n",
        study.mdes.graph().len()
    );
    let rows: Vec<Vec<String>> = rows_stats
        .iter()
        .map(|s| {
            vec![
                s.range.clone(),
                format!("{:.1}%", s.pct_relationships),
                s.sensors.to_string(),
                s.popular_sensors.to_string(),
                s.relationships_without_popular.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "BLEU range",
            "% relationships",
            "# sensors",
            "# popular",
            "# rel w/o popular",
        ],
        &rows,
    );
    println!(
        "\nPaper (128 sensors): [0,60) 10.6% | [60,70) 12.8% | [70,80) 28.8% | \
         [80,90) 17.8% | [90,100] 29.9%"
    );
    let path = write_csv(
        "table1_global_subgraphs.csv",
        &[
            "range",
            "pct_relationships",
            "sensors",
            "popular",
            "rel_wo_popular",
        ],
        &rows,
    );
    println!("wrote {}", path.display());
}
