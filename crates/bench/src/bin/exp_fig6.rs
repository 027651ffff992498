//! Experiment E6 — Fig. 6: the global subgraph at BLEU range [80, 90),
//! with popular sensors highlighted, exported to Graphviz DOT.

use mdes_bench::plant_study::{scale_from_args, translator_from_args, PlantStudy};
use mdes_bench::report::results_dir;
use mdes_graph::{to_dot, DotOptions, ScoreRange};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let study = PlantStudy::run(&scale_from_args(&args), translator_from_args(&args));
    let range = ScoreRange::best_detection();
    let sub = study.mdes.graph().subgraph(&range);
    let thr = study.popular_threshold();
    let popular = sub.popular(thr);

    println!("Fig. 6 — global subgraph at {range}");
    println!(
        "  {} sensors with edges, {} relationships, {} popular (in-degree >= {thr})",
        sub.active_nodes().len(),
        sub.edge_count(),
        popular.len()
    );
    for &p in &popular {
        println!(
            "  popular: {} (in-degree {})",
            sub.name(p),
            sub.in_degree(p)
        );
    }

    let dot = to_dot(
        &sub,
        &DotOptions {
            title: format!("global subgraph {range}"),
            highlight_nodes: popular.into_iter().collect(),
            ..DotOptions::default()
        },
    );
    let path = results_dir().join("fig6_global_subgraph_80_90.dot");
    std::fs::write(&path, dot).expect("write dot file");
    println!("\nwrote {} (render with `dot -Tpdf`)", path.display());
}
