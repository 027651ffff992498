//! Experiment E7 — Fig. 7: local subgraphs (popular sensors removed) at
//! BLEU ranges [80, 90) and [90, 100], showing isolated sensor clusters that
//! map onto physical components.
//!
//! We additionally validate the clusters against the simulator's ground
//! truth (which component each sensor belongs to) — information the paper
//! could only confirm with domain experts.

use mdes_bench::plant_study::{scale_from_args, translator_from_args, PlantStudy};
use mdes_bench::report::results_dir;
use mdes_graph::{to_dot, walktrap, DotOptions, ScoreRange, WalktrapConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let study = PlantStudy::run(&scale_from_args(&args), translator_from_args(&args));
    let thr = study.popular_threshold();

    for (tag, range) in [
        ("80_90", ScoreRange::half_open(80.0, 90.0)),
        ("90_100", ScoreRange::closed(90.0, 100.0)),
    ] {
        let sub = study.mdes.graph().subgraph(&range);
        let popular = sub.popular(thr);
        let local = sub.without_nodes(&popular);
        let comps = local.weakly_connected_components();
        println!("=== local subgraph at {range} ===");
        println!(
            "  {} sensors, {} relationships, {} connected clusters",
            local.active_nodes().len(),
            local.edge_count(),
            comps.len()
        );
        for (i, comp) in comps.iter().enumerate() {
            // Ground-truth components of the cluster members.
            let truth: Vec<usize> = comp
                .iter()
                .map(|&s| {
                    let src = study.mdes.language().languages()[s].source_index;
                    study.plant.sensors[src].component
                })
                .collect();
            let pure = truth.iter().all(|&c| c == truth[0]);
            let names: Vec<&str> = comp.iter().map(|&s| local.name(s)).collect();
            println!(
                "  cluster {i}: {names:?} -> ground-truth components {truth:?}{}",
                if pure { " [pure]" } else { "" }
            );
        }
        let comms = walktrap(&local, &WalktrapConfig::default());
        println!(
            "  walktrap: {} communities, modularity {:.2}",
            comms.groups.len(),
            comms.modularity
        );
        let dot = to_dot(
            &local,
            &DotOptions {
                title: format!("local subgraph {range}"),
                ..DotOptions::default()
            },
        );
        let path = results_dir().join(format!("fig7_local_subgraph_{tag}.dot"));
        std::fs::write(&path, dot).expect("write dot");
        println!("  wrote {}\n", path.display());
    }
    println!(
        "Paper shape: clusters are mostly isolated; sensors in one cluster come from\n\
         the same system component (confirmed here against simulator ground truth)."
    );
}
