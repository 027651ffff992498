//! Knowledge discovery: mine the relationship graph for system structure —
//! popular health-indicator sensors, global/local subgraphs and sensor
//! communities — and check them against the simulator's ground truth.
//!
//! Run with: `cargo run --release --example knowledge_discovery`

use mdes::core::{Mdes, MdesConfig};
use mdes::graph::{to_dot, DotOptions, ScoreRange};
use mdes::lang::WindowConfig;
use mdes::synth::plant::{generate, PlantConfig};
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plant = generate(&PlantConfig {
        n_sensors: 20,
        days: 8,
        minutes_per_day: 288,
        n_components: 4,
        anomaly_days: vec![],
        precursor_days: vec![],
        ..PlantConfig::default()
    });

    let cfg = MdesConfig {
        window: WindowConfig {
            word_len: 6,
            word_stride: 1,
            sent_len: 8,
            sent_stride: 8,
        },
        ..MdesConfig::default()
    };
    let mdes = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 5),
        plant.days_range(6, 8),
        cfg,
    )?;
    let graph = mdes.graph();
    println!(
        "Ori-MVRG: {} sensors, {} relationships",
        graph.len(),
        graph.edge_count()
    );

    // Global subgraphs per BLEU bucket (Table I style).
    println!("\nrange      | %rel | sensors | popular");
    let thr = graph.scaled_popular_threshold();
    for range in ScoreRange::paper_buckets() {
        let sub = graph.subgraph(&range);
        println!(
            "{:10} | {:4.0} | {:7} | {:7}",
            range.to_string(),
            100.0 * sub.edge_count() as f64 / graph.edge_count() as f64,
            sub.active_nodes().len(),
            sub.popular(thr).len()
        );
    }

    // Popular sensors = system-health indicators. Computed on a score-range
    // subgraph (the Ori-MVRG is fully connected, so every node would trivially
    // qualify there).
    let strong = graph.subgraph(&ScoreRange::closed(70.0, 100.0));
    let popular = strong.popular(thr);
    println!("\npopular sensors in [70, 100] (in-degree >= {thr}):");
    for &p in &popular {
        println!(
            "  {} (in-degree {}, ground truth: {:?})",
            strong.name(p),
            strong.in_degree(p),
            plant.sensors[mdes
                .language()
                .languages()
                .iter()
                .position(|l| l.name == graph.name(p))
                .map(|i| mdes.language().languages()[i].source_index)
                .unwrap_or(0)]
            .kind
        );
    }

    // Communities in a strong local subgraph vs ground-truth components.
    let range = ScoreRange::closed(60.0, 100.0);
    let comms = mdes.snapshot().communities(&range, None);
    println!(
        "\ncommunities at {range} (modularity {:.2}):",
        comms.modularity
    );
    let by_name: HashMap<&str, usize> = plant
        .sensors
        .iter()
        .map(|s| (s.name.as_str(), s.component))
        .collect();
    for (i, group) in comms.groups.iter().enumerate() {
        let members: Vec<String> = group
            .iter()
            .map(|&s| {
                let name = graph.name(s);
                format!("{name}(c{})", by_name.get(name).copied().unwrap_or(99))
            })
            .collect();
        println!("  community {i}: {members:?}");
    }

    // Export the best-detection global subgraph as DOT (Fig. 6).
    let sub = mdes
        .snapshot()
        .global_subgraph(&ScoreRange::best_detection());
    let dot = to_dot(
        &sub,
        &DotOptions {
            title: "global subgraph [80, 90)".into(),
            highlight_nodes: sub.popular(thr).into_iter().collect(),
            ..DotOptions::default()
        },
    );
    std::fs::create_dir_all("results")?;
    std::fs::write("results/knowledge_discovery_global_80_90.dot", &dot)?;
    println!(
        "\nwrote results/knowledge_discovery_global_80_90.dot ({} bytes)",
        dot.len()
    );
    Ok(())
}
