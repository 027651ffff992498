//! Ablation A4 — node-importance measures: in-degree (the paper's choice)
//! vs weighted PageRank, plus directional-asymmetry statistics.
//!
//! The paper ranks critical sensors/features by in-degree in the [80, 90)
//! subgraph. PageRank is a natural robustness check: if both measures pick
//! the same top nodes, the in-degree heuristic is not an artifact. The
//! reciprocity statistics quantify the paper's remark that the two directed
//! scores of a sensor pair generally differ.

use mdes_bench::hdd_study::{default_fleet, HddStudy};
use mdes_bench::plant_study::translator_from_args;
use mdes_bench::report::{print_table, write_csv};
use mdes_graph::{pagerank, reciprocity, PageRankConfig, ScoreRange};
use std::collections::HashSet;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let study = HddStudy::run(&default_fleet(), translator_from_args(&args));
    let sub = study.mdes.graph().subgraph(&ScoreRange::best_detection());

    let pr = pagerank(&sub, &PageRankConfig::default());
    let mut by_pr: Vec<(usize, f64)> = sub.active_nodes().iter().map(|&n| (n, pr[n])).collect();
    by_pr.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut by_in: Vec<(usize, usize)> = sub
        .active_nodes()
        .iter()
        .map(|&n| (n, sub.in_degree(n)))
        .collect();
    by_in.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    println!("Ablation A4 — importance measures on the HDD [80, 90) subgraph\n");
    let k = 5.min(by_in.len());
    let rows: Vec<Vec<String>> = (0..k)
        .map(|r| {
            vec![
                format!("{r}"),
                format!("{} (in {})", sub.name(by_in[r].0), by_in[r].1),
                format!("{} (pr {:.3})", sub.name(by_pr[r].0), by_pr[r].1),
            ]
        })
        .collect();
    print_table(&["rank", "by in-degree (paper)", "by PageRank"], &rows);

    let top_in: HashSet<usize> = by_in.iter().take(k).map(|&(n, _)| n).collect();
    let top_pr: HashSet<usize> = by_pr.iter().take(k).map(|&(n, _)| n).collect();
    let overlap = top_in.intersection(&top_pr).count();
    println!("\ntop-{k} overlap between the two measures: {overlap}/{k}");

    let r = reciprocity(study.mdes.graph());
    println!(
        "\ndirectional asymmetry over the full graph: {} mutual pairs, \
         mean |s(i,j) - s(j,i)| = {:.1} BLEU, max = {:.1}",
        r.mutual_pairs, r.mean_abs_asymmetry, r.max_abs_asymmetry
    );
    println!(
        "(the paper notes the two directed scores of a pair may differ — the\n\
         asymmetry above quantifies it)"
    );

    let csv: Vec<Vec<String>> = by_in
        .iter()
        .map(|&(n, d)| vec![sub.name(n).to_owned(), d.to_string(), pr[n].to_string()])
        .collect();
    let path = write_csv(
        "ablation_centrality.csv",
        &["feature", "in_degree", "pagerank"],
        &csv,
    );
    println!("wrote {}", path.display());
}
