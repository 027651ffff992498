//! Experiment E5 — Fig. 5: CDFs of in-degree and out-degree of sensors in
//! the global subgraphs at each BLEU score range.
//!
//! Paper shape: 20–25 % of sensors are "popular" with very high in-degree
//! while the rest sit near the bottom; out-degrees spread comparatively
//! evenly.

use mdes_bench::plant_study::{scale_from_args, translator_from_args, PlantStudy};
use mdes_bench::report::{print_cdf, write_csv};
use mdes_graph::{in_degrees, out_degrees, ScoreRange};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let study = PlantStudy::run(&scale_from_args(&args), translator_from_args(&args));

    let mut csv_rows = Vec::new();
    for range in ScoreRange::paper_buckets() {
        let sub = study.mdes.graph().subgraph(&range);
        let ins: Vec<f64> = in_degrees(&sub).into_iter().map(|d| d as f64).collect();
        let outs: Vec<f64> = out_degrees(&sub).into_iter().map(|d| d as f64).collect();
        if ins.is_empty() {
            println!("{range}: empty subgraph\n");
            continue;
        }
        println!("=== global subgraph {range} ===");
        print_cdf("  in-degree", &ins);
        print_cdf("  out-degree", &outs);
        let spread = |v: &[f64]| {
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = v.iter().cloned().fold(0.0f64, f64::max);
            (lo, hi)
        };
        let (ilo, ihi) = spread(&ins);
        let (olo, ohi) = spread(&outs);
        println!("  in-degree range [{ilo:.0}, {ihi:.0}], out-degree range [{olo:.0}, {ohi:.0}]\n");
        for (v, kind) in [(&ins, "in"), (&outs, "out")] {
            for &d in v.iter() {
                csv_rows.push(vec![range.to_string(), kind.to_string(), d.to_string()]);
            }
        }
    }
    let path = write_csv(
        "fig5_degree_distributions.csv",
        &["range", "kind", "degree"],
        &csv_rows,
    );
    println!("wrote {}", path.display());
}
