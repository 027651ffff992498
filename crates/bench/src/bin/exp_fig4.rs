//! Experiment E3 — Fig. 4: (a) CDF of per-pair model runtime (training +
//! dev scoring) and (b) histogram of development BLEU scores.
//!
//! Paper reference points: ~2.5 minutes per NMT model (TensorFlow, GPU-less
//! server), 89.4 % of BLEU scores above 60. Runtimes here reflect the chosen
//! translator (`--translator=nmt` for the paper's model; the default n-gram
//! fast path is orders of magnitude cheaper — that gap is itself reported by
//! the `exp_ablation_translator` experiment).

use mdes_bench::plant_study::{scale_from_args, translator_from_args, PlantStudy};
use mdes_bench::report::{print_cdf, print_histogram, write_csv};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let study = PlantStudy::run(&scale_from_args(&args), translator_from_args(&args));

    let runtimes = study.mdes.runtimes();
    let scores = study.mdes.scores();

    println!("Fig. 4a — per-model runtime (seconds, train + dev scoring)");
    print_cdf("  runtime CDF", runtimes);
    let total: f64 = runtimes.iter().sum();
    println!(
        "  total sweep time {total:.2}s over {} models",
        runtimes.len()
    );

    println!("\nFig. 4b — histogram of development BLEU scores");
    print_histogram("  BLEU scores", &scores, 0.0, 100.0, 10);
    let above60 = scores.iter().filter(|&&s| s > 60.0).count() as f64 / scores.len() as f64;
    println!("  scores > 60: {:.1}% (paper: 89.4%)", 100.0 * above60);

    let rt_rows: Vec<Vec<String>> = runtimes.iter().map(|r| vec![r.to_string()]).collect();
    let sc_rows: Vec<Vec<String>> = scores.iter().map(|s| vec![s.to_string()]).collect();
    let p1 = write_csv("fig4a_model_runtimes.csv", &["runtime_secs"], &rt_rows);
    let p2 = write_csv("fig4b_bleu_scores.csv", &["bleu"], &sc_rows);
    println!("\nwrote {}\nwrote {}", p1.display(), p2.display());
}
