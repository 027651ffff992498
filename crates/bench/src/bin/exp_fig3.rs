//! Experiment E2 — Fig. 3: CDFs of (a) sensor event cardinality and (b)
//! sensor vocabulary size.
//!
//! Paper reference points: mean cardinality 2.07, 97.6 % binary, max 7;
//! ~40 % of vocabularies below 13 words, <20 % above 100, average 707
//! (the average depends on sequence length — the reduced default scale
//! produces proportionally smaller vocabularies; run with `--full` for the
//! paper's 1440-minute days).

use mdes_bench::plant_study::{scale_from_args, translator_from_args, PlantStudy};
use mdes_bench::report::{ecdf_f64, print_cdf, write_csv};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let study = PlantStudy::run(&scale_from_args(&args), translator_from_args(&args));

    let cards = study.cardinalities();
    let vocabs = study.vocabulary_sizes();

    println!("Fig. 3a — sensor event cardinality");
    let binary = cards.iter().filter(|&&c| c == 2.0).count() as f64 / cards.len() as f64;
    let mean = cards.iter().sum::<f64>() / cards.len() as f64;
    println!(
        "  mean {mean:.2} (paper: 2.07), binary {:.1}% (paper: 97.6%), max {:.0} (paper: 7)",
        100.0 * binary,
        cards.iter().cloned().fold(0.0, f64::max),
    );
    print_cdf("  cardinality CDF", &cards);

    println!(
        "\nFig. 3b — sensor vocabulary size (word length {})",
        study.mdes.language().config().word_len
    );
    let small = vocabs.iter().filter(|&&v| v < 13.0).count() as f64 / vocabs.len() as f64;
    let large = vocabs.iter().filter(|&&v| v > 100.0).count() as f64 / vocabs.len() as f64;
    let vmean = vocabs.iter().sum::<f64>() / vocabs.len() as f64;
    println!(
        "  mean {vmean:.0} (paper: 707), <13 words: {:.0}% (paper: ~40%), >100 words: {:.0}% (paper: <20%)",
        100.0 * small,
        100.0 * large
    );
    print_cdf("  vocabulary CDF", &vocabs);

    let card_rows: Vec<Vec<String>> = ecdf_f64(&cards)
        .iter()
        .map(|(v, f)| vec![v.to_string(), f.to_string()])
        .collect();
    let vocab_rows: Vec<Vec<String>> = ecdf_f64(&vocabs)
        .iter()
        .map(|(v, f)| vec![v.to_string(), f.to_string()])
        .collect();
    let p1 = write_csv(
        "fig3a_cardinality_cdf.csv",
        &["cardinality", "cdf"],
        &card_rows,
    );
    let p2 = write_csv(
        "fig3b_vocabulary_cdf.csv",
        &["vocab_size", "cdf"],
        &vocab_rows,
    );
    println!("\nwrote {}\nwrote {}", p1.display(), p2.display());
}
