//! Ablation A5 — NMT architecture variants: LSTM vs GRU cells and dot vs
//! general (bilinear) attention (the axes of Luong et al., 2015).
//!
//! All four combinations run the same small-plant pairwise sweep; reported
//! are mean dev BLEU, total sweep time and the Spearman correlation of each
//! variant's pair scores against the paper's configuration (LSTM + dot).
//! Because the relationship graph only consumes score structure, high
//! correlations mean the architecture choice does not change the graph.

use mdes_bench::plant_study::{PlantScale, PlantStudy};
use mdes_bench::report::{print_table, write_csv};
use mdes_core::TranslatorConfig;
use mdes_nn::{AttentionKind, CellKind, Seq2SeqConfig};

fn main() {
    let scale = PlantScale {
        n_sensors: 6,
        minutes_per_day: 240,
        word_len: 6,
        sent_len: 8,
    };
    let variants = [
        ("LSTM + dot (paper)", CellKind::Lstm, AttentionKind::Dot),
        ("LSTM + general", CellKind::Lstm, AttentionKind::General),
        ("GRU + dot", CellKind::Gru, AttentionKind::Dot),
        ("GRU + general", CellKind::Gru, AttentionKind::General),
    ];
    println!("Ablation A5 — NMT architecture variants (6-sensor plant)\n");
    let mut results: Vec<(String, Vec<f64>, f64)> = Vec::new();
    for (label, cell, attention) in variants {
        let cfg = Seq2SeqConfig {
            cell,
            attention,
            train_steps: 60,
            ..Seq2SeqConfig::default()
        };
        let study = PlantStudy::run(&scale, TranslatorConfig::Nmt(cfg));
        let time: f64 = study.mdes.runtimes().iter().sum();
        results.push((label.to_owned(), study.mdes.scores(), time));
    }

    let baseline = results[0].1.clone();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(label, scores, time)| {
            let mean = scores.iter().sum::<f64>() / scores.len() as f64;
            vec![
                label.clone(),
                format!("{mean:.1}"),
                format!("{time:.1}s"),
                format!("{:.3}", spearman(&baseline, scores)),
            ]
        })
        .collect();
    print_table(
        &[
            "variant",
            "mean dev BLEU",
            "sweep time",
            "rank corr vs paper",
        ],
        &rows,
    );
    println!(
        "\nTakeaway: the graph structure is robust to the architecture choice — any\n\
         variant with high rank correlation yields the same subgraphs."
    );
    let path = write_csv(
        "ablation_nmt_arch.csv",
        &["variant", "mean_bleu", "sweep_time", "rank_corr"],
        &rows,
    );
    println!("wrote {}", path.display());
}

fn spearman(a: &[f64], b: &[f64]) -> f64 {
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&x, &y| v[x].total_cmp(&v[y]));
        let mut r = vec![0.0; v.len()];
        for (pos, &i) in idx.iter().enumerate() {
            r[i] = pos as f64;
        }
        r
    };
    let (ra, rb) = (rank(a), rank(b));
    let m = (a.len() as f64 - 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        num += (x - m) * (y - m);
        da += (x - m).powi(2);
        db += (y - m).powi(2);
    }
    num / (da.sqrt() * db.sqrt()).max(1e-12)
}
