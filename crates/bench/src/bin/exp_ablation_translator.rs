//! Ablation A1 — NMT vs n-gram translator: score agreement and runtime.
//!
//! The repository defaults to the statistical `NgramTranslator` for
//! full-scale sweeps (single-core host); this experiment justifies that
//! substitution by measuring, on a small plant, how well the two translator
//! families agree on the *ordering* of pairwise scores — which is all the
//! relationship graph consumes — and how far apart their training costs are.

use mdes_bench::plant_study::{PlantScale, PlantStudy};
use mdes_bench::report::{arg_value, print_table, write_csv};
use mdes_core::TranslatorConfig;
use mdes_nn::Seq2SeqConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sensors: usize = arg_value(&args, "sensors")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let scale = PlantScale {
        n_sensors: sensors,
        minutes_per_day: 240,
        word_len: 6,
        sent_len: 8,
    };

    println!("Ablation A1 — translator families on a {sensors}-sensor plant\n");
    let ngram = PlantStudy::run(&scale, TranslatorConfig::fast());
    let nmt_cfg = Seq2SeqConfig {
        train_steps: 60,
        ..Seq2SeqConfig::default()
    };
    let nmt = PlantStudy::run(&scale, TranslatorConfig::Nmt(nmt_cfg));

    let s_ngram = ngram.mdes.scores();
    let s_nmt = nmt.mdes.scores();
    assert_eq!(s_ngram.len(), s_nmt.len());

    // Spearman rank correlation between the two score vectors.
    let rho = spearman(&s_ngram, &s_nmt);
    // Agreement of the top-quartile edge sets (what subgraphs consume).
    let top = |v: &[f64]| -> std::collections::HashSet<usize> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[b].total_cmp(&v[a]));
        idx[..v.len() / 4].iter().copied().collect()
    };
    let (ta, tb) = (top(&s_ngram), top(&s_nmt));
    let jaccard = ta.intersection(&tb).count() as f64 / ta.union(&tb).count() as f64;

    let time = |s: &PlantStudy| s.mdes.runtimes().iter().sum::<f64>();
    let rows = vec![
        vec![
            "n-gram".into(),
            format!("{:.2}s", time(&ngram)),
            format!("{:.1}", mean(&s_ngram)),
        ],
        vec![
            "NMT (seq2seq)".into(),
            format!("{:.2}s", time(&nmt)),
            format!("{:.1}", mean(&s_nmt)),
        ],
    ];
    print_table(&["translator", "total sweep time", "mean dev BLEU"], &rows);
    println!("\nSpearman rank correlation of pair scores: {rho:.3}");
    println!("top-quartile edge-set Jaccard overlap:    {jaccard:.3}");
    println!("speedup: {:.0}x", time(&nmt) / time(&ngram).max(1e-9));

    let csv: Vec<Vec<String>> = s_ngram
        .iter()
        .zip(&s_nmt)
        .map(|(a, b)| vec![a.to_string(), b.to_string()])
        .collect();
    let path = write_csv("ablation_translator_scores.csv", &["ngram", "nmt"], &csv);
    println!("wrote {}", path.display());
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
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
    let n = a.len() as f64;
    let ma = (n - 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        num += (x - ma) * (y - ma);
        da += (x - ma).powi(2);
        db += (y - ma).powi(2);
    }
    num / (da.sqrt() * db.sqrt()).max(1e-12)
}
