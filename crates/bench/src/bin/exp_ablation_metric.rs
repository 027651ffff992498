//! Ablation A6 — relationship metric: BLEU (the paper's choice) vs a
//! channel-likelihood score.
//!
//! BLEU judges the single decoded sentence; the likelihood score integrates
//! the model's full predictive distribution (100 x geometric-mean per-word
//! probability). If both metrics induce the same score *structure*, the
//! framework's downstream machinery (subgraphs, validity ranges, broken
//! relationships) is insensitive to the specific translation-quality metric.

use mdes_bench::plant_study::{PlantScale, PlantStudy};
use mdes_bench::report::{print_table, write_csv};
use mdes_core::{NgramConfig, NgramTranslator, TranslatorConfig};

fn main() {
    let scale = PlantScale {
        n_sensors: 12,
        minutes_per_day: 240,
        word_len: 6,
        sent_len: 8,
    };
    let study = PlantStudy::run(&scale, TranslatorConfig::fast());
    let bleu_scores = study.mdes.scores();

    // Recompute the pairwise sweep with the likelihood metric on the same
    // sentence corpora.
    let train_sets = study
        .mdes
        .language()
        .encode_segment(&study.plant.traces, study.plant.days_range(1, 10))
        .expect("train");
    let dev_sets = study
        .mdes
        .language()
        .encode_segment(&study.plant.traces, study.plant.days_range(11, 13))
        .expect("dev");
    let n = study.mdes.language().sensor_count();
    let mut like_scores = Vec::with_capacity(n * (n - 1));
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let pairs: Vec<(Vec<u32>, Vec<u32>)> = train_sets[i]
                .sentences
                .iter()
                .zip(&train_sets[j].sentences)
                .map(|(s, t)| (s.clone(), t.clone()))
                .collect();
            let model = NgramTranslator::fit(&pairs, &NgramConfig::default());
            let dev_pairs: Vec<(&[u32], &[u32])> = dev_sets[i]
                .sentences
                .iter()
                .zip(&dev_sets[j].sentences)
                .map(|(s, t)| (s.as_slice(), t.as_slice()))
                .collect();
            like_scores.push(model.likelihood_score(
                &dev_pairs,
                study.mdes.language().languages()[j].vocab.size(),
            ));
        }
    }

    let rho = spearman(&bleu_scores, &like_scores);
    let top = |v: &[f64]| -> std::collections::HashSet<usize> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[b].total_cmp(&v[a]));
        idx[..v.len() / 4].iter().copied().collect()
    };
    let (ta, tb) = (top(&bleu_scores), top(&like_scores));
    let jaccard = ta.intersection(&tb).count() as f64 / ta.union(&tb).count() as f64;

    println!("Ablation A6 — relationship metric: BLEU vs channel likelihood\n");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    print_table(
        &["metric", "mean score", "min", "max"],
        &[
            vec![
                "BLEU (paper)".into(),
                format!("{:.1}", mean(&bleu_scores)),
                format!(
                    "{:.1}",
                    bleu_scores.iter().cloned().fold(f64::INFINITY, f64::min)
                ),
                format!("{:.1}", bleu_scores.iter().cloned().fold(0.0f64, f64::max)),
            ],
            vec![
                "likelihood".into(),
                format!("{:.1}", mean(&like_scores)),
                format!(
                    "{:.1}",
                    like_scores.iter().cloned().fold(f64::INFINITY, f64::min)
                ),
                format!("{:.1}", like_scores.iter().cloned().fold(0.0f64, f64::max)),
            ],
        ],
    );
    println!("\nSpearman rank correlation: {rho:.3}");
    println!("top-quartile edge-set Jaccard overlap: {jaccard:.3}");

    let csv: Vec<Vec<String>> = bleu_scores
        .iter()
        .zip(&like_scores)
        .map(|(b, l)| vec![b.to_string(), l.to_string()])
        .collect();
    let path = write_csv("ablation_metric.csv", &["bleu", "likelihood"], &csv);
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
