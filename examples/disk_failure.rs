//! Case study II (reduced scale): predict disk failures from SMART-like
//! telemetry, comparing the translation-graph framework against the paper's
//! baselines (random forest, one-class SVM).
//!
//! Mirrors the paper's protocol (§IV): continuous SMART features are
//! discretized into categorical sequences, training data is aggregated
//! across all drives (one directional model per feature pair), and detection
//! runs per drive over its final month. Drives whose anomaly score rises
//! sharply above their development-month baseline are flagged as failing.
//!
//! Run with: `cargo run --release --example disk_failure`

use mdes::bleu::BleuConfig;
use mdes::core::{
    build_graph, read_snapshot, write_snapshot, BrokenRule, DetectionConfig, GraphBuildConfig,
    Mdes, MdesConfig,
};
use mdes::graph::ScoreRange;
use mdes::lang::{LanguagePipeline, RawTrace, SentenceSet, WindowConfig};
use mdes::ml::{Confusion, Dataset, ForestConfig, OneClassSvm, RandomForest, Scaler, SvmConfig};
use mdes::synth::hdd::{generate, HddConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fleet = generate(&HddConfig {
        n_drives: 30,
        days: 240,
        failure_fraction: 0.4,
        ..HddConfig::default()
    });
    let failed = fleet.drives.iter().filter(|d| d.failed).count();
    println!(
        "fleet: {} drives, {failed} fail within the horizon",
        fleet.drives.len()
    );

    // --- Baselines on the tabular drive-day view (34 features,
    //     3-day failure-prediction window labels). ---
    let (x, y, names) = fleet.to_tabular_windowed(3);
    let data = Dataset::new(x, y).with_feature_names(names);
    let mut rng = StdRng::seed_from_u64(1);
    let (train, test) = data.train_test_split(0.8, &mut rng);

    let rf_train = train.undersample_balanced(&mut rng);
    let forest = RandomForest::fit(&rf_train, &ForestConfig::default());
    let rf = Confusion::from_predictions(&forest.predict(&test.x), &test.y);
    println!("random forest     : recall {:.0}%", 100.0 * rf.recall());

    // OC-SVM needs standardized features (raw SMART values span 9 orders of
    // magnitude) and a sub-sampled healthy training set.
    let healthy = train.filter_class(0);
    let scaler = Scaler::fit(&healthy.x);
    let sub_x: Vec<Vec<f64>> = healthy.x.iter().step_by(8).cloned().collect();
    let sub = Dataset::new(scaler.transform(&sub_x), vec![0; sub_x.len()]);
    let svm = OneClassSvm::fit(
        &sub,
        &SvmConfig {
            nu: 0.05,
            ..SvmConfig::default()
        },
    );
    let oc = Confusion::from_predictions(&svm.predict(&scaler.transform(&test.x)), &test.y);
    println!("one-class SVM     : recall {:.0}%", 100.0 * oc.recall());

    // --- The framework (§IV-C): pooled discretization + pooled training. ---
    // Each eligible drive contributes its last 110 days: 60 train, 25 dev,
    // 25 test.
    let eligible = fleet.drives_with_min_days(110);
    let schemes = fleet.pooled_schemes(&eligible, 60);
    let window = WindowConfig::hdd();
    let per_drive: Vec<(usize, Vec<RawTrace>)> = eligible
        .iter()
        .map(|&d| (d, fleet.drive_traces_with_schemes(d, &schemes)))
        .collect();
    let windows = |d: usize| {
        let days = fleet.drives[d].days();
        (days - 110..days - 50, days - 50..days - 25, days - 25..days)
    };

    // Fit one language pipeline on the concatenated training segments.
    let nf = per_drive[0].1.len();
    let cat: Vec<RawTrace> = (0..nf)
        .map(|f| {
            let mut events = Vec::new();
            for (d, traces) in &per_drive {
                let (train_r, _, _) = windows(*d);
                events.extend_from_slice(&traces[f].events[train_r]);
            }
            RawTrace::new(per_drive[0].1[f].name.clone(), events)
        })
        .collect();
    let pipeline = LanguagePipeline::fit(&cat, 0..cat[0].events.len(), window)?;

    // Aggregate aligned train/dev sentences across drives, then run
    // Algorithm 1 once: one model per ordered feature pair.
    let n = pipeline.sensor_count();
    let empty = SentenceSet {
        sentences: Vec::new(),
        starts: Vec::new(),
    };
    let (mut train_sets, mut dev_sets) = (vec![empty.clone(); n], vec![empty; n]);
    for (d, traces) in &per_drive {
        let (train_r, dev_r, _) = windows(*d);
        let t = pipeline.encode_segment(traces, train_r)?;
        let v = pipeline.encode_segment(traces, dev_r)?;
        for k in 0..n {
            train_sets[k].sentences.extend_from_slice(&t[k].sentences);
            train_sets[k].starts.extend_from_slice(&t[k].starts);
            dev_sets[k].sentences.extend_from_slice(&v[k].sentences);
            dev_sets[k].starts.extend_from_slice(&v[k].starts);
        }
    }
    let trained = build_graph(
        &pipeline,
        &train_sets,
        &dev_sets,
        &GraphBuildConfig::default(),
    )?;
    println!(
        "framework         : {} features -> {} directional models",
        n,
        trained.models().len()
    );

    // Freeze the fit with detection at the paper's best range, persist it
    // as an MDSN snapshot, and detect through the restored file.
    let cfg = MdesConfig {
        window,
        detection: DetectionConfig {
            valid_range: ScoreRange::best_detection(),
            bleu: BleuConfig::sentence(),
            margin: 0.0,
            rule: BrokenRule::CorpusScore,
            ..DetectionConfig::default()
        },
        ..MdesConfig::default()
    };
    let model_path = std::env::temp_dir().join("mdes_disk_failure.mdsn");
    write_snapshot(
        &model_path,
        Mdes::from_parts(cfg, pipeline, trained)?.snapshot(),
    )?;
    let snapshot = read_snapshot(&model_path)?;
    std::fs::remove_file(&model_path).ok();

    // Detection per drive, with the drive's own development month as the
    // normal baseline.
    let (mut hits, mut failed_eval, mut false_alarms, mut healthy_eval) = (0, 0, 0, 0);
    for (d, traces) in &per_drive {
        let (_, dev_r, test_r) = windows(*d);
        let dev_res = snapshot.detect_range(traces, dev_r)?;
        let test_res = snapshot.detect_range(traces, test_r)?;
        let dev_mean = dev_res.scores.iter().sum::<f64>() / dev_res.scores.len() as f64;
        let w = test_res.scores.len();
        let tail = &test_res.scores[w.saturating_sub(4)..w - 1];
        let tail_mean = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
        let flagged = tail_mean - dev_mean >= 0.3;
        if fleet.drives[*d].failed {
            failed_eval += 1;
            if flagged {
                hits += 1;
                println!(
                    "  {}: dev baseline {dev_mean:.2} -> pre-failure {tail_mean:.2}  DETECTED",
                    fleet.drives[*d].serial
                );
            }
        } else {
            healthy_eval += 1;
            if flagged {
                false_alarms += 1;
            }
        }
    }
    println!(
        "framework (ours)  : recall {:.0}% over {failed_eval} failed drives, \
         {false_alarms}/{healthy_eval} false alarms — no feature engineering",
        100.0 * hits as f64 / failed_eval.max(1) as f64
    );
    Ok(())
}
