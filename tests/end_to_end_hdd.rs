//! End-to-end integration test of case study II: SMART telemetry ->
//! discretization -> pooled language pipeline -> translation graph ->
//! per-drive detection; plus the tabular baselines.

use mdes::core::{build_graph, DetectionConfig, GraphBuildConfig, Mdes, MdesConfig};
use mdes::graph::ScoreRange;
use mdes::lang::{LanguagePipeline, RawTrace, SentenceSet, WindowConfig};
use mdes::ml::{Confusion, Dataset, ForestConfig, RandomForest};
use mdes::synth::hdd::{generate, HddConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fleet() -> mdes::synth::hdd::HddData {
    generate(&HddConfig {
        n_drives: 12,
        days: 200,
        failure_fraction: 0.4,
        ..HddConfig::default()
    })
}

#[test]
fn pooled_discretization_gives_uniform_feature_sets() {
    let fleet = fleet();
    let eligible = fleet.drives_with_min_days(110);
    assert!(eligible.len() >= 2);
    let schemes = fleet.pooled_schemes(&eligible, 60);
    assert_eq!(schemes.len(), fleet.feature_names.len());
    // Constant features (spin retry, calibration retry) must be dropped.
    assert!(schemes[6].is_none(), "spin retry should be constant");
    assert!(schemes[7].is_none(), "calibration retry should be constant");
    let kept = schemes.iter().flatten().count();
    assert!(kept >= 10);
    // Every drive gets the same trace names in the same order.
    let names: Vec<Vec<String>> = eligible
        .iter()
        .map(|&d| {
            fleet
                .drive_traces_with_schemes(d, &schemes)
                .iter()
                .map(|t| t.name.clone())
                .collect()
        })
        .collect();
    assert!(names.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn pooled_graph_training_and_detection_work() {
    let fleet = fleet();
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
    let nf = per_drive[0].1.len();
    let cat: Vec<RawTrace> = (0..nf)
        .map(|f| {
            let mut events = Vec::new();
            for (d, traces) in &per_drive {
                events.extend_from_slice(&traces[f].events[windows(*d).0]);
            }
            RawTrace::new(per_drive[0].1[f].name.clone(), events)
        })
        .collect();
    let pipeline = LanguagePipeline::fit(&cat, 0..cat[0].events.len(), window).expect("fit");
    let n = pipeline.sensor_count();
    let empty = SentenceSet {
        sentences: Vec::new(),
        starts: Vec::new(),
    };
    let (mut train_sets, mut dev_sets) = (vec![empty.clone(); n], vec![empty; n]);
    for (d, traces) in &per_drive {
        let (tr, dv, _) = windows(*d);
        let t = pipeline.encode_segment(traces, tr).expect("train enc");
        let v = pipeline.encode_segment(traces, dv).expect("dev enc");
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
    )
    .expect("build");
    assert_eq!(trained.models().len(), n * (n - 1));

    // Detection runs for every drive and yields bounded scores.
    let cfg = MdesConfig {
        window,
        detection: DetectionConfig {
            valid_range: ScoreRange::closed(40.0, 100.0),
            ..DetectionConfig::default()
        },
        ..MdesConfig::default()
    };
    let m = Mdes::from_parts(cfg, pipeline, trained).expect("one fit's parts");
    for (d, traces) in &per_drive {
        let (_, _, test_r) = windows(*d);
        let res = m.snapshot().detect_range(traces, test_r).expect("detect");
        assert!(!res.scores.is_empty());
        assert!(res.scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }
}

#[test]
fn tabular_baseline_flow_is_consistent() {
    let fleet = fleet();
    let (x, y, names) = fleet.to_tabular_windowed(3);
    assert_eq!(x.len(), y.len());
    assert!(x.iter().all(|r| r.len() == names.len()));
    // Windowed labels: 3 positives per failed drive with >= 3 days.
    let failed = fleet.drives.iter().filter(|d| d.failed).count();
    let positives = y.iter().filter(|&&l| l == 1).count();
    assert_eq!(positives, 3 * failed);

    let data = Dataset::new(x, y).with_feature_names(names);
    let mut rng = StdRng::seed_from_u64(5);
    let (train, test) = data.train_test_split(0.8, &mut rng);
    let balanced = train.undersample_balanced(&mut rng);
    let forest = RandomForest::fit(
        &balanced,
        &ForestConfig {
            n_trees: 20,
            ..Default::default()
        },
    );
    let conf = Confusion::from_predictions(&forest.predict(&test.x), &test.y);
    // The degradation signature is learnable: recall must beat coin flipping.
    assert!(conf.recall() > 0.5, "rf recall {}", conf.recall());
}
