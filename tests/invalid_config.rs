//! A translator configuration that no model can train with is refused as a
//! typed error before any pair trains, by both sweep entry points, instead
//! of panicking inside every pair worker.
//!
//! This binary holds one test: it installs a process-wide panic hook and
//! metrics recorder, which would see other tests' panics and counters.

use mdes::core::{
    build_graph_sharded, CoreError, FailurePolicy, GraphBuildConfig, Mdes, MdesConfig,
    ShardedSweepConfig, TranslatorConfig,
};
use mdes::lang::{LanguagePipeline, WindowConfig};
use mdes::nn::{NnError, Seq2SeqConfig};
use mdes::obs::Recorder;
use mdes::synth::plant::{generate, PlantConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Out-of-range configurations, each with the field it must be refused for.
fn bad_configs() -> Vec<(&'static str, Seq2SeqConfig)> {
    let base = Seq2SeqConfig {
        embed_dim: 4,
        hidden: 4,
        train_steps: 2,
        ..Seq2SeqConfig::default()
    };
    vec![
        (
            "dropout",
            Seq2SeqConfig {
                dropout: 1.0,
                ..base.clone()
            },
        ),
        (
            "dropout",
            Seq2SeqConfig {
                dropout: f32::NAN,
                ..base.clone()
            },
        ),
        (
            "dropout",
            Seq2SeqConfig {
                dropout: -0.1,
                ..base.clone()
            },
        ),
        (
            "learning_rate",
            Seq2SeqConfig {
                learning_rate: 0.0,
                ..base.clone()
            },
        ),
        (
            "learning_rate",
            Seq2SeqConfig {
                learning_rate: f32::INFINITY,
                ..base.clone()
            },
        ),
        (
            "grad_clip",
            Seq2SeqConfig {
                grad_clip: f32::NAN,
                ..base.clone()
            },
        ),
        (
            "hidden",
            Seq2SeqConfig {
                hidden: 0,
                ..base.clone()
            },
        ),
        (
            "batch_size",
            Seq2SeqConfig {
                batch_size: 0,
                ..base
            },
        ),
    ]
}

fn assert_invalid(err: CoreError, field: &str) {
    match err {
        CoreError::Nn(NnError::InvalidConfig { field: f, .. }) if f == field => {}
        other => panic!("expected InvalidConfig for {field}, got {other:?}"),
    }
}

#[test]
fn an_invalid_translator_config_is_refused_before_any_pair_trains() {
    let plant = generate(&PlantConfig {
        n_sensors: 3,
        days: 3,
        minutes_per_day: 288,
        n_components: 1,
        anomaly_days: vec![],
        precursor_days: vec![],
        ..PlantConfig::default()
    });
    let window = WindowConfig {
        word_len: 5,
        word_stride: 1,
        sent_len: 6,
        sent_stride: 6,
    };
    let (train, dev) = (plant.days_range(1, 2), plant.day_range(3));
    let lang = LanguagePipeline::fit(&plant.traces, train.clone(), window).expect("language");
    let pairs = [(0, 1), (1, 0), (1, 2)];

    let panics = Arc::new(AtomicUsize::new(0));
    let seen = panics.clone();
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |_| {
        seen.fetch_add(1, Ordering::SeqCst);
    }));
    let recorder = Arc::new(Recorder::new());
    mdes::obs::install(recorder.clone());

    for policy in [
        FailurePolicy::FailFast,
        FailurePolicy::Degrade {
            min_success_fraction: 0.0,
        },
    ] {
        for (field, nmt) in bad_configs() {
            let build = GraphBuildConfig {
                translator: TranslatorConfig::Nmt(nmt),
                policy,
                threads: 2,
                ..GraphBuildConfig::default()
            };
            let cfg = MdesConfig {
                window,
                build: build.clone(),
                ..MdesConfig::default()
            };
            let err = Mdes::fit(&plant.traces, train.clone(), dev.clone(), cfg)
                .expect_err("an invalid config cannot fit");
            assert_invalid(err, field);
            let sharded = ShardedSweepConfig {
                build,
                pairs_per_shard: 2,
                checkpoint_dir: None,
                checkpoint_every: 1,
            };
            let err = build_graph_sharded(
                &lang,
                &plant.traces,
                train.clone(),
                dev.clone(),
                &pairs,
                &sharded,
            )
            .expect_err("an invalid config cannot sweep");
            assert_invalid(err, field);
        }
    }

    mdes::obs::uninstall();
    std::panic::set_hook(previous_hook);
    assert_eq!(panics.load(Ordering::SeqCst), 0, "a worker panicked");
    assert!(
        recorder.histogram("algo1.pair").is_none(),
        "a pair started training"
    );
    assert!(recorder.histogram("nn.fit").is_none(), "a model trained");
    assert_eq!(recorder.counter_value("algo1.pairs_quarantined"), 0);
}
