//! Quickstart: fit the framework on two coupled sensors, then watch the
//! anomaly score react when their relationship breaks.
//!
//! Run with: `cargo run --example quickstart`

use mdes::core::{Mdes, MdesConfig};
use mdes::lang::{RawTrace, WindowConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two square-wave sensors sharing a 10-minute cycle; sensor "b" slips
    // its phase at t = 1000, breaking the pairwise relationship.
    let samples = 1200;
    let square = |name: &str, phase: usize, slip_at: Option<usize>| {
        let events = (0..samples)
            .map(|t| {
                let extra = slip_at.map_or(0, |s| if t >= s { 3 } else { 0 });
                if ((t + phase + extra) / 5).is_multiple_of(2) {
                    "on"
                } else {
                    "off"
                }
                .to_owned()
            })
            .collect();
        RawTrace::new(name, events)
    };
    let traces = vec![
        square("a", 0, None),
        square("b", 2, Some(1000)),
        square("c", 4, None),
    ];

    let cfg = MdesConfig {
        window: WindowConfig {
            word_len: 4,
            word_stride: 1,
            sent_len: 5,
            sent_stride: 5,
        },
        ..MdesConfig::default()
    };

    // Offline: train on the first 400 samples, score pairs on the next 200.
    let mut cfg = cfg;
    cfg.detection.valid_range = mdes::graph::ScoreRange::closed(60.0, 100.0);
    let mdes = Mdes::fit(&traces, 0..400, 400..600, cfg)?;

    println!("relationship graph ({} sensors):", mdes.graph().len());
    for (s, d, w) in mdes.graph().edges() {
        println!(
            "  {} -> {}: BLEU {w:.1}",
            mdes.graph().name(s),
            mdes.graph().name(d)
        );
    }

    // Online: monitor the remaining samples (the slip happens mid-segment).
    let result = mdes.snapshot().detect_range(&traces, 600..1200)?;
    println!(
        "\nanomaly scores over the test window ({} models valid):",
        result.valid_models
    );
    for (k, (&start, &score)) in result.starts.iter().zip(&result.scores).enumerate() {
        let marker = if score > 0.5 { "  <-- anomaly" } else { "" };
        println!(
            "  sentence {k:2} (t={:4}): a_t = {score:.2}{marker}",
            600 + start
        );
    }

    let spikes = result.detections(0.5);
    println!(
        "\ndetected {} anomalous windows (threshold 0.5)",
        spikes.len()
    );
    if let Some(&first) = spikes.first() {
        let diag = mdes.snapshot().diagnose_alerts(&result.alerts[first]);
        println!("diagnosis of the first spike: suspect sensors (by broken edges):");
        for (sensor, count) in &diag.sensor_ranking {
            println!(
                "  {}: {count} broken relationships",
                mdes.graph().name(*sensor)
            );
        }
    }
    Ok(())
}
