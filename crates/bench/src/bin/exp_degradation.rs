//! Experiment — graceful degradation under sensor dropout.
//!
//! Fits a clean plant, then replays the full test period (days 14–30)
//! through one serving-engine stream while `k` sensors are silenced for the
//! whole period by the fault injector. For each `k` the experiment reports
//! the mean detection coverage and the anomaly-day vs normal-day score
//! peaks: coverage must fall roughly linearly with the dropped pair count
//! while the anomaly separation degrades gradually — losing one sensor of
//! twelve should dent the evidence, not blind the detector. Every replay
//! must complete without a panic or hard error, whatever `k`.

use mdes_bench::report::{print_table, write_csv};
use mdes_core::{BrokenRule, Mdes, MdesConfig, OnlineDetection, ServingEngine};
use mdes_graph::ScoreRange;
use mdes_lang::{WindowConfig, MISSING_RECORD};
use mdes_synth::faults::FaultInjector;
use mdes_synth::plant::{generate, PlantConfig};
use std::sync::Arc;

fn main() {
    let plant = generate(&PlantConfig {
        n_sensors: 12,
        minutes_per_day: 240,
        ..PlantConfig::default()
    });
    let mut cfg = MdesConfig {
        window: WindowConfig {
            word_len: 10,
            word_stride: 1,
            sent_len: 20,
            sent_stride: 20,
        },
        ..MdesConfig::default()
    };
    cfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);
    cfg.detection.rule = BrokenRule::DevQuantileFloor;
    let m = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 10),
        plant.days_range(11, 13),
        cfg,
    )
    .expect("fit clean plant");

    let test = plant.days_range(14, plant.config.days);
    let mpd = plant.config.minutes_per_day;
    let day_of = |d: &OnlineDetection| (test.start + d.sample_index) / mpd + 1;
    let engine = ServingEngine::new(Arc::clone(m.snapshot()));

    let mut csv_rows = Vec::new();
    let mut rows = Vec::new();
    for k in [0usize, 1, 2, 4, 8] {
        // Silence sensors 0..k for the entire test period.
        let mut injector = FaultInjector::new(97);
        for s in 0..k {
            injector = injector.dropout(s, test.start, test.end);
        }
        let faulty = injector.apply(&plant.traces);

        let mut session = engine.open_session(faulty.len()).expect("stream width");
        let mut detections: Vec<OnlineDetection> = Vec::new();
        for t in test.clone() {
            let sample: Vec<Option<String>> = faulty
                .iter()
                .map(|tr| {
                    let rec = tr.events[t].clone();
                    (rec != MISSING_RECORD).then_some(rec)
                })
                .collect();
            if let Some(d) = engine
                .push_opt(&mut session, &sample)
                .expect("degraded replay must not hard-fail")
            {
                detections.push(d);
            }
        }

        let coverage = detections.iter().map(|d| d.coverage).sum::<f64>() / detections.len() as f64;
        let peak = |predicate: &dyn Fn(usize) -> bool| -> f64 {
            detections
                .iter()
                .filter(|d| predicate(day_of(d)))
                .map(|d| d.score)
                .fold(0.0f64, f64::max)
        };
        let anom = peak(&|d| plant.config.is_anomalous_day(d));
        let normal =
            peak(&|d| !plant.config.is_anomalous_day(d) && !plant.config.is_precursor_day(d));
        rows.push(vec![
            k.to_string(),
            format!("{coverage:.3}"),
            format!("{anom:.3}"),
            format!("{normal:.3}"),
            format!("{:.3}", anom - normal),
        ]);
        csv_rows.push(vec![
            k.to_string(),
            format!("{coverage:.6}"),
            format!("{anom:.6}"),
            format!("{normal:.6}"),
            format!("{:.6}", anom - normal),
        ]);
    }
    println!("=== Degradation under k-sensor dropout (12-sensor plant, days 14-30) ===");
    print_table(
        &[
            "dropped",
            "mean coverage",
            "anomaly peak",
            "normal peak",
            "separation",
        ],
        &rows,
    );
    let path = write_csv(
        "exp_degradation.csv",
        &[
            "dropped",
            "mean_coverage",
            "anomaly_peak",
            "normal_peak",
            "separation",
        ],
        &csv_rows,
    );
    println!("\nwrote {}", path.display());
}
