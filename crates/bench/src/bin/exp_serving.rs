//! Experiment — multi-stream serving throughput and memory scaling.
//!
//! The serving split (DESIGN.md §11) claims that N concurrent streams cost
//! one shared frozen [`GraphSnapshot`] plus N cheap [`StreamSession`]s,
//! instead of N full model copies. This experiment measures both claims on
//! a synthetic plant:
//!
//! 1. throughput: M identical-rate streams multiplexed through
//!    [`ServingEngine::push_opt_many`] over the worker pool, in samples/s;
//! 2. memory: accounted bytes of the shared snapshot vs the per-session
//!    state, against the naive baseline of one engine (snapshot included)
//!    per stream.
//!
//! The run *asserts* that every stream keeps emitting detections and that
//! memory grows sub-linearly in M (per-stream bytes strictly decreasing),
//! making it the CI smoke test for the serving layer. Pass `--smoke` for
//! the reduced CI variant; the full run sweeps M ∈ {1, 4, 16, 64}.
//!
//! After the f32 sweep, the same snapshot is re-encoded to int8 and the
//! largest stream count re-runs against it, so the serving-layer cost of a
//! quantized artifact is measured end to end (decode + detection, not just
//! GEMM). Every configuration's per-push latency distribution lands in
//! `results/BENCH_serving.json` as machine-readable records.

use mdes_bench::report::{arg_flag, print_table, write_csv, write_json, BenchRecord};
use mdes_core::serve::{GraphSnapshot, QuantPolicy, ServingEngine, StreamSession};
use mdes_core::{Mdes, MdesConfig, QuantMode};
use mdes_graph::ScoreRange;
use mdes_lang::WindowConfig;
use mdes_synth::plant::{generate, PlantConfig};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = arg_flag(&args, "smoke");
    let stream_counts: &[usize] = if smoke { &[1, 4, 16] } else { &[1, 4, 16, 64] };

    let plant = generate(&PlantConfig {
        n_sensors: 8,
        days: 8,
        minutes_per_day: 288,
        n_components: 2,
        anomaly_days: vec![],
        precursor_days: vec![],
        ..PlantConfig::default()
    });
    let mut cfg = MdesConfig {
        window: WindowConfig {
            word_len: 5,
            word_stride: 1,
            sent_len: 6,
            sent_stride: 6,
        },
        ..MdesConfig::default()
    };
    cfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);
    let m = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 4),
        plant.days_range(5, 6),
        cfg,
    )
    .expect("fit plant");
    let snapshot = GraphSnapshot::freeze(&m);
    let shared_bytes = snapshot.approx_bytes();
    eprintln!(
        "frozen snapshot: {} models ({} valid), {:.1} KiB shared",
        snapshot.models().len(),
        snapshot.valid_models().len(),
        shared_bytes as f64 / 1024.0
    );

    let ticks = if smoke {
        120
    } else {
        plant.days_range(7, 8).len() - 64
    };

    // One serving configuration: M staggered streams (so the workers never
    // decode byte-identical windows in lockstep) pushed through
    // `push_opt_many`, timing every multiplexed push. Returns the per-push
    // latency samples (ns), per-stream detection counts, session bytes and
    // the bytes the served snapshot's translation memo grew to.
    let run_config = |data: &mdes_synth::plant::PlantData,
                      snap: &GraphSnapshot,
                      streams: usize,
                      ticks: usize| {
        let width = data.traces.len();
        let test = data.days_range(7, 8);
        let engine = ServingEngine::new(snap.clone());
        let mut sessions: Vec<StreamSession> = (0..streams)
            .map(|_| engine.open_session(width).expect("open session"))
            .collect();
        assert_eq!(engine.session_count(), streams);
        let mut detections = vec![0usize; streams];
        let mut latencies = Vec::with_capacity(ticks);
        for i in 0..ticks {
            let samples: Vec<Vec<Option<String>>> = (0..streams)
                .map(|k| {
                    data.sample(test.start + i + k)
                        .into_iter()
                        .map(Some)
                        .collect()
                })
                .collect();
            let push = Instant::now();
            let results = engine.push_opt_many(&mut sessions, &samples);
            latencies.push(push.elapsed().as_secs_f64() * 1e9);
            for (k, r) in results.into_iter().enumerate() {
                if r.expect("push").is_some() {
                    detections[k] += 1;
                }
            }
        }
        assert!(
            detections.iter().all(|&d| d > 0),
            "every stream must keep emitting detections"
        );
        let session_bytes: usize = sessions.iter().map(StreamSession::approx_bytes).sum();
        (
            latencies,
            detections,
            session_bytes,
            engine.store().current().memo_bytes(),
        )
    };

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut prev_per_stream = f64::INFINITY;
    for &streams in stream_counts {
        let started = Instant::now();
        // The n-gram family decodes without a memo, so none grows here.
        let (latencies, detections, session_bytes, _) =
            run_config(&plant, &snapshot, streams, ticks);
        let secs = started.elapsed().as_secs_f64();

        let total = shared_bytes + session_bytes;
        let naive = streams * (shared_bytes + session_bytes / streams);
        let per_stream = total as f64 / streams as f64;
        assert!(
            per_stream < prev_per_stream,
            "per-stream memory must shrink as streams share the snapshot"
        );
        prev_per_stream = per_stream;
        records.push(BenchRecord::from_samples(
            &format!("serving/push_{streams}streams_f32"),
            &latencies,
            Some(total as u64),
        ));

        let throughput = (streams * ticks) as f64 / secs;
        rows.push(vec![
            streams.to_string(),
            format!("{throughput:.0}"),
            detections.iter().sum::<usize>().to_string(),
            format!("{:.1}", total as f64 / 1024.0),
            format!("{:.1}", naive as f64 / 1024.0),
            format!("{:.1}", per_stream / 1024.0),
        ]);
    }

    // Quantized serving: the statistical default above carries no neural
    // weights (quantization passes n-gram tables through unchanged), so the
    // f32-vs-int8 serving comparison runs on a smaller plant trained with
    // the paper's neural family. This measures the end-to-end serving cost
    // of a quantized artifact — windowing + decode + scoring through
    // `push_opt_many` — not just the GEMM kernels.
    let neural_plant = generate(&PlantConfig {
        n_sensors: 3,
        days: 8,
        minutes_per_day: 288,
        n_components: 1,
        anomaly_days: vec![],
        precursor_days: vec![],
        ..PlantConfig::default()
    });
    let mut ncfg = MdesConfig {
        window: WindowConfig {
            word_len: 5,
            word_stride: 1,
            sent_len: 6,
            sent_stride: 6,
        },
        ..MdesConfig::default()
    };
    ncfg.build.translator = mdes_core::TranslatorConfig::neural();
    ncfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);
    ncfg.detection.margin = 5.0;
    let nm = Mdes::fit(
        &neural_plant.traces,
        neural_plant.days_range(1, 2),
        neural_plant.days_range(5, 6),
        ncfg,
    )
    .expect("fit neural plant");
    let nsnap = GraphSnapshot::freeze(&nm);
    let qsnap = nsnap
        .quantize(QuantMode::Int8, &QuantPolicy::default())
        .expect("int8 re-encode");
    let (f32_bytes, q_bytes) = (nsnap.approx_bytes(), qsnap.approx_bytes());
    assert!(
        q_bytes < f32_bytes,
        "int8 must shrink a neural snapshot ({q_bytes} vs {f32_bytes})"
    );

    let largest = *stream_counts.last().expect("non-empty sweep");
    let started = Instant::now();
    let (f32_lat, _, f32_session_bytes, f32_memo) =
        run_config(&neural_plant, &nsnap, largest, ticks);
    let f32_secs = started.elapsed().as_secs_f64();
    records.push(BenchRecord::from_samples(
        &format!("serving/push_{largest}streams_neural_f32"),
        &f32_lat,
        Some((f32_bytes + f32_memo + f32_session_bytes) as u64),
    ));
    let started = Instant::now();
    let (q_lat, _, q_session_bytes, q_memo) = run_config(&neural_plant, &qsnap, largest, ticks);
    let q_secs = started.elapsed().as_secs_f64();
    records.push(BenchRecord::from_samples(
        &format!("serving/push_{largest}streams_neural_int8"),
        &q_lat,
        Some((q_bytes + q_memo + q_session_bytes) as u64),
    ));
    eprintln!(
        "neural serving at {largest} streams: int8 {:.0} samples/s vs f32 {:.0} \
         ({:.2}x), snapshot {:.1} KiB + memo {:.1} KiB shared vs {:.1} KiB + {:.1} KiB",
        (largest * ticks) as f64 / q_secs,
        (largest * ticks) as f64 / f32_secs,
        f32_secs / q_secs,
        q_bytes as f64 / 1024.0,
        q_memo as f64 / 1024.0,
        f32_bytes as f64 / 1024.0,
        f32_memo as f64 / 1024.0,
    );

    let json_path = write_json("BENCH_serving.json", &records);
    eprintln!("wrote {}", json_path.display());

    print_table(
        &[
            "streams",
            "samples/s",
            "detections",
            "total KiB",
            "naive KiB",
            "KiB/stream",
        ],
        &rows,
    );
    write_csv(
        "serving.csv",
        &[
            "streams",
            "samples_per_sec",
            "detections",
            "total_kib",
            "naive_kib",
            "kib_per_stream",
        ],
        &rows,
    );
    println!("serving scaling OK: memory grows sub-linearly in stream count");
}
