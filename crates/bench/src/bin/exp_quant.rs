//! Experiment — quantized serving artifact size and decode throughput at
//! plant scale (DESIGN.md §13).
//!
//! Builds the serving artifact shape of the paper's large plant: a language
//! pipeline fitted on a 128-sensor synthetic plant plus one real-sized
//! frozen seq2seq per adjacent sensor pair (127 pair models). The weights
//! stay untrained — artifact size and decode cost do not depend on the
//! weight values — which keeps the experiment runnable in CI where fitting
//! 127 neural models would not be.
//!
//! Per weight encoding (f32 / f16 / int8) it measures:
//!
//! 1. serialized MDSN artifact bytes ([`snapshot_to_bytes`]), the thing a
//!    daemon uploads and hot-swaps;
//! 2. in-memory weight bytes ([`GraphSnapshot::approx_bytes`]);
//! 3. streaming decode throughput: each round sweeps every pair model over
//!    one batch, so the full weight set streams through the cache per round
//!    — the serving worker's regime, where halving the weight bytes is a
//!    bandwidth win.
//!
//! The run *asserts* the artifact contract CI's bench-smoke relies on: the
//! int8 artifact is at most half the f32 artifact's serialized size, both
//! quantized artifacts round-trip through MDSN bytes with their encoding
//! intact, and every encoding decodes the same sweep without error.
//! Latency distributions land in `results/BENCH_quant.json`.

use mdes_bench::report::{arg_flag, print_table, write_csv, write_json, BenchRecord};
use mdes_core::checkpoint::{snapshot_from_bytes, snapshot_to_bytes};
use mdes_core::serve::{GraphSnapshot, QuantPolicy};
use mdes_core::{DetectionConfig, FrozenNmt, FrozenPairModel, FrozenTranslator, QuantMode};
use mdes_graph::{RelGraph, ScoreRange};
use mdes_lang::{LanguagePipeline, Vocab, WindowConfig};
use mdes_nn::{InferArena, Seq2Seq, Seq2SeqConfig};
use mdes_synth::plant::{generate, PlantConfig};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = arg_flag(&args, "smoke");
    let (n_sensors, rounds) = if smoke { (32, 3) } else { (128, 8) };

    let plant = generate(&PlantConfig {
        n_sensors,
        days: 4,
        minutes_per_day: 288,
        anomaly_days: vec![],
        precursor_days: vec![],
        ..PlantConfig::default()
    });
    let lang = LanguagePipeline::fit(
        &plant.traces,
        plant.days_range(1, 3),
        WindowConfig {
            word_len: 5,
            word_stride: 1,
            sent_len: 6,
            sent_stride: 6,
        },
    )
    .expect("fit language pipeline");
    // The pipeline drops sensors constant over the fit range; a large plant
    // typically loses a couple. Model indices refer to surviving languages.
    let n_langs = lang.languages().len();
    assert!(
        n_langs >= n_sensors - n_sensors / 8,
        "unexpectedly many constant sensors ({n_langs} of {n_sensors} survive)"
    );

    // One real-sized pair model per adjacent surviving-sensor pair — the
    // chain topology gives n-1 models without an Algorithm 1 sweep.
    let spec_cfg = Seq2SeqConfig {
        embed_dim: 64,
        hidden: 128,
        ..Seq2SeqConfig::default()
    };
    let names: Vec<String> = lang.languages().iter().map(|l| l.name.clone()).collect();
    let mut graph = RelGraph::new(names);
    let models: Vec<FrozenPairModel> = (0..n_langs - 1)
        .map(|i| {
            graph.set_score(i, i + 1, 50.0);
            let sv = lang.languages()[i].vocab.size();
            let tv = lang.languages()[i + 1].vocab.size();
            let spec = Seq2Seq::new(sv, tv, Vocab::BOS as usize, spec_cfg.clone()).freeze();
            FrozenPairModel::new(
                i,
                i + 1,
                50.0,
                0.0,
                FrozenTranslator::Nmt(FrozenNmt::new(spec)),
            )
        })
        .collect();
    let detection = DetectionConfig {
        valid_range: ScoreRange::closed(0.0, 100.0),
        ..DetectionConfig::default()
    };
    let f32_snap = GraphSnapshot::from_frozen_parts(graph, lang.clone(), detection, models);
    eprintln!(
        "{} pair models ({} valid), {:.1} MiB resident f32",
        f32_snap.models().len(),
        f32_snap.valid_models().len(),
        f32_snap.approx_bytes() as f64 / (1024.0 * 1024.0)
    );

    // Per-model decode batches: 4 sentences of in-vocab tokens each. The
    // same batches drive every encoding, so rounds are comparable.
    let batches: Vec<Vec<Vec<u32>>> = (0..n_langs - 1)
        .map(|i| {
            let sv = lang.languages()[i].vocab.size() as u32;
            (0..4u32)
                .map(|b| (0..6u32).map(|t| (b * 7 + t * 3) % sv).collect())
                .collect()
        })
        .collect();

    // Sweeps every pair model once per round; returns per-round latencies
    // (ns) and the total decoded sentence count as a sanity check.
    let sweep = |snap: &GraphSnapshot, rounds: usize| {
        let mut arena = InferArena::new();
        let mut latencies = Vec::with_capacity(rounds);
        let mut decoded = 0usize;
        for _ in 0..rounds {
            let round = Instant::now();
            for (k, model) in snap.models().iter().enumerate() {
                let srcs: Vec<&[u32]> = batches[k].iter().map(Vec::as_slice).collect();
                let out = model.translator().translate_batch(&srcs, 6, &mut arena);
                assert_eq!(out.len(), srcs.len(), "one output per input");
                decoded += out.len();
            }
            latencies.push(round.elapsed().as_secs_f64() * 1e9);
        }
        (latencies, decoded)
    };

    let policy = QuantPolicy::default();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut f32_wire = 0usize;
    let mut f32_ms = 0.0f64;
    for mode in [QuantMode::F32, QuantMode::F16, QuantMode::Int8] {
        let snap = if mode == QuantMode::F32 {
            f32_snap.clone()
        } else {
            f32_snap.quantize(mode, &policy).expect("re-encode")
        };
        let wire = snapshot_to_bytes(&snap).expect("serialize").len();
        if mode != QuantMode::F32 {
            // The artifact must survive its own transport encoding.
            let back = snapshot_from_bytes(&snapshot_to_bytes(&snap).expect("serialize"))
                .expect("round-trip");
            assert_eq!(back.quant_mode(), Some(mode), "encoding lost in transit");
            assert_eq!(back.models().len(), snap.models().len());
        }

        sweep(&snap, 1); // warm: packed-weight caches, page-in
        let (latencies, decoded) = sweep(&snap, rounds);
        assert_eq!(decoded, rounds * 4 * (n_langs - 1));
        let record = BenchRecord::from_samples(
            &format!("quant/sweep{}models_{mode}", n_langs - 1),
            &latencies,
            Some(wire as u64),
        );
        let ms = record.mean_ns / 1e6;
        if mode == QuantMode::F32 {
            (f32_wire, f32_ms) = (wire, ms);
        }
        rows.push(vec![
            mode.to_string(),
            format!("{:.2}", wire as f64 / (1024.0 * 1024.0)),
            format!("{:.2}", snap.approx_bytes() as f64 / (1024.0 * 1024.0)),
            format!("{ms:.1}"),
            format!("{:.2}", f32_ms / ms),
        ]);
        records.push(record);
        if mode == QuantMode::Int8 {
            assert!(
                wire * 2 <= f32_wire,
                "int8 artifact must be at most half the f32 artifact \
                 ({wire} vs {f32_wire} serialized bytes)"
            );
        }
    }

    print_table(
        &[
            "encoding",
            "MDSN MiB",
            "resident MiB",
            "ms/round",
            "speedup",
        ],
        &rows,
    );
    write_csv(
        "quant.csv",
        &[
            "encoding",
            "mdsn_mib",
            "resident_mib",
            "ms_per_round",
            "speedup_vs_f32",
        ],
        &rows,
    );
    let json_path = write_json("BENCH_quant.json", &records);
    eprintln!("wrote {}", json_path.display());
    println!("quantized artifact contract OK: int8 wire size <= 1/2 f32, encodings round-trip");
}
