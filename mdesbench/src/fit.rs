//! Raw traces → a snapshot accepted by `ModelStore::publish`, timed step by
//! step: prescreen → sharded sweep (fresh MDCK checkpoint dir) →
//! `Mdes::from_parts` → `freeze` → `snapshot_to_bytes` →
//! `snapshot_from_bytes` → `publish`.

use crate::cpu::{Spent, Stopwatch};
use crate::trace::Tracer;
use crate::workload::{Workload, DEV_DAYS, THREADS, TRAIN_DAYS};
use mdes_core::{
    build_graph_sharded, prescreen_pairs, snapshot_from_bytes, snapshot_to_bytes, DetectionConfig,
    GraphBuildConfig, GraphSnapshot, Mdes, MdesConfig, ModelStore, PrescreenConfig,
    ShardedSweepConfig,
};
use mdes_lang::LanguagePipeline;
use mdes_synth::plant::PlantData;
use std::path::Path;

/// Sweep shard size, as in `exp_scalability`'s smoke run.
const PAIRS_PER_SHARD: usize = 64;

pub struct Published {
    pub bytes: Vec<u8>,
    pub snapshot: GraphSnapshot,
    /// Raw traces to the snapshot `publish` accepted.
    pub fit: Spent,
    pub total_pairs: usize,
    pub survivors: usize,
    pub trained: usize,
    pub quarantined: usize,
    pub sensors: usize,
}

/// Fits and publishes the workload's snapshot; checkpoints go under `ckpt`,
/// which must not exist yet.
pub fn fit_and_publish(
    w: &Workload,
    plant: &PlantData,
    ckpt: &Path,
    tracer: &Tracer,
) -> Result<Published, String> {
    let train = plant.days_range(TRAIN_DAYS.0, TRAIN_DAYS.1);
    let dev = plant.days_range(DEV_DAYS.0, DEV_DAYS.1);
    let started = Stopwatch::start();
    let root = tracer.span("fit", None, None);
    let parent = root.id();

    let lang = {
        let _s = tracer.span("lang.fit", parent, None);
        LanguagePipeline::fit(&plant.traces, train.clone(), w.window)
            .map_err(|e| format!("language fit: {e}"))?
    };
    let screened = {
        let _s = tracer.span("prescreen", parent, None);
        let cfg = PrescreenConfig {
            range: w.band,
            margin: w.margin,
            threads: THREADS,
            ..PrescreenConfig::default()
        };
        prescreen_pairs(&lang, &plant.traces, train.clone(), dev.clone(), &cfg)
            .map_err(|e| format!("prescreen: {e}"))?
    };
    let survivors = screened.survivors();
    let build = GraphBuildConfig {
        translator: w.translator.clone(),
        threads: THREADS,
        ..GraphBuildConfig::default()
    };
    let (trained, _report) = {
        let _s = tracer.span("sweep", parent, None);
        let cfg = ShardedSweepConfig {
            build: build.clone(),
            pairs_per_shard: PAIRS_PER_SHARD,
            checkpoint_dir: Some(ckpt.to_string_lossy().into_owned()),
            checkpoint_every: 16,
        };
        build_graph_sharded(&lang, &plant.traces, train, dev, &survivors, &cfg)
            .map_err(|e| format!("sharded sweep: {e}"))?
    };
    let (n_trained, n_quarantined) = (trained.models().len(), trained.quarantined().len());
    let sensors = lang.sensor_count();
    let mdes = {
        let _s = tracer.span("from_parts", parent, None);
        let cfg = MdesConfig {
            window: w.window,
            build,
            detection: DetectionConfig::default().with_valid_range(w.band),
        };
        Mdes::from_parts(cfg, lang, trained).map_err(|e| format!("from_parts: {e}"))?
    };
    let snapshot = {
        let _s = tracer.span("freeze", parent, None);
        GraphSnapshot::freeze(&mdes)
    };
    drop(mdes);
    let bytes = {
        let _s = tracer.span("snapshot.encode", parent, None);
        snapshot_to_bytes(&snapshot).map_err(|e| format!("snapshot encode: {e}"))?
    };
    let received = {
        let _s = tracer.span("snapshot.decode", parent, None);
        snapshot_from_bytes(&bytes).map_err(|e| format!("snapshot decode: {e}"))?
    };
    {
        let _s = tracer.span("publish", parent, None);
        let store = ModelStore::new(snapshot.clone());
        store
            .publish(received)
            .map_err(|e| format!("publish refused the fitted snapshot: {e}"))?;
    }
    drop(root);
    Ok(Published {
        bytes,
        snapshot,
        fit: started.spent(),
        total_pairs: screened.total_pairs(),
        survivors: survivors.len(),
        trained: n_trained,
        quarantined: n_quarantined,
        sensors,
    })
}

/// The fit's own correctness gate: every surviving pair was either trained
/// or quarantined, and the artifact round-trips MDSN byte for byte.
pub fn check(p: &Published) -> Vec<String> {
    let mut failures = Vec::new();
    if p.trained + p.quarantined != p.survivors {
        failures.push(format!(
            "sweep accounting: trained {} + quarantined {} != survivors {}",
            p.trained, p.quarantined, p.survivors
        ));
    }
    match snapshot_from_bytes(&p.bytes).and_then(|s| snapshot_to_bytes(&s)) {
        Ok(again) if again == p.bytes => {}
        Ok(_) => failures.push("MDSN round trip changed the artifact's bytes".to_owned()),
        Err(e) => failures.push(format!("MDSN round trip failed: {e}")),
    }
    failures
}

/// `setup_s` for ingest workloads: trace generation, then the language fit.
pub fn ingest_setup(w: &Workload) -> Result<Spent, String> {
    let started = Stopwatch::start();
    let plant = w.generate();
    let train = plant.days_range(TRAIN_DAYS.0, TRAIN_DAYS.1);
    let lang = LanguagePipeline::fit(&plant.traces, train, w.window)
        .map_err(|e| format!("language fit: {e}"))?;
    std::hint::black_box(&lang);
    Ok(started.spent())
}
