//! `mdes-core` — the analytics framework of *Mining Multivariate Discrete
//! Event Sequences for Knowledge Discovery and Anomaly Detection* (DSN 2020).
//!
//! The framework treats each sensor's discrete event sequence as a natural
//! language and quantifies pairwise sensor relationships by how well one
//! language translates into another:
//!
//! 1. [`train_translator`] / [`FrozenPairModel`] — directional pair models:
//!    the paper's seq2seq LSTM with attention ([`TranslatorConfig::Nmt`])
//!    or a fast statistical surrogate ([`TranslatorConfig::Ngram`]);
//! 2. [`build_graph`] (Algorithm 1) — trains every ordered pair and
//!    assembles the multivariate relationship graph;
//!    [`build_graph_sharded`] is the same sweep over an explicit pair list
//!    (the [`prescreen_pairs`] survivors, or a stale set), streamed and
//!    checkpointed shard by shard;
//! 3. [`GraphSnapshot::detect`] (Algorithm 2) — flags timestamps whose
//!    test BLEU drops below the trained score for valid pairs, yielding the
//!    anomaly score `a_t` and alert sets `W_t`;
//! 4. [`diagnose`] — projects alerts onto the local subgraph to locate
//!    faulty sensor clusters;
//! 5. [`Mdes`] — the end-to-end facade: fits the language pipeline and runs
//!    Algorithm 1 into one [`GraphSnapshot`], the immutable artifact that
//!    detection, knowledge discovery and serving all read, and that
//!    [`write_snapshot`] persists as MDSN;
//! 6. [`ServingEngine`] — the one streaming API (the paper's online
//!    testing phase): [`ServingEngine::open_session`] opens a stream and
//!    [`ServingEngine::push_opt`] / [`ServingEngine::push_opt_many`] score
//!    each completed window; many concurrent streams share one snapshot,
//!    and [`ServingEngine::store`] hot-swaps retrained snapshots
//!    mid-stream without dropping buffered windows;
//! 7. [`DriftMonitor`] / [`build_graph_sharded`] / [`GraphSnapshot::graft`] /
//!    [`ModelStore::start_canary`] — the continuous-learning loop: flag
//!    stale pairs from per-window broken rates, retrain only those pairs,
//!    splice them into the live artifact, and canary the result against
//!    the incumbent before promotion (see [`lifecycle`]).
//!
//! # Example
//!
//! ```
//! use mdes_core::{Mdes, MdesConfig};
//! use mdes_lang::{RawTrace, WindowConfig};
//!
//! # fn main() -> Result<(), mdes_core::CoreError> {
//! // Two coupled square-wave sensors.
//! let mk = |phase: usize| RawTrace::new(
//!     format!("s{phase}"),
//!     (0..600)
//!         .map(|t| if ((t + phase) / 5).is_multiple_of(2) { "on" } else { "off" }.to_owned())
//!         .collect(),
//! );
//! let traces = vec![mk(0), mk(2)];
//! let cfg = MdesConfig {
//!     window: WindowConfig { word_len: 4, word_stride: 1, sent_len: 5, sent_stride: 5 },
//!     ..MdesConfig::default()
//! };
//! let mdes = Mdes::fit(&traces, 0..300, 300..450, cfg)?;
//! assert!(mdes.graph().score(0, 1).expect("edge") > 80.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod algorithm1;
pub mod algorithm2;
pub mod checkpoint;
pub mod checksum;
pub mod diagnosis;
mod error;
pub mod lifecycle;
mod memo;
pub mod online;
mod pipeline;
mod pool;
pub mod prescreen;
pub mod serve;
pub mod sharded;
pub mod translator;

pub use algorithm1::{build_graph, FailurePolicy, GraphBuildConfig, QuarantinedPair, TrainedGraph};
pub use algorithm2::{BrokenRule, DetectionConfig, DetectionResult};
pub use checkpoint::{
    read_checkpoint, read_snapshot, snapshot_from_bytes, snapshot_to_bytes, write_checkpoint,
    write_snapshot, CheckpointData,
};
pub use diagnosis::{diagnose, propagation_timeline, Diagnosis, PropagationStep};
pub use error::CoreError;
pub use lifecycle::{DistSummary, DriftMonitor, DriftPolicy, DriftReport, PairDrift, ScoreDist};
pub use online::{DegradationConfig, OnlineDetection};
pub use pipeline::{Mdes, MdesConfig};
pub use prescreen::{prescreen_pairs, PrescreenConfig, PrescreenResult, PrescreenedPair};
pub use serve::{
    CanaryConfig, CanaryDecision, CanaryStatus, GraphSnapshot, ModelStore, QuantCalibration,
    QuantPolicy, ServingEngine, StreamSession,
};
pub use sharded::{build_graph_sharded, ShardedSweepConfig, ShardedSweepReport};

pub use mdes_nn::QuantMode;
pub use translator::{
    train_translator, FrozenNmt, FrozenPairModel, FrozenTranslator, NgramConfig, NgramTranslator,
    TranslatorConfig,
};
