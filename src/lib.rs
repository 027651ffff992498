//! # mdes
//!
//! A Rust implementation of *Mining Multivariate Discrete Event Sequences
//! for Knowledge Discovery and Anomaly Detection* (Nie, Xu, Alter, Chen,
//! Smirni — DSN 2020).
//!
//! The framework views each sensor's discrete event sequence as a "natural
//! language", trains a translation model per ordered sensor pair, and uses
//! translation quality (BLEU) as the strength of the pairwise relationship.
//! The resulting *multivariate relationship graph* supports:
//!
//! * **knowledge discovery** — popular sensors (system-health indicators),
//!   sensor clusters (physical components) via subgraphs and random-walk
//!   community detection;
//! * **anomaly detection** — timestamps where trained relationships break;
//! * **fault diagnosis** — the broken-edge clusters that localize a fault.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `mdes-core` | translators, Algorithms 1 & 2, diagnosis, [`core::Mdes`] facade |
//! | [`lang`] | `mdes-lang` | encryption, words/sentences, vocabularies, discretization |
//! | [`bleu`] | `mdes-bleu` | corpus- and sentence-level BLEU |
//! | [`graph`] | `mdes-graph` | relationship graph, subgraphs, Walktrap, DOT export |
//! | [`nn`] | `mdes-nn` | autodiff, LSTM, seq2seq with attention |
//! | [`ml`] | `mdes-ml` | random forest, one-class SVM, k-means, metrics |
//! | [`synth`] | `mdes-synth` | plant and HDD workload generators |
//! | [`obs`] | `mdes-obs` | tracing spans, counters, latency histograms, JSONL sink |
//! | [`net`] | `mdes-serve` | network serving daemon: framed ingest + text admin planes |
//!
//! # Quickstart
//!
//! ```
//! use mdes::core::{Mdes, MdesConfig};
//! use mdes::lang::{RawTrace, WindowConfig};
//!
//! # fn main() -> Result<(), mdes::core::CoreError> {
//! let mk = |phase: usize| RawTrace::new(
//!     format!("s{phase}"),
//!     (0..600)
//!         .map(|t| if ((t + phase) / 5).is_multiple_of(2) { "on" } else { "off" }.to_owned())
//!         .collect(),
//! );
//! let traces = vec![mk(0), mk(2)];
//! let mut cfg = MdesConfig {
//!     window: WindowConfig { word_len: 4, word_stride: 1, sent_len: 5, sent_stride: 5 },
//!     ..MdesConfig::default()
//! };
//! // Toy sensors translate near-perfectly; widen the validity range so
//! // their models participate (the default is the paper's [80, 90)).
//! cfg.detection.valid_range = mdes::graph::ScoreRange::closed(60.0, 100.0);
//! let mdes = Mdes::fit(&traces, 0..300, 300..450, cfg)?;
//! let result = mdes.snapshot().detect_range(&traces, 450..600)?;
//! assert!(result.scores.iter().all(|s| (0.0..=1.0).contains(s)));
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for full scenarios (plant monitoring, disk
//! failure prediction, knowledge discovery) and `crates/bench` for the
//! binaries regenerating every table and figure of the paper.

#![warn(missing_docs)]

pub use mdes_bleu as bleu;
pub use mdes_core as core;
pub use mdes_graph as graph;
pub use mdes_lang as lang;
pub use mdes_ml as ml;
pub use mdes_nn as nn;
pub use mdes_obs as obs;
pub use mdes_serve as net;
pub use mdes_synth as synth;
