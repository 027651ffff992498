//! `mdes-nn` — a minimal, dependency-light neural substrate for the `mdes`
//! framework.
//!
//! The crate provides everything the paper's neural machine translation model
//! needs, built from scratch:
//!
//! * [`Matrix`] — dense row-major `f32` matrices,
//! * [`Tape`] / [`ParamSet`] — define-by-run reverse-mode autodiff,
//! * [`LstmLayer`] / [`LstmStack`] — LSTM recurrences on the tape,
//! * [`Adam`] / [`Sgd`] — optimizers,
//! * [`Seq2Seq`] — encoder–decoder LSTM with Luong global attention,
//!   trained with teacher forcing,
//! * [`InferArena`] — the tape-free decoder: greedy or beam translation of a
//!   frozen [`ModelSpec`].
//!
//! # Example
//!
//! Train a tiny model that learns to shift every token by one, freeze it,
//! and decode the frozen weights:
//!
//! ```
//! use mdes_nn::{InferArena, Seq2Seq, Seq2SeqConfig};
//!
//! # fn main() -> Result<(), mdes_nn::NnError> {
//! let pairs = vec![
//!     (vec![2, 3, 4], vec![3, 4, 5]),
//!     (vec![4, 2, 3], vec![5, 3, 4]),
//! ];
//! let cfg = Seq2SeqConfig { train_steps: 30, ..Seq2SeqConfig::default() };
//! let mut model = Seq2Seq::new(6, 6, 1, cfg);
//! model.fit(&pairs)?;
//! let spec = model.freeze();
//! let src: &[usize] = &[2, 3, 4];
//! spec.check_src(&[src], 3)?;
//! let hyps = InferArena::new().translate_batch(&spec, &[src], 3);
//! assert_eq!(hyps[0].len(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
pub mod gru;
pub mod infer;
mod kernels;
pub mod lstm;
pub mod matrix;
pub mod optim;
pub mod quant;
pub mod reference;
pub mod seq2seq;
pub mod tape;

pub use error::NnError;
pub use gru::{GruLayer, GruStack};
pub use infer::{InferArena, InferState, ModelSpec, PackedCell, Token};
pub use lstm::{LstmLayer, LstmStack};
pub use matrix::Matrix;
pub use optim::{Adam, Sgd};
pub use quant::{QMatrix, QuantMode, QuantReport};
pub use seq2seq::{AttentionKind, CellKind, Seq2Seq, Seq2SeqConfig};
pub use tape::{ParamSet, Tape, TensorId};
