//! Error type for the neural substrate.

use std::error::Error;
use std::fmt;

/// Errors reported by model training and inference entry points.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum NnError {
    /// A training corpus contained no sentence pairs.
    EmptyCorpus,
    /// Sequences in one batch had inconsistent lengths.
    RaggedSequences {
        /// Length of the first sequence in the batch.
        expected: usize,
        /// Offending length encountered later in the batch.
        found: usize,
    },
    /// A token id was outside the configured vocabulary.
    TokenOutOfRange {
        /// The offending token id.
        token: usize,
        /// The vocabulary size it must be below.
        vocab: usize,
    },
    /// A sequence of length zero was provided.
    EmptySequence,
    /// The training loss became NaN or infinite — the optimization diverged
    /// (typically an oversized learning rate or a degenerate batch). The
    /// model parameters are unusable after this error; retrain from a fresh
    /// initialization.
    Diverged {
        /// Mini-batch update index at which the non-finite loss appeared.
        step: usize,
    },
    /// A weight offered for quantization was NaN or infinite. A non-finite
    /// row maximum would poison the whole row's int8 scale (and f16 encodes
    /// non-finite values as saturated finite ones), so quantization refuses
    /// the model instead of producing a silently-wrong artifact.
    NonFiniteWeight,
    /// A [`Seq2SeqConfig`](crate::Seq2SeqConfig) hyper-parameter is out of
    /// range (a zero dimension, a dropout probability outside `[0, 1)`, or a
    /// learning rate or gradient clip that is not finite and positive), so
    /// no model can be trained with it.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Its value and the range it must lie in.
        detail: String,
    },
    /// A frozen [`ModelSpec`](crate::ModelSpec) is internally inconsistent
    /// (a weight of the wrong shape, an empty or mixed layer stack, a
    /// begin-of-sentence token outside the target vocabulary), so decoding
    /// it would index out of bounds. Reported by
    /// [`ModelSpec::validate`](crate::ModelSpec::validate).
    MalformedSpec {
        /// The offending field, e.g. `decoder[0].w` or `bos`.
        field: String,
        /// What it holds and what it must hold.
        detail: String,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::EmptyCorpus => write!(f, "training corpus contains no sentence pairs"),
            NnError::RaggedSequences { expected, found } => {
                write!(
                    f,
                    "inconsistent sequence lengths in batch: expected {expected}, found {found}"
                )
            }
            NnError::TokenOutOfRange { token, vocab } => {
                write!(f, "token id {token} out of vocabulary range {vocab}")
            }
            NnError::EmptySequence => write!(f, "sequence of length zero provided"),
            NnError::Diverged { step } => {
                write!(f, "training diverged: non-finite loss at step {step}")
            }
            NnError::NonFiniteWeight => {
                write!(f, "non-finite weight offered for quantization")
            }
            NnError::InvalidConfig { field, detail } => {
                write!(f, "invalid seq2seq config: {field} {detail}")
            }
            NnError::MalformedSpec { field, detail } => {
                write!(f, "malformed model spec: {field} {detail}")
            }
        }
    }
}

impl Error for NnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let errs = [
            NnError::EmptyCorpus,
            NnError::RaggedSequences {
                expected: 3,
                found: 5,
            },
            NnError::TokenOutOfRange { token: 9, vocab: 4 },
            NnError::EmptySequence,
            NnError::Diverged { step: 7 },
            NnError::NonFiniteWeight,
            NnError::InvalidConfig {
                field: "dropout",
                detail: "1 must be in [0, 1)".into(),
            },
            NnError::MalformedSpec {
                field: "bos".into(),
                detail: "is 9, not below the target vocabulary 4".into(),
            },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }
}
