//! Error type for the framework crate.

use mdes_lang::LangError;
use mdes_nn::NnError;
use std::error::Error;
use std::fmt;

/// Errors reported by the `mdes` framework.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Error from the language pipeline.
    Lang(LangError),
    /// Error from the neural substrate.
    Nn(NnError),
    /// Fewer than two sensors survive filtering — no pairs to model.
    TooFewSensors {
        /// Sensors available after filtering.
        available: usize,
    },
    /// The aligned corpora have inconsistent sentence counts.
    MisalignedCorpora {
        /// Sentence count of the first sensor.
        expected: usize,
        /// Offending count.
        found: usize,
    },
    /// A corpus segment produced no sentences.
    EmptyCorpus,
    /// No trained model's score falls in the configured validity range.
    NoValidModels,
    /// A stream was opened over fewer sensors than the model references.
    WidthMismatch {
        /// Sensors per sample offered by the caller.
        width: usize,
        /// Minimum width the fitted model requires (largest original sensor
        /// index plus one).
        needed: usize,
    },
    /// Training of one sensor pair failed (divergence after all retries, or
    /// a worker panic) and the pair was quarantined. Under
    /// [`FailurePolicy::FailFast`](crate::algorithm1::FailurePolicy) this
    /// aborts the sweep; under `Degrade` it is recorded on the graph instead.
    PairQuarantined {
        /// Source sensor index of the failed pair.
        src: usize,
        /// Target sensor index of the failed pair.
        dst: usize,
        /// The underlying training error, when the failure was a typed error
        /// rather than a panic.
        source: Option<Box<CoreError>>,
        /// Human-readable failure description (panic payload or error text).
        detail: String,
    },
    /// A worker of the crate's pool died: a panic escaped the item it was
    /// running, so that item never produced an outcome. In the Algorithm 1
    /// sweep this means a panic *outside* the per-pair
    /// [`std::panic::catch_unwind`] isolation (slot merge, checkpoint
    /// plumbing); under
    /// [`FailurePolicy::FailFast`](crate::algorithm1::FailurePolicy) the
    /// sweep aborts with this error, under `Degrade` the orphaned pairs are
    /// quarantined instead and the sweep completes. In Algorithm 2 (a
    /// panicking decode) every job of the round gets this error; in the
    /// prescreen the whole screen does.
    WorkerLost {
        /// Work items (sweep pairs, detection models, prescreen pairs) left
        /// without an outcome when the worker pool was joined.
        lost: usize,
        /// Panic payload text of the first lost worker.
        detail: String,
    },
    /// Too many pairs were quarantined for the sweep to meet the configured
    /// `Degrade` policy's minimum success fraction.
    TooManyFailedPairs {
        /// Number of quarantined pairs.
        failed: usize,
        /// Total pairs attempted.
        total: usize,
    },
    /// A snapshot offered to [`ModelStore::publish`](crate::serve::ModelStore::publish)
    /// is incompatible with the one currently being served (different
    /// windowing, or a wider minimum sensor width than open sessions were
    /// validated against), so hot-swapping it would corrupt live streams.
    IncompatibleSnapshot {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A quantized serving artifact drifted further from its f32 original
    /// than the policy allows — at quantization time (weight error measured
    /// by [`GraphSnapshot::quantize`](crate::serve::GraphSnapshot::quantize),
    /// score drift by `quantize_calibrated`) or at publish time (a snapshot
    /// whose recorded calibration violates its own recorded bound).
    QuantizationDrift {
        /// Which measurement exceeded its bound (`"weight error"` or
        /// `"score drift"`).
        metric: String,
        /// The measured drift.
        observed: f64,
        /// The bound it had to stay within.
        bound: f64,
    },
    /// A sweep checkpoint could not be written, read, or validated.
    Checkpoint {
        /// Checkpoint file path.
        path: String,
        /// What went wrong (I/O error text, corrupt header, fingerprint
        /// mismatch, …).
        detail: String,
    },
    /// The canary protocol was violated: a second canary started while one
    /// is active, an invalid [`CanaryConfig`](crate::serve::CanaryConfig),
    /// or a candidate with no valid models (whose shadow scores would be
    /// errors, never samples).
    Canary {
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl CoreError {
    /// A stable machine-readable code per variant (snake_case), used by
    /// observability events (`serve.publish_rejected`) and the admin plane
    /// so operators can aggregate refusals without parsing display text.
    pub fn code(&self) -> &'static str {
        match self {
            CoreError::Lang(_) => "lang",
            CoreError::Nn(_) => "nn",
            CoreError::TooFewSensors { .. } => "too_few_sensors",
            CoreError::MisalignedCorpora { .. } => "misaligned_corpora",
            CoreError::EmptyCorpus => "empty_corpus",
            CoreError::NoValidModels => "no_valid_models",
            CoreError::WidthMismatch { .. } => "width_mismatch",
            CoreError::PairQuarantined { .. } => "pair_quarantined",
            CoreError::WorkerLost { .. } => "worker_lost",
            CoreError::TooManyFailedPairs { .. } => "too_many_failed_pairs",
            CoreError::IncompatibleSnapshot { .. } => "incompatible_snapshot",
            CoreError::QuantizationDrift { .. } => "quantization_drift",
            CoreError::Checkpoint { .. } => "checkpoint",
            CoreError::Canary { .. } => "canary",
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Lang(e) => write!(f, "language pipeline error: {e}"),
            CoreError::Nn(e) => write!(f, "neural model error: {e}"),
            CoreError::TooFewSensors { available } => {
                write!(
                    f,
                    "need at least two sensors after filtering, have {available}"
                )
            }
            CoreError::MisalignedCorpora { expected, found } => {
                write!(
                    f,
                    "misaligned corpora: expected {expected} sentences, found {found}"
                )
            }
            CoreError::EmptyCorpus => write!(f, "corpus segment produced no sentences"),
            CoreError::NoValidModels => {
                write!(f, "no model score falls inside the validity range")
            }
            CoreError::WidthMismatch { width, needed } => {
                write!(
                    f,
                    "sample width {width} smaller than the model's required width {needed}"
                )
            }
            CoreError::PairQuarantined {
                src, dst, detail, ..
            } => {
                write!(f, "pair ({src} -> {dst}) quarantined: {detail}")
            }
            CoreError::WorkerLost { lost, detail } => {
                write!(
                    f,
                    "worker lost ({lost} item(s) without an outcome): {detail}"
                )
            }
            CoreError::TooManyFailedPairs { failed, total } => {
                write!(
                    f,
                    "too many failed pairs: {failed} of {total} quarantined, below the \
                     configured minimum success fraction"
                )
            }
            CoreError::IncompatibleSnapshot { detail } => {
                write!(f, "incompatible snapshot rejected: {detail}")
            }
            CoreError::QuantizationDrift {
                metric,
                observed,
                bound,
            } => {
                write!(
                    f,
                    "quantization {metric} {observed} exceeds the allowed bound {bound}"
                )
            }
            CoreError::Checkpoint { path, detail } => {
                write!(f, "checkpoint error at {path}: {detail}")
            }
            CoreError::Canary { detail } => {
                write!(f, "canary protocol violation: {detail}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Lang(e) => Some(e),
            CoreError::Nn(e) => Some(e),
            CoreError::PairQuarantined {
                source: Some(e), ..
            } => Some(&**e),
            _ => None,
        }
    }
}

impl From<LangError> for CoreError {
    fn from(e: LangError) -> Self {
        CoreError::Lang(e)
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = CoreError::from(LangError::EmptyInput);
        assert!(e.to_string().contains("language pipeline"));
        assert!(e.source().is_some());
        let e = CoreError::TooFewSensors { available: 1 };
        assert!(e.source().is_none());
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn quarantine_chains_its_source() {
        let inner = CoreError::from(NnError::Diverged { step: 3 });
        let e = CoreError::PairQuarantined {
            src: 1,
            dst: 2,
            source: Some(Box::new(inner.clone())),
            detail: inner.to_string(),
        };
        assert!(e.to_string().contains("(1 -> 2)"));
        assert!(e.to_string().contains("diverged"));
        let chained = e.source().expect("source");
        assert!(chained.to_string().contains("diverged"));
        // A panic-born quarantine has no typed source but still displays.
        let p = CoreError::PairQuarantined {
            src: 0,
            dst: 3,
            source: None,
            detail: "worker panicked: boom".to_owned(),
        };
        assert!(p.source().is_none());
        assert!(p.to_string().contains("boom"));
    }

    #[test]
    fn new_failure_modes_display() {
        for e in [
            CoreError::WidthMismatch {
                width: 2,
                needed: 5,
            },
            CoreError::TooManyFailedPairs {
                failed: 9,
                total: 12,
            },
            CoreError::WorkerLost {
                lost: 3,
                detail: "panicked in merge".to_owned(),
            },
            CoreError::Checkpoint {
                path: "/tmp/x.ckpt".to_owned(),
                detail: "bad checksum".to_owned(),
            },
            CoreError::IncompatibleSnapshot {
                detail: "window config changed".to_owned(),
            },
            CoreError::QuantizationDrift {
                metric: "score drift".to_owned(),
                observed: 0.4,
                bound: 0.25,
            },
            CoreError::Canary {
                detail: "a canary is already active".to_owned(),
            },
        ] {
            assert!(!e.to_string().is_empty());
            assert!(e.source().is_none());
        }
    }

    #[test]
    fn codes_are_stable_snake_case() {
        assert_eq!(CoreError::EmptyCorpus.code(), "empty_corpus");
        assert_eq!(
            CoreError::IncompatibleSnapshot {
                detail: String::new()
            }
            .code(),
            "incompatible_snapshot"
        );
        assert_eq!(
            CoreError::Canary {
                detail: String::new()
            }
            .code(),
            "canary"
        );
        assert_eq!(CoreError::from(LangError::EmptyInput).code(), "lang");
        // Codes feed JSONL aggregation: lowercase identifiers only.
        for e in [
            CoreError::NoValidModels,
            CoreError::WorkerLost {
                lost: 1,
                detail: String::new(),
            },
        ] {
            assert!(e.code().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }
}
