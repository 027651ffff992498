//! Sliding-window word and sentence generation (§II-A2 of the paper).
//!
//! Characters are grouped into *words* of `word_len` letters advancing by
//! `word_stride`; words are grouped into *sentences* of `sent_len` words
//! advancing by `sent_stride` ([`LanguagePipeline::encode_letters`](crate::LanguagePipeline::encode_letters)
//! builds them). Only full windows are produced. With the
//! paper's plant settings (`word_len = 10`, `word_stride = 1`,
//! `sent_len = 20`, `sent_stride = 20`) each sentence covers 20 consecutive
//! minutes and detection runs every 20 minutes.

use crate::error::LangError;
use serde::{Content, DeError, Deserialize, Serialize};

/// Window parameters for turning character streams into sentences.
///
/// `Deserialize` is hand-written to run [`WindowConfig::validate`] at the
/// boundary: a zero-stride config loaded from disk used to pass silently
/// and then panic with a division-by-zero deep inside windowing; it now
/// fails to deserialize with the `ZeroWindowParameter` message instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct WindowConfig {
    /// Characters per word (`i` in the paper).
    pub word_len: usize,
    /// Characters the word window advances by (`j`).
    pub word_stride: usize,
    /// Words per sentence (`m`).
    pub sent_len: usize,
    /// Words the sentence window advances by (`n`).
    pub sent_stride: usize,
}

impl Default for WindowConfig {
    /// The paper's physical-plant settings.
    fn default() -> Self {
        Self {
            word_len: 10,
            word_stride: 1,
            sent_len: 20,
            sent_stride: 20,
        }
    }
}

impl WindowConfig {
    /// The paper's HDD settings (daily sampling): 5-character words, 7-word
    /// sentences, both strides 1.
    pub fn hdd() -> Self {
        Self {
            word_len: 5,
            word_stride: 1,
            sent_len: 7,
            sent_stride: 1,
        }
    }

    /// Validates that all lengths and strides are positive.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::ZeroWindowParameter`] when any field is zero.
    pub fn validate(&self) -> Result<(), LangError> {
        if self.word_len == 0
            || self.word_stride == 0
            || self.sent_len == 0
            || self.sent_stride == 0
        {
            return Err(LangError::ZeroWindowParameter);
        }
        Ok(())
    }

    /// Number of words generated from `samples` characters.
    pub fn word_count(&self, samples: usize) -> usize {
        if samples < self.word_len {
            0
        } else {
            (samples - self.word_len) / self.word_stride + 1
        }
    }

    /// Number of sentences generated from `samples` characters.
    pub fn sentence_count(&self, samples: usize) -> usize {
        let words = self.word_count(samples);
        if words < self.sent_len {
            0
        } else {
            (words - self.sent_len) / self.sent_stride + 1
        }
    }

    /// Minimum characters needed to produce one sentence.
    pub fn min_samples(&self) -> usize {
        self.word_len + (self.sent_len - 1) * self.word_stride
    }

    /// The first character index covered by sentence `s` (its timestamp
    /// within the segment).
    pub fn sentence_start(&self, s: usize) -> usize {
        s * self.sent_stride * self.word_stride
    }
}

impl Deserialize for WindowConfig {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let cfg = Self {
            word_len: serde::__field(content, "word_len")?,
            word_stride: serde::__field(content, "word_stride")?,
            sent_len: serde::__field(content, "sent_len")?,
            sent_stride: serde::__field(content, "sent_stride")?,
        };
        cfg.validate().map_err(|e| DeError::custom(e.to_string()))?;
        Ok(cfg)
    }
}

/// Extracts fixed-length words from a character stream.
pub fn words<'a>(chars: &'a [u8], cfg: &WindowConfig) -> Vec<&'a [u8]> {
    let n = cfg.word_count(chars.len());
    (0..n)
        .map(|w| &chars[w * cfg.word_stride..w * cfg.word_stride + cfg.word_len])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_plant_settings() {
        let cfg = WindowConfig::default();
        assert_eq!(
            (cfg.word_len, cfg.word_stride, cfg.sent_len, cfg.sent_stride),
            (10, 1, 20, 20)
        );
    }

    #[test]
    fn paper_sentence_arithmetic() {
        // §III-A1: 1440 characters/day with non-overlapping 20-word sentences
        // of 10-char words (stride 1) -> 71 full sentences from the word
        // stream of 1431 words; the paper rounds to 72 by padding the last
        // day boundary, we produce exactly floor arithmetic.
        let cfg = WindowConfig::default();
        assert_eq!(cfg.word_count(1440), 1431);
        assert_eq!(cfg.sentence_count(1440), 71);
    }

    #[test]
    fn words_overlap_by_stride() {
        let chars = vec![0u8, 1, 2, 3, 4];
        let cfg = WindowConfig {
            word_len: 3,
            word_stride: 1,
            sent_len: 1,
            sent_stride: 1,
        };
        let ws = words(&chars, &cfg);
        assert_eq!(ws, vec![&[0u8, 1, 2][..], &[1, 2, 3], &[2, 3, 4]]);
    }

    #[test]
    fn words_with_larger_stride() {
        let chars = vec![0u8, 1, 2, 3, 4, 5];
        let cfg = WindowConfig {
            word_len: 2,
            word_stride: 2,
            sent_len: 1,
            sent_stride: 1,
        };
        let ws = words(&chars, &cfg);
        assert_eq!(ws, vec![&[0u8, 1][..], &[2, 3], &[4, 5]]);
    }

    #[test]
    fn too_short_produces_nothing() {
        let cfg = WindowConfig::default();
        assert_eq!(words(&[0u8; 5], &cfg).len(), 0);
        assert_eq!(cfg.sentence_count(5), 0);
    }

    #[test]
    fn min_samples_is_tight() {
        let cfg = WindowConfig {
            word_len: 4,
            word_stride: 2,
            sent_len: 3,
            sent_stride: 1,
        };
        let min = cfg.min_samples();
        assert_eq!(cfg.sentence_count(min), 1);
        assert_eq!(cfg.sentence_count(min - 1), 0);
    }

    #[test]
    fn zero_parameter_rejected() {
        let cfg = WindowConfig {
            word_len: 0,
            ..WindowConfig::default()
        };
        assert_eq!(cfg.validate(), Err(LangError::ZeroWindowParameter));
        assert!(WindowConfig::default().validate().is_ok());
    }

    #[test]
    fn deserialize_rejects_zero_stride() {
        // Regression: a zero-stride config from disk used to deserialize
        // fine and then divide by zero inside `word_count`.
        let err = serde_json::from_str::<WindowConfig>(
            r#"{"word_len": 10, "word_stride": 0, "sent_len": 20, "sent_stride": 20}"#,
        )
        .unwrap_err();
        assert!(
            err.to_string()
                .contains("word/sentence lengths and strides must be positive"),
            "{err}"
        );

        let cfg = WindowConfig::default();
        let back: WindowConfig =
            serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn sentence_start_maps_to_characters() {
        let cfg = WindowConfig::default();
        // Sentence s starts at word s*20, each word starts at its index.
        assert_eq!(cfg.sentence_start(0), 0);
        assert_eq!(cfg.sentence_start(3), 60);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn word_count_matches(chars in proptest::collection::vec(0u8..3, 0..200),
                                  wl in 1usize..8, ws in 1usize..4) {
                let cfg = WindowConfig { word_len: wl, word_stride: ws, sent_len: 1, sent_stride: 1 };
                let got = words(&chars, &cfg);
                prop_assert_eq!(got.len(), cfg.word_count(chars.len()));
                for w in got {
                    prop_assert_eq!(w.len(), wl);
                }
            }
        }
    }
}
