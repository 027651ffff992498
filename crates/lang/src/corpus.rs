//! End-to-end corpus construction: raw multivariate event traces in, aligned
//! sensor-language sentence sets out.
//!
//! The [`LanguagePipeline`] is fitted on a training range: it discards
//! constant sequences (§II-A1 *sequence filtering*), fits one
//! [`Alphabet`](crate::Alphabet) and one [`Vocab`](crate::Vocab) per
//! surviving sensor, and can then encode any sample range of the same traces
//! into [`SentenceSet`]s. Because every sensor shares the same
//! [`WindowConfig`] and sample range, sentence `k` of sensor `i` covers the
//! same wall-clock window as sentence `k` of sensor `j` — this alignment is
//! what turns simultaneous sensor sentences into translation pairs.

use crate::encrypt::{is_constant, Alphabet};
use crate::error::LangError;
use crate::vocab::Vocab;
use crate::window::{self, WindowConfig};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A named raw discrete event sequence, one record per sample tick.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawTrace {
    /// Sensor name (e.g. `"s4"` or a SMART attribute id).
    pub name: String,
    /// Categorical records, evenly sampled.
    pub events: Vec<String>,
}

impl RawTrace {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, events: Vec<String>) -> Self {
        Self {
            name: name.into(),
            events,
        }
    }
}

/// The fitted language of one sensor.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SensorLanguage {
    /// Sensor name copied from the trace.
    pub name: String,
    /// Index of this sensor in the original trace array (pre-filtering).
    pub source_index: usize,
    /// Letter mapping fitted on training data.
    pub alphabet: Alphabet,
    /// Word vocabulary fitted on training data.
    pub vocab: Vocab,
}

/// Sentences of one sensor over one sample range, encoded as word ids.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SentenceSet {
    /// Encoded sentences (each `sent_len` word ids).
    pub sentences: Vec<Vec<u32>>,
    /// Character offset (within the encoded range) where each sentence starts.
    pub starts: Vec<usize>,
}

impl SentenceSet {
    /// Number of sentences.
    pub fn len(&self) -> usize {
        self.sentences.len()
    }

    /// Whether the set contains no sentences.
    pub fn is_empty(&self) -> bool {
        self.sentences.is_empty()
    }

    /// Approximate heap footprint in bytes (word ids plus per-sentence and
    /// per-start vector headers). Sharded sweeps use this to verify that
    /// streamed per-shard corpora stay bounded by the shard, not the fleet.
    pub fn approx_bytes(&self) -> usize {
        let words: usize = self.sentences.iter().map(Vec::len).sum();
        words * std::mem::size_of::<u32>()
            + self.sentences.len() * std::mem::size_of::<Vec<u32>>()
            + self.starts.len() * std::mem::size_of::<usize>()
    }
}

/// A fitted multivariate language pipeline: fit on a training range, then
/// encode any sample range of the same traces into aligned sentence sets.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LanguagePipeline {
    cfg: WindowConfig,
    languages: Vec<SensorLanguage>,
}

impl LanguagePipeline {
    /// Fits the pipeline on `traces[*].events[train.clone()]`.
    ///
    /// Constant training sequences are discarded, mirroring the paper;
    /// discarded sensors are not used during online testing either.
    ///
    /// # Errors
    ///
    /// Returns an error if the window config is invalid, `traces` is empty,
    /// the range is out of bounds or too short for a single sentence, or
    /// every sequence is constant.
    pub fn fit(
        traces: &[RawTrace],
        train: Range<usize>,
        cfg: WindowConfig,
    ) -> Result<Self, LangError> {
        cfg.validate()?;
        if traces.is_empty() {
            return Err(LangError::EmptyInput);
        }
        let len = train.end - train.start;
        if len < cfg.min_samples() {
            return Err(LangError::SegmentTooShort {
                available: len,
                required: cfg.min_samples(),
            });
        }
        let mut languages = Vec::new();
        for (idx, trace) in traces.iter().enumerate() {
            if train.end > trace.events.len() {
                return Err(LangError::RangeOutOfBounds {
                    end: train.end,
                    len: trace.events.len(),
                });
            }
            let segment = &trace.events[train.clone()];
            if is_constant(segment) {
                continue;
            }
            let alphabet = Alphabet::fit(segment)?;
            let encoded = alphabet.encode(segment);
            let word_list = window::words(&encoded, &cfg);
            let vocab = Vocab::fit(word_list.iter().copied());
            languages.push(SensorLanguage {
                name: trace.name.clone(),
                source_index: idx,
                alphabet,
                vocab,
            });
        }
        if languages.is_empty() {
            return Err(LangError::AllSequencesConstant);
        }
        Ok(Self { cfg, languages })
    }

    /// The window configuration used throughout.
    pub fn config(&self) -> &WindowConfig {
        &self.cfg
    }

    /// The fitted per-sensor languages (filtered sensors omitted).
    pub fn languages(&self) -> &[SensorLanguage] {
        &self.languages
    }

    /// Number of surviving sensors.
    pub fn sensor_count(&self) -> usize {
        self.languages.len()
    }

    /// Looks up a surviving sensor by name.
    pub fn sensor_by_name(&self, name: &str) -> Option<usize> {
        self.languages.iter().position(|l| l.name == name)
    }

    /// Encodes `traces[*].events[range.clone()]` into one [`SentenceSet`] per
    /// surviving sensor, aligned across sensors. Unknown records and unseen
    /// words become `<unk>`.
    ///
    /// # Errors
    ///
    /// Returns an error if the range is out of bounds for any trace or too
    /// short for a single sentence.
    pub fn encode_segment(
        &self,
        traces: &[RawTrace],
        range: Range<usize>,
    ) -> Result<Vec<SentenceSet>, LangError> {
        let len = range.end.saturating_sub(range.start);
        if len < self.cfg.min_samples() {
            return Err(LangError::SegmentTooShort {
                available: len,
                required: self.cfg.min_samples(),
            });
        }
        let mut out = Vec::with_capacity(self.languages.len());
        for sensor in 0..self.languages.len() {
            out.push(self.encode_one(traces, range.clone(), sensor)?);
        }
        Ok(out)
    }

    /// Encodes `traces[*].events[range.clone()]` for a *single* surviving
    /// sensor (an index into [`LanguagePipeline::languages`]). Produces
    /// exactly the [`SentenceSet`] that [`LanguagePipeline::encode_segment`]
    /// would place at `sensor`, without materializing the other sensors —
    /// the building block for sharded sweeps whose memory must stay bounded
    /// by the shard's sensor set, not the fleet.
    ///
    /// # Errors
    ///
    /// Returns an error if the range is out of bounds for the sensor's trace
    /// or too short for a single sentence.
    ///
    /// # Panics
    ///
    /// Panics if `sensor` is not a surviving-sensor index.
    pub fn encode_sensor_segment(
        &self,
        traces: &[RawTrace],
        range: Range<usize>,
        sensor: usize,
    ) -> Result<SentenceSet, LangError> {
        assert!(
            sensor < self.languages.len(),
            "sensor index {sensor} outside the {} surviving languages",
            self.languages.len()
        );
        let len = range.end.saturating_sub(range.start);
        if len < self.cfg.min_samples() {
            return Err(LangError::SegmentTooShort {
                available: len,
                required: self.cfg.min_samples(),
            });
        }
        self.encode_one(traces, range, sensor)
    }

    /// Shared per-sensor encoding body; bounds on `sensor` and the minimum
    /// segment length are the caller's responsibility.
    fn encode_one(
        &self,
        traces: &[RawTrace],
        range: Range<usize>,
        sensor: usize,
    ) -> Result<SentenceSet, LangError> {
        let lang = &self.languages[sensor];
        let trace = &traces[lang.source_index];
        if range.end > trace.events.len() {
            return Err(LangError::RangeOutOfBounds {
                end: range.end,
                len: trace.events.len(),
            });
        }
        let letters = lang.alphabet.encode(&trace.events[range]);
        let mut out = SentenceSet::default();
        self.encode_letters(sensor, &letters, &mut out);
        Ok(out)
    }

    /// Turns one surviving sensor's letter codes (its [`Alphabet`] codes,
    /// one per sample) into words and sentences, written into `out` in
    /// place: its sentence buffers are reused, so a caller that encodes
    /// window after window into one `SentenceSet` allocates nothing once
    /// the buffers have grown. This is the one letters-to-sentences body;
    /// [`LanguagePipeline::encode_segment`] and the serving sessions both
    /// run it. Each word a sentence needs is looked up once: an overlapping
    /// sentence copies its shared words from the one before.
    ///
    /// # Panics
    ///
    /// Panics if `sensor` is not a surviving-sensor index.
    pub fn encode_letters(&self, sensor: usize, letters: &[u8], out: &mut SentenceSet) {
        let cfg = &self.cfg;
        let vocab = &self.languages[sensor].vocab;
        let word = |w: usize| vocab.encode(&letters[w * cfg.word_stride..][..cfg.word_len]);
        let count = cfg.sentence_count(letters.len());
        let shared = cfg.sent_len.saturating_sub(cfg.sent_stride);
        out.sentences.resize_with(count, Vec::new);
        out.starts.clear();
        for s in 0..count {
            let (done, rest) = out.sentences.split_at_mut(s);
            let sentence = &mut rest[0];
            sentence.clear();
            let reused = match done.last() {
                Some(prev) if shared > 0 => {
                    sentence.extend_from_slice(&prev[cfg.sent_stride..]);
                    shared
                }
                _ => 0,
            };
            let first = s * cfg.sent_stride;
            sentence.extend((first + reused..first + cfg.sent_len).map(word));
            out.starts.push(cfg.sentence_start(s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toggling(name: &str, n: usize, period: usize) -> RawTrace {
        let events = (0..n)
            .map(|t| {
                if (t / period).is_multiple_of(2) {
                    "on"
                } else {
                    "off"
                }
                .to_owned()
            })
            .collect();
        RawTrace::new(name, events)
    }

    fn small_cfg() -> WindowConfig {
        WindowConfig {
            word_len: 3,
            word_stride: 1,
            sent_len: 4,
            sent_stride: 4,
        }
    }

    #[test]
    fn fit_discards_constant_sensors() {
        let traces = vec![
            toggling("a", 100, 5),
            RawTrace::new("flat", vec!["x".to_owned(); 100]),
            toggling("b", 100, 7),
        ];
        let p = LanguagePipeline::fit(&traces, 0..100, small_cfg()).expect("fit");
        assert_eq!(p.sensor_count(), 2);
        assert_eq!(p.languages()[0].name, "a");
        assert_eq!(p.languages()[1].name, "b");
        assert_eq!(p.languages()[1].source_index, 2);
        assert!(p.sensor_by_name("flat").is_none());
    }

    #[test]
    fn sentence_sets_are_aligned_across_sensors() {
        let traces = vec![toggling("a", 120, 3), toggling("b", 120, 4)];
        let p = LanguagePipeline::fit(&traces, 0..60, small_cfg()).expect("fit");
        let sets = p.encode_segment(&traces, 60..120).expect("encode");
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].len(), sets[1].len());
        assert_eq!(sets[0].starts, sets[1].starts);
    }

    #[test]
    fn sentences_have_configured_length() {
        let traces = vec![toggling("a", 200, 3)];
        let cfg = small_cfg();
        let p = LanguagePipeline::fit(&traces, 0..100, cfg).expect("fit");
        let sets = p.encode_segment(&traces, 100..200).expect("encode");
        for s in &sets[0].sentences {
            assert_eq!(s.len(), cfg.sent_len);
        }
    }

    #[test]
    fn per_sensor_encoding_matches_full_segment() {
        let traces = vec![
            toggling("a", 120, 3),
            RawTrace::new("flat", vec!["x".to_owned(); 120]),
            toggling("b", 120, 4),
        ];
        let p = LanguagePipeline::fit(&traces, 0..60, small_cfg()).expect("fit");
        let all = p.encode_segment(&traces, 60..120).expect("encode");
        for (sensor, full) in all.iter().enumerate() {
            let one = p
                .encode_sensor_segment(&traces, 60..120, sensor)
                .expect("encode one");
            assert_eq!(one, *full);
            assert!(one.approx_bytes() > 0);
        }
        assert!(matches!(
            p.encode_sensor_segment(&traces, 60..62, 0),
            Err(LangError::SegmentTooShort { .. })
        ));
    }

    #[test]
    fn unseen_state_becomes_unk() {
        let mut trace = toggling("a", 120, 3);
        // Inject a brand-new state in the test half.
        for t in 80..90 {
            trace.events[t] = "meltdown".to_owned();
        }
        let traces = vec![trace, toggling("b", 120, 4)];
        let p = LanguagePipeline::fit(&traces, 0..60, small_cfg()).expect("fit");
        let sets = p.encode_segment(&traces, 60..120).expect("encode");
        let has_unk = sets[0].sentences.iter().flatten().any(|&w| w == Vocab::UNK);
        assert!(has_unk, "novel state should surface as <unk>");
    }

    #[test]
    fn all_constant_is_an_error() {
        let traces = vec![RawTrace::new("flat", vec!["x".to_owned(); 100])];
        assert_eq!(
            LanguagePipeline::fit(&traces, 0..100, small_cfg()).unwrap_err(),
            LangError::AllSequencesConstant
        );
    }

    #[test]
    fn out_of_bounds_range_is_an_error() {
        let traces = vec![toggling("a", 50, 3)];
        assert!(matches!(
            LanguagePipeline::fit(&traces, 0..80, small_cfg()),
            Err(LangError::RangeOutOfBounds { end: 80, len: 50 })
        ));
    }

    #[test]
    fn short_segment_is_an_error() {
        let traces = vec![toggling("a", 100, 3)];
        let p = LanguagePipeline::fit(&traces, 0..50, small_cfg()).expect("fit");
        assert!(matches!(
            p.encode_segment(&traces, 50..53),
            Err(LangError::SegmentTooShort { .. })
        ));
    }

    #[test]
    fn vocabulary_counts_are_plausible() {
        // A period-3 toggle over 3-letter words can produce at most 6
        // distinct words (cyclic shifts of aab/abb etc.).
        let traces = vec![toggling("a", 300, 3)];
        let p = LanguagePipeline::fit(&traces, 0..300, small_cfg()).expect("fit");
        let vocab = &p.languages()[0].vocab;
        assert!(
            vocab.word_count() <= 6,
            "vocab too large: {}",
            vocab.word_count()
        );
        assert!(vocab.word_count() >= 2);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Sentence `s` is words `s * sent_stride ..` of the letters, in
            /// order, whether sentences overlap, abut or skip words, and a
            /// reused `SentenceSet` ends up as a fresh one would.
            #[test]
            fn encode_letters_slices_the_word_stream(
                codes in proptest::collection::vec(0u8..3, 0..80),
                wl in 1usize..4, ws in 1usize..3, sl in 1usize..6, ss in 1usize..7) {
                let cfg = WindowConfig { word_len: wl, word_stride: ws, sent_len: sl, sent_stride: ss };
                // Records "0" < "1" < "2" fit to letter codes 0, 1 and 2.
                let records = [0, 1, 2, 0, 1, 2, 2, 1, 0, 0, 1, 1, 2, 2, 0, 0, 0].map(|c: u8| c.to_string());
                let traces = vec![RawTrace::new("s", records.to_vec())];
                let Ok(p) = LanguagePipeline::fit(&traces, 0..17, cfg) else {
                    return Ok(());
                };
                let vocab = &p.languages()[0].vocab;
                let words: Vec<u32> = window::words(&codes, &cfg).iter().map(|w| vocab.encode(w)).collect();
                let mut out = SentenceSet {
                    sentences: vec![vec![7; 9]; 5],
                    starts: vec![3],
                };
                p.encode_letters(0, &codes, &mut out);
                prop_assert_eq!(out.len(), cfg.sentence_count(codes.len()));
                for (s, sentence) in out.sentences.iter().enumerate() {
                    prop_assert_eq!(&sentence[..], &words[s * ss..s * ss + sl]);
                    prop_assert_eq!(out.starts[s], cfg.sentence_start(s));
                }
            }

            #[test]
            fn encode_never_panics_and_counts_match(
                seed in 0u64..1000, n in 60usize..200) {
                // Deterministic pseudo-random binary trace from the seed.
                let events: Vec<String> = (0..n)
                    .map(|t| {
                        let x = seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add((t as u64).wrapping_mul(1442695040888963407));
                        if (x >> 33) & 1 == 0 { "0".to_owned() } else { "1".to_owned() }
                    })
                    .collect();
                let traces = vec![RawTrace::new("s", events)];
                let cfg = small_cfg();
                let half = n / 2;
                if let Ok(p) = LanguagePipeline::fit(&traces, 0..half, cfg) {
                    let sets = p.encode_segment(&traces, half..n).expect("encode");
                    let chars = n - half;
                    prop_assert_eq!(sets[0].len(), cfg.sentence_count(chars));
                }
            }
        }
    }
}
