//! Discrete-event encryption: mapping categorical records to characters.
//!
//! Following §II-A1 of the paper, each sensor's distinct event records are
//! collected, sorted in alphanumeric order, and assigned letters
//! (`a`, `b`, `c`, …). The per-sensor mapping is an [`Alphabet`]. A reserved
//! *unknown* letter ([`Alphabet::UNKNOWN`]) stands in for system states that
//! appear only during online testing.

use crate::error::LangError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Letters available for encryption (`a`–`z`, then `A`–`Z`).
const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// Record string standing in for a sample a sensor failed to deliver (a
/// dropped packet, a dead sensor, a gap in the log). The embedded `U+001A`
/// (SUBSTITUTE) control characters keep it from colliding with any real
/// categorical record. Shared by the serving sessions (which substitute it
/// for missing per-sensor records) and the fault-injection harness (which
/// uses it to simulate dropout); it is never part of a training alphabet, so
/// it always encodes to [`Alphabet::UNKNOWN`].
pub const MISSING_RECORD: &str = "\u{1a}missing\u{1a}";

/// A per-sensor mapping from categorical event records to letter codes.
///
/// Letter codes are small integers (`0` = `a`, `1` = `b`, …); the reserved
/// [`Alphabet::UNKNOWN`] code marks records never seen during training.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Alphabet {
    /// Sorted distinct records; index = letter code.
    records: Vec<String>,
}

impl Alphabet {
    /// Letter code reserved for unknown (unseen in training) records.
    pub const UNKNOWN: u8 = u8::MAX;

    /// Builds an alphabet from the distinct records of a training sequence,
    /// sorted alphanumerically.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::EmptyInput`] for an empty sequence and
    /// [`LangError::TooManyCategories`] if there are more distinct records
    /// than available letters.
    pub fn fit<S: AsRef<str>>(events: &[S]) -> Result<Self, LangError> {
        if events.is_empty() {
            return Err(LangError::EmptyInput);
        }
        let distinct: BTreeSet<&str> = events.iter().map(AsRef::as_ref).collect();
        if distinct.len() > LETTERS.len() {
            return Err(LangError::TooManyCategories {
                found: distinct.len(),
                max: LETTERS.len(),
            });
        }
        Ok(Self {
            records: distinct.into_iter().map(str::to_owned).collect(),
        })
    }

    /// Number of distinct records (the sensor's cardinality).
    pub fn cardinality(&self) -> usize {
        self.records.len()
    }

    /// Encodes one record, returning [`Alphabet::UNKNOWN`] for unseen ones.
    pub fn encode_one(&self, record: &str) -> u8 {
        match self.records.binary_search_by(|r| r.as_str().cmp(record)) {
            Ok(i) => i as u8,
            Err(_) => Self::UNKNOWN,
        }
    }

    /// Encodes a whole sequence of records.
    pub fn encode<S: AsRef<str>>(&self, events: &[S]) -> Vec<u8> {
        events.iter().map(|e| self.encode_one(e.as_ref())).collect()
    }

    /// The display character for a letter code (`?` for unknown).
    pub fn letter(code: u8) -> char {
        if code == Self::UNKNOWN || code as usize >= LETTERS.len() {
            '?'
        } else {
            LETTERS[code as usize] as char
        }
    }

    /// The record associated with a letter code, or `None` for unknown.
    pub fn record(&self, code: u8) -> Option<&str> {
        self.records.get(code as usize).map(String::as_str)
    }
}

/// Returns `true` if every event in the sequence is identical — the paper's
/// *sequence filtering* criterion for discarding uninformative sensors.
pub fn is_constant<S: AsRef<str> + PartialEq>(events: &[S]) -> bool {
    match events.first() {
        None => true,
        Some(first) => events.iter().all(|e| e.as_ref() == first.as_ref()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_sorts_alphanumerically() {
        let events = vec!["on", "off", "on", "standby"];
        let a = Alphabet::fit(&events).expect("fit");
        assert_eq!(a.cardinality(), 3);
        // Sorted order: off < on < standby.
        assert_eq!(a.encode_one("off"), 0);
        assert_eq!(a.encode_one("on"), 1);
        assert_eq!(a.encode_one("standby"), 2);
        assert_eq!(a.record(0), Some("off"));
    }

    #[test]
    fn unknown_records_map_to_reserved_code() {
        let a = Alphabet::fit(&["on", "off"]).expect("fit");
        assert_eq!(a.encode_one("exploded"), Alphabet::UNKNOWN);
        assert_eq!(Alphabet::letter(Alphabet::UNKNOWN), '?');
    }

    #[test]
    fn encode_sequence() {
        let a = Alphabet::fit(&["0", "1"]).expect("fit");
        assert_eq!(a.encode(&["0", "1", "1", "0"]), vec![0, 1, 1, 0]);
    }

    #[test]
    fn letters_render_as_chars() {
        assert_eq!(Alphabet::letter(0), 'a');
        assert_eq!(Alphabet::letter(25), 'z');
        assert_eq!(Alphabet::letter(26), 'A');
    }

    #[test]
    fn empty_input_rejected() {
        let empty: Vec<&str> = vec![];
        assert_eq!(Alphabet::fit(&empty), Err(LangError::EmptyInput));
    }

    #[test]
    fn too_many_categories_rejected() {
        let events: Vec<String> = (0..100).map(|i| format!("state{i:03}")).collect();
        assert!(matches!(
            Alphabet::fit(&events),
            Err(LangError::TooManyCategories {
                found: 100,
                max: 52
            })
        ));
    }

    #[test]
    fn constant_detection() {
        assert!(is_constant(&["x", "x", "x"]));
        assert!(!is_constant(&["x", "y"]));
        assert!(is_constant::<&str>(&[]));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn encode_roundtrip(events in proptest::collection::vec("[a-d]{1,3}", 1..50)) {
                let a = Alphabet::fit(&events).expect("fit");
                for e in &events {
                    let code = a.encode_one(e);
                    prop_assert_ne!(code, Alphabet::UNKNOWN);
                    prop_assert_eq!(a.record(code), Some(e.as_str()));
                }
            }

            #[test]
            fn cardinality_matches_distinct(events in proptest::collection::vec("[a-e]", 1..50)) {
                let a = Alphabet::fit(&events).expect("fit");
                let distinct: std::collections::HashSet<_> = events.iter().collect();
                prop_assert_eq!(a.cardinality(), distinct.len());
            }
        }
    }
}
