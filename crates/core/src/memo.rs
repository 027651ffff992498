//! Exact translation memo: each frozen neural pair model decodes a given
//! `(source sentence, output length)` once per snapshot.
//!
//! A frozen decode is a pure function of the packed weights, the source
//! sentence and the output length, and every row of a batched decode
//! equals that sentence decoded alone (batch invariance, with
//! [`FrozenNmt`](crate::FrozenNmt)'s per-sentence fallback for
//! malformed batches). So a repeated sentence can take its translation
//! from a table instead of the decoder, and every score keeps its bits.
//! The paper's sensor languages are regular, so repeats are the common
//! case: on the `stream_nmt` plant, 76–84 % of a session's sentences per
//! sensor repeat an earlier one within a day.
//!
//! [`TranslationMemo`] holds one bounded table per pair model. A table is
//! flat — an open-addressed `u16` index over one `Vec` of fixed-size
//! entries and one `Vec` of tokens — so an insert allocates nothing per
//! entry, and a full table is cleared in place, keeping its buffers.

use crate::pool::lock;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Entries one pair model's table holds; inserting into a full table
/// clears it first. Fixed: the memo is exact, so the cap trades memory
/// against hit rate and nothing else.
pub const MEMO_ENTRIES_PER_MODEL: usize = 256;

/// Index slots per table: a power of two at twice the cap, so a probe
/// sequence always reaches an empty slot.
const SLOTS: usize = 2 * MEMO_ENTRIES_PER_MODEL;

/// One memoized translation: its key hash and where its tokens sit in
/// [`Table::tokens`] (the source sentence, then the translation).
#[derive(Clone, Copy)]
struct Entry {
    hash: u32,
    start: u32,
    src_len: u32,
    out_len: u32,
}

/// One pair model's memo.
#[derive(Default)]
struct Table {
    /// Open-addressed index: 0 marks an empty slot, otherwise the entry
    /// index plus one. Allocated on the first insert.
    slots: Vec<u16>,
    entries: Vec<Entry>,
    tokens: Vec<u32>,
}

impl Table {
    /// The memoized translation of `src` at `out_len`, if present.
    fn find(&self, hash: u32, src: &[u32], out_len: usize) -> Option<&[u32]> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = hash as usize & (SLOTS - 1);
        loop {
            let e = self.entries[usize::from(self.slots[i]).checked_sub(1)?];
            if e.hash == hash && e.src_len as usize == src.len() && e.out_len as usize == out_len {
                let start = e.start as usize;
                let (key, out) = self.tokens[start..].split_at(src.len());
                if key == src {
                    return Some(&out[..out_len]);
                }
            }
            i = (i + 1) & (SLOTS - 1);
        }
    }

    /// Memoizes `out` as the translation of `src`, clearing a full table
    /// first; a key already present is left as it is.
    fn insert(&mut self, hash: u32, src: &[u32], out: &[u32]) {
        if self.find(hash, src, out.len()).is_some() {
            return;
        }
        if self.entries.len() == MEMO_ENTRIES_PER_MODEL {
            self.slots.fill(0);
            self.entries.clear();
            self.tokens.clear();
        }
        if self.slots.is_empty() {
            self.slots = vec![0; SLOTS];
        }
        let mut i = hash as usize & (SLOTS - 1);
        while self.slots[i] != 0 {
            i = (i + 1) & (SLOTS - 1);
        }
        self.entries.push(Entry {
            hash,
            start: self.tokens.len() as u32,
            src_len: src.len() as u32,
            out_len: out.len() as u32,
        });
        self.tokens.extend_from_slice(src);
        self.tokens.extend_from_slice(out);
        // Published last, so the index never names an entry that is not
        // fully written.
        self.slots[i] = self.entries.len() as u16;
    }

    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u16>()
            + self.entries.capacity() * std::mem::size_of::<Entry>()
            + self.tokens.capacity() * std::mem::size_of::<u32>()
    }
}

/// FNV-1a over the source tokens and the output length, folded to 32 bits.
fn key_hash(src: &[u32], out_len: usize) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &t in src.iter().chain(std::iter::once(&(out_len as u32))) {
        h = (h ^ u64::from(t)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

/// One bounded translation table per pair model of one snapshot.
///
/// The tables are created on the first decode, not at load. A clone
/// starts empty: a memo belongs to the snapshot value it was filled by,
/// so a copy that later receives other weights can never serve this
/// one's translations.
#[derive(Default)]
pub(crate) struct TranslationMemo {
    tables: OnceLock<Box<[Mutex<Table>]>>,
}

impl Clone for TranslationMemo {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl TranslationMemo {
    /// Translates `srcs` with pair model `k` of `models`: rows found in
    /// `k`'s table are copied out, and the distinct missing sources are
    /// decoded as one batch by `decode`, outside the lock, then memoized.
    /// Rows come back in input order.
    ///
    /// `decode` must be a pure, batch-invariant function of each row's
    /// source and `out_len`; that is what makes the memo exact.
    pub(crate) fn translate_batch(
        &self,
        k: usize,
        models: usize,
        srcs: &[&[u32]],
        out_len: usize,
        decode: impl FnOnce(&[&[u32]]) -> Vec<Vec<u32>>,
    ) -> Vec<Vec<u32>> {
        let table = &self
            .tables
            .get_or_init(|| (0..models).map(|_| Mutex::default()).collect())[k];
        let hashes: Vec<u32> = srcs.iter().map(|s| key_hash(s, out_len)).collect();
        let mut rows: Vec<Vec<u32>> = Vec::with_capacity(srcs.len());
        let mut missing: Vec<usize> = Vec::new();
        {
            let t = lock(table);
            for (i, src) in srcs.iter().enumerate() {
                match t.find(hashes[i], src, out_len) {
                    Some(out) => rows.push(out.to_vec()),
                    None => {
                        missing.push(i);
                        rows.push(Vec::new());
                    }
                }
            }
        }
        // Outside the lock, `todo` gets the first row of each distinct
        // missing source, and `slots[j]` is `missing[j]`'s place in `todo`.
        let mut todo: Vec<usize> = Vec::new();
        let mut first: HashMap<&[u32], usize> = HashMap::with_capacity(missing.len());
        let slots: Vec<usize> = missing
            .iter()
            .map(|&i| {
                *first.entry(srcs[i]).or_insert_with(|| {
                    todo.push(i);
                    todo.len() - 1
                })
            })
            .collect();
        mdes_obs::counter("algo2.memo_hits", (srcs.len() - todo.len()) as u64);
        mdes_obs::counter("algo2.memo_misses", todo.len() as u64);
        if todo.is_empty() {
            return rows;
        }
        let batch: Vec<&[u32]> = todo.iter().map(|&i| srcs[i]).collect();
        let decoded = decode(&batch);
        {
            let mut t = lock(table);
            for (&i, out) in todo.iter().zip(&decoded) {
                debug_assert_eq!(out.len(), out_len, "a decoder returns out_len tokens");
                t.insert(hashes[i], srcs[i], out);
            }
        }
        for (i, slot) in missing.into_iter().zip(slots) {
            rows[i] = decoded[slot].clone();
        }
        rows
    }

    /// Heap bytes held by the tables (their capacity, not their fill).
    pub(crate) fn bytes(&self) -> usize {
        self.tables.get().map_or(0, |tables| {
            tables.len() * std::mem::size_of::<Mutex<Table>>()
                + tables.iter().map(|t| lock(t).heap_bytes()).sum::<usize>()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A decoder that records every row it is asked for; row `s` decodes
    /// to `s` reversed plus one, cut or zero-padded to `out_len`.
    fn decode_log(
        log: &mut Vec<Vec<u32>>,
        out_len: usize,
    ) -> impl FnOnce(&[&[u32]]) -> Vec<Vec<u32>> + '_ {
        move |srcs: &[&[u32]]| {
            srcs.iter()
                .map(|s| {
                    log.push(s.to_vec());
                    let rev: Vec<u32> = s.iter().rev().map(|t| t + 1).collect();
                    (0..out_len)
                        .map(|j| rev.get(j).copied().unwrap_or(0))
                        .collect()
                })
                .collect()
        }
    }

    #[test]
    fn repeats_hit_and_only_distinct_misses_decode() {
        let memo = TranslationMemo::default();
        let (a, b, c): (&[u32], &[u32], &[u32]) = (&[1, 2, 3], &[4, 5], &[1, 2, 3, 0]);
        let mut log = Vec::new();
        let rows = memo.translate_batch(0, 2, &[a, b, a, c], 3, decode_log(&mut log, 3));
        assert_eq!(
            rows,
            vec![vec![4, 3, 2], vec![6, 5, 0], vec![4, 3, 2], vec![1, 4, 3]]
        );
        assert_eq!(log, vec![a.to_vec(), b.to_vec(), c.to_vec()]);
        log.clear();
        let again = memo.translate_batch(0, 2, &[c, a, b], 3, decode_log(&mut log, 3));
        assert_eq!(
            again,
            vec![rows[3].clone(), rows[0].clone(), rows[1].clone()]
        );
        assert!(log.is_empty(), "a second pass decodes nothing");
        // Another output length, or another model, is another key.
        memo.translate_batch(0, 2, &[a], 2, decode_log(&mut log, 2));
        memo.translate_batch(1, 2, &[a], 3, decode_log(&mut log, 3));
        assert_eq!(log, vec![a.to_vec(), a.to_vec()]);
    }

    #[test]
    fn a_full_table_clears_and_keeps_answering_exactly() {
        let memo = TranslationMemo::default();
        let srcs: Vec<Vec<u32>> = (0..MEMO_ENTRIES_PER_MODEL as u32 + 10)
            .map(|i| vec![i, i / 3])
            .collect();
        let mut log = Vec::new();
        for s in &srcs {
            let row = memo.translate_batch(0, 1, &[s.as_slice()], 2, decode_log(&mut log, 2));
            assert_eq!(row, vec![vec![s[1] + 1, s[0] + 1]]);
        }
        assert_eq!(log.len(), srcs.len());
        let bytes = memo.bytes();
        // The last ten survived the clear; the first did not.
        log.clear();
        for s in &srcs[MEMO_ENTRIES_PER_MODEL..] {
            memo.translate_batch(0, 1, &[s.as_slice()], 2, decode_log(&mut log, 2));
        }
        assert!(log.is_empty());
        memo.translate_batch(0, 1, &[srcs[0].as_slice()], 2, decode_log(&mut log, 2));
        assert_eq!(log, vec![srcs[0].clone()]);
        assert_eq!(memo.bytes(), bytes, "a cleared table keeps its buffers");
    }

    #[test]
    fn clones_start_empty() {
        let memo = TranslationMemo::default();
        assert_eq!(memo.bytes(), 0, "nothing is allocated before a decode");
        let mut log = Vec::new();
        memo.translate_batch(0, 1, &[&[7]], 1, decode_log(&mut log, 1));
        assert!(memo.bytes() > 0);
        let copy = memo.clone();
        assert_eq!(copy.bytes(), 0);
        copy.translate_batch(0, 1, &[&[7]], 1, decode_log(&mut log, 1));
        assert_eq!(log.len(), 2, "the clone decodes for itself");
    }
}
