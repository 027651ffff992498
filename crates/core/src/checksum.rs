//! Frame checksums.
//!
//! [`crc32c_parts`] is the one checksum of every framed format in the
//! workspace: MDCK v5 and MDSN v4 frames (`crate::checkpoint`) and the
//! `mdes-serve` MDSV v3 frames. It is CRC-32C (Castagnoli: reflected
//! polynomial `0x82F63B78`, initial value and final XOR `0xFFFFFFFF`), the
//! record checksum of iSCSI (RFC 3720) and of LevelDB/RocksDB logs.
//!
//! On x86_64 with SSE4.2 the `crc32` instruction consumes 8 bytes at a time;
//! every other host runs a 256-entry table, one byte at a time. Both give
//! the same value for every input.
//!
//! # Trade-off against FNV-1a
//!
//! The formats before MDCK v5, MDSN v4 and MDSV v3 carried a 64-bit FNV-1a
//! hash, which does one dependent multiply per byte (about 1.6 ms per MiB).
//! CRC-32C detects every error burst of up to 32 bits; FNV-1a guarantees
//! detection only for a change confined to a single byte. A random
//! corruption slips past CRC-32C with probability 2^-32, where it slipped
//! past FNV-1a with probability 2^-64.
//!
//! FNV-1a stays, crate-private, for the two places that must reproduce old
//! bytes: the MDSN v1–v3 reader and the sweep fingerprint, which is an
//! identity hash stored in MDCK headers rather than a frame checksum.

/// The reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// CRC-32C over the concatenation of `parts`, without building it.
///
/// ```
/// use mdes_core::checksum::crc32c_parts;
/// assert_eq!(crc32c_parts(&[b"123456789"]), 0xE306_9283);
/// assert_eq!(crc32c_parts(&[b"1234", b"", b"56789"]), 0xE306_9283);
/// ```
pub fn crc32c_parts(parts: &[&[u8]]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: guarded by the runtime SSE4.2 check; the function has no
        // other preconditions.
        return !unsafe { update_sse42(!0, parts) };
    }
    !update_table(!0, parts)
}

/// One table entry per byte value: the CRC of that byte alone, unreflected
/// state in, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The portable path: one table lookup per byte.
fn update_table(mut crc: u32, parts: &[&[u8]]) -> u32 {
    for part in parts {
        for &b in *part {
            crc = TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
    }
    crc
}

/// The SSE4.2 path: `crc32` over 8-byte little-endian words, then the tail
/// of each part one byte at a time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_sse42(mut crc: u32, parts: &[&[u8]]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    for part in parts {
        let words = part.chunks_exact(8);
        let tail = words.remainder();
        let mut wide = u64::from(crc);
        for word in words {
            wide = _mm_crc32_u64(wide, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        // The instruction zero-extends its 32-bit result.
        crc = wide as u32;
        for &b in tail {
            crc = _mm_crc32_u8(crc, b);
        }
    }
    crc
}

/// FNV-1a 64-bit over the concatenation of `parts`: the checksum of MDSN
/// v1–v3 and MDCK v1–v4 frames, and the sweep fingerprint's hash.
pub(crate) fn fnv1a_parts(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in *part {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bitwise polynomial loop: the definition, as the oracle.
    fn oracle(parts: &[&[u8]]) -> u32 {
        let mut crc = !0u32;
        for &b in parts.iter().flat_map(|p| p.iter()) {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Every path this host can run, by name.
    fn paths(parts: &[&[u8]]) -> Vec<(&'static str, u32)> {
        let mut out = vec![
            ("dispatch", crc32c_parts(parts)),
            ("table", !update_table(!0, parts)),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: guarded by the runtime SSE4.2 check.
            out.push(("sse4.2", !unsafe { update_sse42(!0, parts) }));
        }
        out
    }

    fn assert_all_paths(parts: &[&[u8]], expected: u32) {
        for (name, got) in paths(parts) {
            assert_eq!(got, expected, "{name} path, part lengths {:?}", {
                parts.iter().map(|p| p.len()).collect::<Vec<_>>()
            });
        }
    }

    fn bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    }

    #[test]
    fn check_value_and_rfc3720_vectors() {
        assert_all_paths(&[b"123456789"], 0xE306_9283);
        assert_all_paths(&[&[0u8; 32]], 0x8A91_36AA);
        assert_all_paths(&[&[0xFFu8; 32]], 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_all_paths(&[&ascending], 0x46DD_794E);
        assert_all_paths(&[], 0);
        assert_all_paths(&[b""], 0);
    }

    #[test]
    fn every_short_length_matches_the_oracle() {
        let data = bytes(64, 0x5EED);
        for len in 0..=64 {
            let part = &data[..len];
            assert_all_paths(&[part], oracle(&[part]));
        }
    }

    #[test]
    fn long_inputs_match_the_oracle() {
        for (len, seed) in [(1 << 20, 1), ((1 << 20) - 3, 2), (65_537, 3), (4095, 4)] {
            let data = bytes(len, seed);
            assert_all_paths(&[&data], oracle(&[&data]));
        }
    }

    #[test]
    fn fnv1a_is_the_legacy_hash() {
        // Published FNV-1a 64 vectors: "", "a" and "foobar" (split).
        assert_eq!(fnv1a_parts(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_parts(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_parts(&[b"fo", b"obar"]), 0x8594_4171_f739_67e8);
    }

    proptest! {
        #[test]
        fn any_split_matches_the_oracle(
            data in proptest::collection::vec(0u8..=255, 0..2048),
            cuts in proptest::collection::vec(0usize..4096, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut parts: Vec<&[u8]> = Vec::new();
            let mut at = 0;
            for c in cuts {
                parts.push(&data[at..c]);
                at = c;
            }
            parts.push(&data[at..]);
            let expected = oracle(&[&data]);
            for (name, got) in paths(&parts) {
                prop_assert_eq!(got, expected, "{} path", name);
            }
        }
    }
}
