//! Adversarial property tests for the frame decoder and the binary push
//! payload codecs.
//!
//! The decoders sit on a network socket, so they must treat every byte as
//! hostile: random garbage, truncations at every offset, single-byte
//! corruptions, and absurd declared lengths or counts must all come back as
//! a typed [`ProtoError`] (or a clean EOF) — never a panic, never a giant
//! allocation, never a silently wrong frame or message.

use mdes_serve::wire::WireMsg;
use mdes_serve::{
    encode_frame, encode_msg, read_frame, Frame, FrameKind, OpenSessionReq, ProtoError,
    PushBatchReq, PushEntry, PushOutcome, PushReply, ReadOutcome, WireDetection, HEADER_LEN,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

/// The system allocator, plus a per-thread record of the largest single
/// request, so a test can bound what one decode asks for.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// bookkeeping only touches a const-initialized thread-local `Cell`, which
// neither allocates nor panics.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded unchanged; `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation it
/// requested on this thread.
fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// SplitMix64: builds whole messages from one proptest-drawn seed (the
/// vendored proptest has no `prop_map`).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Missing, empty, ASCII and non-ASCII records.
    fn record(&mut self) -> Option<String> {
        const PIECES: [&str; 6] = ["on", "off", "é", "温度", "🔥", "x"];
        match self.below(5) {
            0 => None,
            1 => Some(String::new()),
            _ => Some(
                (0..1 + self.below(4))
                    .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
                    .collect(),
            ),
        }
    }

    /// An empty batch as often as not-empty ones of a few entries.
    fn batch(&mut self) -> PushBatchReq {
        let entries = (0..self.below(5))
            .map(|_| PushEntry {
                session: self.next(),
                seq: self.next(),
                records: (0..self.below(6)).map(|_| self.record()).collect(),
            })
            .collect();
        PushBatchReq { entries }
    }

    /// Score bits from the edge cases as well as arbitrary patterns.
    fn float_bits(&mut self) -> u64 {
        match self.below(6) {
            0 => f64::NAN.to_bits(),
            1 => (-0.0f64).to_bits(),
            2 => f64::INFINITY.to_bits(),
            3 => (0.1f64 + 0.2).to_bits(),
            _ => self.next(),
        }
    }

    /// Every outcome kind.
    fn reply(&mut self) -> PushReply {
        let outcome = match self.below(5) {
            0 => PushOutcome::Ack,
            1 => PushOutcome::Busy,
            2 => PushOutcome::Gone,
            3 => PushOutcome::Error {
                detail: self.record().unwrap_or_default(),
            },
            _ => PushOutcome::Score(WireDetection {
                sample_index: self.next() as usize,
                score_bits: self.float_bits(),
                coverage_bits: self.float_bits(),
                snapshot_version: self.next(),
                alerts: (0..self.below(4))
                    .map(|_| (self.below(64) as usize, self.next() as u32 as usize))
                    .collect(),
                dropped_sensors: (0..self.below(4))
                    .map(|_| self.next() as u32 as usize)
                    .collect(),
            }),
        };
        PushReply {
            session: self.next(),
            seq: self.next(),
            outcome,
        }
    }
}

fn payload(msg: &impl WireMsg) -> Vec<u8> {
    let mut out = Vec::new();
    msg.encode_into(&mut out);
    out
}

fn is_bad_payload<T>(r: &Result<T, ProtoError>) -> bool {
    matches!(r, Err(ProtoError::BadPayload { .. }))
}

const MAX_PAYLOAD: usize = 1 << 20;

/// Decodes one frame from a byte slice (no timeout — `Cursor` never
/// blocks).
fn decode(bytes: &[u8]) -> Result<ReadOutcome, ProtoError> {
    read_frame(&mut Cursor::new(bytes), MAX_PAYLOAD, None)
}

fn any_kind(selector: u8) -> FrameKind {
    const KINDS: [FrameKind; 9] = [
        FrameKind::OpenSession,
        FrameKind::CloseSession,
        FrameKind::PushBatch,
        FrameKind::Ping,
        FrameKind::SessionOpened,
        FrameKind::SessionClosed,
        FrameKind::PushReply,
        FrameKind::ProtoErr,
        FrameKind::Pong,
    ];
    KINDS[selector as usize % KINDS.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Pure garbage: whatever comes in, the decoder returns a typed result
    /// and never panics. An `Ok(Frame)` from random bytes is possible only
    /// by forging a valid magic + checksum, which 200 random bytes won't.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
        match decode(&bytes) {
            Ok(ReadOutcome::Eof) => prop_assert!(bytes.is_empty()),
            Ok(ReadOutcome::Idle) => prop_assert!(false, "Cursor input cannot be idle"),
            Ok(ReadOutcome::Frame(_)) => {
                prop_assert!(bytes.len() >= HEADER_LEN, "frame needs a full header");
            }
            Err(_) => {} // typed rejection is the expected outcome
        }
    }

    /// Every truncation of a valid frame is a clean EOF (cut at a frame
    /// boundary, i.e. offset 0) or a typed `Truncated` error — nothing else.
    #[test]
    fn every_truncation_is_typed(
        kind_sel in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..64),
        cut_frac in 0.0f64..1.0,
    ) {
        let frame = encode_frame(any_kind(kind_sel), &payload);
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < frame.len());
        match decode(&frame[..cut]) {
            Ok(ReadOutcome::Eof) => prop_assert_eq!(cut, 0, "EOF only at a frame boundary"),
            Err(ProtoError::Truncated { .. }) => prop_assert!(cut > 0),
            other => prop_assert!(false, "truncation at {} gave {:?}", cut, other),
        }
    }

    /// Flipping any single byte of a valid frame gives a typed error:
    /// magic, version and kind have their own checks, a longer declared
    /// length is a truncation, and every other flip that keeps the frame's
    /// extent is an error burst of at most 8 bits, which CRC-32C always
    /// catches (a shorter declared length changes the checksummed bytes
    /// and slips past only with probability 2^-32).
    #[test]
    fn single_byte_corruption_is_caught(
        kind_sel in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..64),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let kind = any_kind(kind_sel);
        let clean = encode_frame(kind, &payload);
        let pos = ((clean.len() as f64) * pos_frac) as usize % clean.len();
        let mut dirty = clean.clone();
        dirty[pos] ^= flip;
        match decode(&dirty) {
            Err(_) => {} // typed rejection
            Ok(ReadOutcome::Frame(f)) => {
                prop_assert!(
                    false,
                    "corrupt byte {} accepted as kind {:?} with {}-byte payload",
                    pos, f.kind, f.payload.len()
                );
            }
            Ok(other) => prop_assert!(false, "corrupt frame gave {:?}", other),
        }
    }

    /// A declared payload length over the cap is rejected as `Oversized`
    /// *before* any payload allocation, whatever follows the header and
    /// however large the lie.
    #[test]
    fn oversized_declarations_never_allocate(
        kind_sel in 0u8..=255,
        declared in (MAX_PAYLOAD as u32 + 1)..=u32::MAX,
        tail in proptest::collection::vec(0u8..=255, 0..32),
    ) {
        // Hand-build a header with a huge declared length.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&mdes_serve::MAGIC);
        bytes.extend_from_slice(&mdes_serve::VERSION.to_le_bytes());
        bytes.push(any_kind(kind_sel) as u8);
        bytes.extend_from_slice(&declared.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&tail);
        match decode(&bytes) {
            Err(ProtoError::Oversized { declared: d, max }) => {
                prop_assert_eq!(d, u64::from(declared));
                prop_assert_eq!(max, MAX_PAYLOAD);
            }
            other => prop_assert!(false, "oversized declaration gave {:?}", other),
        }
    }

    /// CRC-32C's burst guarantee, end to end: flipping any run of 1–32
    /// consecutive bits (bit `i` of the frame is bit `i % 8` of byte
    /// `i / 8`) anywhere after the version field always gives a typed
    /// error. A run inside kind ‖ length ‖ payload or inside the checksum
    /// field is a burst the CRC detects by construction; a run across the
    /// checksum's edge changes both and is caught unless the two changes
    /// cancel, which happens with probability 2^-32.
    #[test]
    fn burst_corruption_after_the_version_is_caught(
        kind_sel in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..=256),
        start_frac in 0.0f64..1.0,
        burst in 1usize..=32,
    ) {
        let clean = encode_frame(any_kind(kind_sel), &payload);
        let first = 6 * 8;
        let starts = clean.len() * 8 - first - burst + 1;
        let start = first + ((starts as f64) * start_frac) as usize % starts;
        let mut dirty = clean.clone();
        for bit in start..start + burst {
            dirty[bit / 8] ^= 1 << (bit % 8);
        }
        match decode(&dirty) {
            Err(_) => {} // typed rejection
            other => prop_assert!(
                false,
                "{}-bit burst at bit {} of a {}-byte frame gave {:?}",
                burst, start, clean.len(), other
            ),
        }
    }

    /// Sanity for the adversarial harness itself: a clean frame always
    /// round-trips, and a trailing frame after garbage is still lost (the
    /// decoder does not resynchronize mid-stream — the server closes the
    /// connection on the first protocol error).
    #[test]
    fn clean_frames_always_roundtrip(
        kind_sel in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let kind = any_kind(kind_sel);
        let bytes = encode_frame(kind, &payload);
        match decode(&bytes) {
            Ok(ReadOutcome::Frame(Frame { kind: k, payload: p })) => {
                prop_assert_eq!(k, kind);
                prop_assert_eq!(p, payload);
            }
            other => prop_assert!(false, "clean frame gave {:?}", other),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Random batches survive encode → frame → read → parse unchanged:
    /// empty batches, missing, empty and non-ASCII records.
    #[test]
    fn push_batches_round_trip(seed in 0u64..=u64::MAX) {
        let batch = Gen(seed).batch();
        let frame = encode_msg(FrameKind::PushBatch, &batch);
        match decode(&frame) {
            Ok(ReadOutcome::Frame(f)) => {
                prop_assert_eq!(f.kind, FrameKind::PushBatch);
                prop_assert_eq!(f.parse::<PushBatchReq>(), Ok(batch));
            }
            other => prop_assert!(false, "push frame gave {:?}", other),
        }
    }

    /// Random replies of every outcome survive the same trip, NaN and −0.0
    /// scores bit for bit.
    #[test]
    fn push_replies_round_trip(seed in 0u64..=u64::MAX) {
        let reply = Gen(seed).reply();
        let frame = encode_msg(FrameKind::PushReply, &reply);
        match decode(&frame) {
            Ok(ReadOutcome::Frame(f)) => prop_assert_eq!(f.parse::<PushReply>(), Ok(reply)),
            other => prop_assert!(false, "reply frame gave {:?}", other),
        }
    }

    /// Every strict prefix of a valid payload is refused as `BadPayload`:
    /// the counts and lengths inside a payload fix its size.
    #[test]
    fn every_truncated_push_payload_is_bad_payload(seed in 0u64..=u64::MAX) {
        let mut g = Gen(seed);
        let batch = payload(&g.batch());
        for cut in 0..batch.len() {
            let r = PushBatchReq::decode(&batch[..cut]);
            prop_assert!(is_bad_payload(&r), "batch cut at {}: {:?}", cut, r);
        }
        let reply = payload(&g.reply());
        for cut in 0..reply.len() {
            let r = PushReply::decode(&reply[..cut]);
            prop_assert!(is_bad_payload(&r), "reply cut at {}: {:?}", cut, r);
        }
    }

    /// Random bytes never panic either decoder, allocate at most a small
    /// multiple of their own length, and decode only when they are the
    /// one canonical encoding of what they decode to.
    #[test]
    fn random_push_payloads_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..96)) {
        let (batch, peak) = peak_alloc(|| PushBatchReq::decode(&bytes));
        prop_assert!(peak <= 8 * bytes.len() + 64, "batch decode asked for {} bytes", peak);
        match batch {
            Ok(b) => prop_assert_eq!(payload(&b), bytes.clone()),
            Err(e) => prop_assert!(is_bad_payload::<()>(&Err(e))),
        }
        let (reply, peak) = peak_alloc(|| PushReply::decode(&bytes));
        prop_assert!(peak <= 8 * bytes.len() + 64, "reply decode asked for {} bytes", peak);
        match reply {
            Ok(r) => prop_assert_eq!(payload(&r), bytes),
            Err(e) => prop_assert!(is_bad_payload::<()>(&Err(e))),
        }
    }

    /// A count claiming more items than the bytes left could hold is
    /// refused before anything is allocated for them — entry, record,
    /// alert and dropped-sensor counts alike.
    #[test]
    fn overlong_counts_are_refused_without_allocating(
        claim in 2u32..(1 << 20),
        tail in proptest::collection::vec(0u8..=255, 0..24),
    ) {
        let mut entries = claim.to_le_bytes().to_vec();
        entries.extend_from_slice(&tail);
        let mut records = [7u64.to_le_bytes(), 8u64.to_le_bytes()].concat();
        records.splice(0..0, 1u32.to_le_bytes());
        records.extend_from_slice(&claim.to_le_bytes());
        records.extend_from_slice(&tail);
        let score_head = |alerts: u32| {
            let mut p = [1u64.to_le_bytes(), 2u64.to_le_bytes()].concat();
            p.push(1); // Score
            for _ in 0..4 {
                p.extend_from_slice(&0u64.to_le_bytes());
            }
            p.extend_from_slice(&alerts.to_le_bytes());
            p
        };
        let mut alerts = score_head(claim);
        alerts.extend_from_slice(&tail);
        let mut dropped = score_head(0);
        dropped.extend_from_slice(&claim.to_le_bytes());
        dropped.extend_from_slice(&tail);
        for (name, bytes, is_batch) in [
            ("entries", entries, true),
            ("records", records, true),
            ("alerts", alerts, false),
            ("dropped", dropped, false),
        ] {
            let (bad, peak) = peak_alloc(|| {
                if is_batch {
                    is_bad_payload(&PushBatchReq::decode(&bytes))
                } else {
                    is_bad_payload(&PushReply::decode(&bytes))
                }
            });
            prop_assert!(bad, "{} count {} accepted", name, claim);
            prop_assert!(peak <= 1024, "{} count {} allocated {} bytes", name, claim, peak);
        }
    }
}

/// Trailing bytes after a whole message, invalid UTF-8 in a record or an
/// error detail, and unknown outcome tags are each refused.
#[test]
fn trailing_bytes_bad_utf8_and_unknown_tags_are_refused() {
    let batch = PushBatchReq {
        entries: vec![PushEntry {
            session: 1,
            seq: 2,
            records: vec![Some("on".to_owned())],
        }],
    };
    let error = PushReply {
        session: 1,
        seq: 2,
        outcome: PushOutcome::Error {
            detail: "ok".to_owned(),
        },
    };
    let mut bytes = payload(&batch);
    bytes.push(0);
    assert!(is_bad_payload(&PushBatchReq::decode(&bytes)));
    let mut bytes = payload(&error);
    bytes.push(0);
    assert!(is_bad_payload(&PushReply::decode(&bytes)));

    // The last byte of each payload is the last text byte.
    let mut bytes = payload(&batch);
    *bytes.last_mut().expect("record byte") = 0xFF;
    assert!(is_bad_payload(&PushBatchReq::decode(&bytes)));
    let mut bytes = payload(&error);
    *bytes.last_mut().expect("detail byte") = 0xFF;
    assert!(is_bad_payload(&PushReply::decode(&bytes)));

    let ack = payload(&PushReply {
        session: 1,
        seq: 2,
        outcome: PushOutcome::Ack,
    });
    for tag in 5..=u8::MAX {
        let mut bytes = ack.clone();
        bytes[16] = tag;
        assert!(is_bad_payload(&PushReply::decode(&bytes)), "tag {tag}");
    }
}

/// Protocol-v1 frames (JSON push payloads) and v2 frames (an 8-byte FNV-1a
/// checksum) are refused with the version echoed back (plain test: exact
/// values, no randomness needed).
#[test]
fn wrong_version_is_refused_with_the_version_echoed() {
    for version in [1u16, 2] {
        let mut bytes = encode_msg(FrameKind::OpenSession, &OpenSessionReq { width: 1 });
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        match decode(&bytes) {
            Err(ProtoError::UnsupportedVersion(v)) => assert_eq!(v, version),
            other => panic!("v{version}: got {other:?}"),
        }
    }
}
