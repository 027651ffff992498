//! Length-prefixed binary framing for the ingest plane.
//!
//! Every frame is self-describing and checksummed, mirroring the
//! `MDCK`/`MDSN` discipline of `mdes_core::checkpoint`:
//!
//! ```text
//! magic     4 bytes   b"MDSV"
//! version   2 bytes   u16 LE, currently 3
//! kind      1 byte    see [`FrameKind`]
//! length    4 bytes   u32 LE, payload byte count
//! checksum  4 bytes   u32 LE, CRC-32C of kind + length + payload
//! payload   N bytes   one wire message (see [`crate::wire`]): binary for
//!                     `PushBatch` and `PushReply`, JSON for the control
//!                     kinds, empty for `Ping` and `Pong`
//! ```
//!
//! Version 1 carried every payload as JSON, and version 2 an 8-byte FNV-1a
//! checksum; a v1 or v2 frame is refused with
//! [`ProtoError::UnsupportedVersion`] (`bad_version`).
//!
//! The decoder is written for hostile input: random bytes, truncated
//! frames, oversized declared lengths and corrupted checksums must never
//! panic or over-allocate — every failure is a typed [`ProtoError`] the
//! server answers with one best-effort error frame before closing the
//! connection. The declared length is validated against the decoder's
//! cap *before* any allocation, so a frame claiming 4 GiB costs nothing.
//!
//! Slow-loris protection lives here too: [`read_frame`] distinguishes a
//! connection that is *idle between frames* (no bytes of a new header yet —
//! [`ReadOutcome::Idle`], benign) from one that has started a frame and
//! stopped feeding it ([`ProtoError::TimedOut`] once `frame_timeout`
//! elapses without the frame completing).

use crate::wire::WireMsg;
use mdes_core::checksum::crc32c_parts;
use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

/// Frame magic: "MDSV" (mdes serve).
pub const MAGIC: [u8; 4] = *b"MDSV";
/// Protocol version carried in every frame header.
pub const VERSION: u16 = 3;
/// Header bytes before the payload: magic + version + kind + len + checksum.
pub const HEADER_LEN: usize = 4 + 2 + 1 + 4 + 4;
/// Default cap on the declared payload length (1 MiB). A frame declaring
/// more is rejected with [`ProtoError::Oversized`] before any allocation.
pub const DEFAULT_MAX_PAYLOAD: usize = 1 << 20;

/// The frame checksum: CRC-32C over kind byte + length LE bytes + payload,
/// so any burst of up to 32 corrupted bits inside those bytes, or inside
/// the checksum field, is caught (magic and version are validated by their
/// own typed checks).
/// A checksum over the payload alone would let a bit flip turn one valid
/// kind byte into another undetected.
fn frame_checksum(kind: u8, payload: &[u8]) -> u32 {
    crc32c_parts(&[&[kind], &(payload.len() as u32).to_le_bytes(), payload])
}

/// Frame kinds. Values below 16 are client → server, 16 and up are
/// server → client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client: open a stream session ([`crate::wire::OpenSessionReq`]).
    OpenSession = 1,
    /// Client: close a stream session ([`crate::wire::CloseSessionReq`]).
    CloseSession = 2,
    /// Client: batched multi-session ingest ([`crate::wire::PushBatchReq`]).
    PushBatch = 3,
    /// Client: liveness probe / reader barrier (empty payload).
    Ping = 4,
    /// Server: session-open outcome ([`crate::wire::OpenSessionRep`]).
    SessionOpened = 16,
    /// Server: session-close outcome ([`crate::wire::CloseSessionRep`]).
    SessionClosed = 17,
    /// Server: one per-push outcome ([`crate::wire::PushReply`]).
    PushReply = 18,
    /// Server: typed protocol error, sent best-effort before closing
    /// ([`crate::wire::ProtoErrRep`]).
    ProtoErr = 19,
    /// Server: answer to [`FrameKind::Ping`] (empty payload).
    Pong = 20,
}

impl FrameKind {
    /// Decodes a kind byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            1 => FrameKind::OpenSession,
            2 => FrameKind::CloseSession,
            3 => FrameKind::PushBatch,
            4 => FrameKind::Ping,
            16 => FrameKind::SessionOpened,
            17 => FrameKind::SessionClosed,
            18 => FrameKind::PushReply,
            19 => FrameKind::ProtoErr,
            20 => FrameKind::Pong,
            _ => return None,
        })
    }
}

/// One decoded frame: a kind and its raw payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// What the payload means.
    pub kind: FrameKind,
    /// Raw payload: binary for `PushBatch` and `PushReply`, JSON for the
    /// control kinds, empty for `Ping` and `Pong` (see [`crate::wire`]).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Decodes the payload as a wire message.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::BadPayload`] when the payload is not exactly
    /// one well-formed `T`.
    pub fn parse<T: WireMsg>(&self) -> Result<T, ProtoError> {
        T::decode(&self.payload)
    }
}

/// Typed decode/transport failures. Every variant maps to one reason a
/// connection is closed; none of them can panic or allocate unboundedly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The 4 magic bytes were wrong — not our protocol, or the stream
    /// desynchronized.
    BadMagic {
        /// What arrived instead of `b"MDSV"`.
        found: [u8; 4],
    },
    /// Unknown protocol version.
    UnsupportedVersion(u16),
    /// Unknown frame-kind byte.
    UnknownKind(u8),
    /// Declared payload length exceeds the decoder's cap. Detected before
    /// any allocation.
    Oversized {
        /// Length the header declared.
        declared: u64,
        /// The decoder's cap.
        max: usize,
    },
    /// Received bytes do not hash to the declared checksum.
    ChecksumMismatch {
        /// Checksum the header declared.
        expected: u32,
        /// CRC-32C of the kind + length + payload actually received.
        found: u32,
    },
    /// The stream ended mid-frame.
    Truncated {
        /// Which part of the frame was cut.
        context: &'static str,
    },
    /// A started frame failed to complete within the read budget
    /// (slow-loris writer).
    TimedOut {
        /// Which part of the frame stalled.
        context: &'static str,
    },
    /// Checksum-valid payload that does not parse as the declared message —
    /// a peer codec bug, not line damage.
    BadPayload {
        /// Frame kind byte.
        kind: u8,
        /// Parser diagnostics.
        detail: String,
    },
    /// Transport-level I/O failure.
    Io(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic { found } => write!(f, "bad magic {found:?}"),
            ProtoError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            ProtoError::Oversized { declared, max } => {
                write!(f, "declared payload length {declared} exceeds cap {max}")
            }
            ProtoError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "payload checksum mismatch: declared {expected:#x}, got {found:#x}"
                )
            }
            ProtoError::Truncated { context } => write!(f, "stream ended mid-frame ({context})"),
            ProtoError::TimedOut { context } => {
                write!(f, "frame read timed out ({context}): slow writer")
            }
            ProtoError::BadPayload { kind, detail } => {
                write!(f, "undecodable payload for kind {kind}: {detail}")
            }
            ProtoError::Io(detail) => write!(f, "i/o failure: {detail}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// Short stable identifier, echoed in
    /// [`ProtoErrRep`](crate::wire::ProtoErrRep) so clients can match on it
    /// without parsing prose.
    pub fn code(&self) -> &'static str {
        match self {
            ProtoError::BadMagic { .. } => "bad_magic",
            ProtoError::UnsupportedVersion(_) => "bad_version",
            ProtoError::UnknownKind(_) => "unknown_kind",
            ProtoError::Oversized { .. } => "oversized",
            ProtoError::ChecksumMismatch { .. } => "bad_checksum",
            ProtoError::Truncated { .. } => "truncated",
            ProtoError::TimedOut { .. } => "timed_out",
            ProtoError::BadPayload { .. } => "bad_payload",
            ProtoError::Io(_) => "io",
        }
    }
}

/// Encodes one frame into a fresh buffer.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    append_frame(&mut out, kind, payload);
    out
}

/// Appends one frame to `out`, so several frames can share one buffer (and
/// one write) back to back.
pub(crate) fn append_frame(out: &mut Vec<u8>, kind: FrameKind, payload: &[u8]) {
    append_with(out, kind, |out| out.extend_from_slice(payload));
}

/// Appends one frame carrying `msg` under its own kind to `out`, encoding
/// the payload in place.
pub(crate) fn append_msg<T: WireMsg>(out: &mut Vec<u8>, msg: &T) {
    append_with(out, T::KIND, |out| msg.encode_into(out));
}

/// Writes a header with placeholder length and checksum, lets `payload`
/// append the payload, then patches both in: one buffer, no copy.
fn append_with(out: &mut Vec<u8>, kind: FrameKind, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind as u8);
    out.extend_from_slice(&[0; 8]);
    payload(out);
    let (header, body) = out[start..].split_at_mut(HEADER_LEN);
    header[7..11].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[11..].copy_from_slice(&frame_checksum(kind as u8, body).to_le_bytes());
}

/// Encodes `msg` as one frame under `kind`.
///
/// # Panics
///
/// Panics if a JSON control message fails to serialize — wire messages
/// are plain data structs, so that is a programming error, not an input
/// condition.
pub fn encode_msg<T: WireMsg>(kind: FrameKind, msg: &T) -> Vec<u8> {
    let mut out = Vec::new();
    append_with(&mut out, kind, |out| msg.encode_into(out));
    out
}

/// Writes one frame to `w` (no flush).
///
/// # Errors
///
/// Returns [`ProtoError::Io`] on write failure.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), ProtoError> {
    w.write_all(&encode_frame(kind, payload))
        .map_err(|e| ProtoError::Io(e.to_string()))
}

/// What one [`read_frame`] call produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// A whole, checksum-valid frame.
    Frame(Frame),
    /// The reader timed out with *zero* bytes of a new frame — the
    /// connection is merely idle; call again.
    Idle,
    /// Clean end-of-stream exactly on a frame boundary.
    Eof,
}

/// Fills `buf` from `r`, honoring the frame deadline. `started` is the
/// instant the first byte of the current frame arrived (None until then).
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    mut filled: usize,
    started: &mut Option<Instant>,
    frame_timeout: Option<Duration>,
    context: &'static str,
) -> Result<usize, ReadStop> {
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 && started.is_none() {
                    ReadStop::Eof
                } else {
                    ReadStop::Error(ProtoError::Truncated { context })
                });
            }
            Ok(n) => {
                if started.is_none() {
                    *started = Some(Instant::now());
                }
                filled += n;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                match *started {
                    // No frame in progress: the connection is just idle.
                    None => return Err(ReadStop::Idle),
                    Some(t0) => {
                        // A frame is in progress; give the writer until the
                        // frame deadline, then call it a slow-loris.
                        if frame_timeout.is_some_and(|limit| t0.elapsed() >= limit) {
                            return Err(ReadStop::Error(ProtoError::TimedOut { context }));
                        }
                    }
                }
            }
            Err(e) => return Err(ReadStop::Error(ProtoError::Io(e.to_string()))),
        }
    }
    Ok(filled)
}

enum ReadStop {
    Idle,
    Eof,
    Error(ProtoError),
}

/// Reads one frame from `r`.
///
/// `max_payload` caps the declared payload length (checked before
/// allocating). `frame_timeout` is the total wall-clock budget to finish a
/// frame once its first byte has arrived; `None` disables the budget (for
/// in-memory readers). The underlying reader should have a short socket
/// read timeout so idleness and slow writers surface as `WouldBlock`/
/// `TimedOut` rather than blocking forever.
///
/// # Errors
///
/// Any [`ProtoError`]; the caller is expected to answer with one
/// best-effort [`FrameKind::ProtoErr`] frame and close the connection.
pub fn read_frame(
    r: &mut impl Read,
    max_payload: usize,
    frame_timeout: Option<Duration>,
) -> Result<ReadOutcome, ProtoError> {
    let mut started: Option<Instant> = None;
    let mut header = [0u8; HEADER_LEN];
    match read_full(
        r,
        &mut header,
        0,
        &mut started,
        frame_timeout,
        "frame header",
    ) {
        Ok(_) => {}
        Err(ReadStop::Idle) => return Ok(ReadOutcome::Idle),
        Err(ReadStop::Eof) => return Ok(ReadOutcome::Eof),
        Err(ReadStop::Error(e)) => return Err(e),
    }
    if header[..4] != MAGIC {
        return Err(ProtoError::BadMagic {
            found: header[..4].try_into().expect("4 bytes"),
        });
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(ProtoError::UnsupportedVersion(version));
    }
    let kind = FrameKind::from_u8(header[6]).ok_or(ProtoError::UnknownKind(header[6]))?;
    let len = u32::from_le_bytes(header[7..11].try_into().expect("4 bytes")) as usize;
    if len > max_payload {
        return Err(ProtoError::Oversized {
            declared: len as u64,
            max: max_payload,
        });
    }
    let checksum = u32::from_le_bytes(header[11..15].try_into().expect("4 bytes"));
    let mut payload = vec![0u8; len];
    if len > 0 {
        match read_full(
            r,
            &mut payload,
            0,
            &mut started,
            frame_timeout,
            "frame payload",
        ) {
            Ok(_) => {}
            // A timeout mid-payload is still a started frame.
            Err(ReadStop::Idle) | Err(ReadStop::Eof) => {
                return Err(ProtoError::Truncated {
                    context: "frame payload",
                })
            }
            Err(ReadStop::Error(e)) => return Err(e),
        }
    }
    let found = frame_checksum(kind as u8, &payload);
    if found != checksum {
        return Err(ProtoError::ChecksumMismatch {
            expected: checksum,
            found,
        });
    }
    Ok(ReadOutcome::Frame(Frame { kind, payload }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_all_kinds() {
        for kind in [
            FrameKind::OpenSession,
            FrameKind::CloseSession,
            FrameKind::PushBatch,
            FrameKind::Ping,
            FrameKind::SessionOpened,
            FrameKind::SessionClosed,
            FrameKind::PushReply,
            FrameKind::ProtoErr,
            FrameKind::Pong,
        ] {
            let bytes = encode_frame(kind, b"{\"x\":1}");
            let mut cur = Cursor::new(bytes);
            match read_frame(&mut cur, DEFAULT_MAX_PAYLOAD, None).expect("decode") {
                ReadOutcome::Frame(f) => {
                    assert_eq!(f.kind, kind);
                    assert_eq!(f.payload, b"{\"x\":1}");
                }
                other => panic!("expected frame, got {other:?}"),
            }
            // And the stream ends cleanly after it.
            assert_eq!(
                read_frame(&mut cur, DEFAULT_MAX_PAYLOAD, None).expect("eof"),
                ReadOutcome::Eof
            );
        }
    }

    #[test]
    fn checksum_bytes_are_pinned() {
        // CRC-32C over kind ‖ u32 LE length ‖ payload, as MDSV v3 writes
        // it: the trailing 4 header bytes of a PushBatch "abc" frame.
        let bytes = encode_frame(FrameKind::PushBatch, b"abc");
        assert_eq!(
            bytes[HEADER_LEN - 4..HEADER_LEN],
            0xB946_DC76u32.to_le_bytes()
        );
    }

    #[test]
    fn empty_payload_roundtrips() {
        let bytes = encode_frame(FrameKind::Ping, b"");
        let mut cur = Cursor::new(bytes);
        match read_frame(&mut cur, DEFAULT_MAX_PAYLOAD, None).expect("decode") {
            ReadOutcome::Frame(f) => assert!(f.payload.is_empty()),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut bytes = encode_frame(FrameKind::Ping, b"");
        // Forge the length field to u32::MAX.
        bytes[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cur = Cursor::new(bytes);
        assert_eq!(
            read_frame(&mut cur, 1024, None),
            Err(ProtoError::Oversized {
                declared: u64::from(u32::MAX),
                max: 1024
            })
        );
    }

    #[test]
    fn bad_magic_version_kind_and_checksum_are_typed() {
        let good = encode_frame(FrameKind::Ping, b"x");
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(bad), 1024, None),
            Err(ProtoError::BadMagic { .. })
        ));
        let mut bad = good.clone();
        bad[4..6].copy_from_slice(&9u16.to_le_bytes());
        assert_eq!(
            read_frame(&mut Cursor::new(bad), 1024, None),
            Err(ProtoError::UnsupportedVersion(9))
        );
        let mut bad = good.clone();
        bad[6] = 200;
        assert_eq!(
            read_frame(&mut Cursor::new(bad), 1024, None),
            Err(ProtoError::UnknownKind(200))
        );
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut Cursor::new(bad), 1024, None),
            Err(ProtoError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn every_truncation_is_eof_or_truncated() {
        let bytes = encode_frame(FrameKind::PushBatch, b"{\"entries\":[]}");
        for cut in 0..bytes.len() {
            let out = read_frame(&mut Cursor::new(&bytes[..cut]), 1024, None);
            if cut == 0 {
                assert_eq!(out.expect("clean eof"), ReadOutcome::Eof);
            } else {
                assert!(
                    matches!(out, Err(ProtoError::Truncated { .. })),
                    "cut {cut}: {out:?}"
                );
            }
        }
    }
}
