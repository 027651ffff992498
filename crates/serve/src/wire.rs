//! Wire messages carried by the framed ingest plane, and their payload
//! codecs ([`WireMsg`]).
//!
//! MDSV has two payload encodings (since v2; v3 changed only the frame
//! checksum):
//!
//! * the hot path, [`PushBatchReq`] and [`PushReply`], is fixed-width
//!   little-endian binary, hand-coded in this module (layout below);
//! * every control message ([`OpenSessionReq`], [`OpenSessionRep`],
//!   [`CloseSessionReq`], [`CloseSessionRep`], [`ProtoErrRep`]) stays JSON.
//!
//! ```text
//! PushBatch   u32 entry count, then per entry:
//!               u64 session, u64 seq, u32 record count, then per record
//!               u32 byte length (u32::MAX = missing) and its UTF-8 bytes
//! PushReply   u64 session, u64 seq, u8 outcome tag:
//!               0 Ack, 2 Busy, 3 Gone   (nothing follows)
//!               1 Score  u64 sample_index, u64 score_bits,
//!                        u64 coverage_bits, u64 snapshot_version,
//!                        u32 alert count + (u32, u32) per alert,
//!                        u32 dropped count + u32 per dropped sensor
//!               4 Error  u32 byte length + UTF-8 detail
//! ```
//!
//! Scores cross the wire as **raw f64 bit patterns** (`f64::to_bits`), so a
//! network-served detection is byte-identical to the in-process one by
//! construction (`tests/serve_net.rs` pins this).
//!
//! The binary decoder treats every byte as hostile: each count is checked
//! against the bytes left before anything is allocated for it, text must
//! be UTF-8, and trailing bytes, unknown outcome tags and a sample index
//! that does not fit a `usize` are refused. Every refusal is a typed
//! [`ProtoError::BadPayload`], never a panic.

use crate::frame::{FrameKind, ProtoError};
use mdes_core::OnlineDetection;
use serde::{Deserialize, Serialize};

/// A message that travels as one frame payload.
pub trait WireMsg: Sized {
    /// The frame kind this message travels under.
    const KIND: FrameKind;

    /// Appends the encoded payload to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes a whole payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadPayload`] when `payload` is not exactly one
    /// well-formed message.
    fn decode(payload: &[u8]) -> Result<Self, ProtoError>;
}

/// Client → server: open a stream session over samples of `width` sensors.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenSessionReq {
    /// Sensors per pushed sample (the trace count used at fit time).
    pub width: usize,
}

/// Server → client: outcome of [`OpenSessionReq`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenSessionRep {
    /// Whether the session was opened.
    pub ok: bool,
    /// Session id to push against (0 when `ok` is false).
    pub session: u64,
    /// Samples needed before the first detection can be emitted.
    pub warmup: usize,
    /// Version of the snapshot serving this session at open time.
    pub snapshot_version: u64,
    /// Failure diagnostics when `ok` is false.
    pub detail: String,
}

/// Client → server: close a stream session.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CloseSessionReq {
    /// Session to close.
    pub session: u64,
}

/// Server → client: outcome of [`CloseSessionReq`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CloseSessionRep {
    /// The closed session.
    pub session: u64,
    /// `true` if the session existed.
    pub existed: bool,
}

/// Server → client: a typed protocol error, sent best-effort just before
/// the server closes the connection.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtoErrRep {
    /// Stable identifier (see `ProtoError::code`).
    pub code: String,
    /// Human-readable diagnostics.
    pub detail: String,
}

/// Implements [`WireMsg`] for control messages through their serde JSON
/// form.
macro_rules! json_wire_msg {
    ($($ty:ty => $kind:ident),* $(,)?) => {$(
        impl WireMsg for $ty {
            const KIND: FrameKind = FrameKind::$kind;

            fn encode_into(&self, out: &mut Vec<u8>) {
                let text = serde_json::to_string(self).expect("wire messages always serialize");
                out.extend_from_slice(text.as_bytes());
            }

            fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
                let bad = |detail: String| ProtoError::BadPayload {
                    kind: Self::KIND as u8,
                    detail,
                };
                let text = std::str::from_utf8(payload)
                    .map_err(|_| bad("payload is not valid UTF-8".to_owned()))?;
                serde_json::from_str(text).map_err(|e| bad(format!("payload parse failed: {e}")))
            }
        }
    )*};
}

json_wire_msg!(
    OpenSessionReq => OpenSession,
    OpenSessionRep => SessionOpened,
    CloseSessionReq => CloseSession,
    CloseSessionRep => SessionClosed,
    ProtoErrRep => ProtoErr,
);

/// One sample for one session inside a [`PushBatchReq`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PushEntry {
    /// Target session.
    pub session: u64,
    /// Client-chosen correlation id, echoed in the [`PushReply`].
    pub seq: u64,
    /// One multivariate sample; `None` marks a sensor that delivered no
    /// record this tick (see `ServingEngine::push_opt`).
    pub records: Vec<Option<String>>,
}

/// Client → server: batched multi-session ingest. Entries for the same
/// session are scored in order; entries for different sessions are
/// independent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PushBatchReq {
    /// The batch.
    pub entries: Vec<PushEntry>,
}

/// A detection with its floats as raw bit patterns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDetection {
    /// Index of the sample at which the window completed.
    pub sample_index: usize,
    /// `f64::to_bits` of the anomaly score `a_t`.
    pub score_bits: u64,
    /// `f64::to_bits` of the coverage fraction.
    pub coverage_bits: u64,
    /// Version of the snapshot that scored the window (the admin plane's
    /// `snapshot_version`), so a reply names its model across hot-swaps.
    pub snapshot_version: u64,
    /// Broken sensor pairs of the completed window.
    pub alerts: Vec<(usize, usize)>,
    /// Original (push-order) indices of sensors currently dropped.
    pub dropped_sensors: Vec<usize>,
}

impl WireDetection {
    /// The wire form of `d`, scored by snapshot `snapshot_version`.
    pub fn new(d: OnlineDetection, snapshot_version: u64) -> Self {
        Self {
            sample_index: d.sample_index,
            score_bits: d.score.to_bits(),
            coverage_bits: d.coverage.to_bits(),
            snapshot_version,
            alerts: d.alerts,
            dropped_sensors: d.dropped_sensors,
        }
    }
}

impl From<WireDetection> for OnlineDetection {
    fn from(w: WireDetection) -> Self {
        Self {
            sample_index: w.sample_index,
            score: f64::from_bits(w.score_bits),
            coverage: f64::from_bits(w.coverage_bits),
            alerts: w.alerts,
            dropped_sensors: w.dropped_sensors,
        }
    }
}

/// Per-entry outcome inside a [`PushReply`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// Sample absorbed; no window completed.
    Ack,
    /// Sample completed a window; here is its detection.
    Score(WireDetection),
    /// Backpressure: the session's ingest queue is full. The sample was
    /// **not** absorbed — re-send it after draining replies.
    Busy,
    /// The session does not exist (never opened, closed, or evicted by the
    /// idle TTL). The sample was not absorbed.
    Gone,
    /// The engine rejected the sample (e.g. wrong width). The sample was
    /// consumed but produced no detection.
    Error {
        /// Engine diagnostics.
        detail: String,
    },
}

/// Server → client: outcome of one [`PushEntry`], correlated by
/// `(session, seq)`.
///
/// Outcomes for one session arrive in push order, except that `Busy` and
/// `Gone` are emitted synchronously at ingest and may overtake queued
/// outcomes of earlier entries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PushReply {
    /// The session pushed to.
    pub session: u64,
    /// The entry's correlation id.
    pub seq: u64,
    /// What happened.
    pub outcome: PushOutcome,
}

/// Record length that marks a missing record in a [`PushBatchReq`].
const MISSING: u32 = u32::MAX;

/// Fewest bytes one [`PushEntry`] can take: session, seq, record count.
const ENTRY_MIN_BYTES: usize = 8 + 8 + 4;

const TAG_ACK: u8 = 0;
const TAG_SCORE: u8 = 1;
const TAG_BUSY: u8 = 2;
const TAG_GONE: u8 = 3;
const TAG_ERROR: u8 = 4;

// Lengths and counts are written as `u32`. A frame's payload length is a
// `u32` too, so nothing longer can be framed; the frame cap refuses far
// smaller payloads first.
fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A sensor or graph-node index. Both are below the session's width, and
/// the server refuses a session wider than one frame could carry, far
/// below `u32::MAX`.
fn put_sensor(out: &mut Vec<u8>, i: usize) {
    let i = u32::try_from(i).expect("sensor indices are below the session width");
    out.extend_from_slice(&i.to_le_bytes());
}

fn put_text(out: &mut Vec<u8>, text: &str) {
    put_u32(out, text.len());
    out.extend_from_slice(text.as_bytes());
}

/// A cursor over a binary payload. Every read checks the bytes left; an
/// error names what was being read.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if n > self.rest.len() {
            return Err(format!("{what}: needs {n} bytes, {} left", self.rest.len()));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("took 4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("took 8 bytes")))
    }

    /// A `u64` that must fit a `usize`.
    fn index(&mut self, what: &str) -> Result<usize, String> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| format!("{what}: {v} is out of range"))
    }

    fn sensor(&mut self, what: &str) -> Result<usize, String> {
        Ok(self.u32(what)? as usize)
    }

    /// A `u32` item count, refused unless the bytes left can hold that many
    /// items of at least `min_bytes` each — checked before the caller
    /// allocates for them.
    fn count(&mut self, min_bytes: usize, what: &str) -> Result<usize, String> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_bytes) > self.rest.len() {
            return Err(format!(
                "{what}: {n} claimed, only {} bytes left",
                self.rest.len()
            ));
        }
        Ok(n)
    }

    /// `len` bytes of UTF-8 text.
    fn text(&mut self, len: usize, what: &str) -> Result<&'a str, String> {
        std::str::from_utf8(self.take(len, what)?).map_err(|_| format!("{what}: not valid UTF-8"))
    }

    fn finish(&self) -> Result<(), String> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes", self.rest.len()))
        }
    }
}

/// Runs `body` over the whole of `payload` and refuses trailing bytes;
/// every failure becomes a [`ProtoError::BadPayload`] for `kind`.
fn decode_binary<T>(
    kind: FrameKind,
    payload: &[u8],
    body: impl FnOnce(&mut Reader<'_>) -> Result<T, String>,
) -> Result<T, ProtoError> {
    let mut r = Reader { rest: payload };
    body(&mut r)
        .and_then(|msg| r.finish().map(|()| msg))
        .map_err(|detail| ProtoError::BadPayload {
            kind: kind as u8,
            detail,
        })
}

impl WireMsg for PushBatchReq {
    const KIND: FrameKind = FrameKind::PushBatch;

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u32(out, self.entries.len());
        for e in &self.entries {
            put_u64(out, e.session);
            put_u64(out, e.seq);
            put_u32(out, e.records.len());
            for record in &e.records {
                match record {
                    Some(text) => put_text(out, text),
                    None => out.extend_from_slice(&MISSING.to_le_bytes()),
                }
            }
        }
    }

    fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        decode_binary(Self::KIND, payload, |r| {
            let n = r.count(ENTRY_MIN_BYTES, "entry count")?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let session = r.u64("session")?;
                let seq = r.u64("seq")?;
                let m = r.count(4, "record count")?;
                let mut records = Vec::with_capacity(m);
                for _ in 0..m {
                    let len = r.u32("record length")?;
                    records.push(if len == MISSING {
                        None
                    } else {
                        Some(r.text(len as usize, "record")?.to_owned())
                    });
                }
                entries.push(PushEntry {
                    session,
                    seq,
                    records,
                });
            }
            Ok(PushBatchReq { entries })
        })
    }
}

impl WireMsg for PushReply {
    const KIND: FrameKind = FrameKind::PushReply;

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.session);
        put_u64(out, self.seq);
        match &self.outcome {
            PushOutcome::Ack => out.push(TAG_ACK),
            PushOutcome::Busy => out.push(TAG_BUSY),
            PushOutcome::Gone => out.push(TAG_GONE),
            PushOutcome::Error { detail } => {
                out.push(TAG_ERROR);
                put_text(out, detail);
            }
            PushOutcome::Score(d) => {
                out.push(TAG_SCORE);
                put_u64(out, d.sample_index as u64);
                put_u64(out, d.score_bits);
                put_u64(out, d.coverage_bits);
                put_u64(out, d.snapshot_version);
                put_u32(out, d.alerts.len());
                for &(i, j) in &d.alerts {
                    put_sensor(out, i);
                    put_sensor(out, j);
                }
                put_u32(out, d.dropped_sensors.len());
                for &s in &d.dropped_sensors {
                    put_sensor(out, s);
                }
            }
        }
    }

    fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        decode_binary(Self::KIND, payload, |r| {
            let session = r.u64("session")?;
            let seq = r.u64("seq")?;
            let outcome = match r.u8("outcome tag")? {
                TAG_ACK => PushOutcome::Ack,
                TAG_BUSY => PushOutcome::Busy,
                TAG_GONE => PushOutcome::Gone,
                TAG_ERROR => {
                    let len = r.u32("detail length")? as usize;
                    PushOutcome::Error {
                        detail: r.text(len, "detail")?.to_owned(),
                    }
                }
                TAG_SCORE => {
                    let sample_index = r.index("sample index")?;
                    let score_bits = r.u64("score bits")?;
                    let coverage_bits = r.u64("coverage bits")?;
                    let snapshot_version = r.u64("snapshot version")?;
                    let n = r.count(8, "alert count")?;
                    let mut alerts = Vec::with_capacity(n);
                    for _ in 0..n {
                        alerts.push((r.sensor("alert sensor")?, r.sensor("alert sensor")?));
                    }
                    let n = r.count(4, "dropped count")?;
                    let mut dropped_sensors = Vec::with_capacity(n);
                    for _ in 0..n {
                        dropped_sensors.push(r.sensor("dropped sensor")?);
                    }
                    PushOutcome::Score(WireDetection {
                        sample_index,
                        score_bits,
                        coverage_bits,
                        snapshot_version,
                        alerts,
                        dropped_sensors,
                    })
                }
                tag => return Err(format!("unknown outcome tag {tag}")),
            };
            Ok(PushReply {
                session,
                seq,
                outcome,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireMsg + PartialEq + std::fmt::Debug>(msg: &T) {
        let mut bytes = Vec::new();
        msg.encode_into(&mut bytes);
        assert_eq!(&T::decode(&bytes).expect("decode"), msg);
    }

    #[test]
    fn detection_bits_roundtrip_exactly() {
        for score in [0.0f64, -0.0, 0.1 + 0.2, f64::MIN_POSITIVE, 1.0 / 3.0] {
            let d = OnlineDetection {
                sample_index: 7,
                score,
                coverage: score / 2.0,
                alerts: vec![(1, 2)],
                dropped_sensors: vec![0],
            };
            let reply = PushReply {
                session: 1,
                seq: 2,
                outcome: PushOutcome::Score(WireDetection::new(d.clone(), 3)),
            };
            let mut bytes = Vec::new();
            reply.encode_into(&mut bytes);
            let PushOutcome::Score(back) = PushReply::decode(&bytes).expect("decode").outcome
            else {
                panic!("score outcome expected");
            };
            assert_eq!(back.snapshot_version, 3);
            let restored = OnlineDetection::from(back);
            assert_eq!(restored.score.to_bits(), d.score.to_bits());
            assert_eq!(restored.coverage.to_bits(), d.coverage.to_bits());
            assert_eq!(restored.alerts, d.alerts);
            assert_eq!(restored.dropped_sensors, d.dropped_sensors);
        }
    }

    #[test]
    fn push_outcome_variants_roundtrip() {
        let outcomes = [
            PushOutcome::Ack,
            PushOutcome::Busy,
            PushOutcome::Gone,
            PushOutcome::Error {
                detail: "width".to_owned(),
            },
        ];
        for outcome in outcomes {
            roundtrip(&PushReply {
                session: u64::MAX,
                seq: 0,
                outcome,
            });
        }
    }

    #[test]
    fn push_batch_layout_is_pinned() {
        let batch = PushBatchReq {
            entries: vec![PushEntry {
                session: 1,
                seq: 2,
                records: vec![Some("on".to_owned()), None],
            }],
        };
        let mut bytes = Vec::new();
        batch.encode_into(&mut bytes);
        let mut want = Vec::new();
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&1u64.to_le_bytes());
        want.extend_from_slice(&2u64.to_le_bytes());
        want.extend_from_slice(&2u32.to_le_bytes());
        want.extend_from_slice(&2u32.to_le_bytes());
        want.extend_from_slice(b"on");
        want.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes, want);
        roundtrip(&batch);
    }

    #[test]
    fn control_messages_stay_json() {
        let mut bytes = Vec::new();
        OpenSessionReq { width: 3 }.encode_into(&mut bytes);
        assert_eq!(bytes, br#"{"width":3}"#);
        roundtrip(&ProtoErrRep {
            code: "bad_version".to_owned(),
            detail: "v1".to_owned(),
        });
    }
}
