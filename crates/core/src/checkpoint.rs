//! Sweep checkpointing and serving artifacts: crash-safe persistence of
//! partially-built graphs and of frozen snapshots.
//!
//! An Algorithm 1 sweep over `M` sensors trains `M·(M-1)` pair models; at
//! the paper's 128-sensor scale that is an hours-long job whose death (OOM
//! kill, host reboot, deploy) previously lost every completed pair. This
//! module persists completed [`FrozenPairModel`]s (and quarantined pairs) so
//! [`build_graph_sharded`](crate::sharded::build_graph_sharded) can resume a
//! sweep from where it died, producing a graph identical to an
//! uninterrupted run — each pair is trained deterministically in isolation,
//! so it does not matter whether its model came from the checkpoint or a
//! fresh run.
//!
//! # Frames and records (shared by MDCK v5 and MDSN v4)
//!
//! Both file types are a 16-byte header followed by checksummed frames:
//!
//! ```text
//! header:
//!   magic        4 bytes   b"MDCK" (sweep checkpoint) or b"MDSN" (snapshot)
//!   version      4 bytes   u32 LE: MDCK 5, MDSN 4
//!   word         8 bytes   u64 LE: MDCK sweep fingerprint, MDSN zero
//! frame (repeated):
//!   kind         1 byte    0 = [FrozenPairModel, runtime_secs],
//!                          1 = QuarantinedPair, 2 = snapshot
//!   length       8 bytes   u64 LE, payload byte count
//!   checksum     4 bytes   u32 LE, CRC-32C over kind ‖ length ‖ payload
//!   payload      N bytes   one record
//! record (the payload):
//!   json_len     8 bytes   u64 LE
//!   json         json_len  UTF-8 JSON header
//!   section      rest      raw little-endian tensor bytes
//! ```
//!
//! Weight tensors never pass through JSON text. Every packed tensor node
//! ([`serde::Content::Tensor`]: `Matrix` data, f16/int8 weights, int8
//! scales) is lifted into the section, and the JSON header holds a reference
//! in its place: `{"$tensor":{"offset":…,"dtype":"f32","shape":[…]}}`.
//! References appear in the order their bytes are laid out, back to back,
//! and together cover the section exactly. The reader bounds-checks every
//! reference (`offset + dtype size × shape` with overflow-checked
//! arithmetic, against the section end and the previous reference) before
//! it slices; the model types then check dtype and shape against their own
//! declared dimensions, and reject non-finite f16 weights and int8 scales.
//! The checksum ([`crc32c_parts`]) covers the kind and length bytes too, so
//! a flip anywhere in a frame is damage, not a different frame; every error
//! burst of up to 32 bits inside kind ‖ length ‖ payload is caught.
//!
//! # MDCK: append-only, prefix-recovering
//!
//! A sweep checkpoint is the header plus one frame per finished pair, in
//! completion order. `CheckpointWriter` encodes each finished pair once and
//! appends its frame; the file is written, flushed and fsynced after every
//! [`ShardedSweepConfig::checkpoint_every`](crate::sharded::ShardedSweepConfig::checkpoint_every)
//! frames and again when the sweep ends. A new file is created with its
//! header through a tmp sibling and an atomic rename, so a checkpoint file
//! always starts with a whole header.
//!
//! [`read_checkpoint`] recovers the longest valid frame prefix: a truncated
//! or bit-rotted trailing frame drops only the pairs at and after the
//! damage, and the recovery is reported through `mdes-obs`
//! (`checkpoint.recovery` event, `checkpoint.frames_recovered` /
//! `checkpoint.frames_dropped` counters). On resume the writer truncates the
//! file to that prefix and appends after it. Only a corrupt header (bad
//! magic, short file, unknown version) or an undecodable checksum-valid
//! record — a codec bug, not damage — aborts the resume; a fingerprint
//! mismatch is rejected when the writer opens. Checkpoints are transient
//! sweep state, so files of older versions are refused, not converted: v1
//! and v2 had other framings, v3 model frames held another model record,
//! and v4 frames carried an 8-byte FNV-1a checksum.
//!
//! # MDSN: all-or-nothing
//!
//! A serving artifact ([`write_snapshot`] / [`read_snapshot`],
//! [`snapshot_to_bytes`] / [`snapshot_from_bytes`]) is the header plus
//! exactly one kind-2 frame holding the [`GraphSnapshot`] record, and
//! nothing after it. It is deployed whole or not at all: any damage,
//! including trailing bytes, is a typed [`CoreError::Checkpoint`] error.
//! Versions 1–3 are still read, by a version-gated legacy path. Their frame
//! header ends in an 8-byte FNV-1a checksum (17 bytes, not 13). Versions 1
//! and 2 hold one JSON payload whose checksum covers the payload only (v2
//! adds the optional quantization record); v3 holds the record above, with
//! the checksum over kind ‖ length ‖ payload.

use crate::algorithm1::QuarantinedPair;
use crate::checksum::{crc32c_parts, fnv1a_parts};
use crate::error::CoreError;
use crate::serve::GraphSnapshot;
use crate::translator::FrozenPairModel;
use serde::{Content, Deserialize, Dtype, Serialize, Tensor};
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"MDCK";
const VERSION: u32 = 5;
const HEADER_LEN: usize = 4 + 4 + 8;
/// kind + length + CRC-32C.
const FRAME_HEADER_LEN: usize = 1 + 8 + 4;
/// kind + length + FNV-1a, as MDSN v1–v3 wrote it.
const LEGACY_FRAME_HEADER_LEN: usize = 1 + 8 + 8;

const KIND_MODEL: u8 = 0;
const KIND_QUARANTINED: u8 = 1;

const SNAP_MAGIC: &[u8; 4] = b"MDSN";
/// Current snapshot layout: one sectioned record (see the module docs).
const SNAP_VERSION: u32 = 4;
/// Oldest snapshot layout still read: versions 1 and 2 are one JSON
/// payload; v2 may carry a `quant` calibration record, v1 never does.
const SNAP_MIN_VERSION: u32 = 1;
/// Oldest snapshot layout whose payload is a sectioned record.
const SNAP_RECORD_VERSION: u32 = 3;
const KIND_SNAPSHOT: u8 = 2;

/// The JSON key of a tensor reference in a record header.
const TENSOR_REF: &str = "$tensor";

/// Where one sweep (one shard of
/// [`build_graph_sharded`](crate::sharded::build_graph_sharded)) persists
/// its progress, and how often.
#[derive(Debug)]
pub(crate) struct CheckpointConfig {
    /// Checkpoint file path. An existing, valid checkpoint at this path is
    /// resumed from, and the sweep appends to it.
    pub(crate) path: String,
    /// Flush and fsync after every `every` appended pairs (clamped to ≥ 1).
    /// The file is always flushed when the sweep finishes.
    pub(crate) every: usize,
}

/// The persisted state of a partially-completed sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CheckpointData {
    /// Fingerprint of the sweep inputs (sensor names + build configuration);
    /// a mismatch on resume means the checkpoint belongs to a different
    /// sweep and must not be reused.
    pub fingerprint: u64,
    /// Completed pair models, each with the wall-clock seconds it took to
    /// train and score.
    pub models: Vec<(FrozenPairModel, f64)>,
    /// Pairs quarantined so far (under a `Degrade` policy).
    pub quarantined: Vec<QuarantinedPair>,
}

fn ckpt_err(path: &Path, detail: impl Into<String>) -> CoreError {
    CoreError::Checkpoint {
        path: path.display().to_string(),
        detail: detail.into(),
    }
}

/// Re-labels a path-less codec error with the file it came from.
fn at_path(path: &Path) -> impl Fn(CoreError) -> CoreError + '_ {
    move |e| match e {
        CoreError::Checkpoint { detail, .. } => ckpt_err(path, detail),
        other => other,
    }
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn push_header(out: &mut Vec<u8>, magic: &[u8; 4], version: u32, word: u64) {
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&word.to_le_bytes());
}

/// `(version, word)` of a 16-byte header with `magic`, or `None`.
fn parse_header(bytes: &[u8], magic: &[u8; 4]) -> Option<(u32, u64)> {
    if bytes.len() < HEADER_LEN || &bytes[..4] != magic {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    Some((version, u64_at(bytes, 8)))
}

// --- records: JSON header + raw tensor section -----------------------------

/// Appends `value` to `out` as one record (see the module docs).
fn push_record<T: Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) -> Result<(), String> {
    let mut tensors = Vec::new();
    let mut section_len = 0;
    // The tree is dropped before the record is assembled, so it never
    // coexists with the record; the tensors it held are moved, not copied.
    let json = {
        let mut content = value.to_content();
        lift_tensors(&mut content, &mut section_len, &mut tensors);
        serde_json::render(&content).map_err(|e| e.to_string())?
    };
    out.reserve(8 + json.len() + section_len);
    out.extend_from_slice(&(json.len() as u64).to_le_bytes());
    out.extend_from_slice(json.as_bytes());
    for t in &tensors {
        out.extend_from_slice(t.bytes());
    }
    Ok(())
}

/// Moves every tensor out of the tree into `tensors`, in section order,
/// leaving a reference to its offset behind.
fn lift_tensors(content: &mut Content, offset: &mut usize, tensors: &mut Vec<Tensor>) {
    match content {
        Content::Tensor(t) => {
            let reference = Content::Map(vec![(
                TENSOR_REF.to_owned(),
                Content::Map(vec![
                    ("offset".to_owned(), offset.to_content()),
                    ("dtype".to_owned(), t.dtype().name().to_content()),
                    ("shape".to_owned(), t.shape().to_content()),
                ]),
            )]);
            *offset += t.bytes().len();
            if let Content::Tensor(t) = std::mem::replace(content, reference) {
                tensors.push(*t);
            }
        }
        Content::Seq(items) => items
            .iter_mut()
            .for_each(|c| lift_tensors(c, offset, tensors)),
        Content::Map(entries) => entries
            .iter_mut()
            .for_each(|(_, c)| lift_tensors(c, offset, tensors)),
        _ => {}
    }
}

/// Decodes one record; every failure is a message, never a panic.
fn read_record<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
    let json_len = payload
        .get(..8)
        .map(|b| u64_at(b, 0))
        .ok_or("record shorter than its JSON length")?;
    let json_end = usize::try_from(json_len)
        .ok()
        .and_then(|n| n.checked_add(8))
        .filter(|&end| end <= payload.len())
        .ok_or("record JSON length runs past the payload")?;
    let text =
        std::str::from_utf8(&payload[8..json_end]).map_err(|_| "record JSON is not valid UTF-8")?;
    let mut content = serde_json::parse(text).map_err(|e| format!("record JSON: {e}"))?;
    let section = &payload[json_end..];
    let mut cursor = 0;
    // Every reference spells out its key, so a header without one (an
    // n-gram snapshot, a quarantine record) skips the tree walk.
    if text.contains(TENSOR_REF) {
        resolve_tensors(&mut content, section, &mut cursor)?;
    }
    if cursor != section.len() {
        return Err(format!(
            "tensor section has {} bytes no reference covers",
            section.len() - cursor
        ));
    }
    T::from_content(&content).map_err(|e| e.to_string())
}

/// Replaces every tensor reference with the tensor it points at. References
/// must tile the section in order: each starts where the previous ended.
fn resolve_tensors(
    content: &mut Content,
    section: &[u8],
    cursor: &mut usize,
) -> Result<(), String> {
    match content {
        Content::Map(entries) if entries.len() == 1 && entries[0].0 == TENSOR_REF => {
            *content = tensor_at(&entries[0].1, section, cursor)?.into();
        }
        Content::Map(entries) => {
            for (_, c) in entries {
                resolve_tensors(c, section, cursor)?;
            }
        }
        Content::Seq(items) => {
            for c in items {
                resolve_tensors(c, section, cursor)?;
            }
        }
        _ => {}
    }
    Ok(())
}

/// Bounds- and shape-checks one tensor reference, then slices it.
fn tensor_at(reference: &Content, section: &[u8], cursor: &mut usize) -> Result<Tensor, String> {
    let field = |name| format!("tensor reference: bad or missing `{name}`");
    let offset: usize = serde::__field(reference, "offset").map_err(|_| field("offset"))?;
    let dtype: String = serde::__field(reference, "dtype").map_err(|_| field("dtype"))?;
    let shape: Vec<usize> = serde::__field(reference, "shape").map_err(|_| field("shape"))?;
    let dtype =
        Dtype::from_name(&dtype).ok_or_else(|| format!("unknown tensor dtype `{dtype}`"))?;
    let len = Tensor::byte_len(dtype, &shape)
        .ok_or_else(|| format!("tensor shape {shape:?} overflows"))?;
    let end = offset
        .checked_add(len)
        .ok_or_else(|| format!("tensor at {offset} + {len} bytes overflows"))?;
    if offset != *cursor {
        return Err(format!(
            "tensor at {offset} does not follow the previous one (ends at {cursor})"
        ));
    }
    let bytes = section.get(offset..end).ok_or_else(|| {
        format!(
            "tensor at {offset}..{end} runs past the {}-byte section",
            section.len()
        )
    })?;
    *cursor = end;
    Tensor::new(dtype, shape, bytes.to_vec()).map_err(|e| e.to_string())
}

// --- frames ----------------------------------------------------------------

/// Appends one frame to `out`, with its payload written in place by
/// `payload` (so large records are not copied once more).
fn push_frame(
    out: &mut Vec<u8>,
    kind: u8,
    payload: impl FnOnce(&mut Vec<u8>) -> Result<(), String>,
) -> Result<(), String> {
    let start = out.len();
    out.push(kind);
    out.extend_from_slice(&[0; FRAME_HEADER_LEN - 1]);
    payload(out)?;
    let len = (out.len() - start - FRAME_HEADER_LEN) as u64;
    out[start + 1..start + 9].copy_from_slice(&len.to_le_bytes());
    let sum = crc32c_parts(&[
        &[kind],
        &len.to_le_bytes(),
        &out[start + FRAME_HEADER_LEN..],
    ]);
    out[start + 9..start + FRAME_HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// One frame read at `offset`: its kind, payload, and the offset after it.
/// The error names the damage (truncation or checksum mismatch).
fn read_frame(bytes: &[u8], offset: usize) -> Result<(u8, &[u8], usize), &'static str> {
    let header = bytes
        .get(offset..offset.saturating_add(FRAME_HEADER_LEN))
        .ok_or("truncated frame header")?;
    let kind = header[0];
    let len_bytes = &header[1..9];
    let checksum = u32::from_le_bytes(header[9..].try_into().expect("4 bytes"));
    let start = offset + FRAME_HEADER_LEN;
    let payload = usize::try_from(u64_at(header, 1))
        .ok()
        .and_then(|len| start.checked_add(len))
        .and_then(|end| bytes.get(start..end))
        .ok_or("truncated frame payload")?;
    if crc32c_parts(&[&[kind], len_bytes, payload]) != checksum {
        return Err("frame checksum mismatch");
    }
    Ok((kind, payload, start + payload.len()))
}

/// Encodes a finished pair model and its runtime as one MDCK frame.
pub(crate) fn model_frame(model: &FrozenPairModel, runtime_secs: f64) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    push_frame(&mut out, KIND_MODEL, |out| {
        push_record(out, &(model, runtime_secs))
    })
    .map_err(|e| format!("serialize model failed: {e}"))?;
    Ok(out)
}

/// Encodes a quarantined pair as one MDCK frame.
pub(crate) fn quarantined_frame(pair: &QuarantinedPair) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    push_frame(&mut out, KIND_QUARANTINED, |out| push_record(out, pair))
        .map_err(|e| format!("serialize quarantined failed: {e}"))?;
    Ok(out)
}

// --- MDCK ------------------------------------------------------------------

/// Writes `bytes` to `path` through a fsynced tmp sibling and an atomic
/// rename, so a crash never leaves a half-written file at `path`; the
/// directory is synced too, so the rename itself survives a crash.
fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), CoreError> {
    let tmp = path.with_extension("tmp");
    let mut file =
        fs::File::create(&tmp).map_err(|e| ckpt_err(path, format!("create tmp failed: {e}")))?;
    file.write_all(bytes)
        .map_err(|e| ckpt_err(path, format!("write failed: {e}")))?;
    file.sync_all()
        .map_err(|e| ckpt_err(path, format!("sync failed: {e}")))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| ckpt_err(path, format!("rename failed: {e}")))?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| ckpt_err(path, format!("directory sync failed: {e}")))
}

/// Atomically writes `data` to `path` as a whole MDCK v5 file (tmp file +
/// rename): the header, then the models, then the quarantined pairs, one
/// frame each. Sweeps append instead (see `CheckpointWriter`); this is
/// for tools and tests that hold a whole checkpoint in memory.
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] on serialization or I/O failure.
pub fn write_checkpoint(path: &Path, data: &CheckpointData) -> Result<(), CoreError> {
    let mut span = mdes_obs::span("checkpoint.write");
    let mut bytes = Vec::with_capacity(HEADER_LEN);
    push_header(&mut bytes, MAGIC, VERSION, data.fingerprint);
    for (model, secs) in &data.models {
        bytes.extend_from_slice(&model_frame(model, *secs).map_err(|e| ckpt_err(path, e))?);
    }
    for pair in &data.quarantined {
        bytes.extend_from_slice(&quarantined_frame(pair).map_err(|e| ckpt_err(path, e))?);
    }
    span.field("bytes", bytes.len());
    span.field("frames", data.models.len() + data.quarantined.len());
    write_atomically(path, &bytes)
}

/// Reads a checkpoint written by [`write_checkpoint`] or a
/// `CheckpointWriter`, recovering the longest valid frame prefix.
///
/// A trailing frame truncated by a mid-write kill — or corrupted by bit rot
/// anywhere in its kind, length, checksum or payload — ends the scan:
/// everything before it is returned, the damaged tail is dropped, and a
/// `checkpoint.recovery` event (plus `checkpoint.frames_recovered` /
/// `checkpoint.frames_dropped` counters) is emitted through `mdes-obs`.
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] only if the file cannot be read, the
/// 16-byte header is malformed (bad magic, short file, a version other than
/// 5), or a checksum-valid record fails to decode — the latter is a codec
/// bug, not file damage, so recovery would hide it.
pub fn read_checkpoint(path: &Path) -> Result<CheckpointData, CoreError> {
    let bytes = fs::read(path).map_err(|e| ckpt_err(path, format!("read failed: {e}")))?;
    scan_checkpoint(&bytes)
        .map(|(data, _)| data)
        .map_err(at_path(path))
}

/// Decodes a checkpoint image; also returns the byte length of its valid
/// prefix, where a resumed sweep appends.
fn scan_checkpoint(bytes: &[u8]) -> Result<(CheckpointData, usize), CoreError> {
    let path = Path::new("");
    let mut span = mdes_obs::span("checkpoint.read");
    let (version, fingerprint) = parse_header(bytes, MAGIC)
        .ok_or_else(|| ckpt_err(path, "not a checkpoint file (bad magic)"))?;
    if version != VERSION {
        return Err(ckpt_err(
            path,
            format!(
                "unsupported checkpoint version {version} (this build reads v{VERSION}; \
                 checkpoints are transient sweep state: delete the file to start over)"
            ),
        ));
    }
    let mut data = CheckpointData {
        fingerprint,
        models: Vec::new(),
        quarantined: Vec::new(),
    };
    let mut offset = HEADER_LEN;
    let mut damaged = None;
    while offset < bytes.len() {
        let (kind, payload, next) = match read_frame(bytes, offset) {
            Ok(frame) => frame,
            Err(reason) => {
                damaged = Some(reason);
                break;
            }
        };
        // From here the frame is intact; a decode failure is a codec bug and
        // must surface, not be silently recovered past.
        match kind {
            KIND_MODEL => data.models.push(
                read_record(payload)
                    .map_err(|e| ckpt_err(path, format!("model frame parse failed: {e}")))?,
            ),
            KIND_QUARANTINED => data.quarantined.push(
                read_record(payload)
                    .map_err(|e| ckpt_err(path, format!("quarantined frame parse failed: {e}")))?,
            ),
            other => return Err(ckpt_err(path, format!("unknown frame kind {other}"))),
        }
        offset = next;
    }

    let frames = data.models.len() + data.quarantined.len();
    span.field("frames", frames);
    span.field("recovered", damaged.is_some());
    if let Some(reason) = damaged {
        mdes_obs::counter("checkpoint.frames_recovered", frames as u64);
        mdes_obs::counter("checkpoint.frames_dropped", 1);
        mdes_obs::event(
            "checkpoint.recovery",
            &[
                ("reason", reason.into()),
                ("recovered_frames", frames.into()),
                ("dropped_bytes", (bytes.len() - offset).into()),
            ],
        );
    }
    Ok((data, offset))
}

/// An open MDCK v5 checkpoint that a sweep appends finished pairs to.
///
/// Frames are queued in memory and written, flushed and fsynced every
/// `every` frames (`CheckpointWriter::append`) and at the end
/// (`CheckpointWriter::finish`). A failed periodic write is best-effort:
/// it is reported (`checkpoint.write_failed` event and counter, carrying the
/// error), the torn bytes are cut off, and the queued frames are retried at
/// the next write.
#[derive(Debug)]
pub(crate) struct CheckpointWriter {
    path: PathBuf,
    file: fs::File,
    /// Bytes on disk known to be whole frames; writes start here.
    committed: u64,
    /// Encoded frames not yet on disk.
    pending: Vec<u8>,
    pending_frames: usize,
    every: usize,
}

impl CheckpointWriter {
    /// Opens the checkpoint at `cfg.path` for a sweep with `fingerprint`.
    ///
    /// An existing file is read with prefix recovery, must carry
    /// `fingerprint`, and is truncated to its valid prefix; its contents are
    /// returned for the sweep to resume from. A missing file is created
    /// holding just the header, and `None` is returned.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] if the file cannot be read, created
    /// or opened for writing, is not a v5 checkpoint, or belongs to a
    /// different sweep (fingerprint mismatch).
    pub(crate) fn open(
        cfg: &CheckpointConfig,
        fingerprint: u64,
    ) -> Result<(Self, Option<CheckpointData>), CoreError> {
        let path = Path::new(&cfg.path);
        let (resumed, committed) = if path.exists() {
            let bytes = fs::read(path).map_err(|e| ckpt_err(path, format!("read failed: {e}")))?;
            let (data, valid) = scan_checkpoint(&bytes).map_err(at_path(path))?;
            if data.fingerprint != fingerprint {
                return Err(ckpt_err(
                    path,
                    format!(
                        "fingerprint mismatch: found {:#018x}, this sweep is {:#018x} \
                         (checkpoint belongs to a different sweep; delete it to start over)",
                        data.fingerprint, fingerprint
                    ),
                ));
            }
            (Some(data), valid)
        } else {
            let mut header = Vec::with_capacity(HEADER_LEN);
            push_header(&mut header, MAGIC, VERSION, fingerprint);
            write_atomically(path, &header)?;
            (None, HEADER_LEN)
        };
        let file = fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| ckpt_err(path, format!("open for append failed: {e}")))?;
        // Cut a damaged tail so new frames follow the last valid one.
        file.set_len(committed as u64)
            .map_err(|e| ckpt_err(path, format!("truncate failed: {e}")))?;
        let writer = CheckpointWriter {
            path: path.to_path_buf(),
            file,
            committed: committed as u64,
            pending: Vec::new(),
            pending_frames: 0,
            every: cfg.every.max(1),
        };
        Ok((writer, resumed))
    }

    /// Queues one encoded frame ([`model_frame`] / [`quarantined_frame`]);
    /// every `every` frames the queue is written and synced, best-effort.
    pub(crate) fn append(&mut self, frame: &[u8]) {
        self.pending.extend_from_slice(frame);
        self.pending_frames += 1;
        if self.pending_frames >= self.every {
            if let Err(e) = self.flush() {
                mdes_obs::event(
                    "checkpoint.write_failed",
                    &[
                        ("path", self.path.display().to_string().into()),
                        ("error", e.to_string().into()),
                        ("pending_frames", self.pending_frames.into()),
                    ],
                );
            }
        }
    }

    /// Writes, flushes and fsyncs every queued frame.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] if the write or sync fails; the
    /// frames stay queued and the file is cut back to its last whole frame.
    pub(crate) fn finish(mut self) -> Result<(), CoreError> {
        self.flush()
    }

    fn flush(&mut self) -> Result<(), CoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let mut span = mdes_obs::span("checkpoint.flush");
        span.field("bytes", self.pending.len());
        span.field("frames", self.pending_frames);
        let written = self
            .file
            .seek(SeekFrom::Start(self.committed))
            .and_then(|_| self.file.write_all(&self.pending))
            .and_then(|()| self.file.sync_data());
        match written {
            Ok(()) => {
                self.committed += self.pending.len() as u64;
                self.pending.clear();
                self.pending_frames = 0;
                Ok(())
            }
            Err(e) => {
                // Best effort: drop whatever part of the queue reached the
                // file, so a retry (or a resume) starts at a frame boundary.
                let _ = self.file.set_len(self.committed);
                Err(ckpt_err(&self.path, format!("append failed: {e}")))
            }
        }
    }
}

// --- MDSN ------------------------------------------------------------------

/// Atomically writes a frozen serving artifact to `path` (tmp file +
/// rename) in the MDSN v4 layout of [`snapshot_to_bytes`].
///
/// Unlike sweep checkpoints, a serving artifact is all-or-nothing — there
/// is no meaningful prefix to recover — so [`read_snapshot`] rejects any
/// damage outright instead of salvaging.
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] on serialization or I/O failure.
pub fn write_snapshot(path: &Path, snapshot: &GraphSnapshot) -> Result<(), CoreError> {
    let mut span = mdes_obs::span("checkpoint.snapshot_write");
    let bytes = snapshot_to_bytes(snapshot).map_err(at_path(path))?;
    span.field("bytes", bytes.len());
    write_atomically(path, &bytes)
}

/// Reads a serving artifact written by [`write_snapshot`] (MDSN v1–v4).
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] if the file cannot be read or shows
/// any damage (bad magic, unknown version, truncation, checksum mismatch,
/// trailing bytes): a partially-valid serving artifact must never be
/// deployed, so there is no prefix recovery here. Returns
/// [`CoreError::IncompatibleSnapshot`] for an intact file whose pair model
/// weights do not fit together, as [`snapshot_from_bytes`] does.
pub fn read_snapshot(path: &Path) -> Result<GraphSnapshot, CoreError> {
    let mut span = mdes_obs::span("checkpoint.snapshot_read");
    let bytes = fs::read(path).map_err(|e| ckpt_err(path, format!("read failed: {e}")))?;
    span.field("bytes", bytes.len());
    snapshot_from_bytes(&bytes).map_err(at_path(path))
}

/// Encodes a frozen serving artifact into the MDSN v4 byte layout used by
/// [`write_snapshot`] — for transports other than the filesystem (e.g. a
/// snapshot uploaded over a daemon's admin plane).
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] (with an empty path) on serialization
/// failure.
pub fn snapshot_to_bytes(snapshot: &GraphSnapshot) -> Result<Vec<u8>, CoreError> {
    let mut bytes = Vec::new();
    push_header(&mut bytes, SNAP_MAGIC, SNAP_VERSION, 0);
    push_frame(&mut bytes, KIND_SNAPSHOT, |out| push_record(out, snapshot))
        .map_err(|e| ckpt_err(Path::new(""), format!("serialize snapshot failed: {e}")))?;
    Ok(bytes)
}

/// Decodes a serving artifact from the MDSN byte layout (v4, or a legacy
/// v1–v3 frame); the in-memory counterpart of [`read_snapshot`], with the
/// same all-or-nothing damage policy.
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] (with an empty path) on any damage:
/// bad magic, unknown version, a non-zero reserved word (v3 and v4), truncation,
/// checksum mismatch, bytes after the frame, a malformed tensor reference,
/// or a record the snapshot types reject; and
/// [`CoreError::IncompatibleSnapshot`] for an intact record whose pair
/// model weights do not fit together
/// ([`ModelSpec::validate`](mdes_nn::ModelSpec::validate)).
pub fn snapshot_from_bytes(bytes: &[u8]) -> Result<GraphSnapshot, CoreError> {
    let snapshot = decode_snapshot(bytes)?;
    snapshot.validate_models()?;
    Ok(snapshot)
}

/// The framing half of [`snapshot_from_bytes`].
fn decode_snapshot(bytes: &[u8]) -> Result<GraphSnapshot, CoreError> {
    let err = |detail: String| ckpt_err(Path::new(""), detail);
    let (version, word) = parse_header(bytes, SNAP_MAGIC)
        .ok_or_else(|| err("not a snapshot file (bad magic)".into()))?;
    if !(SNAP_MIN_VERSION..=SNAP_VERSION).contains(&version) {
        return Err(err(format!("unsupported snapshot version {version}")));
    }
    if version >= SNAP_RECORD_VERSION && word != 0 {
        return Err(err(format!(
            "snapshot reserved word is {word:#x}, not zero"
        )));
    }
    if version < SNAP_VERSION {
        return legacy_snapshot(bytes, version).map_err(err);
    }
    let (kind, payload, end) =
        read_frame(bytes, HEADER_LEN).map_err(|reason| err(format!("snapshot {reason}")))?;
    if end != bytes.len() {
        return Err(err(format!(
            "{} trailing bytes after the snapshot frame",
            bytes.len() - end
        )));
    }
    if kind != KIND_SNAPSHOT {
        return Err(err(format!("unknown frame kind {kind}")));
    }
    read_record(payload).map_err(|e| err(format!("snapshot parse failed: {e}")))
}

/// The MDSN v1–v3 reader: one frame with an 8-byte FNV-1a checksum. In v1
/// and v2 it covers only the JSON payload, and the reserved header word is
/// ignored, as those writers left it; in v3 it covers kind ‖ length ‖
/// payload, and the payload is a sectioned record.
fn legacy_snapshot(bytes: &[u8], version: u32) -> Result<GraphSnapshot, String> {
    let frame = bytes
        .get(HEADER_LEN..HEADER_LEN + LEGACY_FRAME_HEADER_LEN)
        .ok_or("truncated snapshot frame header")?;
    if frame[0] != KIND_SNAPSHOT {
        return Err(format!("unknown frame kind {}", frame[0]));
    }
    let start = HEADER_LEN + LEGACY_FRAME_HEADER_LEN;
    let payload = usize::try_from(u64_at(frame, 1))
        .ok()
        .and_then(|len| start.checked_add(len))
        .and_then(|end| bytes.get(start..end))
        .ok_or("truncated snapshot payload")?;
    let covered: &[u8] = if version < SNAP_RECORD_VERSION {
        &[]
    } else {
        &frame[..9]
    };
    if fnv1a_parts(&[covered, payload]) != u64_at(frame, 9) {
        return Err("snapshot checksum mismatch".into());
    }
    if start + payload.len() != bytes.len() {
        return Err(format!(
            "{} trailing bytes after the snapshot frame",
            bytes.len() - start - payload.len()
        ));
    }
    if version >= SNAP_RECORD_VERSION {
        return read_record(payload).map_err(|e| format!("snapshot parse failed: {e}"));
    }
    let text = std::str::from_utf8(payload).map_err(|_| "snapshot payload is not valid UTF-8")?;
    serde_json::from_str(text).map_err(|e| format!("snapshot parse failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::QuantPolicy;
    use crate::translator::{FrozenNmt, FrozenTranslator};
    use mdes_nn::QuantMode;
    use rand::{rngs::StdRng, RngCore, SeedableRng};
    use std::sync::{Arc, Mutex, OnceLock};

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mdes_ckpt_test_{}_{tag}.ckpt", std::process::id()))
    }

    fn quarantined(src: usize, dst: usize) -> QuarantinedPair {
        QuarantinedPair {
            src,
            dst,
            error: "training diverged: non-finite loss at step 4".to_owned(),
            retries: 2,
        }
    }

    fn sample() -> CheckpointData {
        CheckpointData {
            fingerprint: 0xDEAD_BEEF,
            models: Vec::new(),
            quarantined: vec![quarantined(1, 2), quarantined(3, 4), quarantined(5, 6)],
        }
    }

    fn is_ckpt_err<T>(r: &Result<T, CoreError>) -> bool {
        matches!(r, Err(CoreError::Checkpoint { .. }))
    }

    fn two_sensor_traces() -> Vec<mdes_lang::RawTrace> {
        let mk = |phase: usize| {
            mdes_lang::RawTrace::new(
                format!("s{phase}"),
                (0..600)
                    .map(|t| {
                        if ((t + phase) / 5).is_multiple_of(2) {
                            "on"
                        } else {
                            "off"
                        }
                        .to_owned()
                    })
                    .collect(),
            )
        };
        vec![mk(0), mk(2)]
    }

    fn fit_two_sensors(translator: crate::TranslatorConfig) -> crate::pipeline::Mdes {
        use crate::pipeline::{Mdes, MdesConfig};
        let mut cfg = MdesConfig {
            window: mdes_lang::WindowConfig {
                word_len: 4,
                word_stride: 1,
                sent_len: 5,
                sent_stride: 5,
            },
            ..MdesConfig::default()
        };
        cfg.build.translator = translator;
        Mdes::fit(&two_sensor_traces(), 0..300, 300..450, cfg).expect("fit")
    }

    fn frozen_snapshot() -> GraphSnapshot {
        GraphSnapshot::freeze(&fit_two_sensors(crate::TranslatorConfig::fast()))
    }

    /// Two really trained (tiny) neural pair models with their runtimes,
    /// fitted once.
    fn nmt_models() -> &'static [(FrozenPairModel, f64)] {
        static MODELS: OnceLock<Vec<(FrozenPairModel, f64)>> = OnceLock::new();
        MODELS.get_or_init(|| {
            let m = fit_two_sensors(crate::TranslatorConfig::Nmt(mdes_nn::Seq2SeqConfig {
                embed_dim: 4,
                hidden: 4,
                train_steps: 4,
                ..mdes_nn::Seq2SeqConfig::default()
            }));
            let runtimes = m.runtimes().iter().copied();
            m.snapshot()
                .models()
                .iter()
                .cloned()
                .zip(runtimes)
                .collect()
        })
    }

    /// The n-gram plant with its pair models swapped for real-sized
    /// (untrained) neural weights, re-encoded to `mode` — training an actual
    /// NMT this size would dominate the suite's runtime, and the reader only
    /// cares about the bytes.
    fn neural_snapshot(mode: QuantMode) -> GraphSnapshot {
        use mdes_lang::Vocab;
        use mdes_nn::{Seq2Seq, Seq2SeqConfig};
        let base = frozen_snapshot();
        let lang = base.language().clone();
        let models: Vec<FrozenPairModel> = base
            .models()
            .iter()
            .map(|m| {
                let sv = lang.languages()[m.src].vocab.size();
                let tv = lang.languages()[m.dst].vocab.size();
                let spec =
                    Seq2Seq::new(sv, tv, Vocab::BOS as usize, Seq2SeqConfig::default()).freeze();
                FrozenPairModel::new(
                    m.src,
                    m.dst,
                    m.train_score,
                    m.dev_floor,
                    FrozenTranslator::Nmt(FrozenNmt::new(spec)),
                )
            })
            .collect();
        let snap = GraphSnapshot::from_frozen_parts(
            base.graph().clone(),
            lang,
            base.detection().clone(),
            models,
        );
        if mode == QuantMode::F32 {
            snap
        } else {
            snap.quantize(mode, &QuantPolicy::default())
                .expect("quantize")
        }
    }

    fn quantized_snapshot() -> GraphSnapshot {
        neural_snapshot(QuantMode::Int8)
    }

    /// The MDSN v1–v3 writer, kept here to produce legacy artifacts: an
    /// 8-byte FNV-1a checksum over one JSON payload (v1, v2), or over
    /// kind ‖ length ‖ a sectioned record (v3).
    fn legacy_bytes(snap: &GraphSnapshot, version: u32) -> Vec<u8> {
        let mut payload = Vec::new();
        if version < SNAP_RECORD_VERSION {
            payload = serde_json::to_string(snap).expect("json").into_bytes();
        } else {
            push_record(&mut payload, snap).expect("record");
        }
        let mut frame = vec![KIND_SNAPSHOT];
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let covered: &[u8] = if version < SNAP_RECORD_VERSION {
            &[]
        } else {
            &frame
        };
        let sum = fnv1a_parts(&[covered, &payload]);
        let mut out = Vec::new();
        push_header(&mut out, SNAP_MAGIC, version, 0);
        out.extend_from_slice(&frame);
        out.extend_from_slice(&sum.to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Splits MDSN v4 bytes into the record's parsed JSON header and its
    /// tensor section.
    fn split_record(bytes: &[u8]) -> (Content, Vec<u8>) {
        let (_, payload, _) = read_frame(bytes, HEADER_LEN).expect("frame");
        let json_len = u64_at(payload, 0) as usize;
        let json = std::str::from_utf8(&payload[8..8 + json_len]).expect("utf8");
        (
            serde_json::parse(json).expect("json"),
            payload[8 + json_len..].to_vec(),
        )
    }

    /// Seals a (possibly crafted) record — raw JSON bytes and section — as
    /// MDSN v4 bytes with a valid checksum, so the decoder itself, not the
    /// checksum, must catch the damage.
    fn seal_raw(json: &[u8], section: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        push_header(&mut out, SNAP_MAGIC, SNAP_VERSION, 0);
        push_frame(&mut out, KIND_SNAPSHOT, |out| {
            out.extend_from_slice(&(json.len() as u64).to_le_bytes());
            out.extend_from_slice(json);
            out.extend_from_slice(section);
            Ok(())
        })
        .expect("frame");
        out
    }

    fn seal(header: &Content, section: &[u8]) -> Vec<u8> {
        seal_raw(
            serde_json::render(header).expect("render").as_bytes(),
            section,
        )
    }

    /// Every tensor reference of a record header, in section order.
    fn tensor_refs(c: &mut Content) -> Vec<&mut Vec<(String, Content)>> {
        let mut out = Vec::new();
        fn walk<'a>(c: &'a mut Content, out: &mut Vec<&'a mut Vec<(String, Content)>>) {
            match c {
                Content::Map(entries) => {
                    if entries.len() == 1 && entries[0].0 == TENSOR_REF {
                        if let Content::Map(inner) = &mut entries[0].1 {
                            out.push(inner);
                        }
                    } else {
                        entries.iter_mut().for_each(|(_, v)| walk(v, out));
                    }
                }
                Content::Seq(items) => items.iter_mut().for_each(|v| walk(v, out)),
                _ => {}
            }
        }
        walk(c, &mut out);
        out
    }

    fn set(reference: &mut [(String, Content)], key: &str, value: Content) {
        let slot = reference
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("reference field");
        slot.1 = value;
    }

    fn get<T: Deserialize>(reference: &[(String, Content)], key: &str) -> T {
        let map = Content::Map(reference.to_vec());
        serde::__field(&map, key).expect("reference field")
    }

    // --- MDCK ----------------------------------------------------------------

    #[test]
    fn roundtrip_preserves_data() {
        let path = tmp_path("roundtrip");
        let data = CheckpointData {
            models: nmt_models().to_vec(),
            ..sample()
        };
        write_checkpoint(&path, &data).expect("write");
        let back = read_checkpoint(&path).expect("read");
        assert_eq!(back.fingerprint, 0xDEAD_BEEF);
        assert_eq!(back.quarantined, sample().quarantined);
        assert_eq!(
            serde_json::to_string(&back.models).expect("json"),
            serde_json::to_string(&data.models).expect("json"),
            "weights must survive the tensor section bit for bit"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn model_frames_hold_weights_in_the_tensor_section() {
        let frame = model_frame(&nmt_models()[0].0, nmt_models()[0].1).expect("frame");
        let payload = &frame[FRAME_HEADER_LEN..];
        let json_len = u64_at(payload, 0) as usize;
        let json = std::str::from_utf8(&payload[8..8 + json_len]).expect("utf8");
        assert!(json.contains(TENSOR_REF), "weights are referenced");
        // No float text: every number left in the header is an integer
        // (shapes, offsets, ids) or one of the pair's few scalar scores.
        let floats = json.matches('.').count();
        assert!(
            floats < 8,
            "{floats} float literals left in the JSON header"
        );
        assert!(
            payload.len() - 8 - json_len > 0,
            "section carries the weights"
        );
    }

    #[test]
    fn corrupt_trailing_frame_recovers_prefix() {
        let path = tmp_path("corrupt");
        write_checkpoint(&path, &sample()).expect("write");
        let mut bytes = std::fs::read(&path).expect("read bytes");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite");
        let back = read_checkpoint(&path).expect("recovering read");
        assert_eq!(back.quarantined, sample().quarantined[..2].to_vec());
        std::fs::remove_file(&path).ok();
    }

    /// Regression: the frame checksum used to cover only the payload, so a
    /// flipped kind byte aborted the resume ("unknown frame kind 129", or a
    /// model parse of a quarantine record) instead of being recovered.
    #[test]
    fn every_flip_in_the_trailing_frame_header_recovers_the_prefix() {
        let data = CheckpointData {
            models: nmt_models().to_vec(),
            ..sample()
        };
        let path = tmp_path("header_flips");
        write_checkpoint(&path, &data).expect("write");
        let bytes = std::fs::read(&path).expect("read bytes");
        let (whole, _) = scan_checkpoint(&bytes).expect("scan");
        assert_eq!(whole.quarantined.len(), 3);
        let last = quarantined_frame(&sample().quarantined[2]).expect("frame");
        let start = bytes.len() - last.len();
        for i in start..start + FRAME_HEADER_LEN {
            for bit in [0x01, 0x80] {
                let mut damaged = bytes.clone();
                damaged[i] ^= bit;
                let (back, valid) = scan_checkpoint(&damaged)
                    .unwrap_or_else(|e| panic!("flip at {i} aborted the resume: {e}"));
                assert_eq!(valid, start, "flip at {i}");
                assert_eq!(back.models.len(), 2);
                assert_eq!(back.quarantined, sample().quarantined[..2].to_vec());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_final_frame_recovers_prefix() {
        let path = tmp_path("truncated");
        write_checkpoint(&path, &sample()).expect("write");
        let bytes = std::fs::read(&path).expect("read bytes");
        // Kill mid-write at every possible length: each prefix must either
        // recover some number of whole frames or (below 16 bytes) reject the
        // header — never panic, never error past the header.
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).expect("rewrite");
            let result = read_checkpoint(&path);
            if cut < HEADER_LEN {
                assert!(is_ckpt_err(&result));
            } else {
                let back = result.expect("recovering read");
                assert!(back.quarantined.len() <= 3);
                assert_eq!(
                    back.quarantined,
                    sample().quarantined[..back.quarantined.len()]
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_old_versions_and_missing_file_are_rejected() {
        let path = tmp_path("magic");
        std::fs::write(&path, b"definitely not a checkpoint").expect("write");
        assert!(is_ckpt_err(&read_checkpoint(&path)));
        // Version 1 (one payload), version 2 (JSON frames), version 3
        // (the old model record) and version 4 (FNV-1a frames) files must
        // be refused with a typed error, not misparsed as v5 frames.
        for version in [1u32, 2, 3, 4] {
            let mut old = Vec::new();
            push_header(&mut old, MAGIC, version, 7);
            old.extend_from_slice(&[0u8; LEGACY_FRAME_HEADER_LEN]);
            std::fs::write(&path, &old).expect("write");
            match read_checkpoint(&path) {
                Err(CoreError::Checkpoint { detail, .. }) => {
                    assert!(
                        detail.contains("unsupported checkpoint version"),
                        "{detail}"
                    );
                }
                other => panic!("v{version} checkpoint was not refused: {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
        assert!(is_ckpt_err(&read_checkpoint(&path)));
    }

    #[test]
    fn empty_body_is_a_valid_empty_checkpoint() {
        let path = tmp_path("empty");
        write_checkpoint(
            &path,
            &CheckpointData {
                fingerprint: 7,
                models: Vec::new(),
                quarantined: Vec::new(),
            },
        )
        .expect("write");
        let back = read_checkpoint(&path).expect("read");
        assert_eq!(back.fingerprint, 7);
        assert!(back.models.is_empty() && back.quarantined.is_empty());
        std::fs::remove_file(&path).ok();
    }

    fn config(path: &Path, every: usize) -> CheckpointConfig {
        CheckpointConfig {
            path: path.to_string_lossy().into_owned(),
            every,
        }
    }

    #[test]
    fn writer_appends_each_frame_once_and_resumes_after_the_prefix() {
        let path = tmp_path("append");
        std::fs::remove_file(&path).ok();
        let cfg = config(&path, 2);
        let (mut w, resumed) = CheckpointWriter::open(&cfg, 9).expect("create");
        assert!(resumed.is_none());
        let models = nmt_models();
        w.append(&model_frame(&models[0].0, models[0].1).expect("frame"));
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len(),
            HEADER_LEN as u64
        );
        w.append(&quarantined_frame(&quarantined(0, 1)).expect("frame"));
        let synced = std::fs::metadata(&path).expect("meta").len();
        assert!(synced > HEADER_LEN as u64, "every 2 frames reach the disk");
        w.finish().expect("finish");

        // A torn third append: resume truncates it and appends after the
        // two whole frames.
        let torn = model_frame(&models[1].0, models[1].1).expect("frame");
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open");
        file.write_all(&torn[..torn.len() / 2]).expect("tear");
        drop(file);
        let (mut w, resumed) = CheckpointWriter::open(&cfg, 9).expect("resume");
        let resumed = resumed.expect("existing file");
        assert_eq!(resumed.models.len(), 1);
        assert_eq!(resumed.quarantined, vec![quarantined(0, 1)]);
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), synced);
        w.append(&torn);
        w.finish().expect("finish");
        let back = read_checkpoint(&path).expect("read");
        assert_eq!(back.models.len(), 2);
        assert_eq!(
            serde_json::to_string(&back.models).expect("json"),
            serde_json::to_string(models).expect("json")
        );

        // A different sweep must not append to this file.
        assert!(is_ckpt_err(&CheckpointWriter::open(&cfg, 10)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_open_fails_typed_when_the_file_cannot_be_created() {
        let path = std::env::temp_dir()
            .join(format!("mdes_ckpt_missing_dir_{}", std::process::id()))
            .join("sweep.mdck");
        assert!(is_ckpt_err(&CheckpointWriter::open(&config(&path, 1), 1)));
    }

    /// Serializes the tests that install the process-global recorder.
    static OBS_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn failed_periodic_append_is_reported_and_retried_but_final_flush_errors() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path = tmp_path("write_failed");
        std::fs::remove_file(&path).ok();
        let log = tmp_path("write_failed_obs");
        let (mut w, _) = CheckpointWriter::open(&config(&path, 1), 3).expect("create");
        // Swap in a read-only handle: every write now fails.
        let writable = std::mem::replace(&mut w.file, fs::File::open(&path).expect("ro"));
        let recorder = Arc::new(mdes_obs::Recorder::with_jsonl_path(&log).expect("recorder"));
        mdes_obs::install(recorder.clone());
        w.append(&quarantined_frame(&quarantined(0, 1)).expect("frame"));
        w.append(&quarantined_frame(&quarantined(1, 2)).expect("frame"));
        mdes_obs::uninstall();
        recorder.flush().expect("flush log");
        assert_eq!(recorder.counter_value("checkpoint.write_failed"), 2);
        let events = std::fs::read_to_string(&log).expect("log");
        let failed = events
            .lines()
            .find(|l| l.contains("\"name\":\"checkpoint.write_failed\""))
            .expect("write_failed event");
        assert!(failed.contains("\"error\":") && failed.contains("append failed"));
        assert_eq!(w.pending_frames, 2, "failed frames stay queued");

        // The final flush surfaces its error instead of swallowing it.
        let (mut stuck, _) = CheckpointWriter::open(&config(&path, 8), 3).expect("reopen");
        stuck.file = fs::File::open(&path).expect("ro");
        stuck.append(&quarantined_frame(&quarantined(2, 3)).expect("frame"));
        assert!(is_ckpt_err(&stuck.finish()));

        // Once writes work again, the queued frames land whole.
        w.file = writable;
        w.append(&quarantined_frame(&quarantined(3, 4)).expect("frame"));
        w.finish().expect("finish");
        let back = read_checkpoint(&path).expect("read");
        assert_eq!(
            back.quarantined,
            vec![quarantined(0, 1), quarantined(1, 2), quarantined(3, 4)]
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&log).ok();
    }

    // --- MDSN ----------------------------------------------------------------

    #[test]
    fn snapshot_roundtrips() {
        let path = tmp_path("snapshot");
        let snap = frozen_snapshot();
        write_snapshot(&path, &snap).expect("write");
        let back = read_snapshot(&path).expect("read");
        assert_eq!(back.valid_models(), snap.valid_models());
        assert_eq!(back.models().len(), snap.models().len());
        assert_eq!(back.min_width(), snap.min_width());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn neural_snapshots_roundtrip_byte_for_byte_and_shrink() {
        for mode in [QuantMode::F32, QuantMode::F16, QuantMode::Int8] {
            let snap = neural_snapshot(mode);
            let bytes = snapshot_to_bytes(&snap).expect("encode");
            let back = snapshot_from_bytes(&bytes).expect("decode");
            assert_eq!(
                snapshot_to_bytes(&back).expect("re-encode"),
                bytes,
                "{mode:?}"
            );
            assert_eq!(
                serde_json::to_string(&back).expect("json"),
                serde_json::to_string(&snap).expect("json")
            );
            // f32 weights shrink from ~20 bytes of float text to 4; f16 and
            // int8 weights were integer text before, so they shrink less.
            let legacy = legacy_bytes(&snap, 2);
            let factor = if mode == QuantMode::F32 { 3 } else { 2 };
            assert!(
                bytes.len() * factor < legacy.len(),
                "{mode:?}: v4 {} bytes vs v2 {}",
                bytes.len(),
                legacy.len()
            );
        }
    }

    #[test]
    fn damaged_snapshot_is_rejected_not_recovered() {
        let path = tmp_path("snapshot_damaged");
        write_snapshot(&path, &frozen_snapshot()).expect("write");
        let bytes = std::fs::read(&path).expect("read bytes");
        // A flipped payload byte must fail the checksum.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        std::fs::write(&path, &flipped).expect("rewrite");
        assert!(is_ckpt_err(&read_snapshot(&path)));
        // Any truncation must be rejected, never partially deployed.
        for cut in [0, 3, HEADER_LEN, HEADER_LEN + 5, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).expect("rewrite");
            assert!(is_ckpt_err(&read_snapshot(&path)));
        }
        // A sweep checkpoint is not a snapshot.
        write_checkpoint(&path, &sample()).expect("write checkpoint");
        assert!(is_ckpt_err(&read_snapshot(&path)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_trailing_bytes_are_rejected_by_every_reader_version() {
        let snap = frozen_snapshot();
        for (tag, bytes) in [
            ("v1", legacy_bytes(&snap, 1)),
            ("v2", legacy_bytes(&snap, 2)),
            ("v3", legacy_bytes(&snap, 3)),
            ("v4", snapshot_to_bytes(&snap).expect("encode")),
        ] {
            snapshot_from_bytes(&bytes).unwrap_or_else(|e| panic!("{tag}: {e}"));
            let mut junk = bytes.clone();
            junk.extend_from_slice(b"trailing junk");
            match snapshot_from_bytes(&junk) {
                Err(CoreError::Checkpoint { detail, .. }) => {
                    assert!(detail.contains("trailing bytes"), "{tag}: {detail}");
                }
                other => panic!("{tag}: trailing junk accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn legacy_snapshot_versions_still_read_and_future_versions_are_rejected() {
        let snap = frozen_snapshot();
        let quant = quantized_snapshot();
        let v1 = snapshot_from_bytes(&legacy_bytes(&snap, 1)).expect("v1 read");
        assert_eq!(v1.valid_models(), snap.valid_models());
        assert!(v1.quant().is_none());
        let v2 = snapshot_from_bytes(&legacy_bytes(&quant, 2)).expect("v2 read");
        assert!(v2.quant().is_some());
        assert_eq!(
            snapshot_to_bytes(&v2).expect("encode"),
            snapshot_to_bytes(&quant).expect("encode"),
            "a legacy int8 artifact decodes to the same weights"
        );
        // v3 holds the v4 record under an FNV-1a frame: it decodes to the
        // same artifact, and v4 carries its payload byte for byte.
        let v3_bytes = legacy_bytes(&quant, 3);
        let v4_bytes = snapshot_to_bytes(&quant).expect("encode");
        let v3 = snapshot_from_bytes(&v3_bytes).expect("v3 read");
        assert_eq!(snapshot_to_bytes(&v3).expect("encode"), v4_bytes);
        assert_eq!(
            v3_bytes[HEADER_LEN + LEGACY_FRAME_HEADER_LEN..],
            v4_bytes[HEADER_LEN + FRAME_HEADER_LEN..]
        );
        assert_eq!(v3_bytes.len(), v4_bytes.len() + 4);
        let mut bytes = snapshot_to_bytes(&snap).expect("encode");
        bytes[4..8].copy_from_slice(&(SNAP_VERSION + 1).to_le_bytes());
        assert!(is_ckpt_err(&snapshot_from_bytes(&bytes)));
    }

    #[test]
    fn snapshot_reader_rejects_random_bytes() {
        let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
        for i in 0..200 {
            let len = (i * 13) % 600;
            let buf: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            assert!(
                snapshot_from_bytes(&buf).is_err(),
                "random buffer {i} parsed"
            );
        }
        // Garbage behind a well-formed header must die at the frame layer,
        // not reach the model constructor — for every reader version.
        for version in SNAP_MIN_VERSION..=SNAP_VERSION {
            let mut buf = Vec::new();
            push_header(&mut buf, SNAP_MAGIC, version, 0);
            for _ in 0..400 {
                buf.push(rng.next_u32() as u8);
            }
            assert!(is_ckpt_err(&snapshot_from_bytes(&buf)), "v{version}");
        }
        // Random MDCK frames behind a valid header are damage: recovered
        // past (zero frames), never a panic.
        for i in 0..50 {
            let mut buf = Vec::new();
            push_header(&mut buf, MAGIC, VERSION, 1);
            buf.extend((0..i * 7).map(|_| rng.next_u32() as u8));
            let (data, valid) = scan_checkpoint(&buf).expect("recovering scan");
            assert_eq!((data.models.len(), valid), (0, HEADER_LEN));
        }
    }

    #[test]
    fn snapshot_reader_rejects_every_truncation_and_byte_flip() {
        let (f32_snap, int8_snap) = (frozen_snapshot(), quantized_snapshot());
        for (tag, bytes) in [
            ("f32", snapshot_to_bytes(&f32_snap).expect("encode")),
            ("int8", snapshot_to_bytes(&int8_snap).expect("encode")),
            ("v3 f32", legacy_bytes(&f32_snap, 3)),
        ] {
            // Every possible truncation: length checks catch all of them
            // before any payload work, so the full sweep is cheap.
            for cut in 0..bytes.len() {
                assert!(
                    is_ckpt_err(&snapshot_from_bytes(&bytes[..cut])),
                    "{tag}: truncation at {cut} parsed"
                );
            }
            // Single-byte corruptions: the whole file header, frame header
            // and JSON length, plus a stride through the JSON header and
            // the tensor section (flipping every byte would be quadratic in
            // checksum work). CRC-32C catches every burst of up to 32 bits
            // and v3's FNV-1a every change inside one byte, so any single
            // flip past the file header must fail the checksum; in the file
            // header, magic, version and the zero reserved word are checked.
            let mut targets: Vec<usize> = (0..bytes.len().min(48)).collect();
            targets.extend((48..bytes.len()).step_by(211));
            for i in targets {
                let mut damaged = bytes.clone();
                damaged[i] ^= 0x80;
                assert!(
                    is_ckpt_err(&snapshot_from_bytes(&damaged)),
                    "{tag}: undetected corruption at byte {i}"
                );
            }
        }
    }

    /// Flips bytes of the JSON header and the tensor section and re-seals
    /// the checksum, so the record decoder itself sees the damage: it must
    /// answer with a decoded snapshot or a typed error, never a panic.
    #[test]
    fn resealed_flips_in_header_and_section_never_panic() {
        for (tag, snap) in [
            ("f32", neural_snapshot(QuantMode::F32)),
            ("int8", quantized_snapshot()),
        ] {
            let bytes = snapshot_to_bytes(&snap).expect("encode");
            let (_, payload, _) = read_frame(&bytes, HEADER_LEN).expect("frame");
            let json_len = u64_at(payload, 0) as usize;
            let json = payload[8..8 + json_len].to_vec();
            let section = payload[8 + json_len..].to_vec();
            for i in (0..json.len()).step_by(97) {
                let mut j = json.clone();
                j[i] ^= 0x04;
                let r = snapshot_from_bytes(&seal_raw(&j, &section));
                assert!(r.is_ok() || is_ckpt_err(&r), "{tag}: json flip at {i}");
            }
            for i in (0..section.len()).step_by(1009) {
                let mut s = section.clone();
                s[i] ^= 0xFF;
                let r = snapshot_from_bytes(&seal_raw(&json, &s));
                assert!(r.is_ok() || is_ckpt_err(&r), "{tag}: section flip at {i}");
            }
            // A section one byte short or long no longer tiles.
            let short = seal_raw(&json, &section[..section.len() - 1]);
            assert!(is_ckpt_err(&snapshot_from_bytes(&short)), "{tag}");
            let mut long = section.clone();
            long.push(0);
            assert!(
                is_ckpt_err(&snapshot_from_bytes(&seal_raw(&json, &long))),
                "{tag}"
            );
            // The JSON length itself, pointed past the payload.
            let mut bad_len = seal_raw(&json, &section);
            let at = HEADER_LEN + FRAME_HEADER_LEN;
            bad_len[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(is_ckpt_err(&snapshot_from_bytes(&bad_len)), "{tag}");
            // ... and with the checksum re-sealed over it.
            let mut out = Vec::new();
            push_header(&mut out, SNAP_MAGIC, SNAP_VERSION, 0);
            push_frame(&mut out, KIND_SNAPSHOT, |out| {
                out.extend_from_slice(&u64::MAX.to_le_bytes());
                out.extend_from_slice(&json);
                out.extend_from_slice(&section);
                Ok(())
            })
            .expect("frame");
            assert!(is_ckpt_err(&snapshot_from_bytes(&out)), "{tag}");
        }
    }

    /// An in-place edit of a record's JSON header and tensor section.
    type Edit = dyn Fn(&mut Content, &mut Vec<u8>);

    /// Crafted, checksum-valid section references: every one must end in a
    /// typed error before any slice is taken out of bounds.
    #[test]
    fn crafted_tensor_references_are_rejected() {
        let int8 = snapshot_to_bytes(&quantized_snapshot()).expect("encode");
        let f16 = snapshot_to_bytes(&neural_snapshot(QuantMode::F16)).expect("encode");
        let craft = |bytes: &[u8], edit: &dyn Fn(&mut Content, &mut Vec<u8>)| {
            let (mut header, mut section) = split_record(bytes);
            edit(&mut header, &mut section);
            snapshot_from_bytes(&seal(&header, &section))
        };
        // Sanity: an unedited re-seal decodes.
        assert!(craft(&int8, &|_, _| {}).is_ok());

        let cases: Vec<(&str, &[u8], Box<Edit>)> = vec![
            (
                "offset + len overflows",
                &int8,
                Box::new(|h, _| set(tensor_refs(h)[0], "offset", (u64::MAX - 1).to_content())),
            ),
            (
                "shape product overflows",
                &int8,
                Box::new(|h, _| {
                    set(
                        tensor_refs(h)[0],
                        "shape",
                        vec![usize::MAX, 3usize].to_content(),
                    )
                }),
            ),
            (
                "past the section end",
                &int8,
                Box::new(|h, _| {
                    let refs = tensor_refs(h);
                    let last = refs.into_iter().last().expect("a tensor");
                    let mut shape: Vec<usize> = get(last, "shape");
                    shape[0] += 1;
                    set(last, "shape", shape.to_content());
                }),
            ),
            (
                "overlapping references",
                &int8,
                Box::new(|h, _| set(tensor_refs(h)[1], "offset", 0usize.to_content())),
            ),
            (
                "unknown dtype",
                &int8,
                Box::new(|h, _| set(tensor_refs(h)[0], "dtype", "f64".to_content())),
            ),
            (
                "missing offset",
                &int8,
                Box::new(|h, _| {
                    let r = tensor_refs(h).into_iter().next().expect("a tensor");
                    r.retain(|(k, _)| k != "offset");
                }),
            ),
            (
                "dtype mismatch with the same byte length",
                &int8,
                Box::new(|h, _| {
                    for r in tensor_refs(h) {
                        let dtype: String = get(r, "dtype");
                        let shape: Vec<usize> = get(r, "shape");
                        if dtype == "i8" && shape[1].is_multiple_of(2) {
                            set(r, "dtype", "f16".to_content());
                            set(r, "shape", vec![shape[0], shape[1] / 2].to_content());
                            return;
                        }
                    }
                    panic!("no even-width int8 tensor");
                }),
            ),
            (
                "shape mismatch with the declared rows and cols",
                &f16,
                Box::new(|h, _| {
                    for r in tensor_refs(h) {
                        let shape: Vec<usize> = get(r, "shape");
                        if shape.len() == 2 && shape[0] != shape[1] {
                            set(r, "shape", vec![shape[1], shape[0]].to_content());
                            return;
                        }
                    }
                    panic!("no rectangular tensor");
                }),
            ),
            (
                "non-finite int8 scale",
                &int8,
                Box::new(|h, s| {
                    for r in tensor_refs(h) {
                        let shape: Vec<usize> = get(r, "shape");
                        if shape.len() == 1 {
                            let at: usize = get(r, "offset");
                            s[at..at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
                            return;
                        }
                    }
                    panic!("no scales tensor");
                }),
            ),
            (
                "infinite int8 scale",
                &int8,
                Box::new(|h, s| {
                    for r in tensor_refs(h) {
                        let shape: Vec<usize> = get(r, "shape");
                        if shape.len() == 1 {
                            let at: usize = get(r, "offset");
                            s[at..at + 4].copy_from_slice(&f32::INFINITY.to_le_bytes());
                            return;
                        }
                    }
                    panic!("no scales tensor");
                }),
            ),
            (
                "non-finite f16 weight",
                &f16,
                Box::new(|h, s| {
                    for r in tensor_refs(h) {
                        let dtype: String = get(r, "dtype");
                        if dtype == "f16" {
                            let at: usize = get(r, "offset");
                            s[at..at + 2].copy_from_slice(&0x7c00u16.to_le_bytes());
                            return;
                        }
                    }
                    panic!("no f16 tensor");
                }),
            ),
        ];
        for (name, bytes, edit) in &cases {
            let r = craft(bytes, edit.as_ref());
            assert!(is_ckpt_err(&r), "{name}: {:?}", r.map(|_| ()));
        }
    }

    /// MDCK appends under every kind of damage: a kill at every byte of an
    /// append, flips anywhere in the appended frame (with and without a
    /// re-sealed checksum) — always a recovered prefix or a typed error.
    #[test]
    fn mdck_append_survives_every_kill_point_and_flip() {
        let path = tmp_path("append_kill");
        std::fs::remove_file(&path).ok();
        let cfg = config(&path, 1);
        let models = nmt_models();
        let (mut w, _) = CheckpointWriter::open(&cfg, 5).expect("create");
        w.append(&model_frame(&models[0].0, models[0].1).expect("frame"));
        w.finish().expect("finish");
        let before = std::fs::read(&path).expect("bytes");
        let frame = model_frame(&models[1].0, models[1].1).expect("frame");
        let mut after = before.clone();
        after.extend_from_slice(&frame);

        // A kill at every byte of the append recovers the old prefix.
        for cut in before.len()..after.len() {
            let (data, valid) = scan_checkpoint(&after[..cut]).expect("recovering scan");
            assert_eq!((data.models.len(), valid), (1, before.len()), "cut {cut}");
        }
        // Resume after a sample of kill points truncates and appends anew.
        for cut in (before.len()..after.len())
            .step_by(997)
            .chain([after.len() - 1])
        {
            std::fs::write(&path, &after[..cut]).expect("kill");
            let (mut w, resumed) = CheckpointWriter::open(&cfg, 5).expect("resume");
            assert_eq!(resumed.expect("resumed").models.len(), 1);
            w.append(&frame);
            w.finish().expect("finish");
            assert_eq!(std::fs::read(&path).expect("bytes"), after, "cut {cut}");
        }
        // Flips in the appended frame: the checksum catches each one.
        for i in (before.len()..after.len()).step_by(61) {
            let mut damaged = after.clone();
            damaged[i] ^= 0x10;
            let (data, valid) = scan_checkpoint(&damaged).expect("recovering scan");
            assert_eq!((data.models.len(), valid), (1, before.len()), "flip {i}");
        }
        // Re-sealed flips reach the record decoder: a typed error or a
        // decoded record, never a panic.
        let payload = &frame[FRAME_HEADER_LEN..];
        for i in (0..payload.len()).step_by(53) {
            let mut p = payload.to_vec();
            p[i] ^= 0x21;
            let mut damaged = before.clone();
            push_frame(&mut damaged, KIND_MODEL, |out| {
                out.extend_from_slice(&p);
                Ok(())
            })
            .expect("frame");
            let r = scan_checkpoint(&damaged);
            assert!(r.is_ok() || is_ckpt_err(&r), "resealed flip {i}");
        }
        std::fs::remove_file(&path).ok();
    }
}
