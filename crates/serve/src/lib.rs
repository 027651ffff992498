//! `mdes-serve` — the network-facing serving daemon over
//! `mdes_core::serve::ServingEngine`.
//!
//! Std-only (no async runtime): `std::net` listeners, one reader + one
//! writer thread per ingest connection, and a single scoring pump that
//! batches queued samples through `ServingEngine::push_opt_many` — the
//! same worker-pool fan-out an in-process host uses, so network-served
//! scores are byte-identical to in-process ones. A panicking decode comes
//! back from that call as a typed `CoreError::WorkerLost` reply for the
//! round's sessions; it does not end the pump.
//!
//! Two planes:
//!
//! * **Ingest** ([`frame`], [`wire`]) — a length-prefixed binary protocol
//!   (magic/version/kind/len/FNV-1a checksum, mirroring the MDCK/MDSN
//!   checkpoint framing) carrying session open/close, batched pushes with
//!   explicit `Busy` backpressure, and bit-exact score replies.
//! * **Admin** (the `admin` module) — a line-based text plane: session listing,
//!   stats, the mdes-obs report, forced eviction, validated snapshot
//!   upload (`publish`) that hot-swaps the model without dropping
//!   buffered windows, and daemon shutdown.
//!
//! See `DESIGN.md` §12 for the wire format specification.
//!
//! # Example
//!
//! ```no_run
//! use mdes_serve::{start, IngestClient, ServeConfig};
//! # fn engine() -> mdes_core::ServingEngine { unimplemented!() }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = start(engine(), ServeConfig::default())?;
//! let mut client = IngestClient::connect(server.addr())?;
//! let (session, _warmup) = client.open_session(2)?;
//! client.send_push_batch(vec![mdes_serve::wire::PushEntry {
//!     session,
//!     seq: 0,
//!     records: vec![Some("on".into()), Some("off".into())],
//! }])?;
//! let replies = client.recv_push_replies(1)?;
//! assert_eq!(replies[0].seq, 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod admin;
mod client;
pub mod frame;
mod server;
pub mod wire;

pub use client::{drain_to_eof, AdminClient, ClientError, IngestClient};
pub use frame::{
    encode_frame, encode_msg, read_frame, write_frame, Frame, FrameKind, ProtoError, ReadOutcome,
    DEFAULT_MAX_PAYLOAD, HEADER_LEN, MAGIC, VERSION,
};
pub use server::{start, ServeConfig, ServerHandle};
pub use wire::{
    CloseSessionRep, CloseSessionReq, OpenSessionRep, OpenSessionReq, ProtoErrRep, PushBatchReq,
    PushEntry, PushOutcome, PushReply, WireDetection,
};
