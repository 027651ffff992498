//! Minimal blocking clients for both planes.
//!
//! These exist for the conformance/chaos suites and the serving bench;
//! they are deliberately simple (one thread, blocking reads with a
//! deadline) rather than a production SDK.

use crate::frame::{
    encode_msg, read_frame, Frame, FrameKind, ProtoError, ReadOutcome, DEFAULT_MAX_PAYLOAD,
};
use crate::wire::{
    CloseSessionRep, CloseSessionReq, OpenSessionRep, OpenSessionReq, PushBatchReq, PushEntry,
    PushReply,
};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client-side failure: transport, protocol, or an application-level
/// refusal (e.g. the server answered an open with `ok: false`).
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// Framing/codec failure, including a server `ProtoErr` frame.
    Proto(ProtoError),
    /// The server refused the request; the payload explains why.
    Refused(String),
    /// No frame arrived within the client's deadline.
    Timeout,
    /// The server closed the connection.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Refused(d) => write!(f, "refused: {d}"),
            ClientError::Timeout => write!(f, "timed out waiting for a reply"),
            ClientError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Blocking client for the framed ingest plane.
pub struct IngestClient {
    stream: TcpStream,
    /// Frames read while looking for something else (e.g. a `Pong` that
    /// arrived before outstanding `PushReply`s were drained).
    pending: VecDeque<Frame>,
    deadline: Duration,
}

impl IngestClient {
    /// Connects with a default 10 s reply deadline.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        Self::connect_with_deadline(addr, Duration::from_secs(10))
    }

    /// Connects with an explicit per-wait reply deadline.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect_with_deadline(
        addr: SocketAddr,
        deadline: Duration,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(25)))?;
        Ok(Self {
            stream,
            pending: VecDeque::new(),
            deadline,
        })
    }

    /// The underlying stream, for fault-injection tests and for a second
    /// reader of the replies (a load generator's reply thread reads a
    /// `try_clone` of it).
    ///
    /// This is why the client reads its socket unbuffered: a private read
    /// buffer could already hold reply bytes that such a second reader then
    /// never sees, which would tear its frame stream.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Sends raw bytes as-is — fault injection only.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    fn send(&mut self, kind: FrameKind, msg: &impl serde::Serialize) -> Result<(), ClientError> {
        self.stream.write_all(&encode_msg(kind, msg))?;
        Ok(())
    }

    /// Reads the next frame (served from the pending stash first).
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] when nothing arrives in time,
    /// [`ClientError::Closed`] on EOF, [`ClientError::Proto`] on garbage.
    pub fn recv_frame(&mut self) -> Result<Frame, ClientError> {
        if let Some(f) = self.pending.pop_front() {
            return Ok(f);
        }
        let start = Instant::now();
        loop {
            match read_frame(&mut self.stream, DEFAULT_MAX_PAYLOAD, None)? {
                ReadOutcome::Frame(f) => return Ok(f),
                ReadOutcome::Eof => return Err(ClientError::Closed),
                ReadOutcome::Idle => {
                    if start.elapsed() >= self.deadline {
                        return Err(ClientError::Timeout);
                    }
                }
            }
        }
    }

    /// Reads frames until one of `kind` arrives, stashing everything else.
    fn recv_kind(&mut self, kind: FrameKind) -> Result<Frame, ClientError> {
        if let Some(pos) = self.pending.iter().position(|f| f.kind == kind) {
            return Ok(self.pending.remove(pos).expect("position exists"));
        }
        loop {
            let f = self.recv_frame()?;
            if f.kind == kind {
                return Ok(f);
            }
            if f.kind == FrameKind::ProtoErr {
                let rep: crate::wire::ProtoErrRep =
                    f.parse().unwrap_or_else(|_| crate::wire::ProtoErrRep {
                        code: "bad_payload".to_owned(),
                        detail: "unparseable ProtoErr frame".to_owned(),
                    });
                return Err(ClientError::Refused(format!(
                    "{}: {}",
                    rep.code, rep.detail
                )));
            }
            self.pending.push_back(f);
        }
    }

    /// Opens a session; returns `(session_id, warmup)`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Refused`] with the server's diagnostics when the
    /// engine rejects the width; transport errors otherwise.
    pub fn open_session(&mut self, width: usize) -> Result<(u64, usize), ClientError> {
        self.send(FrameKind::OpenSession, &OpenSessionReq { width })?;
        let rep: OpenSessionRep = self.recv_kind(FrameKind::SessionOpened)?.parse()?;
        if rep.ok {
            Ok((rep.session, rep.warmup))
        } else {
            Err(ClientError::Refused(rep.detail))
        }
    }

    /// Closes a session; returns whether it existed.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors.
    pub fn close_session(&mut self, session: u64) -> Result<bool, ClientError> {
        self.send(FrameKind::CloseSession, &CloseSessionReq { session })?;
        let rep: CloseSessionRep = self.recv_kind(FrameKind::SessionClosed)?.parse()?;
        Ok(rep.existed)
    }

    /// Sends a push batch without waiting for replies.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn send_push_batch(&mut self, entries: Vec<PushEntry>) -> Result<(), ClientError> {
        self.send(FrameKind::PushBatch, &PushBatchReq { entries })
    }

    /// Collects `n` push replies (any session/seq).
    ///
    /// # Errors
    ///
    /// Transport/protocol errors; [`ClientError::Timeout`] per missing
    /// reply.
    pub fn recv_push_replies(&mut self, n: usize) -> Result<Vec<PushReply>, ClientError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.recv_kind(FrameKind::PushReply)?.parse()?);
        }
        Ok(out)
    }

    /// Round-trips a ping.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send_raw(&crate::frame::encode_frame(FrameKind::Ping, &[]))?;
        self.recv_kind(FrameKind::Pong)?;
        Ok(())
    }
}

/// Blocking client for the line-based admin plane.
pub struct AdminClient {
    reader: BufReader<TcpStream>,
}

impl AdminClient {
    /// Connects to the admin listener.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self {
            reader: BufReader::new(stream),
        })
    }

    /// Runs one command; returns `(data_lines, status_line)` with the
    /// `"| "` prefixes stripped.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ClientError::Closed`] if the server hangs up
    /// before the status line.
    pub fn cmd(&mut self, command: &str) -> Result<(Vec<String>, String), ClientError> {
        self.reader
            .get_mut()
            .write_all(format!("{command}\n").as_bytes())?;
        self.read_response()
    }

    /// Uploads raw MDSN snapshot bytes via `publish`.
    ///
    /// # Errors
    ///
    /// Transport errors; the status line carries acceptance/rejection.
    pub fn publish(&mut self, snapshot_bytes: &[u8]) -> Result<(Vec<String>, String), ClientError> {
        let header = format!("publish {}\n", snapshot_bytes.len());
        let stream = self.reader.get_mut();
        stream.write_all(header.as_bytes())?;
        stream.write_all(snapshot_bytes)?;
        self.read_response()
    }

    /// Uploads a candidate snapshot via `canary start`, to be shadow-scored
    /// against the incumbent instead of swapped in directly. `fraction` and
    /// `budget` override the server-side [`mdes_core::CanaryConfig`]
    /// defaults when given.
    ///
    /// # Errors
    ///
    /// Transport errors; the status line carries acceptance/rejection.
    pub fn canary_start(
        &mut self,
        snapshot_bytes: &[u8],
        fraction: Option<f64>,
        budget: Option<usize>,
    ) -> Result<(Vec<String>, String), ClientError> {
        let mut header = format!("canary start {}", snapshot_bytes.len());
        if let Some(f) = fraction {
            header.push_str(&format!(" {f}"));
            if let Some(b) = budget {
                header.push_str(&format!(" {b}"));
            }
        }
        header.push('\n');
        let stream = self.reader.get_mut();
        stream.write_all(header.as_bytes())?;
        stream.write_all(snapshot_bytes)?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<(Vec<String>, String), ClientError> {
        let mut data = Vec::new();
        loop {
            let mut line = String::new();
            let n = loop {
                match self.reader.read_line(&mut line) {
                    Ok(n) => break n,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut
                            || e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            };
            if n == 0 {
                return Err(ClientError::Closed);
            }
            let line = line.trim_end_matches('\n').to_owned();
            if let Some(rest) = line.strip_prefix("| ") {
                data.push(rest.to_owned());
            } else {
                return Ok((data, line));
            }
        }
    }
}

/// Reads everything until EOF — for tests that expect the server to close.
///
/// # Errors
///
/// Propagates read failures other than timeouts.
pub fn drain_to_eof(stream: &mut TcpStream, deadline: Duration) -> io::Result<Vec<u8>> {
    let start = Instant::now();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(buf),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if start.elapsed() >= deadline {
                    return Ok(buf);
                }
            }
            Err(e) => return Err(e),
        }
    }
}
