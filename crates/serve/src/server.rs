//! The `mdes-serve` daemon: TCP ingest + admin planes over a shared
//! [`ServingEngine`].
//!
//! # Threads
//!
//! ```text
//! accept (ingest) ──► one reader + one writer thread per connection
//! accept (admin)  ──► one thread per admin connection
//! pump            ──► claims queued samples, scores them in one
//!                     `push_opt_many` round, routes replies
//! reaper          ──► evicts sessions idle past the TTL
//! ```
//!
//! # Backpressure (two stages, both bounded)
//!
//! 1. **Ingest**: each session owns a bounded sample queue
//!    ([`ServeConfig::queue_capacity`]). A push that finds it full is
//!    answered immediately with a `Busy` outcome and **not** absorbed —
//!    the server never buffers unboundedly on behalf of a fast producer.
//! 2. **Egress**: each connection owns a bounded reply queue
//!    ([`ServeConfig::outbound_capacity`]). The pump *reserves* a reply
//!    slot before it claims a sample, so a consumer that stops reading
//!    replies stalls only its own sessions (the pump skips them —
//!    `serve.net.stalled_skips`) while every other session keeps scoring.
//!    The cap counts frames queued, reserved and taken by the writer but
//!    not yet written, so it holds exactly, not one batch late.
//!
//! # Egress
//!
//! The queue is one byte buffer of concatenated MDSV frames plus a frame
//! count. The pump encodes each connection's replies of a round back to
//! back, each straight into the buffer (header placeholder, payload, then
//! length and checksum patched in), and hands them over with one lock and
//! one wake-up; the writer
//! swaps the whole buffer out (a double buffer, so steady state allocates
//! nothing) and sends it with one `write_all`. The bytes on the wire are
//! the frames one at a time would have produced.
//!
//! Sessions are server-global, keyed by id: any connection may push to any
//! session it knows the id of, and a session survives its creator's
//! disconnect until the idle TTL reaps it.
//!
//! # Observability (`serve.net.*`)
//!
//! Counters: `conns_opened/closed/rejected`, `frames_in/out`, `writes`,
//! `proto_errors`, `timeouts`, `sessions_opened/closed/evicted`, `pushes`,
//! `busy`, `gone`, `acks`, `scores`, `push_errors`, `stalled_skips`,
//! `dropped_samples`, `replies_dropped`, `publish_ok/publish_rejected`,
//! and `idle_rounds`: pump rounds whose claim walk over every session found
//! nothing to score, each followed by a wait of up to 5 ms for new work.
//! Histograms: `pump_us` (scoring-round latency), `pump_batch` (sessions
//! per round), `write_frames` (frames per socket write). Events: `evict`.
//! The invariants `acks + scores + push_errors == samples scored` and
//! `frames_out == sum of write_frames` are pinned by `tests/serve_net.rs`
//! and the chaos suite.

use crate::frame::{
    append_frame, append_msg, read_frame, FrameKind, ProtoError, ReadOutcome, DEFAULT_MAX_PAYLOAD,
};
use crate::wire::{
    CloseSessionRep, CloseSessionReq, OpenSessionRep, OpenSessionReq, ProtoErrRep, PushBatchReq,
    PushOutcome, PushReply, WireDetection,
};
use mdes_core::serve::{ServingEngine, StreamSession};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket poll granularity: how often blocked reads/waits wake to check the
/// shutdown flag. Purely internal latency/promptness trade-off.
const TICK: Duration = Duration::from_millis(50);

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Ingest listener address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Admin listener address; `None` disables the admin plane.
    pub admin_addr: Option<String>,
    /// Per-session bounded ingest queue; a push finding it full gets `Busy`.
    pub queue_capacity: usize,
    /// Per-connection bounded reply queue; the pump skips sessions whose
    /// consumer has no room left.
    pub outbound_capacity: usize,
    /// Sessions idle longer than this are evicted by the reaper.
    pub idle_ttl: Duration,
    /// Wall-clock budget to finish one started frame (or admin line) —
    /// the slow-loris guard. Idle connections are unaffected.
    pub read_timeout: Duration,
    /// Cap on a declared ingest-frame payload length.
    pub max_payload: usize,
    /// Cap on an admin-plane `publish` upload.
    pub max_snapshot_bytes: usize,
    /// Max sessions scored per pump round.
    pub pump_batch: usize,
    /// Max simultaneous ingest connections; excess accepts are dropped.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            admin_addr: Some("127.0.0.1:0".to_owned()),
            queue_capacity: 64,
            outbound_capacity: 1024,
            idle_ttl: Duration::from_secs(300),
            read_timeout: Duration::from_secs(10),
            max_payload: DEFAULT_MAX_PAYLOAD,
            max_snapshot_bytes: 64 << 20,
            pump_batch: 1024,
            max_conns: 1024,
        }
    }
}

/// Spawns a named server thread, so `top -H` and `/proc/<pid>/task/*/comm`
/// tell the pump, a connection's reader and its writer apart.
fn spawn(name: &str, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(f)
        .expect("spawn server thread")
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Egress side of one ingest connection: encoded frames, back to back,
/// waiting for the connection's writer thread.
#[derive(Default)]
pub(crate) struct Outbound {
    /// Concatenated MDSV frames in send order.
    bytes: Vec<u8>,
    /// Frames in `bytes`.
    frames: usize,
    /// Reply slots the pump has claimed but not yet filled.
    reserved: usize,
    /// Frames the writer has taken out of `bytes` and not yet written.
    in_flight: usize,
}

impl Outbound {
    /// Frames counted against the connection's cap.
    fn held(&self) -> usize {
        self.frames + self.reserved + self.in_flight
    }
}

pub(crate) struct ConnHandle {
    pub(crate) alive: AtomicBool,
    capacity: usize,
    q: Mutex<Outbound>,
    signal: Condvar,
}

impl ConnHandle {
    fn new(capacity: usize) -> Self {
        Self {
            alive: AtomicBool::new(true),
            capacity,
            q: Mutex::new(Outbound::default()),
            signal: Condvar::new(),
        }
    }

    /// Enqueues the one frame `frame` appends if the bounded queue has
    /// room; `false` otherwise.
    fn try_send(&self, frame: impl FnOnce(&mut Vec<u8>)) -> bool {
        if !self.alive.load(Ordering::Acquire) {
            return false;
        }
        let mut q = lock(&self.q);
        if q.held() >= self.capacity {
            return false;
        }
        frame(&mut q.bytes);
        q.frames += 1;
        drop(q);
        self.signal.notify_one();
        true
    }

    /// Enqueues past the cap — only for the single best-effort
    /// [`FrameKind::ProtoErr`] frame sent right before close.
    fn force_send(&self, frame: impl FnOnce(&mut Vec<u8>)) {
        let mut q = lock(&self.q);
        frame(&mut q.bytes);
        q.frames += 1;
        drop(q);
        self.signal.notify_one();
    }

    /// Claims one reply slot; `false` when the consumer has no room.
    fn try_reserve(&self) -> bool {
        if !self.alive.load(Ordering::Acquire) {
            return false;
        }
        let mut q = lock(&self.q);
        if q.held() >= self.capacity {
            return false;
        }
        q.reserved += 1;
        true
    }

    /// Fills `frames` slots claimed by [`ConnHandle::try_reserve`] with
    /// `bytes`, which hold exactly that many encoded frames. When the
    /// consumer has died the slots are released instead and this returns
    /// `false`.
    fn send_reserved(&self, bytes: &[u8], frames: usize) -> bool {
        let mut q = lock(&self.q);
        q.reserved = q.reserved.saturating_sub(frames);
        if !self.alive.load(Ordering::Acquire) {
            return false;
        }
        q.bytes.extend_from_slice(bytes);
        q.frames += frames;
        drop(q);
        self.signal.notify_one();
        true
    }

    /// Releases a claimed slot without sending.
    fn release(&self) {
        let mut q = lock(&self.q);
        q.reserved = q.reserved.saturating_sub(1);
    }

    fn close(&self) {
        self.alive.store(false, Ordering::Release);
        self.signal.notify_all();
    }
}

/// One queued sample awaiting the pump.
struct PendingPush {
    seq: u64,
    records: Vec<Option<String>>,
    conn: Arc<ConnHandle>,
}

/// Server-side state of one stream session.
pub(crate) struct SessionEntry {
    pub(crate) id: u64,
    pub(crate) width: usize,
    /// Set by close/evict; the pump drops any still-queued samples.
    closed: AtomicBool,
    /// `None` while the pump is scoring this session.
    session: Mutex<Option<StreamSession>>,
    queue: Mutex<VecDeque<PendingPush>>,
    last_active: Mutex<Instant>,
}

impl SessionEntry {
    fn new(id: u64, width: usize, session: StreamSession) -> Self {
        Self {
            id,
            width,
            closed: AtomicBool::new(false),
            session: Mutex::new(Some(session)),
            queue: Mutex::new(VecDeque::new()),
            last_active: Mutex::new(Instant::now()),
        }
    }

    pub(crate) fn seen(&self) -> usize {
        lock(&self.session).as_ref().map_or(0, StreamSession::seen)
    }

    pub(crate) fn queued(&self) -> usize {
        lock(&self.queue).len()
    }

    fn touch(&self) {
        *lock(&self.last_active) = Instant::now();
    }
}

/// State shared by every server thread.
pub(crate) struct Shared {
    pub(crate) engine: ServingEngine,
    pub(crate) cfg: ServeConfig,
    pub(crate) registry: Mutex<HashMap<u64, Arc<SessionEntry>>>,
    next_session: AtomicU64,
    pub(crate) live_conns: AtomicUsize,
    pub(crate) shutdown: AtomicBool,
    /// Pump wake-up: set when new work is queued.
    work: Mutex<bool>,
    work_signal: Condvar,
    /// Bound addresses, for self-poking blocked accept loops on shutdown.
    addrs: Mutex<Vec<SocketAddr>>,
}

impl Shared {
    fn new(engine: ServingEngine, cfg: ServeConfig, addrs: Vec<SocketAddr>) -> Self {
        Self {
            engine,
            cfg,
            registry: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            live_conns: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            work: Mutex::new(false),
            work_signal: Condvar::new(),
            addrs: Mutex::new(addrs),
        }
    }

    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        *lock(&self.work) = true;
        self.work_signal.notify_all();
        for addr in lock(&self.addrs).iter() {
            // Unblocks a listener parked in accept(); errors are irrelevant.
            let _ = TcpStream::connect_timeout(addr, TICK);
        }
    }

    fn notify_work(&self) {
        *lock(&self.work) = true;
        self.work_signal.notify_one();
    }

    pub(crate) fn evict(&self, id: u64, reason: &str) -> bool {
        let Some(entry) = lock(&self.registry).remove(&id) else {
            return false;
        };
        entry.closed.store(true, Ordering::Release);
        let dropped = entry.queued();
        if dropped > 0 {
            mdes_obs::counter("serve.net.dropped_samples", dropped as u64);
        }
        mdes_obs::counter("serve.net.sessions_evicted", 1);
        mdes_obs::event(
            "serve.net.evict",
            &[("session", id.into()), ("reason", reason.into())],
        );
        true
    }
}

/// A running daemon. Dropping the handle shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound ingest address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound admin address, when the admin plane is enabled.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// The engine this daemon serves — shared, so a host process can also
    /// publish snapshots directly.
    pub fn engine(&self) -> &ServingEngine {
        &self.shared.engine
    }

    /// Number of sessions currently registered.
    pub fn session_count(&self) -> usize {
        lock(&self.shared.registry).len()
    }

    /// Blocks until shutdown is requested (admin `shutdown` command or
    /// [`ServerHandle::stop`] from another thread).
    pub fn wait(&self) {
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(TICK);
        }
    }

    /// Requests shutdown and joins every server thread. Open sessions are
    /// dropped (releasing their engine gauge); queued samples are
    /// discarded.
    pub fn stop(&self) {
        self.shared.request_shutdown();
        for t in lock(&self.threads).drain(..) {
            let _ = t.join();
        }
        lock(&self.shared.registry).clear();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts the daemon over `engine` and returns once both listeners are
/// bound.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] if `queue_capacity`,
/// `outbound_capacity` or `pump_batch` is zero (every push would be `Busy`,
/// every reply skipped, or no sample ever scored), and the I/O error if
/// either listener fails to bind.
pub fn start(engine: ServingEngine, cfg: ServeConfig) -> io::Result<ServerHandle> {
    for (name, value) in [
        ("queue_capacity", cfg.queue_capacity),
        ("outbound_capacity", cfg.outbound_capacity),
        ("pump_batch", cfg.pump_batch),
    ] {
        if value == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("ServeConfig::{name} must be at least 1"),
            ));
        }
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let admin_listener = match &cfg.admin_addr {
        Some(a) => Some(TcpListener::bind(a)?),
        None => None,
    };
    let admin_addr = match &admin_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };

    let addrs = std::iter::once(addr).chain(admin_addr).collect();
    let shared = Arc::new(Shared::new(engine, cfg, addrs));

    let mut threads = Vec::new();
    {
        let s = Arc::clone(&shared);
        threads.push(spawn("mdes-accept", move || accept_loop(&s, &listener)));
    }
    if let Some(l) = admin_listener {
        let s = Arc::clone(&shared);
        threads.push(spawn("mdes-admin", move || {
            crate::admin::accept_loop(&s, &l)
        }));
    }
    {
        let s = Arc::clone(&shared);
        threads.push(spawn("mdes-pump", move || pump_loop(&s)));
    }
    {
        let s = Arc::clone(&shared);
        threads.push(spawn("mdes-reaper", move || reaper_loop(&s)));
    }

    Ok(ServerHandle {
        shared,
        addr,
        admin_addr,
        threads: Mutex::new(threads),
    })
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if shared.live_conns.load(Ordering::Relaxed) >= shared.cfg.max_conns {
            mdes_obs::counter("serve.net.conns_rejected", 1);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        shared.live_conns.fetch_add(1, Ordering::Relaxed);
        mdes_obs::counter("serve.net.conns_opened", 1);
        let conn = Arc::new(ConnHandle::new(shared.cfg.outbound_capacity));
        {
            let s = Arc::clone(shared);
            let c = Arc::clone(&conn);
            conn_threads.push(spawn("mdes-conn-rd", move || conn_reader(&s, &c, stream)));
        }
        {
            let s = Arc::clone(shared);
            let c = Arc::clone(&conn);
            conn_threads.push(spawn("mdes-conn-wr", move || {
                conn_writer(&s, &c, write_half)
            }));
        }
        // Opportunistically reap finished connection threads so a
        // long-lived daemon doesn't accumulate handles.
        conn_threads.retain(|t| !t.is_finished());
    }
    for t in conn_threads {
        let _ = t.join();
    }
}

fn conn_reader(shared: &Arc<Shared>, conn: &Arc<ConnHandle>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(TICK));
    let _ = stream.set_nodelay(true);
    // Buffered: a client's batch of pipelined frames costs one `read`, not a
    // header and a payload `read` per frame. A read timeout surfaces
    // through the buffer unchanged, so idle and slow-loris detection hold.
    let mut stream = BufReader::new(stream);
    while !shared.shutdown.load(Ordering::SeqCst) && conn.alive.load(Ordering::Acquire) {
        match read_frame(
            &mut stream,
            shared.cfg.max_payload,
            Some(shared.cfg.read_timeout),
        ) {
            Ok(ReadOutcome::Idle) => continue,
            Ok(ReadOutcome::Eof) => break,
            Ok(ReadOutcome::Frame(frame)) => {
                mdes_obs::counter("serve.net.frames_in", 1);
                if let Err(e) = handle_frame(shared, conn, &frame) {
                    protocol_error(conn, &e);
                    break;
                }
            }
            Err(e) => {
                protocol_error(conn, &e);
                break;
            }
        }
    }
    conn.close();
    shared.live_conns.fetch_sub(1, Ordering::Relaxed);
    mdes_obs::counter("serve.net.conns_closed", 1);
}

/// Counts the failure, sends one best-effort typed error frame, and leaves
/// the connection marked for close.
fn protocol_error(conn: &Arc<ConnHandle>, e: &ProtoError) {
    mdes_obs::counter("serve.net.proto_errors", 1);
    if matches!(e, ProtoError::TimedOut { .. }) {
        mdes_obs::counter("serve.net.timeouts", 1);
    }
    let rep = ProtoErrRep {
        code: e.code().to_owned(),
        detail: e.to_string(),
    };
    conn.force_send(|out| append_msg(out, &rep));
}

fn handle_frame(
    shared: &Arc<Shared>,
    conn: &Arc<ConnHandle>,
    frame: &crate::frame::Frame,
) -> Result<(), ProtoError> {
    match frame.kind {
        FrameKind::OpenSession => {
            let req: OpenSessionReq = frame.parse()?;
            // Every record of a pushed sample takes at least its 4-byte
            // length, so a wider sample fits in no frame. Refusing it here
            // also keeps a hostile width from sizing the session's buffers.
            let widest = shared.cfg.max_payload.min(u32::MAX as usize) / 4;
            let opened = if req.width > widest {
                Err(format!(
                    "width {} exceeds the {widest} records one PushBatch frame can carry",
                    req.width
                ))
            } else {
                shared
                    .engine
                    .open_session(req.width)
                    .map_err(|e| e.to_string())
            };
            let rep = match opened {
                Ok(session) => {
                    let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
                    let warmup = session.warmup();
                    let entry = Arc::new(SessionEntry::new(id, req.width, session));
                    lock(&shared.registry).insert(id, entry);
                    mdes_obs::counter("serve.net.sessions_opened", 1);
                    OpenSessionRep {
                        ok: true,
                        session: id,
                        warmup,
                        snapshot_version: shared.engine.store().version(),
                        detail: String::new(),
                    }
                }
                Err(detail) => OpenSessionRep {
                    ok: false,
                    session: 0,
                    warmup: 0,
                    snapshot_version: shared.engine.store().version(),
                    detail,
                },
            };
            reply(conn, |out| append_msg(out, &rep));
            Ok(())
        }
        FrameKind::CloseSession => {
            let req: CloseSessionReq = frame.parse()?;
            let existed = shared.evict(req.session, "closed");
            if existed {
                // Closed by request, not by the reaper: correct the counter.
                mdes_obs::counter("serve.net.sessions_closed", 1);
            }
            let rep = CloseSessionRep {
                session: req.session,
                existed,
            };
            reply(conn, |out| append_msg(out, &rep));
            Ok(())
        }
        FrameKind::PushBatch => {
            let req: PushBatchReq = frame.parse()?;
            let mut queued_any = false;
            for entry in req.entries {
                let outcome = {
                    let target = lock(&shared.registry).get(&entry.session).cloned();
                    match target {
                        None => Some(PushOutcome::Gone),
                        Some(t) if t.closed.load(Ordering::Acquire) => Some(PushOutcome::Gone),
                        Some(t) => {
                            let mut q = lock(&t.queue);
                            if q.len() >= shared.cfg.queue_capacity {
                                mdes_obs::counter("serve.net.busy", 1);
                                Some(PushOutcome::Busy)
                            } else {
                                q.push_back(PendingPush {
                                    seq: entry.seq,
                                    records: entry.records,
                                    conn: Arc::clone(conn),
                                });
                                drop(q);
                                t.touch();
                                mdes_obs::counter("serve.net.pushes", 1);
                                queued_any = true;
                                None
                            }
                        }
                    }
                };
                if let Some(outcome) = outcome {
                    if matches!(outcome, PushOutcome::Gone) {
                        mdes_obs::counter("serve.net.gone", 1);
                    }
                    let rep = PushReply {
                        session: entry.session,
                        seq: entry.seq,
                        outcome,
                    };
                    reply(conn, |out| append_msg(out, &rep));
                }
            }
            if queued_any {
                shared.notify_work();
            }
            Ok(())
        }
        FrameKind::Ping => {
            reply(conn, |out| append_frame(out, FrameKind::Pong, b""));
            Ok(())
        }
        // Server → client kinds arriving at the server are a protocol
        // violation by the peer.
        FrameKind::SessionOpened
        | FrameKind::SessionClosed
        | FrameKind::PushReply
        | FrameKind::ProtoErr
        | FrameKind::Pong => Err(ProtoError::BadPayload {
            kind: frame.kind as u8,
            detail: "server-to-client frame kind sent by client".to_owned(),
        }),
    }
}

/// Best-effort enqueue of the one frame `frame` appends; drops (and counts)
/// when the consumer's bounded queue is full.
fn reply(conn: &Arc<ConnHandle>, frame: impl FnOnce(&mut Vec<u8>)) {
    if !conn.try_send(frame) {
        mdes_obs::counter("serve.net.replies_dropped", 1);
    }
}

fn conn_writer(shared: &Arc<Shared>, conn: &Arc<ConnHandle>, mut stream: TcpStream) {
    drain_outbound(conn, &shared.shutdown, &mut stream);
    let _ = stream.shutdown(Shutdown::Both);
}

/// The writer loop: takes everything queued in one swap and sends it with
/// one `write_all`, until the connection closes, the server shuts down or
/// a write fails. The taken frames stay counted against the cap (as
/// `in_flight`) until their write returns.
fn drain_outbound(conn: &ConnHandle, shutdown: &AtomicBool, out: &mut impl Write) {
    let mut batch: Vec<u8> = Vec::new();
    loop {
        let frames = {
            let mut q = lock(&conn.q);
            // The previous batch has been written: it leaves the count.
            q.in_flight = 0;
            loop {
                if q.frames > 0 {
                    std::mem::swap(&mut q.bytes, &mut batch);
                    q.in_flight = std::mem::take(&mut q.frames);
                    break q.in_flight;
                }
                if !conn.alive.load(Ordering::Acquire) || shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let (guard, _) = conn
                    .signal
                    .wait_timeout(q, TICK)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        };
        if out.write_all(&batch).is_err() {
            conn.close();
            return;
        }
        batch.clear();
        mdes_obs::counter("serve.net.frames_out", frames as u64);
        mdes_obs::counter("serve.net.writes", 1);
        mdes_obs::observe("serve.net.write_frames", frames as f64);
    }
}

/// One claimed unit of scoring work.
struct Claim {
    entry: Arc<SessionEntry>,
    push: PendingPush,
}

/// A pump round's replies grouped by connection, each group encoded back
/// to back. Kept across rounds so its buffers and index are reused.
#[derive(Default)]
struct Egress {
    /// Connection (by `Arc` address) → its group's position this round.
    slot: HashMap<usize, usize>,
    /// This round's connections, in first-claim order, with their frame
    /// counts.
    conns: Vec<(Arc<ConnHandle>, usize)>,
    /// Encoded replies per group; `bufs[i]` belongs to `conns[i]`.
    bufs: Vec<Vec<u8>>,
}

impl Egress {
    /// Encodes one `PushReply` straight onto the end of `conn`'s group.
    fn push(&mut self, conn: &Arc<ConnHandle>, reply: &PushReply) {
        let at = *self
            .slot
            .entry(Arc::as_ptr(conn) as usize)
            .or_insert_with(|| {
                self.conns.push((Arc::clone(conn), 0));
                self.conns.len() - 1
            });
        if at == self.bufs.len() {
            self.bufs.push(Vec::new());
        }
        append_msg(&mut self.bufs[at], reply);
        self.conns[at].1 += 1;
    }

    /// Hands each group to its connection: one lock, one settle of the
    /// reserved slots and one wake-up per connection.
    fn flush(&mut self) {
        for ((conn, frames), buf) in self.conns.drain(..).zip(&mut self.bufs) {
            if !conn.send_reserved(buf, frames) {
                mdes_obs::counter("serve.net.replies_dropped", frames as u64);
            }
            buf.clear();
        }
        self.slot.clear();
    }
}

fn pump_loop(shared: &Arc<Shared>) {
    let mut egress = Egress::default();
    let mut cursor = 0;
    while !shared.shutdown.load(Ordering::SeqCst) {
        let claims = claim_round(shared, &mut cursor);
        if claims.is_empty() {
            mdes_obs::counter("serve.net.idle_rounds", 1);
            let guard = lock(&shared.work);
            let mut guard = if *guard {
                guard
            } else {
                let (g, _) = shared
                    .work_signal
                    .wait_timeout(guard, Duration::from_millis(5))
                    .unwrap_or_else(|e| e.into_inner());
                g
            };
            *guard = false;
            continue;
        }
        score_round(shared, claims, &mut egress);
    }
}

/// Claims at most one queued sample per session, reserving a reply slot on
/// the owning connection first. Sessions whose consumer is out of room are
/// skipped; samples whose connection died are discarded.
///
/// A round stops at `pump_batch` claims, so the walk over the registry
/// starts at `cursor` and leaves it where the round stopped: with more busy
/// sessions than `pump_batch`, the next round serves the ones this round
/// did not reach instead of the same first few again.
fn claim_round(shared: &Arc<Shared>, cursor: &mut usize) -> Vec<(Claim, StreamSession)> {
    let entries: Vec<Arc<SessionEntry>> = lock(&shared.registry).values().cloned().collect();
    let start = cursor.checked_rem(entries.len()).unwrap_or(0);
    let (tail, head) = entries.split_at(start);
    let mut visited = 0;
    let mut out = Vec::new();
    for entry in head.iter().chain(tail) {
        if out.len() >= shared.cfg.pump_batch {
            break;
        }
        visited += 1;
        if entry.closed.load(Ordering::Acquire) {
            continue;
        }
        let push = {
            let mut q = lock(&entry.queue);
            // Discard samples whose reply could never be delivered.
            while q
                .front()
                .is_some_and(|p| !p.conn.alive.load(Ordering::Acquire))
            {
                q.pop_front();
                mdes_obs::counter("serve.net.dropped_samples", 1);
            }
            let Some(front) = q.front() else { continue };
            if !front.conn.try_reserve() {
                mdes_obs::counter("serve.net.stalled_skips", 1);
                continue;
            }
            q.pop_front().expect("front exists")
        };
        let Some(session) = lock(&entry.session).take() else {
            // Single pump thread: the slot can only be empty if the entry
            // is being torn down. Put the sample back and move on.
            push.conn.release();
            lock(&entry.queue).push_front(push);
            continue;
        };
        out.push((
            Claim {
                entry: Arc::clone(entry),
                push,
            },
            session,
        ));
    }
    *cursor = start + visited;
    out
}

fn score_round(shared: &Arc<Shared>, claims: Vec<(Claim, StreamSession)>, egress: &mut Egress) {
    mdes_obs::observe("serve.net.pump_batch", claims.len() as f64);
    let _round = mdes_obs::timer("serve.net.pump_us");
    let (mut claims, mut sessions): (Vec<Claim>, Vec<StreamSession>) = claims.into_iter().unzip();
    let samples: Vec<Vec<Option<String>>> = claims
        .iter_mut()
        .map(|c| std::mem::take(&mut c.push.records))
        .collect();
    let results = shared.engine.push_opt_many(&mut sessions, &samples);
    for ((claim, session), result) in claims.into_iter().zip(sessions).zip(results) {
        let outcome = match result {
            Ok(None) => {
                mdes_obs::counter("serve.net.acks", 1);
                PushOutcome::Ack
            }
            Ok(Some(d)) => {
                mdes_obs::counter("serve.net.scores", 1);
                PushOutcome::Score(WireDetection::new(d, session.snapshot_version()))
            }
            Err(e) => {
                mdes_obs::counter("serve.net.push_errors", 1);
                PushOutcome::Error {
                    detail: e.to_string(),
                }
            }
        };
        let reply = PushReply {
            session: claim.entry.id,
            seq: claim.push.seq,
            outcome,
        };
        egress.push(&claim.push.conn, &reply);
        if claim.entry.closed.load(Ordering::Acquire) {
            // Closed/evicted while scoring: the session state dies here.
            continue;
        }
        *lock(&claim.entry.session) = Some(session);
        claim.entry.touch();
    }
    egress.flush();
}

fn reaper_loop(shared: &Arc<Shared>) {
    let ttl = shared.cfg.idle_ttl;
    let step = (ttl / 4).clamp(Duration::from_millis(20), Duration::from_millis(200));
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(step);
        let idle: Vec<u64> = lock(&shared.registry)
            .values()
            .filter(|e| {
                lock(&e.queue).is_empty()
                    && lock(&e.session).is_some()
                    && lock(&e.last_active).elapsed() >= ttl
            })
            .map(|e| e.id)
            .collect();
        for id in idle {
            shared.evict(id, "idle_ttl");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// A consumer that stops reading: each write reports that it started,
    /// then parks until the test grants it or hangs up.
    struct Wedged {
        started: Sender<()>,
        grant: Receiver<()>,
    }

    impl Write for Wedged {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let _ = self.started.send(());
            match self.grant.recv() {
                Ok(()) => Ok(buf.len()),
                Err(_) => Err(io::ErrorKind::BrokenPipe.into()),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Closes the connection when dropped, also when an assertion fails,
    /// so the scope joining the writer cannot hang.
    struct Hangup<'a>(&'a ConnHandle);

    impl Drop for Hangup<'_> {
        fn drop(&mut self) {
            self.0.close();
        }
    }

    /// Offers one frame through the reader's path (`try_send`, even `n`)
    /// or the pump's (`try_reserve`, then fill; odd `n`).
    fn offer(conn: &ConnHandle, n: usize) -> bool {
        if n.is_multiple_of(2) {
            return conn.try_send(|out| append_frame(out, FrameKind::Pong, b""));
        }
        let mut frame = Vec::new();
        append_frame(&mut frame, FrameKind::Pong, b"");
        conn.try_reserve() && conn.send_reserved(&frame, 1)
    }

    #[test]
    fn queued_reserved_and_in_flight_frames_never_exceed_the_cap() {
        const CAP: usize = 4;
        let conn = ConnHandle::new(CAP);
        let shutdown = AtomicBool::new(false);
        let (started, writes) = channel();
        let (grant, granted) = channel();
        let mut consumer = Wedged {
            started,
            grant: granted,
        };
        std::thread::scope(|scope| {
            let hangup = Hangup(&conn);
            let (conn, shutdown) = (&conn, &shutdown);
            scope.spawn(move || drain_outbound(conn, shutdown, &mut consumer));
            let mut accepted = 0;
            for round in 0..3 {
                // Fill while the writer takes whatever it finds, then let
                // it park mid-write on the batch it took.
                while offer(conn, accepted) {
                    accepted += 1;
                    assert!(lock(&conn.q).held() <= CAP);
                }
                writes
                    .recv_timeout(Duration::from_secs(10))
                    .expect("writer took a batch");
                // Nothing of this round is written yet, so all of it is
                // still held, queued, reserved or in flight: no more room.
                for n in 0..3 * CAP {
                    assert!(!offer(conn, n), "round {round}: a frame past the cap");
                }
                assert_eq!(accepted, CAP * (round + 1), "round {round}");
                assert_eq!(lock(&conn.q).held(), CAP, "round {round}");
                // Let every parked write through; once written, the
                // frames leave the count.
                let deadline = Instant::now() + Duration::from_secs(10);
                while lock(&conn.q).held() > 0 {
                    assert!(Instant::now() < deadline, "round {round}: never drained");
                    let _ = grant.send(());
                    let _ = writes.recv_timeout(TICK);
                }
            }
            drop((grant, hangup));
        });
    }

    /// An engine over a tiny fitted plant: three phase-shifted square
    /// waves, three sensors per sample.
    fn tiny_engine() -> ServingEngine {
        use mdes_core::serve::GraphSnapshot;
        use mdes_core::{Mdes, MdesConfig};
        use mdes_lang::{RawTrace, WindowConfig};
        let square = |name: &str, phase: usize| {
            let events = (0..450)
                .map(|t| {
                    if ((t + phase) / 5).is_multiple_of(2) {
                        "on"
                    } else {
                        "off"
                    }
                })
                .map(str::to_owned)
                .collect();
            RawTrace::new(name, events)
        };
        let traces = [square("a", 0), square("b", 2), square("c", 4)];
        let mut cfg = MdesConfig {
            window: WindowConfig {
                word_len: 4,
                word_stride: 1,
                sent_len: 5,
                sent_stride: 5,
            },
            ..MdesConfig::default()
        };
        cfg.detection.valid_range = mdes_graph::ScoreRange::closed(60.0, 100.0);
        let m = Mdes::fit(&traces, 0..300, 300..450, cfg).expect("fit");
        ServingEngine::new(GraphSnapshot::freeze(&m))
    }

    #[test]
    fn a_full_pump_round_resumes_where_the_last_one_stopped() {
        let cfg = ServeConfig {
            pump_batch: 1,
            ..ServeConfig::default()
        };
        let shared = Arc::new(Shared::new(tiny_engine(), cfg, Vec::new()));
        let conn = Arc::new(ConnHandle::new(64));
        let entries: Vec<Arc<SessionEntry>> = (1..=2)
            .map(|id| {
                let session = shared.engine.open_session(3).expect("open");
                let entry = Arc::new(SessionEntry::new(id, 3, session));
                for seq in 0..3 {
                    lock(&entry.queue).push_back(PendingPush {
                        seq,
                        records: vec![Some("on".to_owned()); 3],
                        conn: Arc::clone(&conn),
                    });
                }
                lock(&shared.registry).insert(id, Arc::clone(&entry));
                entry
            })
            .collect();
        let (mut cursor, mut egress) = (0, Egress::default());
        for _ in 0..2 {
            let claims = claim_round(&shared, &mut cursor);
            assert_eq!(claims.len(), 1, "pump_batch caps the round");
            score_round(&shared, claims, &mut egress);
        }
        for entry in &entries {
            assert_eq!(entry.seen(), 1, "session {} was starved", entry.id);
            assert_eq!(entry.queued(), 2, "session {}", entry.id);
        }
    }

    #[test]
    fn a_dead_consumer_releases_its_reserved_slots() {
        let conn = ConnHandle::new(2);
        assert!(conn.try_reserve());
        assert!(conn.try_reserve());
        assert!(!conn.try_reserve());
        conn.close();
        let mut frames = Vec::new();
        append_frame(&mut frames, FrameKind::Pong, b"");
        append_frame(&mut frames, FrameKind::Pong, b"");
        assert!(!conn.send_reserved(&frames, 2));
        assert_eq!(lock(&conn.q).held(), 0);
    }
}
