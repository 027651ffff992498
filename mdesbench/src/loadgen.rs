//! Open-loop load generator over the MDSV ingest plane.
//!
//! Every push has a due time fixed before the phase starts; the generator
//! sends on that schedule and never waits for replies, and each reply's
//! latency runs from its push's *due* time, so a stall shows up as latency
//! on every push it delays. One ingest connection: the sender runs on the
//! calling thread, the reader on a clone of the client's socket.

use crate::cpu;
use crate::stats::Dist;
use crate::trace::Tracer;
use crate::workload::{Rng, THREADS};
use mdes_core::{snapshot_from_bytes, ServingEngine};
use mdes_serve::{
    encode_msg, read_frame, start, FrameKind, IngestClient, PushBatchReq, PushEntry, PushOutcome,
    PushReply, ReadOutcome, ServeConfig, ServerHandle, DEFAULT_MAX_PAYLOAD,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Most entries one `PushBatch` frame carries.
const MAX_BATCH: usize = 256;

/// Pushes fall due on a grid of this period: samples reach the daemon the
/// way a gateway forwards them, in one batch per tick, not one frame each.
const TICK_S: f64 = 0.020;

/// The sender reads the process CPU clock about this often; the CPU cost
/// per push is the median over these windows.
const CPU_WINDOW_NS: u64 = 500_000_000;

/// The test span's samples, as sent.
pub struct Stream {
    pub samples: Vec<Vec<Option<String>>>,
    /// Samples per day: index `i` lies on test day `i / day_len`.
    pub day_len: usize,
}

/// Who sends what when: session `s` pushes sample `(starts[s] + k) % len`
/// as its `k`-th push. The first `warm` pushes go out closed-loop before
/// the clock starts, so every session is one sample short of its first
/// window; push `warm + j` is then due at `offsets[s] + j · period`.
pub struct Plan {
    pub sessions: usize,
    pub rate: f64,
    pub secs: f64,
    pub warm: u32,
    offsets_s: Vec<f64>,
    pub starts: Vec<usize>,
}

impl Plan {
    /// Session phases are a seeded permutation of evenly spaced slots over
    /// one window stride, so window completions (every `stride` pushes per
    /// session) arrive uniformly in time rather than all at once.
    pub fn new(
        sessions: usize,
        rate: f64,
        secs: f64,
        warm: u32,
        stride: usize,
        stream_len: usize,
        seed: u64,
    ) -> Self {
        let mut rng = Rng::new(seed);
        let mut slots: Vec<usize> = (0..sessions).collect();
        rng.shuffle(&mut slots);
        let period = sessions as f64 / rate;
        let offsets_s = slots
            .iter()
            .map(|&slot| slot as f64 / sessions as f64 * stride as f64 * period)
            .collect();
        let starts = (0..sessions).map(|_| rng.below(stream_len)).collect();
        Self {
            sessions,
            rate,
            secs,
            warm,
            offsets_s,
            starts,
        }
    }

    /// Every timed push in due order; a push's `seq` on the wire is its
    /// index here.
    fn schedule(&self) -> Vec<Due> {
        let period = self.sessions as f64 / self.rate;
        let mut out = Vec::new();
        for (s, offset) in self.offsets_s.iter().enumerate() {
            for j in 0u32.. {
                let t = offset + j as f64 * period;
                if t >= self.secs {
                    break;
                }
                out.push(Due {
                    t_ns: ((t / TICK_S).floor() * TICK_S * 1e9) as u64,
                    session: s as u32,
                    k: self.warm + j,
                });
            }
        }
        out.sort_by_key(|d| (d.t_ns, d.session));
        out
    }

    pub fn sample_index(&self, session: usize, k: u32, len: usize) -> usize {
        (self.starts[session] + k as usize) % len
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Due {
    pub t_ns: u64,
    pub session: u32,
    pub k: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Ack,
    Score,
    Busy,
    Gone,
    Error,
}

#[derive(Clone, Copy, Debug)]
pub struct Reply {
    pub kind: Kind,
    /// From the push's due time to its reply being read and parsed.
    pub lat_ns: u64,
    pub score_bits: u64,
    pub coverage_bits: u64,
    pub sample_index: usize,
}

/// A booted daemon with its sessions opened, ready for the first push.
pub struct Deployment {
    server: ServerHandle,
    client: IngestClient,
    /// Server session id per plan session index.
    ids: Vec<u64>,
    /// Samples a session needs before its first window completes.
    pub warmup: usize,
}

impl Deployment {
    /// `snapshot_from_bytes`, then `start`, then opening every session:
    /// exactly what `setup_s` times on the serving workloads.
    pub fn boot(bytes: &[u8], width: usize, sessions: usize) -> Result<Self, String> {
        let snapshot = snapshot_from_bytes(bytes).map_err(|e| format!("snapshot decode: {e}"))?;
        let server = start(
            ServingEngine::new(snapshot).with_threads(THREADS),
            ServeConfig {
                admin_addr: None,
                idle_ttl: Duration::from_secs(3600),
                ..ServeConfig::default()
            },
        )
        .map_err(|e| format!("daemon start: {e}"))?;
        let mut client =
            IngestClient::connect_with_deadline(server.addr(), Duration::from_secs(30))
                .map_err(|e| format!("connect: {e}"))?;
        let mut ids = vec![0; sessions];
        let mut warmup = 0;
        for id in &mut ids {
            (*id, warmup) = client
                .open_session(width)
                .map_err(|e| format!("open session: {e}"))?;
        }
        Ok(Self {
            server,
            client,
            ids,
            warmup,
        })
    }

    /// Sends each session its first `plan.warm` samples closed-loop; all
    /// must be acknowledged.
    fn warm(&mut self, plan: &Plan, stream: &Stream) -> Result<(), String> {
        let len = stream.samples.len();
        for k in 0..plan.warm {
            let entries = (0..plan.sessions)
                .map(|s| PushEntry {
                    session: self.ids[s],
                    seq: u64::from(k),
                    records: stream.samples[plan.sample_index(s, k, len)].clone(),
                })
                .collect();
            self.client
                .send_push_batch(entries)
                .map_err(|e| format!("warm-up push: {e}"))?;
        }
        let replies = self
            .client
            .recv_push_replies(plan.sessions * plan.warm as usize)
            .map_err(|e| format!("warm-up replies: {e}"))?;
        match replies.iter().find(|r| r.outcome != PushOutcome::Ack) {
            Some(r) => Err(format!("warm-up push answered {:?}", r.outcome)),
            None => Ok(()),
        }
    }

    pub fn stop(self) {
        drop(self.client);
        self.server.stop();
    }
}

/// How a phase reacts to trouble.
pub struct PhaseCfg {
    /// Stop sending once a reply is this late or a push fails: the rung
    /// already missed its limit, so the rest of the phase is wasted time.
    pub abort_ns: Option<u64>,
    /// How long to wait for outstanding replies after the last send.
    pub drain: Duration,
    /// Keep every push and reply frame for re-timing the codecs afterwards.
    pub keep_frames: bool,
}

pub struct PhaseResult {
    pub dues: Vec<Due>,
    /// By `seq`, the reply to each due push.
    pub replies: Vec<Option<Reply>>,
    /// Send lag of every push sent, in due order.
    pub lag_ns: Vec<u64>,
    pub push_frames: Vec<Vec<u8>>,
    /// Payloads of the `PushReply` frames, in arrival order.
    pub reply_payloads: Vec<Vec<u8>>,
    pub aborted: bool,
    /// `(process CPU seconds, pushes sent)` read every [`CPU_WINDOW_NS`]
    /// while sending, first at the first send.
    cpu_marks: Vec<(f64, usize)>,
}

impl PhaseResult {
    pub fn replies(&self) -> impl Iterator<Item = (&Due, Option<&Reply>)> {
        self.dues
            .iter()
            .zip(self.replies.iter().map(Option::as_ref))
    }

    /// Pushes that were due and sent.
    pub fn attempted(&self) -> usize {
        self.lag_ns.len()
    }

    /// Sent pushes answered `Busy`/`Gone`/`Error`, or never answered.
    pub fn failed(&self) -> usize {
        self.replies[..self.attempted()]
            .iter()
            .filter(|r| !matches!(r, Some(r) if matches!(r.kind, Kind::Ack | Kind::Score)))
            .count()
    }

    /// Latencies of `kind` replies, in ms, in due order.
    pub fn latencies_ms(&self, kind: Kind) -> Vec<f64> {
        self.replies()
            .filter_map(|(_, r)| r.filter(|r| r.kind == kind))
            .map(|r| r.lat_ns as f64 / 1e6)
            .collect()
    }

    /// Process CPU time per push sent, in µs: the median over the phase's
    /// CPU windows of the CPU the whole process (sender, daemon and reader)
    /// used in the window over the pushes sent in it. `None` when the phase
    /// was too short for one window.
    pub fn cpu_us_per_push(&self) -> Option<f64> {
        let per_window: Vec<f64> = self
            .cpu_marks
            .windows(2)
            .filter(|w| w[1].1 > w[0].1)
            .map(|w| (w[1].0 - w[0].0) / (w[1].1 - w[0].1) as f64 * 1e6)
            .collect();
        Dist::new(&per_window).median().map(|p| p.value)
    }

    pub fn lag_ms(&self) -> Vec<f64> {
        self.lag_ns.iter().map(|&l| l as f64 / 1e6).collect()
    }

    /// Whether the generator ended the phase behind its schedule: the median
    /// send lag over its last quarter of pushes exceeds one tick. Lag the
    /// generator recovers from is counted as latency, since latency runs
    /// from due times; lag that persists means the generator, not the
    /// daemon, set the pace.
    pub fn generator_behind(&self) -> bool {
        let n = self.lag_ns.len();
        let tail: Vec<f64> = self.lag_ns[n - n / 4..]
            .iter()
            .map(|&l| l as f64 / 1e6)
            .collect();
        Dist::new(&tail)
            .median()
            .is_some_and(|p| p.value > TICK_S * 1e3)
    }

    /// Answered pushes per second, from the first push's due time to the
    /// last reply's arrival.
    pub fn delivered_sps(&self) -> f64 {
        let first = self.dues.first().map_or(0, |d| d.t_ns);
        let (mut last, mut answered) = (0u64, 0usize);
        for (d, r) in self.replies() {
            if let Some(r) = r.filter(|r| matches!(r.kind, Kind::Ack | Kind::Score)) {
                last = last.max(d.t_ns + r.lat_ns);
                answered += 1;
            }
        }
        if last <= first {
            return 0.0;
        }
        answered as f64 / ((last - first) as f64 / 1e9)
    }

    /// Whether replies got slower as the phase went on: the median latency
    /// of pushes due in the last quarter against that of the first quarter.
    pub fn backlog_grew(&self, secs: f64) -> bool {
        let quarter = |lo: f64, hi: f64| {
            let xs: Vec<f64> = self
                .replies()
                .filter(|(d, _)| {
                    let t = d.t_ns as f64 / 1e9;
                    lo <= t && t < hi
                })
                .filter_map(|(_, r)| r.map(|r| r.lat_ns as f64 / 1e6))
                .collect();
            Dist::new(&xs).median().map(|p| p.value)
        };
        match (quarter(0.0, secs / 4.0), quarter(0.75 * secs, secs)) {
            (Some(first), Some(last)) => last > 2.0 * first + 1.0,
            _ => true,
        }
    }
}

/// Runs one open-loop phase of `plan` against `dep`.
pub fn run_phase(
    dep: &mut Deployment,
    plan: &Plan,
    stream: &Stream,
    cfg: &PhaseCfg,
    tracer: &Tracer,
) -> Result<PhaseResult, String> {
    dep.warm(plan, stream)?;
    let mut reader = dep
        .client
        .stream()
        .try_clone()
        .map_err(|e| format!("clone the ingest socket for the reader: {e}"))?;
    let dues = plan.schedule();
    let (client, ids) = (&mut dep.client, &dep.ids);
    let t0 = Instant::now();
    let now_ns = || t0.elapsed().as_nanos() as u64;
    let (abort, done, sent) = (
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicUsize::new(0),
    );
    let len = stream.samples.len();

    let (lag_ns, push_frames, replies, reply_payloads, cpu_marks) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut replies: Vec<Option<Reply>> = vec![None; dues.len()];
            let mut payloads = Vec::new();
            let mut got = 0usize;
            let mut done_at: Option<Instant> = None;
            loop {
                if done.load(Ordering::Acquire) {
                    let target = sent.load(Ordering::Acquire);
                    let since = *done_at.get_or_insert_with(Instant::now);
                    if got >= target || since.elapsed() >= cfg.drain {
                        break;
                    }
                }
                let frame = match read_frame(&mut reader, DEFAULT_MAX_PAYLOAD, None) {
                    Ok(ReadOutcome::Frame(f)) => f,
                    Ok(ReadOutcome::Idle) => continue,
                    Ok(ReadOutcome::Eof) | Err(_) => break,
                };
                if frame.kind != FrameKind::PushReply {
                    continue;
                }
                let _span = tracer.span("client.recv", None, None);
                let Ok(rep) = frame.parse::<PushReply>() else {
                    break;
                };
                let at = now_ns();
                let seq = rep.seq as usize;
                let Some(due) = dues.get(seq) else {
                    continue;
                };
                let (kind, score_bits, coverage_bits, sample_index) = match &rep.outcome {
                    PushOutcome::Ack => (Kind::Ack, 0, 0, 0),
                    PushOutcome::Score(d) => {
                        (Kind::Score, d.score_bits, d.coverage_bits, d.sample_index)
                    }
                    PushOutcome::Busy => (Kind::Busy, 0, 0, 0),
                    PushOutcome::Gone => (Kind::Gone, 0, 0, 0),
                    PushOutcome::Error { .. } => (Kind::Error, 0, 0, 0),
                };
                let lat_ns = at.saturating_sub(due.t_ns);
                let late = cfg.abort_ns.is_some_and(|limit| lat_ns > limit);
                if cfg.abort_ns.is_some() && (late || !matches!(kind, Kind::Ack | Kind::Score)) {
                    abort.store(true, Ordering::Relaxed);
                }
                if replies[seq].is_none() {
                    got += 1;
                }
                replies[seq] = Some(Reply {
                    kind,
                    lat_ns,
                    score_bits,
                    coverage_bits,
                    sample_index,
                });
                if cfg.keep_frames {
                    payloads.push(frame.payload);
                }
            }
            (replies, payloads)
        });

        let mut lag_ns = Vec::with_capacity(dues.len());
        let mut push_frames = Vec::new();
        let mut cpu_marks = Vec::new();
        let mut next_mark = 0;
        let mut i = 0;
        while i < dues.len() && !abort.load(Ordering::Relaxed) {
            let now = now_ns();
            if dues[i].t_ns > now {
                let wait = (dues[i].t_ns - now).min(2_000_000);
                std::thread::sleep(Duration::from_nanos(wait));
                continue;
            }
            if now >= next_mark {
                cpu_marks.push((cpu::process_s(), i));
                next_mark = now + CPU_WINDOW_NS;
            }
            let mut j = i;
            while j < dues.len() && dues[j].t_ns <= now && j - i < MAX_BATCH {
                j += 1;
            }
            let _span = tracer.span(
                "client.send",
                None,
                Some((ids[dues[i].session as usize], i as u64)),
            );
            let entries: Vec<PushEntry> = (i..j)
                .map(|q| {
                    let d = &dues[q];
                    let s = d.session as usize;
                    PushEntry {
                        session: ids[s],
                        seq: q as u64,
                        records: stream.samples[plan.sample_index(s, d.k, len)].clone(),
                    }
                })
                .collect();
            let frame = encode_msg(FrameKind::PushBatch, &PushBatchReq { entries });
            lag_ns.extend(dues[i..j].iter().map(|d| now - d.t_ns));
            if client.send_raw(&frame).is_err() {
                break;
            }
            sent.store(j, Ordering::Release);
            if cfg.keep_frames {
                push_frames.push(frame);
            }
            i = j;
        }
        done.store(true, Ordering::Release);
        let (replies, payloads) = reader.join().expect("reader thread panicked");
        (lag_ns, push_frames, replies, payloads, cpu_marks)
    });
    Ok(PhaseResult {
        dues,
        replies,
        lag_ns,
        push_frames,
        reply_payloads,
        aborted: abort.load(Ordering::Relaxed),
        cpu_marks,
    })
}
