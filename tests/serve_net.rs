//! Protocol conformance suite for the `mdes-serve` network daemon
//! (DESIGN.md §12).
//!
//! Pins the acceptance criteria of the serving-daemon change:
//!
//! - every frame kind round-trips over loopback, including the refusal
//!   paths (bad width, unknown session, garbage bytes → typed `ProtoErr`
//!   + connection close);
//! - a session wider than any push frame could carry is refused at open;
//! - scores served over the network are **bit-identical** to in-process
//!   `ServingEngine` scores (`f64::to_bits`, not approximate equality);
//! - a session idle past the TTL is evicted and later pushes answer
//!   `Gone`;
//! - a daemon left idle counts its pump's empty rounds
//!   (`serve.net.idle_rounds`);
//! - a snapshot uploaded through the admin plane hot-swaps mid-stream
//!   with the same windows-before/windows-after split as an in-process
//!   `publish`, bit-exactly;
//! - a snapshot that fails validation (other windowing, garbage, a pair
//!   model past the graph) is rejected and the live model keeps serving
//!   the original scores;
//! - with a publish landing while pushes are queued, every `Score` names
//!   the snapshot version that scored it, equals in-process scoring under
//!   that snapshot, and versions never decrease within a session;
//! - the admin plane answers `ping`/`stats`/`sessions`/`evict` in the
//!   documented `"| "`-data + status-line shape;
//! - a zero queue capacity, reply capacity or pump batch is refused at
//!   start instead of wedging the daemon;
//! - 256 sessions over 8 connections, pipelined 4 deep, see no `Busy`,
//!   `Gone` or `Error`, get exactly one reply per push, in push order per
//!   session, each bit-identical to in-process serving.

use mdes::core::serve::{GraphSnapshot, ServingEngine, StreamSession};
use mdes::core::{snapshot_to_bytes, FrozenPairModel, Mdes, MdesConfig, OnlineDetection};
use mdes::graph::ScoreRange;
use mdes::lang::{RawTrace, WindowConfig};
use mdes::net::{
    start, IngestClient, PushEntry, PushOutcome, ServeConfig, ServerHandle, WireDetection,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn square(name: &str, n: usize, phase: usize) -> RawTrace {
    RawTrace::new(
        name,
        (0..n)
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
}

fn traces() -> Vec<RawTrace> {
    vec![
        square("a", 710, 0),
        square("b", 710, 2),
        square("c", 710, 4),
    ]
}

fn base_config() -> MdesConfig {
    let mut cfg = MdesConfig {
        window: WindowConfig {
            word_len: 4,
            word_stride: 1,
            sent_len: 5,
            sent_stride: 5,
        },
        ..MdesConfig::default()
    };
    cfg.detection.valid_range = ScoreRange::closed(60.0, 100.0);
    cfg
}

fn fitted() -> (Mdes, Vec<RawTrace>) {
    let traces = traces();
    let m = Mdes::fit(&traces, 0..300, 300..450, base_config()).expect("fit");
    (m, traces)
}

/// The same phase-slip stream `tests/serving.rs` uses, so detections are
/// non-trivial.
fn slipped_sample(traces: &[RawTrace], t: usize) -> Vec<Option<String>> {
    traces
        .iter()
        .enumerate()
        .map(|(k, tr)| {
            Some(if k == 1 && t >= 520 {
                tr.events[t + 3].clone()
            } else {
                tr.events[t].clone()
            })
        })
        .collect()
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        admin_addr: Some("127.0.0.1:0".to_owned()),
        ..ServeConfig::default()
    }
}

fn serve_fitted(cfg: ServeConfig) -> (ServerHandle, Vec<RawTrace>) {
    let (m, traces) = fitted();
    let engine = ServingEngine::new(GraphSnapshot::freeze(&m));
    (start(engine, cfg).expect("start server"), traces)
}

/// Streams `range` through one network session, collecting detections.
/// Keeps at most `window` pushes outstanding (below the server's queue
/// capacity, so no `Busy` can occur and replies stay in push order).
fn stream_network(
    client: &mut IngestClient,
    session: u64,
    traces: &[RawTrace],
    range: std::ops::Range<usize>,
) -> Vec<OnlineDetection> {
    let window = 32usize;
    let ticks: Vec<usize> = range.collect();
    let mut out = Vec::new();
    for chunk in ticks.chunks(window) {
        let entries: Vec<PushEntry> = chunk
            .iter()
            .map(|&t| PushEntry {
                session,
                seq: t as u64,
                records: slipped_sample(traces, t),
            })
            .collect();
        let n = entries.len();
        client.send_push_batch(entries).expect("send batch");
        for reply in client.recv_push_replies(n).expect("recv replies") {
            assert_eq!(reply.session, session);
            match reply.outcome {
                PushOutcome::Ack => {}
                PushOutcome::Score(w) => out.push(OnlineDetection::from(w)),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }
    out
}

/// The in-process reference for the same stream.
fn stream_in_process(
    engine: &ServingEngine,
    session: &mut StreamSession,
    traces: &[RawTrace],
    range: std::ops::Range<usize>,
) -> Vec<OnlineDetection> {
    let mut out = Vec::new();
    for t in range {
        if let Some(d) = engine
            .push_opt(session, &slipped_sample(traces, t))
            .expect("push")
        {
            out.push(d);
        }
    }
    out
}

fn assert_bit_identical(net: &[OnlineDetection], local: &[OnlineDetection]) {
    assert_eq!(net.len(), local.len(), "emission grids must match");
    for (i, (n, l)) in net.iter().zip(local).enumerate() {
        assert_eq!(
            n.score.to_bits(),
            l.score.to_bits(),
            "window {i}: score must be bit-identical"
        );
        assert_eq!(
            n.coverage.to_bits(),
            l.coverage.to_bits(),
            "window {i}: coverage must be bit-identical"
        );
        assert_eq!(n.sample_index, l.sample_index, "window {i}");
        assert_eq!(n.alerts, l.alerts, "window {i}");
        assert_eq!(n.dropped_sensors, l.dropped_sensors, "window {i}");
    }
}

#[test]
fn every_frame_kind_round_trips_over_loopback() {
    let (server, _traces) = serve_fitted(test_config());
    let mut client = IngestClient::connect(server.addr()).expect("connect");

    // Ping / Pong.
    client.ping().expect("ping");

    // OpenSession / SessionOpened — accepted...
    let (session, warmup) = client.open_session(3).expect("open");
    assert!(session > 0);
    assert!(warmup > 0, "fresh session needs warmup samples");

    // ...and refused (width below the snapshot's minimum) without closing
    // the connection.
    let err = client.open_session(1).expect_err("bad width must refuse");
    assert!(
        matches!(err, mdes::net::ClientError::Refused(_)),
        "got {err:?}"
    );
    client.ping().expect("connection survives a refused open");

    // PushBatch / PushReply: Ack (warmup), then Gone for a bogus session.
    client
        .send_push_batch(vec![
            PushEntry {
                session,
                seq: 1,
                records: vec![Some("on".into()), Some("on".into()), Some("on".into())],
            },
            PushEntry {
                session: 0xdead,
                seq: 2,
                records: vec![Some("on".into()), Some("on".into()), Some("on".into())],
            },
        ])
        .expect("send");
    let mut replies = client.recv_push_replies(2).expect("replies");
    replies.sort_by_key(|r| r.seq);
    assert_eq!(replies[0].outcome, PushOutcome::Ack);
    assert_eq!(replies[1].outcome, PushOutcome::Gone);

    // Engine-level refusal: wrong sample width is an Error outcome, not a
    // dead connection.
    client
        .send_push_batch(vec![PushEntry {
            session,
            seq: 3,
            records: vec![Some("on".into())],
        }])
        .expect("send");
    let replies = client.recv_push_replies(1).expect("replies");
    assert!(
        matches!(replies[0].outcome, PushOutcome::Error { .. }),
        "got {:?}",
        replies[0].outcome
    );

    // CloseSession / SessionClosed, idempotent second close.
    assert!(client.close_session(session).expect("close"));
    assert!(!client.close_session(session).expect("close again"));

    // A push to the closed session answers Gone.
    client
        .send_push_batch(vec![PushEntry {
            session,
            seq: 4,
            records: vec![Some("on".into()), Some("on".into()), Some("on".into())],
        }])
        .expect("send");
    assert_eq!(
        client.recv_push_replies(1).expect("replies")[0].outcome,
        PushOutcome::Gone
    );

    // Garbage bytes → typed ProtoErr frame, then the server closes.
    let mut garbage = IngestClient::connect(server.addr()).expect("connect");
    garbage.send_raw(b"XXXXXXXXXXXXXXXXXXXXXXXX").expect("raw");
    let err = garbage
        .ping()
        .expect_err("garbage must kill the connection");
    match err {
        mdes::net::ClientError::Refused(detail) => {
            assert!(detail.starts_with("bad_magic"), "got {detail}");
        }
        other => panic!("expected typed refusal, got {other:?}"),
    }

    server.stop();
}

#[test]
fn a_width_no_push_frame_can_carry_is_refused_at_open() {
    let (server, _traces) = serve_fitted(test_config());
    let mut client = IngestClient::connect(server.addr()).expect("connect");
    // One record takes at least its 4-byte length in a PushBatch payload.
    // 2^40 sensors would also be far more than a session could buffer.
    let widest = test_config().max_payload / 4;
    for width in [widest + 1, 1 << 40] {
        let err = client.open_session(width).expect_err("must refuse");
        assert!(
            matches!(&err, mdes::net::ClientError::Refused(d) if d.contains("PushBatch frame")),
            "width {width}: got {err:?}"
        );
    }
    client.ping().expect("connection survives a refused open");
    assert_eq!(server.session_count(), 0);
    server.stop();
}

#[test]
fn network_scores_are_bit_identical_to_in_process() {
    let (m, traces) = fitted();
    let snapshot = GraphSnapshot::freeze(&m);

    // In-process reference.
    let reference_engine = ServingEngine::new(snapshot.clone());
    let mut reference_session = reference_engine.open_session(3).expect("session");
    let reference = stream_in_process(&reference_engine, &mut reference_session, &traces, 450..700);
    assert!(
        !reference.is_empty(),
        "fixture must emit detections for the comparison to mean anything"
    );

    // Network run over the same snapshot.
    let server = start(ServingEngine::new(snapshot), test_config()).expect("start");
    let mut client = IngestClient::connect(server.addr()).expect("connect");
    let (session, _) = client.open_session(3).expect("open");
    let served = stream_network(&mut client, session, &traces, 450..700);

    assert_bit_identical(&served, &reference);
    server.stop();
}

/// `start` must refuse a config that `tweak` leaves with a zero capacity.
fn assert_refused_at_start(tweak: impl FnOnce(&mut ServeConfig)) {
    let (m, _) = fitted();
    let mut cfg = test_config();
    tweak(&mut cfg);
    let err = start(ServingEngine::new(GraphSnapshot::freeze(&m)), cfg)
        .err()
        .expect("a zero capacity is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
}

#[test]
fn zero_queue_capacity_is_refused_at_start() {
    // Every push would answer `Busy`.
    assert_refused_at_start(|c| c.queue_capacity = 0);
}

#[test]
fn zero_outbound_capacity_is_refused_at_start() {
    // No reply could ever be queued.
    assert_refused_at_start(|c| c.outbound_capacity = 0);
}

#[test]
fn zero_pump_batch_is_refused_at_start() {
    // The pump would never claim a sample.
    assert_refused_at_start(|c| c.pump_batch = 0);
}

/// Every pump round that finds nothing to score is counted, so the cost of
/// the pump's timed wait shows through `obs`. Other tests of this binary
/// may record into the same recorder meanwhile; the counter only grows.
#[test]
fn an_idle_daemon_counts_its_pump_idle_rounds() {
    let recorder = Arc::new(mdes::obs::Recorder::new());
    mdes::obs::install(Arc::clone(&recorder));
    let (server, _traces) = serve_fitted(test_config());
    std::thread::sleep(Duration::from_millis(100));
    let idle = recorder.counter_value("serve.net.idle_rounds");
    server.stop();
    mdes::obs::uninstall();
    assert!(idle >= 1, "an idle daemon recorded {idle} idle pump rounds");
}

#[test]
fn idle_sessions_are_evicted_after_the_ttl() {
    let cfg = ServeConfig {
        idle_ttl: Duration::from_millis(400),
        ..test_config()
    };
    let (server, _traces) = serve_fitted(cfg);
    let mut client = IngestClient::connect(server.addr()).expect("connect");
    let (session, _) = client.open_session(3).expect("open");
    assert_eq!(server.session_count(), 1);

    // Survives while active: keep touching it for a while.
    for i in 0..4 {
        client
            .send_push_batch(vec![PushEntry {
                session,
                seq: i,
                records: vec![Some("on".into()), Some("on".into()), Some("on".into())],
            }])
            .expect("send");
        assert_eq!(
            client.recv_push_replies(1).expect("reply")[0].outcome,
            PushOutcome::Ack
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(server.session_count(), 1, "active session must survive");

    // Goes idle → reaped.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.session_count() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "idle session was never evicted"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // A push to the evicted session answers Gone.
    client
        .send_push_batch(vec![PushEntry {
            session,
            seq: 99,
            records: vec![Some("on".into()), Some("on".into()), Some("on".into())],
        }])
        .expect("send");
    assert_eq!(
        client.recv_push_replies(1).expect("reply")[0].outcome,
        PushOutcome::Gone
    );
    server.stop();
}

/// Two compatible-but-different snapshots (same construction as
/// `tests/serving.rs`): B is trained on the slipped phase relationship, so
/// the two disagree on post-slip windows of the replayed stream.
fn snapshot_pair() -> (GraphSnapshot, GraphSnapshot, Vec<RawTrace>) {
    let (m_a, traces) = fitted();
    let traces_b = vec![
        square("a", 710, 0),
        square("b", 710, 5),
        square("c", 710, 4),
    ];
    let m_b = Mdes::fit(&traces_b, 0..300, 300..450, base_config()).expect("fit B");
    (
        GraphSnapshot::freeze(&m_a),
        GraphSnapshot::freeze(&m_b),
        traces,
    )
}

#[test]
fn admin_publish_hot_swaps_mid_stream_bit_exactly() {
    let (snap_a, snap_b, traces) = snapshot_pair();
    let swap_at = 553;

    // In-process mirror: publish between the same two pushes.
    let mirror = ServingEngine::new(snap_a.clone());
    let mut mirror_session = mirror.open_session(3).expect("session");
    let mut reference = stream_in_process(&mirror, &mut mirror_session, &traces, 450..swap_at);
    mirror.store().publish(snap_b.clone()).expect("publish");
    reference.extend(stream_in_process(
        &mirror,
        &mut mirror_session,
        &traces,
        swap_at..700,
    ));

    // Network run: quiesce (all replies drained), upload B, continue.
    let server = start(ServingEngine::new(snap_a), test_config()).expect("start");
    let mut client = IngestClient::connect(server.addr()).expect("connect");
    let mut admin =
        mdes::net::AdminClient::connect(server.admin_addr().expect("admin plane")).expect("admin");
    let (session, _) = client.open_session(3).expect("open");
    let mut served = stream_network(&mut client, session, &traces, 450..swap_at);

    let bytes = snapshot_to_bytes(&snap_b).expect("serialize");
    let (_, status) = admin.publish(&bytes).expect("publish cmd");
    assert_eq!(status, "ok published version=2", "got {status:?}");

    served.extend(stream_network(&mut client, session, &traces, swap_at..700));
    assert_bit_identical(&served, &reference);
    server.stop();
}

#[test]
fn score_replies_name_the_snapshot_that_scored_them_across_a_publish() {
    const OFFSETS: [usize; 3] = [0, 3, 7];
    const TICKS: usize = 240;
    let (snap_a, snap_b, traces) = snapshot_pair();
    let sample = |off: usize, t: usize| slipped_sample(&traces, 450 + off + t);

    // In-process references: each session's stream under A alone and
    // under B alone, one entry per tick. Versions 1 and 2 name them.
    let reference = |snap: &GraphSnapshot, off: usize| -> Vec<Option<OnlineDetection>> {
        let engine = ServingEngine::new(snap.clone());
        let mut session = engine.open_session(3).expect("session");
        (0..TICKS)
            .map(|t| {
                engine
                    .push_opt(&mut session, &sample(off, t))
                    .expect("push")
            })
            .collect()
    };
    let by_version = |version: u64, off: usize| match version {
        1 => reference(&snap_a, off),
        2 => reference(&snap_b, off),
        v => panic!("no snapshot has version {v}"),
    };
    let refs: HashMap<(u64, usize), Vec<Option<OnlineDetection>>> = [1, 2]
        .iter()
        .flat_map(|&v| OFFSETS.map(|off| ((v, off), by_version(v, off))))
        .collect();

    let server = start(ServingEngine::new(snap_a.clone()), test_config()).expect("start");
    let mut client = IngestClient::connect(server.addr()).expect("connect");
    let mut admin =
        mdes::net::AdminClient::connect(server.admin_addr().expect("admin plane")).expect("admin");
    let sessions: Vec<(u64, usize)> = OFFSETS
        .iter()
        .map(|&off| (client.open_session(3).expect("open").0, off))
        .collect();
    let send = |client: &mut IngestClient, ticks: std::ops::Range<usize>| {
        for t in ticks {
            let entries = sessions
                .iter()
                .map(|&(session, off)| PushEntry {
                    session,
                    seq: t as u64,
                    records: sample(off, t),
                })
                .collect();
            client.send_push_batch(entries).expect("send batch");
        }
    };
    let mut replies = Vec::new();
    let mut recv = |client: &mut IngestClient, ticks: usize| {
        replies.extend(
            client
                .recv_push_replies(ticks * OFFSETS.len())
                .expect("recv replies"),
        );
    };
    // In chunks of 30 ticks, below the ingest queue's capacity: 90 ticks
    // under A, then one chunk still queued when B is published, then the
    // rest.
    let publish_at = 90;
    for start in (0..TICKS).step_by(30) {
        let end = (start + 30).min(TICKS);
        send(&mut client, start..end);
        if start == publish_at {
            let bytes = snapshot_to_bytes(&snap_b).expect("serialize");
            let (_, status) = admin.publish(&bytes).expect("publish cmd");
            assert_eq!(status, "ok published version=2", "got {status:?}");
        }
        recv(&mut client, end - start);
    }
    server.stop();

    let offset_of: HashMap<u64, usize> = sessions.iter().copied().collect();
    let mut last_version: HashMap<u64, u64> = HashMap::new();
    let mut seen_versions = [0usize; 3];
    let mut b_differs_from_a = false;
    for r in &replies {
        let PushOutcome::Score(w) = &r.outcome else {
            assert_eq!(r.outcome, PushOutcome::Ack, "seq {}", r.seq);
            continue;
        };
        let off = offset_of[&r.session];
        let v = w.snapshot_version;
        let last = last_version.entry(r.session).or_insert(v);
        assert!(
            v >= *last,
            "session {}: version {v} after {last}",
            r.session
        );
        *last = v;
        seen_versions[v as usize] += 1;
        let got = OnlineDetection::from(w.clone());
        let want = refs[&(v, off)][r.seq as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("seq {}: no window completes in process", r.seq));
        assert_bit_identical(std::slice::from_ref(&got), std::slice::from_ref(want));
        if v == 2 {
            let a = refs[&(1, off)][r.seq as usize].as_ref().expect("same grid");
            b_differs_from_a |= a.score.to_bits() != got.score.to_bits();
        }
    }
    assert_eq!(replies.len(), TICKS * OFFSETS.len());
    assert!(
        seen_versions[1] > 0 && seen_versions[2] > 0,
        "{seen_versions:?}"
    );
    assert!(
        b_differs_from_a,
        "some version-2 score must differ from A's, or the version check shows nothing"
    );
}

#[test]
fn rejected_publish_never_goes_live() {
    let (m, traces) = fitted();
    let snap = GraphSnapshot::freeze(&m);

    // Reference: the original snapshot all the way through.
    let reference_engine = ServingEngine::new(snap.clone());
    let mut reference_session = reference_engine.open_session(3).expect("session");
    let reference = stream_in_process(&reference_engine, &mut reference_session, &traces, 450..700);

    let server = start(ServingEngine::new(snap), test_config()).expect("start");
    let mut client = IngestClient::connect(server.addr()).expect("connect");
    let mut admin =
        mdes::net::AdminClient::connect(server.admin_addr().expect("admin plane")).expect("admin");
    let (session, _) = client.open_session(3).expect("open");
    let mut served = stream_network(&mut client, session, &traces, 450..570);

    // An artifact with different windowing must be refused...
    let mut cfg = base_config();
    cfg.window.sent_len = 6;
    let other = Mdes::fit(&traces, 0..300, 300..450, cfg).expect("fit other");
    let bytes = snapshot_to_bytes(&GraphSnapshot::freeze(&other)).expect("serialize");
    let (_, status) = admin.publish(&bytes).expect("publish cmd");
    assert!(status.starts_with("err publish rejected"), "got {status:?}");

    // ...as must outright garbage...
    let (_, status) = admin.publish(b"not a snapshot").expect("publish cmd");
    assert!(status.starts_with("err publish rejected"), "got {status:?}");

    // ...and a valid model whose target lies past the graph, which would
    // index Algorithm 2's reference sentences out of bounds on the pump...
    let mut models = reference_engine.store().current().models().to_vec();
    let &k = reference_engine
        .store()
        .current()
        .valid_models()
        .first()
        .expect("a valid model");
    let m = &models[k];
    models[k] = FrozenPairModel::new(m.src, 7, m.train_score, m.dev_floor, m.translator().clone());
    let past = GraphSnapshot::from_frozen_parts(
        reference_engine.store().current().graph().clone(),
        reference_engine.store().current().language().clone(),
        reference_engine.store().current().detection().clone(),
        models,
    );
    let bytes = snapshot_to_bytes(&past).expect("serialize");
    let (_, status) = admin.publish(&bytes).expect("publish cmd");
    assert!(status.starts_with("err publish rejected"), "got {status:?}");

    // ...and none may disturb the live model or bump the version.
    let (data, status) = admin.cmd("stats").expect("stats");
    assert_eq!(status, "ok");
    assert!(
        data[0].contains("snapshot_version=1"),
        "version must not advance: {data:?}"
    );
    served.extend(stream_network(&mut client, session, &traces, 570..700));
    assert_bit_identical(&served, &reference);
    server.stop();
}

#[test]
fn admin_plane_speaks_the_documented_shape() {
    let (server, _traces) = serve_fitted(test_config());
    let mut admin =
        mdes::net::AdminClient::connect(server.admin_addr().expect("admin plane")).expect("admin");

    let (data, status) = admin.cmd("ping").expect("ping");
    assert!(data.is_empty());
    assert_eq!(status, "ok pong");

    let (_, status) = admin.cmd("bogus-command").expect("bogus");
    assert!(status.starts_with("err unknown command"));

    let (data, status) = admin.cmd("sessions").expect("sessions");
    assert!(data.is_empty());
    assert_eq!(status, "ok 0 sessions");

    let mut client = IngestClient::connect(server.addr()).expect("connect");
    let (session, _) = client.open_session(3).expect("open");
    let (data, status) = admin.cmd("sessions").expect("sessions");
    assert_eq!(status, "ok 1 sessions");
    assert!(
        data[0].contains(&format!("id={session}")) && data[0].contains("width=3"),
        "got {data:?}"
    );

    let (data, status) = admin.cmd("stats").expect("stats");
    assert_eq!(status, "ok");
    assert!(data[0].contains("sessions=1"), "got {data:?}");
    // The active artifact's identity: weight encoding, footprint, and the
    // number of frozen pair models (3 sensors -> 6 ordered pairs).
    assert!(data[0].contains("snapshot_format=f32"), "got {data:?}");
    assert!(data[0].contains("pair_models=6"), "got {data:?}");
    let bytes: usize = data[0]
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("snapshot_bytes="))
        .expect("snapshot_bytes field")
        .parse()
        .expect("numeric byte count");
    assert!(bytes > 0, "got {data:?}");
    // The translation memo's footprint sits next to the weights; this
    // n-gram snapshot decodes without one.
    assert!(data[0].contains(" memo_bytes=0 "), "got {data:?}");

    // Forced eviction through the admin plane.
    let (_, status) = admin.cmd(&format!("evict {session}")).expect("evict");
    assert_eq!(status, format!("ok evicted {session}"));
    let (_, status) = admin.cmd(&format!("evict {session}")).expect("re-evict");
    assert!(status.starts_with("err unknown session"));
    assert_eq!(server.session_count(), 0);

    // The wire detection helper visible to clients is lossless both ways.
    let d = OnlineDetection {
        sample_index: 3,
        score: 0.1 + 0.2,
        coverage: 2.0 / 3.0,
        alerts: vec![(0, 1)],
        dropped_sensors: vec![],
    };
    let w = WireDetection::new(d.clone(), 1);
    assert_eq!(OnlineDetection::from(w), d);

    server.stop();
}

#[test]
fn quantized_snapshot_round_trips_through_network_publish() {
    use mdes::core::serve::QuantPolicy;
    use mdes::core::{QuantMode, TranslatorConfig};

    // A two-sensor plant trained with the paper's neural family — the
    // statistical default carries no weights to quantize. The detection
    // margin keeps quantization noise from flipping broken decisions on
    // this tiny plant.
    let traces = vec![square("a", 710, 0), square("b", 710, 2)];
    let mut cfg = base_config();
    cfg.build.translator = TranslatorConfig::neural();
    cfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);
    cfg.detection.margin = 5.0;
    let m = Mdes::fit(&traces, 0..300, 300..450, cfg).expect("fit");
    let snap = GraphSnapshot::freeze(&m);
    let sets = m
        .language()
        .encode_segment(&traces, 450..700)
        .expect("encode");
    let q = snap
        .quantize_calibrated(QuantMode::Int8, &QuantPolicy::default(), &sets)
        .expect("quantize");
    let score_bound = q.quant().expect("calibration record").score_bound;
    let q_bytes = snapshot_to_bytes(&q).expect("serialize");

    // In-process references: the f32 artifact all the way through, and the
    // same mid-stream hot-swap the network path will perform.
    let f32_engine = ServingEngine::new(snap.clone());
    let mut f32_session = f32_engine.open_session(2).expect("session");
    let f32_all = stream_in_process(&f32_engine, &mut f32_session, &traces, 450..700);

    let swap_engine = ServingEngine::new(snap.clone());
    let mut swap_session = swap_engine.open_session(2).expect("session");
    let mut reference = stream_in_process(&swap_engine, &mut swap_session, &traces, 450..570);
    swap_engine
        .store()
        .publish(q.clone())
        .expect("in-process publish");
    reference.extend(stream_in_process(
        &swap_engine,
        &mut swap_session,
        &traces,
        570..700,
    ));

    // The network path: stream, upload the quantized artifact through the
    // admin plane, keep streaming against the swapped-in weights.
    let server = start(ServingEngine::new(snap), test_config()).expect("start");
    let mut client = IngestClient::connect(server.addr()).expect("connect");
    let mut admin =
        mdes::net::AdminClient::connect(server.admin_addr().expect("admin plane")).expect("admin");
    let (session, _) = client.open_session(2).expect("open");
    let mut served = stream_network(&mut client, session, &traces, 450..570);
    let (_, status) = admin.publish(&q_bytes).expect("publish cmd");
    assert!(status.starts_with("ok published"), "got {status:?}");
    let (data, status) = admin.cmd("stats").expect("stats");
    assert_eq!(status, "ok");
    assert!(data[0].contains("snapshot_format=int8"), "got {data:?}");
    assert!(data[0].contains("pair_models=2"), "got {data:?}");
    served.extend(stream_network(&mut client, session, &traces, 570..700));

    // Bit-identical to the in-process hot-swap, and every post-swap window
    // stays within the artifact's own declared score-drift bound of the
    // f32 reference.
    assert_bit_identical(&served, &reference);
    assert_eq!(served.len(), f32_all.len());
    for (s, f) in served.iter().zip(&f32_all) {
        assert!(
            (s.score - f.score).abs() <= score_bound,
            "window {}: quantized score {} drifted past {score_bound} from f32 {}",
            s.sample_index,
            s.score,
            f.score
        );
    }
    server.stop();
}

#[test]
fn admin_canary_rolls_back_then_promotes_over_the_network() {
    let (snap_a, snap_b, traces) = snapshot_pair();

    // Reference: the incumbent serving alone, no canary anywhere.
    let reference_engine = ServingEngine::new(snap_a.clone());
    let mut reference_session = reference_engine.open_session(3).expect("session");
    let reference = stream_in_process(&reference_engine, &mut reference_session, &traces, 450..700);

    let server = start(ServingEngine::new(snap_a.clone()), test_config()).expect("start");
    let mut client = IngestClient::connect(server.addr()).expect("connect");
    let mut admin =
        mdes::net::AdminClient::connect(server.admin_addr().expect("admin plane")).expect("admin");
    let (session, _) = client.open_session(3).expect("open");

    // An idle daemon reports the canary machinery disarmed.
    let (data, status) = admin.cmd("stats").expect("stats");
    assert_eq!(status, "ok");
    assert!(data[0].contains("canary_active=false"), "got {data:?}");
    assert!(data[0].contains("canary_last=none"), "got {data:?}");
    let (_, status) = admin.cmd("canary cancel").expect("cancel");
    assert!(status.starts_with("err no canary active"), "got {status:?}");
    let (_, status) = admin.cmd("canary bogus").expect("bogus sub");
    assert!(status.starts_with("err canary needs"), "got {status:?}");

    // Round 1: canary the mistrained snapshot B. It scores the replay far
    // higher than the incumbent, so the budget must end in rollback.
    let bytes_b = snapshot_to_bytes(&snap_b).expect("serialize B");
    let (_, status) = admin
        .canary_start(&bytes_b, Some(1.0), Some(4))
        .expect("canary start");
    assert_eq!(
        status, "ok canary started fraction=1 budget=4",
        "got {status:?}"
    );
    let (data, status) = admin.cmd("canary status").expect("status");
    assert_eq!(status, "ok");
    assert!(data[0].contains("active=true"), "got {data:?}");
    // A second candidate and a plain publish are both refused while it runs.
    let (_, status) = admin
        .canary_start(&bytes_b, Some(1.0), Some(4))
        .expect("second canary");
    assert!(status.starts_with("err canary rejected"), "got {status:?}");
    let (_, status) = admin.publish(&bytes_b).expect("publish during canary");
    assert!(status.starts_with("err publish rejected"), "got {status:?}");

    let mut served = stream_network(&mut client, session, &traces, 450..570);
    let (data, status) = admin.cmd("canary status").expect("status");
    assert_eq!(status, "ok");
    assert!(data[0].contains("active=false"), "got {data:?}");
    assert!(
        data.iter().any(|l| l.contains("last=rolled_back")),
        "got {data:?}"
    );
    let (data, status) = admin.cmd("stats").expect("stats");
    assert_eq!(status, "ok");
    assert!(data[0].contains("snapshot_version=1"), "got {data:?}");
    assert!(data[0].contains("canary_last=rolled_back"), "got {data:?}");

    // Round 2: canary a candidate identical to the incumbent — zero deltas,
    // promoted, version bumps.
    let bytes_a = snapshot_to_bytes(&snap_a).expect("serialize A");
    let (_, status) = admin
        .canary_start(&bytes_a, Some(1.0), Some(4))
        .expect("canary start");
    assert!(status.starts_with("ok canary started"), "got {status:?}");
    served.extend(stream_network(&mut client, session, &traces, 570..700));
    let (data, status) = admin.cmd("stats").expect("stats");
    assert_eq!(status, "ok");
    assert!(data[0].contains("snapshot_version=2"), "got {data:?}");
    assert!(data[0].contains("canary_last=promoted"), "got {data:?}");
    let (data, status) = admin.cmd("canary status").expect("status");
    assert_eq!(status, "ok");
    assert!(
        data.iter()
            .any(|l| l.contains("last=promoted") && l.contains("mean_delta=0.0000")),
        "got {data:?}"
    );

    // Through the bad rollback AND the identical-candidate promotion, the
    // emitted stream never left the incumbent's bit pattern.
    assert_bit_identical(&served, &reference);
    server.stop();
}

/// Streams `ticks` samples into each of `per_conn` sessions over one
/// connection, `depth` batches in flight. Session `k` starts `offset(k)`
/// samples into the test span. Returns each session's replies in arrival
/// order.
fn stream_pipelined(
    server: &ServerHandle,
    traces: &[RawTrace],
    per_conn: usize,
    ticks: u64,
    depth: u64,
    offset: impl Fn(usize) -> usize,
) -> Vec<(u64, usize, Vec<mdes::net::PushReply>)> {
    let mut client = IngestClient::connect_with_deadline(server.addr(), Duration::from_secs(120))
        .expect("connect");
    let sessions: Vec<(u64, usize)> = (0..per_conn)
        .map(|k| (client.open_session(3).expect("open").0, offset(k)))
        .collect();
    let mut replies: HashMap<u64, Vec<mdes::net::PushReply>> = HashMap::new();
    let mut absorb = |client: &mut IngestClient, n: usize| {
        for r in client.recv_push_replies(n).expect("recv replies") {
            replies.entry(r.session).or_default().push(r);
        }
    };
    for t in 0..ticks {
        let entries = sessions
            .iter()
            .map(|&(session, off)| PushEntry {
                session,
                seq: t,
                records: slipped_sample(traces, 450 + off + t as usize),
            })
            .collect();
        client.send_push_batch(entries).expect("send batch");
        if t + 1 >= depth {
            absorb(&mut client, per_conn);
        }
    }
    absorb(&mut client, (ticks.min(depth - 1) as usize) * per_conn);
    sessions
        .into_iter()
        .map(|(session, off)| (session, off, replies.remove(&session).unwrap_or_default()))
        .collect()
}

#[test]
fn many_pipelined_sessions_get_one_ordered_bit_exact_reply_per_push() {
    const CONNS: usize = 8;
    const PER_CONN: usize = 32;
    const TICKS: u64 = 40;
    const DEPTH: u64 = 4;
    // Staggered starts, so windows complete in different pump rounds and
    // one round carries Acks and Scores for many sessions of a connection.
    let offset = |k: usize| (k % 16) * 7;
    let (m, traces) = fitted();
    let snapshot = GraphSnapshot::freeze(&m);

    // In-process reference, one per distinct start offset.
    let engine = ServingEngine::new(snapshot.clone());
    let reference: HashMap<usize, Vec<Option<OnlineDetection>>> = (0..16)
        .map(|k| {
            let off = offset(k);
            let mut session = engine.open_session(3).expect("session");
            let out = (0..TICKS as usize)
                .map(|t| {
                    engine
                        .push_opt(&mut session, &slipped_sample(&traces, 450 + off + t))
                        .expect("push")
                })
                .collect();
            (off, out)
        })
        .collect();
    assert!(
        reference.values().flatten().any(Option::is_some),
        "fixture must emit detections for the comparison to mean anything"
    );

    let server = start(
        ServingEngine::new(snapshot),
        ServeConfig {
            max_conns: CONNS + 4,
            ..test_config()
        },
    )
    .expect("start");
    let per_session: Vec<(u64, usize, Vec<mdes::net::PushReply>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|_| {
                let (server, traces) = (&server, &traces);
                scope
                    .spawn(move || stream_pipelined(server, traces, PER_CONN, TICKS, DEPTH, offset))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread"))
            .collect()
    });
    assert_eq!(per_session.len(), CONNS * PER_CONN);

    let mut scores = 0;
    for (session, off, replies) in &per_session {
        // Exactly one reply per push, and in push order.
        let seqs: Vec<u64> = replies.iter().map(|r| r.seq).collect();
        assert_eq!(
            seqs,
            (0..TICKS).collect::<Vec<_>>(),
            "session {session}: replies must be one per seq, in seq order"
        );
        for (r, want) in replies.iter().zip(&reference[off]) {
            match (&r.outcome, want) {
                (PushOutcome::Ack, None) => {}
                (PushOutcome::Score(w), Some(d)) => {
                    scores += 1;
                    assert_bit_identical(
                        &[OnlineDetection::from(w.clone())],
                        std::slice::from_ref(d),
                    );
                }
                (got, want) => panic!(
                    "session {session} seq {}: got {got:?}, in process {want:?}",
                    r.seq
                ),
            }
        }
    }
    assert!(scores > 0, "ticks must reach past warmup");
    server.stop();
}
