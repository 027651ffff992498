//! Chaos tests: the fitted pipeline must *degrade*, never crash, when its
//! input channels fail.
//!
//! A clean model is fitted once; held-out samples are then replayed through
//! the streaming monitor under every [`FaultKind`] the injector supports.
//! Garbling modes (stuck-at, corruption, burst noise) must raise the anomaly
//! score on the injected windows relative to the clean replay of the same
//! windows; dropout must shrink coverage and name the dropped sensor while
//! detections keep flowing; and no failure mode may panic or return a hard
//! error. The batch path and the `Degrade` training policy get the same
//! treatment.
//!
//! Two fixtures are used. Score-rise assertions run on tightly-coupled
//! square waves, whose calibrated floors sit near 100 BLEU so any garbling
//! of one sensor visibly breaks its pairs. Degradation and policy
//! assertions run on the synthetic plant, whose weakly-coupled sensors are
//! the harsher robustness environment (many pairs calibrate to a zero
//! floor and contribute no evidence either way).

use mdes::core::{BrokenRule, FailurePolicy, Mdes, MdesConfig, OnlineDetection};
use mdes::graph::ScoreRange;
use mdes::lang::{RawTrace, WindowConfig, MISSING_RECORD};
use mdes::synth::faults::FaultInjector;
use mdes::synth::plant::{generate, PlantConfig, PlantData};
use std::ops::Range;

/// Test segment: days 6..=7 of the simulated plant.
const TEST_FROM: usize = 6;
const TEST_TO: usize = 7;
/// Fault window, in samples relative to the start of the test segment.
const FAULT_START: usize = 200;
const FAULT_END: usize = 400;

fn plant_config() -> MdesConfig {
    let mut cfg = MdesConfig {
        window: WindowConfig {
            word_len: 5,
            word_stride: 1,
            sent_len: 6,
            sent_stride: 6,
        },
        ..MdesConfig::default()
    };
    cfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);
    // Score against each pair's calibrated dev-quantile floor (instead of
    // the corpus mean, under which half of all normal windows count as
    // broken) so the clean replay stays quiet and a rise is attributable to
    // the injected fault.
    cfg.detection.rule = BrokenRule::DevQuantileFloor;
    cfg
}

/// Fits a clean 6-sensor plant on days 1..=3 (dev 4..=5).
fn fit_clean_plant(cfg: MdesConfig) -> (Mdes, PlantData) {
    let plant = generate(&PlantConfig {
        n_sensors: 6,
        days: 7,
        minutes_per_day: 288,
        n_components: 2,
        anomaly_days: vec![],
        precursor_days: vec![],
        ..PlantConfig::default()
    });
    let m = Mdes::fit(
        &plant.traces,
        plant.days_range(1, 3),
        plant.days_range(4, 5),
        cfg,
    )
    .expect("clean fit");
    (m, plant)
}

/// Fits four tightly-coupled square-wave sensors: every pair translates
/// near-perfectly, so the calibrated floors are high and any garbling of one
/// sensor visibly breaks its pairs.
fn fit_clean_squares() -> (Mdes, Vec<RawTrace>) {
    let square = |name: &str, phase: usize| {
        RawTrace::new(
            name,
            (0..900)
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
    let traces = vec![
        square("a", 0),
        square("b", 2),
        square("c", 4),
        square("d", 6),
    ];
    let mut cfg = MdesConfig {
        window: WindowConfig {
            word_len: 4,
            word_stride: 1,
            sent_len: 5,
            sent_stride: 5,
        },
        ..MdesConfig::default()
    };
    cfg.detection.valid_range = ScoreRange::closed(0.0, 100.0);
    cfg.detection.rule = BrokenRule::DevQuantileFloor;
    let m = Mdes::fit(&traces, 0..300, 300..450, cfg).expect("square fit");
    (m, traces)
}

/// Streams `range` of `traces` through a fresh monitor, translating the
/// injector's [`MISSING_RECORD`] sentinel into a `None` record (exactly what
/// a collector that noticed the gap would push). Every push must succeed;
/// the emitted detections come back indexed relative to the start of the
/// stream.
fn stream(m: &Mdes, traces: &[RawTrace], range: Range<usize>) -> Vec<OnlineDetection> {
    let width = traces.len();
    let mut monitor = m
        .clone()
        .try_into_online_monitor(width)
        .expect("width covers the model");
    let mut out = Vec::new();
    for t in range {
        let sample: Vec<Option<String>> = traces
            .iter()
            .map(|tr| {
                let rec = tr.events[t].clone();
                (rec != MISSING_RECORD).then_some(rec)
            })
            .collect();
        if let Some(d) = monitor.push_opt(&sample).expect("chaos must not hard-fail") {
            assert!(d.score.is_finite(), "score must stay finite");
            assert!(
                (0.0..=1.0).contains(&d.score),
                "score in [0,1]: {}",
                d.score
            );
            assert!((0.0..=1.0).contains(&d.coverage));
            out.push(d);
        }
    }
    assert!(!out.is_empty(), "detections must keep flowing");
    out
}

/// Mean score of detections completing inside the fault window (with slack
/// for the sentence buffer to fill with faulted samples).
fn fault_window_mean(detections: &[OnlineDetection]) -> f64 {
    let inside: Vec<f64> = detections
        .iter()
        .filter(|d| (FAULT_START + 40..FAULT_END).contains(&d.sample_index))
        .map(|d| d.score)
        .collect();
    assert!(!inside.is_empty(), "fault window must contain detections");
    inside.iter().sum::<f64>() / inside.len() as f64
}

#[test]
fn garbling_faults_raise_scores_on_injected_windows() {
    let (m, traces) = fit_clean_squares();
    let target = 1;
    let range = 450..900;
    let abs = |rel: usize| range.start + rel;
    let clean_mean = fault_window_mean(&stream(&m, &traces, range.clone()));

    let modes: Vec<(&str, FaultInjector)> = vec![
        (
            "stuck-at",
            FaultInjector::new(11).stuck_at(target, abs(FAULT_START), abs(FAULT_END)),
        ),
        (
            "corrupt",
            FaultInjector::new(12).corrupt(target, abs(FAULT_START), abs(FAULT_END), 0.8),
        ),
        (
            "burst-noise",
            FaultInjector::new(13).burst_noise(target, abs(FAULT_START), abs(FAULT_END)),
        ),
    ];
    for (name, injector) in modes {
        let faulty = injector.apply(&traces);
        let detections = stream(&m, &faulty, range.clone());
        let faulty_mean = fault_window_mean(&detections);
        assert!(
            faulty_mean > clean_mean + 0.1,
            "{name}: injected windows must score well above clean \
             ({faulty_mean:.3} vs {clean_mean:.3})"
        );
        // Garbled records are evidence, not missing evidence: no sensor is
        // dropped and every valid pair still votes.
        for d in &detections {
            assert!(d.dropped_sensors.is_empty(), "{name} must not drop sensors");
            assert_eq!(d.coverage, 1.0);
        }
    }
}

#[test]
fn dropout_shrinks_coverage_and_names_the_dead_sensor() {
    let (m, plant) = fit_clean_plant(plant_config());
    let target = plant
        .representative_periodic()
        .expect("plant has a periodic sensor");
    let test = plant.days_range(TEST_FROM, TEST_TO);
    let faulty = FaultInjector::new(21)
        .dropout(target, test.start + FAULT_START, test.start + FAULT_END)
        .apply(&plant.traces);
    let detections = stream(&m, &faulty, test);

    let during: Vec<&OnlineDetection> = detections
        .iter()
        .filter(|d| (FAULT_START + 10..FAULT_END).contains(&d.sample_index))
        .collect();
    assert!(!during.is_empty(), "detections keep flowing during dropout");
    for d in &during {
        assert!(
            d.coverage < 1.0,
            "dropout must reduce coverage, got {}",
            d.coverage
        );
        assert_eq!(d.dropped_sensors, vec![target]);
    }

    let after: Vec<&OnlineDetection> = detections
        .iter()
        .filter(|d| d.sample_index >= FAULT_END + 10)
        .collect();
    assert!(!after.is_empty(), "stream continues after recovery");
    for d in &after {
        assert_eq!(d.coverage, 1.0, "recovery must restore full coverage");
        assert!(d.dropped_sensors.is_empty());
    }
}

#[test]
fn batch_detection_survives_injected_test_data() {
    let (m, plant) = fit_clean_plant(plant_config());
    let target = plant
        .representative_periodic()
        .expect("plant has a periodic sensor");
    let test = plant.days_range(TEST_FROM, TEST_TO);

    let clean = m.detect_range(&plant.traces, test.clone()).expect("clean");
    let faulty_traces = FaultInjector::new(31)
        .burst_noise(target, test.start + FAULT_START, test.start + FAULT_END)
        .apply(&plant.traces);
    let faulty = m
        .detect_range(&faulty_traces, test)
        .expect("batch detection absorbs garbled records");

    assert_eq!(faulty.scores.len(), clean.scores.len());
    assert!(faulty.scores.iter().all(|s| (0.0..=1.0).contains(s)));
    let mean = |scores: &[f64]| scores.iter().sum::<f64>() / scores.len() as f64;
    assert!(
        mean(&faulty.scores) > mean(&clean.scores),
        "burst noise must raise the mean batch score"
    );
}

#[test]
fn degrade_policy_fit_tolerates_a_poisoned_pair_end_to_end() {
    let mut cfg = plant_config();
    cfg.build.policy = FailurePolicy::Degrade {
        min_success_fraction: 0.5,
    };
    // Poison one worker via the chaos hook: the sweep must quarantine that
    // edge and still assemble the rest of the graph.
    cfg.build.chaos_fail_pairs = vec![(0, 1)];
    let (m, plant) = fit_clean_plant(cfg);

    assert_eq!(m.trained().quarantined().len(), 1);
    let q = &m.trained().quarantined()[0];
    assert_eq!((q.src, q.dst), (0, 1));
    assert!(
        m.graph().score(0, 1).is_none(),
        "quarantined edge is absent"
    );
    assert!(
        m.graph().score(1, 0).is_some(),
        "the reverse direction trained normally"
    );

    // The degraded model still runs detection and streaming end to end.
    let test = plant.days_range(TEST_FROM, TEST_TO);
    let batch = m
        .detect_range(&plant.traces, test.clone())
        .expect("degraded graph still detects");
    assert!(batch.valid_models > 0);
    stream(&m, &plant.traces, test);
}

// ---------------------------------------------------------------------------
// Network chaos: the `mdes-serve` daemon under connection-level faults.
//
// The daemon must degrade per-connection, never per-process: a client that
// disconnects mid-batch, feeds bytes too slowly, or stops reading replies
// may lose *its own* work, while every other session keeps producing
// bit-identical scores and the `serve.net.*` counters keep reconciling
// (every queued sample is eventually scored or explicitly counted as
// dropped — none vanish).
// ---------------------------------------------------------------------------

mod serve_net_chaos {
    use mdes::core::serve::{GraphSnapshot, ServingEngine};
    use mdes::core::{Mdes, MdesConfig, OnlineDetection};
    use mdes::graph::ScoreRange;
    use mdes::lang::{RawTrace, WindowConfig};
    use mdes::net::{
        encode_frame, start, FrameKind, IngestClient, PushEntry, PushOutcome, ServeConfig,
        ServerHandle,
    };
    use mdes::obs::Recorder;
    use std::io::Write;
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
    use std::time::{Duration, Instant};

    /// Counter reconciliation needs exclusive use of the process-global
    /// recorder, so the network chaos tests run one at a time.
    fn net_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn recorder() -> Arc<Recorder> {
        static RECORDER: OnceLock<Arc<Recorder>> = OnceLock::new();
        let r = RECORDER.get_or_init(|| Arc::new(Recorder::new()));
        mdes::obs::install(Arc::clone(r));
        Arc::clone(r)
    }

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

    fn fitted() -> (Mdes, Vec<RawTrace>) {
        let traces = vec![
            square("a", 710, 0),
            square("b", 710, 2),
            square("c", 710, 4),
        ];
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
        let m = Mdes::fit(&traces, 0..300, 300..450, cfg).expect("fit");
        (m, traces)
    }

    fn sample(traces: &[RawTrace], t: usize) -> Vec<Option<String>> {
        traces.iter().map(|tr| Some(tr.events[t].clone())).collect()
    }

    fn serve(cfg: ServeConfig) -> (ServerHandle, Vec<RawTrace>, Vec<OnlineDetection>) {
        let (m, traces) = fitted();
        let snapshot = GraphSnapshot::freeze(&m);
        // In-process reference over the healthy stream 450..700.
        let reference_engine = ServingEngine::new(snapshot.clone());
        let mut session = reference_engine.open_session(3).expect("session");
        let mut reference = Vec::new();
        for t in 450..700 {
            if let Some(d) = reference_engine
                .push_opt(&mut session, &sample(&traces, t))
                .expect("push")
            {
                reference.push(d);
            }
        }
        assert!(!reference.is_empty(), "fixture must emit detections");
        let server = start(ServingEngine::new(snapshot), cfg).expect("start");
        (server, traces, reference)
    }

    /// Streams the healthy 450..700 range through one network session and
    /// asserts the detections are bit-identical to the in-process run.
    /// `chunk` bounds the outstanding pushes; it must stay within BOTH the
    /// server's per-session queue capacity (or entries bounce `Busy`) and
    /// its per-connection outbound capacity (or replies are dropped).
    fn stream_and_verify_chunked(
        client: &mut IngestClient,
        session: u64,
        traces: &[RawTrace],
        reference: &[OnlineDetection],
        chunk: usize,
    ) {
        let mut served = Vec::new();
        for chunk in (450..700).collect::<Vec<_>>().chunks(chunk) {
            let entries: Vec<PushEntry> = chunk
                .iter()
                .map(|&t| PushEntry {
                    session,
                    seq: t as u64,
                    records: sample(traces, t),
                })
                .collect();
            let n = entries.len();
            client.send_push_batch(entries).expect("send");
            for reply in client.recv_push_replies(n).expect("recv") {
                match reply.outcome {
                    PushOutcome::Ack => {}
                    PushOutcome::Score(w) => served.push(OnlineDetection::from(w)),
                    other => panic!("healthy session got {other:?}"),
                }
            }
        }
        assert_eq!(served.len(), reference.len());
        for (s, r) in served.iter().zip(reference) {
            assert_eq!(s.score.to_bits(), r.score.to_bits());
            assert_eq!(s.alerts, r.alerts);
        }
    }

    /// Sample-conservation invariant: once quiesced, every sample the
    /// server ever queued was scored or explicitly counted as dropped.
    /// Egress reconciles too: every frame counted out went out in a
    /// counted write.
    fn assert_counters_reconcile(recorder: &Recorder) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let pushes = recorder.counter_value("serve.net.pushes");
            let settled = recorder.counter_value("serve.net.acks")
                + recorder.counter_value("serve.net.scores")
                + recorder.counter_value("serve.net.push_errors")
                + recorder.counter_value("serve.net.dropped_samples");
            let frames_out = recorder.counter_value("serve.net.frames_out");
            let writes = recorder.histogram("serve.net.write_frames");
            let written = writes.as_ref().map_or(0.0, |h| h.sum);
            let write_count = writes.as_ref().map_or(0, |h| h.count);
            if pushes == settled
                && frames_out as f64 == written
                && recorder.counter_value("serve.net.writes") == write_count
            {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "counters never reconciled: pushes={pushes} settled={settled} \
                 frames_out={frames_out} write_frames sum={written}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn mid_batch_disconnect_leaves_other_sessions_scoring() {
        let _guard = net_lock();
        let recorder = recorder();
        let (server, traces, reference) = serve(ServeConfig::default());

        // The victim: queue a burst of work, then vanish without reading a
        // single reply — half-way through, its last frame is cut mid-bytes.
        let mut victim = IngestClient::connect(server.addr()).expect("connect");
        let (victim_session, _) = victim.open_session(3).expect("open");
        let entries: Vec<PushEntry> = (450..490)
            .map(|t| PushEntry {
                session: victim_session,
                seq: t as u64,
                records: sample(&traces, t),
            })
            .collect();
        victim.send_push_batch(entries).expect("send");
        // A torn frame: header + half the payload, then a hard disconnect.
        let torn = encode_frame(FrameKind::PushBatch, b"{\"entries\": [");
        victim.send_raw(&torn[..torn.len() / 2]).expect("raw");
        drop(victim);

        // The survivor scores the whole healthy stream bit-exactly while
        // the server digests the victim's mess.
        let mut survivor = IngestClient::connect(server.addr()).expect("connect");
        let (survivor_session, _) = survivor.open_session(3).expect("open");
        stream_and_verify_chunked(&mut survivor, survivor_session, &traces, &reference, 32);

        // Quiesce: evict the victim's session (its queued samples become
        // counted drops), then the books must balance.
        server.engine(); // server alive until here
        let mut admin =
            mdes::net::AdminClient::connect(server.admin_addr().expect("admin")).expect("admin");
        let (_, status) = admin
            .cmd(&format!("evict {victim_session}"))
            .expect("evict");
        assert!(
            status.starts_with("ok evicted") || status.starts_with("err unknown"),
            "got {status:?}"
        );
        assert_counters_reconcile(&recorder);
        server.stop();
    }

    #[test]
    fn slow_loris_writer_is_cut_by_the_frame_timeout() {
        let _guard = net_lock();
        let recorder = recorder();
        let cfg = ServeConfig {
            read_timeout: Duration::from_millis(300),
            ..ServeConfig::default()
        };
        let (server, traces, reference) = serve(cfg);
        let timeouts_before = recorder.counter_value("serve.net.timeouts");

        // The loris: drip half a valid frame, then go quiet forever.
        let frame = encode_frame(FrameKind::Ping, &[]);
        let mut loris = std::net::TcpStream::connect(server.addr()).expect("connect");
        loris.write_all(&frame[..7]).expect("drip");

        // While the loris dangles, a healthy connection keeps scoring.
        let mut healthy = IngestClient::connect(server.addr()).expect("connect");
        let (session, _) = healthy.open_session(3).expect("open");
        stream_and_verify_chunked(&mut healthy, session, &traces, &reference, 32);

        // The server must answer the loris with a typed timed_out error
        // frame and close; the drained bytes end with EOF.
        let bytes = mdes::net::drain_to_eof(&mut loris, Duration::from_secs(10)).expect("drain");
        let text = String::from_utf8_lossy(&bytes);
        assert!(
            text.contains("timed_out"),
            "loris must get a typed timeout error, got {text:?}"
        );
        assert!(
            recorder.counter_value("serve.net.timeouts") > timeouts_before,
            "timeout counter must advance"
        );
        assert_counters_reconcile(&recorder);
        server.stop();
    }

    #[test]
    fn stalled_consumer_backpressures_only_its_own_sessions() {
        let _guard = net_lock();
        let recorder = recorder();
        let cfg = ServeConfig {
            queue_capacity: 8,
            outbound_capacity: 4,
            ..ServeConfig::default()
        };
        let (server, traces, reference) = serve(cfg);

        // The staller opens a session and floods pushes without ever
        // reading a reply. Every entry produces a reply frame (an Ack, a
        // Score, or a Busy bounce off the 8-deep ingest queue), so the
        // flood eventually overflows the kernel's loopback socket
        // buffering (a few MiB), wedges the writer thread, fills the
        // 4-frame outbound queue, and forces the pump to skip the session.
        let mut staller = IngestClient::connect(server.addr()).expect("connect");
        let (stall_session, _) = staller.open_session(3).expect("open");
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut seq = 0u64;
        while recorder.counter_value("serve.net.stalled_skips") == 0 {
            assert!(
                Instant::now() < deadline,
                "pump never skipped the stalled consumer"
            );
            let entries: Vec<PushEntry> = (0..1000)
                .map(|i| PushEntry {
                    session: stall_session,
                    seq: seq + i,
                    records: sample(&traces, 450 + ((seq + i) as usize % 250)),
                })
                .collect();
            seq += 1000;
            staller.send_push_batch(entries).expect("send");
        }

        // The stalled consumer wedged; a parallel session must still score
        // the full stream bit-exactly.
        let mut healthy = IngestClient::connect(server.addr()).expect("connect");
        let (session, _) = healthy.open_session(3).expect("open");
        stream_and_verify_chunked(&mut healthy, session, &traces, &reference, 2);

        // Backpressure was explicit, not silent: at least one Busy bounce
        // or dropped reply is on the books.
        let busy = recorder.counter_value("serve.net.busy");
        let dropped_replies = recorder.counter_value("serve.net.replies_dropped");
        assert!(
            busy > 0 || dropped_replies > 0,
            "a flooding producer must see explicit backpressure"
        );

        // When the staller finally reads, whatever replies fit the bounded
        // queue are intact, in order, and parseable.
        let drained = staller.recv_push_replies(1).expect("at least one reply");
        assert_eq!(drained[0].session, stall_session);

        drop(staller);
        let mut admin =
            mdes::net::AdminClient::connect(server.admin_addr().expect("admin")).expect("admin");
        let (_, _status) = admin.cmd(&format!("evict {stall_session}")).expect("evict");
        assert_counters_reconcile(&recorder);

        // The obs admin endpoint serves the same recorder this test reads.
        let (data, status) = admin.cmd("obs").expect("obs");
        assert_eq!(status, "ok");
        for name in [
            "serve.net.pushes",
            "serve.net.writes",
            "serve.net.write_frames",
        ] {
            assert!(
                data.iter().any(|l| l.contains(name)),
                "obs dump must include {name}"
            );
        }
        server.stop();
    }
}
