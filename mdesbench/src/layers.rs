//! The traced run: the per-layer ledger.
//!
//! Spans are opened from this crate around calls into each layer's public
//! functions; the daemon's own counters come from an `mdes_obs` recorder
//! that is installed here and nowhere else. `README.md` lists each metric
//! with the end-to-end metric it should move, on which workload.

use crate::cpu::Spent;
use crate::fit::{self, Published};
use crate::loadgen::{Deployment, Kind, PhaseResult, Stream};
use crate::stats::Dist;
use crate::trace::{Totals, Tracer};
use crate::workload::{Setup, Workload};
use crate::{
    check, fixed_rate_checked, max_rate, median_ms, p99_ms, Args, Metrics, Outcome, RunError,
};
use mdes_bleu::{sentence_bleu_pre, RefNgrams};
use mdes_core::{BrokenRule, GraphSnapshot, OnlineDetection, ServingEngine, StreamSession};
use mdes_lang::RawTrace;
use mdes_nn::InferArena;
use mdes_obs::Recorder;
use mdes_serve::{
    encode_frame, encode_msg, read_frame, Frame, FrameKind, PushBatchReq, PushReply, ReadOutcome,
    DEFAULT_MAX_PAYLOAD,
};
use mdes_synth::plant::PlantData;
use std::collections::{BTreeMap, VecDeque};
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Installs a fresh `mdes_obs` recorder for the duration of `f`.
fn with_recorder<T>(f: impl FnOnce() -> T) -> (T, Arc<Recorder>) {
    let rec = Arc::new(Recorder::new());
    mdes_obs::install(Arc::clone(&rec));
    let out = f();
    mdes_obs::uninstall();
    (out, rec)
}

fn hist_mean(rec: &Recorder, name: &str) -> f64 {
    rec.histogram(name).map_or(0.0, |h| h.mean)
}

fn hist_count(rec: &Recorder, name: &str) -> f64 {
    rec.histogram(name).map_or(0.0, |h| h.count as f64)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn total_ns(totals: &BTreeMap<&'static str, Totals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.total_ns as f64)
}

#[allow(clippy::too_many_arguments)]
pub fn traced(
    w: &Workload,
    args: &Args,
    work: &Path,
    plant: &PlantData,
    stream: &Stream,
    published: &Published,
    fit: Spent,
    dep: Deployment,
    mut failures: Vec<String>,
) -> Result<Outcome, RunError> {
    let width = plant.traces.len();
    let untraced = fixed_rate_checked(
        w,
        dep,
        &published.bytes,
        width,
        stream,
        args.seed,
        args.seconds,
        &Tracer::new(false),
    )?;
    let untraced_cpu = untraced.phase.cpu_us_per_push().unwrap_or(0.0);
    let score_p50 = median_ms(&untraced.phase, Kind::Score, "score_p50")?;
    let score_p99 = p99_ms(&untraced.phase, Kind::Score, "score_p99")?;
    let ack_p99 = p99_ms(&untraced.phase, Kind::Ack, "ack_p99")?;
    let max_rate_sps = max_rate(w, &published.bytes, width, stream, args.seed, args.seconds)?;

    let tracer = Tracer::new(true);
    let ckpt = work.join("ckpt-traced");
    let _ = std::fs::remove_dir_all(&ckpt);
    let (traced_fit, fit_rec) = with_recorder(|| fit::fit_and_publish(w, plant, &ckpt, &tracer));
    let traced_fit = traced_fit?;

    let (serve, serve_rec) = with_recorder(|| -> Result<_, RunError> {
        let dep = Deployment::boot(&published.bytes, width, w.sessions)?;
        fixed_rate_checked(
            w,
            dep,
            &published.bytes,
            width,
            stream,
            args.seed,
            args.seconds,
            &tracer,
        )
    });
    let serve = serve?;
    let traced_cpu = serve.phase.cpu_us_per_push().unwrap_or(0.0);

    let counter = |name: &str| serve_rec.counter_value(name) as f64;
    let pushes = counter("serve.net.pushes");
    let accounted = counter("serve.net.acks")
        + counter("serve.net.scores")
        + counter("serve.net.push_errors")
        + counter("serve.net.dropped_samples");
    if pushes != accounted {
        failures.push(format!(
            "daemon counters do not reconcile: pushes {pushes} != acks + scores + \
             push_errors + dropped_samples = {accounted}"
        ));
    }
    let replay = check::replay(
        &published.snapshot,
        width,
        &serve.phase,
        &serve.plan,
        stream,
    )?;
    failures.extend(check::verdicts(&replay));

    let wire = retime_wire(&serve.phase, &tracer);
    let (engine, replay_rec) = with_recorder(|| {
        decompose_engine(
            &published.snapshot,
            plant,
            stream,
            &serve.phase,
            &serve.plan,
            hist_mean(&serve_rec, "serve.net.pump_batch"),
            &tracer,
        )
    });
    let engine = engine?;

    let totals = tracer.totals();
    let span_ms = |name: &str| total_ns(&totals, name) / 1e6;
    let pump_us_mean = hist_mean(&serve_rec, "serve.net.pump_us");
    let all_ms: Vec<f64> = serve
        .phase
        .replies()
        .filter_map(|(_, r)| r.filter(|r| matches!(r.kind, Kind::Ack | Kind::Score)))
        .map(|r| r.lat_ns as f64 / 1e6)
        .collect();
    let latency_p50 = Dist::new(&all_ms).median().map_or(0.0, |p| p.value);
    let codec_ms = (wire.push_encode_ns
        + wire.push_parse_ns
        + wire.reply_encode_ns
        + wire.reply_parse_ns
        + 2.0 * wire.frame_read_ns)
        / 1e6;
    let evaluations = replay_rec.counter_value("algo2.evaluations") as f64;
    let lag = Dist::new(&serve.phase.lag_ms())
        .pct(0.99)
        .map_or(0.0, |p| p.value);
    let (attempted, failed) = (serve.phase.attempted(), serve.phase.failed());
    let overhead = match w.setup {
        Setup::Serving => ratio(traced_cpu - untraced_cpu, untraced_cpu),
        Setup::Ingest => ratio(traced_fit.fit.cpu_s - fit.cpu_s, fit.cpu_s),
    };

    let metrics: Metrics = vec![
        ("score_p50_ms", score_p50, "ms"),
        ("score_p99_ms", score_p99, "ms"),
        ("ack_p99_ms", ack_p99, "ms"),
        ("max_rate_sps", max_rate_sps, "1/s"),
        ("fit_s", fit.wall_s, "s"),
        ("loadgen.lag_p99_ms", lag, "ms"),
        (
            "failed_frac",
            ratio(failed as f64, attempted as f64),
            "fraction",
        ),
        (
            "client.send_us",
            totals.get("client.send").map_or(0.0, Totals::mean_ns) / 1e3,
            "us",
        ),
        ("wire.push_encode_ns", wire.push_encode_ns, "ns"),
        ("wire.push_parse_ns", wire.push_parse_ns, "ns"),
        ("wire.reply_encode_ns", wire.reply_encode_ns, "ns"),
        ("wire.reply_parse_ns", wire.reply_parse_ns, "ns"),
        ("frame.read_ns", wire.frame_read_ns, "ns"),
        ("wire.bytes_per_push", wire.bytes_per_push, "bytes"),
        ("wire.bytes_per_reply", wire.bytes_per_reply, "bytes"),
        (
            "server.pump_rounds",
            hist_count(&serve_rec, "serve.net.pump_us"),
            "count",
        ),
        (
            "server.pump_batch_mean",
            hist_mean(&serve_rec, "serve.net.pump_batch"),
            "count",
        ),
        ("server.pump_us_mean", pump_us_mean, "us"),
        ("server.busy", counter("serve.net.busy"), "count"),
        (
            "server.stalled_skips",
            counter("serve.net.stalled_skips"),
            "count",
        ),
        (
            "server.queue_wait_ms",
            latency_p50 - pump_us_mean / 1e3 - codec_ms,
            "ms",
        ),
        ("engine.round_us_mean", engine.round_us_mean, "us"),
        (
            "engine.windows_per_round",
            engine.windows_per_round,
            "count",
        ),
        (
            "engine.unaccounted_frac",
            engine.unaccounted_frac,
            "fraction",
        ),
        ("lang.encode_us", engine.encode_us, "us"),
        ("lang.fit_ms", span_ms("lang.fit"), "ms"),
        ("decode.us_per_window", engine.decode_us_per_window, "us"),
        (
            "decode.calls_per_round",
            engine.decode_calls_per_round,
            "count",
        ),
        ("decode.batch_mean", engine.decode_batch_mean, "count"),
        ("bleu.ns_per_eval", engine.bleu_ns_per_eval, "ns"),
        (
            "bleu.evals_per_window",
            engine.bleu_evals_per_window,
            "count",
        ),
        ("algo2.evaluations", evaluations, "count"),
        (
            "algo2.broken_frac",
            ratio(replay_rec.counter_value("algo2.broken") as f64, evaluations),
            "fraction",
        ),
        ("prescreen.ms", span_ms("prescreen"), "ms"),
        (
            "prescreen.kept_frac",
            ratio(traced_fit.survivors as f64, traced_fit.total_pairs as f64),
            "fraction",
        ),
        ("sweep.ms", span_ms("sweep"), "ms"),
        (
            "sweep.pairs_trained",
            fit_rec.counter_value("algo1.pairs_trained") as f64,
            "count",
        ),
        (
            "sweep.quarantined",
            fit_rec.counter_value("algo1.pairs_quarantined") as f64,
            "count",
        ),
        (
            "sweep.retries",
            fit_rec.counter_value("algo1.retries") as f64,
            "count",
        ),
        (
            "sweep.pair_train_ms_mean",
            hist_mean(&fit_rec, "algo1.pair") / 1e3,
            "ms",
        ),
        (
            "sweep.checkpoint_ms",
            hist_count(&fit_rec, "checkpoint.write") * hist_mean(&fit_rec, "checkpoint.write")
                / 1e3,
            "ms",
        ),
        ("freeze.ms", span_ms("freeze"), "ms"),
        ("snapshot.encode_ms", span_ms("snapshot.encode"), "ms"),
        ("snapshot.decode_ms", span_ms("snapshot.decode"), "ms"),
        ("snapshot.bytes", traced_fit.bytes.len() as f64, "bytes"),
        ("publish.ms", span_ms("publish"), "ms"),
        ("obs.overhead_frac", overhead, "fraction"),
    ];

    println!("self time per span (traced run):");
    for (name, t) in &totals {
        println!(
            "  {name:<24} n={:<8} total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let spans_path = work.join("spans.jsonl");
    tracer
        .write_jsonl(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    println!("spans written to {}", spans_path.display());
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        failures,
    })
}

/// Per-item codec costs, re-timed over the traced phase's own frames.
struct Wire {
    push_encode_ns: f64,
    push_parse_ns: f64,
    reply_encode_ns: f64,
    reply_parse_ns: f64,
    frame_read_ns: f64,
    bytes_per_push: f64,
    bytes_per_reply: f64,
}

fn retime_wire(phase: &PhaseResult, tracer: &Tracer) -> Wire {
    let push_frames = &phase.push_frames;
    let reply_frames: Vec<Vec<u8>> = phase
        .reply_payloads
        .iter()
        .map(|payload| encode_frame(FrameKind::PushReply, payload))
        .collect();
    let stream: Vec<u8> = push_frames
        .iter()
        .flat_map(|f| f.iter().copied())
        .chain(reply_frames.iter().flatten().copied())
        .collect();
    let frame_count = push_frames.len() + reply_frames.len();

    let read = tracer.span("frame.read", None, None);
    let t = Instant::now();
    let mut cursor = Cursor::new(stream.as_slice());
    let mut frames: Vec<Frame> = Vec::with_capacity(frame_count);
    while let Ok(ReadOutcome::Frame(f)) = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD, None) {
        frames.push(f);
    }
    let frame_read_ns = ratio(t.elapsed().as_nanos() as f64, frames.len() as f64);
    drop(read);
    let (pushes, replies) = frames.split_at(push_frames.len().min(frames.len()));

    let parse = tracer.span("wire.push_parse", None, None);
    let t = Instant::now();
    let batches: Vec<PushBatchReq> = pushes.iter().filter_map(|f| f.parse().ok()).collect();
    let push_parse = t.elapsed().as_nanos() as f64;
    drop(parse);
    let entries: usize = batches.iter().map(|b| b.entries.len()).sum();

    let encode = tracer.span("wire.push_encode", None, None);
    let t = Instant::now();
    for b in &batches {
        std::hint::black_box(encode_msg(FrameKind::PushBatch, b));
    }
    let push_encode = t.elapsed().as_nanos() as f64;
    drop(encode);

    let parse = tracer.span("wire.reply_parse", None, None);
    let t = Instant::now();
    let parsed: Vec<PushReply> = replies.iter().filter_map(|f| f.parse().ok()).collect();
    let reply_parse = t.elapsed().as_nanos() as f64;
    drop(parse);

    let encode = tracer.span("wire.reply_encode", None, None);
    let t = Instant::now();
    for r in &parsed {
        std::hint::black_box(encode_msg(FrameKind::PushReply, r));
    }
    let reply_encode = t.elapsed().as_nanos() as f64;
    drop(encode);

    let push_bytes: usize = push_frames.iter().map(|f| f.len()).sum();
    let reply_bytes: usize = reply_frames.iter().map(Vec::len).sum();
    Wire {
        push_encode_ns: ratio(push_encode, entries as f64),
        push_parse_ns: ratio(push_parse, entries as f64),
        reply_encode_ns: ratio(reply_encode, parsed.len() as f64),
        reply_parse_ns: ratio(reply_parse, parsed.len() as f64),
        frame_read_ns,
        bytes_per_push: ratio(push_bytes as f64, entries as f64),
        bytes_per_reply: ratio(reply_bytes as f64, parsed.len() as f64),
    }
}

struct Engine {
    round_us_mean: f64,
    windows_per_round: f64,
    unaccounted_frac: f64,
    encode_us: f64,
    decode_us_per_window: f64,
    decode_calls_per_round: f64,
    decode_batch_mean: f64,
    bleu_ns_per_eval: f64,
    bleu_evals_per_window: f64,
}

/// One completed window awaiting decomposition.
struct Window {
    records: Vec<Vec<Option<String>>>,
    dropped: Vec<usize>,
}

/// Replays the traced phase's sample stream in process through
/// `ServingEngine::push_opt_many` (one worker, so round time is comparable
/// with the serial layer timings), in rounds of the daemon's mean pump
/// batch, then re-runs each round's completed windows layer by layer:
/// `encode_segment`, `FrozenTranslator::translate_batch` per valid model,
/// and `sentence_bleu_pre` against amortized `RefNgrams`.
fn decompose_engine(
    snapshot: &GraphSnapshot,
    plant: &PlantData,
    stream: &Stream,
    phase: &PhaseResult,
    plan: &crate::loadgen::Plan,
    pump_batch_mean: f64,
    tracer: &Tracer,
) -> Result<Engine, RunError> {
    let width = plant.traces.len();
    let engine = ServingEngine::new(snapshot.clone()).with_threads(1);
    let mut sessions: Vec<Option<StreamSession>> = (0..plan.sessions)
        .map(|_| engine.open_session(width).map(Some))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("replay session: {e}"))?;
    let window_len = snapshot.language().config().min_samples();
    let len = stream.samples.len();

    // The sample stream in arrival order: warm-up pushes, then every
    // absorbed push by due time.
    let mut order: Vec<(u64, u32, usize)> = (0..plan.warm)
        .flat_map(|k| (0..plan.sessions).map(move |s| (0, k, s)))
        .collect();
    order.extend(
        phase
            .replies()
            .filter(|(_, r)| r.is_some_and(|r| matches!(r.kind, Kind::Ack | Kind::Score)))
            .map(|(d, _)| (d.t_ns + 1, d.k, d.session as usize)),
    );
    order.sort_unstable();
    let batch = (pump_batch_mean.round() as usize).max(1);

    let mut history: Vec<VecDeque<usize>> =
        vec![VecDeque::with_capacity(window_len); plan.sessions];
    let mut arena = InferArena::new();
    let (mut rounds, mut windows, mut round_ns) = (0usize, 0usize, 0f64);
    let (mut encode_ns, mut decode_ns, mut bleu_ns) = (0f64, 0f64, 0f64);
    let (mut decode_calls, mut decoded, mut evals) = (0usize, 0usize, 0usize);
    let mut i = 0;
    while i < order.len() {
        let mut members: Vec<(usize, usize)> = Vec::with_capacity(batch);
        while i < order.len() && members.len() < batch {
            let (_, k, s) = order[i];
            if members.iter().any(|&(m, _)| m == s) {
                break;
            }
            members.push((s, plan.sample_index(s, k, len)));
            i += 1;
        }
        let mut round_sessions: Vec<StreamSession> = members
            .iter()
            .map(|&(s, _)| {
                sessions[s]
                    .take()
                    .expect("session returned after each round")
            })
            .collect();
        let samples: Vec<Vec<Option<String>>> = members
            .iter()
            .map(|&(_, idx)| stream.samples[idx].clone())
            .collect();
        let span = tracer.span("engine.round", None, None);
        let t = Instant::now();
        let results = engine.push_opt_many(&mut round_sessions, &samples);
        round_ns += t.elapsed().as_nanos() as f64;
        drop(span);
        rounds += 1;

        let mut done: Vec<Window> = Vec::new();
        for (((s, idx), session), result) in members.iter().zip(round_sessions).zip(results) {
            let h = &mut history[*s];
            if h.len() == window_len {
                h.pop_front();
            }
            h.push_back(*idx);
            if let Ok(Some(OnlineDetection {
                dropped_sensors, ..
            })) = result
            {
                done.push(Window {
                    records: h.iter().map(|&j| stream.samples[j].clone()).collect(),
                    dropped: dropped_sensors,
                });
            }
            sessions[*s] = Some(session);
        }
        if done.is_empty() {
            continue;
        }
        windows += done.len();
        let parent = tracer.span("engine.decompose", None, None);
        let costs = decompose_round(snapshot, plant, &done, &mut arena, tracer, parent.id())?;
        encode_ns += costs.encode_ns;
        decode_ns += costs.decode_ns;
        bleu_ns += costs.bleu_ns;
        decode_calls += costs.decode_calls;
        decoded += costs.decoded;
        evals += costs.evals;
    }
    Ok(Engine {
        round_us_mean: ratio(round_ns, rounds as f64) / 1e3,
        windows_per_round: ratio(windows as f64, rounds as f64),
        unaccounted_frac: 1.0 - ratio(encode_ns + decode_ns + bleu_ns, round_ns),
        encode_us: ratio(encode_ns, windows as f64) / 1e3,
        decode_us_per_window: ratio(decode_ns, windows as f64) / 1e3,
        decode_calls_per_round: ratio(decode_calls as f64, rounds as f64),
        decode_batch_mean: ratio(decoded as f64, decode_calls as f64),
        bleu_ns_per_eval: ratio(bleu_ns, evals as f64),
        bleu_evals_per_window: ratio(evals as f64, windows as f64),
    })
}

struct RoundCosts {
    encode_ns: f64,
    decode_ns: f64,
    bleu_ns: f64,
    decode_calls: usize,
    decoded: usize,
    evals: usize,
}

fn decompose_round(
    snapshot: &GraphSnapshot,
    plant: &PlantData,
    done: &[Window],
    arena: &mut InferArena,
    tracer: &Tracer,
    parent: Option<u32>,
) -> Result<RoundCosts, RunError> {
    let lang = snapshot.language();
    let mut costs = RoundCosts {
        encode_ns: 0.0,
        decode_ns: 0.0,
        bleu_ns: 0.0,
        decode_calls: 0,
        decoded: 0,
        evals: 0,
    };
    let mut sets = Vec::with_capacity(done.len());
    for w in done {
        let traces: Vec<RawTrace> = plant
            .traces
            .iter()
            .enumerate()
            .map(|(i, tr)| {
                let events = w
                    .records
                    .iter()
                    .map(|r| r[i].clone().unwrap_or_default())
                    .collect();
                RawTrace::new(tr.name.clone(), events)
            })
            .collect();
        let _s = tracer.span("lang.encode_segment", parent, None);
        let t = Instant::now();
        let encoded = lang
            .encode_segment(&traces, 0..w.records.len())
            .map_err(|e| format!("encode_segment: {e}"))?;
        costs.encode_ns += t.elapsed().as_nanos() as f64;
        sets.push(encoded);
    }
    let excluded: Vec<Vec<usize>> = done
        .iter()
        .map(|w| {
            lang.languages()
                .iter()
                .enumerate()
                .filter(|(_, l)| w.dropped.contains(&l.source_index))
                .map(|(node, _)| node)
                .collect()
        })
        .collect();
    let cfg = snapshot.detection();
    // Reference n-grams per (window, target sensor), built once and shared
    // by every model into that sensor, as Algorithm 2 does.
    let mut grams: BTreeMap<(usize, usize), Vec<RefNgrams<u32>>> = BTreeMap::new();
    for &k in snapshot.valid_models() {
        let m = &snapshot.models()[k];
        let jobs: Vec<usize> = (0..done.len())
            .filter(|&j| !excluded[j].contains(&m.src) && !excluded[j].contains(&m.dst))
            .collect();
        // Shape groups, as Algorithm 2 batches them: (window, sentence)
        // pairs keyed by output length.
        let mut groups: BTreeMap<(usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
        for &j in &jobs {
            for (t, r) in sets[j][m.dst].sentences.iter().enumerate() {
                let src_len = sets[j][m.src].sentences[t].len();
                groups.entry((src_len, r.len())).or_default().push((j, t));
            }
        }
        let threshold = match cfg.rule {
            BrokenRule::CorpusScore => m.train_score,
            BrokenRule::DevQuantileFloor => m.dev_floor,
        };
        for ((_, out_len), entries) in &groups {
            let srcs: Vec<&[u32]> = entries
                .iter()
                .map(|&(j, t)| sets[j][m.src].sentences[t].as_slice())
                .collect();
            let d = tracer.span("decode.translate_batch", parent, None);
            let t = Instant::now();
            let hyps = m.translator().translate_batch(&srcs, *out_len, arena);
            costs.decode_ns += t.elapsed().as_nanos() as f64;
            drop(d);
            costs.decode_calls += 1;
            costs.decoded += srcs.len();

            let b = tracer.span("bleu", parent, None);
            let t = Instant::now();
            for (&(j, tix), hyp) in entries.iter().zip(&hyps) {
                let refs = grams.entry((j, m.dst)).or_insert_with(|| {
                    sets[j][m.dst]
                        .sentences
                        .iter()
                        .map(|r| RefNgrams::new(r, cfg.bleu.max_n))
                        .collect()
                });
                let broken = sentence_bleu_pre(hyp, &refs[tix], &cfg.bleu) < threshold - cfg.margin;
                std::hint::black_box(broken);
            }
            costs.bleu_ns += t.elapsed().as_nanos() as f64;
            drop(b);
            costs.evals += entries.len();
        }
    }
    Ok(costs)
}
