//! The serving correctness gate, run after the timed phase.
//!
//! Every sample the daemon absorbed is replayed in process through a fresh
//! `ServingEngine` over the same snapshot, session by session in push
//! order; every network reply must match the replay bit for bit.

use crate::loadgen::{Kind, PhaseResult, Plan, Stream};
use mdes_core::{GraphSnapshot, OnlineDetection, ServingEngine};

/// Per session, the absorbed pushes in push order: `(k, reply)`, starting
/// with the acknowledged warm-up pushes.
fn absorbed(phase: &PhaseResult, plan: &Plan) -> Vec<Vec<(u32, crate::loadgen::Reply)>> {
    let ack = crate::loadgen::Reply {
        kind: Kind::Ack,
        lat_ns: 0,
        score_bits: 0,
        coverage_bits: 0,
        sample_index: 0,
    };
    let mut out: Vec<Vec<_>> = (0..plan.sessions)
        .map(|_| (0..plan.warm).map(|k| (k, ack)).collect())
        .collect();
    for (due, reply) in phase.replies() {
        if let Some(r) = reply.filter(|r| matches!(r.kind, Kind::Ack | Kind::Score | Kind::Error)) {
            out[due.session as usize].push((due.k, *r));
        }
    }
    for v in &mut out {
        v.sort_by_key(|(k, _)| *k);
    }
    out
}

pub struct Replay {
    pub mismatches: usize,
    pub scores: usize,
    /// Mean network score over windows completing on the normal test day
    /// and on the anomaly day.
    pub normal_mean: f64,
    pub anomaly_mean: f64,
}

pub fn replay(
    snapshot: &GraphSnapshot,
    width: usize,
    phase: &PhaseResult,
    plan: &Plan,
    stream: &Stream,
) -> Result<Replay, String> {
    let engine = ServingEngine::new(snapshot.clone());
    let per_session = absorbed(phase, plan);
    let mut sessions = Vec::with_capacity(plan.sessions);
    for _ in 0..plan.sessions {
        sessions.push(Some(
            engine
                .open_session(width)
                .map_err(|e| format!("replay session: {e}"))?,
        ));
    }
    let len = stream.samples.len();
    let rounds = per_session.iter().map(Vec::len).max().unwrap_or(0);
    let (mut mismatches, mut scores) = (0, 0);
    let mut day_sums = [(0.0f64, 0usize); 2];
    for p in 0..rounds {
        let members: Vec<usize> = (0..plan.sessions)
            .filter(|&s| per_session[s].len() > p)
            .collect();
        let mut batch: Vec<_> = members
            .iter()
            .map(|&s| {
                sessions[s]
                    .take()
                    .expect("session returned after each round")
            })
            .collect();
        let samples: Vec<Vec<Option<String>>> = members
            .iter()
            .map(|&s| stream.samples[plan.sample_index(s, per_session[s][p].0, len)].clone())
            .collect();
        let results = engine.push_opt_many(&mut batch, &samples);
        for ((&s, session), result) in members.iter().zip(batch).zip(results) {
            let (k, net) = per_session[s][p];
            let same = match (&result, net.kind) {
                (Ok(None), Kind::Ack) | (Err(_), Kind::Error) => true,
                (Ok(Some(d)), Kind::Score) => matches_wire(d, &net),
                _ => false,
            };
            if !same {
                mismatches += 1;
            }
            if net.kind == Kind::Score {
                scores += 1;
                let day = plan.sample_index(s, k, len) / stream.day_len;
                let slot = &mut day_sums[day.min(1)];
                slot.0 += f64::from_bits(net.score_bits);
                slot.1 += 1;
            }
            sessions[s] = Some(session);
        }
    }
    let mean = |(sum, n): (f64, usize)| if n == 0 { f64::NAN } else { sum / n as f64 };
    Ok(Replay {
        mismatches,
        scores,
        normal_mean: mean(day_sums[0]),
        anomaly_mean: mean(day_sums[1]),
    })
}

fn matches_wire(d: &OnlineDetection, net: &crate::loadgen::Reply) -> bool {
    d.score.to_bits() == net.score_bits
        && d.coverage.to_bits() == net.coverage_bits
        && d.sample_index == net.sample_index
}

/// The replay's verdicts as failure messages (empty when all hold).
pub fn verdicts(r: &Replay) -> Vec<String> {
    let mut failures = Vec::new();
    if r.mismatches > 0 {
        failures.push(format!(
            "{} network replies differ from the in-process replay",
            r.mismatches
        ));
    }
    if r.scores == 0 {
        failures.push("no window completed during the timed phase".to_owned());
    }
    // NaN (a day with no completed window) fails this comparison too.
    if r.anomaly_mean.partial_cmp(&r.normal_mean) != Some(std::cmp::Ordering::Greater) {
        failures.push(format!(
            "anomaly-day mean score {:.4} does not exceed the normal day's {:.4}",
            r.anomaly_mean, r.normal_mean
        ));
    }
    failures
}
