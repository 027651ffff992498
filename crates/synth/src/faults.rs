//! Deterministic fault injection for chaos-testing the pipeline.
//!
//! Real deployments lose sensors: packets drop, transducers freeze, buses
//! flip bits. The [`FaultInjector`] applies those failure modes to clean
//! synthetic traces so tests can assert the analytics *degrade* — reduced
//! coverage, raised anomaly scores — instead of panicking. Injection is
//! fully seeded: the same injector over the same traces always yields the
//! same corrupted traces, which keeps chaos tests reproducible.
//!
//! Dropped records are written as [`MISSING_RECORD`] — the same sentinel the
//! serving sessions substitute for a `None` record — so injected traces can
//! be replayed through either the batch or the streaming path.

use mdes_lang::{RawTrace, MISSING_RECORD};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::plant::PlantData;

/// A sensor failure mode.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The sensor delivers no records: every sample in the fault window
    /// becomes [`MISSING_RECORD`].
    Dropout,
    /// The sensor freezes on whatever record it held when the fault began.
    StuckAt,
    /// Each record in the window is independently replaced, with the given
    /// probability, by a garbled string no training alphabet contains.
    Corrupt {
        /// Per-sample replacement probability in `[0, 1]`.
        prob: f64,
    },
    /// Every record in the window is replaced by seeded random noise drawn
    /// from a garbage alphabet — a bursty, total corruption of the channel.
    BurstNoise,
}

/// One injected fault: a failure mode applied to one sensor over a
/// half-open sample range.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// Index of the affected trace.
    pub sensor: usize,
    /// Failure mode.
    pub kind: FaultKind,
    /// First affected sample index.
    pub start: usize,
    /// One past the last affected sample index.
    pub end: usize,
}

/// A seeded, reproducible applier of [`Fault`]s to raw traces.
///
/// # Example
///
/// ```
/// use mdes_synth::faults::{FaultInjector, FaultKind};
/// use mdes_synth::plant::{generate, PlantConfig};
///
/// let data = generate(&PlantConfig::small(4, 1));
/// let faulty = FaultInjector::new(7)
///     .dropout(0, 100, 200)
///     .corrupt(1, 300, 400, 0.5)
///     .apply(&data.traces);
/// assert_eq!(faulty.len(), data.traces.len());
/// assert_ne!(faulty[0].events[150], data.traces[0].events[150]);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultInjector {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultInjector {
    /// Creates an injector with no faults; randomness (for `Corrupt` and
    /// `BurstNoise`) derives deterministically from `seed` and each fault's
    /// position in the list.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds an arbitrary fault (builder style).
    pub fn fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Sensor `sensor` delivers nothing for samples `start..end`.
    pub fn dropout(self, sensor: usize, start: usize, end: usize) -> Self {
        self.fault(Fault {
            sensor,
            kind: FaultKind::Dropout,
            start,
            end,
        })
    }

    /// Sensor `sensor` freezes on its `start`-time record for `start..end`.
    pub fn stuck_at(self, sensor: usize, start: usize, end: usize) -> Self {
        self.fault(Fault {
            sensor,
            kind: FaultKind::StuckAt,
            start,
            end,
        })
    }

    /// Each record of `sensor` in `start..end` is garbled with probability
    /// `prob`.
    pub fn corrupt(self, sensor: usize, start: usize, end: usize, prob: f64) -> Self {
        self.fault(Fault {
            sensor,
            kind: FaultKind::Corrupt { prob },
            start,
            end,
        })
    }

    /// Sensor `sensor` emits pure noise for `start..end`.
    pub fn burst_noise(self, sensor: usize, start: usize, end: usize) -> Self {
        self.fault(Fault {
            sensor,
            kind: FaultKind::BurstNoise,
            start,
            end,
        })
    }

    /// The configured faults, in insertion (application) order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Applies every fault to a copy of `traces` (later faults see earlier
    /// faults' effects). Out-of-range sensors or sample windows are clipped,
    /// never a panic — chaos harnesses should not crash on a typo.
    pub fn apply(&self, traces: &[RawTrace]) -> Vec<RawTrace> {
        let mut out: Vec<RawTrace> = traces.to_vec();
        for (f_idx, fault) in self.faults.iter().enumerate() {
            let Some(trace) = out.get_mut(fault.sensor) else {
                continue;
            };
            let len = trace.events.len();
            let start = fault.start.min(len);
            let end = fault.end.min(len);
            if start >= end {
                continue;
            }
            // One RNG per fault, seeded by position: appending a fault never
            // changes what earlier faults injected.
            let mut rng =
                StdRng::seed_from_u64(self.seed ^ (f_idx as u64).wrapping_mul(0x9E37_79B9));
            match &fault.kind {
                FaultKind::Dropout => {
                    for e in &mut trace.events[start..end] {
                        *e = MISSING_RECORD.to_owned();
                    }
                }
                FaultKind::StuckAt => {
                    let frozen = trace.events[start].clone();
                    for e in &mut trace.events[start..end] {
                        *e = frozen.clone();
                    }
                }
                FaultKind::Corrupt { prob } => {
                    for e in &mut trace.events[start..end] {
                        if rng.gen::<f64>() < *prob {
                            *e = garbage(&mut rng);
                        }
                    }
                }
                FaultKind::BurstNoise => {
                    for e in &mut trace.events[start..end] {
                        *e = garbage(&mut rng);
                    }
                }
            }
        }
        out
    }

    /// Applies the faults to a plant dataset, returning a copy whose traces
    /// are corrupted (config and ground-truth metadata are untouched).
    pub fn apply_plant(&self, data: &PlantData) -> PlantData {
        PlantData {
            traces: self.apply(&data.traces),
            ..data.clone()
        }
    }
}

/// A garbled record no training alphabet contains (real records never carry
/// the `\u{1a}` marker).
fn garbage(rng: &mut StdRng) -> String {
    format!("\u{1a}garbage{}\u{1a}", rng.gen_range(0u32..1000))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_traces() -> Vec<RawTrace> {
        (0..3)
            .map(|s| {
                RawTrace::new(
                    format!("s{s}"),
                    (0..100)
                        .map(|t| if (t + s) % 4 < 2 { "on" } else { "off" }.to_owned())
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn dropout_writes_the_missing_sentinel() {
        let traces = toy_traces();
        let out = FaultInjector::new(1).dropout(0, 10, 20).apply(&traces);
        assert!(out[0].events[10..20].iter().all(|e| e == MISSING_RECORD));
        assert_eq!(out[0].events[..10], traces[0].events[..10]);
        assert_eq!(out[0].events[20..], traces[0].events[20..]);
        assert_eq!(out[1].events, traces[1].events);
    }

    #[test]
    fn stuck_at_freezes_the_start_record() {
        let traces = toy_traces();
        let out = FaultInjector::new(1).stuck_at(1, 5, 30).apply(&traces);
        let frozen = &traces[1].events[5];
        assert!(out[1].events[5..30].iter().all(|e| e == frozen));
        assert_eq!(out[1].events[30..], traces[1].events[30..]);
    }

    #[test]
    fn corruption_is_probabilistic_and_marked() {
        let traces = toy_traces();
        let out = FaultInjector::new(2).corrupt(2, 0, 100, 0.5).apply(&traces);
        let changed = out[2]
            .events
            .iter()
            .zip(&traces[2].events)
            .filter(|(a, b)| a != b)
            .count();
        assert!((20..=80).contains(&changed), "~half corrupted: {changed}");
        assert!(out[2]
            .events
            .iter()
            .filter(|e| e.contains('\u{1a}'))
            .count()
            .eq(&changed));
    }

    #[test]
    fn burst_noise_replaces_every_record() {
        let traces = toy_traces();
        let out = FaultInjector::new(3).burst_noise(0, 40, 60).apply(&traces);
        assert!(out[0].events[40..60].iter().all(|e| e.contains('\u{1a}')));
    }

    #[test]
    fn injection_is_deterministic() {
        let traces = toy_traces();
        let mk = || {
            FaultInjector::new(42)
                .corrupt(0, 0, 100, 0.3)
                .burst_noise(1, 20, 80)
                .apply(&traces)
        };
        let a = mk();
        let b = mk();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.events, y.events);
        }
    }

    #[test]
    fn out_of_range_faults_are_clipped_not_panics() {
        let traces = toy_traces();
        let out = FaultInjector::new(1)
            .dropout(99, 0, 10) // no such sensor
            .dropout(0, 90, 500) // window past the end
            .stuck_at(1, 70, 70) // empty window
            .apply(&traces);
        assert!(out[0].events[90..].iter().all(|e| e == MISSING_RECORD));
        assert_eq!(out[1].events, traces[1].events);
    }
}
