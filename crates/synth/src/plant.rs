//! Synthetic physical-plant sensor log.
//!
//! Stands in for the paper's proprietary dataset (§III-A), which is under an
//! NDA. The generator reproduces every statistic the paper reports:
//!
//! * 128 sensors sampled once per minute for 30 days (43 200 samples each,
//!   5.5 M total);
//! * mean cardinality ≈ 2.07, ~97.6 % binary, maximum 7 distinct states;
//! * sensors organized in components sharing a latent periodic driver, so
//!   strongly-related pairs exist (the basis of the relationship graph);
//! * a population of *rare-event* sensors that stay in one state almost all
//!   the time (like the paper's sensor #91) — these become the easily
//!   translatable, high-in-degree "popular" nodes;
//! * two anomalous days (21 and 28, as in November 2017) where pairwise
//!   phase relationships break while marginal behavior stays visually
//!   similar, plus milder *precursor* perturbations on days 19, 20 and 27
//!   that the paper observed as early-detection spikes.

use mdes_lang::RawTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What drives a sensor's state sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SensorKind {
    /// Tracks its component driver's phase (a periodic wave).
    Periodic,
    /// Stays in a base state and fires briefly at long intervals.
    RareEvent,
}

/// A persistent mid-run change of plant behavior: from `at_sample` onward
/// the listed sensors acquire an extra phase lag against their component
/// driver, permanently decoupling them from unaffected peers. Unlike the
/// one-day anomaly/precursor perturbations, a regime shift never reverts —
/// it models recalibrated or re-piped equipment whose *new* behavior is
/// correct, the situation the continuous-learning loop (drift detection →
/// partial refit) exists to absorb.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegimeShift {
    /// First sample (0-based) at which the shift applies.
    pub at_sample: usize,
    /// Sensor indices whose phase lag changes.
    pub sensors: Vec<usize>,
    /// Extra phase lag, in minutes, added from `at_sample` onward.
    pub lag_delta: usize,
}

/// Configuration of the plant simulator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlantConfig {
    /// Number of sensors (paper: 128).
    pub n_sensors: usize,
    /// Number of days simulated (paper: 30).
    pub days: usize,
    /// Samples per day (paper: 1440, one per minute).
    pub minutes_per_day: usize,
    /// Number of physical components (sensor clusters).
    pub n_components: usize,
    /// 1-based days with a full anomaly (paper: 21 and 28).
    pub anomaly_days: Vec<usize>,
    /// 1-based days with milder precursor perturbations (paper: 19, 20, 27).
    pub precursor_days: Vec<usize>,
    /// Fraction of sensors that are rare-event (mostly constant) sensors.
    pub rare_fraction: f64,
    /// Per-sample probability of flipping to a random other state during
    /// normal operation.
    pub noise_flip_prob: f64,
    /// Spread component driver periods deterministically (cycling and
    /// stretching the base period table) instead of drawing them at random.
    /// With many components the random draw makes most component pairs
    /// share a period — and therefore translate well — which defeats
    /// prescreen pruning at fleet scale. `false` preserves the historical
    /// RNG call sequence exactly.
    pub distinct_periods: bool,
    /// Permanent mid-run behavior changes (see [`RegimeShift`]). Empty by
    /// default; the field draws no randomness, so any run with shifts is
    /// byte-identical to the unshifted run everywhere the shifts don't reach.
    pub regime_shifts: Vec<RegimeShift>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PlantConfig {
    fn default() -> Self {
        Self {
            n_sensors: 128,
            days: 30,
            minutes_per_day: 1440,
            n_components: 8,
            anomaly_days: vec![21, 28],
            precursor_days: vec![19, 20, 27],
            rare_fraction: 0.4,
            noise_flip_prob: 0.002,
            distinct_periods: false,
            regime_shifts: vec![],
            seed: 2017,
        }
    }
}

impl PlantConfig {
    /// A reduced-scale configuration for fast experiments and tests.
    pub fn small(n_sensors: usize, days: usize) -> Self {
        Self {
            n_sensors,
            days,
            ..Self::default()
        }
    }

    /// A fleet-scale configuration for the 512–1000 sensor scalability
    /// experiments: many small components with deterministically spread
    /// driver periods (so most cross-component pairs do *not* translate
    /// and prescreen pruning has something to prune), a coarser 5-minute
    /// sampling grid and a short horizon so the corpus grows linearly
    /// with the fleet rather than quadratically with the study length.
    pub fn fleet(n_sensors: usize) -> Self {
        Self {
            n_sensors,
            days: 8,
            minutes_per_day: 288,
            n_components: (n_sensors / 8).max(1),
            anomaly_days: vec![8],
            precursor_days: vec![],
            distinct_periods: true,
            // Few rare-event sensors: their mostly-constant streams all
            // translate into each other, and at fleet scale that quadratic
            // population of trivial pairs would dominate the sweep.
            rare_fraction: 0.1,
            ..Self::default()
        }
    }

    /// Total samples per sensor.
    pub fn samples(&self) -> usize {
        self.days * self.minutes_per_day
    }

    /// Whether 1-based `day` is one of the injected anomalies.
    pub fn is_anomalous_day(&self, day: usize) -> bool {
        self.anomaly_days.contains(&day)
    }

    /// Whether 1-based `day` carries precursor perturbations.
    pub fn is_precursor_day(&self, day: usize) -> bool {
        self.precursor_days.contains(&day)
    }
}

/// Static description of one simulated sensor.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SensorInfo {
    /// Sensor name (`s0`, `s1`, …).
    pub name: String,
    /// Component (cluster) the sensor belongs to.
    pub component: usize,
    /// Behavioral kind.
    pub kind: SensorKind,
    /// Number of distinct states.
    pub cardinality: usize,
}

/// The generated dataset: traces plus ground-truth structure.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PlantData {
    /// Configuration used.
    pub config: PlantConfig,
    /// One trace per sensor, `config.samples()` records each.
    pub traces: Vec<RawTrace>,
    /// Ground-truth sensor metadata (for validating knowledge discovery).
    pub sensors: Vec<SensorInfo>,
}

struct SensorSpec {
    component: usize,
    kind: SensorKind,
    cardinality: usize,
    /// Phase lag relative to the component driver.
    lag: usize,
    /// Rare-event recurrence period (RareEvent only).
    long_period: usize,
    /// Rare-event pulse width (RareEvent only).
    on_duration: usize,
}

/// Generates a plant dataset.
///
/// # Panics
///
/// Panics if the configuration has zero sensors, days, components or
/// minutes per day.
pub fn generate(cfg: &PlantConfig) -> PlantData {
    assert!(
        cfg.n_sensors > 0 && cfg.days > 0 && cfg.minutes_per_day > 0 && cfg.n_components > 0,
        "plant configuration dimensions must be positive"
    );
    assert!(
        cfg.regime_shifts
            .iter()
            .flat_map(|r| r.sensors.iter())
            .all(|&i| i < cfg.n_sensors),
        "regime shift references a sensor outside 0..{}",
        cfg.n_sensors
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Component drivers: a period per component (in minutes).
    let periods = [24usize, 36, 48, 60, 90, 120];
    let comp_period: Vec<usize> = (0..cfg.n_components)
        .map(|c| {
            if cfg.distinct_periods {
                // Cycle the table and stretch each repeat (×1, ×2, ×3), so
                // period collisions across components are the exception.
                periods[c % periods.len()] * (1 + (c / periods.len()) % 3)
            } else {
                periods[rng.gen_range(0..periods.len())]
            }
        })
        .collect();

    // Sensor static specs. Cardinalities follow the paper: ~97.6 % binary,
    // the rest uniform in 3..=7 (max observed cardinality 7).
    let specs: Vec<SensorSpec> = (0..cfg.n_sensors)
        .map(|i| {
            let component = i % cfg.n_components;
            let p = comp_period[component];
            let kind = if rng.gen::<f64>() < cfg.rare_fraction {
                SensorKind::RareEvent
            } else {
                SensorKind::Periodic
            };
            let cardinality = match kind {
                SensorKind::RareEvent => 2,
                SensorKind::Periodic => {
                    if rng.gen::<f64>() < 0.968 {
                        2
                    } else {
                        rng.gen_range(3..=7)
                    }
                }
            };
            SensorSpec {
                component,
                kind,
                cardinality,
                lag: rng.gen_range(0..p),
                long_period: p * rng.gen_range(8..16),
                on_duration: (p / 4).max(2),
            }
        })
        .collect();

    let samples = cfg.samples();
    let mut values: Vec<Vec<usize>> = vec![Vec::with_capacity(samples); cfg.n_sensors];

    // Regime shifts, folded to a per-sensor onset schedule. Purely
    // deterministic: no RNG is consumed, so runs with and without shifts
    // share the exact noise sequence.
    let regime: Vec<Vec<(usize, usize)>> = (0..cfg.n_sensors)
        .map(|i| {
            let mut onsets: Vec<(usize, usize)> = cfg
                .regime_shifts
                .iter()
                .filter(|r| r.sensors.contains(&i))
                .map(|r| (r.at_sample, r.lag_delta))
                .collect();
            onsets.sort_unstable();
            onsets
        })
        .collect();
    let regime_delta = |i: usize, t: usize| -> usize {
        regime[i]
            .iter()
            .take_while(|&&(at, _)| t >= at)
            .map(|&(_, d)| d)
            .sum()
    };

    // Per-day perturbations (anomalies/precursors): each affected sensor
    // receives an independent lag shift for the whole day, decoupling it
    // from its component peers, plus an elevated flip probability.
    for day in 1..=cfg.days {
        let (affected_fraction, max_shift_frac, flip) = if cfg.is_anomalous_day(day) {
            (0.8, 0.5, 0.012)
        } else if cfg.is_precursor_day(day) {
            (0.4, 0.25, 0.006)
        } else {
            (0.0, 0.0, cfg.noise_flip_prob)
        };
        let shifts: Vec<usize> = specs
            .iter()
            .map(|s| {
                let p = comp_period[s.component];
                if affected_fraction > 0.0 && rng.gen::<f64>() < affected_fraction {
                    rng.gen_range(0..((p as f64 * max_shift_frac) as usize + 1))
                } else {
                    0
                }
            })
            .collect();
        let start = (day - 1) * cfg.minutes_per_day;
        for t in start..start + cfg.minutes_per_day {
            for (i, spec) in specs.iter().enumerate() {
                let p = comp_period[spec.component];
                let phase_t = t + spec.lag + shifts[i] + regime_delta(i, t);
                let mut state = match spec.kind {
                    SensorKind::Periodic => (phase_t % p) * spec.cardinality / p,
                    SensorKind::RareEvent => {
                        usize::from(phase_t % spec.long_period < spec.on_duration)
                    }
                };
                if spec.cardinality > 1 && rng.gen::<f64>() < flip {
                    let other = rng.gen_range(0..spec.cardinality - 1);
                    state = if other >= state { other + 1 } else { other };
                }
                values[i].push(state);
            }
        }
    }

    let state_names = ["OFF", "ON", "S2", "S3", "S4", "S5", "S6"];
    let traces = values
        .iter()
        .enumerate()
        .map(|(i, vals)| {
            RawTrace::new(
                format!("s{i}"),
                vals.iter().map(|&v| state_names[v].to_owned()).collect(),
            )
        })
        .collect();
    let sensors = specs
        .iter()
        .enumerate()
        .map(|(i, s)| SensorInfo {
            name: format!("s{i}"),
            component: s.component,
            kind: s.kind,
            cardinality: s.cardinality,
        })
        .collect();
    PlantData {
        config: cfg.clone(),
        traces,
        sensors,
    }
}

impl PlantData {
    /// Sample range of 1-based day `day` (for slicing traces).
    ///
    /// # Panics
    ///
    /// Panics if `day` is zero or beyond the simulated horizon.
    pub fn day_range(&self, day: usize) -> std::ops::Range<usize> {
        assert!(
            day >= 1 && day <= self.config.days,
            "day {day} outside 1..={}",
            self.config.days
        );
        let m = self.config.minutes_per_day;
        (day - 1) * m..day * m
    }

    /// Sample range spanning 1-based days `[from, to]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if the day interval is invalid.
    pub fn days_range(&self, from: usize, to: usize) -> std::ops::Range<usize> {
        assert!(
            from >= 1 && from <= to && to <= self.config.days,
            "invalid day span {from}..={to}"
        );
        let m = self.config.minutes_per_day;
        (from - 1) * m..to * m
    }

    /// The multivariate sample at time `t` — one record per sensor, in
    /// trace order — ready to feed a serving session.
    ///
    /// # Panics
    ///
    /// Panics if `t` is beyond the simulated horizon.
    pub fn sample(&self, t: usize) -> Vec<String> {
        assert!(
            t < self.config.samples(),
            "sample {t} outside 0..{}",
            self.config.samples()
        );
        self.traces.iter().map(|tr| tr.events[t].clone()).collect()
    }

    /// Index of a representative periodic sensor (Fig. 2a), if any.
    pub fn representative_periodic(&self) -> Option<usize> {
        self.sensors
            .iter()
            .position(|s| s.kind == SensorKind::Periodic)
    }

    /// Index of a representative rare-event sensor (Fig. 2b), if any.
    pub fn representative_rare(&self) -> Option<usize> {
        self.sensors
            .iter()
            .position(|s| s.kind == SensorKind::RareEvent)
    }

    /// Mean cardinality across sensors (paper reports 2.07).
    pub fn mean_cardinality(&self) -> f64 {
        self.sensors
            .iter()
            .map(|s| s.cardinality as f64)
            .sum::<f64>()
            / self.sensors.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_config() {
        let cfg = PlantConfig::small(16, 3);
        let data = generate(&cfg);
        assert_eq!(data.traces.len(), 16);
        assert!(data.traces.iter().all(|t| t.events.len() == cfg.samples()));
        assert_eq!(data.sensors.len(), 16);
    }

    #[test]
    fn cardinality_distribution_matches_paper() {
        let data = generate(&PlantConfig::default());
        let binary = data.sensors.iter().filter(|s| s.cardinality == 2).count() as f64 / 128.0;
        assert!(binary > 0.9, "binary fraction {binary}");
        let mean = data.mean_cardinality();
        assert!((1.9..=2.4).contains(&mean), "mean cardinality {mean}");
        assert!(data.sensors.iter().all(|s| s.cardinality <= 7));
    }

    #[test]
    fn same_component_sensors_are_phase_locked_normally() {
        let cfg = PlantConfig::small(16, 2);
        let data = generate(&cfg);
        // Two periodic binary sensors in the same component must have a
        // (nearly) constant state relationship up to their fixed lags: check
        // mutual information proxy — agreement rate far from 50 % or stable
        // lagged match.
        let periodic: Vec<usize> = data
            .sensors
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == SensorKind::Periodic && s.cardinality == 2)
            .map(|(i, _)| i)
            .collect();
        let same_comp: Vec<(usize, usize)> = periodic
            .iter()
            .flat_map(|&a| periodic.iter().map(move |&b| (a, b)))
            .filter(|(a, b)| a < b && data.sensors[*a].component == data.sensors[*b].component)
            .collect();
        assert!(
            !same_comp.is_empty(),
            "need at least one same-component pair"
        );
        let (a, b) = same_comp[0];
        let ea = &data.traces[a].events;
        let eb = &data.traces[b].events;
        let agree = ea.iter().zip(eb).filter(|(x, y)| x == y).count() as f64 / ea.len() as f64;
        // Phase-locked square waves agree at a fixed rate; noise keeps it off
        // 0/1 but it must be far from coin-flipping OR nearly constant —
        // either way deterministic structure exists.
        assert!(
            (agree - 0.5).abs() > 0.05 || agree == 0.0,
            "agreement suspiciously random: {agree}"
        );
    }

    #[test]
    fn anomalous_day_differs_more_than_normal_day() {
        let cfg = PlantConfig {
            n_sensors: 12,
            days: 30,
            minutes_per_day: 240,
            ..PlantConfig::default()
        };
        let data = generate(&cfg);
        // Compare each day against day 1 via per-sensor mismatch; anomaly
        // days should diverge more than a typical normal day.
        let base: Vec<&[String]> = data
            .traces
            .iter()
            .map(|t| &t.events[data.day_range(1)])
            .collect();
        let mismatch = |day: usize| -> f64 {
            let mut total = 0.0;
            for (s, t) in data.traces.iter().enumerate() {
                let seg = &t.events[data.day_range(day)];
                let m = seg.iter().zip(base[s]).filter(|(a, b)| a != b).count();
                total += m as f64 / seg.len() as f64;
            }
            total / data.traces.len() as f64
        };
        let normal = mismatch(5);
        let anomalous = mismatch(21);
        assert!(
            anomalous > normal,
            "anomaly day mismatch {anomalous} should exceed normal {normal}"
        );
    }

    #[test]
    fn fleet_preset_scales_and_generates() {
        let cfg = PlantConfig::fleet(512);
        assert_eq!(cfg.n_sensors, 512);
        assert!(cfg.n_components >= 32);
        assert!(cfg.distinct_periods);
        // Generate a reduced fleet end-to-end; component structure must
        // survive the deterministic period spread.
        let data = generate(&PlantConfig::fleet(48));
        assert_eq!(data.traces.len(), 48);
        let comps: std::collections::BTreeSet<usize> =
            data.sensors.iter().map(|s| s.component).collect();
        assert_eq!(comps.len(), PlantConfig::fleet(48).n_components);
    }

    #[test]
    fn distinct_periods_only_changes_flagged_runs() {
        // The flag must not perturb the RNG call sequence of the default
        // path: a `false` run is byte-identical to the historical output,
        // so only `true` runs may diverge.
        let base = PlantConfig::small(8, 2);
        let spread = PlantConfig {
            distinct_periods: true,
            ..base.clone()
        };
        assert_eq!(generate(&base).traces, generate(&base).traces);
        assert_eq!(generate(&spread).traces, generate(&spread).traces);
    }

    #[test]
    fn regime_shift_changes_only_listed_sensors_after_onset() {
        let base = PlantConfig {
            rare_fraction: 0.0,
            noise_flip_prob: 0.0,
            anomaly_days: vec![],
            precursor_days: vec![],
            ..PlantConfig::small(8, 2)
        };
        let at = 720;
        let shifted_cfg = PlantConfig {
            regime_shifts: vec![RegimeShift {
                at_sample: at,
                sensors: vec![0, 2],
                lag_delta: 17,
            }],
            ..base.clone()
        };
        let a = generate(&base);
        let b = generate(&shifted_cfg);
        for i in 0..8 {
            let (ea, eb) = (&a.traces[i].events, &b.traces[i].events);
            assert_eq!(
                &ea[..at],
                &eb[..at],
                "sensor {i} must match before the shift"
            );
            if i == 0 || i == 2 {
                assert_ne!(
                    &ea[at..],
                    &eb[at..],
                    "shifted sensor {i} must diverge after onset"
                );
            } else {
                assert_eq!(
                    &ea[at..],
                    &eb[at..],
                    "unshifted sensor {i} must be byte-identical throughout"
                );
            }
        }
    }

    #[test]
    fn regime_shifts_draw_no_randomness() {
        // With noise on, the RNG sequence must be unchanged by shifts: the
        // noise flips of unaffected sensors land on the same samples.
        let base = PlantConfig::small(8, 2);
        let shifted = PlantConfig {
            regime_shifts: vec![RegimeShift {
                at_sample: 500,
                sensors: vec![1],
                lag_delta: 9,
            }],
            ..base.clone()
        };
        let a = generate(&base);
        let b = generate(&shifted);
        for i in (0..8).filter(|&i| i != 1) {
            assert_eq!(a.traces[i], b.traces[i], "sensor {i} RNG stream moved");
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn regime_shift_on_unknown_sensor_panics() {
        let cfg = PlantConfig {
            regime_shifts: vec![RegimeShift {
                at_sample: 0,
                sensors: vec![99],
                lag_delta: 1,
            }],
            ..PlantConfig::small(4, 1)
        };
        let _ = generate(&cfg);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = PlantConfig::small(8, 2);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn day_ranges() {
        let data = generate(&PlantConfig::small(4, 3));
        assert_eq!(data.day_range(1), 0..1440);
        assert_eq!(data.day_range(3), 2880..4320);
        assert_eq!(data.days_range(1, 2), 0..2880);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn day_range_out_of_bounds_panics() {
        let data = generate(&PlantConfig::small(4, 3));
        let _ = data.day_range(4);
    }

    #[test]
    fn representatives_exist_and_rare_is_mostly_constant() {
        let data = generate(&PlantConfig::small(32, 2));
        let rare = data.representative_rare().expect("rare sensor");
        let events = &data.traces[rare].events;
        let off = events.iter().filter(|e| *e == "OFF").count() as f64 / events.len() as f64;
        assert!(
            off > 0.8,
            "rare-event sensor should be mostly OFF, got {off}"
        );
        assert!(data.representative_periodic().is_some());
    }
}
