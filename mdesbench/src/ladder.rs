//! The fixed geometric rate ladder and the bisection that finds the highest
//! rung a workload sustains.

/// Largest allowed step between neighbouring rungs (10 %).
pub const MAX_STEP: f64 = 1.10;

/// Rates `lo · step^i` for `i` in `0..rungs`.
#[derive(Clone, Copy, Debug)]
pub struct Ladder {
    lo: f64,
    step: f64,
    rungs: usize,
}

impl Ladder {
    /// The ladder from `lo` up to at least `hi` in steps of `step`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi` and `1 < step <= MAX_STEP`: the ladder is
    /// fixed per workload, so a bad one is a bug in the benchmark.
    pub fn new(lo: f64, hi: f64, step: f64) -> Self {
        assert!(0.0 < lo && lo < hi, "ladder needs 0 < lo < hi");
        assert!(
            1.0 < step && step <= MAX_STEP,
            "ladder step must be in (1, 1.1]"
        );
        let rungs = ((hi / lo).ln() / step.ln()).ceil() as usize + 1;
        Self { lo, step, rungs }
    }

    pub fn rungs(&self) -> usize {
        self.rungs
    }

    pub fn rate(&self, rung: usize) -> f64 {
        self.lo * self.step.powi(rung as i32)
    }

    /// Trials bisection makes in the worst case.
    pub fn max_trials(&self) -> usize {
        (usize::BITS - self.rungs.leading_zeros()) as usize
    }
}

/// The highest rung in `0..rungs` for which `meets` holds, assuming every
/// rung below a passing one passes too. `None` when rung 0 fails. Calls
/// `meets` at most `ceil(log2(rungs + 1))` times.
pub fn bisect(rungs: usize, mut meets: impl FnMut(usize) -> bool) -> Option<usize> {
    // Invariant: every rung below `lo` passes, every rung from `hi` fails.
    let (mut lo, mut hi) = (0, rungs);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if meets(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo.checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_every_threshold_within_the_trial_budget() {
        for rungs in [1usize, 2, 3, 7, 8, 54, 64] {
            let ladder_trials = (usize::BITS - rungs.leading_zeros()) as usize;
            for last_pass in -1..rungs as i64 {
                let mut calls = Vec::new();
                let found = bisect(rungs, |r| {
                    calls.push(r);
                    (r as i64) <= last_pass
                });
                assert_eq!(found.map(|r| r as i64).unwrap_or(-1), last_pass);
                assert!(calls.len() <= ladder_trials, "{rungs} rungs: {calls:?}");
                let mut unique = calls.clone();
                unique.dedup();
                assert_eq!(unique.len(), calls.len(), "no rung is tried twice");
            }
        }
    }

    #[test]
    fn empty_ladder_has_no_rate() {
        assert_eq!(bisect(0, |_| true), None);
    }

    #[test]
    fn ladder_is_geometric_and_covers_its_span() {
        let l = Ladder::new(500.0, 40_000.0, 1.08);
        assert!(l.rate(l.rungs() - 1) >= 40_000.0);
        assert!(l.rate(l.rungs() - 2) < 40_000.0);
        for r in 1..l.rungs() {
            let ratio = l.rate(r) / l.rate(r - 1);
            assert!((ratio - 1.08).abs() < 1e-9 && ratio <= MAX_STEP);
        }
        assert_eq!(l.max_trials(), 6);
    }

    #[test]
    #[should_panic(expected = "ladder step")]
    fn steps_wider_than_ten_percent_are_refused() {
        let _ = Ladder::new(1.0, 10.0, 1.2);
    }
}
