//! One quantile definition for every reported percentile.
//!
//! `mdes_core::ScoreDist` (nearest rank over a total order) already serves
//! the bench records and the canary gate. Its summary stops at p95, so the
//! tail percentile here applies the same rank rule, `sorted[round(q·(n−1))]`;
//! the tests pin it to `ScoreDist` at the ranks `ScoreDist` reports.

use mdes_core::ScoreDist;

/// A tail percentile is published only when at least this many samples lie
/// beyond it; with fewer, the number is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Samples per chunk for a chunked tail: the fewest that leave
/// [`MIN_BEYOND`] samples beyond a p99.
pub const CHUNK: usize = 1000;

/// A tail percentile measured chunk by chunk: the samples (in time order)
/// are cut into consecutive chunks of at least [`CHUNK`], and the result is
/// the median of the chunks' percentiles. One stall then moves one chunk,
/// not the reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkedTail {
    pub value: f64,
    pub per_chunk: Vec<Pct>,
}

/// `None` when there are too few samples for one chunk.
pub fn chunked_tail(in_time_order: &[f64], q: f64) -> Option<ChunkedTail> {
    let chunks = in_time_order.len() / CHUNK;
    if chunks == 0 {
        return None;
    }
    let per_chunk: Vec<Pct> = (0..chunks)
        .map(|c| {
            let end = if c + 1 == chunks {
                in_time_order.len()
            } else {
                (c + 1) * CHUNK
            };
            Dist::new(&in_time_order[c * CHUNK..end]).tail(q)
        })
        .collect::<Option<_>>()?;
    let values: Vec<f64> = per_chunk.iter().map(|p| p.value).collect();
    let value = Dist::new(&values).median()?.value;
    Some(ChunkedTail { value, per_chunk })
}

/// A percentile together with the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub count: usize,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
}

/// Samples sorted once, queried for any number of percentiles.
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self { sorted }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile `q` in `[0, 1]`; `None` on no samples.
    pub fn pct(&self, q: f64) -> Option<Pct> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * (n - 1) as f64).round() as usize).min(n - 1);
        Some(Pct {
            value: self.sorted[rank],
            count: n,
            beyond: n - 1 - rank,
        })
    }

    /// Like [`Dist::pct`], but `None` unless [`MIN_BEYOND`] samples lie
    /// beyond the rank.
    pub fn tail(&self, q: f64) -> Option<Pct> {
        self.pct(q).filter(|p| p.beyond >= MIN_BEYOND)
    }

    /// The median, computed by `ScoreDist` itself.
    pub fn median(&self) -> Option<Pct> {
        if self.sorted.is_empty() {
            return None;
        }
        let p50 = ScoreDist::from_samples(&self.sorted).summary().p50;
        self.pct(0.5).map(|p| Pct { value: p50, ..p })
    }
}

/// Formats a percentile with its sample count for the human-readable lines.
pub fn show(label: &str, p: Option<Pct>, unit: &str) -> String {
    match p {
        Some(p) => format!(
            "{label} = {:.4} {unit} (n={}, {} beyond)",
            p.value, p.count, p.beyond
        ),
        None => format!("{label} = unavailable (too few samples)"),
    }
}

/// Formats a chunked tail with every chunk's count.
pub fn show_chunked(label: &str, t: Option<&ChunkedTail>, unit: &str) -> String {
    match t {
        Some(t) => {
            let chunks: Vec<String> = t
                .per_chunk
                .iter()
                .map(|p| format!("{:.3} (n={}, {} beyond)", p.value, p.count, p.beyond))
                .collect();
            format!(
                "{label} = {:.4} {unit}, median of {} chunks: {}",
                t.value,
                chunks.len(),
                chunks.join(", ")
            )
        }
        None => format!("{label} = unavailable (fewer than {CHUNK} samples)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64 * 100.0
            })
            .collect()
    }

    #[test]
    fn rank_rule_matches_score_dist() {
        for (seed, n) in [(1, 1), (2, 2), (3, 7), (4, 100), (5, 1001), (6, 4096)] {
            let xs = lcg(seed, n);
            let d = Dist::new(&xs);
            let s = ScoreDist::from_samples(&xs).summary();
            assert_eq!(d.pct(0.5).unwrap().value.to_bits(), s.p50.to_bits());
            assert_eq!(d.pct(0.95).unwrap().value.to_bits(), s.p95.to_bits());
            assert_eq!(d.pct(0.0).unwrap().value.to_bits(), s.min.to_bits());
            assert_eq!(d.pct(1.0).unwrap().value.to_bits(), s.max.to_bits());
            assert_eq!(d.median().unwrap().value.to_bits(), s.p50.to_bits());
        }
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // round(0.99 · (n − 1)) leaves n − 1 − rank samples beyond the rank.
        let beyond = |n: usize| Dist::new(&lcg(9, n)).pct(0.99).unwrap().beyond;
        assert_eq!(beyond(100), 1);
        assert_eq!(beyond(1000), 10);
        assert!(Dist::new(&lcg(9, 100)).tail(0.99).is_none());
        assert!(Dist::new(&lcg(9, 1000)).tail(0.99).is_some());
        assert!(Dist::new(&lcg(9, 950)).tail(0.99).is_none());
        // A median over three samples has one beyond it: not a tail.
        assert!(Dist::new(&[1.0, 2.0, 3.0]).tail(0.5).is_none());
        assert!(Dist::new(&[]).pct(0.5).is_none());
    }

    #[test]
    fn chunked_tail_takes_the_median_chunk() {
        assert!(chunked_tail(&lcg(1, CHUNK - 1), 0.99).is_none());
        // Three chunks; a stall inflates only the middle one.
        let mut xs = lcg(2, 3 * CHUNK + 500);
        for x in &mut xs[CHUNK..CHUNK + 100] {
            *x += 1000.0;
        }
        let t = chunked_tail(&xs, 0.99).unwrap();
        assert_eq!(t.per_chunk.len(), 3);
        assert_eq!(
            t.per_chunk[2].count,
            CHUNK + 500,
            "the remainder joins the last chunk"
        );
        assert!(t.per_chunk[1].value > 1000.0);
        assert!(t.value < 100.0, "the stalled chunk does not set the value");
        assert!(t.per_chunk.iter().all(|p| p.beyond >= MIN_BEYOND));
        assert!(show_chunked("x", Some(&t), "ms").contains("3 chunks"));
    }

    #[test]
    fn percentile_reports_its_count() {
        let d = Dist::new(&lcg(3, 2000));
        let p = d.tail(0.99).unwrap();
        assert_eq!(p.count, 2000);
        assert_eq!(p.beyond, 2000 - 1 - (0.99f64 * 1999.0).round() as usize);
        assert!(show("x", Some(p), "ms").contains("n=2000"));
        assert!(show("x", None, "ms").contains("unavailable"));
    }
}
