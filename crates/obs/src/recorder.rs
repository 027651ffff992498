//! Aggregation backend: counters, log-scale histograms, JSONL sink.

use crate::Value;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Number of log2 buckets. Bucket `i` holds values in `[2^(i-1), 2^i)`
/// (bucket 0 holds `< 1`), so 64 buckets cover any f64 latency in µs.
const BUCKETS: usize = 64;

/// A log-scale histogram: exact count/sum/min/max plus log2 buckets for
/// approximate percentiles. Values are unitless; latency series use µs.
#[derive(Clone, Debug)]
struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(value: f64) -> usize {
        if value < 1.0 {
            return 0;
        }
        // log2(value) + 1, clamped into the table.
        ((value.log2() as usize) + 1).min(BUCKETS - 1)
    }

    fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Approximate quantile: walks buckets to the one containing rank
    /// `q * count` and returns that bucket's upper edge (within 2x of the
    /// true value by construction).
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 { 1.0 } else { (1u64 << i) as f64 };
                // Never report an estimate outside the observed range.
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_owned(),
            count: self.count,
            sum: self.sum,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum / self.count as f64
            },
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.5),
            p95: self.quantile(0.95),
        }
    }
}

/// A point-in-time view of one histogram, as returned by
/// [`Recorder::histogram`]. Percentiles are approximate (log2-bucket
/// resolution, within 2x); `mean`/`min`/`max` are exact.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Series name.
    pub name: String,
    /// Number of recorded observations.
    pub count: u64,
    /// Exact sum of observations (exact for integer-valued observations
    /// summing below 2^53, such as counts per event).
    pub sum: f64,
    /// Exact arithmetic mean of observations.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Approximate median.
    pub p50: f64,
    /// Approximate 95th percentile.
    pub p95: f64,
}

/// Aggregating metrics recorder; see the crate docs for the model.
///
/// Thread-safe: counters and histograms live behind one mutex (instrumented
/// paths hold it for a few arithmetic ops), the optional JSONL sink behind
/// another so slow disk writes never serialize metric updates.
pub struct Recorder {
    metrics: Mutex<Metrics>,
    sink: Option<Mutex<BufWriter<File>>>,
}

#[derive(Default)]
struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An in-memory recorder: counters + histograms, no JSONL output.
    pub fn new() -> Self {
        Recorder {
            metrics: Mutex::new(Metrics::default()),
            sink: None,
        }
    }

    /// A recorder that additionally streams spans and events to `path` as
    /// JSON Lines (see DESIGN.md §10 for the schema). The file is truncated.
    pub fn with_jsonl_path(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Recorder {
            metrics: Mutex::new(Metrics::default()),
            sink: Some(Mutex::new(BufWriter::new(file))),
        })
    }

    /// Adds `delta` to counter `name`.
    pub fn counter(&self, name: &'static str, delta: u64) {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        *m.counters.entry(name).or_insert(0) += delta;
    }

    /// Records `value` into histogram `name`. Non-finite values are dropped.
    pub fn observe(&self, name: &'static str, value: f64) {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        m.histograms
            .entry(name)
            .or_insert_with(Histogram::new)
            .record(value);
    }

    /// Records a discrete event: bumps the counter of the same name and,
    /// when a sink is configured, writes one `"kind":"event"` JSONL line.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, Value)]) {
        self.counter(name, 1);
        self.write_line("event", name, None, fields);
    }

    /// Called by the [`crate::Span`] guard on drop: records the duration
    /// into the histogram of the span's name and writes one
    /// `"kind":"span"` JSONL line with the attached fields.
    pub(crate) fn span_end(&self, name: &'static str, us: f64, fields: &[(&'static str, Value)]) {
        self.observe(name, us);
        self.write_line("span", name, Some(us), fields);
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        m.counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of histogram `name`, or `None` if nothing was recorded.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        m.histograms.get(name).map(|h| h.snapshot(name))
    }

    /// Names of all counters with at least one increment, sorted.
    pub fn counter_names(&self) -> Vec<String> {
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        m.counters.keys().map(|k| (*k).to_owned()).collect()
    }

    /// Flushes the JSONL sink, if any.
    pub fn flush(&self) -> io::Result<()> {
        if let Some(sink) = &self.sink {
            sink.lock().unwrap_or_else(|e| e.into_inner()).flush()?;
        }
        Ok(())
    }

    /// Human-readable dump of every counter and histogram, for printing at
    /// the end of a run (see README "Observability" for an example).
    pub fn report(&self) -> String {
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        out.push_str("== counters ==\n");
        if m.counters.is_empty() {
            out.push_str("  (none)\n");
        }
        for (name, value) in &m.counters {
            out.push_str(&format!("  {name:<28} {value}\n"));
        }
        out.push_str("== histograms (us) ==\n");
        if m.histograms.is_empty() {
            out.push_str("  (none)\n");
        }
        out.push_str(&format!(
            "  {:<28} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "name", "count", "mean", "p50", "p95", "max"
        ));
        for (name, h) in &m.histograms {
            let s = h.snapshot(name);
            out.push_str(&format!(
                "  {:<28} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
                name, s.count, s.mean, s.p50, s.p95, s.max
            ));
        }
        out
    }

    fn write_line(
        &self,
        kind: &str,
        name: &'static str,
        us: Option<f64>,
        fields: &[(&'static str, Value)],
    ) {
        let Some(sink) = &self.sink else { return };
        let mut line = String::with_capacity(96);
        line.push_str("{\"kind\":\"");
        line.push_str(kind);
        line.push_str("\",\"name\":\"");
        line.push_str(name);
        line.push('"');
        if let Some(us) = us {
            line.push_str(&format!(",\"us\":{us:.1}"));
        }
        for (key, value) in fields {
            line.push(',');
            push_json_str(&mut line, key);
            line.push(':');
            push_json_value(&mut line, value);
        }
        line.push_str("}\n");
        let mut w = sink.lock().unwrap_or_else(|e| e.into_inner());
        // A full disk must never take the pipeline down with it.
        let _ = w.write_all(line.as_bytes());
    }
}

/// Appends `s` as a JSON string literal (quotes + escapes).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::F64(v) if v.is_finite() => out.push_str(&format!("{v}")),
        Value::F64(_) => out.push_str("null"),
        Value::Str(s) => push_json_str(out, s),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_observations() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0] {
            h.record(v);
        }
        let s = h.snapshot("t");
        assert_eq!(s.count, 10);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 512.0);
        assert_eq!(s.sum, 1023.0);
        assert!((s.mean - 102.3).abs() < 0.1);
        // Log2-bucket estimates: within 2x of the true percentiles.
        assert!(s.p50 >= 8.0 && s.p50 <= 64.0, "p50 = {}", s.p50);
        assert!(s.p95 >= 256.0 && s.p95 <= 512.0, "p95 = {}", s.p95);
    }

    #[test]
    fn histogram_ignores_non_finite_and_handles_extremes() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count, 0);
        h.record(0.0);
        h.record(1e30); // clamps into the last bucket
        assert_eq!(h.count, 2);
        let s = h.snapshot("t");
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 1e30);
        assert!(s.p95 <= 1e30);
    }

    #[test]
    fn jsonl_sink_escapes_and_reconciles() {
        let dir = std::env::temp_dir().join(format!("mdes_obs_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let r = Recorder::with_jsonl_path(&path).unwrap();
        r.event(
            "t.sink",
            &[
                ("msg", Value::Str("a\"b\\c\nd".to_owned())),
                ("n", Value::U64(7)),
                ("x", Value::F64(f64::NAN)),
                ("ok", Value::Bool(true)),
            ],
        );
        r.span_end("t.sink_span", 12.34, &[("i", Value::I64(-3))]);
        r.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"kind\":\"event\",\"name\":\"t.sink\",\"msg\":\"a\\\"b\\\\c\\nd\",\"n\":7,\"x\":null,\"ok\":true}"
        );
        assert_eq!(
            lines[1],
            "{\"kind\":\"span\",\"name\":\"t.sink_span\",\"us\":12.3,\"i\":-3}"
        );
        // The event also bumped its counter; the span fed its histogram.
        assert_eq!(r.counter_value("t.sink"), 1);
        assert_eq!(r.histogram("t.sink_span").unwrap().count, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_lists_everything() {
        let r = Recorder::new();
        r.counter("b.second", 2);
        r.counter("a.first", 1);
        r.observe("lat_us", 100.0);
        let report = r.report();
        let a = report.find("a.first").unwrap();
        let b = report.find("b.second").unwrap();
        assert!(a < b, "counters sorted by name");
        assert!(report.contains("lat_us"));
        assert!(report.contains("== histograms (us) =="));
    }
}
