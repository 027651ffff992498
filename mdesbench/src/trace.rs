//! The benchmark's own span recorder for the traced run.
//!
//! Spans are opened around calls into each layer's public functions from
//! this crate's files, kept in memory, and written out as JSONL when the run
//! ends. A disabled tracer (the untraced run) hands out inert guards that
//! read no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `(session, seq)` of the request the span served, where there is one.
    pub req: Option<(u64, u64)>,
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

/// An open span; recorded when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
    req: Option<(u64, u64)>,
}

impl Guard<'_> {
    /// The id children pass as their parent (`None` when tracing is off).
    pub fn id(&self) -> Option<u32> {
        self.tracer.enabled.then_some(self.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.tracer.enabled {
            let rec = SpanRec {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns: self.tracer.now_ns(),
                req: self.req,
            };
            self.tracer
                .spans
                .lock()
                .expect("span store poisoned by a panicking recorder")
                .push(rec);
        }
    }
}

/// Per-name aggregate over finished spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn span(
        &self,
        name: &'static str,
        parent: Option<u32>,
        req: Option<(u64, u64)>,
    ) -> Guard<'_> {
        let (id, start_ns) = if self.enabled {
            (self.next.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        Guard {
            tracer: self,
            id,
            parent,
            name,
            start_ns,
            req,
        }
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .clone()
    }

    /// Count, total and self time per span name. A span's self time is its
    /// duration minus the part of it that its children's spans cover.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        self_times(&self.spans())
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let req = s
                .req
                .map_or("null".to_owned(), |(a, b)| format!("\"{a}/{b}\""));
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{req}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |iv| union_within(iv, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: Option<u32>, name: &'static str, a: u64, b: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            rec(1, None, "round", 0, 100),
            rec(2, Some(1), "decode", 10, 40),
            rec(3, Some(1), "decode", 30, 50), // overlaps the first child
            rec(4, Some(1), "bleu", 90, 120),  // runs past its parent
        ];
        let t = self_times(&spans);
        assert_eq!(t["round"].self_ns, 100 - 40 - 10);
        assert_eq!(t["decode"].count, 2);
        assert_eq!(t["decode"].total_ns, 50);
        assert_eq!(t["bleu"].self_ns, 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        {
            let g = tr.span("x", None, Some((1, 2)));
            assert_eq!(g.id(), None);
        }
        assert!(tr.spans().is_empty());
        let tr = Tracer::new(true);
        {
            let outer = tr.span("outer", None, None);
            let _inner = tr.span("inner", outer.id(), Some((3, 4)));
        }
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.req, Some((3, 4)));
    }
}
