//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it; all
//! spans of one operation share the operation id. Spans stay in memory
//! and are written out as JSON lines when the run ends. A disabled
//! tracer runs the same calls and records nothing: the base the tracing
//! overhead is measured against.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span log of one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A tracer that records nothing.
    pub fn disabled(origin: Instant) -> Self {
        Self {
            enabled: false,
            ..Self::new(origin)
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, op: u64, parent: Option<usize>, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            id: 0,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        if !self.enabled {
            return;
        }
        self.spans[span].end_ns = self.now_ns();
    }

    /// Record a span whose bounds were taken elsewhere.
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            op,
            id: 0,
            parent,
            name,
            start_ns: at(start),
            end_ns: at(end),
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.begin(op, parent, name);
        let out = f();
        self.end(span);
        out
    }

    /// Append another thread's spans (ids are renumbered on write-out).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Durations in µs of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Median duration in µs per span name.
    pub fn medians_us(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            by_name.entry(s.name).or_default().push(s.dur_us());
        }
        by_name
            .into_iter()
            .map(|(k, v)| (k, crate::stats::median(&v)))
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&mut self, path: &Path) -> std::io::Result<()> {
        for (i, s) in self.spans.iter_mut().enumerate() {
            s.id = i;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_operation_id() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin(7, None, "op");
        t.time(7, Some(root), "child", || std::hint::black_box(1 + 1));
        t.end(root);
        let mut other = Tracer::new(Instant::now());
        other.time(8, None, "op", || ());
        t.absorb(other);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 7);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        assert_eq!(t.durations_us("op").len(), 2);
        assert!(t.medians_us().contains_key("child"));
    }

    #[test]
    fn a_disabled_tracer_runs_the_calls_and_records_nothing() {
        let mut t = Tracer::disabled(Instant::now());
        let root = t.begin(1, None, "op");
        assert_eq!(t.time(1, Some(root), "child", || 41 + 1), 42);
        t.record(1, Some(root), "late", Instant::now(), Instant::now());
        t.end(root);
        assert!(t.spans.is_empty());
    }
}
