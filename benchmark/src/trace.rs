//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer:
//! name, start, end, the span that caused it and a request identifier.
//! Spans stay in memory and are written as one JSON file when the run
//! ends; the per-layer metrics are derived from them (mean duration per
//! covered call, and self time = duration minus the part covered by
//! child spans).
//!
//! A span may cover a tight loop of `calls` identical calls instead of
//! one: two clock reads cost about as much as a B⁺-tree lookup, so
//! nanosecond-scale layers are timed in bulk and divided.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
    calls: u64,
}

/// The recorder. One per run, owned by the thread that drives the load.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span. `request` groups the spans of one request (a batch
    /// index, an operation index); setup spans use 0.
    pub fn start(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            request,
            calls: 1,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span that covered one call.
    pub fn end(&mut self, id: SpanId) {
        self.end_calls(id, 1);
    }

    /// Closes a span that covered `calls` identical calls.
    pub fn end_calls(&mut self, id: SpanId, calls: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        span.calls = calls;
    }

    /// Runs `f` inside a one-call span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.start(name, parent, request);
        let r = f();
        self.end(id);
        r
    }

    /// Total nanoseconds and covered calls over all spans named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, calls), s| {
                (ns + (s.end_ns - s.start_ns), calls + s.calls)
            })
    }

    /// Mean nanoseconds per covered call of the spans named `name`
    /// (0 when none were recorded).
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.totals(name) {
            (_, 0) => 0.0,
            (ns, calls) => ns as f64 / calls as f64,
        }
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover, summed by name.
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes every span plus the per-name self times to `path`.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\": {}, \"unit\": \"ns\",",
            json::quote(workload)
        )?;
        writeln!(w, "\"self_time_ns\": {{")?;
        let selfs = self.self_times_ns();
        for (i, (name, ns)) in selfs.iter().enumerate() {
            let comma = if i + 1 < selfs.len() { "," } else { "" };
            writeln!(w, "  {}: {ns}{comma}", json::quote(name))?;
        }
        writeln!(w, "}},\n\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "  {{\"id\": {i}, \"name\": {}, \"start\": {}, \"end\": {}, \"parent\": {parent}, \"request\": {}, \"calls\": {}}}{comma}",
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                s.request,
                s.calls
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let outer = t.start("outer", None, 7);
        let inner = t.start("inner", Some(outer), 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let selfs = t.self_times_ns();
        let (outer_total, _) = t.totals("outer");
        let (inner_total, _) = t.totals("inner");
        assert_eq!(selfs["inner"], inner_total);
        assert_eq!(selfs["outer"], outer_total - inner_total);
        assert!(inner_total >= 2_000_000);
    }

    #[test]
    fn bulk_spans_divide_by_calls() {
        let mut t = Tracer::new();
        let id = t.start("loop", None, 0);
        t.end_calls(id, 1000);
        assert_eq!(t.totals("loop").1, 1000);
        assert!(t.mean_ns("loop") < 1e6);
        assert_eq!(t.mean_ns("absent"), 0.0);
    }
}
