//! Metrics registry and per-operation I/O profiles.
//!
//! The paper's entire evaluation is stated in one currency — "the number
//! of data pages accessed per operation" (§4) — and [`crate::IoStats`]
//! holds the raw counters. This module adds the observability layer on
//! top:
//!
//! * [`MetricsRegistry`] — a lightweight named-metric store (monotonic
//!   counters, gauges, fixed-bucket histograms) with a dependency-free
//!   JSON dump, so benchmarks and the CLI can export machine-readable
//!   trajectories (`--metrics-json`).
//! * [`OpProfile`] / [`PageEvent`] — the ordered `(page, hit|miss|write)`
//!   sequence of one access-method operation, recorded by the buffer
//!   pool while an operation *span* ([`OpSpan`]) is open. A profile is
//!   the observable counterpart of the cost model's per-operation
//!   prediction: `Get-successors()` on a file with CRR α should touch
//!   about `(1−α)·|A|` distinct pages, and the profile shows exactly
//!   which ones.
//! * [`trace_event!`](crate::trace_event) — optional span/event logging
//!   for WAL commits, retries, checksum failures and evictions, compiled
//!   in by the `trace` cargo feature and switched on at runtime with
//!   `CCAM_TRACE=1`.
//!
//! Everything here is deliberately allocation-light and lock-cheap:
//! profiling is off by default, and when off the buffer pool pays one
//! relaxed atomic load per page access.

use std::collections::BTreeMap;
use std::fmt;

use parking_lot::Mutex;

use crate::page::PageId;
use crate::stats::IoSnapshot;

// ---------------------------------------------------------------------------
// Page events & operation profiles
// ---------------------------------------------------------------------------

/// How one page request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageAccessKind {
    /// Request satisfied from the buffer pool (free under the paper's
    /// cost model).
    Hit,
    /// Page fetched from the store — one counted data-page access.
    Miss,
    /// Dirty page written back to the store.
    Write,
    /// Page speculatively fetched by the connectivity-aware prefetcher
    /// (counted as a physical read; never happens with prefetch off).
    Prefetch,
}

impl fmt::Display for PageAccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PageAccessKind::Hit => "hit",
            PageAccessKind::Miss => "miss",
            PageAccessKind::Write => "write",
            PageAccessKind::Prefetch => "prefetch",
        })
    }
}

/// One entry in an operation's ordered page-access trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEvent {
    /// The data page touched.
    pub page: PageId,
    /// How the request was satisfied.
    pub kind: PageAccessKind,
}

/// The I/O profile of one access-method operation: the ordered page
/// events observed between span open and close, plus the counter deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Operation name (`"find"`, `"get_successors"`, ...).
    pub op: String,
    /// Ordered `(page, kind)` events.
    pub events: Vec<PageEvent>,
    /// Counter deltas accumulated while the span was open.
    pub io: IoSnapshot,
    /// Wall-clock duration of the span in microseconds.
    pub elapsed_us: u64,
}

impl OpProfile {
    /// Data-page accesses in the paper's sense (physical reads).
    pub fn data_page_accesses(&self) -> u64 {
        self.io.physical_reads
    }

    /// The trace as one line: `"12:miss 12:hit 47:miss"`.
    pub fn trace_string(&self) -> String {
        let parts: Vec<String> = self
            .events
            .iter()
            .map(|e| format!("{}:{}", e.page.0, e.kind))
            .collect();
        parts.join(" ")
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Default histogram bucket bounds: powers of two up to 64 Ki. Suits
/// both page-access counts (single digits on a healthy file) and
/// microsecond latencies.
pub const DEFAULT_BUCKETS: [u64; 17] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

/// A fixed-bucket histogram (`counts[i]` = observations `<= bounds[i]`,
/// with one implicit overflow bucket).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(&DEFAULT_BUCKETS)
    }
}

impl Histogram {
    /// A histogram over ascending `bounds` (plus an implicit `+Inf`
    /// overflow bucket).
    pub fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!(
            "\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.6},\"buckets\":[",
            self.count,
            self.sum,
            self.max,
            self.mean()
        ));
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let le = self
                .bounds
                .get(i)
                .map(|b| b.to_string())
                .unwrap_or_else(|| "\"+Inf\"".into());
            s.push_str(&format!("{{\"le\":{le},\"count\":{c}}}"));
        }
        s.push_str("]}");
        s
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A named-metric store: monotonic counters, gauges and fixed-bucket
/// histograms, dumpable as JSON with no external dependencies.
///
/// Names are dotted paths by convention (`io.physical_reads`,
/// `op.find.data_page_accesses`); the registry imposes no schema.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &*self.counters.lock())
            .field("gauges", &*self.gauges.lock())
            .finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `by` to counter `name` (created at zero).
    ///
    /// Like [`set_gauge`](Self::set_gauge) and [`observe`](Self::observe),
    /// this looks the name up by `&str` and allocates its key only on the
    /// first call: a served batch makes a couple of dozen such calls.
    pub fn inc_by(&self, name: &str, by: u64) {
        let mut c = self.counters.lock();
        match c.get_mut(name) {
            Some(v) => *v += by,
            None => {
                c.insert(name.to_string(), by);
            }
        }
    }

    /// Adds one to counter `name`.
    pub fn inc(&self, name: &str) {
        self.inc_by(name, 1);
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.lock().get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut g = self.gauges.lock();
        match g.get_mut(name) {
            Some(v) => *v = value,
            None => {
                g.insert(name.to_string(), value);
            }
        }
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.lock().get(name).copied()
    }

    /// Records `value` into histogram `name` (created with
    /// [`DEFAULT_BUCKETS`]).
    pub fn observe(&self, name: &str, value: u64) {
        let mut h = self.histograms.lock();
        match h.get_mut(name) {
            Some(hist) => hist.observe(value),
            None => h.entry(name.to_string()).or_default().observe(value),
        }
    }

    /// A copy of histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms.lock().get(name).cloned()
    }

    /// Imports an [`IoSnapshot`] as `"<prefix>.<field>"` counters — the
    /// bridge that subsumes [`crate::IoStats`] into the registry.
    pub fn merge_io(&self, prefix: &str, snap: &IoSnapshot) {
        for (field, value) in [
            ("physical_reads", snap.physical_reads),
            ("physical_writes", snap.physical_writes),
            ("buffer_hits", snap.buffer_hits),
            ("allocations", snap.allocations),
            ("frees", snap.frees),
            ("syncs", snap.syncs),
            ("retries", snap.retries),
            ("checksum_failures", snap.checksum_failures),
            ("evictions", snap.evictions),
            ("prefetch_issued", snap.prefetch_issued),
        ] {
            self.inc_by(&format!("{prefix}.{field}"), value);
        }
    }

    /// Folds operation profiles into per-class metrics:
    /// `op.<name>.count` counters plus `op.<name>.data_page_accesses`,
    /// `op.<name>.page_writes` and `op.<name>.elapsed_us` histograms.
    pub fn record_profiles(&self, profiles: &[OpProfile]) {
        for p in profiles {
            self.inc(&format!("op.{}.count", p.op));
            self.observe(
                &format!("op.{}.data_page_accesses", p.op),
                p.data_page_accesses(),
            );
            self.observe(&format!("op.{}.page_writes", p.op), p.io.physical_writes);
            self.observe(&format!("op.{}.elapsed_us", p.op), p.elapsed_us);
        }
    }

    /// Serialises the whole registry as a JSON object with `counters`,
    /// `gauges` and `histograms` sections (keys sorted, stable across
    /// runs — bench trajectories diff cleanly).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        let counters = self.counters.lock();
        for (i, (k, v)) in counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {v}", json_string(k)));
        }
        drop(counters);
        s.push_str("\n  },\n  \"gauges\": {");
        let gauges = self.gauges.lock();
        for (i, (k, v)) in gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {}", json_string(k), json_f64(*v)));
        }
        drop(gauges);
        s.push_str("\n  },\n  \"histograms\": {");
        let hists = self.histograms.lock();
        for (i, (k, h)) in hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {}", json_string(k), h.to_json()));
        }
        drop(hists);
        s.push_str("\n  }\n}\n");
        s
    }
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out
}

/// Formats a float as JSON (no NaN/Inf literals — those serialise as
/// null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

// ---------------------------------------------------------------------------
// Trace events (feature = "trace")
// ---------------------------------------------------------------------------

/// True when trace output is enabled (compiled in via the `trace`
/// feature *and* switched on with the `CCAM_TRACE=1` environment
/// variable). Always false without the feature.
pub fn trace_enabled() -> bool {
    #[cfg(feature = "trace")]
    {
        use std::sync::OnceLock;
        static ON: OnceLock<bool> = OnceLock::new();
        *ON.get_or_init(|| {
            std::env::var("CCAM_TRACE").map(|v| v != "0" && !v.is_empty()) == Ok(true)
        })
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

/// Emits one trace line to stderr when tracing is enabled: used for WAL
/// commits, retry attempts, checksum failures and evictions. Compiles to
/// nothing without the `trace` feature.
#[macro_export]
macro_rules! trace_event {
    ($target:expr, $($arg:tt)*) => {
        #[cfg(feature = "trace")]
        {
            if $crate::metrics::trace_enabled() {
                eprintln!("[ccam::{}] {}", $target, format_args!($($arg)*));
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = MetricsRegistry::new();
        r.inc("a.b");
        r.inc_by("a.b", 2);
        r.set_gauge("crr", 0.75);
        assert_eq!(r.counter("a.b"), 3);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("crr"), Some(0.75));
    }

    /// The key is allocated on the first call only; later calls through a
    /// borrowed name find that entry and add to it.
    #[test]
    fn repeated_calls_with_a_borrowed_name_share_one_entry() {
        let r = MetricsRegistry::new();
        for i in 0..3u64 {
            let name = format!("serve.{}", "batches");
            r.inc_by(&name, i + 1);
            r.observe(&name, i);
            r.set_gauge(&name, i as f64);
        }
        assert_eq!(r.counter("serve.batches"), 6);
        assert_eq!(r.histogram("serve.batches").map(|h| h.sum()), Some(3));
        assert_eq!(r.gauge("serve.batches"), Some(2.0));
        let sizes = (
            r.counters.lock().len(),
            r.gauges.lock().len(),
            r.histograms.lock().len(),
        );
        assert_eq!(sizes, (1, 1, 1));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(&[1, 4, 16]);
        for v in [0, 1, 2, 5, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 108);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.6).abs() < 1e-9);
        // counts: <=1: {0,1}, <=4: {2}, <=16: {5}, +Inf: {100}
        assert_eq!(h.counts, vec![2, 1, 1, 1]);
    }

    #[test]
    fn merge_io_prefixes_every_field() {
        let r = MetricsRegistry::new();
        let snap = IoSnapshot {
            physical_reads: 7,
            physical_writes: 3,
            buffer_hits: 11,
            ..IoSnapshot::default()
        };
        r.merge_io("io", &snap);
        assert_eq!(r.counter("io.physical_reads"), 7);
        assert_eq!(r.counter("io.physical_writes"), 3);
        assert_eq!(r.counter("io.buffer_hits"), 11);
        assert_eq!(r.counter("io.retries"), 0);
    }

    #[test]
    fn profiles_fold_into_per_class_metrics() {
        let r = MetricsRegistry::new();
        let p = OpProfile {
            op: "find".into(),
            events: vec![PageEvent {
                page: PageId(3),
                kind: PageAccessKind::Miss,
            }],
            io: IoSnapshot {
                physical_reads: 1,
                ..IoSnapshot::default()
            },
            elapsed_us: 12,
        };
        r.record_profiles(&[p.clone(), p]);
        assert_eq!(r.counter("op.find.count"), 2);
        let h = r.histogram("op.find.data_page_accesses").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 2);
    }

    #[test]
    fn json_dump_is_well_formed_enough() {
        let r = MetricsRegistry::new();
        r.inc_by("io.physical_reads", 5);
        r.set_gauge("crr", 0.5);
        r.observe("op.find.data_page_accesses", 2);
        let j = r.to_json();
        assert!(j.contains("\"io.physical_reads\": 5"));
        assert!(j.contains("\"crr\": 0.5"));
        assert!(j.contains("\"buckets\":["));
        // Balanced braces/brackets (cheap well-formedness proxy).
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces in {j}"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn trace_string_renders_ordered_events() {
        let p = OpProfile {
            op: "succ".into(),
            events: vec![
                PageEvent {
                    page: PageId(12),
                    kind: PageAccessKind::Miss,
                },
                PageEvent {
                    page: PageId(12),
                    kind: PageAccessKind::Hit,
                },
                PageEvent {
                    page: PageId(47),
                    kind: PageAccessKind::Write,
                },
            ],
            io: IoSnapshot::default(),
            elapsed_us: 0,
        };
        assert_eq!(p.trace_string(), "12:miss 12:hit 47:write");
    }
}
