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
//!   pool while an operation *span* ([`OpSpan`](crate::OpSpan)) is open. A profile is
//!   the observable counterpart of the cost model's per-operation
//!   prediction: `Get-successors()` on a file with CRR α should touch
//!   about `(1−α)·|A|` distinct pages, and the profile shows exactly
//!   which ones.
//! * [`Json`] — the workspace's one JSON writer: the registry dump, the
//!   cost-model validation report and every bench harness report.
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

    fn to_json(&self) -> Json {
        let buckets = self.counts.iter().enumerate().map(|(i, &c)| {
            let le = self.bounds.get(i).map_or(Json::from("+Inf"), |&b| b.into());
            Json::object().field("le", le).field("count", c)
        });
        Json::object()
            .field("count", self.count)
            .field("sum", self.sum)
            .field("max", self.max)
            .field("mean", Json::Fixed(self.mean(), 6))
            .field("buckets", buckets.collect::<Json>())
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
        fn section<V>(map: &BTreeMap<String, V>, value: impl Fn(&V) -> Json) -> Json {
            Json::Object(map.iter().map(|(k, v)| (k.clone(), value(v))).collect())
        }
        let counters = section(&self.counters.lock(), |&v| v.into());
        let gauges = section(&self.gauges.lock(), |&v| v.into());
        let histograms = section(&self.histograms.lock(), Histogram::to_json);
        let doc = Json::object()
            .field("counters", counters)
            .field("gauges", gauges)
            .field("histograms", histograms);
        doc.render(2) + "\n"
    }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// A JSON document: the one writer every report in the workspace uses
/// (the registry dump, cost-model validation, the bench harnesses).
///
/// Build it with [`Json::object`] + [`Json::field`], collect an iterator
/// into an array, and convert numbers, bools and strings with `into()`.
/// [`Json::render`] joins the members of a container with commas, so no
/// document it writes has a trailing comma. Non-finite numbers render as
/// `null`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, written exactly.
    Int(i128),
    /// A float in its shortest round-trip form (`0.5`, `2`).
    Num(f64),
    /// A float with a fixed number of decimals (`Fixed(2.5, 6)` is
    /// `2.500000`).
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// This object with member `key: value` appended.
    ///
    /// # Panics
    /// When `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Object(members) => members.push((key.to_string(), value.into())),
            other => panic!("Json::field on a non-object: {other:?}"),
        }
        self
    }

    /// The document as text. A container nested fewer than `expand`
    /// levels deep puts each member on its own line, indented two spaces
    /// per level, with `": "` after keys; deeper containers are written
    /// on one line with no spaces. `render(0)` is the compact form.
    pub fn render(&self, expand: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, expand);
        out
    }

    fn write(&self, out: &mut String, depth: usize, expand: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Num(v) if v.is_finite() => out.push_str(&v.to_string()),
            Json::Fixed(v, decimals) if v.is_finite() => out.push_str(&format!("{v:.decimals$}")),
            Json::Num(_) | Json::Fixed(..) => out.push_str("null"),
            Json::Str(s) => out.push_str(&json_string(s)),
            Json::Array(items) => {
                let items = items.iter().map(|v| (None, v));
                write_container(out, ['[', ']'], items, depth, expand);
            }
            Json::Object(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_container(out, ['{', '}'], members, depth, expand);
            }
        }
    }
}

/// Writes one array or object: members separated by commas, each on its
/// own indented line when the container is expanded.
fn write_container<'a>(
    out: &mut String,
    [open, close]: [char; 2],
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    depth: usize,
    expand: usize,
) {
    let expanded = depth < expand;
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if expanded {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        }
        if let Some(key) = key {
            out.push_str(&json_string(key));
            out.push_str(if expanded { ": " } else { ":" });
        }
        value.write(out, depth + 1, expand);
    }
    if expanded {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}
json_from!(
    bool => |v| Json::Bool(v),
    f64 => |v| Json::Num(v),
    &str => |v| Json::Str(v.to_string()),
    u32 => |v| Json::Int(v.into()),
    u64 => |v| Json::Int(v.into()),
    usize => |v| Json::Int(v as i128),
);

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Array(iter.into_iter().map(Into::into).collect())
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

    /// `benchmark/` and the CLI tests parse this document: its bytes are
    /// pinned, empty sections included.
    #[test]
    fn registry_json_is_pinned_byte_for_byte() {
        let r = MetricsRegistry::new();
        assert_eq!(
            r.to_json(),
            "{\n  \"counters\": {\n  },\n  \"gauges\": {\n  },\n  \"histograms\": {\n  }\n}\n"
        );
        r.inc_by("io.physical_reads", 5);
        r.inc("a\"b");
        r.set_gauge("crr", 0.5);
        r.set_gauge("peak", 2.0);
        r.set_gauge("lag", f64::NAN);
        r.observe("op.find.data_page_accesses", 2);
        r.observe("op.find.data_page_accesses", 3);
        let zeros: String = DEFAULT_BUCKETS[3..]
            .iter()
            .map(|b| format!("{{\"le\":{b},\"count\":0}},"))
            .collect();
        assert_eq!(
            r.to_json(),
            format!(
                "{{\n  \"counters\": {{\n    \"a\\\"b\": 1,\n    \"io.physical_reads\": 5\n  }},\n  \
                 \"gauges\": {{\n    \"crr\": 0.5,\n    \"lag\": null,\n    \"peak\": 2\n  }},\n  \
                 \"histograms\": {{\n    \"op.find.data_page_accesses\": \
                 {{\"count\":2,\"sum\":5,\"max\":3,\"mean\":2.500000,\"buckets\":[\
                 {{\"le\":1,\"count\":0}},{{\"le\":2,\"count\":1}},{{\"le\":4,\"count\":1}},\
                 {zeros}{{\"le\":\"+Inf\",\"count\":0}}]}}\n  }}\n}}\n"
            )
        );
    }

    #[test]
    fn json_escapes_special_characters() {
        let s = Json::from("a\"b\\c\nd\r\te\u{1}é");
        assert_eq!(s.render(0), "\"a\\\"b\\\\c\\nd\\r\\te\\u0001é\"");
        let keyed = Json::object().field("k\"ey", "v");
        assert_eq!(keyed.render(0), "{\"k\\\"ey\":\"v\"}");
    }

    /// Every scalar in its JSON spelling; non-finite numbers are `null`.
    #[test]
    fn json_scalars_and_non_finite_numbers() {
        let doc: Json = [
            Json::Int(-2500),
            Json::from(u64::MAX),
            Json::from(1.5),
            Json::from(2.0),
            Json::Fixed(2.0, 3),
            Json::from(f64::NAN),
            Json::Fixed(f64::INFINITY, 3),
            Json::from(f64::NEG_INFINITY),
            Json::from(None::<u64>),
            Json::from(false),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            doc.render(0),
            "[-2500,18446744073709551615,1.5,2,2.000,null,null,null,null,false]"
        );
    }

    /// Members are joined, never terminated, by commas: the last member
    /// of every object, at every depth, closes it directly.
    #[test]
    fn json_nested_object_closes_without_a_trailing_comma() {
        let doc = Json::object()
            .field("a", 1u64)
            .field(
                "b",
                Json::object().field("c", true).field("d", Json::Int(-2)),
            )
            .field("e", [1u64, 2].into_iter().collect::<Json>());
        assert_eq!(
            doc.render(0),
            "{\"a\":1,\"b\":{\"c\":true,\"d\":-2},\"e\":[1,2]}"
        );
        assert_eq!(
            doc.render(1),
            "{\n  \"a\": 1,\n  \"b\": {\"c\":true,\"d\":-2},\n  \"e\": [1,2]\n}"
        );
        assert_eq!(
            doc.render(2),
            "{\n  \"a\": 1,\n  \"b\": {\n    \"c\": true,\n    \"d\": -2\n  },\n  \
             \"e\": [\n    1,\n    2\n  ]\n}"
        );
    }

    #[test]
    fn json_empty_containers() {
        let doc = Json::object()
            .field("o", Json::object())
            .field("a", Json::Array(vec![]));
        assert_eq!(doc.render(0), "{\"o\":{},\"a\":[]}");
        assert_eq!(doc.render(2), "{\n  \"o\": {\n  },\n  \"a\": [\n  ]\n}");
        assert_eq!(Json::object().render(1), "{\n}");
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
