//! The metric vocabulary and the two things a run prints: a readable
//! summary (every metric by name with its unit, the configuration, and
//! `"claim": null` — this ledger claims no gain) and, as the last line
//! of standard output, the result object the driver parses.

use std::collections::BTreeMap;

use crate::check::Tally;
use crate::json;

/// The end-to-end metrics, `(name, unit)`, the same on every workload.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("read_ops_per_s", "1/s"),
    ("read_lat_p50_us", "us"),
    ("read_lat_p95_us", "us"),
    ("write_ops_per_s", "1/s"),
    ("write_lat_p50_us", "us"),
    ("success_ratio", "ratio"),
    ("pages_per_read_op", "pages/op"),
    ("write_bytes_per_upsert", "B/op"),
    ("space_bytes_per_node", "B/node"),
    ("rss_peak_mb", "MiB"),
];

/// The per-layer metrics, `(name, unit)`. A layer a workload does not
/// touch (the server on `embedded_ops`, A* on the served workloads)
/// reports 0. The last one, `write_lat_p90_us`, is no layer's: between
/// runs of the same code it spreads past the widest bound an end-to-end
/// metric may have (`README.md`, *The demoted write tail*), so it is
/// reported here, from the untraced rounds of a traced run.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("graph.generate_s", "s"),
    ("partition.cluster_s", "s"),
    ("partition.crr", "ratio"),
    ("partition.wcrr", "ratio"),
    ("core.create_s", "s"),
    ("core.pages", "count"),
    ("core.page_fill_mean", "ratio"),
    ("core.eval_us.find", "us"),
    ("core.eval_us.succ", "us"),
    ("core.eval_us.route", "us"),
    ("core.eval_us.agg", "us"),
    ("core.eval_us.astar", "us"),
    ("core.eval_us.window", "us"),
    ("core.upsert_us", "us"),
    ("core.insert_us", "us"),
    ("core.delete_us", "us"),
    ("epoch.read_pin_ns", "ns"),
    ("epoch.commit_us", "us"),
    ("index.lookup_ns", "ns"),
    ("index.pages_per_lookup", "pages/op"),
    ("index.window_us", "us"),
    ("buffer.hit_ratio", "ratio"),
    ("buffer.evictions_per_op", "count/op"),
    ("buffer.hit_ns", "ns"),
    ("buffer.miss_us", "us"),
    ("store.read_page_us", "us"),
    ("store.physical_reads_per_op", "pages/op"),
    ("store.physical_writes_per_upsert", "pages/op"),
    ("wal.bytes_per_upsert", "B/op"),
    ("wal.syncs_per_upsert", "count/op"),
    ("wal.checkpoints", "count"),
    ("wal.live_bytes_end", "B"),
    ("snapshot.pins", "count"),
    ("snapshot.reader_stall_ms", "ms"),
    ("protocol.encode_req_ns_per_op", "ns"),
    ("protocol.decode_req_ns_per_op", "ns"),
    ("protocol.encode_resp_ns_per_op", "ns"),
    ("protocol.decode_resp_ns_per_op", "ns"),
    ("protocol.bytes_per_op", "B/op"),
    ("server.exec_us_p50.find", "us"),
    ("server.exec_us_p50.succ", "us"),
    ("server.exec_us_p50.route", "us"),
    ("server.exec_us_p50.agg", "us"),
    ("server.exec_us_p50.upsert", "us"),
    ("server.overhead_us_per_op", "us"),
    ("server.overloaded", "count"),
    ("server.internal_errors", "count"),
    ("server.write_late_ms_p90", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("write_lat_p90_us", "us"),
];

/// Measured values by metric name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`, which must be in the vocabulary.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// One `"name": {"value": v, "unit": "u"}` entry per metric of
    /// `vocabulary`, in its order. A per-layer metric never recorded
    /// reads 0; a missing end-to-end metric is a bug in the workload and
    /// is reported.
    fn entries(&self, vocabulary: &[(&str, &str)], required: bool) -> Result<Vec<String>, String> {
        vocabulary
            .iter()
            .map(|(name, unit)| {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if required => return Err(format!("metric {name} was not measured")),
                    None => 0.0,
                };
                Ok(format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(value),
                    json::quote(unit)
                ))
            })
            .collect()
    }
}

/// Everything one run found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Attempts and failures.
    pub tally: Tally,
    /// End-to-end metrics (always measured, untraced).
    pub end_to_end: Metrics,
    /// Per-layer metrics (only a traced run fills these).
    pub per_layer: Metrics,
    /// Free-form configuration facts for the summary: sizes, pool
    /// frames, `db_fs`, rounds measured.
    pub config: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Adds a configuration fact to the summary.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.config.push((key, value.to_string()));
    }

    /// Notes where the database files live and how they are flushed.
    pub fn note_storage(&mut self, out_dir: &std::path::Path) {
        self.note("db_fs", crate::setup::fs_type(out_dir));
        self.note(
            "flush_policy",
            "FilePageStore + WalStore defaults: sync and checkpoint at every commit",
        );
    }

    /// The human-readable summary: one metric per line.
    pub fn summary(&self, workload: &str, seed: u64, traced: bool) -> Result<String, String> {
        let mut s = format!(
            "{{\n  \"workload\": {}, \"seed\": {seed}, \"traced\": {traced},\n  \"config\": {{",
            json::quote(workload)
        );
        for (i, (k, v)) in self.config.iter().enumerate() {
            let comma = if i + 1 < self.config.len() { "," } else { "" };
            s.push_str(&format!(
                "\n    {}: {}{comma}",
                json::quote(k),
                json::quote(v)
            ));
        }
        s.push_str("\n  },\n");
        let (title, entries) = if traced {
            ("per_layer", self.per_layer.entries(&PER_LAYER, false)?)
        } else {
            ("end_to_end", self.end_to_end.entries(&END_TO_END, true)?)
        };
        s.push_str(&format!(
            "  \"{title}\": {{\n    {}\n  }},\n",
            entries.join(",\n    ")
        ));
        s.push_str(&format!(
            "  \"attempted\": {}, \"failed\": {},\n  \"claim\": null\n}}",
            self.tally.attempted, self.tally.failed
        ));
        Ok(s)
    }

    /// The one-line result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics` — end-to-end metrics for an untraced run,
    /// per-layer metrics for a traced one.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let entries = if traced {
            self.per_layer.entries(&PER_LAYER, false)?
        } else {
            self.end_to_end.entries(&END_TO_END, true)?
        };
        let metrics = format!("{{{}}}", entries.join(", "));
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_valid_json_with_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.tally.attempted = 10;
        for (name, _) in END_TO_END {
            o.end_to_end.set(name, 1.5);
        }
        let v = json::parse(&o.result_line(false).unwrap()).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
        let traced = json::parse(&o.result_line(true).unwrap()).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_obj().unwrap().len(),
            PER_LAYER.len()
        );
        json::parse(&o.summary("serve_hot", 1, false).unwrap()).unwrap();
        json::parse(&o.summary("serve_hot", 1, true).unwrap()).unwrap();
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        let o = Outcome::default();
        assert!(o.result_line(false).is_err());
    }
}
