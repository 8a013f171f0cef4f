//! Smoke tests of the benchmark itself, at `--quick` sizes.

use std::path::PathBuf;
use std::process::Command;

use ccam_benchmark::json::{self, Value};
use ccam_benchmark::ops::{EmbeddedOps, Phase, ServeOps};
use ccam_benchmark::report::{END_TO_END, PER_LAYER};
use ccam_benchmark::setup::generate;
use ccam_benchmark::spec::{Spec, Workload};
use ccam_server::protocol::encode_request_batch;

/// Runs the benchmark binary at quick sizes and returns its result line.
fn quick_run(workload: Workload, seed: u64, traced: bool, tag: &str) -> Value {
    let out_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{tag}", workload.name()));
    let output = Command::new(env!("CARGO_BIN_EXE_ccam-benchmark"))
        .args(["--workload", workload.name(), "--quick", "--seconds", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("benchmark binary runs");
    assert!(
        output.status.success(),
        "{} failed: {}",
        workload.name(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let summary_end = stdout
        .trim_end()
        .rfind('\n')
        .expect("summary precedes the result line");
    let summary = json::parse(&stdout[..summary_end]).expect("summary is valid JSON");
    assert_eq!(
        summary.get("claim"),
        Some(&Value::Null),
        "the ledger claims no gain"
    );
    if traced {
        let trace = out_dir.join(format!("trace-{}.json", workload.name()));
        let spans = json::parse(&std::fs::read_to_string(&trace).expect("span file written"))
            .expect("span file is valid JSON");
        assert!(!spans
            .get("spans")
            .and_then(Value::as_arr)
            .expect("spans")
            .is_empty());
    }
    json::parse(stdout.lines().last().expect("a result line")).expect("result line is valid JSON")
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let result = quick_run(workload, 7, false, "e2e");
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{}",
            workload.name()
        );
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics = result
            .get("metrics")
            .and_then(Value::as_obj)
            .expect("metrics");
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{}", workload.name());
        for (name, unit) in END_TO_END {
            assert!(
                metric(&result, name) > 0.0,
                "{} {name} is not positive",
                workload.name()
            );
            let reported = metrics
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, m)| m.get("unit"))
                .and_then(Value::as_str);
            assert_eq!(reported, Some(unit));
        }
        assert_eq!(metric(&result, "success_ratio"), 1.0);
    }
}

#[test]
fn a_traced_run_reports_every_layer_and_writes_its_spans() {
    for workload in [Workload::ServeMixedRw, Workload::EmbeddedOps] {
        let result = quick_run(workload, 7, true, "trace");
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        let metrics = result
            .get("metrics")
            .and_then(Value::as_obj)
            .expect("metrics");
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{}", workload.name());
        assert!(metric(&result, "core.eval_us.route") > 0.0);
        assert!(metric(&result, "partition.crr") > 0.0);
        assert!(metric(&result, "write_lat_p90_us") > 0.0);
    }
}

#[test]
fn one_seed_gives_byte_identical_request_lists() {
    let encode = |seed: u64| -> Vec<u8> {
        let spec = Spec::of(Workload::ServeScale, true, None);
        let net = generate(spec.net);
        let ops = ServeOps::new(&net, &spec, seed);
        let mut bytes = Vec::new();
        for round in 0..3 {
            for (i, batch) in ops
                .read_round(round, spec.reads_per_round)
                .iter()
                .enumerate()
            {
                bytes.extend(encode_request_batch(i as u32, 0, batch));
            }
            for w in ops.write_round(Phase::Write, round, spec.writes_per_round) {
                bytes.extend(w.id.0.to_le_bytes());
                bytes.extend(w.payload);
            }
        }
        bytes
    };
    assert_eq!(encode(11), encode(11));
    assert_ne!(encode(11), encode(12));

    let spec = Spec::of(Workload::EmbeddedOps, true, None);
    let net = generate(spec.net);
    let (a, b) = (
        EmbeddedOps::new(&net, &spec, 5),
        EmbeddedOps::new(&net, &spec, 5),
    );
    assert_eq!(a.read_round(1, 64), b.read_round(1, 64));
    assert_eq!(a.write_round(1, 16), b.write_round(1, 16));
    assert_ne!(a.read_round(1, 64), a.read_round(2, 64));
}

#[test]
fn count_metrics_repeat_exactly_with_one_client() {
    for workload in Workload::ALL.into_iter().filter(|w| w.single_client()) {
        let (a, b) = (
            quick_run(workload, 3, false, "count-a"),
            quick_run(workload, 3, false, "count-b"),
        );
        for name in [
            "pages_per_read_op",
            "write_bytes_per_upsert",
            "space_bytes_per_node",
        ] {
            assert_eq!(
                metric(&a, name),
                metric(&b, name),
                "{} {name}",
                workload.name()
            );
        }
        assert_eq!(
            a.get("attempted"),
            b.get("attempted"),
            "{}",
            workload.name()
        );
    }
}
