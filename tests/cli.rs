//! Integration: the `ccam` CLI binary end to end — generate a network,
//! build databases with several methods, inspect and query them.

use std::path::PathBuf;
use std::process::{Command, Output};

use ccam::graph::generators::zorder_id;
use ccam::graph::{load_network, save_network, Network, NodeData, NodeId};

fn ccam(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccam"))
        .args(args)
        .output()
        .expect("spawn ccam")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ccam-cli-{}-{}", std::process::id(), name));
    p
}

#[test]
fn generate_build_stats_query_pipeline() {
    let net = tmp("pipe.net");
    let db = tmp("pipe.db");
    let net_s = net.to_str().unwrap();
    let db_s = db.to_str().unwrap();

    // generate
    let out = ccam(&["generate", net_s, "--grid", "8", "--seed", "7"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("nodes"));

    // build (CCAM-S)
    let out = ccam(&["build", net_s, db_s, "--block", "1024"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("CCAM-S"), "{text}");
    assert!(text.contains("CRR"), "{text}");

    // stats
    let out = ccam(&["stats", db_s]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("CRR"), "{text}");
    assert!(text.contains("records"), "{text}");

    // find: grab a node id from the window query over everything.
    let out = ccam(&["window", db_s, "0", "0", "99999", "99999"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let first_id = text
        .lines()
        .find(|l| l.contains(" at ("))
        .and_then(|l| l.split_whitespace().next())
        .expect("at least one node")
        .to_string();
    assert!(text.contains("nodes in window"));

    let out = ccam(&["find", db_s, &first_id]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains(&format!("node {first_id}")));

    let out = ccam(&["succ", db_s, &first_id]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("successors"));

    // bench (small).
    let out = ccam(&["bench", db_s, "--routes", "5", "--len", "6"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("page accesses/route"));

    std::fs::remove_file(&net).ok();
    std::fs::remove_file(&db).ok();
}

#[test]
fn window_prints_exactly_the_nodes_inside() {
    let net_path = tmp("win.net");
    let db = tmp("win.db");
    let net_s = net_path.to_str().unwrap();
    let db_s = db.to_str().unwrap();
    assert!(ccam(&["generate", net_s, "--grid", "8", "--seed", "7"])
        .status
        .success());
    assert!(ccam(&["build", net_s, db_s]).status.success());

    // The middle half of the map in each direction.
    let net = load_network(&net_path).unwrap();
    let span = |c: fn(&NodeData) -> u32| {
        let lo = net.nodes().map(c).min().unwrap();
        let hi = net.nodes().map(c).max().unwrap();
        (lo + (hi - lo) / 4, lo + 3 * (hi - lo) / 4)
    };
    let (x0, x1) = span(|n| n.x);
    let (y0, y1) = span(|n| n.y);
    let mut want: Vec<String> = net
        .nodes()
        .filter(|n| n.x >= x0 && n.x <= x1 && n.y >= y0 && n.y <= y1)
        .map(|n| format!("{} at ({}, {})", n.id.0, n.x, n.y))
        .collect();
    assert!(!want.is_empty() && want.len() < net.len());

    let args = [x0, y0, x1, y1].map(|v| v.to_string());
    let out = ccam(&["window", db_s, &args[0], &args[1], &args[2], &args[3]]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let mut got: Vec<String> = text
        .lines()
        .filter(|l| l.contains(" at ("))
        .map(String::from)
        .collect();
    got.sort();
    want.sort();
    assert_eq!(got, want);
    assert!(text.contains(&format!("({} nodes in window)", want.len())));

    std::fs::remove_file(&net_path).ok();
    std::fs::remove_file(&db).ok();
}

#[test]
fn build_refuses_ids_that_are_not_z_order_codes() {
    let net_path = tmp("nonz.net");
    let db = tmp("nonz.db");
    let mut net = Network::new();
    net.add_node(zorder_id(1, 1), 1, 1, vec![0u8; 4]);
    net.add_node(NodeId(7), 2, 1, vec![0u8; 4]);
    net.add_edge_bidir(zorder_id(1, 1), NodeId(7), 1);
    save_network(&net, &net_path).unwrap();

    let out = ccam(&["build", net_path.to_str().unwrap(), db.to_str().unwrap()]);
    assert!(!out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("node 7 at (2, 1)"), "{err}");
    assert!(err.contains("Z-order"), "{err}");
    assert!(!db.exists(), "no database is written");

    std::fs::remove_file(&net_path).ok();
}

#[test]
fn build_every_method_and_astar() {
    let net = tmp("methods.net");
    let net_s = net.to_str().unwrap();
    assert!(ccam(&["generate", net_s, "--grid", "7", "--seed", "3"])
        .status
        .success());

    for method in ["ccam-s", "ccam-d", "dfs", "bfs", "wdfs", "grid"] {
        let db = tmp(&format!("m-{method}.db"));
        let db_s = db.to_str().unwrap();
        let out = ccam(&["build", net_s, db_s, "--method", method, "--block", "512"]);
        assert!(out.status.success(), "{method}: {out:?}");

        // A* between two window-discovered nodes.
        let w = ccam(&["window", db_s, "0", "0", "99999", "99999"]);
        let text = stdout(&w);
        let ids: Vec<&str> = text
            .lines()
            .filter(|l| l.contains(" at ("))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert!(ids.len() > 10, "{method}");
        let out = ccam(&["astar", db_s, ids[0], ids[ids.len() - 1]]);
        assert!(out.status.success(), "{method}: {out:?}");
        assert!(stdout(&out).contains("cost"), "{method}");
        std::fs::remove_file(&db).ok();
    }
    std::fs::remove_file(&net).ok();
}

#[test]
fn check_and_replay() {
    let net = tmp("cr.net");
    let db = tmp("cr.db");
    let trace = tmp("cr.trace");
    assert!(ccam(&["generate", net.to_str().unwrap(), "--grid", "6"])
        .status
        .success());
    assert!(
        ccam(&["build", net.to_str().unwrap(), db.to_str().unwrap()])
            .status
            .success()
    );

    // check: clean database.
    let out = ccam(&["check", db.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("no integrity issues"));

    // replay: trace built from real node ids.
    let w = ccam(&["window", db.to_str().unwrap(), "0", "0", "99999", "99999"]);
    let ids: Vec<String> = stdout(&w)
        .lines()
        .filter(|l| l.contains(" at ("))
        .filter_map(|l| l.split_whitespace().next())
        .map(String::from)
        .collect();
    let text = format!(
        "find {}\nsucc {}\nastar {} {}\ndelete-node {}\nreinsert-node {}\n",
        ids[0],
        ids[1],
        ids[0],
        ids[ids.len() - 1],
        ids[2],
        ids[2]
    );
    std::fs::write(&trace, text).unwrap();
    let out = ccam(&["replay", db.to_str().unwrap(), trace.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("replayed 5 ops"), "{text}");
    assert!(text.contains("0 misses"), "{text}");

    // The database is still clean after the mutating replay.
    let out = ccam(&["check", db.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");

    // Malformed traces are rejected with a line number.
    std::fs::write(&trace, "find 1\nbogus 2\n").unwrap();
    let out = ccam(&["replay", db.to_str().unwrap(), trace.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));

    std::fs::remove_file(&net).ok();
    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn profile_explain_and_metrics_json() {
    let net = tmp("obs.net");
    let db = tmp("obs.db");
    let metrics = tmp("obs.metrics.json");
    let net_s = net.to_str().unwrap();
    let db_s = db.to_str().unwrap();
    let metrics_s = metrics.to_str().unwrap();

    assert!(ccam(&["generate", net_s, "--grid", "8", "--seed", "11"])
        .status
        .success());
    assert!(ccam(&["build", net_s, db_s, "--block", "1024"])
        .status
        .success());

    // profile: the cost-model validation table, text and JSON forms.
    let out = ccam(&[
        "profile", db_s, "--ops", "16", "--routes", "3", "--len", "8",
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    for needle in [
        "cost-model validation",
        "find",
        "get_successors",
        "route",
        "rel.err",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    let out = ccam(&[
        "profile", db_s, "--ops", "8", "--routes", "2", "--len", "6", "--json",
    ]);
    assert!(out.status.success(), "{out:?}");
    let json = stdout(&out);
    assert!(
        json.contains("\"classes\"") && json.contains("\"mean_rel_error\""),
        "{json}"
    );

    // a node id for the query commands.
    let w = ccam(&["window", db_s, "0", "0", "99999", "99999"]);
    let wtext = stdout(&w);
    let id = wtext
        .lines()
        .find(|l| l.contains(" at ("))
        .and_then(|l| l.split_whitespace().next())
        .expect("at least one node")
        .to_string();

    // --explain prints the ordered page-access trace.
    let out = ccam(&["succ", db_s, &id, "--explain"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("explain get_successors_degraded"), "{text}");
    assert!(text.contains("trace:"), "{text}");
    let out = ccam(&["find", db_s, &id, "--explain"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("explain find"), "{text}");
    // The trace labels every access as hit, miss or write.
    let trace_line = text.lines().find(|l| l.contains("trace:")).unwrap();
    assert!(
        ["hit", "miss", "write"]
            .iter()
            .any(|k| trace_line.contains(k)),
        "{trace_line}"
    );

    // --metrics-json dumps counters and per-operation histograms.
    let out = ccam(&["succ", db_s, &id, "--metrics-json", metrics_s]);
    assert!(out.status.success(), "{out:?}");
    let dumped = std::fs::read_to_string(&metrics).expect("metrics file written");
    for needle in [
        "\"counters\"",
        "\"histograms\"",
        "io.physical_reads",
        "op.get_successors_degraded.count",
        "op.get_successors_degraded.data_page_accesses",
    ] {
        assert!(dumped.contains(needle), "missing {needle:?} in:\n{dumped}");
    }
    assert_eq!(dumped.matches('{').count(), dumped.matches('}').count());

    std::fs::remove_file(&net).ok();
    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn errors_are_clean() {
    // Unknown command.
    let out = ccam(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing database.
    let out = ccam(&["stats", "/nonexistent/definitely-not-here.db"]);
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stderr).is_empty());

    // Bad node id.
    let net = tmp("err.net");
    let db = tmp("err.db");
    assert!(ccam(&["generate", net.to_str().unwrap(), "--grid", "5"])
        .status
        .success());
    assert!(
        ccam(&["build", net.to_str().unwrap(), db.to_str().unwrap()])
            .status
            .success()
    );
    let out = ccam(&["find", db.to_str().unwrap(), "18446744073709551615"]);
    assert!(!out.status.success(), "missing node must exit nonzero");
    let out = ccam(&["find", db.to_str().unwrap(), "not-a-number"]);
    assert!(!out.status.success());
    std::fs::remove_file(&net).ok();
    std::fs::remove_file(&db).ok();
}
