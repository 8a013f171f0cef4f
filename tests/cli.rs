//! Integration: the `ccam` CLI binary end to end — generate a network,
//! build databases with several methods, inspect and query them, and
//! serve them over loopback as a primary and as a follower.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::{Duration, Instant};

use ccam::graph::generators::zorder_id;
use ccam::graph::walks::random_walk_routes;
use ccam::graph::{load_network, save_network, Network, NodeData, NodeId};
use ccam::server::client::Client;
use ccam::server::protocol::{Request, Response};
use ccam_testing::TempDir;

fn ccam(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccam"))
        .args(args)
        .output()
        .expect("spawn ccam")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

#[test]
fn generate_build_stats_query_pipeline() {
    let dir = TempDir::new("ccam-cli");
    let net = dir.path("pipe.net");
    let db = dir.path("pipe.db");
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
}

#[test]
fn window_prints_exactly_the_nodes_inside() {
    let dir = TempDir::new("ccam-cli");
    let net_path = dir.path("win.net");
    let db = dir.path("win.db");
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
}

#[test]
fn build_refuses_ids_that_are_not_z_order_codes() {
    let dir = TempDir::new("ccam-cli");
    let net_path = dir.path("nonz.net");
    let db = dir.path("nonz.db");
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
}

/// `ccam build` stores compact records by default, with every method,
/// and `ccam stats` says so beside the blocking factor.
#[test]
fn a_default_build_stores_compact_records() {
    let dir = TempDir::new("ccam-cli");
    let net = dir.path("codec.net");
    let net_s = net.to_str().unwrap();
    assert!(ccam(&["generate", net_s, "--grid", "6", "--seed", "5"])
        .status
        .success());
    for method in ["ccam-s", "dfs"] {
        let db = dir.path(&format!("codec-{method}.db"));
        let db_s = db.to_str().unwrap();
        let out = ccam(&["build", net_s, db_s, "--method", method]);
        assert!(out.status.success(), "{method}: {out:?}");
        let out = ccam(&["stats", db_s]);
        assert!(out.status.success(), "{method}: {out:?}");
        let text = stdout(&out);
        let line = text
            .lines()
            .find(|l| l.starts_with("blocking factor"))
            .unwrap_or_else(|| panic!("{method}: no blocking factor in {text}"));
        assert!(line.ends_with("(compact records)"), "{method}: {line}");
    }
}

#[test]
fn build_every_method_and_astar() {
    let dir = TempDir::new("ccam-cli");
    let net = dir.path("methods.net");
    let net_s = net.to_str().unwrap();
    assert!(ccam(&["generate", net_s, "--grid", "7", "--seed", "3"])
        .status
        .success());

    for method in ["ccam-s", "ccam-d", "dfs", "bfs", "wdfs", "grid"] {
        let db = dir.path(&format!("m-{method}.db"));
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
    }
}

#[test]
fn check_and_replay() {
    let dir = TempDir::new("ccam-cli");
    let net = dir.path("cr.net");
    let db = dir.path("cr.db");
    let trace = dir.path("cr.trace");
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
}

#[test]
fn profile_explain_and_metrics_json() {
    let dir = TempDir::new("ccam-cli");
    let net = dir.path("obs.net");
    let db = dir.path("obs.db");
    let metrics = dir.path("obs.metrics.json");
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
    // --metrics-json on profile exports the observed cost per class.
    #[rustfmt::skip]
    let out = ccam(&["profile", db_s, "--ops", "16", "--routes", "3", "--len", "8", "--metrics-json", metrics_s]);
    assert!(out.status.success(), "{out:?}");
    let dumped = std::fs::read_to_string(&metrics).expect("metrics file written");
    for needle in ["\"counters\"", "costmodel.get_successors.observed"] {
        assert!(dumped.contains(needle), "missing {needle:?} in:\n{dumped}");
    }

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
}

/// Generates `net.net` in `dir` and builds `db.db` from it; returns the
/// network.
fn built(dir: &TempDir) -> Network {
    let (net, db) = (dir.path("net.net"), dir.path("db.db"));
    let (net, db) = (net.to_str().unwrap(), db.to_str().unwrap());
    let gen = ccam(&["generate", net, "--grid", "12", "--seed", "5"]);
    assert!(gen.status.success(), "{gen:?}");
    let out = ccam(&["build", net, db, "--block", "1024"]);
    assert!(out.status.success(), "{out:?}");
    load_network(Path::new(net)).unwrap()
}

/// A `ccam serve` child on a kernel-assigned port. Dropping it kills the
/// process, so a failing test leaves no server behind.
struct Served {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Served {
    fn start(db: &str, flags: &str) -> Served {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ccam"))
            .args(["serve", db, "--addr", "127.0.0.1:0"])
            .args(flags.split_whitespace())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ccam serve");
        let stdout = BufReader::new(child.stdout.take().expect("stdout"));
        Served { child, stdout }
    }

    /// The address the server prints after `label` (`listening on`,
    /// `replication on`).
    fn addr(&mut self, label: &str) -> String {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.stdout.read_line(&mut line).expect("server stdout");
            assert!(n > 0, "server exited before printing {label:?}");
            if let Some(addr) = line.trim().strip_prefix(label) {
                return addr.trim().to_string();
            }
        }
    }

    /// Waits for the server to drain at its `--max-seconds`, and checks
    /// that it exits 0 with no panic in its log (stderr).
    fn wait_for_clean_exit(mut self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                break status;
            }
            assert!(Instant::now() < deadline, "server did not exit by itself");
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut log = String::new();
        let mut stderr = self.child.stderr.take().expect("stderr");
        stderr.read_to_string(&mut log).expect("server stderr");
        assert!(status.success(), "{status}: {log}");
        assert!(!log.to_lowercase().contains("panic"), "{log}");
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Reads with the answers the `.net` model gives: `Find` and
/// `GetSuccessors` of every third node, and a `Route` and a
/// `RangeAggregate` along each of 32 random walks.
fn model_reads(net: &Network) -> Vec<(Request, Response)> {
    let node = |id: NodeId| net.node(id).unwrap();
    let mut reads = Vec::new();
    for n in net.nodes().step_by(3) {
        reads.push((Request::Find(n.id), Response::Record(n.clone())));
        let succs = n.successors.iter().map(|e| node(e.to).clone()).collect();
        reads.push((Request::GetSuccessors(n.id), Response::Records(succs)));
    }
    for walk in random_walk_routes(net, 32, 6, 7) {
        let arcs: Vec<(NodeId, NodeId)> = walk.edges().collect();
        let cost = |&(a, b): &(NodeId, NodeId)| {
            let edge = node(a).successors.iter().find(|e| e.to == b).unwrap();
            u64::from(edge.cost)
        };
        let total_cost = arcs.iter().map(cost).sum();
        let distinct: HashSet<NodeId> = walk.nodes.iter().copied().collect();
        let payload = distinct.iter().flat_map(|&id| &node(id).payload);
        let route = Response::RouteEval {
            total_cost,
            nodes_visited: walk.len() as u32,
            complete: true,
        };
        let aggregate = Response::Aggregate {
            arcs_found: arcs.len() as u32,
            arcs_missing: 0,
            total_cost,
            node_payload_sum: payload.map(|&b| u64::from(b)).sum(),
            nodes_retrieved: distinct.len() as u32,
        };
        reads.push((Request::Route(walk.nodes), route));
        reads.push((Request::RangeAggregate(arcs), aggregate));
    }
    reads
}

/// Sends every model read to `addr` in batches of 16 and checks each
/// answer; returns the number of requests sent.
fn check_reads(addr: &str, reads: &[(Request, Response)]) -> usize {
    let mut client = Client::connect(addr).expect("connect");
    for batch in reads.chunks(16) {
        let reqs: Vec<Request> = batch.iter().map(|(req, _)| req.clone()).collect();
        let resps = client.call(&reqs).expect("call");
        assert_eq!(resps.len(), batch.len());
        for ((req, want), got) in batch.iter().zip(resps) {
            assert_eq!(&got, want, "{addr}: {req:?}");
        }
    }
    reads.len()
}

#[test]
fn serve_answers_like_the_model_and_drains_at_max_seconds() {
    let dir = TempDir::new("ccam-cli-serve");
    let reads = model_reads(&built(&dir));
    let metrics = dir.path("metrics.json");
    let flags = format!(
        "--workers 2 --queue-depth 16 --max-seconds 3 --metrics-json {}",
        metrics.display()
    );
    let mut server = Served::start(dir.path("db.db").to_str().unwrap(), &flags);
    let sent = check_reads(&server.addr("listening on"), &reads);
    server.wait_for_clean_exit();

    let dumped = std::fs::read_to_string(&metrics).expect("metrics written at drain");
    let served = dumped
        .split_once("\"serve.requests\": ")
        .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse::<usize>().ok());
    assert_eq!(served, Some(sent), "{dumped}");
}

#[test]
fn a_follower_answers_like_the_model_and_outlives_its_primary() {
    let dir = TempDir::new("ccam-cli-repl");
    let reads = model_reads(&built(&dir));
    for (from, to) in [("db.db", "replica.db"), ("db.db.wal", "replica.db.wal")] {
        std::fs::copy(dir.path(from), dir.path(to)).unwrap();
    }
    let mut primary = Served::start(
        dir.path("db.db").to_str().unwrap(),
        "--repl-addr 127.0.0.1:0 --max-seconds 60",
    );
    let primary_addr = primary.addr("listening on");
    let repl_addr = primary.addr("replication on");
    let metrics = dir.path("metrics.json");
    let flags = format!(
        "--replica-of {repl_addr} --max-seconds 5 --metrics-json {}",
        metrics.display()
    );
    let mut follower = Served::start(dir.path("replica.db").to_str().unwrap(), &flags);
    let follower_addr = follower.addr("listening on");
    check_reads(&primary_addr, &reads);
    check_reads(&follower_addr, &reads);

    // The follower has subscribed before its primary dies.
    let mut client = Client::connect(follower_addr.as_str()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        match &client.call(&[Request::Stats]).expect("stats")[0] {
            Response::StatsJson(json) if json.contains("serve.repl.connects") => break,
            _ => assert!(Instant::now() < deadline, "follower never subscribed"),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    primary.child.kill().expect("kill primary");
    primary.child.wait().expect("reap primary");
    check_reads(&follower_addr, &reads);
    follower.wait_for_clean_exit();

    let dumped = std::fs::read_to_string(&metrics).expect("metrics written at drain");
    for needle in ["\"serve.repl.connects\"", "\"serve.repl_lag_lsn\""] {
        assert!(dumped.contains(needle), "missing {needle} in:\n{dumped}");
    }
}

/// `ccam find`'s answer for `node`, as the `.net` model gives it.
fn find_text(node: &NodeData) -> String {
    let mut text = format!(
        "node {} at ({}, {})\npayload: {} bytes\n",
        node.id.0,
        node.x,
        node.y,
        node.payload.len()
    );
    for e in &node.successors {
        text += &format!("  -> {} (cost {})\n", e.to.0, e.cost);
    }
    for p in &node.predecessors {
        text += &format!("  <- {}\n", p.0);
    }
    text
}

/// Every database is opened through its log: one whose sidecar is gone
/// gets an empty one back, for a one-shot query and for serving alike,
/// and answers like the model.
#[test]
fn a_database_whose_log_is_gone_gets_one_and_answers_like_the_model() {
    let dir = TempDir::new("ccam-cli-nolog");
    let net = built(&dir);
    let (db, log) = (dir.path("db.db"), dir.path("db.db.wal"));
    let db = db.to_str().unwrap();
    std::fs::remove_file(&log).expect("build writes the log");
    for node in net.nodes().step_by(7) {
        let out = ccam(&["find", db, &node.id.0.to_string()]);
        assert!(out.status.success(), "{out:?}");
        assert_eq!(stdout(&out), find_text(node));
    }
    assert!(log.exists(), "find left the database without a log");

    std::fs::remove_file(&log).unwrap();
    let mut server = Served::start(db, "--max-seconds 2");
    check_reads(&server.addr("listening on"), &model_reads(&net));
    server.wait_for_clean_exit();
    assert!(log.exists(), "serve left the database without a log");
}

/// `--retry` is a bare switch: it never takes the next argument, even
/// one that reads as a number, so a query answers the same with it.
#[test]
fn retry_takes_no_argument() {
    let dir = TempDir::new("ccam-cli-retry");
    let net = built(&dir);
    let db = dir.path("db.db");
    let db = db.to_str().unwrap();
    let walk = random_walk_routes(&net, 1, 4, 3).remove(0);
    let ids: Vec<String> = walk.nodes.iter().map(|id| id.0.to_string()).collect();
    assert!(ids.iter().all(|id| id.parse::<u32>().is_ok()));
    let answer = |args: &[&str]| {
        let out = ccam(args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        stdout(&out)
    };
    let id = ids[0].as_str();
    assert_eq!(
        answer(&["succ", db, "--retry", id]),
        answer(&["succ", db, id])
    );
    let route: Vec<&str> = ids.iter().map(String::as_str).collect();
    let with_retry = [&["route", db, "--retry"][..], &route].concat();
    let without = [&["route", db][..], &route].concat();
    assert_eq!(answer(&with_retry), answer(&without));
    assert!(answer(&without).starts_with(&format!("route of {} nodes", ids.len())));
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
    let dir = TempDir::new("ccam-cli");
    let net = dir.path("err.net");
    let db = dir.path("err.db");
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
}
