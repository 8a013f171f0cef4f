//! Closed-loop load generator for `ccam serve` — the serving-layer
//! counterpart of `perf_hotpaths`, writing `BENCH_PR6.json`.
//!
//! ```text
//! serve_load --addr HOST:PORT --net FILE
//!            [--connections N] [--batch N] [--seconds S] [--seed N]
//!            [--mix find:succ:route:agg] [--out FILE]
//!            [--check-baseline FILE]
//! ```
//!
//! Each connection is closed-loop: it sends one batch frame, blocks for
//! the response, then sends the next — so offered load self-regulates
//! to server capacity and the reported latencies are honest round-trip
//! times, not coordinated-omission artifacts. The workload is
//! deterministic per seed: connection *i* draws from
//! `StdRng::seed_from_u64(seed + i)` over the node ids and 4-hop walks
//! of the `--net` file (which must be the file the served database was
//! built from). Batches the server sheds wholesale as `Overloaded` are
//! retried through the client's seeded jittered backoff
//! (`Client::call_with_retry`) — the behavior of a production caller,
//! so reported QPS reflects goodput under backpressure, not raw
//! rejection throughput.
//!
//! Reported: sustained QPS (completed, non-rejected requests/sec),
//! batch round-trip latency p50/p95/p99 in microseconds, overload
//! rejections, and — via a final `Stats` op — the server-side request
//! counters and physical-I/O gauges. `--check-baseline FILE` exits 1
//! when a previous run's QPS is more than 2x the fresh one (the same
//! regression gate `perf_hotpaths` uses).

use std::io::Write as _;
use std::time::{Duration, Instant};

use ccam_bench::parse_flag;
use ccam_graph::roadmap::{road_map, RoadMapConfig};
use ccam_graph::{load_network, Network, NodeId};
use ccam_server::client::{Backoff, Client};
use ccam_server::protocol::{Request, Response, Status};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct Config {
    addr: String,
    net: Option<String>,
    connections: usize,
    batch: usize,
    seconds: u64,
    seed: u64,
    /// find : get_successors : route : range_aggregate weights.
    mix: [u32; 4],
    out: String,
    check_baseline: Option<String>,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        addr: "127.0.0.1:4791".to_string(),
        net: None,
        connections: 4,
        batch: 16,
        seconds: 5,
        seed: 42,
        mix: [60, 25, 10, 5],
        out: "BENCH_PR6.json".to_string(),
        check_baseline: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).unwrap_or_else(|| die("missing value")).clone()
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--addr" => cfg.addr = value(&mut i),
            "--net" => cfg.net = Some(value(&mut i)),
            "--connections" => cfg.connections = num(flag, value(&mut i)),
            "--batch" => cfg.batch = num(flag, value(&mut i)),
            "--seconds" => cfg.seconds = num(flag, value(&mut i)),
            "--seed" => cfg.seed = num(flag, value(&mut i)),
            "--mix" => {
                let v = value(&mut i);
                let parts: Vec<u32> = v.split(':').filter_map(|p| p.parse().ok()).collect();
                if parts.len() == 4 {
                    cfg.mix = [parts[0], parts[1], parts[2], parts[3]];
                } else {
                    die("--mix wants find:succ:route:agg");
                }
            }
            "--out" => cfg.out = value(&mut i),
            "--check-baseline" => cfg.check_baseline = Some(value(&mut i)),
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    cfg
}

fn die(msg: &str) -> ! {
    eprintln!("serve_load: {msg}");
    std::process::exit(2);
}

/// `flag`'s value parsed, or exit 2 naming the flag and the value.
fn num<T: std::str::FromStr>(flag: &str, value: String) -> T {
    parse_flag(flag, &value).unwrap_or_else(|e| die(&e))
}

/// The node ids and a pool of short walks drawn from the network file —
/// the same id universe the served database holds.
struct Workload {
    ids: Vec<NodeId>,
    walks: Vec<Vec<NodeId>>,
}

fn workload_from(net: &Network, seed: u64) -> Workload {
    let ids = net.node_ids();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut walks = Vec::with_capacity(256);
    for _ in 0..256 {
        let mut walk = vec![ids[rng.random_range(0..ids.len())]];
        for _ in 0..4 {
            let cur = *walk.last().unwrap();
            let Some(node) = net.nodes().find(|n| n.id == cur) else {
                break;
            };
            if node.successors.is_empty() {
                break;
            }
            let e = &node.successors[rng.random_range(0..node.successors.len())];
            walk.push(e.to);
        }
        walks.push(walk);
    }
    Workload { ids, walks }
}

fn sample_request(rng: &mut StdRng, w: &Workload, mix: &[u32; 4]) -> Request {
    let total: u32 = mix.iter().sum();
    let mut pick = rng.random_range(0..total.max(1));
    let id = w.ids[rng.random_range(0..w.ids.len())];
    if pick < mix[0] {
        return Request::Find(id);
    }
    pick -= mix[0];
    if pick < mix[1] {
        return Request::GetSuccessors(id);
    }
    pick -= mix[1];
    let walk = &w.walks[rng.random_range(0..w.walks.len())];
    if pick < mix[2] {
        return Request::Route(walk.clone());
    }
    Request::RangeAggregate(walk.windows(2).map(|p| (p[0], p[1])).collect())
}

#[derive(Default)]
struct ConnResult {
    ok_requests: u64,
    overloaded: u64,
    errors: u64,
    latencies_us: Vec<u64>,
}

fn run_connection(
    cfg: &Config,
    w: &Workload,
    conn_index: usize,
    deadline: Instant,
) -> std::io::Result<ConnResult> {
    let mut client = Client::connect(&*cfg.addr)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed + conn_index as u64);
    // Shed batches (all-Overloaded rejections) are resent after a
    // short jittered backoff — seeded per connection, so rejected
    // connections desynchronize deterministically.
    let mut backoff = Backoff::new(
        3,
        Duration::from_micros(200),
        Duration::from_millis(5),
        cfg.seed ^ conn_index as u64,
    );
    let mut res = ConnResult::default();
    while Instant::now() < deadline {
        let batch: Vec<Request> = (0..cfg.batch)
            .map(|_| sample_request(&mut rng, w, &cfg.mix))
            .collect();
        let start = Instant::now();
        let resps = client.call_with_retry(&batch, &mut backoff)?;
        res.latencies_us.push(start.elapsed().as_micros() as u64);
        for r in &resps {
            match r {
                Response::Error(Status::Overloaded, _) => res.overloaded += 1,
                Response::Error(Status::NotFound, _) => res.ok_requests += 1,
                Response::Error(..) => res.errors += 1,
                _ => res.ok_requests += 1,
            }
        }
    }
    Ok(res)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn extract_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let cfg = parse_args();
    // Without --net, fall back to the default paper-scale road map the
    // repo's harnesses generate (seed 5 lattice) — only valid when the
    // server was built from the same generator defaults.
    let net = match &cfg.net {
        Some(path) => load_network(std::path::Path::new(path))
            .unwrap_or_else(|e| die(&format!("--net {path}: {e}"))),
        None => road_map(&RoadMapConfig {
            grid_w: 40,
            grid_h: 40,
            removed_nodes: 32,
            target_segments: 2800,
            target_directed: 5000,
            cell: 64,
            jitter: 24,
            seed: 5,
        }),
    };
    let w = workload_from(&net, cfg.seed);
    eprintln!(
        "serve_load: {} connections x batch {} against {} for {}s over {} nodes",
        cfg.connections,
        cfg.batch,
        cfg.addr,
        cfg.seconds,
        w.ids.len()
    );

    let wall = Instant::now();
    let deadline = wall + Duration::from_secs(cfg.seconds);
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.connections)
            .map(|i| {
                let cfg = &cfg;
                let w = &w;
                s.spawn(move || run_connection(cfg, w, i, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| die("connection thread panicked"))
                    .unwrap_or_else(|e| die(&format!("connection failed: {e}")))
            })
            .collect()
    });
    let elapsed = wall.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = Vec::new();
    let (mut ok, mut overloaded, mut errors) = (0u64, 0u64, 0u64);
    for r in &results {
        ok += r.ok_requests;
        overloaded += r.overloaded;
        errors += r.errors;
        latencies.extend_from_slice(&r.latencies_us);
    }
    latencies.sort_unstable();
    let qps = ok as f64 / elapsed;
    let (p50, p95, p99) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );

    // Server-side view, via the protocol itself.
    let stats_json = Client::connect(&*cfg.addr)
        .and_then(|mut c| c.call(&[Request::Stats]))
        .ok()
        .and_then(|resps| match resps.into_iter().next() {
            Some(Response::StatsJson(json)) => Some(json),
            _ => None,
        });
    let (srv_requests, srv_reads, srv_hits) = match &stats_json {
        Some(json) => (
            extract_number(json, "serve.requests").unwrap_or(0.0),
            extract_number(json, "io.physical_reads").unwrap_or(0.0),
            extract_number(json, "io.buffer_hits").unwrap_or(0.0),
        ),
        None => (0.0, 0.0, 0.0),
    };

    let json = format!(
        "{{\n  \"bench\": \"serve_load\",\n  \"config\": {{\n    \"addr\": \"{}\",\n    \"connections\": {},\n    \"batch\": {},\n    \"seconds\": {},\n    \"seed\": {},\n    \"mix\": \"{}:{}:{}:{}\",\n    \"nodes\": {}\n  }},\n  \"results\": {{\n    \"qps\": {:.1},\n    \"ok_requests\": {},\n    \"overloaded\": {},\n    \"errors\": {},\n    \"batches\": {},\n    \"p50_us\": {},\n    \"p95_us\": {},\n    \"p99_us\": {},\n    \"server_requests_total\": {},\n    \"server_physical_reads\": {},\n    \"server_buffer_hits\": {}\n  }}\n}}\n",
        cfg.addr,
        cfg.connections,
        cfg.batch,
        cfg.seconds,
        cfg.seed,
        cfg.mix[0],
        cfg.mix[1],
        cfg.mix[2],
        cfg.mix[3],
        w.ids.len(),
        qps,
        ok,
        overloaded,
        errors,
        latencies.len(),
        p50,
        p95,
        p99,
        srv_requests,
        srv_reads,
        srv_hits,
    );
    std::fs::write(&cfg.out, &json).unwrap_or_else(|e| die(&format!("--out {}: {e}", cfg.out)));
    println!(
        "qps {qps:.0}  p50 {p50}us  p95 {p95}us  p99 {p99}us  ok {ok}  overloaded {overloaded}  errors {errors}"
    );
    let _ = std::io::stdout().flush();

    if errors > 0 {
        eprintln!("serve_load: {errors} requests failed server-side");
        std::process::exit(1);
    }
    if let Some(path) = &cfg.check_baseline {
        let base = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("--check-baseline {path}: {e}")));
        let base_qps = extract_number(&base, "qps")
            .unwrap_or_else(|| die(&format!("--check-baseline {path}: no qps")));
        let ratio = base_qps / qps.max(1.0);
        eprintln!("serve_load: baseline qps {base_qps:.0}, current {qps:.0}, ratio {ratio:.2}");
        if ratio > 2.0 {
            eprintln!("serve_load: REGRESSION — current throughput under half of baseline");
            std::process::exit(1);
        }
    }
}
