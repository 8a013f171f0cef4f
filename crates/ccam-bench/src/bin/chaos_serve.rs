//! Seeded chaos harness for the serving layer — closed-loop clients
//! against a server whose storage, writer and network are all faulted,
//! writing `BENCH_PR7.json`.
//!
//! ```text
//! chaos_serve [--seconds S] [--seed N] [--connections N] [--batch N]
//!             [--workers N] [--queue-depth N] [--out FILE]
//!             [--max-p99-us N] [--error-budget-per-1024 N]
//! ```
//!
//! The harness owns the whole stack, so every fault is injected, seeded
//! and accounted for:
//!
//! * **Storage chaos** — the database is built on `RetryStore` (jittered
//!   backoff) over `FaultStore` (seeded transient I/O glitches, latency
//!   stalls, per-page corruption, ENOSPC pulses) over `MemPageStore`.
//!   The faults are armed only after a clean build. Mid-run, one data
//!   page is corrupted and the damage *republished* through the writer
//!   path — served reads come from pinned snapshots, so store faults
//!   only reach clients via a commit — forcing degraded reads until a
//!   later heal+republish; a disk-full pulse proves reads don't depend
//!   on writability.
//! * **Writer chaos** — a writer transaction panics mid-flight, which
//!   poisons the `EpochCell`: the whole poisoned window must answer
//!   typed `Internal` errors (charged as injected, never against the
//!   budget) until `recover()` republishes the committed generation.
//!   A second, benign abort (guard dropped without commit) must be
//!   completely invisible to clients.
//! * **Network chaos** — alongside closed-loop good clients: a
//!   *staller* that writes half a frame and freezes (must be reaped by
//!   the idle timeout), a *half-closer* that sends a valid frame and
//!   shuts down its write side (must still be answered), and a
//!   *vanisher* that pipelines frames and drops the socket with
//!   responses unread (server writes must fail fast, not wedge).
//!
//! Exit is non-zero unless every SLO holds: zero worker panics, clean
//! graceful drain, the staller reaped, degraded reads observed, p99
//! batch latency under the bound, and non-injected errors within the
//! budget (`Internal` responses are charged against the store's own
//! injected-fault count first — an injected fault surfacing as a typed
//! error is the system working).

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccam_bench::{percentile, Args};
use ccam_core::epoch::EpochCell;
use ccam_core::{AccessMethod, Ccam, CcamBuilder};
use ccam_graph::roadmap::{road_map, RoadMapConfig};
use ccam_graph::{Network, NodeId};
use ccam_server::client::{Backoff, Client};
use ccam_server::protocol::{Request, Response, Status};
use ccam_server::{Server, ServerConfig};
use ccam_storage::{FaultStore, Json, MemPageStore, PageStore, RetryPolicy, RetryStore};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct Config {
    seconds: u64,
    seed: u64,
    connections: usize,
    batch: usize,
    workers: usize,
    queue_depth: usize,
    out: String,
    max_p99_us: u64,
    /// Non-injected errors allowed per 1024 good-client requests.
    error_budget_per_1024: u64,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        seconds: 5,
        seed: 42,
        connections: 4,
        batch: 8,
        workers: 2,
        queue_depth: 8,
        out: "BENCH_PR7.json".to_string(),
        max_p99_us: 500_000,
        error_budget_per_1024: 10,
    };
    let mut args = Args::from_env("chaos_serve");
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seconds" => cfg.seconds = args.num(&flag),
            "--seed" => cfg.seed = args.num(&flag),
            "--connections" => cfg.connections = args.num(&flag),
            "--batch" => cfg.batch = args.num(&flag),
            "--workers" => cfg.workers = args.num(&flag),
            "--queue-depth" => cfg.queue_depth = args.num(&flag),
            "--out" => cfg.out = args.value(&flag),
            "--max-p99-us" => cfg.max_p99_us = args.num(&flag),
            "--error-budget-per-1024" => cfg.error_budget_per_1024 = args.num(&flag),
            other => args.fail(&format!("unknown flag {other}")),
        }
    }
    cfg
}

fn die(msg: &str) -> ! {
    eprintln!("chaos_serve: {msg}");
    std::process::exit(2);
}

struct Workload {
    ids: Vec<NodeId>,
    walks: Vec<Vec<NodeId>>,
}

fn workload_from(net: &Network, seed: u64) -> Workload {
    let ids = net.node_ids();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut walks = Vec::with_capacity(128);
    for _ in 0..128 {
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

fn sample_request(rng: &mut StdRng, w: &Workload) -> Request {
    let pick = rng.random_range(0..100u32);
    let id = w.ids[rng.random_range(0..w.ids.len())];
    if pick < 55 {
        Request::Find(id)
    } else if pick < 80 {
        Request::GetSuccessors(id)
    } else if pick < 92 {
        Request::Route(w.walks[rng.random_range(0..w.walks.len())].clone())
    } else {
        let walk = &w.walks[rng.random_range(0..w.walks.len())];
        Request::RangeAggregate(walk.windows(2).map(|p| (p[0], p[1])).collect())
    }
}

/// Good-client response tallies, by outcome class.
#[derive(Default)]
struct Tally {
    ok: u64,
    overloaded: u64,
    deadline: u64,
    degraded: u64,
    internal: u64,
    unexpected: u64,
    reconnects: u64,
    latencies_us: Vec<u64>,
}

fn run_good_client(
    addr: std::net::SocketAddr,
    w: &Workload,
    seed: u64,
    deadline: Instant,
) -> Tally {
    let mut tally = Tally::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut backoff = Backoff::new(
        3,
        Duration::from_micros(500),
        Duration::from_millis(10),
        seed,
    );
    let mut client: Option<Client> = None;
    while Instant::now() < deadline {
        let c = match &mut client {
            Some(c) => c,
            None => match Client::connect(addr) {
                Ok(mut c) => {
                    let _ = c.set_io_timeout(Some(Duration::from_secs(10)));
                    c.set_deadline_ms(0); // server default budget
                    client.insert(c)
                }
                Err(_) => {
                    tally.reconnects += 1;
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
            },
        };
        let batch: Vec<Request> = (0..8).map(|_| sample_request(&mut rng, w)).collect();
        let start = Instant::now();
        match c.call_with_retry(&batch, &mut backoff) {
            Ok(resps) => {
                tally.latencies_us.push(start.elapsed().as_micros() as u64);
                for r in &resps {
                    match r {
                        Response::Error(Status::Overloaded, _) => tally.overloaded += 1,
                        Response::Error(Status::DeadlineExceeded, _) => tally.deadline += 1,
                        Response::Error(Status::Degraded, _) | Response::RecordsDegraded { .. } => {
                            tally.degraded += 1
                        }
                        Response::Error(Status::Internal, _) => tally.internal += 1,
                        Response::Error(..)
                            if !matches!(r, Response::Error(Status::NotFound, _)) =>
                        {
                            tally.unexpected += 1
                        }
                        _ => tally.ok += 1,
                    }
                }
            }
            Err(_) => {
                // Transport failure (e.g. our connection was severed
                // while a fault client thrashed the server, or an io
                // timeout): the framing is unusable — reconnect.
                tally.reconnects += 1;
                client = None;
            }
        }
    }
    tally
}

/// Writes half a frame and freezes. Returns true when the server
/// severs the connection (EOF/reset) within five idle-timeout periods.
fn run_staller(addr: std::net::SocketAddr, idle_timeout: Duration) -> bool {
    let Ok(mut sock) = TcpStream::connect(addr) else {
        return false;
    };
    if sock.write_all(&64u32.to_le_bytes()).is_err() || sock.write_all(&[0u8; 8]).is_err() {
        return false;
    }
    let _ = sock.flush();
    let _ = sock.set_read_timeout(Some(idle_timeout * 5));
    let mut sink = [0u8; 16];
    matches!(sock.read(&mut sink), Ok(0) | Err(_))
}

/// Sends one valid frame, half-closes its write side, and expects the
/// full response followed by EOF. Returns true on that exact shape.
fn run_half_closer(addr: std::net::SocketAddr, w: &Workload) -> bool {
    let Ok(mut client) = Client::connect(addr) else {
        return false;
    };
    let _ = client.set_io_timeout(Some(Duration::from_secs(10)));
    let reqs = vec![Request::Find(w.ids[0]), Request::GetSuccessors(w.ids[1])];
    let payload = ccam_server::protocol::encode_request_batch(7, 0, &reqs);
    if client.send_raw(&payload).is_err() || client.close_write().is_err() {
        return false;
    }
    match client.recv_raw() {
        Ok(Some(frame)) => {
            ccam_server::protocol::decode_response_batch(&frame)
                .map(|(_, resps)| resps.len() == reqs.len())
                .unwrap_or(false)
                && client.drain().is_ok()
        }
        _ => false,
    }
}

/// Pipelines frames and vanishes with responses unread (close with
/// unread data resets the connection under the server's writes).
fn run_vanisher(addr: std::net::SocketAddr, w: &Workload) {
    let Ok(mut client) = Client::connect(addr) else {
        return;
    };
    let heavy: Vec<Request> = w
        .ids
        .iter()
        .take(64)
        .map(|&id| Request::GetSuccessors(id))
        .collect();
    for tag in 0..6u32 {
        let payload = ccam_server::protocol::encode_request_batch(tag, 0, &heavy);
        if client.send_raw(&payload).is_err() {
            return;
        }
    }
    std::thread::sleep(Duration::from_millis(25));
    // Drop: responses unread in the socket buffer → RST on close.
}

/// Push the store's current (possibly faulted or healed) state into a
/// fresh published snapshot. Served reads are pinned to the last
/// committed generation, so a storage fault never reaches clients until
/// a writer commits past it — which is exactly what this does. Retries:
/// the capture itself reads through the armed chaos store.
fn republish<S: PageStore>(db: &EpochCell<Ccam<S>>) -> bool {
    for _ in 0..10 {
        if let Ok(w) = db.write() {
            w.file().pool().clear().ok();
            if w.commit().is_ok() {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

fn main() {
    let cfg = parse_args();
    let net = road_map(&RoadMapConfig {
        grid_w: 20,
        grid_h: 20,
        removed_nodes: 8,
        target_segments: 650,
        target_directed: 1150,
        cell: 64,
        jitter: 24,
        seed: 5,
    });
    let w = workload_from(&net, cfg.seed);

    // Production-shaped stack: retries (jittered, really sleeping)
    // absorb short glitch bursts; only over-budget faults reach the
    // access method — where the server degrades or answers Internal.
    let (chaos, controller) = FaultStore::with_seed(
        MemPageStore::new(1024).unwrap_or_else(|e| die(&format!("store: {e}"))),
        cfg.seed,
    );
    let retry = RetryStore::with_sleeper(
        chaos,
        RetryPolicy {
            max_attempts: 4,
            base_delay_ticks: 1,
            max_delay_ticks: 8,
            jitter_seed: None,
        }
        .with_jitter(cfg.seed),
        |ticks| std::thread::sleep(Duration::from_micros(ticks * 100)),
    );
    let am = CcamBuilder::new(1024)
        .build_static_on(retry, &net)
        .unwrap_or_else(|e| die(&format!("build: {e}")));
    let target = net.node_ids()[17];
    let target_page = am
        .file()
        .page_of(target)
        .ok()
        .flatten()
        .unwrap_or_else(|| die("target node has no page"));
    let db = Arc::new(
        EpochCell::new(am).unwrap_or_else(|e| die(&format!("publish initial snapshot: {e}"))),
    );

    let idle_timeout = Duration::from_millis(700);
    let handle = Server::start(
        Arc::clone(&db),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: cfg.workers,
            queue_depth: cfg.queue_depth,
            idle_timeout_ms: idle_timeout.as_millis() as u64,
            write_timeout_ms: 500,
            deadline_ms: 200,
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| die(&format!("server: {e}")));
    let addr = handle.local_addr();
    eprintln!(
        "chaos_serve: seed {} — {} good clients + 3 fault clients against {addr} for {}s",
        cfg.seed, cfg.connections, cfg.seconds
    );

    // Open the chaos valve only now: the build above ran clean.
    // Moderate chaos: ~1% glitches in bursts of 2, ~1% stalls of 2 ms.
    controller.set_fault_rate(12, 2);
    controller.set_latency(8, 2_000);

    let wall = Instant::now();
    let run_deadline = wall + Duration::from_secs(cfg.seconds);
    let stop = AtomicBool::new(false);
    let half_close_ok = AtomicU64::new(0);
    let half_close_runs = AtomicU64::new(0);
    let writer_recovered = AtomicBool::new(false);

    let (tallies, staller_reaped) = std::thread::scope(|s| {
        let good: Vec<_> = (0..cfg.connections)
            .map(|i| {
                let w = &w;
                s.spawn(move || run_good_client(addr, w, cfg.seed + i as u64, run_deadline))
            })
            .collect();
        let staller = s.spawn(|| run_staller(addr, idle_timeout));
        let stop_ref = &stop;
        let (hc_ok, hc_runs) = (&half_close_ok, &half_close_runs);
        let w_ref = &w;
        s.spawn(move || {
            while !stop_ref.load(Ordering::Relaxed) && Instant::now() < run_deadline {
                hc_runs.fetch_add(1, Ordering::Relaxed);
                if run_half_closer(addr, w_ref) {
                    hc_ok.fetch_add(1, Ordering::Relaxed);
                }
                run_vanisher(addr, w_ref);
                std::thread::sleep(Duration::from_millis(100));
            }
        });

        // Mid-run targeted faults, healed before the run ends. Served
        // reads come from pinned snapshots now, so mutating the store
        // is invisible to clients until the damage is committed into a
        // new published generation — each phase republishes explicitly.
        let controller = &controller;
        let db = &db;
        let writer_recovered = &writer_recovered;
        s.spawn(move || {
            let phase = Duration::from_secs(cfg.seconds) / 5;
            std::thread::sleep(phase);
            // Phase 1 — corrupt one data page and republish: reads of
            // it must degrade, not 500. The capture re-reads the page
            // from the store (cache evicted first) and pins it as
            // unreadable in the new generation; no eviction race with
            // the workers is possible because they never touch the
            // store, only the snapshot.
            controller.mark_corrupt(target_page);
            if !republish(db) {
                eprintln!("chaos_serve: could not republish corrupted view");
            }
            std::thread::sleep(phase);
            // Phase 2 — ENOSPC pulse: the snapshot read path owes
            // nothing to writability.
            controller.fill_after(0, false);
            std::thread::sleep(phase);
            controller.drain();
            // Phase 3 — writer panic mid-transaction: the cell is
            // poisoned, the whole window answers typed Internal
            // errors (charged as injected), and recover() reopens
            // serving on the committed generation.
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _w = db.write().expect("writer lock before injected panic");
                panic!("chaos_serve: injected writer panic");
            }))
            .is_err();
            std::thread::sleep(Duration::from_millis(100));
            if panicked && db.recover().is_ok() {
                writer_recovered.store(true, Ordering::Relaxed);
            }
            // Phase 4 — benign abort: a guard dropped without commit
            // must not bump the epoch or disturb a single client.
            let epoch_before = db.epoch();
            if let Ok(w) = db.write() {
                drop(w);
            }
            assert_eq!(db.epoch(), epoch_before, "benign abort bumped the epoch");
            // Heal: clear the corruption and republish a clean view.
            controller.clear_corrupt(target_page);
            if let Ok(w) = db.write() {
                w.file().clear_quarantined();
                w.file().pool().clear().ok();
                if w.commit().is_err() {
                    eprintln!("chaos_serve: could not republish healed view");
                }
            }
        });

        let tallies: Vec<Tally> = good
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| die("good client panicked")))
            .collect();
        stop.store(true, Ordering::Relaxed);
        let reaped = staller.join().unwrap_or(false);
        (tallies, reaped)
    });
    let elapsed = wall.elapsed().as_secs_f64();

    controller.set_fault_rate(0, 1);
    controller.set_latency(0, 0);
    let injected = controller.injected_faults();
    let metrics = Arc::clone(handle.metrics());
    let graceful_drain = handle.shutdown().is_ok();

    let mut t = Tally::default();
    for mut x in tallies {
        t.ok += x.ok;
        t.overloaded += x.overloaded;
        t.deadline += x.deadline;
        t.degraded += x.degraded;
        t.internal += x.internal;
        t.unexpected += x.unexpected;
        t.reconnects += x.reconnects;
        t.latencies_us.append(&mut x.latencies_us);
    }
    t.latencies_us.sort_unstable();
    let total = t.ok + t.overloaded + t.deadline + t.degraded + t.internal + t.unexpected;
    let p99 = percentile(&t.latencies_us, 0.99);
    let worker_panics = metrics.counter("serve.worker_panics");
    let degraded_reads = metrics.counter("serve.degraded_reads");
    let idle_reaped = metrics.counter("serve.idle_reaped");
    let snapshot_pins = metrics.counter("serve.snapshot_pins");
    let poisoned_internals = metrics.counter("serve.internal_errors.poisoned");
    let slot_waits = metrics.counter("serve.slot_waits");
    // Folded in by the shutdown above.
    let executing_peak = metrics.gauge("serve.executing_peak").unwrap_or(0.0);
    let recovered = writer_recovered.load(Ordering::Relaxed);
    // Internal responses are charged against the store's own injected
    // faults and the injected writer-panic (poisoned) window first;
    // only the excess (plus protocol-level surprises) counts against
    // the error budget.
    let non_injected = t.internal.saturating_sub(injected + poisoned_internals) + t.unexpected;
    let budget = (total.max(1) * cfg.error_budget_per_1024) / 1024;

    let mut violations: Vec<String> = Vec::new();
    if worker_panics > 0 {
        violations.push(format!("{worker_panics} worker panics (want 0)"));
    }
    if !graceful_drain {
        violations.push("shutdown did not drain cleanly".to_string());
    }
    if !staller_reaped {
        violations.push("stalled half-frame client was not reaped".to_string());
    }
    if degraded_reads == 0 {
        violations.push("no degraded reads despite page corruption".to_string());
    }
    if !recovered {
        violations.push("writer panic was not recovered".to_string());
    }
    if poisoned_internals == 0 {
        violations.push("poisoned window produced no typed Internal responses".to_string());
    }
    if non_injected > budget {
        violations.push(format!(
            "{non_injected} non-injected errors exceed budget {budget} ({}/1024 of {total})",
            cfg.error_budget_per_1024
        ));
    }
    if cfg.max_p99_us > 0 && p99 > cfg.max_p99_us {
        violations.push(format!("p99 {p99}us over bound {}us", cfg.max_p99_us));
    }

    let config = Json::object()
        .field("seed", cfg.seed)
        .field("seconds", cfg.seconds)
        .field("connections", cfg.connections)
        .field("workers", cfg.workers)
        .field("queue_depth", cfg.queue_depth);
    let results = Json::object()
        .field("qps", Json::Fixed(t.ok as f64 / elapsed, 1))
        .field("ok", t.ok)
        .field("overloaded", t.overloaded)
        .field("deadline_exceeded", t.deadline)
        .field("degraded", t.degraded)
        .field("internal", t.internal)
        .field("unexpected", t.unexpected)
        .field("reconnects", t.reconnects)
        .field("p50_us", percentile(&t.latencies_us, 0.50))
        .field("p99_us", p99)
        .field("injected_faults", injected)
        .field("injected_stalls", controller.injected_stalls())
        .field("non_injected_errors", non_injected)
        .field("worker_panics", worker_panics)
        .field("degraded_reads", degraded_reads)
        .field("idle_reaped", idle_reaped)
        .field("snapshot_pins", snapshot_pins)
        .field("slot_waits", slot_waits)
        .field("executing_peak", executing_peak)
        .field("poisoned_internals", poisoned_internals)
        .field("writer_recovered", recovered)
        .field("half_close_answered", half_close_ok.load(Ordering::Relaxed))
        .field("half_close_runs", half_close_runs.load(Ordering::Relaxed))
        .field("staller_reaped", staller_reaped)
        .field("graceful_drain", graceful_drain)
        .field("slo_violations", violations.len());
    let report = Json::object()
        .field("bench", "chaos_serve")
        .field("config", config)
        .field("results", results);
    std::fs::write(&cfg.out, report.render(2) + "\n")
        .unwrap_or_else(|e| die(&format!("--out {}: {e}", cfg.out)));
    println!(
        "ok {}  degraded {}  deadline {}  internal {} (injected {})  unexpected {}  p99 {}us  panics {}  drain {}",
        t.ok, t.degraded, t.deadline, t.internal, injected, t.unexpected, p99, worker_panics, graceful_drain
    );
    let _ = std::io::stdout().flush();

    if violations.is_empty() {
        eprintln!("chaos_serve: all SLOs held");
    } else {
        for v in &violations {
            eprintln!("chaos_serve: SLO VIOLATION — {v}");
        }
        std::process::exit(1);
    }
}
