//! Seeded chaos harness for WAL-shipping replication — `chaos_serve`'s
//! replication twin, writing `BENCH_PR9.json`.
//!
//! ```text
//! repl_chaos [--seed N] [--phase-ms MS] [--out FILE]
//!            [--max-catchup-ms MS] [--read-error-budget-per-1024 N]
//!            [--write-error-budget N]
//! ```
//!
//! The harness owns a full primary/follower pair on real loopback
//! sockets, with the replication link routed through an in-process
//! proxy so faults can be injected mid-stream:
//!
//! * **Link chaos** — the proxy stalls (bytes queue, no progress — the
//!   follower's read deadline fires and it reconnects with seeded
//!   backoff) and cuts (both sockets dropped mid-segment). Re-shipped
//!   segments must apply idempotently: digest parity is asserted after
//!   every fault window.
//! * **Primary crash** — the primary is torn down without a checkpoint
//!   and reopened from its page file + WAL sidecar (real recovery),
//!   restarting on fresh ports. The follower must keep serving reads
//!   while the primary is dead, then catch up within the bound; writes
//!   must fail over back to the restarted primary via the `NotPrimary`
//!   address learned in the new handshake.
//! * **Follower restart from a stale LSN** — the follower is stopped,
//!   its position sidecar rewound to LSN 1, and the primary's WAL
//!   checkpointed past it. On restart the primary must answer
//!   `NotRetained` and hand off a checkpoint image; parity is asserted
//!   after the handoff catch-up.
//!
//! Exit is non-zero unless every SLO holds: zero digest divergence at
//! every sync point, follower reads observed during primary downtime,
//! catch-up after each disruption within `--max-catchup-ms`, an image
//! handoff observed, and read/write error budgets respected.

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ccam_bench::Args;
use ccam_core::epoch::EpochCell;
use ccam_core::{AccessMethod, Ccam, CcamBuilder};
use ccam_graph::roadmap::{road_map, RoadMapConfig};
use ccam_graph::{Network, NodeId};
use ccam_server::client::{Backoff, MultiClient};
use ccam_server::protocol::{Request, Response, Status};
use ccam_server::{ReplRole, Server, ServerConfig, ServerHandle};
use ccam_storage::{FilePageStore, Json, PageStore, WalControl, WalStore};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

type Db = WalStore<FilePageStore>;

struct Config {
    seed: u64,
    phase_ms: u64,
    out: String,
    max_catchup_ms: u64,
    read_error_budget_per_1024: u64,
    write_error_budget: u64,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        seed: 42,
        phase_ms: 1_000,
        out: "BENCH_PR9.json".to_string(),
        max_catchup_ms: 10_000,
        read_error_budget_per_1024: 16,
        write_error_budget: 2,
    };
    let mut args = Args::from_env("repl_chaos");
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => cfg.seed = args.num(&flag),
            "--phase-ms" => cfg.phase_ms = args.num(&flag),
            "--out" => cfg.out = args.value(&flag),
            "--max-catchup-ms" => cfg.max_catchup_ms = args.num(&flag),
            "--read-error-budget-per-1024" => cfg.read_error_budget_per_1024 = args.num(&flag),
            "--write-error-budget" => cfg.write_error_budget = args.num(&flag),
            other => args.fail(&format!("unknown flag {other}")),
        }
    }
    cfg
}

fn die(msg: &str) -> ! {
    eprintln!("repl_chaos: {msg}");
    std::process::exit(2);
}

// ---------------------------------------------------------------------------
// Replication-link proxy: the follower subscribes through this, so the
// harness can stall or cut the link mid-segment without touching either
// endpoint's code.
// ---------------------------------------------------------------------------

struct Proxy {
    addr: String,
    stall: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<Arc<AtomicBool>>>>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl Proxy {
    fn start(upstream: Arc<Mutex<String>>) -> Proxy {
        let listener =
            TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| die(&format!("proxy: {e}")));
        let addr = listener.local_addr().unwrap().to_string();
        let stall = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<Arc<AtomicBool>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let (stall, stop, conns, upstream) = (
                Arc::clone(&stall),
                Arc::clone(&stop),
                Arc::clone(&conns),
                Arc::clone(&upstream),
            );
            std::thread::spawn(move || {
                for inbound in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(inbound) = inbound else { continue };
                    let target = upstream.lock().unwrap().clone();
                    let Ok(outbound) = TcpStream::connect(&target) else {
                        // Primary is down: drop the subscription attempt;
                        // the follower's backoff retries.
                        continue;
                    };
                    let kill = Arc::new(AtomicBool::new(false));
                    conns.lock().unwrap().push(Arc::clone(&kill));
                    spawn_pump(
                        inbound.try_clone().unwrap(),
                        outbound.try_clone().unwrap(),
                        &stall,
                        &kill,
                    );
                    spawn_pump(outbound, inbound, &stall, &kill);
                }
            })
        };
        Proxy {
            addr,
            stall,
            stop,
            conns,
            acceptor: Some(acceptor),
        }
    }

    /// Freeze both directions: bytes queue in the kernel, no progress.
    /// The follower's read deadline treats this as primary death.
    fn set_stall(&self, on: bool) {
        self.stall.store(on, Ordering::SeqCst);
    }

    /// Drop every live proxied connection mid-stream.
    fn cut(&self) {
        for kill in self.conns.lock().unwrap().drain(..) {
            kill.store(true, Ordering::SeqCst);
        }
    }

    fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.cut();
        // Wake the blocking accept.
        let _ = TcpStream::connect(&self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// One direction of a proxied connection. Uses a short read timeout as
/// the poll tick so stall/kill flags are honored mid-stream.
fn spawn_pump(from: TcpStream, to: TcpStream, stall: &Arc<AtomicBool>, kill: &Arc<AtomicBool>) {
    let (stall, kill) = (Arc::clone(stall), Arc::clone(kill));
    std::thread::spawn(move || {
        let mut from = from;
        let mut to = to;
        let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
        let mut buf = [0u8; 16 * 1024];
        loop {
            if kill.load(Ordering::SeqCst) {
                break;
            }
            if stall.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
            match from.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    if to.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(_) => break,
            }
        }
        let _ = from.shutdown(Shutdown::Both);
        let _ = to.shutdown(Shutdown::Both);
    });
}

// ---------------------------------------------------------------------------
// Address board: restarted servers come back on fresh ports; clients
// and the proxy re-resolve through this.
// ---------------------------------------------------------------------------

struct Board {
    primary_client: Mutex<String>,
    follower_client: Mutex<String>,
    generation: AtomicU64,
}

impl Board {
    fn endpoints(&self) -> Vec<String> {
        vec![
            self.primary_client.lock().unwrap().clone(),
            self.follower_client.lock().unwrap().clone(),
        ]
    }
}

// ---------------------------------------------------------------------------
// Primary / follower lifecycle
// ---------------------------------------------------------------------------

fn start_primary(
    db_path: &Path,
    wal_path: &Path,
    net: Option<&Network>,
) -> (ServerHandle<Db>, u64) {
    let (store, replayed) = match net {
        Some(_) => (
            WalStore::create(
                FilePageStore::create(db_path, 1024)
                    .unwrap_or_else(|e| die(&format!("create: {e}"))),
                wal_path,
            )
            .unwrap_or_else(|e| die(&format!("wal create: {e}"))),
            0,
        ),
        None => {
            // Restart after a crash: reopen page file + WAL, replaying
            // committed batches the crash left unapplied.
            let inner =
                FilePageStore::open(db_path).unwrap_or_else(|e| die(&format!("reopen: {e}")));
            let (ws, report) =
                WalStore::open(inner, wal_path).unwrap_or_else(|e| die(&format!("recover: {e}")));
            (ws, report.replayed_batches)
        }
    };
    let builder = CcamBuilder::new(1024);
    let mut am = match net {
        Some(net) => builder
            .build_static_on(store, net)
            .unwrap_or_else(|e| die(&format!("build: {e}"))),
        None => builder
            .open_on(store)
            .unwrap_or_else(|e| die(&format!("open: {e}"))),
    };
    am.file_mut().set_auto_commit(true);
    am.file()
        .pool()
        .with_store_mut(|s| s.set_max_wal_bytes(Some(256 << 10)));
    let cell = Arc::new(EpochCell::new(am).unwrap_or_else(|e| die(&format!("publish: {e}"))));
    let handle = Server::start(
        cell,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            role: ReplRole::Primary {
                repl_addr: Some("127.0.0.1:0".to_string()),
            },
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| die(&format!("primary start: {e}")));
    (handle, replayed)
}

fn start_follower(
    db_path: &Path,
    wal_path: &Path,
    lsn_path: &Path,
    proxy_addr: &str,
    seed: u64,
    fresh: bool,
) -> ServerHandle<Db> {
    let builder = CcamBuilder::new(1024);
    let mut am = if fresh {
        let store = WalStore::create(
            FilePageStore::create(db_path, 1024).unwrap_or_else(|e| die(&format!("f create: {e}"))),
            wal_path,
        )
        .unwrap_or_else(|e| die(&format!("f wal: {e}")));
        // A follower starts empty and catches up entirely over the wire.
        builder
            .build_static_on(store, &Network::new())
            .unwrap_or_else(|e| die(&format!("f build: {e}")))
    } else {
        let inner = FilePageStore::open(db_path).unwrap_or_else(|e| die(&format!("f reopen: {e}")));
        let (ws, _report) =
            WalStore::open(inner, wal_path).unwrap_or_else(|e| die(&format!("f recover: {e}")));
        builder
            .open_on(ws)
            .unwrap_or_else(|e| die(&format!("f open: {e}")))
    };
    am.file_mut().set_auto_commit(true);
    let cell = Arc::new(EpochCell::new(am).unwrap_or_else(|e| die(&format!("f publish: {e}"))));
    Server::start(
        cell,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            role: ReplRole::Replica {
                primary: proxy_addr.to_string(),
                seed,
                lsn_path: Some(lsn_path.to_path_buf()),
            },
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| die(&format!("follower start: {e}")))
}

// ---------------------------------------------------------------------------
// Divergence detection: the generation-digest ledger
// ---------------------------------------------------------------------------

/// Layout-independent digest of every record reachable in a pinned
/// view — two stores digest equal iff they hold the same logical nodes.
/// A view that cannot be scanned digests as one holding no records.
fn digest<S: PageStore>(am: &Ccam<S>) -> u64 {
    use std::hash::Hasher;
    ccam_testing::digest(am.file())
        .unwrap_or_else(|_| std::collections::hash_map::DefaultHasher::new().finish())
}

fn primary_next_lsn(primary: &ServerHandle<Db>) -> u64 {
    primary
        .db()
        .with_writer(|am| am.file().pool().with_store(|s| s.info()))
        .map_or(0, |i| i.next_lsn)
}

/// Waits until the follower has applied everything the primary has
/// committed; returns the wait in ms, or `None` on timeout.
fn await_catch_up(
    primary: &ServerHandle<Db>,
    follower: &ServerHandle<Db>,
    bound: Duration,
) -> Option<u64> {
    let start = Instant::now();
    loop {
        let target = primary_next_lsn(primary).saturating_sub(1);
        if follower.applied_lsn() >= target {
            return Some(start.elapsed().as_millis() as u64);
        }
        if start.elapsed() > bound {
            eprintln!(
                "repl_chaos: catch-up stuck at {} of {}",
                follower.applied_lsn(),
                target
            );
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

// ---------------------------------------------------------------------------
// Workload threads
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ReadTally {
    ok: u64,
    failed: u64,
    downtime_ok: u64,
}

#[derive(Default)]
struct WriteTally {
    ok: u64,
    failed_in_downtime: u64,
    failed_outside: u64,
}

struct Flags {
    stop: AtomicBool,
    pause_writer: AtomicBool,
    writer_idle: AtomicBool,
    primary_down: AtomicBool,
}

fn run_reader(board: &Board, flags: &Flags, ids: &[NodeId], seed: u64) -> ReadTally {
    let mut t = ReadTally::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut backoff = Backoff::new(
        8,
        Duration::from_millis(10),
        Duration::from_millis(80),
        seed,
    );
    let mut mc = MultiClient::new(board.endpoints());
    let _ = mc.set_io_timeout(Some(Duration::from_secs(5)));
    let mut gen = board.generation.load(Ordering::Acquire);
    while !flags.stop.load(Ordering::Acquire) {
        let now_gen = board.generation.load(Ordering::Acquire);
        if now_gen != gen {
            gen = now_gen;
            mc.set_endpoints(board.endpoints());
        }
        let id = ids[rng.random_range(0..ids.len())];
        let req = if rng.random_range(0..2u32) == 0 {
            Request::Find(id)
        } else {
            Request::GetSuccessors(id)
        };
        let down = flags.primary_down.load(Ordering::Acquire);
        match mc.call_with_retry(&[req], &mut backoff) {
            Ok(resps) => match &resps[0] {
                Response::Error(Status::NotFound, _)
                | Response::Record(_)
                | Response::Records(_) => {
                    t.ok += 1;
                    if down {
                        t.downtime_ok += 1;
                    }
                }
                Response::RecordsDegraded { .. } => t.ok += 1,
                _ => t.failed += 1,
            },
            Err(_) => t.failed += 1,
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    t
}

fn run_writer(board: &Board, flags: &Flags, ids: &[NodeId], seed: u64) -> WriteTally {
    let mut t = WriteTally::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E3779B97F4A7C15);
    let mut backoff = Backoff::new(
        6,
        Duration::from_millis(10),
        Duration::from_millis(80),
        seed,
    );
    let mut mc = MultiClient::new(board.endpoints());
    let _ = mc.set_io_timeout(Some(Duration::from_secs(5)));
    let mut gen = board.generation.load(Ordering::Acquire);
    while !flags.stop.load(Ordering::Acquire) {
        if flags.pause_writer.load(Ordering::Acquire) {
            flags.writer_idle.store(true, Ordering::Release);
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        flags.writer_idle.store(false, Ordering::Release);
        let now_gen = board.generation.load(Ordering::Acquire);
        if now_gen != gen {
            gen = now_gen;
            mc.set_endpoints(board.endpoints());
        }
        let id = ids[rng.random_range(0..ids.len())];
        let payload: Vec<u8> = (0..rng.random_range(4..24usize))
            .map(|_| rng.random_range(0..=255u32) as u8)
            .collect();
        let down = flags.primary_down.load(Ordering::Acquire);
        match mc.call_with_retry(&[Request::Upsert { id, payload }], &mut backoff) {
            Ok(resps) if matches!(resps[0], Response::Upserted { .. }) => t.ok += 1,
            Ok(resps) if matches!(resps[0], Response::Error(Status::NotFound, _)) => t.ok += 1,
            _ if down => t.failed_in_downtime += 1,
            _ => t.failed_outside += 1,
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    flags.writer_idle.store(true, Ordering::Release);
    t
}

// ---------------------------------------------------------------------------

struct Harness<'a> {
    flags: &'a Flags,
    violations: Mutex<Vec<String>>,
    parity_checks: AtomicU64,
    parity_failures: AtomicU64,
}

impl Harness<'_> {
    fn violation(&self, msg: String) {
        eprintln!("repl_chaos: SLO VIOLATION — {msg}");
        self.violations.lock().unwrap().push(msg);
    }

    /// Quiesce the writer, wait for full catch-up, then compare the
    /// generation digests. Any mismatch is divergence — an SLO failure.
    fn parity_check(
        &self,
        primary: &ServerHandle<Db>,
        follower: &ServerHandle<Db>,
        bound: Duration,
        what: &str,
    ) {
        self.flags.pause_writer.store(true, Ordering::Release);
        while !self.flags.writer_idle.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.parity_checks.fetch_add(1, Ordering::Relaxed);
        if await_catch_up(primary, follower, bound).is_none() {
            self.parity_failures.fetch_add(1, Ordering::Relaxed);
            self.violation(format!("{what}: catch-up timed out before parity check"));
        } else {
            let p = primary.db().read().map(|g| digest(&g)).unwrap_or(0);
            let f = follower.db().read().map(|g| digest(&g)).unwrap_or(1);
            if p != f {
                self.parity_failures.fetch_add(1, Ordering::Relaxed);
                self.violation(format!("{what}: digest divergence ({p:#x} != {f:#x})"));
            }
        }
        self.flags.pause_writer.store(false, Ordering::Release);
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let cfg = parse_args();
    let phase = Duration::from_millis(cfg.phase_ms);
    let catchup_bound = Duration::from_millis(cfg.max_catchup_ms);
    let net = road_map(&RoadMapConfig {
        grid_w: 16,
        grid_h: 16,
        removed_nodes: 6,
        target_segments: 420,
        target_directed: 740,
        cell: 64,
        jitter: 24,
        seed: 5,
    });
    let ids = net.node_ids();

    let dir = std::env::temp_dir().join(format!("ccam-repl-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| die(&format!("tempdir: {e}")));
    let p_db = dir.join("p.db");
    let p_wal = dir.join("p.db.wal");
    let f_db = dir.join("f.db");
    let f_wal = dir.join("f.db.wal");
    let f_lsn: PathBuf = dir.join("f.db.repllsn");

    // Primary first: the proxy needs its replication address.
    let (primary, _) = start_primary(&p_db, &p_wal, Some(&net));
    let upstream = Arc::new(Mutex::new(primary.repl_addr().unwrap().to_string()));
    let proxy = Proxy::start(Arc::clone(&upstream));
    let follower = start_follower(&f_db, &f_wal, &f_lsn, &proxy.addr, cfg.seed, true);

    let board = Board {
        primary_client: Mutex::new(primary.local_addr().to_string()),
        follower_client: Mutex::new(follower.local_addr().to_string()),
        generation: AtomicU64::new(0),
    };
    let flags = Flags {
        stop: AtomicBool::new(false),
        pause_writer: AtomicBool::new(false),
        writer_idle: AtomicBool::new(false),
        primary_down: AtomicBool::new(false),
    };
    let harness = Harness {
        flags: &flags,
        violations: Mutex::new(Vec::new()),
        parity_checks: AtomicU64::new(0),
        parity_failures: AtomicU64::new(0),
    };
    eprintln!(
        "repl_chaos: seed {} — primary {} / follower {} via proxy {}",
        cfg.seed,
        primary.local_addr(),
        follower.local_addr(),
        proxy.addr
    );

    let wall = Instant::now();
    let mut crash_catchup_ms = 0u64;
    let mut stale_catchup_ms = 0u64;
    let mut recovery_replayed = 0u64;
    let mut downtime_ms = 0u64;
    let mut early_disconnects = 0u64;
    let mut early_segments = 0u64;

    let (reads, writes, primary, follower) = std::thread::scope(|s| {
        let mut primary = primary;
        let mut follower = follower;
        let readers: Vec<_> = (0..2)
            .map(|i| {
                let (board, flags, ids) = (&board, &flags, &ids[..]);
                s.spawn(move || run_reader(board, flags, ids, cfg.seed + 100 + i))
            })
            .collect();
        let writer = {
            let (board, flags, ids) = (&board, &flags, &ids[..]);
            s.spawn(move || run_writer(board, flags, ids, cfg.seed))
        };

        // Phase 1 — warmup: cold catch-up from empty, then parity.
        std::thread::sleep(phase);
        harness.parity_check(&primary, &follower, catchup_bound, "warmup");

        // Phase 2 — link stall mid-segment: the follower's read
        // deadline declares the primary dead; on unstall it reconnects
        // and re-ships. Then a hard cut mid-stream. Both must converge
        // with zero divergence (idempotent re-apply).
        proxy.set_stall(true);
        std::thread::sleep(phase);
        proxy.set_stall(false);
        std::thread::sleep(phase / 2);
        proxy.cut();
        std::thread::sleep(phase / 2);
        harness.parity_check(&primary, &follower, catchup_bound, "link faults");

        // Phase 3 — primary crash + WAL recovery restart. The database
        // is leaked, not dropped: closing it would checkpoint, and the
        // reopen must replay the WAL.
        flags.primary_down.store(true, Ordering::Release);
        let down_at = Instant::now();
        let killed = Arc::clone(primary.db());
        if primary.shutdown().is_err() {
            harness.violation("primary teardown did not drain".to_string());
        }
        std::mem::forget(killed);
        proxy.cut();
        std::thread::sleep(phase);
        let (p2, replayed) = start_primary(&p_db, &p_wal, None);
        recovery_replayed = replayed;
        primary = p2;
        *upstream.lock().unwrap() = primary.repl_addr().unwrap().to_string();
        *board.primary_client.lock().unwrap() = primary.local_addr().to_string();
        board.generation.fetch_add(1, Ordering::Release);
        // Grace: let clients observe the new address before failures
        // start counting against the write budget.
        std::thread::sleep(Duration::from_millis(300));
        flags.primary_down.store(false, Ordering::Release);
        downtime_ms = down_at.elapsed().as_millis() as u64;
        match await_catch_up(&primary, &follower, catchup_bound) {
            Some(ms) => crash_catchup_ms = ms,
            None => harness.violation("crash recovery: follower never caught up".to_string()),
        }
        std::thread::sleep(phase / 2);
        harness.parity_check(&primary, &follower, catchup_bound, "primary crash");

        // Phase 4 — follower restart from a stale LSN, against a
        // checkpointed primary: the retained tail no longer covers the
        // stale position, so the primary must hand off an image.
        // (The restart wipes the follower's registry — carry the link
        // fault counters forward first.)
        early_disconnects = follower.metrics().counter("serve.repl.disconnects");
        early_segments = follower.metrics().counter("serve.repl.segments");
        if follower.shutdown().is_err() {
            harness.violation("follower teardown did not drain".to_string());
        }
        std::fs::write(&f_lsn, "1").unwrap_or_else(|e| die(&format!("rewind sidecar: {e}")));
        // Fresh follower state: the image handoff path must rebuild it.
        let _ = std::fs::remove_file(&f_db);
        let _ = std::fs::remove_file(&f_wal);
        std::thread::sleep(phase / 2);
        // With the subscriber gone, checkpoint until the WAL tail
        // starts past the stale position.
        let ckpt_deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let truncated = primary
                .db()
                .write()
                .ok()
                .map(|w| {
                    w.file().pool().with_store_mut(|st| {
                        let _ = st.checkpoint();
                        st.info()
                    })
                })
                .is_some_and(|i| i.tail_start_lsn > 2);
            if truncated {
                break;
            }
            if Instant::now() > ckpt_deadline {
                harness.violation("could not checkpoint past the stale LSN".to_string());
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        follower = start_follower(&f_db, &f_wal, &f_lsn, &proxy.addr, cfg.seed + 1, true);
        *board.follower_client.lock().unwrap() = follower.local_addr().to_string();
        board.generation.fetch_add(1, Ordering::Release);
        match await_catch_up(&primary, &follower, catchup_bound) {
            Some(ms) => stale_catchup_ms = ms,
            None => harness.violation("stale restart: follower never caught up".to_string()),
        }
        std::thread::sleep(phase / 2);
        harness.parity_check(&primary, &follower, catchup_bound, "stale-LSN restart");

        flags.stop.store(true, Ordering::Release);
        let mut reads = ReadTally::default();
        for r in readers {
            let t = r.join().unwrap_or_else(|_| die("reader panicked"));
            reads.ok += t.ok;
            reads.failed += t.failed;
            reads.downtime_ok += t.downtime_ok;
        }
        let writes = writer.join().unwrap_or_else(|_| die("writer panicked"));
        (reads, writes, primary, follower)
    });
    let elapsed = wall.elapsed().as_secs_f64();

    let image_handoffs = follower.metrics().counter("serve.repl.image_handoffs");
    let follower_disconnects =
        early_disconnects + follower.metrics().counter("serve.repl.disconnects");
    let segments_applied = early_segments + follower.metrics().counter("serve.repl.segments");
    let graceful = follower.shutdown().is_ok() & primary.shutdown().is_ok();
    proxy.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // ----- SLO gates ------------------------------------------------------
    if writes.ok == 0 {
        harness.violation("no successful writes".to_string());
    }
    if reads.ok == 0 {
        harness.violation("no successful reads".to_string());
    }
    if reads.downtime_ok == 0 {
        harness.violation("follower served no reads during primary downtime".to_string());
    }
    if image_handoffs == 0 {
        harness.violation("stale-LSN restart produced no image handoff".to_string());
    }
    if crash_catchup_ms > cfg.max_catchup_ms {
        harness.violation(format!(
            "crash catch-up {crash_catchup_ms}ms over bound {}ms",
            cfg.max_catchup_ms
        ));
    }
    if stale_catchup_ms > cfg.max_catchup_ms {
        harness.violation(format!(
            "stale-restart catch-up {stale_catchup_ms}ms over bound {}ms",
            cfg.max_catchup_ms
        ));
    }
    let total_reads = reads.ok + reads.failed;
    let read_budget = (total_reads.max(1) * cfg.read_error_budget_per_1024) / 1024;
    if reads.failed > read_budget {
        harness.violation(format!(
            "{} read failures exceed budget {read_budget}",
            reads.failed
        ));
    }
    if writes.failed_outside > cfg.write_error_budget {
        harness.violation(format!(
            "{} write failures outside downtime exceed budget {}",
            writes.failed_outside, cfg.write_error_budget
        ));
    }
    if !graceful {
        harness.violation("final shutdown did not drain cleanly".to_string());
    }
    let violations = harness.violations.into_inner().unwrap();

    let config = Json::object()
        .field("seed", cfg.seed)
        .field("phase_ms", cfg.phase_ms)
        .field("max_catchup_ms", cfg.max_catchup_ms);
    let results = Json::object()
        .field("elapsed_s", Json::Fixed(elapsed, 1))
        .field("writes_ok", writes.ok)
        .field("writes_failed_in_downtime", writes.failed_in_downtime)
        .field("writes_failed_outside", writes.failed_outside)
        .field("reads_ok", reads.ok)
        .field("reads_failed", reads.failed)
        .field("reads_during_downtime", reads.downtime_ok)
        .field(
            "parity_checks",
            harness.parity_checks.load(Ordering::Relaxed),
        )
        .field(
            "parity_failures",
            harness.parity_failures.load(Ordering::Relaxed),
        )
        .field("primary_downtime_ms", downtime_ms)
        .field("crash_catchup_ms", crash_catchup_ms)
        .field("stale_restart_catchup_ms", stale_catchup_ms)
        .field("recovery_replayed_batches", recovery_replayed)
        .field("image_handoffs", image_handoffs)
        .field("segments_applied", segments_applied)
        .field("follower_disconnects", follower_disconnects)
        .field("graceful_drain", graceful)
        .field("slo_violations", violations.len());
    let report = Json::object()
        .field("bench", "repl_chaos")
        .field("config", config)
        .field("results", results);
    std::fs::write(&cfg.out, report.render(2) + "\n")
        .unwrap_or_else(|e| die(&format!("--out {}: {e}", cfg.out)));
    println!(
        "writes {} reads {} (downtime {})  parity {}/{}  catch-up crash {}ms stale {}ms  handoffs {}  replayed {}",
        writes.ok,
        reads.ok,
        reads.downtime_ok,
        harness.parity_checks.load(Ordering::Relaxed)
            - harness.parity_failures.load(Ordering::Relaxed),
        harness.parity_checks.load(Ordering::Relaxed),
        crash_catchup_ms,
        stale_catchup_ms,
        image_handoffs,
        recovery_replayed,
    );
    let _ = std::io::stdout().flush();

    if violations.is_empty() {
        eprintln!("repl_chaos: all SLOs held");
    } else {
        for v in &violations {
            eprintln!("repl_chaos: SLO VIOLATION — {v}");
        }
        std::process::exit(1);
    }
}
