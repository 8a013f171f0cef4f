//! Reader-stall probe for MVCC-lite snapshot reads, writing
//! `BENCH_PR8.json`.
//!
//! ```text
//! reorg_stall [--seconds S] [--readers N] [--seed N] [--out FILE]
//!             [--max-ratio R] [--floor-us N]
//! ```
//!
//! The claim under test is the PR-8 tentpole: the read path must not
//! stall (or tear) while the writer commits and reorganizes. The probe
//! runs the same closed-loop read workload twice over one `EpochCell`
//! whose views pin the write-ahead log's page versions:
//!
//! 1. **Quiescent** — no writer at all.
//! 2. **Churn** — a writer loops `reorganize_full()` + commit as fast
//!    as it can, rewriting the entire file layout over and over.
//!
//! Every read iteration pins a snapshot and runs `find` +
//! `get_successors` over a few probe nodes, timing the whole
//! pin-to-answer span. Before this PR the reader shared one `RwLock`
//! with the writer, so the churn p99 was the duration of a full
//! reorganization (tens of milliseconds). The gate passes when either
//!
//! * churn p99 is within `--max-ratio` (default 2x) of the quiescent
//!   p99, modulo an absolute noise floor (`--floor-us`, default 300) —
//!   the expected outcome on a multi-core host; or
//! * churn p99 is under a quarter of the *average reorganization
//!   duration* — the machine-independent form of "no reader ever waited
//!   out a writer critical section". On a single-core host a saturated
//!   writer steals whole scheduler timeslices from the readers (a
//!   millisecond-scale tail no locking design can avoid), but a reader
//!   actually blocked on the writer would show the full reorganization
//!   time, tens of milliseconds, and still fail.
//!
//! Exit is non-zero when the gate fails, when any reader hits an
//! error, or when the writer fails to commit — so CI can hold the line
//! with a single invocation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccam_bench::{percentile, Args};
use ccam_core::epoch::EpochCell;
use ccam_core::{AccessMethod, Ccam, CcamBuilder};
use ccam_graph::roadmap::{road_map, RoadMapConfig};
use ccam_graph::NodeId;
use ccam_storage::{Json, MemPageStore, PageStore, WalStore};

fn die(msg: &str) -> ! {
    eprintln!("reorg_stall: {msg}");
    std::process::exit(2);
}

/// One measurement phase: `readers` closed-loop reader threads for
/// `secs`, each iteration = pin a snapshot + probe reads, returning
/// the merged, sorted per-iteration latencies in nanoseconds.
fn measure<S: PageStore>(
    db: &EpochCell<Ccam<S>>,
    probes: &[NodeId],
    readers: usize,
    secs: Duration,
) -> Vec<u64> {
    let deadline = Instant::now() + secs;
    let mut all: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(1 << 16);
                    while Instant::now() < deadline {
                        let start = Instant::now();
                        let snap = db.read().unwrap_or_else(|e| die(&format!("pin: {e}")));
                        for &id in probes {
                            let found =
                                snap.find(id).unwrap_or_else(|e| die(&format!("find: {e}")));
                            if found.is_none() {
                                die("probe node vanished from a committed snapshot");
                            }
                            let succ = snap
                                .get_successors(id)
                                .unwrap_or_else(|e| die(&format!("successors: {e}")));
                            std::hint::black_box(succ);
                        }
                        lat.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|_| die("reader panicked")))
            .collect()
    });
    all.sort_unstable();
    all
}

fn main() {
    let mut seconds: u64 = 6;
    let mut readers: usize = 2;
    let mut seed: u64 = 42;
    let mut out = String::from("BENCH_PR8.json");
    let mut max_ratio: f64 = 2.0;
    let mut floor_us: u64 = 300;
    let mut args = Args::from_env("reorg_stall");
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seconds" => seconds = args.num(&flag),
            "--readers" => readers = args.num(&flag),
            "--seed" => seed = args.num(&flag),
            "--out" => out = args.value(&flag),
            "--max-ratio" => max_ratio = args.num(&flag),
            "--floor-us" => floor_us = args.num(&flag),
            other => args.fail(&format!("unknown flag {other}")),
        }
    }
    let net = road_map(&RoadMapConfig {
        grid_w: 20,
        grid_h: 20,
        removed_nodes: 8,
        target_segments: 650,
        target_directed: 1150,
        cell: 64,
        jitter: 24,
        seed,
    });
    let ids = net.node_ids();
    let probes: Vec<NodeId> = (0..8).map(|k| ids[k * ids.len() / 8]).collect();

    // The serving deployment stack: WAL-backed, so each commit
    // publishes the page versions it changed.
    let wal_path =
        std::env::temp_dir().join(format!("ccam-reorg-stall-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal_path);
    let mem = MemPageStore::new(1024).unwrap_or_else(|e| die(&format!("store: {e}")));
    let wal = WalStore::create(mem, &wal_path).unwrap_or_else(|e| die(&format!("wal: {e}")));
    let am = CcamBuilder::new(1024)
        .build_static_on(wal, &net)
        .unwrap_or_else(|e| die(&format!("build: {e}")));
    let db = Arc::new(EpochCell::new(am).unwrap_or_else(|e| die(&format!("publish: {e}"))));

    let half = Duration::from_secs(seconds) / 2;

    // Phase 1 — quiescent baseline.
    let quiescent = measure(&db, &probes, readers, half);

    // Phase 2 — same workload while the writer reorganizes in a loop.
    let stop = AtomicBool::new(false);
    let reorgs = AtomicU64::new(0);
    let epoch_before = db.epoch();
    let busy_ns = AtomicU64::new(0);
    let churn = std::thread::scope(|s| {
        let db_ref = &db;
        let (stop_ref, reorgs_ref, busy_ref) = (&stop, &reorgs, &busy_ns);
        s.spawn(move || {
            while !stop_ref.load(Ordering::Relaxed) {
                let started = Instant::now();
                let mut w = db_ref
                    .write()
                    .unwrap_or_else(|e| die(&format!("writer: {e}")));
                w.reorganize_full()
                    .unwrap_or_else(|e| die(&format!("reorganize: {e}")));
                w.commit().unwrap_or_else(|e| die(&format!("commit: {e}")));
                busy_ref.fetch_add(
                    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    Ordering::Relaxed,
                );
                reorgs_ref.fetch_add(1, Ordering::Relaxed);
            }
        });
        let churn = measure(&db, &probes, readers, half);
        stop.store(true, Ordering::Relaxed);
        churn
    });
    let reorgs = reorgs.load(Ordering::Relaxed);
    if reorgs == 0 {
        die("writer completed no reorganizations — churn phase measured nothing");
    }
    if db.epoch() != epoch_before + reorgs {
        die("epoch must advance once per committed reorganization");
    }

    let q_p50 = percentile(&quiescent, 0.50);
    let q_p99 = percentile(&quiescent, 0.99);
    let c_p50 = percentile(&churn, 0.50);
    let c_p99 = percentile(&churn, 0.99);
    let ratio = c_p99 as f64 / q_p99.max(1) as f64;
    let floor_ns = floor_us * 1_000;
    let avg_reorg_ns = busy_ns.load(Ordering::Relaxed) / reorgs.max(1);
    // Two ways to pass: the tight multi-core gate, or the
    // machine-independent "no reader waited out a writer critical
    // section" bound (see module docs).
    let pass = c_p99 as f64 <= (q_p99 as f64 * max_ratio).max(floor_ns as f64)
        || c_p99.saturating_mul(4) <= avg_reorg_ns;

    let us = |ns: u64| Json::Fixed(ns as f64 / 1_000.0, 1);
    let report = Json::object()
        .field("bench", "reorg_stall")
        .field(
            "config",
            Json::object()
                .field("seed", seed)
                .field("seconds", seconds)
                .field("readers", readers)
                .field("max_ratio", max_ratio)
                .field("floor_us", floor_us),
        )
        .field(
            "results",
            Json::object()
                .field("quiescent_reads", quiescent.len())
                .field("churn_reads", churn.len())
                .field("reorganizations", reorgs)
                .field("quiescent_p50_us", us(q_p50))
                .field("quiescent_p99_us", us(q_p99))
                .field("churn_p50_us", us(c_p50))
                .field("churn_p99_us", us(c_p99))
                .field("p99_ratio", Json::Fixed(ratio, 2))
                .field("avg_reorg_ms", Json::Fixed(avg_reorg_ns as f64 / 1e6, 1))
                .field("pass", pass),
        );
    std::fs::write(&out, report.render(2) + "\n")
        .unwrap_or_else(|e| die(&format!("--out {}: {e}", out)));
    let _ = std::fs::remove_file(&wal_path);
    println!(
        "quiescent p99 {:.1}us  churn p99 {:.1}us  ratio {:.2}  ({} reorganizations, avg {:.1}ms each)",
        q_p99 as f64 / 1_000.0,
        c_p99 as f64 / 1_000.0,
        ratio,
        reorgs,
        avg_reorg_ns as f64 / 1_000_000.0,
    );
    if !pass {
        eprintln!(
            "reorg_stall: churn p99 {:.1}us exceeds {}x quiescent p99 {:.1}us (floor {}us) \
             and a quarter of the avg reorganization ({:.1}ms) — readers are stalling on the writer",
            c_p99 as f64 / 1_000.0,
            max_ratio,
            q_p99 as f64 / 1_000.0,
            floor_us,
            avg_reorg_ns as f64 / 1_000_000.0,
        );
        std::process::exit(1);
    }
    eprintln!("reorg_stall: readers unaffected by reorganization churn");
}
