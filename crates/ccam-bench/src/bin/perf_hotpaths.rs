//! Wall-clock gate for parallel clustering and for publishing a commit.
//!
//! Unlike the paper-figure binaries (which count page accesses, the
//! machine-independent currency), this harness measures *time*. It
//! writes a JSON report (`--out`, default `perf_hotpaths.json`):
//!
//! * **clustering** — `cluster-nodes-into-pages()` on a synthetic grid
//!   well past the paper's 1079 nodes (default 50 176 nodes), swept
//!   over thread counts for **both** the flat and multilevel strategies
//!   (JSON blocks `clustering` and `clustering_multilevel`, each run
//!   with its speedup over the strategy's own 1-thread row), with a
//!   byte-identity check across all of them;
//! * **commit** — µs per `EpochWriteGuard::commit` (capture and publish
//!   a snapshot view) after a one-record upsert, on grids of N and 16 N
//!   nodes over a `WalStore` with page versioning on. A commit costs what
//!   it changed: the two numbers must stay close.
//!
//! The full `Static-Create()`, the buffer pool and `Get-A-successor()`
//! are timed in place by the benchmark ledger (`benchmark/`, per-layer
//! `core.create_s`, `buffer.hit_ns` and `core.eval_us.succ`), not here.
//!
//! ```text
//! perf_hotpaths [--grid N] [--block N] [--out FILE]
//!               [--quick] [--check-baseline FILE]
//! ```
//!
//! `--quick` shrinks the grid and op counts for CI smoke runs.
//! `--check-baseline FILE` compares the fresh clustering throughput
//! against a previously committed report and exits non-zero when it
//! regressed more than 2x (the CI guard against accidental
//! de-parallelization or an O(n²) slip), or when a commit on the 16 N
//! grid takes more than 3x what it takes on the N grid — a ratio of two
//! numbers from this run, so it holds on any machine (a view rebuilt by
//! scanning the database gave ≈ 20). A malformed or missing flag value
//! exits 2 and names the flag.

use std::time::Instant;

use ccam_bench::{part_graph, Args};
use ccam_core::am::{AccessMethod, CcamBuilder};
use ccam_core::epoch::EpochCell;
use ccam_graph::generators::grid_network;
use ccam_partition::{
    cluster_nodes_into_pages_with, ClusterOptions, PartitionStrategy, Partitioner,
};
use ccam_storage::{Json, MemPageStore, WalStore};

fn main() {
    let mut grid: u32 = 224; // 224 × 224 = 50 176 nodes
    let mut block: usize = 1024;
    let mut out = String::from("perf_hotpaths.json");
    let mut quick = false;
    let mut baseline: Option<String> = None;
    let mut args = Args::from_env("perf_hotpaths");
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--grid" => grid = args.num(&flag),
            "--block" => block = args.num(&flag),
            "--out" => out = args.value(&flag),
            "--quick" => quick = true,
            "--check-baseline" => baseline = Some(args.value(&flag)),
            other => args.fail(&format!("unknown flag {other}")),
        }
    }
    if quick {
        grid = grid.min(64); // 4096 nodes: seconds, not minutes
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // On a 1-core box a thread sweep measures scheduler overhead, not
    // parallel speedup — every ratio comes out ~1.0x and a baseline
    // recorded on real hardware would flag it as a regression. Run the
    // single-threaded row only and mark the sweep as skipped.
    let sweep_skipped = cores == 1;
    let mut thread_counts = if sweep_skipped {
        vec![1usize]
    } else {
        vec![1usize, 2, 4]
    };
    if cores > 4 {
        thread_counts.push(cores);
    }
    thread_counts.retain(|&t| t <= cores.max(4));
    thread_counts.dedup();

    println!("perf_hotpaths: grid {grid}x{grid}, block {block} B, {cores} cores\n");
    let net = grid_network(grid, grid, 1.0);
    let nodes = net.len();
    let edges = net.num_edges();
    println!("network: {nodes} nodes, {edges} directed edges");

    // ---- Phase 1: clustering, swept over thread counts --------------
    // The same PartGraph `Static-Create()` builds internally, against
    // the real page budget.
    let empty = CcamBuilder::new(block).build_empty().expect("empty file");
    let budget = empty.file().clustering_budget();
    let graph = part_graph(&net, empty.file());

    // Both strategies sweep the same thread counts; each row records its
    // speedup over the same strategy's 1-thread run.
    let strategies = [
        ("flat", PartitionStrategy::Flat),
        ("multilevel", PartitionStrategy::Multilevel),
    ];
    // (thread count, seconds, nodes/sec, page count) per sweep point.
    type SweepRow = (usize, f64, f64, usize);
    let mut sweeps: Vec<(&str, Vec<SweepRow>, bool)> = Vec::new();
    for &(sname, strategy) in &strategies {
        let mut rows = Vec::new();
        let mut reference: Option<Vec<Vec<usize>>> = None;
        let mut identical = true;
        for &t in &thread_counts {
            let opts = ClusterOptions::new(Partitioner::RatioCut)
                .threads(t)
                .strategy(strategy);
            let t0 = Instant::now();
            let groups = cluster_nodes_into_pages_with(&graph, budget, opts);
            let secs = t0.elapsed().as_secs_f64();
            let nps = nodes as f64 / secs;
            println!(
                "clustering[{sname}]  threads={t:<2}  {secs:8.3}s  {nps:10.0} nodes/s  {} pages",
                groups.len()
            );
            rows.push((t, secs, nps, groups.len()));
            match &reference {
                None => reference = Some(groups),
                Some(r) => identical &= *r == groups,
            }
        }
        sweeps.push((sname, rows, identical));
    }
    let secs_at = |rows: &[SweepRow], want: usize| {
        rows.iter().find(|(t, ..)| *t == want).map(|&(_, s, ..)| s)
    };
    let best = |rows: &[SweepRow]| rows.iter().map(|&(_, _, n, _)| n).fold(0.0, f64::max);
    if sweep_skipped {
        println!(
            "clustering: thread sweep skipped (1 core available — no parallelism to measure)\n"
        );
    } else {
        for (sname, rows, ident) in &sweeps {
            let s = match (secs_at(rows, 1), secs_at(rows, 4)) {
                (Some(s1), Some(s4)) => format!("{:.2}x", s1 / s4),
                _ => "n/a".to_string(),
            };
            println!(
                "clustering[{sname}]: identical across thread counts = {ident}, \
                 speedup @4 threads = {s}"
            );
        }
        println!();
    }

    // ---- Phase 2: publishing a one-record upsert, N vs 16 N nodes ---
    let side: u32 = if quick { 32 } else { 64 };
    let upserts = if quick { 50 } else { 200 };
    let commit_rows = [side, 4 * side].map(|side| {
        let (nodes, us) = bench_commit(block, side, upserts);
        println!("commit  {nodes:>6} nodes  {us:>8.1} us/commit");
        (nodes, us)
    });
    let commit_ratio = commit_rows[1].1 / commit_rows[0].1;
    println!("commit  16 N / N = {commit_ratio:.2}\n");

    // ---- Report -----------------------------------------------------
    let mut report = Json::object().field(
        "config",
        Json::object()
            .field("grid", grid)
            .field("nodes", nodes)
            .field("edges", edges)
            .field("block", block)
            .field("available_threads", cores)
            .field("quick", quick),
    );
    // One block per strategy: "clustering" (flat — the key the baseline
    // gate reads) and "clustering_multilevel". `null` speedups mean "not
    // measured", never a fabricated 1.0.
    for (sname, rows, ident) in &sweeps {
        let key = if *sname == "flat" {
            "clustering".to_string()
        } else {
            format!("clustering_{sname}")
        };
        let s1 = secs_at(rows, 1);
        let runs = rows.iter().map(|&(t, secs, nps, pages)| {
            Json::object()
                .field("threads", t)
                .field("secs", Json::Fixed(secs, 4))
                .field("nodes_per_sec", Json::Fixed(nps, 0))
                .field("pages", pages)
                .field("speedup_vs_1_thread", s1.map(|s| Json::Fixed(s / secs, 3)))
        });
        let sp4 = s1.zip(secs_at(rows, 4)).map(|(a, b)| Json::Fixed(a / b, 3));
        let sweep = Json::object()
            .field("identical_across_threads", *ident)
            .field("thread_sweep_skipped", sweep_skipped)
            .field("runs", runs.collect::<Json>())
            .field("speedup_at_4_threads", sp4)
            .field("best_nodes_per_sec", Json::Fixed(best(rows), 0));
        report = report.field(&key, sweep);
    }
    let grids = commit_rows.iter().map(|&(nodes, us)| {
        Json::object()
            .field("nodes", nodes)
            .field("us_per_commit", Json::Fixed(us, 1))
    });
    let commit = Json::object()
        .field("upserts", upserts)
        .field("grids", grids.collect::<Json>())
        .field("ratio_16n_over_n", Json::Fixed(commit_ratio, 2));
    let report = report.field("commit", commit);
    std::fs::write(&out, report.render(2) + "\n").expect("write report");
    println!("wrote {out}");

    // ---- Optional CI regression gate --------------------------------
    let best_nps = best(&sweeps[0].1);
    if let Some(path) = baseline {
        let base = std::fs::read_to_string(&path).expect("read baseline");
        let base_nps = extract_number(&base, "best_nodes_per_sec")
            .expect("baseline missing best_nodes_per_sec");
        let ratio = base_nps / best_nps;
        // A baseline recorded on a different core count is a different
        // machine: its absolute throughput says nothing about this run,
        // so comparing would either mask a real regression or fail a
        // healthy run. Warn loudly and report the ratio without gating.
        let base_cores = extract_number(&base, "available_threads");
        let cores_match = base_cores.is_none_or(|b| b as usize == cores);
        if !cores_match {
            eprintln!(
                "WARNING: baseline {path} was recorded on {:.0} cores, this run has {cores} — \
                 cross-machine throughput is not comparable; regression gate skipped \
                 (informational: {best_nps:.0} nodes/s vs baseline {base_nps:.0}, {ratio:.2}x)",
                base_cores.unwrap_or(0.0)
            );
        } else if ratio > 2.0 {
            eprintln!(
                "FAIL: clustering throughput regressed {ratio:.2}x \
                 (baseline {base_nps:.0} nodes/s, now {best_nps:.0} nodes/s)"
            );
            std::process::exit(1);
        } else {
            println!(
                "baseline check ok: {best_nps:.0} nodes/s vs baseline {base_nps:.0} nodes/s \
                 ({ratio:.2}x, threshold 2x)"
            );
        }
        if commit_ratio > COMMIT_RATIO_LIMIT {
            eprintln!(
                "FAIL: a commit on {} nodes costs {commit_ratio:.2}x one on {} nodes \
                 (limit {COMMIT_RATIO_LIMIT}x): publishing a view scales with the database again",
                commit_rows[1].0, commit_rows[0].0
            );
            std::process::exit(1);
        }
        println!("commit check ok: 16 N / N = {commit_ratio:.2} (limit {COMMIT_RATIO_LIMIT}x)");
    }
    for (sname, _, ident) in &sweeps {
        if !ident {
            eprintln!("FAIL: {sname} clustering output differed across thread counts");
            std::process::exit(1);
        }
    }
}

/// Largest accepted ratio between a commit on the 16 N grid and one on
/// the N grid.
const COMMIT_RATIO_LIMIT: f64 = 3.0;

/// Pulls `"key": <number>` out of a report written by this binary.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Node count and µs per `EpochWriteGuard::commit` after a one-record
/// upsert (the server's: delete and re-insert with a new payload) on a
/// `side` x `side` grid, served as `ccam serve` serves it: a `WalStore`
/// whose mirror of its committed pages the views fork, every operation
/// its own transaction. Only
/// the commit is timed — the capture and publication of the view.
fn bench_commit(block: usize, side: u32, upserts: u32) -> (usize, f64) {
    let net = grid_network(side, side, 1.0);
    let wal = std::env::temp_dir().join(format!(
        "ccam-perf-commit-{}-{side}.wal",
        std::process::id()
    ));
    let store = WalStore::create(MemPageStore::new(block).expect("store"), &wal).expect("wal");
    let mut db = CcamBuilder::new(block)
        .strategy(PartitionStrategy::Multilevel)
        .build_static_on(store, &net)
        .expect("create");
    db.file_mut().set_auto_commit(true);
    let cell = EpochCell::new(db).expect("first view");
    let ids = net.node_ids();
    let mut seed = 0xC0_u64 + u64::from(side);
    let mut pass = || {
        let mut spent = std::time::Duration::ZERO;
        for k in 0..upserts {
            let id = ids[(xorshift(&mut seed) % ids.len() as u64) as usize];
            let mut w = cell.write().expect("write guard");
            let del = w.delete_node(id).expect("delete").expect("node exists");
            let mut data = del.data;
            data.payload = vec![k as u8; 8];
            w.insert_node(&data, &del.incoming).expect("insert");
            let t0 = Instant::now();
            w.commit().expect("commit");
            spent += t0.elapsed();
        }
        spent.as_secs_f64() * 1e6 / f64::from(upserts)
    };
    // The median of three passes.
    let mut passes = [pass(), pass(), pass()];
    passes.sort_by(f64::total_cmp);
    drop(cell);
    std::fs::remove_file(&wal).ok();
    (net.len(), passes[1])
}
