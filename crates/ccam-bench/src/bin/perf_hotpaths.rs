//! Wall-clock benchmark for the hot paths: parallel bulk `Create()`
//! and the buffer pool.
//!
//! Unlike the paper-figure binaries (which count page accesses, the
//! machine-independent currency), this harness measures *time* — the
//! thing the parallel clustering and the O(1) pool actually improve.
//! It emits a machine-readable JSON report (`BENCH_PR5.json` by
//! default):
//!
//! * **clustering** — `cluster-nodes-into-pages()` on a synthetic grid
//!   well past the paper's 1079 nodes (default 50 176 nodes), swept
//!   over thread counts for **both** the flat and multilevel strategies
//!   (JSON blocks `clustering` and `clustering_multilevel`, each run
//!   with its speedup over the strategy's own 1-thread row), with a
//!   byte-identity check across all of them;
//! * **create** — full `Static-Create()` (clustering + bulk load) at
//!   1 thread vs all cores;
//! * **pool** — `BufferPool` ops/sec at capacity {1, 64, 256, 4096} on
//!   a hit-heavy (working set half the pool) and a miss-heavy (working
//!   set 16x the pool) uniform workload, plus 4 threads hitting a
//!   4096-frame pool. The regime table in EXPERIMENTS.md is this grid.
//! * **hop** — ns per `Get-A-successor()` along fixed random walks on
//!   the paper map at the same four capacities. A hop is one probe of the
//!   most recently used frame, then `Find()`: the number must not grow
//!   with the frames the pool holds.
//! * **commit** — µs per `EpochWriteGuard::commit` (capture and publish
//!   a snapshot view) after a one-record upsert, on grids of N and 16 N
//!   nodes over a `WalStore` with page versioning on. A commit costs what
//!   it changed: the two numbers must stay close.
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
//! scanning the database gave ≈ 20).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use ccam_bench::harness::benchmark_network;
use ccam_core::am::{AccessMethod, CcamBuilder};
use ccam_core::epoch::EpochCell;
use ccam_graph::generators::grid_network;
use ccam_graph::walks::random_walk_routes;
use ccam_partition::{
    cluster_nodes_into_pages_with, ClusterOptions, PartGraph, PartitionStrategy, Partitioner,
};
use ccam_storage::{BufferPool, MemPageStore, PageId, PageStore, WalStore};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut grid: u32 = 224; // 224 × 224 = 50 176 nodes
    let mut block: usize = 1024;
    let mut out = String::from("BENCH_PR5.json");
    let mut quick = false;
    let mut baseline: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--grid" => {
                grid = args[i + 1].parse().expect("--grid N");
                i += 2;
            }
            "--block" => {
                block = args[i + 1].parse().expect("--block N");
                i += 2;
            }
            "--out" => {
                out = args[i + 1].clone();
                i += 2;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--check-baseline" => {
                baseline = Some(args[i + 1].clone());
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
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
    // The same PartGraph `Static-Create()` builds internally: node
    // clustering weights against the real page budget, uniform edge
    // weights (the CRR experiments' setting).
    let budget = CcamBuilder::new(block)
        .build_empty()
        .expect("empty file")
        .file()
        .clustering_budget();
    let all: Vec<&ccam_graph::NodeData> = net.nodes().collect();
    let idx_of: HashMap<ccam_graph::NodeId, usize> =
        all.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
    let sizes: Vec<usize> = all
        .iter()
        .map(|n| ccam_core::file::clustering_weight(n))
        .collect();
    let mut part_edges = Vec::new();
    for (i, n) in all.iter().enumerate() {
        for e in &n.successors {
            if let Some(&j) = idx_of.get(&e.to) {
                part_edges.push((i, j, 1u64));
            }
        }
    }
    let graph = PartGraph::new(sizes, &part_edges);

    // Both strategies sweep the same thread counts; each row records its
    // speedup over the same strategy's 1-thread run so the parallel
    // fan-out is finally measured per thread count (ISSUE 10 satellite).
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
    let (_, ref cluster_rows, _) = sweeps[0];
    let secs_at = |rows: &[SweepRow], want: usize| {
        rows.iter().find(|(t, ..)| *t == want).map(|&(_, s, ..)| s)
    };
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

    // ---- Phase 2: full Static-Create(), 1 thread vs all cores -------
    let t0 = Instant::now();
    let am1 = CcamBuilder::new(block)
        .threads(1)
        .build_static(&net)
        .expect("create 1t");
    let create_1t = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let am_n = CcamBuilder::new(block)
        .threads(0)
        .build_static(&net)
        .expect("create nt");
    let create_nt = t0.elapsed().as_secs_f64();
    let same_layout = am1.file().num_pages() == am_n.file().num_pages()
        && am1.crr().expect("crr") == am_n.crr().expect("crr");
    println!(
        "create      threads=1   {create_1t:8.3}s\ncreate      threads={cores:<3} {create_nt:8.3}s  ({:.2}x, layout identical = {same_layout})\n",
        create_1t / create_nt
    );
    drop(am1);
    drop(am_n);

    // ---- Phase 3: buffer pool over the capacity grid ----------------
    // From the paper's 1-page route-evaluation buffer to a pool of
    // thousands of frames; every cell is the same code path.
    let ops: u64 = if quick { 200_000 } else { 2_000_000 };
    let mut pool_rows = Vec::new();
    for cap in CAPACITIES {
        let hit_heavy = bench_pool(block, cap, (cap / 2).max(1), ops);
        let miss_heavy = bench_pool(block, cap, cap * 16, ops / 4);
        println!(
            "pool cap={cap:<5} hit-heavy {hit_heavy:>10.0} ops/s   miss-heavy {miss_heavy:>10.0} ops/s"
        );
        pool_rows.push((cap, hit_heavy, miss_heavy));
    }
    let conc_cap = 4096;
    let conc = bench_pool_concurrent(block, conc_cap, ops / 2);
    println!("pool cap={conc_cap:<5} 4-thread  {conc:>10.0} ops/s\n");

    // ---- Phase 4: one Get-A-successor() hop over the same grid ------
    let map = benchmark_network();
    let walks = random_walk_routes(&map, HOP_WALKS, HOPS_PER_WALK + 1, 1995);
    let am = CcamBuilder::new(block).build_static(&map).expect("create");
    let laps = if quick { 10 } else { 100 };
    let mut hop_rows = Vec::new();
    for cap in CAPACITIES {
        am.file().pool().set_capacity(cap).expect("capacity");
        let ns = median_of_3(|| {
            let t0 = Instant::now();
            for _ in 0..laps {
                for walk in &walks {
                    for (from, to) in walk.edges() {
                        std::hint::black_box(am.get_a_successor(from, to).expect("hop"));
                    }
                }
            }
            t0.elapsed().as_nanos() as f64 / (laps * HOP_WALKS * HOPS_PER_WALK) as f64
        });
        let resident = am.file().pool().resident_pages().len();
        println!("hop  cap={cap:<5} {ns:>8.0} ns/hop   ({resident} frames resident)");
        hop_rows.push((cap, ns, resident));
    }
    println!();

    // ---- Phase 5: publishing a one-record upsert, N vs 16 N nodes ---
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
    let mut j = String::new();
    let _ = write!(
        j,
        "{{\n  \"config\": {{\"grid\": {grid}, \"nodes\": {nodes}, \"edges\": {edges}, \
         \"block\": {block}, \"available_threads\": {cores}, \"quick\": {quick}}},\n"
    );
    // One block per strategy: "clustering" (flat — the key the baseline
    // gate reads, unchanged for compatibility) and
    // "clustering_multilevel". Every run row carries its speedup over
    // the same strategy's 1-thread run.
    for (sname, rows, ident) in &sweeps {
        let key = if *sname == "flat" {
            "clustering".to_string()
        } else {
            format!("clustering_{sname}")
        };
        let _ = write!(
            j,
            "  \"{key}\": {{\n    \"identical_across_threads\": {ident},\n    \
             \"thread_sweep_skipped\": {sweep_skipped},\n    \"runs\": [\n"
        );
        let s1 = secs_at(rows, 1);
        for (k, (t, secs, nps, pages)) in rows.iter().enumerate() {
            // `null` rather than a fabricated 1.0 — consumers must not
            // mistake "could not measure" for "did not speed up".
            let sp = s1.map_or("null".to_string(), |s| format!("{:.3}", s / secs));
            let _ = writeln!(
                j,
                "      {{\"threads\": {t}, \"secs\": {secs:.4}, \"nodes_per_sec\": {nps:.0}, \
                 \"pages\": {pages}, \"speedup_vs_1_thread\": {sp}}}{}",
                if k + 1 < rows.len() { "," } else { "" }
            );
        }
        let best: f64 = rows.iter().map(|&(_, _, n, _)| n).fold(0.0, f64::max);
        let sp4 = match (secs_at(rows, 1), secs_at(rows, 4)) {
            (Some(a), Some(b)) => format!("{:.3}", a / b),
            _ => "null".to_string(),
        };
        let _ = write!(
            j,
            "    ],\n    \"speedup_at_4_threads\": {sp4},\n    \
             \"best_nodes_per_sec\": {best:.0}\n  }},\n"
        );
    }
    let best_nps = cluster_rows
        .iter()
        .map(|&(_, _, n, _)| n)
        .fold(0.0, f64::max);
    let _ = writeln!(
        j,
        "  \"create\": {{\"secs_1_thread\": {create_1t:.4}, \"secs_all_cores\": {create_nt:.4}, \
         \"speedup\": {:.3}, \"layout_identical\": {same_layout}}},",
        create_1t / create_nt
    );
    let _ = write!(j, "  \"pool\": {{\n    \"regimes\": [\n");
    for (k, &(cap, hit, miss)) in pool_rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "      {{\"capacity\": {cap}, \"hit_heavy_ops_per_sec\": {hit:.0}, \
             \"miss_heavy_ops_per_sec\": {miss:.0}}}{}",
            if k + 1 < pool_rows.len() { "," } else { "" }
        );
    }
    let _ = write!(
        j,
        "    ],\n    \"concurrent_4_threads\": {{\"capacity\": {conc_cap}, \
         \"ops_per_sec\": {conc:.0}}}\n  }},\n"
    );
    let _ = write!(
        j,
        "  \"hop\": {{\n    \"map_nodes\": {}, \"walks\": {HOP_WALKS}, \
         \"hops_per_walk\": {HOPS_PER_WALK},\n    \"regimes\": [\n",
        map.len()
    );
    for (k, &(cap, ns, resident)) in hop_rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "      {{\"capacity\": {cap}, \"resident_frames\": {resident}, \
             \"ns_per_hop\": {ns:.0}}}{}",
            if k + 1 < hop_rows.len() { "," } else { "" }
        );
    }
    let _ = write!(j, "    ]\n  }},\n");
    let _ = write!(
        j,
        "  \"commit\": {{\n    \"upserts\": {upserts},\n    \"grids\": [\n      \
         {{\"nodes\": {}, \"us_per_commit\": {:.1}}},\n      \
         {{\"nodes\": {}, \"us_per_commit\": {:.1}}}\n    ],\n    \
         \"ratio_16n_over_n\": {commit_ratio:.2}\n  }}\n}}\n",
        commit_rows[0].0, commit_rows[0].1, commit_rows[1].0, commit_rows[1].1
    );
    std::fs::write(&out, &j).expect("write report");
    println!("wrote {out}");

    // ---- Optional CI regression gate --------------------------------
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

/// Pool capacities of the pool and hop sections: the paper's one-page
/// buffer up to thousands of frames.
const CAPACITIES: [usize; 4] = [1, 64, 256, 4096];

/// The hop section's fixed walks: 200 walks of 32 hops over the paper map.
const HOP_WALKS: usize = 200;
const HOPS_PER_WALK: usize = 32;

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

/// Allocates `n` zeroed pages directly in a store.
fn alloc_pages(store: &mut MemPageStore, n: usize) -> Vec<PageId> {
    (0..n).map(|_| store.allocate().expect("alloc")).collect()
}

/// Median of three timed passes.
fn median_of_3(mut pass: impl FnMut() -> f64) -> f64 {
    let mut rates = [pass(), pass(), pass()];
    rates.sort_by(f64::total_cmp);
    rates[1]
}

/// Node count and µs per `EpochWriteGuard::commit` after a one-record
/// upsert (the server's: delete and re-insert with a new payload) on a
/// `side` x `side` grid, served as `ccam serve` serves it: a `WalStore`
/// with page versioning on, every operation its own transaction. Only
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
    assert!(db.enable_snapshots().expect("enable snapshots"));
    let cell = EpochCell::new(db).expect("first view");
    let ids = net.node_ids();
    let mut seed = 0xC0_u64 + u64::from(side);
    let us = median_of_3(|| {
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
    });
    drop(cell);
    std::fs::remove_file(&wal).ok();
    (net.len(), us)
}

/// Single-threaded ops/sec over a uniform working set of `set` pages.
fn bench_pool(block: usize, cap: usize, set: usize, ops: u64) -> f64 {
    median_of_3(|| {
        let mut store = MemPageStore::new(block).expect("store");
        let ids = alloc_pages(&mut store, set);
        let pool = BufferPool::new(store, cap);
        let mut seed = 0x5EED_u64;
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..ops {
            let id = ids[(xorshift(&mut seed) % set as u64) as usize];
            acc = acc.wrapping_add(pool.with_page(id, |b| b[0] as u64).expect("read"));
        }
        std::hint::black_box(acc);
        ops as f64 / t0.elapsed().as_secs_f64()
    })
}

/// 4 threads, each hammering its own quarter of a pool-resident working
/// set (pure hit path): total ops/sec.
fn bench_pool_concurrent(block: usize, cap: usize, ops_per_thread: u64) -> f64 {
    const THREADS: usize = 4;
    let per = cap / THREADS;
    median_of_3(|| {
        let mut store = MemPageStore::new(block).expect("store");
        let ids = alloc_pages(&mut store, cap);
        let pool = Arc::new(BufferPool::new(store, cap));
        let barrier = Arc::new(Barrier::new(THREADS));
        let t0 = Instant::now();
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let pool = Arc::clone(&pool);
                let barrier = Arc::clone(&barrier);
                let mine: Vec<PageId> = ids[t * per..(t + 1) * per].to_vec();
                std::thread::spawn(move || {
                    let mut seed = 0xBEEF_u64 + t as u64;
                    barrier.wait();
                    let mut acc = 0u64;
                    for _ in 0..ops_per_thread {
                        let id = mine[(xorshift(&mut seed) % per as u64) as usize];
                        acc = acc.wrapping_add(pool.with_page(id, |b| b[0] as u64).expect("read"));
                    }
                    std::hint::black_box(acc);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("join");
        }
        (THREADS as u64 * ops_per_thread) as f64 / t0.elapsed().as_secs_f64()
    })
}
