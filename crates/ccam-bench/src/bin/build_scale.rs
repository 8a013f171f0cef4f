//! `Static-Create()` at scale: flat vs multilevel clustering
//! (ISSUE 10's tentpole gate), plus the connectivity-aware prefetcher's
//! demonstrated win, written to `BENCH_PR10.json`.
//!
//! Three phases:
//!
//! * **paper scale** — the Minneapolis-like benchmark network
//!   (1079 nodes): full CCAM-S builds with both strategies, comparing
//!   CRR and per-route page accesses. This is where the 5% CRR-parity
//!   gate lives — quality must not be traded for speed where the paper's
//!   experiments run.
//! * **scale** — a synthetic road grid (default 1 000 000 nodes): both
//!   partitioners timed on the same `PartGraph` (the speedup gate), the
//!   multilevel strategy additionally taken through a full end-to-end
//!   build (wall-clock, nodes/sec, CRR, per-route page accesses — the
//!   capability the flat path cannot reach in reasonable time at this
//!   size).
//! * **prefetch** — the route workload on the scale build with the
//!   connectivity-aware prefetcher off vs on, recording demand-miss and
//!   wall-clock deltas. Prefetch reads are synchronous on the in-memory
//!   store, so the honest headline is the demand-miss reduction; the
//!   wall-clock delta is recorded as measured either way.
//!
//! ```text
//! build_scale [--nodes N] [--block N] [--routes N] [--out FILE]
//!             [--min-speedup X] [--quick]
//! ```
//!
//! `--quick` caps the grid at ~200k nodes for CI smoke runs. The binary
//! exits non-zero when a gate fails (speedup below `--min-speedup`,
//! default 5.0, or paper-scale CRR parity below 0.95), which is the CI
//! regression gate for BENCH_PR10.json. A malformed or missing flag
//! value exits 2 and names the flag.

use std::sync::Arc;
use std::time::Instant;

use ccam_bench::{avg_route_io, benchmark_network, part_graph, Args, EXPERIMENT_SEED};
use ccam_core::am::{AccessMethod, Ccam, CcamBuilder};
use ccam_core::query::route::evaluate_route;
use ccam_graph::generators::grid_network;
use ccam_graph::walks::{random_walk_routes, Route};
use ccam_graph::Network;
use ccam_partition::{
    cluster_nodes_into_pages_with, residue_ratio, ClusterOptions, PartitionStrategy, Partitioner,
};
use ccam_storage::{Json, PageId};

/// Paper-scale CRR may drop at most 5% (relative) under multilevel.
const CRR_PARITY_MIN: f64 = 0.95;
/// Buffer frames for the prefetch phase: small enough to miss, large
/// enough that prefetched pages survive until the route reaches them.
const PREFETCH_FRAMES: usize = 64;

fn main() {
    let mut nodes_target: usize = 1_000_000;
    let mut block: usize = 1024;
    let mut routes_n: usize = 100;
    let mut out = String::from("BENCH_PR10.json");
    let mut min_speedup: f64 = 5.0;
    let mut quick = false;
    let mut args = Args::from_env("build_scale");
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--nodes" => nodes_target = args.num(&flag),
            "--block" => block = args.num(&flag),
            "--routes" => routes_n = args.num(&flag),
            "--out" => out = args.value(&flag),
            "--min-speedup" => min_speedup = args.num(&flag),
            "--quick" => quick = true,
            other => args.fail(&format!("unknown flag {other}")),
        }
    }
    if quick {
        nodes_target = nodes_target.min(200_000);
        routes_n = routes_n.min(40);
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // ---- Phase 1: paper scale — CRR parity ---------------------------
    let paper_net = benchmark_network();
    println!("paper scale: {} nodes, block {block} B", paper_net.len());
    let paper_routes = random_walk_routes(&paper_net, 100, 20, EXPERIMENT_SEED + 400);
    let paper_flat = build_timed(&paper_net, block, PartitionStrategy::Flat);
    let paper_ml = build_timed(&paper_net, block, PartitionStrategy::Multilevel);
    let paper = [
        report_build("flat", &paper_flat, &paper_routes),
        report_build("multilevel", &paper_ml, &paper_routes),
    ];
    let crr_parity = paper[1].crr / paper[0].crr;
    let route_ratio = paper[1].route_io / paper[0].route_io;
    println!(
        "paper scale: CRR parity {crr_parity:.4} (multilevel/flat), \
         route-access ratio {route_ratio:.3}\n"
    );
    drop(paper_flat);

    // ---- Phase 2: scale — the 1M-node road grid ----------------------
    let side = (nodes_target as f64).sqrt().round() as u32;
    let net = grid_network(side, side, 1.0);
    let nodes = net.len();
    let edges = net.num_edges();
    println!("scale: grid {side}x{side} = {nodes} nodes, {edges} directed edges");

    // Both partitioners on the same PartGraph — the speedup gate. The
    // graph is exactly what Static-Create() builds internally.
    let empty = CcamBuilder::new(block).build_empty().expect("empty file");
    let graph = part_graph(&net, empty.file());
    let budget = empty.file().clustering_budget();
    let cluster = |strategy: PartitionStrategy| {
        let t0 = Instant::now();
        let groups = cluster_nodes_into_pages_with(
            &graph,
            budget,
            ClusterOptions::new(Partitioner::RatioCut)
                .threads(0)
                .strategy(strategy),
        );
        let secs = t0.elapsed().as_secs_f64();
        let mut part = vec![0usize; graph.len()];
        for (gi, grp) in groups.iter().enumerate() {
            for &v in grp {
                part[v] = gi;
            }
        }
        (secs, groups.len(), residue_ratio(&graph, &part))
    };
    let (ml_secs, ml_pages, ml_rr) = cluster(PartitionStrategy::Multilevel);
    println!(
        "cluster[multilevel]  {ml_secs:9.3}s  {:10.0} nodes/s  {ml_pages} pages  residue {ml_rr:.4}",
        nodes as f64 / ml_secs
    );
    let (flat_secs, flat_pages, flat_rr) = cluster(PartitionStrategy::Flat);
    println!(
        "cluster[flat]        {flat_secs:9.3}s  {:10.0} nodes/s  {flat_pages} pages  residue {flat_rr:.4}",
        nodes as f64 / flat_secs
    );
    let speedup = flat_secs / ml_secs;
    println!("scale: multilevel speedup {speedup:.2}x over flat (gate: >= {min_speedup:.1}x)\n");
    drop(graph);

    // End-to-end multilevel build — the capability row.
    let scale_routes = random_walk_routes(&net, routes_n, 40, EXPERIMENT_SEED + 410);
    let scale_build = build_timed(&net, block, PartitionStrategy::Multilevel);
    let scale_row = report_build("multilevel", &scale_build, &scale_routes);

    // ---- Phase 3: prefetch on vs off on the scale build --------------
    let am = scale_build.am;
    let prefetch = bench_prefetch(&am, &scale_routes);
    println!(
        "prefetch off: {} demand misses, {:.3}s   on: {} demand misses ({} prefetched), {:.3}s",
        prefetch.off_reads,
        prefetch.off_secs,
        prefetch.on_demand,
        prefetch.on_issued,
        prefetch.on_secs
    );
    let miss_reduction = 1.0 - prefetch.on_demand as f64 / prefetch.off_reads as f64;
    println!(
        "prefetch: demand-miss reduction {:.1}%, wall delta {:+.3}s\n",
        miss_reduction * 100.0,
        prefetch.on_secs - prefetch.off_secs
    );

    // ---- Report + gates ---------------------------------------------
    let speedup_ok = speedup >= min_speedup;
    let parity_ok = crr_parity >= CRR_PARITY_MIN;
    let cluster = |secs: f64, pages: usize, rr: f64| {
        Json::object()
            .field("secs", Json::Fixed(secs, 3))
            .field("nodes_per_sec", Json::Fixed(nodes as f64 / secs, 0))
            .field("pages", pages)
            .field("residue_ratio", Json::Fixed(rr, 4))
    };
    let report = Json::object()
        .field(
            "config",
            Json::object()
                .field("nodes", nodes)
                .field("grid", side)
                .field("edges", edges)
                .field("block", block)
                .field("routes", routes_n)
                .field("available_threads", cores)
                .field("quick", quick),
        )
        .field(
            "paper_scale",
            Json::object()
                .field("network_nodes", paper_net.len())
                .field("build_flat", paper[0].to_json())
                .field("build_multilevel", paper[1].to_json())
                .field("crr_parity", Json::Fixed(crr_parity, 4))
                .field("route_access_ratio", Json::Fixed(route_ratio, 4)),
        )
        .field(
            "scale",
            Json::object()
                .field("cluster_flat", cluster(flat_secs, flat_pages, flat_rr))
                .field("cluster_multilevel", cluster(ml_secs, ml_pages, ml_rr))
                .field("speedup", Json::Fixed(speedup, 3))
                .field("build_multilevel", scale_row.to_json()),
        )
        .field(
            "prefetch",
            Json::object()
                .field("frames", PREFETCH_FRAMES)
                .field("routes", scale_routes.len())
                .field(
                    "off",
                    Json::object()
                        .field("demand_misses", prefetch.off_reads)
                        .field("secs", Json::Fixed(prefetch.off_secs, 4)),
                )
                .field(
                    "on",
                    Json::object()
                        .field("physical_reads", prefetch.on_reads)
                        .field("prefetch_issued", prefetch.on_issued)
                        .field("demand_misses", prefetch.on_demand)
                        .field("secs", Json::Fixed(prefetch.on_secs, 4)),
                )
                .field("demand_miss_reduction", Json::Fixed(miss_reduction, 4))
                .field(
                    "wall_delta_secs",
                    Json::Fixed(prefetch.on_secs - prefetch.off_secs, 4),
                ),
        )
        .field(
            "gates",
            Json::object()
                .field("min_speedup", min_speedup)
                .field("speedup_ok", speedup_ok)
                .field("crr_parity_min", CRR_PARITY_MIN)
                .field("crr_parity_ok", parity_ok)
                .field("pass", speedup_ok && parity_ok),
        );
    std::fs::write(&out, report.render(2) + "\n").expect("write report");
    println!("wrote {out}");

    if !parity_ok {
        eprintln!(
            "FAIL: paper-scale CRR parity {crr_parity:.4} below {CRR_PARITY_MIN} \
             (flat {:.4}, multilevel {:.4})",
            paper[0].crr, paper[1].crr
        );
        std::process::exit(1);
    }
    if !speedup_ok {
        eprintln!(
            "FAIL: multilevel speedup {speedup:.2}x below the {min_speedup:.1}x gate \
             (flat {flat_secs:.1}s vs multilevel {ml_secs:.1}s at {nodes} nodes)"
        );
        std::process::exit(1);
    }
    println!("gates ok: speedup {speedup:.2}x (>= {min_speedup:.1}x), parity {crr_parity:.4} (>= {CRR_PARITY_MIN})");
}

struct TimedBuild {
    am: Ccam,
    secs: f64,
    nodes: usize,
}

fn build_timed(net: &Network, block: usize, strategy: PartitionStrategy) -> TimedBuild {
    let t0 = Instant::now();
    let am = CcamBuilder::new(block)
        .threads(0)
        .strategy(strategy)
        .build_static(net)
        .expect("Static-Create()");
    TimedBuild {
        am,
        secs: t0.elapsed().as_secs_f64(),
        nodes: net.len(),
    }
}

struct BuildRow {
    secs: f64,
    nodes_per_sec: f64,
    pages: usize,
    crr: f64,
    route_io: f64,
}

impl BuildRow {
    fn to_json(&self) -> Json {
        Json::object()
            .field("secs", Json::Fixed(self.secs, 3))
            .field("nodes_per_sec", Json::Fixed(self.nodes_per_sec, 0))
            .field("pages", self.pages)
            .field("crr", Json::Fixed(self.crr, 4))
            .field("route_page_accesses", Json::Fixed(self.route_io, 2))
    }
}

fn report_build(name: &'static str, b: &TimedBuild, routes: &[Route]) -> BuildRow {
    let row = BuildRow {
        secs: b.secs,
        nodes_per_sec: b.nodes as f64 / b.secs,
        pages: b.am.file().num_pages(),
        crr: b.am.crr().expect("crr"),
        route_io: avg_route_io(&b.am, routes),
    };
    println!(
        "build[{name}]  {:9.3}s  {:10.0} nodes/s  {} pages  CRR {:.4}  {:.2} page-accesses/route",
        row.secs, row.nodes_per_sec, row.pages, row.crr, row.route_io
    );
    row
}

struct PrefetchResult {
    off_reads: u64,
    off_secs: f64,
    on_reads: u64,
    on_issued: u64,
    on_demand: u64,
    on_secs: f64,
}

/// The route workload with the connectivity-aware prefetcher off vs on:
/// when a page faults in, its successor pages (pages holding successors
/// of its records) are read into free frames. Counters stay honest —
/// prefetch reads land in `physical_reads` *and* `prefetch_issued`, so
/// demand misses are the difference.
fn bench_prefetch(am: &Ccam, routes: &[Route]) -> PrefetchResult {
    let pool = am.file().pool();
    pool.set_capacity(PREFETCH_FRAMES).expect("capacity");

    let run = || {
        let before = am.stats().snapshot();
        let t0 = Instant::now();
        for route in routes {
            // Cold pool per route (the Figure 6 methodology): the
            // prefetcher fills free frames only, so a warm full pool
            // would leave it nothing to do.
            pool.clear().expect("clear");
            let eval = evaluate_route(am, route).expect("route evaluation");
            debug_assert!(eval.complete);
        }
        let secs = t0.elapsed().as_secs_f64();
        let d = am.stats().snapshot().since(&before);
        (d.physical_reads, d.prefetch_issued, secs)
    };

    pool.set_prefetcher(None);
    let (off_reads, _, off_secs) = run();

    // Page-connectivity map: for every page, the distinct other pages
    // holding successors of its records — CCAM's page-adjacency graph.
    let page_of = am.file().page_map().expect("page map");
    let mut pages: Vec<PageId> = page_of.values().copied().collect();
    pages.sort_unstable();
    pages.dedup();
    let mut succ_pages: std::collections::HashMap<PageId, Vec<PageId>> =
        std::collections::HashMap::new();
    for page in pages {
        let mut out: Vec<PageId> = Vec::new();
        for rec in am.file().read_page_records(page).expect("read page") {
            for e in &rec.successors {
                if let Some(&p) = page_of.get(&e.to) {
                    if p != page && !out.contains(&p) {
                        out.push(p);
                    }
                }
            }
        }
        succ_pages.insert(page, out);
    }
    let map = Arc::new(succ_pages);
    let hook_map = Arc::clone(&map);
    pool.set_prefetcher(Some(Arc::new(move |id: PageId| {
        hook_map.get(&id).cloned().unwrap_or_default()
    })));
    let (on_reads, on_issued, on_secs) = run();
    pool.set_prefetcher(None);
    pool.set_capacity(ccam_core::file::DEFAULT_BUFFER_FRAMES)
        .expect("capacity");

    PrefetchResult {
        off_reads,
        off_secs,
        on_reads,
        on_issued,
        on_demand: on_reads - on_issued,
        on_secs,
    }
}
