//! Ablation — workload model: random walks vs commuter shortest paths.
//!
//! The paper generates its Figure 6 routes "by performing random walks on
//! the network" (§4.3), but its motivating workload is commuters
//! "evaluating a set of familiar routes" between fixed origins and
//! destinations (§1.1) — which are shortest paths, not walks. This
//! ablation checks that CCAM's advantage is not an artifact of the walk
//! model: both workloads are evaluated per nominal route hop so the
//! numbers are comparable across their different lengths.

use ccam_bench::{benchmark_network, build_all_methods, render_table, EXPERIMENT_SEED};
use ccam_core::query::route::evaluate_route;
use ccam_graph::walks::{commuter_routes, random_walk_routes, Route};
use ccam_graph::RecordCodec;

fn main() {
    let net = benchmark_network();
    let block = 2048;
    println!(
        "Ablation: workload model — random walks vs commuter shortest paths  (block = {block} B)\n"
    );

    let walks = random_walk_routes(&net, 100, 20, EXPERIMENT_SEED + 70);
    let commutes = commuter_routes(&net, 100, EXPERIMENT_SEED + 71);
    let avg_len = |rs: &[Route]| rs.iter().map(|r| r.len()).sum::<usize>() as f64 / rs.len() as f64;
    println!(
        "workloads: 100 walks of L=20; 100 commutes of avg L={:.1}\n",
        avg_len(&commutes)
    );

    let methods = build_all_methods(&net, block, None, false, RecordCodec::Paper);
    let header: Vec<String> = ["method", "walk I/O per hop", "commute I/O per hop"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    let mut per_hop: Vec<(String, f64, f64)> = Vec::new();
    for am in &methods {
        am.file().pool().set_capacity(1).expect("buffer");
        let cost = |routes: &[Route]| -> f64 {
            let mut io = 0u64;
            let mut hops = 0usize;
            for r in routes {
                am.file().pool().clear().expect("clear");
                let before = am.stats().snapshot();
                let eval = evaluate_route(am.as_ref(), r).expect("route");
                debug_assert!(eval.complete);
                io += am.stats().snapshot().since(&before).physical_reads;
                hops += r.len();
            }
            io as f64 / hops as f64
        };
        let w = cost(&walks);
        let c = cost(&commutes);
        rows.push(vec![
            am.name().to_string(),
            format!("{w:.3}"),
            format!("{c:.3}"),
        ]);
        per_hop.push((am.name().to_string(), w, c));
    }
    println!("{}", render_table(&header, &rows));

    println!("shape checks:");
    let ccam = per_hop
        .iter()
        .find(|(n, _, _)| n == "CCAM-S")
        .expect("ccam");
    for (name, w, c) in &per_hop {
        if name == "CCAM-S" {
            continue;
        }
        println!(
            "  [{}] CCAM-S beats {name} under BOTH workload models",
            if ccam.1 < *w && ccam.2 < *c {
                "ok"
            } else {
                "MISS"
            }
        );
    }
}
