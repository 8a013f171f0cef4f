//! Ablation — buffer size vs route-evaluation I/O.
//!
//! The paper's Figure 6 fixes "one buffer with the size of one data
//! page". This ablation sweeps the buffer capacity: with more frames a
//! route that revisits a neighborhood stops re-faulting its pages, so
//! I/O falls — and the *relative* advantage of connectivity clustering
//! shrinks as buffering hides placement quality.

use ccam_bench::{benchmark_network, build_all_methods, render_table, EXPERIMENT_SEED};
use ccam_core::query::route::evaluate_route;
use ccam_graph::walks::random_walk_routes;
use ccam_graph::RecordCodec;

fn main() {
    let net = benchmark_network();
    let block = 2048;
    let buffers = [1usize, 2, 4, 8, 16];
    let routes = random_walk_routes(&net, 100, 30, EXPERIMENT_SEED + 30);
    println!(
        "Ablation: buffer frames vs route-evaluation I/O  (block = {block} B, L = 30, 100 routes)\n"
    );

    let methods = build_all_methods(&net, block, None, false, RecordCodec::Paper);
    let header: Vec<String> = std::iter::once("method".to_string())
        .chain(buffers.iter().map(|b| format!("{b} frames")))
        .collect();
    let mut rows = Vec::new();
    let mut series_by_method = Vec::new();
    for am in &methods {
        let mut series = Vec::new();
        for &frames in &buffers {
            am.file().pool().set_capacity(frames).expect("capacity");
            let mut total = 0u64;
            for r in &routes {
                am.file().pool().clear().expect("clear");
                let before = am.stats().snapshot();
                evaluate_route(am.as_ref(), r).expect("route");
                total += am.stats().snapshot().since(&before).physical_reads;
            }
            series.push(total as f64 / routes.len() as f64);
        }
        rows.push(
            std::iter::once(am.name().to_string())
                .chain(series.iter().map(|v| format!("{v:.2}")))
                .collect(),
        );
        series_by_method.push((am.name().to_string(), series));
    }
    println!("{}", render_table(&header, &rows));

    println!("shape checks:");
    for (name, series) in &series_by_method {
        let ok = series.windows(2).all(|w| w[1] <= w[0] + 1e-9);
        println!(
            "  [{}] {name}: I/O non-increasing in buffer size",
            if ok { "ok" } else { "MISS" }
        );
    }
    let gap = |i: usize| {
        let ccam = &series_by_method[0].1;
        let bfs = &series_by_method.last().expect("bfs").1;
        bfs[i] / ccam[i]
    };
    println!(
        "  [{}] clustering advantage shrinks with buffering (BFS/CCAM ratio falls)",
        if gap(buffers.len() - 1) <= gap(0) {
            "ok"
        } else {
            "MISS"
        }
    );
}
