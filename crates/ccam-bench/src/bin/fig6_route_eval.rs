//! Figure 6 — "Effect of Route Length" on route-evaluation I/O.
//!
//! Block size 2048; route sets of lengths 10/20/30/40 (100 random-walk
//! routes each); edge weights derived from the routes' traversal counts;
//! one single-page buffer; queries processed as `Find` +
//! `Get-A-successor` chains (paper §4.3). WDFS-AM joins the comparison
//! here because edge weights exist to order its traversal; CCAM clusters
//! to maximise WCRR under the same weights.
//!
//! Expected shape (paper): page accesses grow linearly with route
//! length; CCAM-S and CCAM-D below every other method at every length.
//!
//! `--codec compact` reruns it on the compact record (EXPERIMENTS.md).

use ccam_bench::{
    avg_route_io, benchmark_network, build_all_methods, codec_arg, render_table, EXPERIMENT_SEED,
};
use ccam_graph::walks::{edge_weights_from_routes, random_walk_routes};
use ccam_graph::RecordCodec;

fn main() {
    let codec = codec_arg("fig6_route_eval");
    let net = benchmark_network();
    let block = 2048;
    let lengths = [10usize, 20, 30, 40];
    println!(
        "Figure 6: route evaluation I/O vs route length  (block = {block} B, 100 routes/set, 1-page buffer)\n"
    );
    if codec != RecordCodec::Paper {
        println!(
            "record codec: {} (extension; the paper's record is the default)\n",
            codec.name()
        );
    }

    // Route sets and the derived edge weights (all sets contribute).
    let route_sets: Vec<_> = lengths
        .iter()
        .enumerate()
        .map(|(i, &l)| random_walk_routes(&net, 100, l, EXPERIMENT_SEED + 10 + i as u64))
        .collect();
    let all_routes: Vec<_> = route_sets.iter().flatten().cloned().collect();
    let weights = edge_weights_from_routes(&all_routes);

    let methods = build_all_methods(&net, block, Some(&weights), true, codec);

    let header: Vec<String> = std::iter::once("method".to_string())
        .chain(lengths.iter().map(|l| format!("L={l}")))
        .chain(["WCRR".to_string()])
        .collect();
    let mut rows = Vec::new();
    let mut table: Vec<(String, Vec<f64>)> = Vec::new();
    for am in &methods {
        let mut series = Vec::new();
        for routes in &route_sets {
            series.push(avg_route_io(am.as_ref(), routes));
        }
        let wcrr = am.wcrr(&weights).expect("wcrr");
        rows.push(
            std::iter::once(am.name().to_string())
                .chain(series.iter().map(|v| format!("{v:.2}")))
                .chain([format!("{wcrr:.4}")])
                .collect(),
        );
        table.push((am.name().to_string(), series));
    }
    println!("{}", render_table(&header, &rows));

    // Shape checks.
    let get = |n: &str| &table.iter().find(|(m, _)| m == n).expect("method").1;
    let (s, d) = (get("CCAM-S"), get("CCAM-D"));
    let mut checks = vec![];
    for (li, &l) in lengths.iter().enumerate() {
        let others_min = table
            .iter()
            .filter(|(m, _)| m != "CCAM-S" && m != "CCAM-D")
            .map(|(_, v)| v[li])
            .fold(f64::INFINITY, f64::min);
        checks.push((
            format!("CCAM-S & CCAM-D cheapest at L={l}"),
            s[li] <= others_min && d[li] <= others_min,
        ));
    }
    for (name, series) in &table {
        checks.push((
            format!("{name}: I/O grows with route length"),
            series.windows(2).all(|w| w[1] >= w[0]),
        ));
    }
    println!("shape checks:");
    for (label, ok) in checks {
        println!("  [{}] {label}", if ok { "ok" } else { "MISS" });
    }
}
