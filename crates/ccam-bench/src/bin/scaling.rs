//! Ablation — network-size scaling.
//!
//! The paper motivates CCAM with large road databases ("road-maps are
//! really large databases \[16, 1\], and thus may not fit inside main
//! memory", §1.2) but evaluates one fixed map. This experiment sweeps
//! the network size across a factor of ~16 and verifies the headline
//! properties are scale-stable: CCAM-S's CRR advantage over DFS-AM /
//! BFS-AM, and the per-route I/O gap. It also reports create() wall
//! time, the practical cost of static clustering (why CCAM-D exists).

use std::collections::HashMap;
use std::time::Instant;

use ccam_bench::{avg_route_io, render_table};
use ccam_core::am::{AccessMethod, CcamBuilder, TopoAm, TraversalOrder};
use ccam_graph::roadmap::{road_map, RoadMapConfig};
use ccam_graph::walks::random_walk_routes;
use ccam_graph::RecordCodec;

fn config(grid: u32, seed: u64) -> RoadMapConfig {
    RoadMapConfig::scaled(grid, seed)
}

fn main() {
    println!("Scaling: CRR and route I/O vs network size  (block = 1024 B)\n");
    let header: Vec<String> = [
        "nodes",
        "edges",
        "CCAM CRR",
        "DFS CRR",
        "BFS CRR",
        "CCAM rt-I/O",
        "DFS rt-I/O",
        "create",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for grid in [9u32, 17, 33, 47] {
        let net = road_map(&config(grid, 1995));
        let w = HashMap::new();
        let t0 = Instant::now();
        let ccam = CcamBuilder::new(1024)
            .codec(RecordCodec::Paper)
            .build_static(&net)
            .expect("ccam");
        let dt = t0.elapsed();
        let dfs = TopoAm::create(
            &net,
            1024,
            TraversalOrder::DepthFirst,
            None,
            &w,
            RecordCodec::Paper,
        )
        .expect("dfs");
        let bfs = TopoAm::create(
            &net,
            1024,
            TraversalOrder::BreadthFirst,
            None,
            &w,
            RecordCodec::Paper,
        )
        .expect("bfs");
        let routes = random_walk_routes(&net, 60, 20, 7);
        let ccam_io = avg_route_io(&ccam, &routes);
        let dfs_io = avg_route_io(&dfs, &routes);
        let (c, d, b) = (
            ccam.crr().expect("crr"),
            dfs.crr().expect("crr"),
            bfs.crr().expect("crr"),
        );
        ratios.push((c / d.max(1e-9), dfs_io / ccam_io.max(1e-9)));
        rows.push(vec![
            format!("{}", net.len()),
            format!("{}", net.num_edges()),
            format!("{c:.4}"),
            format!("{d:.4}"),
            format!("{b:.4}"),
            format!("{ccam_io:.2}"),
            format!("{dfs_io:.2}"),
            format!("{dt:.0?}"),
        ]);
    }
    println!("{}", render_table(&header, &rows));
    println!("shape checks:");
    println!(
        "  [{}] CCAM CRR advantage over DFS-AM holds at every scale",
        if ratios.iter().all(|(r, _)| *r > 1.0) {
            "ok"
        } else {
            "MISS"
        }
    );
    println!(
        "  [{}] CCAM route I/O advantage holds at every scale",
        if ratios.iter().all(|(_, r)| *r > 1.0) {
            "ok"
        } else {
            "MISS"
        }
    );
}
