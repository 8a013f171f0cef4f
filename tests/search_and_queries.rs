//! Integration: graph search and aggregate queries return identical
//! answers through every access method (placement must never change
//! query semantics, only I/O cost).

use std::collections::HashMap;

use ccam::core::am::{AccessMethod, CcamBuilder, GridAm, TopoAm, TraversalOrder};
use ccam::core::query::aggregate::{location_allocation, route_unit_aggregate};
use ccam::core::query::route::evaluate_route;
use ccam::core::query::search::{a_star, dijkstra};
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::walks::random_walk_routes;
use ccam::graph::{Network, NodeId, RecordCodec};

fn net() -> Network {
    road_map(&RoadMapConfig {
        grid_w: 10,
        grid_h: 10,
        removed_nodes: 2,
        target_segments: 150,
        target_directed: 265,
        cell: 64,
        jitter: 24,
        seed: 42,
    })
}

fn methods(net: &Network) -> Vec<Box<dyn AccessMethod>> {
    let w = HashMap::new();
    vec![
        Box::new(CcamBuilder::new(512).build_static(net).unwrap()),
        Box::new(
            TopoAm::create(
                net,
                512,
                TraversalOrder::DepthFirst,
                None,
                &w,
                RecordCodec::Compact,
            )
            .unwrap(),
        ),
        Box::new(GridAm::create(net, 512, RecordCodec::Compact).unwrap()),
    ]
}

#[test]
fn shortest_paths_are_placement_independent() {
    let net = net();
    let ams = methods(&net);
    let ids = net.node_ids();
    for i in (0..ids.len()).step_by(13) {
        let (s, g) = (ids[i], ids[(i * 7 + 29) % ids.len()]);
        let costs: Vec<Option<u64>> = ams
            .iter()
            .map(|am| dijkstra(am.as_ref(), s, g).unwrap().map(|r| r.cost))
            .collect();
        assert!(
            costs.windows(2).all(|w| w[0] == w[1]),
            "dijkstra {s:?}->{g:?} disagrees across methods: {costs:?}"
        );
        // A* agrees with Dijkstra on every method.
        for am in &ams {
            let a = a_star(am.as_ref(), s, g).unwrap().map(|r| r.cost);
            assert_eq!(a, costs[0], "{}: A* vs dijkstra {s:?}->{g:?}", am.name());
        }
    }
}

#[test]
fn route_evaluation_is_placement_independent() {
    let net = net();
    let ams = methods(&net);
    for route in random_walk_routes(&net, 25, 15, 5) {
        let evals: Vec<_> = ams
            .iter()
            .map(|am| evaluate_route(am.as_ref(), &route).unwrap())
            .collect();
        assert!(evals.iter().all(|e| e.complete));
        assert!(
            evals.windows(2).all(|w| w[0] == w[1]),
            "route evaluation disagrees: {evals:?}"
        );
    }
}

#[test]
fn route_unit_aggregates_are_placement_independent() {
    let net = net();
    let ams = methods(&net);
    let routes = random_walk_routes(&net, 5, 12, 6);
    for route in &routes {
        let arcs: Vec<(NodeId, NodeId)> = route.edges().collect();
        let aggs: Vec<_> = ams
            .iter()
            .map(|am| route_unit_aggregate(am.as_ref(), &arcs).unwrap())
            .collect();
        assert!(aggs.windows(2).all(|w| w[0] == w[1]), "{aggs:?}");
        assert_eq!(aggs[0].arcs_found, arcs.len());
    }
}

#[test]
fn location_allocation_is_placement_independent() {
    let net = net();
    let ams = methods(&net);
    let ids = net.node_ids();
    let candidates = [ids[0], ids[ids.len() / 2], ids[ids.len() - 1]];
    let demands: Vec<NodeId> = ids.iter().step_by(17).copied().collect();
    let results: Vec<_> = ams
        .iter()
        .map(|am| location_allocation(am.as_ref(), &candidates, &demands).unwrap())
        .collect();
    assert!(results.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn search_io_reflects_clustering_quality() {
    // The same A* query costs fewer page accesses on CCAM than on
    // BFS-AM: the point of the whole paper.
    let net = net();
    let w = HashMap::new();
    let ccam = CcamBuilder::new(512)
        .codec(RecordCodec::Paper)
        .build_static(&net)
        .unwrap();
    let bfs = TopoAm::create(
        &net,
        512,
        TraversalOrder::BreadthFirst,
        None,
        &w,
        RecordCodec::Paper,
    )
    .unwrap();
    let ids = net.node_ids();
    let mut ccam_io = 0u64;
    let mut bfs_io = 0u64;
    for i in (0..ids.len()).step_by(9) {
        let (s, g) = (ids[i], ids[(i * 11 + 31) % ids.len()]);
        for (am, total) in [
            (&ccam as &dyn AccessMethod, &mut ccam_io),
            (&bfs, &mut bfs_io),
        ] {
            am.file().pool().set_capacity(4).unwrap();
            am.file().pool().clear().unwrap();
            let before = am.stats().snapshot();
            let _ = a_star(am, s, g).unwrap();
            *total += am.stats().snapshot().since(&before).physical_reads;
        }
    }
    assert!(
        ccam_io < bfs_io,
        "A* over CCAM ({ccam_io}) must beat BFS-AM ({bfs_io})"
    );
}
