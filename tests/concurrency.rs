//! Integration: concurrent read queries. The buffer pool serialises page
//! access internally (a `std::sync::Mutex`), so any number of reader
//! threads can share one access method — a property a production release
//! must actually demonstrate, not just claim.

use std::sync::Arc;

use ccam::core::am::{AccessMethod, Ccam, CcamBuilder};
use ccam::core::query::route::evaluate_route;
use ccam::core::query::search::dijkstra;
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::walks::random_walk_routes;

fn build() -> (Ccam, ccam::graph::Network) {
    let net = road_map(&RoadMapConfig {
        grid_w: 10,
        grid_h: 10,
        removed_nodes: 2,
        target_segments: 150,
        target_directed: 265,
        cell: 64,
        jitter: 24,
        seed: 5,
    });
    let am = CcamBuilder::new(1024).build_static(&net).unwrap();
    (am, net)
}

#[test]
fn parallel_finds_agree_with_serial() {
    let (am, net) = build();
    let am = Arc::new(am);
    let ids = net.node_ids();
    let threads = 8;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let am = Arc::clone(&am);
                let ids = ids.clone();
                let net = &net;
                s.spawn(move || {
                    for (i, &id) in ids.iter().enumerate() {
                        if i % threads != t {
                            continue;
                        }
                        let rec = am.find(id).unwrap().unwrap();
                        assert_eq!(&rec, net.node(id).unwrap());
                        let succs = am.get_successors(id).unwrap();
                        assert_eq!(succs.len(), rec.successors.len());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
}

#[test]
fn parallel_queries_mixed_workload() {
    let (am, net) = build();
    let am = Arc::new(am);
    let ids = net.node_ids();
    let routes = random_walk_routes(&net, 16, 12, 9);
    std::thread::scope(|s| {
        // Route evaluators...
        for chunk in routes.chunks(4) {
            let am = Arc::clone(&am);
            let chunk = chunk.to_vec();
            s.spawn(move || {
                for r in &chunk {
                    let eval = evaluate_route(am.as_ref(), r).unwrap();
                    assert!(eval.complete);
                }
            });
        }
        // ... racing shortest-path searches.
        for t in 0..4usize {
            let am = Arc::clone(&am);
            let ids = ids.clone();
            s.spawn(move || {
                let a = ids[t * 7 % ids.len()];
                let b = ids[(t * 31 + 13) % ids.len()];
                let _ = dijkstra(am.as_ref(), a, b).unwrap();
            });
        }
    });
    // The pool is intact afterwards.
    assert!(am.crr().unwrap() > 0.0);
}
