//! Integration: full lifecycle of every access method on a generated
//! road network — create, read back, search ops, node/edge maintenance,
//! and invariants after churn.

use std::collections::HashMap;

use ccam::core::am::{AccessMethod, CcamBuilder, GridAm, TopoAm, TraversalOrder};
use ccam::core::reorg::ReorgPolicy;
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::{Network, RecordCodec};

fn test_network(seed: u64) -> Network {
    road_map(&RoadMapConfig {
        grid_w: 12,
        grid_h: 12,
        removed_nodes: 3,
        target_segments: 210,
        target_directed: 370,
        cell: 64,
        jitter: 24,
        seed,
    })
}

fn all_methods(net: &Network, block: usize) -> Vec<Box<dyn AccessMethod>> {
    let w = HashMap::new();
    vec![
        Box::new(CcamBuilder::new(block).build_static(net).unwrap()),
        Box::new(CcamBuilder::new(block).build_dynamic(net).unwrap()),
        Box::new(
            TopoAm::create(
                net,
                block,
                TraversalOrder::DepthFirst,
                None,
                &w,
                RecordCodec::Compact,
            )
            .unwrap(),
        ),
        Box::new(
            TopoAm::create(
                net,
                block,
                TraversalOrder::BreadthFirst,
                None,
                &w,
                RecordCodec::Compact,
            )
            .unwrap(),
        ),
        Box::new(
            TopoAm::create(
                net,
                block,
                TraversalOrder::WeightedDepthFirst,
                None,
                &w,
                RecordCodec::Compact,
            )
            .unwrap(),
        ),
        Box::new(GridAm::create(net, block, RecordCodec::Compact).unwrap()),
    ]
}

#[test]
fn every_method_round_trips_every_record() {
    let net = test_network(1);
    for am in all_methods(&net, 1024) {
        for id in net.node_ids() {
            let rec = am
                .find(id)
                .unwrap()
                .unwrap_or_else(|| panic!("{}: {id:?} missing", am.name()));
            assert_eq!(&rec, net.node(id).unwrap(), "{}: {id:?}", am.name());
        }
        let crr = am.crr().unwrap();
        assert!((0.0..=1.0).contains(&crr), "{}: CRR {crr}", am.name());
    }
}

#[test]
fn get_successors_agrees_with_network_everywhere() {
    let net = test_network(2);
    for am in all_methods(&net, 512) {
        for id in net.node_ids().into_iter().step_by(3) {
            let mut got: Vec<_> = am
                .get_successors(id)
                .unwrap()
                .into_iter()
                .map(|r| r.id)
                .collect();
            got.sort_unstable();
            let mut want: Vec<_> = net
                .node(id)
                .unwrap()
                .successors
                .iter()
                .map(|e| e.to)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "{}: successors of {id:?}", am.name());
        }
    }
}

#[test]
fn get_a_successor_finds_each_neighbor() {
    let net = test_network(3);
    for am in all_methods(&net, 1024) {
        for id in net.node_ids().into_iter().step_by(11) {
            let rec = am.find(id).unwrap().unwrap();
            for e in &rec.successors {
                let s = am.get_a_successor(id, e.to).unwrap();
                assert_eq!(s.unwrap().id, e.to, "{}", am.name());
            }
        }
    }
}

#[test]
fn delete_everything_then_file_is_empty() {
    let net = test_network(4);
    for mut am in all_methods(&net, 1024) {
        for id in net.node_ids() {
            assert!(am.delete_node(id).unwrap().is_some(), "{}", am.name());
        }
        assert_eq!(am.file().len(), 0, "{}", am.name());
        for id in net.node_ids().into_iter().take(5) {
            assert!(am.find(id).unwrap().is_none());
            assert!(am.delete_node(id).unwrap().is_none());
        }
    }
}

#[test]
fn churn_preserves_consistency_under_every_policy() {
    let net = test_network(5);
    for policy in [
        ReorgPolicy::FirstOrder,
        ReorgPolicy::SecondOrder,
        ReorgPolicy::HigherOrder,
    ] {
        let mut am = CcamBuilder::new(512)
            .policy(policy)
            .build_static(&net)
            .unwrap();
        // Delete and re-insert a third of the nodes, twice.
        for round in 0..2 {
            for id in net.node_ids().into_iter().skip(round).step_by(3) {
                let del = am.delete_node(id).unwrap().unwrap();
                am.insert_node(&del.data, &del.incoming).unwrap();
            }
        }
        // All records intact, all cross-references consistent.
        for id in net.node_ids() {
            let rec = am.find(id).unwrap().unwrap();
            for e in &rec.successors {
                let t = am.find(e.to).unwrap().unwrap();
                assert!(
                    t.predecessors.contains(&id),
                    "{policy:?}: {id:?}->{:?} lost its back-link",
                    e.to
                );
            }
            for p in &rec.predecessors {
                let s = am.find(*p).unwrap().unwrap();
                assert!(
                    s.successors.iter().any(|e| e.to == id),
                    "{policy:?}: pred link {p:?} of {id:?} dangling"
                );
            }
        }
    }
}

#[test]
fn edge_churn_keeps_lists_consistent() {
    let net = test_network(6);
    let mut am = CcamBuilder::new(1024).build_static(&net).unwrap();
    let ids = net.node_ids();
    // Add a batch of long-range edges, then delete them.
    let mut added = Vec::new();
    for i in 0..30 {
        let a = ids[(i * 17) % ids.len()];
        let b = ids[(i * 37 + 11) % ids.len()];
        if a != b && am.insert_edge(a, b, 50 + i as u32).unwrap() {
            added.push((a, b, 50 + i as u32));
        }
    }
    assert!(!added.is_empty());
    for &(a, b, c) in &added {
        let rec = am.find(a).unwrap().unwrap();
        assert!(rec.successors.iter().any(|e| e.to == b && e.cost == c));
    }
    for &(a, b, c) in &added {
        assert_eq!(am.delete_edge(a, b).unwrap(), Some(c));
    }
    // Network content equals the original again.
    for id in net.node_ids() {
        let rec = am.find(id).unwrap().unwrap();
        let want = net.node(id).unwrap();
        let mut got_s: Vec<_> = rec.successors.clone();
        let mut want_s = want.successors.clone();
        got_s.sort_by_key(|e| e.to);
        want_s.sort_by_key(|e| e.to);
        assert_eq!(got_s, want_s, "{id:?}");
    }
}

#[test]
fn block_size_sweep_preserves_contents() {
    let net = test_network(7);
    for block in [512usize, 1024, 2048, 4096] {
        for am in all_methods(&net, block) {
            assert_eq!(am.file().len(), net.len(), "{} at {block}", am.name());
        }
    }
}
