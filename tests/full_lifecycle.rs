//! Integration: full lifecycle of every access method on a generated
//! road network — create, read back, search ops, node/edge maintenance,
//! and invariants after churn.

use std::collections::HashMap;

use ccam::core::am::{AccessMethod, CcamBuilder, GridAm, TopoAm, TraversalOrder};
use ccam::core::reorg::ReorgPolicy;
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::{Network, RecordCodec};
use ccam_testing::{assert_history, check, Driver, History, Step};

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
        let held = check(am.file(), &net);
        assert_eq!(held, Ok(()), "{}", am.name());
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

/// Delete and re-insert a third of the nodes, twice, as a driver
/// history: after every step all records, all cross-references and the
/// audit agree with the model.
fn churn(history: &History, policy: ReorgPolicy) {
    let call = format!("churn(&history, ReorgPolicy::{policy:?})");
    assert_history(&call, history, |_| {
        let net = test_network(5);
        let am = CcamBuilder::new(512).policy(policy).build_static(&net);
        Driver::new(am.unwrap(), net)
    });
}

#[test]
fn churn_preserves_consistency_under_every_policy() {
    let n = test_network(5).len();
    // `Grow` by nothing: `Delete()`, then `Insert()` of the same record.
    let steps = (0..2).flat_map(|round| (round..n).step_by(3).map(|i| Step::Grow(i, 0)));
    let history = History::new(0, steps.collect());
    use ReorgPolicy::{FirstOrder, HigherOrder, SecondOrder};
    for policy in [FirstOrder, SecondOrder, HigherOrder] {
        churn(&history, policy);
    }
}

#[test]
fn edge_churn_keeps_lists_consistent() {
    let net = test_network(6);
    let am = CcamBuilder::new(1024).build_static(&net).unwrap();
    let mut driver = Driver::new(am, net.clone());
    // Add a batch of long-range edges, then delete them.
    let inserts = (0..30).map(|i| Step::InsertEdge(i * 17, i * 37 + 11, 50 + i as u32));
    driver.run(&History::new(0, inserts.collect())).unwrap();
    let mut model = driver.model().clone();
    let was = |a, b| net.edges().any(|(f, t, _)| (f, t) == (a, b));
    let added: Vec<_> = model.edges().filter(|&(a, b, _)| !was(a, b)).collect();
    assert!(!added.is_empty());
    let deletes = added.iter().map(|&(a, b, _)| {
        let i = model.edges().position(|(f, t, _)| (f, t) == (a, b));
        model.remove_edge(a, b);
        Step::DeleteEdge(i.unwrap())
    });
    driver.run(&History::new(0, deletes.collect())).unwrap();
    // Network content equals the original again.
    driver.with_file(|file| check(file, &net)).unwrap();
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
