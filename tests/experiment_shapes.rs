//! Integration: the paper's headline experimental claims hold on a
//! reduced-scale road map (fast versions of the fig5/fig6/fig7 and
//! Table 5 shape checks — the full-scale runs live in `ccam-bench`).

use std::collections::HashMap;

use ccam::core::am::{AccessMethod, CcamBuilder, GridAm, TopoAm, TraversalOrder};
use ccam::core::costmodel::CostParams;
use ccam::core::query::route::evaluate_route;
use ccam::core::reorg::ReorgPolicy;
use ccam::core::validate::{validate, ValidationConfig};
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::walks::random_walk_routes;
use ccam::graph::{Network, RecordCodec};

fn small_map() -> Network {
    road_map(&RoadMapConfig {
        grid_w: 15,
        grid_h: 15,
        removed_nodes: 3,
        target_segments: 330,
        target_directed: 580,
        cell: 64,
        jitter: 24,
        seed: 1995,
    })
}

fn crr_of(net: &Network, block: usize) -> Vec<(String, f64)> {
    let w = HashMap::new();
    let ams: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(
            CcamBuilder::new(block)
                .codec(RecordCodec::Paper)
                .build_static(net)
                .unwrap(),
        ),
        Box::new(
            CcamBuilder::new(block)
                .codec(RecordCodec::Paper)
                .build_dynamic(net)
                .unwrap(),
        ),
        Box::new(
            TopoAm::create(
                net,
                block,
                TraversalOrder::DepthFirst,
                None,
                &w,
                RecordCodec::Paper,
            )
            .unwrap(),
        ),
        Box::new(GridAm::create(net, block, RecordCodec::Paper).unwrap()),
        Box::new(
            TopoAm::create(
                net,
                block,
                TraversalOrder::BreadthFirst,
                None,
                &w,
                RecordCodec::Paper,
            )
            .unwrap(),
        ),
    ];
    ams.iter()
        .map(|am| (am.name().to_string(), am.crr().unwrap()))
        .collect()
}

/// Figure 5's core claims at two block sizes.
#[test]
fn ccam_has_the_highest_crr() {
    let net = small_map();
    for block in [512usize, 2048] {
        let crr = crr_of(&net, block);
        let get = |n: &str| crr.iter().find(|(m, _)| m == n).unwrap().1;
        let ccam_s = get("CCAM-S");
        for (name, c) in &crr {
            assert!(
                ccam_s >= *c,
                "block {block}: CCAM-S {ccam_s:.3} must top {name} {c:.3}"
            );
        }
        assert!(get("CCAM-D") > get("BFS-AM"));
        assert!(get("DFS-AM") > get("BFS-AM"));
    }
}

/// Figure 5: CRR grows with block size for every method.
#[test]
fn crr_grows_with_block_size() {
    let net = small_map();
    let small = crr_of(&net, 512);
    let large = crr_of(&net, 4096);
    for ((name, c_small), (_, c_large)) in small.iter().zip(&large) {
        assert!(
            c_large > c_small,
            "{name}: CRR must grow with block size ({c_small:.3} -> {c_large:.3})"
        );
    }
}

/// Figure 6: CCAM's route evaluation is cheapest, and cost grows with
/// route length.
#[test]
fn route_evaluation_cost_ordering() {
    let net = small_map();
    let w = HashMap::new();
    let ccam = CcamBuilder::new(1024)
        .codec(RecordCodec::Paper)
        .build_static(&net)
        .unwrap();
    let bfs = TopoAm::create(
        &net,
        1024,
        TraversalOrder::BreadthFirst,
        None,
        &w,
        RecordCodec::Paper,
    )
    .unwrap();

    let mut costs = Vec::new();
    for (am, name) in [(&ccam as &dyn AccessMethod, "ccam"), (&bfs, "bfs")] {
        am.file().pool().set_capacity(1).unwrap();
        let mut per_length = Vec::new();
        for (i, len) in [10usize, 30].iter().enumerate() {
            let routes = random_walk_routes(&net, 40, *len, 9 + i as u64);
            let mut total = 0u64;
            for r in &routes {
                am.file().pool().clear().unwrap();
                let before = am.stats().snapshot();
                let eval = evaluate_route(am, r).unwrap();
                assert!(eval.complete);
                total += am.stats().snapshot().since(&before).physical_reads;
            }
            per_length.push(total as f64 / routes.len() as f64);
        }
        assert!(
            per_length[1] > per_length[0],
            "{name}: longer routes must cost more"
        );
        costs.push(per_length);
    }
    assert!(
        costs[0][0] < costs[1][0] && costs[0][1] < costs[1][1],
        "CCAM routes must be cheaper than BFS: {costs:?}"
    );
}

/// Table 3/5: measured Get-successors and Get-A-successor costs track
/// the cost model within a generous envelope.
#[test]
fn search_costs_track_the_cost_model() {
    let net = small_map();
    let am = CcamBuilder::new(1024)
        .codec(RecordCodec::Paper)
        .build_static(&net)
        .unwrap();
    let params = CostParams::measure(am.file()).unwrap();

    let ids = net.node_ids();
    let (mut gs, mut ga, mut n) = (0u64, 0u64, 0u64);
    for id in ids.into_iter().step_by(2) {
        let rec = am.find(id).unwrap().unwrap();
        if rec.successors.is_empty() {
            continue;
        }
        am.file().pool().clear().unwrap();
        am.find(id).unwrap();
        let before = am.stats().snapshot();
        am.get_successors(id).unwrap();
        gs += am.stats().snapshot().since(&before).physical_reads;

        am.file().pool().clear().unwrap();
        am.find(id).unwrap();
        let before = am.stats().snapshot();
        am.get_a_successor(id, rec.successors[0].to).unwrap();
        ga += am.stats().snapshot().since(&before).physical_reads;
        n += 1;
    }
    let gs = gs as f64 / n as f64;
    let ga = ga as f64 / n as f64;
    let pred_gs = params.get_successors_cost();
    let pred_ga = params.get_a_successor_cost();
    assert!(
        (gs - pred_gs).abs() < 0.35 + 0.5 * pred_gs,
        "get-successors measured {gs:.3} vs predicted {pred_gs:.3}"
    );
    assert!(
        (ga - pred_ga).abs() < 0.25 + 0.5 * pred_ga,
        "get-a-successor measured {ga:.3} vs predicted {pred_ga:.3}"
    );
}

/// The reusable validation harness reproduces the Table 5 methodology:
/// observed page accesses per operation class stay within a generous
/// envelope of the §3.2 predictions (same tolerances as the manual
/// measurement above), and every class the workload can exercise shows
/// up in the report.
#[test]
fn validation_harness_tracks_the_cost_model() {
    let net = small_map();
    let mut am = CcamBuilder::new(1024)
        .codec(RecordCodec::Paper)
        .build_static(&net)
        .unwrap();
    let cfg = ValidationConfig {
        sample: 48,
        routes: 6,
        route_len: 15,
        seed: 7,
        ..ValidationConfig::default()
    };
    let report = validate(&mut am, &cfg).unwrap();

    let find = report.class("find").unwrap();
    assert!(
        (find.observed - 1.0).abs() < 1e-9,
        "find on a cold buffer must cost exactly one page, got {:.3}",
        find.observed
    );
    let gs = report.class("get_successors").unwrap();
    assert!(
        (gs.observed - gs.predicted).abs() < 0.35 + 0.5 * gs.predicted,
        "get-successors observed {:.3} vs predicted {:.3}",
        gs.observed,
        gs.predicted
    );
    let ga = report.class("get_a_successor").unwrap();
    assert!(
        (ga.observed - ga.predicted).abs() < 0.25 + 0.5 * ga.predicted,
        "get-a-successor observed {:.3} vs predicted {:.3}",
        ga.observed,
        ga.predicted
    );
    let route = report.class("route").unwrap();
    assert!(route.observed >= 1.0, "a route faults at least one page");
    assert!(
        (route.observed - route.predicted).abs() < 0.5 + 0.5 * route.predicted,
        "route observed {:.3} vs predicted {:.3}",
        route.observed,
        route.predicted
    );
    // Updates ran (delete + re-insert). Table 4 predicts a worst case and
    // the re-insert runs on the buffer the delete warmed, so only the
    // delete is guaranteed to do physical I/O.
    let del = report.class("delete").unwrap();
    assert!(del.trials > 0 && del.observed > 0.0, "delete did no I/O");
    assert!(report.class("insert").unwrap().trials > 0);
    let text = report.render();
    for c in &report.classes {
        assert!(text.contains(&c.class), "render lost class {}", c.class);
    }
}

/// Operation spans attribute page accesses to the public entry point:
/// each call yields exactly one profile (nested `find`s fold in), named
/// after the operation, with a non-empty ordered page-access trace.
#[test]
fn operation_spans_capture_page_access_traces() {
    let net = small_map();
    let am = CcamBuilder::new(1024)
        .codec(RecordCodec::Paper)
        .build_static(&net)
        .unwrap();
    let id = net.node_ids()[0];
    am.stats().set_profiling(true);
    am.file().pool().clear().unwrap();
    am.find(id).unwrap();
    am.get_successors(id).unwrap();
    let profiles = am.stats().take_profiles();
    assert_eq!(
        profiles.len(),
        2,
        "two entry points must yield two profiles"
    );
    assert_eq!(profiles[0].op, "find");
    assert_eq!(profiles[1].op, "get_successors");
    assert!(profiles[0].data_page_accesses() >= 1);
    assert!(!profiles[0].trace_string().is_empty());
    // Profiling off again: no further collection.
    am.stats().set_profiling(false);
    am.find(id).unwrap();
    assert!(am.stats().take_profiles().is_empty());
}

/// Figure 7: higher-order reorganization costs much more I/O than
/// second-order for little extra CRR; first-order degrades CRR most.
#[test]
fn reorg_policy_tradeoff() {
    let net = small_map();
    let held: Vec<_> = net.node_ids().into_iter().step_by(5).collect();
    let mut base = net.clone();
    for &id in &held {
        base.remove_node(id);
    }

    let mut results = Vec::new();
    for policy in [
        ReorgPolicy::FirstOrder,
        ReorgPolicy::SecondOrder,
        ReorgPolicy::HigherOrder,
    ] {
        let mut am = CcamBuilder::new(1024)
            .codec(RecordCodec::Paper)
            .policy(policy)
            .build_static(&base)
            .unwrap();
        let mut present: std::collections::HashSet<_> = base.node_ids().into_iter().collect();
        let mut io = 0u64;
        for &id in &held {
            let full = net.node(id).unwrap();
            let data = ccam::graph::NodeData {
                successors: full
                    .successors
                    .iter()
                    .filter(|e| present.contains(&e.to))
                    .copied()
                    .collect(),
                predecessors: full
                    .predecessors
                    .iter()
                    .filter(|p| present.contains(p))
                    .copied()
                    .collect(),
                ..full.clone()
            };
            let incoming: Vec<_> = data
                .predecessors
                .iter()
                .map(|&p| {
                    (
                        p,
                        net.node(p)
                            .unwrap()
                            .successors
                            .iter()
                            .find(|e| e.to == id)
                            .unwrap()
                            .cost,
                    )
                })
                .collect();
            am.file().pool().clear().unwrap();
            let before = am.stats().snapshot();
            am.insert_node(&data, &incoming).unwrap();
            am.file().pool().flush_all().unwrap();
            let d = am.stats().snapshot().since(&before);
            io += d.physical_reads + d.physical_writes;
            present.insert(id);
        }
        results.push((policy, io as f64 / held.len() as f64, am.crr().unwrap()));
    }
    let (first, second, higher) = (&results[0], &results[1], &results[2]);
    assert!(
        higher.1 > second.1,
        "higher-order I/O {:.2} must exceed second-order {:.2}",
        higher.1,
        second.1
    );
    assert!(
        first.2 <= second.2 + 0.02,
        "first-order CRR {:.3} must not beat second-order {:.3}",
        first.2,
        second.2
    );
}
