//! Ablation — Table 1 beyond Figure 7: edge-argument maintenance costs
//! per policy, and the paper's suggested *lazy* policy ("a lazy or
//! delayed reorganization policy may reorganize NbrPages(P) after a
//! certain number of updates to page P", §2.4) at several thresholds.

use std::collections::HashSet;

use ccam_bench::{benchmark_network, measure_io, render_table, sample_nodes, EXPERIMENT_SEED};
use ccam_core::am::{AccessMethod, CcamBuilder};
use ccam_core::reorg::ReorgPolicy;
use ccam_graph::{NodeData, NodeId, RecordCodec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    let net = benchmark_network();
    let block = 1024;
    edge_update_costs(&net, block);
    lazy_thresholds(&net, block);
}

/// Part 1 — edge Insert()/Delete() I/O per policy (Table 1, edge column).
fn edge_update_costs(net: &ccam_graph::Network, block: usize) {
    println!("Ablation A: edge-argument maintenance cost per policy  (block = {block} B)\n");
    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED + 40);
    let ids = net.node_ids();
    // 150 random non-edges to insert and then delete.
    let mut pairs = Vec::new();
    while pairs.len() < 150 {
        let a = ids[rng.random_range(0..ids.len())];
        let b = ids[rng.random_range(0..ids.len())];
        if a != b
            && !net.node(a).unwrap().successors.iter().any(|e| e.to == b)
            && !pairs.contains(&(a, b))
        {
            pairs.push((a, b));
        }
    }

    let header: Vec<String> = ["policy", "insert-edge I/O", "delete-edge I/O", "CRR after"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for policy in [
        ReorgPolicy::FirstOrder,
        ReorgPolicy::SecondOrder,
        ReorgPolicy::HigherOrder,
        ReorgPolicy::Lazy { every: 8 },
    ] {
        let mut am = CcamBuilder::new(block)
            .codec(RecordCodec::Paper)
            .policy(policy)
            .build_static(net)
            .expect("create");
        let (mut ins_io, mut del_io) = (0u64, 0u64);
        for &(a, b) in &pairs {
            let (ok, io) = measure_io(&mut am as &mut dyn AccessMethod, |am| {
                am.insert_edge(a, b, 10).expect("insert edge")
            });
            assert!(ok);
            ins_io += io;
        }
        for &(a, b) in &pairs {
            let (cost, io) = measure_io(&mut am as &mut dyn AccessMethod, |am| {
                am.delete_edge(a, b).expect("delete edge")
            });
            assert!(cost.is_some());
            del_io += io;
        }
        rows.push(vec![
            policy.name().to_string(),
            format!("{:.2}", ins_io as f64 / pairs.len() as f64),
            format!("{:.2}", del_io as f64 / pairs.len() as f64),
            format!("{:.4}", am.crr().expect("crr")),
        ]);
    }
    println!("{}", render_table(&header, &rows));
}

/// Part 2 — lazy-policy threshold sweep on the Figure 7 insertion
/// workload: amortized I/O vs final CRR.
fn lazy_thresholds(net: &ccam_graph::Network, block: usize) {
    println!(
        "Ablation B: lazy-policy thresholds on the 20%-insertion workload  (block = {block} B)\n"
    );
    let held: Vec<NodeId> = sample_nodes(net, 0.2, EXPERIMENT_SEED + 2);
    let mut base = net.clone();
    for &id in &held {
        base.remove_node(id);
    }

    let policies = vec![
        ReorgPolicy::FirstOrder,
        ReorgPolicy::Lazy { every: 16 },
        ReorgPolicy::Lazy { every: 8 },
        ReorgPolicy::Lazy { every: 4 },
        ReorgPolicy::SecondOrder,
    ];
    let header: Vec<String> = ["policy", "avg insert I/O", "final CRR"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for policy in policies {
        let mut am = CcamBuilder::new(block)
            .codec(RecordCodec::Paper)
            .policy(policy)
            .build_static(&base)
            .expect("create");
        let mut present: HashSet<NodeId> = base.node_ids().into_iter().collect();
        let mut io = 0u64;
        for &id in &held {
            let full = net.node(id).expect("held node");
            let data = NodeData {
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
            let incoming: Vec<(NodeId, u32)> = data
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
            let (r, cost) = measure_io(&mut am as &mut dyn AccessMethod, |am| {
                am.insert_node(&data, &incoming)
            });
            r.expect("insert");
            io += cost;
            present.insert(id);
        }
        let label = match policy {
            ReorgPolicy::Lazy { every } => format!("lazy(every {every})"),
            p => p.name().to_string(),
        };
        rows.push(vec![
            label,
            format!("{:.2}", io as f64 / held.len() as f64),
            format!("{:.4}", am.crr().expect("crr")),
        ]);
    }
    println!("{}", render_table(&header, &rows));
    println!("expected shape: lazy sits between first-order (cheap, decaying CRR) and");
    println!("second-order (pricier, stable CRR); smaller thresholds buy CRR with I/O.");
}
