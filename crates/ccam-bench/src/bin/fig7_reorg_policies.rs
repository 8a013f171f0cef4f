//! Figure 7 — "Effect of the Reorganization Policies".
//!
//! The paper inserts 20% of the Minneapolis road map's nodes into a CCAM
//! file built from the remaining 80% and tracks, per policy (first /
//! second / higher order), (a) the average I/O cost per insertion and
//! (b) the CRR trajectory (§4.4).
//!
//! Expected shape (paper): higher-order I/O far above first/second
//! (which are nearly equal and flat); first-order ends with the lowest
//! CRR; higher-order CRR only slightly above second-order; CRR drifts
//! down for every policy as the file densifies.

use std::collections::HashSet;

use ccam_bench::{benchmark_network, measure_io, render_table, sample_nodes, EXPERIMENT_SEED};
use ccam_core::am::{AccessMethod, CcamBuilder};
use ccam_core::reorg::ReorgPolicy;
use ccam_graph::{Network, NodeData, NodeId, RecordCodec};

/// Report a sample every this many insertions.
const REPORT_EVERY: usize = 27;

fn main() {
    let net = benchmark_network();
    let block = 1024;
    println!(
        "Figure 7: reorganization policies during insertion of 20% of the road map  (block = {block} B)\n"
    );

    // Hold out 20% of the nodes; the base file stores the rest.
    let held_out: Vec<NodeId> = sample_nodes(&net, 0.2, EXPERIMENT_SEED + 2);
    let held_set: HashSet<NodeId> = held_out.iter().copied().collect();
    let mut base = net.clone();
    for &id in &held_out {
        base.remove_node(id);
    }
    println!(
        "base network: {} nodes; inserting {} held-out nodes\n",
        base.len(),
        held_out.len()
    );

    let policies = [
        ReorgPolicy::FirstOrder,
        ReorgPolicy::SecondOrder,
        ReorgPolicy::HigherOrder,
    ];
    let mut io_rows: Vec<Vec<String>> = Vec::new();
    let mut crr_rows: Vec<Vec<String>> = Vec::new();
    let mut avg_io_final = Vec::new();
    let mut crr_final = Vec::new();
    let mut steps_header: Vec<String> = Vec::new();

    for policy in policies {
        let mut am = CcamBuilder::new(block)
            .codec(RecordCodec::Paper)
            .policy(policy)
            .build_static(&base)
            .expect("base CCAM");
        let mut present: HashSet<NodeId> = base.node_ids().into_iter().collect();

        let mut total_io = 0u64;
        let mut io_series: Vec<f64> = Vec::new();
        let mut crr_series: Vec<f64> = Vec::new();
        let mut steps: Vec<usize> = Vec::new();
        for (i, &id) in held_out.iter().enumerate() {
            let (data, incoming) = restricted_node(&net, id, &present, &held_set);
            let (r, io) = measure_io(&mut am as &mut dyn AccessMethod, |am| {
                am.insert_node(&data, &incoming)
            });
            r.expect("insert");
            present.insert(id);
            total_io += io;
            if (i + 1) % REPORT_EVERY == 0 || i + 1 == held_out.len() {
                steps.push(i + 1);
                io_series.push(total_io as f64 / (i + 1) as f64);
                crr_series.push(am.crr().expect("crr"));
            }
        }
        if steps_header.is_empty() {
            steps_header = std::iter::once("policy".to_string())
                .chain(steps.iter().map(|s| format!("n={s}")))
                .collect();
        }
        io_rows.push(
            std::iter::once(policy.name().to_string())
                .chain(io_series.iter().map(|v| format!("{v:.2}")))
                .collect(),
        );
        crr_rows.push(
            std::iter::once(policy.name().to_string())
                .chain(crr_series.iter().map(|v| format!("{v:.4}")))
                .collect(),
        );
        avg_io_final.push(*io_series.last().expect("series"));
        crr_final.push(*crr_series.last().expect("series"));
    }

    println!("(a) average I/O cost per insertion (cumulative):");
    println!("{}", render_table(&steps_header, &io_rows));
    println!("(b) CRR after n insertions:");
    println!("{}", render_table(&steps_header, &crr_rows));

    let checks = [
        (
            "higher-order I/O well above first/second".to_string(),
            avg_io_final[2] > 1.25 * avg_io_final[0] && avg_io_final[2] > 1.5 * avg_io_final[1],
        ),
        (
            "first and second order I/O close".to_string(),
            (avg_io_final[0] - avg_io_final[1]).abs() <= 0.5 * avg_io_final[0],
        ),
        (
            "first-order ends with the lowest CRR".to_string(),
            crr_final[0] <= crr_final[1] && crr_final[0] <= crr_final[2],
        ),
        (
            "higher-order CRR >= second-order - epsilon".to_string(),
            crr_final[2] >= crr_final[1] - 0.02,
        ),
    ];
    println!("shape checks:");
    for (label, ok) in checks {
        println!("  [{}] {label}", if ok { "ok" } else { "MISS" });
    }
}

/// The held-out node's record restricted to currently-present neighbors,
/// plus the incoming-edge costs (edges to still-absent nodes material-
/// ise later, when their other endpoint is inserted).
fn restricted_node(
    net: &Network,
    id: NodeId,
    present: &HashSet<NodeId>,
    _held: &HashSet<NodeId>,
) -> (NodeData, Vec<(NodeId, u32)>) {
    let full = net.node(id).expect("held-out node in original network");
    let data = NodeData {
        id: full.id,
        x: full.x,
        y: full.y,
        payload: full.payload.clone(),
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
    };
    let incoming = data
        .predecessors
        .iter()
        .map(|&p| {
            let cost = net
                .node(p)
                .expect("pred exists")
                .successors
                .iter()
                .find(|e| e.to == id)
                .expect("edge exists")
                .cost;
            (p, cost)
        })
        .collect();
    (data, incoming)
}
