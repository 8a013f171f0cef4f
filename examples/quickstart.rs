//! Quickstart: build a CCAM file over a small road network, run the
//! basic operations, and see why connectivity clustering matters.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ccam::core::am::{AccessMethod, CcamBuilder, TopoAm, TraversalOrder};
use ccam::graph::generators::{grid_network, zorder_id};
use ccam::graph::RecordCodec;
use std::collections::HashMap;

fn main() {
    // A 12x12 downtown grid; every street two-way, unit travel time.
    let net = grid_network(12, 12, 1.0);
    println!(
        "network: {} intersections, {} directed road segments",
        net.len(),
        net.num_edges()
    );

    // CCAM with 1 KiB disk pages: nodes are clustered into pages by
    // connectivity (recursive ratio-cut partitioning).
    let mut ccam = CcamBuilder::new(1024).build_static(&net).unwrap();
    println!(
        "CCAM file: {} pages, {:.1} records/page, CRR = {:.3}",
        ccam.file().num_pages(),
        ccam.file().blocking_factor(),
        ccam.crr().unwrap()
    );

    // Find() — one page access on a cold buffer.
    let node = zorder_id(5, 5);
    let rec = ccam.find(node).unwrap().expect("node stored");
    println!(
        "Find({node}): ({}, {}) with {} outgoing edges",
        rec.x,
        rec.y,
        rec.successors.len()
    );

    // Get-successors() — most successors live on the same page, so this
    // usually costs zero additional I/O.
    ccam.file().pool().clear().unwrap();
    ccam.find(node).unwrap();
    let before = ccam.stats().snapshot();
    let succs = ccam.get_successors(node).unwrap();
    let delta = ccam.stats().snapshot().since(&before);
    println!(
        "Get-successors({node}): {} records, {} extra page accesses",
        succs.len(),
        delta.physical_reads
    );

    // Updates keep the clustering healthy via reorganization policies.
    let deleted = ccam.delete_node(node).unwrap().expect("present");
    ccam.insert_node(&deleted.data, &deleted.incoming).unwrap();
    println!(
        "after delete+insert round-trip: CRR = {:.3}",
        ccam.crr().unwrap()
    );

    // Compare against a BFS-ordered file — same operations, same pages,
    // much worse clustering.
    let bfs = TopoAm::create(
        &net,
        1024,
        TraversalOrder::BreadthFirst,
        None,
        &HashMap::new(),
        RecordCodec::Compact,
    )
    .unwrap();
    println!(
        "BFS-AM on the same network: CRR = {:.3}  (CCAM = {:.3})",
        bfs.crr().unwrap(),
        ccam.crr().unwrap()
    );
}
