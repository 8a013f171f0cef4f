//! Table 5 — "I/O cost for Network Operations".
//!
//! Average data-page accesses per operation on the benchmark road map at
//! block size 1 KiB, measured on a random 50% of the nodes (paper §4.2),
//! with the cost-model predictions of Tables 3/4 alongside.
//!
//! Conventions taken from the paper:
//! * search operations assume the page of the source node is already
//!   buffered (the harness primes the buffer with an unmeasured `Find`),
//! * update costs count reads + writes, with writes ≈ reads (§3.2),
//! * page under/overflows are side-stepped (first-order policy, each
//!   deleted node is immediately re-inserted) "to filter out the effect
//!   of reorganization policies".
//!
//! `--codec compact` reruns it on the compact record (EXPERIMENTS.md).

use ccam_bench::{
    benchmark_network, codec_arg, measure_io, render_table, sample_nodes, EXPERIMENT_SEED,
};
use ccam_core::am::{AccessMethod, CcamBuilder, GridAm, TopoAm, TraversalOrder};
use ccam_core::costmodel::CostParams;
use ccam_core::reorg::ReorgPolicy;
use ccam_graph::RecordCodec;
use std::collections::HashMap;

fn main() {
    let codec = codec_arg("table5_operation_costs");
    let net = benchmark_network();
    let block = 1024;
    println!("Table 5: I/O cost for network operations  (block = {block} B, 50% node sample)\n");
    if codec != RecordCodec::Paper {
        println!(
            "record codec: {} (extension; the paper's record is the default)\n",
            codec.name()
        );
    }

    let w = HashMap::new();
    // First-order policy: reorganization filtered out, as in the paper.
    let methods: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(
            CcamBuilder::new(block)
                .codec(codec)
                .policy(ReorgPolicy::FirstOrder)
                .build_static(&net)
                .expect("CCAM"),
        ),
        Box::new(
            TopoAm::create(&net, block, TraversalOrder::DepthFirst, None, &w, codec).expect("DFS"),
        ),
        Box::new(GridAm::create(&net, block, codec).expect("Grid")),
        Box::new(
            TopoAm::create(&net, block, TraversalOrder::BreadthFirst, None, &w, codec)
                .expect("BFS"),
        ),
    ];

    let sample = sample_nodes(&net, 0.5, EXPERIMENT_SEED + 1);
    let header: Vec<String> = [
        "method",
        "GetSuccs",
        "(pred)",
        "GetASucc",
        "(pred)",
        "Delete",
        "(pred)",
        "Insert",
        "alpha=CRR",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut params_line = String::new();

    for mut am in methods {
        let params = CostParams::measure(am.file()).expect("measure");
        // -- Get-successors / Get-A-successor: prime with Find, measure the op.
        let (mut gs_total, mut gs_n) = (0u64, 0u64);
        let (mut ga_total, mut ga_n) = (0u64, 0u64);
        for &x in &sample {
            let rec = am.find(x).expect("io").expect("sampled node exists");
            if rec.successors.is_empty() {
                continue;
            }
            // Get-successors, cold except for x's own page.
            am.file().pool().clear().expect("clear");
            am.find(x).expect("prime");
            let before = am.stats().snapshot();
            am.get_successors(x).expect("get_successors");
            gs_total += am.stats().snapshot().since(&before).physical_reads;
            gs_n += 1;
            // Get-A-successor of the first successor, same priming.
            am.file().pool().clear().expect("clear");
            am.find(x).expect("prime");
            let before = am.stats().snapshot();
            am.get_a_successor(x, rec.successors[0].to)
                .expect("get_a_successor");
            ga_total += am.stats().snapshot().since(&before).physical_reads;
            ga_n += 1;
        }

        // -- Delete (measured) then Insert back (measured): both columns
        // from one sweep, file restored after each pair.
        let (mut del_total, mut ins_total, mut upd_n) = (0u64, 0u64, 0u64);
        for &x in &sample {
            let (deleted, del_io) =
                measure_io(am.as_mut(), |am| am.delete_node(x).expect("delete"));
            let Some(deleted) = deleted else { continue };
            let (_, ins_io) = measure_io(am.as_mut(), |am| {
                am.insert_node(&deleted.data, &deleted.incoming)
                    .expect("insert")
            });
            del_total += del_io;
            ins_total += ins_io;
            upd_n += 1;
        }

        let gs = gs_total as f64 / gs_n as f64;
        let ga = ga_total as f64 / ga_n as f64;
        let del = del_total as f64 / upd_n as f64;
        let ins = ins_total as f64 / upd_n as f64;
        rows.push(vec![
            am.name().to_string(),
            format!("{gs:.3}"),
            format!("{:.3}", params.get_successors_cost()),
            format!("{ga:.3}"),
            format!("{:.3}", params.get_a_successor_cost()),
            format!("{del:.3}"),
            format!("{:.3}", params.delete_cost_rw(ReorgPolicy::FirstOrder)),
            format!("{ins:.3}"),
            format!("{:.4}", params.alpha),
        ]);
        if am.name() == "CCAM-S" {
            params_line = format!(
                "|A| = {:.3}   lambda = {:.2}   gamma = {:.2}",
                params.avg_successors, params.avg_neighbors, params.blocking_factor
            );
        }
    }
    println!("{}", render_table(&header, &rows));
    println!("{params_line}");
    println!(
        "\nshape expectation (paper): CCAM lowest on GetSuccs/GetASucc/Delete; Grid File lowest on Insert."
    );
}
