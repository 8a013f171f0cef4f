//! Cost-model validation — predicted vs. observed page accesses per
//! operation class, for every access method on the benchmark road map.
//!
//! Where `table5_operation_costs` reproduces the paper's Table 5 layout,
//! this binary drives the reusable [`ccam_core::validate`] harness: each
//! method runs the same deterministic workload (find / get-a-successor /
//! get-successors / route / delete + re-insert) under the buffering
//! assumptions of §3.2, and the per-class relative error of the
//! algebraic model is reported. Large errors flag either a regression in
//! the I/O accounting or a placement drift — the numbers, not the
//! prose, are the spec.

use std::collections::HashMap;

use ccam_bench::{benchmark_network, render_table};
use ccam_core::am::{AccessMethod, CcamBuilder, GridAm, TopoAm, TraversalOrder};
use ccam_core::reorg::ReorgPolicy;
use ccam_core::validate::{validate, ValidationConfig};
use ccam_graph::RecordCodec;

fn main() {
    let net = benchmark_network();
    let block = 1024;
    println!("Cost-model validation  (block = {block} B)\n");

    let w = HashMap::new();
    let methods: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(
            CcamBuilder::new(block)
                .codec(RecordCodec::Paper)
                .policy(ReorgPolicy::FirstOrder)
                .build_static(&net)
                .expect("CCAM"),
        ),
        Box::new(
            TopoAm::create(
                &net,
                block,
                TraversalOrder::DepthFirst,
                None,
                &w,
                RecordCodec::Paper,
            )
            .expect("DFS"),
        ),
        Box::new(GridAm::create(&net, block, RecordCodec::Paper).expect("Grid")),
        Box::new(
            TopoAm::create(
                &net,
                block,
                TraversalOrder::BreadthFirst,
                None,
                &w,
                RecordCodec::Paper,
            )
            .expect("BFS"),
        ),
    ];

    let cfg = ValidationConfig {
        sample: 128,
        routes: 32,
        route_len: 20,
        policy: ReorgPolicy::FirstOrder,
        ..ValidationConfig::default()
    };

    let header: Vec<String> = [
        "method",
        "class",
        "trials",
        "predicted",
        "observed",
        "rel.err",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for mut am in methods {
        let name = am.name().to_string();
        let report = validate(am.as_mut(), &cfg).expect("validate");
        for c in &report.classes {
            rows.push(vec![
                name.clone(),
                c.class.clone(),
                c.trials.to_string(),
                format!("{:.3}", c.predicted),
                format!("{:.3}", c.observed),
                format!("{:.1}%", c.rel_error() * 100.0),
            ]);
        }
        rows.push(vec![
            name,
            "(mean/max)".into(),
            String::new(),
            String::new(),
            String::new(),
            format!(
                "{:.1}% / {:.1}%",
                report.mean_rel_error() * 100.0,
                report.max_rel_error() * 100.0
            ),
        ]);
    }
    println!("{}", render_table(&header, &rows));
}
