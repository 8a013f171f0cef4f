//! Ablation — partitioning heuristic choice.
//!
//! The paper builds CCAM on Cheng & Wei's ratio cut but notes that
//! "other graph partitioning methods can also be used as the basis of
//! our scheme" (§2). This ablation builds CCAM-S on the benchmark road
//! map with each heuristic and reports CRR, page count, blocking factor
//! and build time.

use std::time::Instant;

use ccam_bench::{benchmark_network, render_table};
use ccam_core::am::{AccessMethod, CcamBuilder};
use ccam_graph::RecordCodec;
use ccam_partition::Partitioner;

fn main() {
    let net = benchmark_network();
    let block = 1024;
    println!(
        "Ablation: partitioner choice for CCAM-S  (block = {block} B, {} nodes)\n",
        net.len()
    );

    let configs: Vec<(&str, CcamBuilder)> = vec![
        (
            "ratio-cut (paper)",
            CcamBuilder::new(block)
                .codec(RecordCodec::Paper)
                .partitioner(Partitioner::RatioCut),
        ),
        (
            "fiduccia-mattheyses",
            CcamBuilder::new(block)
                .codec(RecordCodec::Paper)
                .partitioner(Partitioner::FiducciaMattheyses),
        ),
        (
            "kernighan-lin",
            CcamBuilder::new(block)
                .codec(RecordCodec::Paper)
                .partitioner(Partitioner::KernighanLin),
        ),
    ];

    let header: Vec<String> = ["partitioner", "CRR", "pages", "gamma", "build"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    let mut crrs = Vec::new();
    for (name, builder) in configs {
        let t0 = Instant::now();
        let am = builder.build_static(&net).expect("create");
        let dt = t0.elapsed();
        let crr = am.crr().expect("crr");
        crrs.push((name, crr));
        rows.push(vec![
            name.to_string(),
            format!("{crr:.4}"),
            format!("{}", am.file().num_pages()),
            format!("{:.2}", am.file().blocking_factor()),
            format!("{:.0?}", dt),
        ]);
    }
    println!("{}", render_table(&header, &rows));

    let base = crrs
        .iter()
        .find(|(n, _)| n.starts_with("ratio-cut ("))
        .expect("base")
        .1;
    println!("shape checks:");
    println!(
        "  [{}] every heuristic lands within 15% of ratio-cut CRR",
        if crrs.iter().all(|(_, c)| *c > base * 0.85) {
            "ok"
        } else {
            "MISS"
        }
    );
}
