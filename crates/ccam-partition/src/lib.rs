#![warn(missing_docs)]

//! Graph-partitioning substrate for the CCAM reproduction.
//!
//! CCAM "clusters the nodes of the network via graph partitioning, using
//! the ratio-cut heuristic" (paper §2). This crate implements that
//! machinery from scratch:
//!
//! * [`graph`] — the weighted, node-sized partitioning graph,
//! * [`kl`] — Kernighan–Lin pairwise-swap refinement \[15\],
//! * [`fm`] — Fiduccia–Mattheyses single-move refinement with gain
//!   buckets \[8\],
//! * [`ratiocut`] — an adaptation of Cheng & Wei's two-way ratio-cut
//!   heuristic \[5\], the partitioner the paper uses,
//! * [`recursive`] — the paper's `cluster-nodes-into-pages()` procedure
//!   (Figure 2): recursive two-way splitting until every subset fits a
//!   page, each at least half full whenever possible,
//! * [`coarsen`] — the multilevel coarsen→partition→refine V-cycle
//!   ([`PartitionStrategy::Multilevel`]) that makes clustering scale to
//!   million-node networks,
//! * [`metrics`] — cut weight, ratio-cut objective and residue ratios.
//!
//! Edge weights are integers (`u64`): in CCAM they are access
//! frequencies — either 1 (uniform CRR experiments) or counts derived
//! from a route workload (WCRR experiments).

pub mod coarsen;
pub mod fm;
pub mod graph;
pub mod kl;
pub mod metrics;
pub mod ratiocut;
pub mod recursive;

pub use coarsen::MultilevelOpts;
pub use graph::{InducedScratch, PartGraph};
pub use metrics::{cut_weight, ratio_cut_cost, residue_ratio};
pub use recursive::{
    cluster_nodes_into_pages, cluster_nodes_into_pages_with, ClusterOptions, PartitionStrategy,
    Partitioner,
};
