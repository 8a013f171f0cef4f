#![warn(missing_docs)]

//! # CCAM — Connectivity-Clustered Access Method
//!
//! A production-quality Rust reproduction of
//! *Shekhar & Liu, "CCAM: A Connectivity-Clustered Access Method for
//! Aggregate Queries on Transportation Networks", ICDE 1995*.
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`storage`] — slotted pages, page stores, buffer manager, I/O stats,
//! * [`index`] — Z-order encoding, disk B⁺-tree, Grid File,
//! * [`partition`] — KL / FM / ratio-cut partitioning and the paper's
//!   `cluster-nodes-into-pages()` procedure,
//! * [`graph`] — the network model, record codec, generators and
//!   random-walk route workloads,
//! * [`core`] — the access methods (CCAM, DFS-AM, BFS-AM, WDFS-AM,
//!   Grid-File AM), reorganization policies, cost model and aggregate
//!   queries,
//! * [`server`] — the TCP serving layer: batched binary protocol,
//!   each batch run on its connection's reader under one of N execution
//!   slots, over one shared access method, blocking client.
//!
//! ## Quickstart
//!
//! ```
//! use ccam::core::am::{AccessMethod, CcamBuilder};
//! use ccam::graph::generators::grid_network;
//!
//! // A small road-like network and a CCAM file over 512-byte pages.
//! let net = grid_network(8, 8, 1.0);
//! let mut am = CcamBuilder::new(512).build_static(&net).unwrap();
//!
//! // Retrieve a node and all of its successors.
//! let node = net.node_ids()[0];
//! let rec = am.find(node).unwrap().unwrap();
//! let succs = am.get_successors(node).unwrap();
//! assert_eq!(succs.len(), rec.successors.len());
//!
//! // Connectivity clustering keeps most edges within a page.
//! assert!(am.crr().unwrap() > 0.3);
//! ```

pub use ccam_core as core;
pub use ccam_graph as graph;
pub use ccam_index as index;
pub use ccam_partition as partition;
pub use ccam_server as server;
pub use ccam_storage as storage;
