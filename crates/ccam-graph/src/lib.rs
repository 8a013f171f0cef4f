#![warn(missing_docs)]

//! Network model and workloads for the CCAM reproduction.
//!
//! * [`network`] — the adjacency-list network model of the paper §1.2:
//!   nodes with coordinates, application payload, a successor-list
//!   (outgoing edges with costs) and a predecessor-list (incoming edge
//!   sources, used to patch successor lists during `Insert()`/`Delete()`),
//! * [`record`] — the variable-length binary codecs that turn a node into
//!   the record stored on a data page (the paper's, and a compact one),
//! * [`generators`] — synthetic networks (grids, random, paths, stars)
//!   for tests and benches,
//! * [`roadmap`] — the Minneapolis-like road network used by every
//!   experiment (the substitution for the paper's 1079-node / 3057-edge
//!   Minneapolis road map; see DESIGN.md §4),
//! * [`walks`] — random-walk route generation and the derived edge
//!   weights for the WCRR experiments (paper §4.3).

pub mod generators;
pub mod io;
pub mod network;
pub mod record;
pub mod roadmap;
pub mod walks;

pub use io::{load_network, save_network};
pub use network::{EdgeTo, Network, NodeData, NodeId};
pub use record::{RecordCodec, RecordRef};
pub use roadmap::minneapolis_like;
pub use walks::{commuter_routes, edge_weights_from_routes, random_walk_routes, Route};
