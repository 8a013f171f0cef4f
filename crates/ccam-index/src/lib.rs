#![warn(missing_docs)]

//! Index substrate for the CCAM reproduction.
//!
//! * [`zorder`] — Morton (Z-order) encoding of 2-D coordinates. The paper
//!   orders CCAM's secondary index by "a B⁺ tree with Z-ordering of the
//!   x, y coordinates" (§2.1); the road-map generator assigns node ids in
//!   Z-order so the id order *is* the spatial order, as in the paper.
//! * [`btree`] — a disk-page B⁺-tree mapping `u64` keys to `u64` values,
//!   used as CCAM's secondary index (node-id → data-page address).
//! * [`gridfile`] — the Grid File of Nievergelt et al. \[21\], both a
//!   spatial index and the clustering engine behind the Grid-File access
//!   method the paper compares against.

pub mod btree;
pub mod gridfile;
pub mod zorder;

pub use btree::BPlusTree;
pub use gridfile::{BucketId, GridFile};
pub use zorder::{z_decode, z_encode};
