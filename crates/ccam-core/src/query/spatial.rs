//! Spatial queries over a network file.
//!
//! The paper's §2.1: CCAM's secondary index is a B⁺-tree over the
//! Z-order of the node coordinates, which "can support point and range
//! queries on spatial databases". Node ids are those Z-order codes
//! (§2.2's convention, which every generator follows), so the node-id
//! B⁺-tree *is* the spatial index: a window query becomes a scan of the
//! covering id range. The paper's alternatives (R-tree, Grid File as a
//! secondary index) are not kept.
//!
//! Retrieving the matching records costs counted data-page accesses like
//! every other query, so the experiments can compare clustering quality
//! for spatial workloads too.

use ccam_graph::{NodeData, NodeId};
use ccam_index::zorder::{z_decode, z_encode};
use ccam_storage::{PageStore, StorageResult};

use crate::file::NetworkFile;

/// The Z-order spatial index over the nodes of a data file. Exact only
/// when every node id is the Morton code of its coordinates
/// (`ccam_graph::generators::zorder_id`).
pub struct SpatialIndex;

impl SpatialIndex {
    /// The Z-order-id index (no construction needed; the node-id B⁺-tree
    /// *is* the spatial index, and it tracks every update).
    pub fn zorder() -> SpatialIndex {
        SpatialIndex
    }

    /// Node ids inside the window `[x0, x1] × [y0, y1]` (index-only; no
    /// data-page I/O), in Z-order.
    pub fn window_ids<S: PageStore>(
        &self,
        file: &NetworkFile<S>,
        x0: u32,
        y0: u32,
        x1: u32,
        y1: u32,
    ) -> StorageResult<Vec<NodeId>> {
        // Scan the covering Z-range on the id index and filter by
        // decoded coordinates. The covering range [z(x0,y0), z(x1,y1)]
        // is correct for Morton codes (both coordinates monotone) but
        // loose; the filter restores exactness.
        let lo = z_encode(x0, y0);
        let hi = z_encode(x1, y1);
        let mut out = Vec::new();
        for (id, _) in file.index_range(lo, hi)? {
            let (x, y) = z_decode(id);
            if x >= x0 && x <= x1 && y >= y0 && y <= y1 {
                out.push(NodeId(id));
            }
        }
        Ok(out)
    }

    /// Full records inside the window; fetching their pages is counted
    /// data-page I/O.
    pub fn window_records<S: PageStore>(
        &self,
        file: &NetworkFile<S>,
        x0: u32,
        y0: u32,
        x1: u32,
        y1: u32,
    ) -> StorageResult<Vec<NodeData>> {
        let ids = self.window_ids(file, x0, y0, x1, y1)?;
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            // The page of the previous member first — window members
            // cluster spatially, and on CCAM also by connectivity.
            if let Some((_, r)) = file.find_buffered_first(id)? {
                out.push(r);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::am::{AccessMethod, CcamBuilder};
    use ccam_graph::generators::grid_network;

    fn window_brute(net: &ccam_graph::Network, x0: u32, y0: u32, x1: u32, y1: u32) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = net
            .nodes()
            .filter(|n| n.x >= x0 && n.x <= x1 && n.y >= y0 && n.y <= y1)
            .map(|n| n.id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn zorder_window_matches_brute_force() {
        let net = grid_network(15, 15, 1.0);
        let am = CcamBuilder::new(1024).build_static(&net).unwrap();
        let idx = SpatialIndex::zorder();
        for (x0, y0, x1, y1) in [(0, 0, 14, 14), (3, 4, 7, 9), (5, 5, 5, 5)] {
            let got = idx.window_ids(am.file(), x0, y0, x1, y1).unwrap();
            // Already in Z-order, which is id order.
            assert_eq!(
                got,
                window_brute(&net, x0, y0, x1, y1),
                "{x0},{y0},{x1},{y1}"
            );
        }
    }

    /// The windows the removed R-tree index was checked on — a corner
    /// point and a window wholly past the grid's edge among them — now
    /// answered by the Z-order index, which must agree with brute force
    /// on every one.
    #[test]
    fn rtree_window_matches_brute_force() {
        let net = grid_network(15, 15, 1.0);
        let am = CcamBuilder::new(1024).build_static(&net).unwrap();
        let idx = SpatialIndex::zorder();
        for (x0, y0, x1, y1) in [
            (0, 0, 14, 14),
            (3, 4, 7, 9),
            (10, 10, 10, 10),
            (20, 20, 30, 30),
        ] {
            let got = idx.window_ids(am.file(), x0, y0, x1, y1).unwrap();
            assert_eq!(
                got,
                window_brute(&net, x0, y0, x1, y1),
                "{x0},{y0},{x1},{y1}"
            );
        }
    }

    #[test]
    fn window_records_fetch_full_records() {
        let net = grid_network(10, 10, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let recs = SpatialIndex::zorder()
            .window_records(am.file(), 2, 2, 5, 5)
            .unwrap();
        assert_eq!(recs.len(), 16);
        for r in &recs {
            assert_eq!(net.node(r.id).unwrap(), r);
        }
    }

    #[test]
    fn index_tracks_updates() {
        let net = grid_network(8, 8, 1.0);
        let mut am = CcamBuilder::new(512).build_static(&net).unwrap();
        let idx = SpatialIndex::zorder();
        let victim = net.node_ids()[20];
        let v = am.find(victim).unwrap().unwrap();
        let del = am.delete_node(victim).unwrap().unwrap();
        let ids = idx.window_ids(am.file(), v.x, v.y, v.x, v.y).unwrap();
        assert!(!ids.contains(&victim));
        am.insert_node(&del.data, &del.incoming).unwrap();
        let ids = idx.window_ids(am.file(), v.x, v.y, v.x, v.y).unwrap();
        assert_eq!(ids, vec![victim]);
    }
}
