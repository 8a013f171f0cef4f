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
use ccam_storage::{PageId, PageStore, StorageResult};

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
        Ok(window_entries(file, x0, y0, x1, y1)?
            .map(|(id, _)| id)
            .collect())
    }

    /// Full records inside the window; fetching their pages is counted
    /// data-page I/O. The index is descended once, by the range scan of
    /// [`Self::window_ids`]: each member is read from the page that scan
    /// named.
    pub fn window_records<S: PageStore>(
        &self,
        file: &NetworkFile<S>,
        x0: u32,
        y0: u32,
        x1: u32,
        y1: u32,
    ) -> StorageResult<Vec<NodeData>> {
        let mut out = Vec::new();
        for (id, page) in window_entries(file, x0, y0, x1, y1)? {
            // The page of the previous member first — window members
            // cluster spatially, and on CCAM also by connectivity.
            if let Some(r) = file.with_record_on(page, id, |rec| rec.to_owned())? {
                out.push(r);
            }
        }
        Ok(out)
    }
}

/// The members of the window `[x0, x1] × [y0, y1]` with the pages the
/// index names for them, in Z-order: one scan of the covering Z-range,
/// filtered by decoded coordinates. The covering range `[z(x0,y0),
/// z(x1,y1)]` is correct for Morton codes (both coordinates monotone)
/// but loose; the filter restores exactness.
fn window_entries<S: PageStore>(
    file: &NetworkFile<S>,
    x0: u32,
    y0: u32,
    x1: u32,
    y1: u32,
) -> StorageResult<impl Iterator<Item = (NodeId, PageId)>> {
    let entries = file.index_range(z_encode(x0, y0), z_encode(x1, y1))?;
    Ok(entries.into_iter().filter_map(move |(id, page)| {
        let (x, y) = z_decode(id);
        (x >= x0 && x <= x1 && y >= y0 && y <= y1).then_some((NodeId(id), PageId(page as u32)))
    }))
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

    /// The range scan that names a window's members also names their
    /// pages, so fetching the records costs the index nothing more.
    #[test]
    fn window_records_descend_the_index_once() {
        let net = grid_network(10, 10, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let file = am.file();
        let idx = SpatialIndex::zorder();
        let window = (1, 1, 8, 8);
        let ids = idx
            .window_ids(file, window.0, window.1, window.2, window.3)
            .unwrap();
        let pages: std::collections::BTreeSet<_> = ids
            .iter()
            .map(|&id| file.page_of(id).unwrap().unwrap())
            .collect();
        assert!(pages.len() >= 2, "members on {} page(s)", pages.len());
        let index_accesses = |run: &dyn Fn()| {
            let before = file.index_stats().snapshot();
            run();
            let d = file.index_stats().snapshot().since(&before);
            d.buffer_hits + d.physical_reads
        };
        let for_ids = index_accesses(&|| {
            idx.window_ids(file, window.0, window.1, window.2, window.3)
                .unwrap();
        });
        let for_records = index_accesses(&|| {
            let recs = idx
                .window_records(file, window.0, window.1, window.2, window.3)
                .unwrap();
            assert_eq!(recs.len(), ids.len());
        });
        assert!(for_ids > 0);
        assert_eq!(for_records, for_ids);
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
