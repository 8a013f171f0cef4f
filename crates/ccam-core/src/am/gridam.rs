//! The Grid-File access method — spatial-proximity clustering.
//!
//! "Although the Grid file is a proximity-based algorithm, it takes
//! advantage of the correlation between connectivity and spatial
//! proximity" (paper §4.1). Nodes are placed in grid-file buckets by
//! their coordinates; each bucket is one data page. Bucket overflow
//! splits propagate to the pages: the records the grid file moves to a
//! new bucket move to a new page (with their index entries updated).

use std::collections::HashMap;

use ccam_graph::{Network, NodeData, NodeId, RecordCodec};
use ccam_index::gridfile::{BucketId, GridFile};
use ccam_storage::{MemPageStore, PageId, PageStore, StorageResult};

use crate::am::common::{
    patch_neighbors_on_delete, patch_neighbors_on_insert, write_back, DeletedNode,
};
use crate::am::AccessMethod;
use crate::file::NetworkFile;

/// The Grid-File access method.
pub struct GridAm<S: PageStore = MemPageStore> {
    file: NetworkFile<S>,
    grid: GridFile<u64>,
    page_of_bucket: HashMap<BucketId, PageId>,
}

impl GridAm<MemPageStore> {
    /// `Create()`: bulk-inserts every node into a grid file whose bucket
    /// capacity equals the page byte budget, then materialises each
    /// bucket as one data page. Records are stored in `codec`.
    pub fn create(net: &Network, page_size: usize, codec: RecordCodec) -> StorageResult<GridAm> {
        let mut file = NetworkFile::create(MemPageStore::new(page_size)?, codec)?;
        let mut grid: GridFile<u64> = GridFile::new(file.clustering_budget());
        for node in net.nodes() {
            grid.insert(node.x, node.y, file.clustering_weight(node), node.id.0);
        }
        // Materialise buckets as pages.
        let mut page_of_bucket = HashMap::new();
        let mut groups: Vec<(BucketId, Vec<&NodeData>)> = Vec::new();
        for (bucket, entries) in grid.buckets() {
            let members: Vec<&NodeData> = entries
                .iter()
                .map(|e| net.node(NodeId(e.value)).expect("grid holds network nodes"))
                .collect();
            groups.push((bucket, members));
        }
        for (bucket, members) in groups {
            let pages = file.bulk_load(vec![members])?;
            page_of_bucket.insert(bucket, pages[0]);
        }
        Ok(GridAm {
            file,
            grid,
            page_of_bucket,
        })
    }
}

impl<S: PageStore> GridAm<S> {
    /// The data page materialising `bucket` (present for every live
    /// bucket).
    fn page_for(&mut self, bucket: BucketId) -> StorageResult<PageId> {
        if let Some(&p) = self.page_of_bucket.get(&bucket) {
            return Ok(p);
        }
        let p = self.file.allocate_page()?;
        self.page_of_bucket.insert(bucket, p);
        Ok(p)
    }

    /// Replays grid-file split events onto the data pages: every moved
    /// record is relocated from the old bucket's page to the new
    /// bucket's page.
    fn apply_splits(
        &mut self,
        events: Vec<ccam_index::gridfile::SplitEvent<u64>>,
    ) -> StorageResult<()> {
        for ev in events {
            let from_page = self.page_for(ev.from)?;
            let to_page = self.page_for(ev.to)?;
            for raw in ev.moved {
                let id = NodeId(raw);
                if let Some(rec) = self.file.remove_from(from_page, id)? {
                    let ok = self.file.insert_into(to_page, &rec)?;
                    debug_assert!(ok, "split target page must fit its bucket");
                }
            }
        }
        Ok(())
    }
}

impl<S: PageStore> AccessMethod<S> for GridAm<S> {
    fn name(&self) -> &str {
        "Grid File"
    }

    fn file(&self) -> &NetworkFile<S> {
        &self.file
    }

    fn file_mut(&mut self) -> &mut NetworkFile<S> {
        &mut self.file
    }

    /// Placement is purely spatial: the grid file picks the bucket for
    /// `(x, y)`; neighbor pages are touched only to patch their lists.
    fn insert_node_impl(
        &mut self,
        node: &NodeData,
        incoming: &[(NodeId, u32)],
    ) -> StorageResult<()> {
        let (bucket, events) =
            self.grid
                .insert(node.x, node.y, self.file.clustering_weight(node), node.id.0);
        self.apply_splits(events)?;
        let page = self.page_for(bucket)?;
        if !self.file.insert_into(page, node)? {
            // Unsplittable bucket (coordinate collisions): spill to a
            // fresh page; the index still finds the record.
            let fresh = self.file.allocate_page()?;
            let ok = self.file.insert_into(fresh, node)?;
            debug_assert!(ok);
        }
        patch_neighbors_on_insert(&mut self.file, node, incoming)
    }

    fn delete_node_impl(&mut self, id: NodeId) -> StorageResult<Option<DeletedNode>> {
        let Some((page, data)) = self.file.find(id)? else {
            return Ok(None);
        };
        self.grid.remove(data.x, data.y, id.0);
        let incoming = patch_neighbors_on_delete(&mut self.file, &data)?;
        self.file.remove_from(page, id)?;
        // Merging pages would desynchronise the bucket ↔ page mapping;
        // like the grid file itself (and the paper's §4.2 measurement
        // protocol) underflow is tolerated — deliberately no
        // `merge_on_underflow` here.
        Ok(Some(DeletedNode { data, incoming }))
    }

    fn insert_edge_impl(&mut self, from: NodeId, to: NodeId, cost: u32) -> StorageResult<bool> {
        let Some((pf, mut f_rec)) = self.file.find(from)? else {
            return Ok(false);
        };
        let Some((pt, mut t_rec)) = self.file.find(to)? else {
            return Ok(false);
        };
        if f_rec.successors.iter().any(|e| e.to == to) {
            return Ok(false);
        }
        f_rec.successors.push(ccam_graph::EdgeTo { to, cost });
        write_back(&mut self.file, pf, &f_rec)?;
        t_rec.predecessors.push(from);
        write_back(&mut self.file, pt, &t_rec)?;
        Ok(true)
    }

    fn delete_edge_impl(&mut self, from: NodeId, to: NodeId) -> StorageResult<Option<u32>> {
        let Some((pf, mut f_rec)) = self.file.find(from)? else {
            return Ok(None);
        };
        let Some(pos) = f_rec.successors.iter().position(|e| e.to == to) else {
            return Ok(None);
        };
        let cost = f_rec.successors[pos].cost;
        f_rec.successors.remove(pos);
        write_back(&mut self.file, pf, &f_rec)?;
        if let Some((pt, mut t_rec)) = self.file.find(to)? {
            t_rec.predecessors.retain(|&p| p != from);
            write_back(&mut self.file, pt, &t_rec)?;
        }
        Ok(Some(cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccam_graph::generators::grid_network;

    #[test]
    fn create_stores_every_node() {
        let net = grid_network(8, 8, 1.0);
        let am = GridAm::create(&net, 512, RecordCodec::Paper).unwrap();
        assert_eq!(am.file().len(), 64);
        for id in net.node_ids() {
            assert_eq!(am.find(id).unwrap().unwrap(), *net.node(id).unwrap());
        }
    }

    #[test]
    fn proximity_clustering_gives_positive_crr_on_road_grids() {
        let net = grid_network(10, 10, 1.0);
        let am = GridAm::create(&net, 1024, RecordCodec::Paper).unwrap();
        let crr = am.crr().unwrap();
        assert!(
            crr > 0.3,
            "grid clustering exploits spatial correlation: {crr:.3}"
        );
    }

    #[test]
    fn buckets_map_to_distinct_pages() {
        let net = grid_network(9, 9, 1.0);
        let am = GridAm::create(&net, 512, RecordCodec::Paper).unwrap();
        let mut pages: Vec<PageId> = am.page_of_bucket.values().copied().collect();
        pages.sort_unstable();
        let before = pages.len();
        pages.dedup();
        assert_eq!(pages.len(), before, "bucket→page mapping must be 1:1");
        assert_eq!(am.grid.num_buckets(), am.page_of_bucket.len());
    }

    #[test]
    fn insert_splits_propagate_to_pages() {
        let net = grid_network(4, 4, 1.0);
        let mut am = GridAm::create(&net, 512, RecordCodec::Paper).unwrap();
        // Insert a burst of new nodes in one spatial corner to force
        // bucket splits.
        for i in 0..12u64 {
            let node = NodeData {
                id: NodeId(u64::MAX - i),
                x: 2 + (i as u32 % 3),
                y: 100 + i as u32,
                payload: vec![0; 60],
                successors: vec![],
                predecessors: vec![],
            };
            am.insert_node(&node, &[]).unwrap();
        }
        for i in 0..12u64 {
            assert!(am.find(NodeId(u64::MAX - i)).unwrap().is_some(), "{i}");
        }
        // Original nodes still intact after splits moved records around.
        for id in net.node_ids() {
            assert!(am.find(id).unwrap().is_some());
        }
    }

    #[test]
    fn coordinate_collisions_spill_without_losing_records() {
        // Many nodes at one point: the grid bucket cannot split, so the
        // page spills — every record must stay findable regardless.
        let mut net = ccam_graph::Network::new();
        for i in 0..30u64 {
            net.add_node(NodeId(i), 5, 5, vec![0u8; 40]);
        }
        let mut am = GridAm::create(&ccam_graph::Network::new(), 512, RecordCodec::Paper).unwrap();
        for node in net.nodes() {
            am.insert_node(node, &[]).unwrap();
        }
        for i in 0..30u64 {
            assert!(am.find(NodeId(i)).unwrap().is_some(), "node {i} lost");
        }
        assert!(am.file().num_pages() >= 3, "spill pages must exist");
    }

    #[test]
    fn delete_and_reinsert() {
        let net = grid_network(5, 5, 1.0);
        let mut am = GridAm::create(&net, 512, RecordCodec::Paper).unwrap();
        let victim = net.node_ids()[10];
        let del = am.delete_node(victim).unwrap().unwrap();
        assert!(am.find(victim).unwrap().is_none());
        am.insert_node(&del.data, &del.incoming).unwrap();
        assert_eq!(am.find(victim).unwrap().unwrap(), del.data);
        // Grid point query agrees with the file.
        let hits = am.grid.point_query(del.data.x, del.data.y);
        assert!(hits.iter().any(|e| e.value == victim.0));
    }
}
