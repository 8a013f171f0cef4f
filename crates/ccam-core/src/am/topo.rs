//! DFS-AM, BFS-AM and WDFS-AM — topological-ordering files generalised
//! to graphs (paper §4, building on Larson & Deshpande \[18\] and
//! Banerjee et al. \[3\]).
//!
//! "DFS-AM orders the nodes by a depth-first traversal and BFS-AM orders
//! the nodes by a breadth-first traversal from a random starting node.
//! ... WDFS-AM ... performs a depth first search according to the order
//! of the weights on the edges." Records are packed into pages in
//! traversal order; a page closes when the next record no longer fits.
//!
//! Maintenance uses the shared first-order plumbing (neighbor-ranked
//! placement, overflow split, underflow merge) — the paper measures all
//! methods under the same update workload and reorganization handling
//! (§4.2).

use std::collections::{HashMap, VecDeque};

use ccam_graph::{Network, NodeData, NodeId, RecordCodec};
use ccam_partition::Partitioner;
use ccam_storage::{MemPageStore, PageStore, StorageResult};

use crate::am::common::{
    insert_with_overflow_split, merge_on_underflow, patch_neighbors_on_delete,
    patch_neighbors_on_insert, select_page_by_neighbors, write_back, DeletedNode,
};
use crate::am::{common, AccessMethod};
use crate::file::NetworkFile;

/// The node ordering a [`TopoAm`] file is packed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraversalOrder {
    /// Depth-first (DFS-AM).
    DepthFirst,
    /// Breadth-first (BFS-AM).
    BreadthFirst,
    /// Depth-first visiting heavier edges first (WDFS-AM).
    WeightedDepthFirst,
}

impl TraversalOrder {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            TraversalOrder::DepthFirst => "DFS-AM",
            TraversalOrder::BreadthFirst => "BFS-AM",
            TraversalOrder::WeightedDepthFirst => "WDFS-AM",
        }
    }
}

/// A topological-ordering access method.
pub struct TopoAm<S: PageStore = MemPageStore> {
    file: NetworkFile<S>,
    order: TraversalOrder,
}

impl TopoAm<MemPageStore> {
    /// `Create()`: orders the network by the chosen traversal from
    /// `start` (defaults to the lowest node id — the paper uses a random
    /// start; a fixed one keeps experiments reproducible and seeds can
    /// vary it) and packs records into pages in that order. `weights`
    /// drive WDFS-AM's edge ordering (ignored by DFS/BFS); WDFS falls
    /// back to edge costs where no weight is known. Records are stored
    /// in `codec`.
    pub fn create(
        net: &Network,
        page_size: usize,
        order: TraversalOrder,
        start: Option<NodeId>,
        weights: &HashMap<(NodeId, NodeId), u64>,
        codec: RecordCodec,
    ) -> StorageResult<TopoAm> {
        let mut file = NetworkFile::create(MemPageStore::new(page_size)?, codec)?;
        let sequence = traversal_order(net, order, start, weights);
        debug_assert_eq!(sequence.len(), net.len());

        // Greedy packing in traversal order.
        let mut groups: Vec<Vec<&NodeData>> = Vec::new();
        let mut current: Vec<&NodeData> = Vec::new();
        let mut used = 0usize;
        let budget = file.clustering_budget();
        for id in sequence {
            let node = net.node(id).expect("traversal stays in network");
            let w = file.clustering_weight(node);
            if used + w > budget && !current.is_empty() {
                groups.push(std::mem::take(&mut current));
                used = 0;
            }
            current.push(node);
            used += w;
        }
        if !current.is_empty() {
            groups.push(current);
        }
        file.bulk_load(groups)?;
        Ok(TopoAm { file, order })
    }

    /// The ordering this file was created with.
    pub fn order(&self) -> TraversalOrder {
        self.order
    }
}

/// Computes the node visit order. Traversals walk the *neighbor*
/// relation (successors ∪ predecessors) so one-way streets do not strand
/// the walk; unreachable components restart from the smallest unvisited
/// id.
fn traversal_order(
    net: &Network,
    order: TraversalOrder,
    start: Option<NodeId>,
    weights: &HashMap<(NodeId, NodeId), u64>,
) -> Vec<NodeId> {
    let ids = net.node_ids();
    if ids.is_empty() {
        return Vec::new();
    }
    let start = start.unwrap_or(ids[0]);
    let mut visited: HashMap<NodeId, bool> = ids.iter().map(|&i| (i, false)).collect();
    let mut out = Vec::with_capacity(ids.len());

    // Neighbor expansion, ordered per the traversal flavour.
    let expand = |id: NodeId| -> Vec<NodeId> {
        let node = net.node(id).expect("id from network");
        let mut nbrs = node.neighbors();
        match order {
            TraversalOrder::DepthFirst | TraversalOrder::BreadthFirst => {
                nbrs.sort_unstable(); // deterministic id order
            }
            TraversalOrder::WeightedDepthFirst => {
                // Heaviest edge first; weight of the undirected pair is
                // the max over both directions, falling back to cost.
                let w = |a: NodeId, b: NodeId| -> u64 {
                    let route = weights
                        .get(&(a, b))
                        .or_else(|| weights.get(&(b, a)))
                        .copied();
                    route.unwrap_or_else(|| {
                        net.node(a)
                            .and_then(|n| n.successors.iter().find(|e| e.to == b))
                            .map(|e| e.cost as u64)
                            .unwrap_or(0)
                    })
                };
                nbrs.sort_by_key(|&n| (std::cmp::Reverse(w(id, n)), n));
            }
        }
        nbrs
    };

    let mut roots = vec![start];
    roots.extend(ids.iter().copied().filter(|&i| i != start));
    for root in roots {
        if visited[&root] {
            continue;
        }
        match order {
            TraversalOrder::BreadthFirst => {
                let mut queue = VecDeque::new();
                visited.insert(root, true);
                queue.push_back(root);
                while let Some(v) = queue.pop_front() {
                    out.push(v);
                    for n in expand(v) {
                        if !visited[&n] {
                            visited.insert(n, true);
                            queue.push_back(n);
                        }
                    }
                }
            }
            TraversalOrder::DepthFirst | TraversalOrder::WeightedDepthFirst => {
                // Iterative DFS preserving child order.
                let mut stack = vec![root];
                while let Some(v) = stack.pop() {
                    if visited[&v] {
                        continue;
                    }
                    visited.insert(v, true);
                    out.push(v);
                    let nbrs = expand(v);
                    // Push in reverse so the first neighbor is visited next.
                    for n in nbrs.into_iter().rev() {
                        if !visited[&n] {
                            stack.push(n);
                        }
                    }
                }
            }
        }
    }
    out
}

impl<S: PageStore> AccessMethod<S> for TopoAm<S> {
    fn name(&self) -> &str {
        self.order.name()
    }

    fn file(&self) -> &NetworkFile<S> {
        &self.file
    }

    fn file_mut(&mut self) -> &mut NetworkFile<S> {
        &mut self.file
    }

    fn insert_node_impl(
        &mut self,
        node: &NodeData,
        incoming: &[(NodeId, u32)],
    ) -> StorageResult<()> {
        // Insertion next to the most neighbors approximates "insert at
        // the record's traversal position" without a file rewrite.
        let needed = self.file.record_len(node);
        let page = match select_page_by_neighbors(&self.file, &node.neighbors(), needed)? {
            Some(p) => p,
            None => match common::any_page_with_space(&self.file, needed)? {
                Some(p) => p,
                None => self.file.allocate_page()?,
            },
        };
        insert_with_overflow_split(&mut self.file, page, node, &|_, _| 1, Partitioner::RatioCut)?;
        patch_neighbors_on_insert(&mut self.file, node, incoming)
    }

    fn delete_node_impl(&mut self, id: NodeId) -> StorageResult<Option<DeletedNode>> {
        let Some((page, data)) = self.file.find(id)? else {
            return Ok(None);
        };
        let incoming = patch_neighbors_on_delete(&mut self.file, &data)?;
        self.file.remove_from(page, id)?;
        let candidates = crate::pag::pages_of_nbrs(&self.file, &data)?;
        merge_on_underflow(&mut self.file, page, &candidates)?;
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
    use ccam_graph::generators::{grid_network, path_network};

    fn no_weights() -> HashMap<(NodeId, NodeId), u64> {
        HashMap::new()
    }

    #[test]
    fn create_stores_everything_for_all_orders() {
        let net = grid_network(7, 7, 1.0);
        for order in [
            TraversalOrder::DepthFirst,
            TraversalOrder::BreadthFirst,
            TraversalOrder::WeightedDepthFirst,
        ] {
            let am =
                TopoAm::create(&net, 512, order, None, &no_weights(), RecordCodec::Paper).unwrap();
            assert_eq!(am.file().len(), 49, "{order:?}");
            for id in net.node_ids() {
                assert!(am.find(id).unwrap().is_some(), "{order:?} {id:?}");
            }
        }
    }

    #[test]
    fn dfs_on_a_path_is_near_perfect() {
        // A directed path traversed depth-first packs consecutive nodes
        // together: CRR should be very high.
        let net = path_network(40);
        let am = TopoAm::create(
            &net,
            512,
            TraversalOrder::DepthFirst,
            Some(net.node_ids()[0]),
            &no_weights(),
            RecordCodec::Paper,
        )
        .unwrap();
        let crr = am.crr().unwrap();
        assert!(crr > 0.8, "DFS path CRR {crr:.3}");
    }

    #[test]
    fn dfs_beats_bfs_on_grids() {
        // The paper's Figure 5 ordering: DFS-AM above BFS-AM.
        let net = grid_network(12, 12, 1.0);
        let dfs = TopoAm::create(
            &net,
            1024,
            TraversalOrder::DepthFirst,
            None,
            &no_weights(),
            RecordCodec::Paper,
        )
        .unwrap();
        let bfs = TopoAm::create(
            &net,
            1024,
            TraversalOrder::BreadthFirst,
            None,
            &no_weights(),
            RecordCodec::Paper,
        )
        .unwrap();
        let (c_dfs, c_bfs) = (dfs.crr().unwrap(), bfs.crr().unwrap());
        assert!(
            c_dfs > c_bfs,
            "DFS {c_dfs:.3} should beat BFS {c_bfs:.3} on a grid"
        );
    }

    #[test]
    fn wdfs_follows_heavy_edges() {
        // A path with a hot middle edge: WDFS keeps hot pairs together.
        let net = path_network(30);
        let ids = net.node_ids();
        // Sort ids by x to get travel order (path ids are z-orders of (i,0)).
        let mut ordered: Vec<NodeId> = ids.clone();
        ordered.sort_by_key(|&id| net.node(id).unwrap().x);
        let mut weights = HashMap::new();
        for w in ordered.windows(2).step_by(2) {
            weights.insert((w[0], w[1]), 500u64);
        }
        let am = TopoAm::create(
            &net,
            256,
            TraversalOrder::WeightedDepthFirst,
            Some(ordered[0]),
            &weights,
            RecordCodec::Paper,
        )
        .unwrap();
        let wcrr = am.wcrr(&weights).unwrap();
        assert!(wcrr > 0.6, "WDFS WCRR {wcrrr:.3}", wcrrr = wcrr);
    }

    #[test]
    fn traversal_covers_disconnected_networks() {
        let mut net = grid_network(3, 3, 1.0);
        net.add_node(NodeId(1 << 40), 9999, 9999, vec![]);
        let am = TopoAm::create(
            &net,
            512,
            TraversalOrder::BreadthFirst,
            None,
            &no_weights(),
            RecordCodec::Paper,
        )
        .unwrap();
        assert_eq!(am.file().len(), 10);
        assert!(am.find(NodeId(1 << 40)).unwrap().is_some());
    }

    #[test]
    fn maintenance_roundtrip() {
        let net = grid_network(5, 5, 1.0);
        let mut am = TopoAm::create(
            &net,
            512,
            TraversalOrder::DepthFirst,
            None,
            &no_weights(),
            RecordCodec::Paper,
        )
        .unwrap();
        let victim = net.node_ids()[7];
        let del = am.delete_node(victim).unwrap().unwrap();
        assert!(am.find(victim).unwrap().is_none());
        am.insert_node(&del.data, &del.incoming).unwrap();
        assert_eq!(am.find(victim).unwrap().unwrap(), del.data);
    }
}
