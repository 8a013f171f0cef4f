//! Reorganization policies (paper Table 1 and §2.4).
//!
//! Maintenance operations (`Insert`, `Delete`) change connectivity and
//! can make the page clustering obsolete. Each policy chooses how much
//! of the file to recluster around the update:
//!
//! | policy | node argument `x` | edge argument `(u,v)` |
//! |--------|-------------------|------------------------|
//! | first order  | none (only overflow/underflow) | none |
//! | second order | `{Page(x)} ∪ PagesOfNbrs(x)` | `{Page(u), Page(v)}` |
//! | higher order | second order ∪ `NbrPages(Page(x))` | `{Page(u),Page(v)} ∪ NbrPages(Page(u)) ∪ NbrPages(Page(v))` |
//!
//! "The second order policies are designed to avoid additional I/O
//! overhead in reorganization" — they touch only pages the update must
//! read anyway. Reorganisation itself re-runs
//! `cluster-nodes-into-pages()` on the sub-network stored in the chosen
//! pages and rewrites them.

use std::collections::{BTreeSet, HashMap};

use ccam_graph::{NodeData, NodeId};
use ccam_partition::{cluster_nodes_into_pages, PartGraph, Partitioner};
use ccam_storage::{PageId, PageStore, StorageResult};

use crate::file::NetworkFile;
use crate::pag;

/// The reorganization policies of Table 1. The two "higher order"
/// node-argument variants of the table differ only in whether
/// `PagesOfNbrs(x)` or `NbrPages(Page(x))` seeds the set; this
/// implementation uses variant 1 (both neighborhoods), the one the
/// paper's Figure 7 experiment evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReorgPolicy {
    /// Avoid or delay reorganization: only overflow splits and underflow
    /// merges.
    FirstOrder,
    /// Reorganize the pages the update must touch anyway.
    SecondOrder,
    /// Also reorganize the PAG neighbors of the updated page.
    HigherOrder,
    /// The paper's delayed variant: "a lazy or delayed reorganization
    /// policy may reorganize NbrPages(P) after a certain number of
    /// updates to page P" (§2.4). Behaves like first order on every
    /// update, then reorganizes `{P} ∪ NbrPages(P)` once `P` has
    /// absorbed `every` updates.
    Lazy {
        /// Updates to one page between reorganizations.
        every: u32,
    },
}

impl ReorgPolicy {
    /// Human-readable name used by the experiment output.
    pub fn name(self) -> &'static str {
        match self {
            ReorgPolicy::FirstOrder => "first-order",
            ReorgPolicy::SecondOrder => "second-order",
            ReorgPolicy::HigherOrder => "higher-order",
            ReorgPolicy::Lazy { .. } => "lazy",
        }
    }
}

/// Table 1, node-argument column: the page set to reorganize after
/// `Insert(x)` / `Delete(x)`. `page_of_x` is the page selected for /
/// containing `x`; `neighbors` is `x`'s neighbor list.
pub fn pages_for_node_update<S: PageStore>(
    file: &NetworkFile<S>,
    page_of_x: PageId,
    neighbors: &[NodeId],
    policy: ReorgPolicy,
) -> StorageResult<BTreeSet<PageId>> {
    let mut set = BTreeSet::new();
    match policy {
        ReorgPolicy::FirstOrder | ReorgPolicy::Lazy { .. } => {}
        ReorgPolicy::SecondOrder => {
            set.insert(page_of_x);
            set.extend(pag::pages_of(file, neighbors)?);
        }
        ReorgPolicy::HigherOrder => {
            set.insert(page_of_x);
            set.extend(pag::pages_of(file, neighbors)?);
            set.extend(pag::nbr_pages(file, page_of_x)?);
        }
    }
    Ok(set)
}

/// The page set a *triggered* lazy reorganization covers:
/// `{P} ∪ NbrPages(P)` (paper §2.4).
pub fn pages_for_lazy_trigger<S: PageStore>(
    file: &NetworkFile<S>,
    page: PageId,
) -> StorageResult<BTreeSet<PageId>> {
    let mut set = pag::nbr_pages(file, page)?;
    set.insert(page);
    Ok(set)
}

/// Table 1, edge-argument column: the page set after `Insert(u,v)` /
/// `Delete(u,v)`.
pub fn pages_for_edge_update<S: PageStore>(
    file: &NetworkFile<S>,
    page_u: PageId,
    page_v: PageId,
    policy: ReorgPolicy,
) -> StorageResult<BTreeSet<PageId>> {
    let mut set = BTreeSet::new();
    match policy {
        ReorgPolicy::FirstOrder | ReorgPolicy::Lazy { .. } => {}
        ReorgPolicy::SecondOrder => {
            set.insert(page_u);
            set.insert(page_v);
        }
        ReorgPolicy::HigherOrder => {
            set.insert(page_u);
            set.insert(page_v);
            set.extend(pag::nbr_pages(file, page_u)?);
            set.extend(pag::nbr_pages(file, page_v)?);
        }
    }
    Ok(set)
}

/// Reclusters the sub-network stored in `pages` with
/// `cluster-nodes-into-pages()` and rewrites those pages (paper §2.4).
///
/// `weight` supplies the WCRR edge weights (return 1 for uniform CRR).
/// Page ids are recycled: surplus pages are freed, extra pages are
/// allocated, and the index entries of the records that changed page
/// are refreshed; a record that stays on its page costs no index write.
///
/// Atomicity contract: every page rewrite, allocation, free and index
/// update goes through [`NetworkFile`] — never the store directly — so
/// the whole reorganization stays buffered until the access method's
/// surrounding transaction commits it as one WAL batch (or rolls it
/// back via [`NetworkFile::abort`]). Nothing in here may flush.
pub fn reorganize_pages<S: PageStore>(
    file: &mut NetworkFile<S>,
    pages: &BTreeSet<PageId>,
    weight: &dyn Fn(NodeId, NodeId) -> u64,
    partitioner: Partitioner,
) -> StorageResult<()> {
    if pages.is_empty() {
        return Ok(());
    }
    // 1. Pull every record out of the affected pages (counted reads).
    let mut records: Vec<NodeData> = Vec::new();
    for &p in pages {
        records.extend(file.read_page_records(p)?);
    }
    if records.is_empty() {
        return Ok(());
    }

    // 2. Build the sub-network graph: edges with both endpoints inside.
    let idx_of: HashMap<NodeId, usize> =
        records.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let sizes: Vec<usize> = records.iter().map(|r| file.clustering_weight(r)).collect();
    let mut edges: Vec<(usize, usize, u64)> = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        for e in &rec.successors {
            if let Some(&j) = idx_of.get(&e.to) {
                edges.push((i, j, weight(rec.id, e.to)));
            }
        }
    }
    let graph = PartGraph::new(sizes, &edges);

    // 3. Recluster within the page byte budget.
    let groups = cluster_nodes_into_pages(&graph, file.clustering_budget(), partitioner);

    // 4. Rewrite: empty the original pages, then refill group by group,
    //    highest page id first.
    let sources: Vec<PageId> = pages.iter().copied().collect();
    file.repack(
        &sources,
        groups
            .into_iter()
            .map(|g| g.into_iter().map(|i| &records[i]).collect()),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccam_graph::EdgeTo;

    fn node(id: u64, succs: &[u64], preds: &[u64]) -> NodeData {
        NodeData {
            id: NodeId(id),
            x: id as u32,
            y: 0,
            payload: vec![0; 8],
            successors: succs
                .iter()
                .map(|&s| EdgeTo {
                    to: NodeId(s),
                    cost: 1,
                })
                .collect(),
            predecessors: preds.iter().map(|&p| NodeId(p)).collect(),
        }
    }

    /// A 6-node path split badly across 3 pages: {1,4}, {2,5}, {3,6}.
    fn badly_clustered() -> (NetworkFile, Vec<PageId>, Vec<NodeData>) {
        let mut f = NetworkFile::new(256).unwrap();
        let nodes: Vec<NodeData> = (1..=6)
            .map(|i| {
                let succ = if i < 6 { vec![i + 1] } else { vec![] };
                let pred = if i > 1 { vec![i - 1] } else { vec![] };
                node(i, &succ, &pred)
            })
            .collect();
        let pages = f
            .bulk_load(vec![
                vec![&nodes[0], &nodes[3]],
                vec![&nodes[1], &nodes[4]],
                vec![&nodes[2], &nodes[5]],
            ])
            .unwrap();
        (f, pages, nodes)
    }

    #[test]
    fn policy_page_sets_grow_with_order() {
        let (f, pages, nodes) = badly_clustered();
        let nbrs = nodes[1].neighbors(); // node 2: neighbors 1 and 3
        let first = pages_for_node_update(&f, pages[1], &nbrs, ReorgPolicy::FirstOrder).unwrap();
        let second = pages_for_node_update(&f, pages[1], &nbrs, ReorgPolicy::SecondOrder).unwrap();
        let higher = pages_for_node_update(&f, pages[1], &nbrs, ReorgPolicy::HigherOrder).unwrap();
        assert!(first.is_empty());
        assert!(second.contains(&pages[1]));
        assert!(second.len() >= 2);
        assert!(higher.is_superset(&second));
    }

    #[test]
    fn edge_policy_page_sets() {
        let (f, pages, _) = badly_clustered();
        let second =
            pages_for_edge_update(&f, pages[0], pages[2], ReorgPolicy::SecondOrder).unwrap();
        assert_eq!(
            second.iter().copied().collect::<Vec<_>>(),
            vec![pages[0], pages[2]]
        );
        let higher =
            pages_for_edge_update(&f, pages[0], pages[2], ReorgPolicy::HigherOrder).unwrap();
        assert!(higher.is_superset(&second));
        assert!(higher.len() >= second.len());
    }

    #[test]
    fn lazy_trigger_covers_page_and_pag_neighbors() {
        let (f, pages, _) = badly_clustered();
        let set = pages_for_lazy_trigger(&f, pages[1]).unwrap();
        assert!(set.contains(&pages[1]), "P itself");
        // The 1-4 / 2-5 / 3-6 placement connects every page to both others.
        assert!(
            set.contains(&pages[0]) && set.contains(&pages[2]),
            "NbrPages(P)"
        );
        // Lazy produces no immediate page set through the per-update path.
        let nothing =
            pages_for_node_update(&f, pages[1], &[NodeId(1)], ReorgPolicy::Lazy { every: 4 })
                .unwrap();
        assert!(nothing.is_empty());
    }

    #[test]
    fn reorganize_improves_crr() {
        let (mut f, pages, _) = badly_clustered();
        let before = crate::crr::crr(&f).unwrap();
        let set: BTreeSet<PageId> = pages.into_iter().collect();
        reorganize_pages(&mut f, &set, &|_, _| 1, Partitioner::RatioCut).unwrap();
        let after = crate::crr::crr(&f).unwrap();
        assert!(
            after > before,
            "reclustering must improve CRR: {before:.3} -> {after:.3}"
        );
        // All six records still present.
        for i in 1..=6 {
            assert!(f.find(NodeId(i)).unwrap().is_some(), "node {i} lost");
        }
    }

    #[test]
    fn reorganize_respects_weights() {
        let (mut f, pages, _) = badly_clustered();
        let set: BTreeSet<PageId> = pages.into_iter().collect();
        // Make edge (3,4) overwhelmingly hot: it must end up unsplit.
        let weight = |u: NodeId, v: NodeId| {
            if u == NodeId(3) && v == NodeId(4) {
                1000
            } else {
                1
            }
        };
        reorganize_pages(&mut f, &set, &weight, Partitioner::RatioCut).unwrap();
        let p3 = f.page_of(NodeId(3)).unwrap();
        let p4 = f.page_of(NodeId(4)).unwrap();
        assert_eq!(p3, p4, "hot edge must be colocated");
    }

    #[test]
    fn reorganize_empty_set_is_noop() {
        let (mut f, _, _) = badly_clustered();
        let before = f.page_map().unwrap();
        reorganize_pages(&mut f, &BTreeSet::new(), &|_, _| 1, Partitioner::RatioCut).unwrap();
        assert_eq!(f.page_map().unwrap(), before);
    }

    #[test]
    fn reorganize_frees_surplus_pages() {
        // 4 tiny records spread over 4 pages; all fit in 1 page after
        // reclustering.
        let mut f = NetworkFile::new(512).unwrap();
        let nodes: Vec<NodeData> = (1..=4).map(|i| node(i, &[], &[])).collect();
        let pages = f
            .bulk_load(nodes.iter().map(|n| vec![n]).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(f.num_pages(), 4);
        let set: BTreeSet<PageId> = pages.into_iter().collect();
        reorganize_pages(&mut f, &set, &|_, _| 1, Partitioner::RatioCut).unwrap();
        assert_eq!(f.num_pages(), 1, "records should consolidate");
        for i in 1..=4 {
            assert!(f.find(NodeId(i)).unwrap().is_some());
        }
    }
}
