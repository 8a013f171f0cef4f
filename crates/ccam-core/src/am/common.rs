//! Maintenance plumbing shared by every access method.
//!
//! The paper's `Insert()`/`Delete()` procedures (Figures 3 and 4) break
//! into policy-independent pieces implemented here:
//!
//! * neighbor-ranked page selection ("ranking the pages by the number of
//!   neighbors of x located in the page, to choose the page with the
//!   maximum number of neighboring nodes of x which also has space"),
//! * successor/predecessor list patching on the neighbors' pages,
//! * overflow splitting via `cluster-nodes-into-pages()`,
//! * underflow merging with a page from `PagesOfNbrs(x)`.
//!
//! The CCAM access method layers the Table 1 reorganization policies on
//! top; the comparator methods use these pieces with first-order
//! behaviour, which matches how the paper measures all methods under a
//! common update workload (§4.2).

use std::collections::BTreeSet;

use ccam_graph::{EdgeTo, NodeData, NodeId};
use ccam_partition::{cluster_nodes_into_pages, PartGraph, Partitioner};
use ccam_storage::{PageId, PageStore, StorageResult};

use crate::file::NetworkFile;

/// Everything `Delete()` removes, sufficient for a lossless re-insert:
/// the record plus the costs of the incoming edges (which live on the
/// predecessors' records).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeletedNode {
    /// The removed record.
    pub data: NodeData,
    /// `(predecessor, cost)` of each incoming edge.
    pub incoming: Vec<(NodeId, u32)>,
}

/// Neighbor-ranked page selection for a new record of `needed` bytes
/// with the given neighbor list. Returns the page of `PagesOfNbrs` with
/// the most neighbors of `x` that still has room, or `None` when no
/// neighbor page fits.
///
/// Ranking needs the neighbor pages' contents, so each candidate page is
/// fetched (counted) — this is the `λ` retrieval cost of Table 4. The
/// neighbours on a page are counted by id, in place; nothing is decoded.
pub fn select_page_by_neighbors<S: PageStore>(
    file: &NetworkFile<S>,
    neighbors: &[NodeId],
    needed: usize,
) -> StorageResult<Option<PageId>> {
    let pages = crate::pag::pages_of(file, neighbors)?;
    let mut best: Option<(usize, usize, PageId)> = None; // (count, free, page)
    for page in pages {
        if file.is_quarantined(page) {
            continue; // never place records on an unreadable page
        }
        let count = file.count_ids_on(page, neighbors)?;
        let free = file.page_free_space(page)?;
        if free < needed + ccam_storage::slotted::SLOT_LEN {
            continue;
        }
        let better = match best {
            None => true,
            Some((bc, bf, _)) => count > bc || (count == bc && free > bf),
        };
        if better {
            best = Some((count, free, page));
        }
    }
    Ok(best.map(|(_, _, p)| p))
}

/// A page with room for `needed` bytes, preferring the fullest such page
/// (best packing), or `None`. Uses the in-memory free-space map (a real
/// system keeps one; no counted I/O).
pub fn any_page_with_space<S: PageStore>(
    file: &NetworkFile<S>,
    needed: usize,
) -> StorageResult<Option<PageId>> {
    let mut best: Option<(usize, PageId)> = None;
    for (page, free) in file.free_space_map_uncounted()? {
        if free >= needed + ccam_storage::slotted::SLOT_LEN {
            // Fullest page = least free space.
            let better = match best {
                None => true,
                Some((bf, _)) => free < bf,
            };
            if better {
                best = Some((free, page));
            }
        }
    }
    Ok(best.map(|(_, p)| p))
}

/// Patches neighbor records after inserting node `x`:
/// every successor gains `x` as predecessor, every predecessor gains the
/// incoming edge `p → x`. Fetches each neighbor's page (counted).
pub fn patch_neighbors_on_insert<S: PageStore>(
    file: &mut NetworkFile<S>,
    x: &NodeData,
    incoming: &[(NodeId, u32)],
) -> StorageResult<()> {
    for e in &x.successors {
        let Some((page, mut rec)) = file.find(e.to)? else {
            continue; // dangling reference — neighbor not stored
        };
        if !rec.predecessors.contains(&x.id) {
            rec.predecessors.push(x.id);
            write_back(file, page, &rec)?;
        }
    }
    for &(pred, cost) in incoming {
        let Some((page, mut rec)) = file.find(pred)? else {
            continue;
        };
        if !rec.successors.iter().any(|e| e.to == x.id) {
            rec.successors.push(EdgeTo { to: x.id, cost });
            write_back(file, page, &rec)?;
        }
    }
    Ok(())
}

/// Patches neighbor records after deleting node `x`, collecting the
/// incoming edge costs for [`DeletedNode`].
pub fn patch_neighbors_on_delete<S: PageStore>(
    file: &mut NetworkFile<S>,
    x: &NodeData,
) -> StorageResult<Vec<(NodeId, u32)>> {
    let mut incoming = Vec::new();
    for e in &x.successors {
        let Some((page, mut rec)) = file.find(e.to)? else {
            continue;
        };
        if rec.predecessors.contains(&x.id) {
            rec.predecessors.retain(|&p| p != x.id);
            write_back(file, page, &rec)?;
        }
    }
    for &pred in &x.predecessors {
        let Some((page, mut rec)) = file.find(pred)? else {
            continue;
        };
        if let Some(pos) = rec.successors.iter().position(|e| e.to == x.id) {
            let cost = rec.successors[pos].cost;
            incoming.push((pred, cost));
            rec.successors.remove(pos);
            write_back(file, page, &rec)?;
        }
    }
    Ok(incoming)
}

/// Rewrites a (possibly grown) record, relocating it when its page can
/// no longer hold it. Shrinking always succeeds in place.
pub fn write_back<S: PageStore>(
    file: &mut NetworkFile<S>,
    page: PageId,
    rec: &NodeData,
) -> StorageResult<()> {
    if file.update_in(page, rec)? {
        return Ok(());
    }
    // Grew past the page: move the record (index entry follows).
    file.remove_from(page, rec.id)?;
    let needed = file.record_len(rec);
    let target = match select_page_by_neighbors(file, &rec.neighbors(), needed)? {
        Some(p) => Some(p),
        None => any_page_with_space(file, needed)?,
    };
    if let Some(t) = target {
        if file.insert_into(t, rec)? {
            return Ok(());
        }
    }
    let fresh = file.allocate_page()?;
    let ok = file.insert_into(fresh, rec)?;
    debug_assert!(ok, "fresh page fits any valid record");
    Ok(())
}

/// Stores `node` on `page`; on overflow, splits the page's contents
/// (plus the new record) into two or more pages with
/// `cluster-nodes-into-pages()` — the paper's first-order overflow
/// handling ("the overflow page is split into two pages, via the
/// cluster-nodes-into-pages() procedure", §2.4).
pub fn insert_with_overflow_split<S: PageStore>(
    file: &mut NetworkFile<S>,
    page: PageId,
    node: &NodeData,
    weight: &dyn Fn(NodeId, NodeId) -> u64,
    partitioner: Partitioner,
) -> StorageResult<()> {
    if file.insert_into(page, node)? {
        return Ok(());
    }
    // Overflow: recluster page ∪ {node} into fresh groups.
    let mut records = file.read_page_records(page)?;
    records.push(node.clone());
    let sizes: Vec<usize> = records.iter().map(|r| file.clustering_weight(r)).collect();
    let idx_of: std::collections::HashMap<NodeId, usize> =
        records.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let mut edges = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        for e in &rec.successors {
            if let Some(&j) = idx_of.get(&e.to) {
                edges.push((i, j, weight(rec.id, e.to)));
            }
        }
    }
    let graph = PartGraph::new(sizes, &edges);
    let groups = cluster_nodes_into_pages(&graph, file.clustering_budget(), partitioner);
    // The first group refills `page`, the rest go to fresh pages.
    file.repack(
        &[page],
        groups
            .into_iter()
            .map(|g| g.into_iter().map(|i| &records[i]).collect()),
    )?;
    Ok(())
}

/// First-order underflow handling for `Delete()`: when `page` is less
/// than half full, merge it with a page from `candidates`
/// (`PagesOfNbrs(x)`, Figure 4) whose contents fit alongside.
pub fn merge_on_underflow<S: PageStore>(
    file: &mut NetworkFile<S>,
    page: PageId,
    candidates: &BTreeSet<PageId>,
) -> StorageResult<()> {
    let used = file.page_used_bytes(page)?;
    if used * 2 >= file.page_size() || used == 0 {
        // No underflow (or the page emptied entirely — free it below).
        if used == 0 {
            file.free_page(page)?;
        }
        return Ok(());
    }
    for &q in candidates {
        if q == page {
            continue;
        }
        let q_records = file.read_page_records(q)?;
        let q_weight: usize = q_records.iter().map(|r| file.clustering_weight(r)).sum();
        let p_records = file.read_page_records(page)?;
        let p_weight: usize = p_records.iter().map(|r| file.clustering_weight(r)).sum();
        if p_weight + q_weight <= file.clustering_budget() {
            // Rewrite `page` from scratch with both pages' records (a
            // fresh slotted layout has no dead-slot overhead, so the
            // byte accounting above is exact). `page`, last of the
            // sources, takes the one group; q, left over, is freed.
            file.repack(&[q, page], [p_records.iter().chain(&q_records).collect()])?;
            return Ok(());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u64, succs: &[(u64, u32)], preds: &[u64]) -> NodeData {
        NodeData {
            id: NodeId(id),
            x: id as u32,
            y: 0,
            payload: vec![0; 8],
            successors: succs
                .iter()
                .map(|&(s, c)| EdgeTo {
                    to: NodeId(s),
                    cost: c,
                })
                .collect(),
            predecessors: preds.iter().map(|&p| NodeId(p)).collect(),
        }
    }

    #[test]
    fn page_selection_prefers_more_neighbors() {
        let mut f = NetworkFile::new(512).unwrap();
        let n1 = node(1, &[], &[]);
        let n2 = node(2, &[], &[]);
        let n3 = node(3, &[], &[]);
        let pages = f.bulk_load(vec![vec![&n1, &n2], vec![&n3]]).unwrap();
        // New node with neighbors {1, 2, 3}: page 0 holds two of them.
        let sel = select_page_by_neighbors(&f, &[NodeId(1), NodeId(2), NodeId(3)], 50)
            .unwrap()
            .unwrap();
        assert_eq!(sel, pages[0]);
    }

    #[test]
    fn page_selection_skips_full_pages() {
        let mut f = NetworkFile::new(128).unwrap();
        let n1 = node(1, &[], &[]);
        let big = NodeData {
            payload: vec![0; 60],
            ..node(2, &[], &[])
        };
        let pages = f
            .bulk_load(vec![vec![&n1, &big], vec![&node(3, &[], &[])]])
            .unwrap();
        // Page 0 has both neighbors but no room for 60 more bytes.
        let sel = select_page_by_neighbors(&f, &[NodeId(1), NodeId(2), NodeId(3)], 60)
            .unwrap()
            .unwrap();
        assert_eq!(sel, pages[1]);
    }

    #[test]
    fn patch_on_insert_and_delete_roundtrip() {
        let mut f = NetworkFile::new(512).unwrap();
        let a = node(1, &[], &[]);
        let b = node(2, &[], &[]);
        f.bulk_load(vec![vec![&a, &b]]).unwrap();
        // Insert x with edge x->1 and incoming 2->x (cost 9).
        let x = node(10, &[(1, 5)], &[2]);
        let p = any_page_with_space(&f, f.record_len(&x)).unwrap().unwrap();
        f.insert_into(p, &x).unwrap();
        patch_neighbors_on_insert(&mut f, &x, &[(NodeId(2), 9)]).unwrap();
        let (_, rec1) = f.find(NodeId(1)).unwrap().unwrap();
        assert!(rec1.predecessors.contains(&NodeId(10)));
        let (_, rec2) = f.find(NodeId(2)).unwrap().unwrap();
        assert_eq!(
            rec2.successors,
            vec![EdgeTo {
                to: NodeId(10),
                cost: 9
            }]
        );
        // Delete x: lists restored, incoming captured.
        let incoming = patch_neighbors_on_delete(&mut f, &x).unwrap();
        assert_eq!(incoming, vec![(NodeId(2), 9)]);
        let (_, rec1) = f.find(NodeId(1)).unwrap().unwrap();
        assert!(rec1.predecessors.is_empty());
        let (_, rec2) = f.find(NodeId(2)).unwrap().unwrap();
        assert!(rec2.successors.is_empty());
    }

    #[test]
    fn write_back_relocates_grown_records() {
        let mut f = NetworkFile::new(128).unwrap();
        let a = node(1, &[], &[]);
        let filler = NodeData {
            payload: vec![0; 50],
            ..node(2, &[], &[])
        };
        let pages = f.bulk_load(vec![vec![&a, &filler]]).unwrap();
        // Grow node 1 well past the page's remaining space.
        let mut grown = a.clone();
        grown.payload = vec![1; 60];
        write_back(&mut f, pages[0], &grown).unwrap();
        let (page_now, rec) = f.find(NodeId(1)).unwrap().unwrap();
        assert_eq!(rec.payload.len(), 60);
        assert_ne!(page_now, pages[0], "record must have moved");
    }

    #[test]
    fn overflow_split_preserves_records() {
        let mut f = NetworkFile::new(128).unwrap();
        let a = NodeData {
            payload: vec![0; 30],
            ..node(1, &[], &[])
        };
        let b = NodeData {
            payload: vec![0; 30],
            ..node(2, &[], &[])
        };
        let pages = f.bulk_load(vec![vec![&a, &b]]).unwrap();
        let c = NodeData {
            payload: vec![0; 30],
            ..node(3, &[], &[])
        };
        insert_with_overflow_split(&mut f, pages[0], &c, &|_, _| 1, Partitioner::RatioCut).unwrap();
        for i in 1..=3 {
            assert!(f.find(NodeId(i)).unwrap().is_some(), "node {i}");
        }
        assert!(f.num_pages() >= 2);
    }

    #[test]
    fn underflow_merge_consolidates() {
        let mut f = NetworkFile::new(512).unwrap();
        let a = node(1, &[], &[]);
        let b = node(2, &[], &[]);
        let pages = f.bulk_load(vec![vec![&a], vec![&b]]).unwrap();
        let mut candidates = BTreeSet::new();
        candidates.insert(pages[1]);
        merge_on_underflow(&mut f, pages[0], &candidates).unwrap();
        assert_eq!(f.num_pages(), 1);
        assert!(f.find(NodeId(1)).unwrap().is_some());
        assert!(f.find(NodeId(2)).unwrap().is_some());
    }

    #[test]
    fn empty_page_is_freed() {
        let mut f = NetworkFile::new(512).unwrap();
        let a = node(1, &[], &[]);
        let pages = f.bulk_load(vec![vec![&a]]).unwrap();
        f.remove_from(pages[0], NodeId(1)).unwrap();
        merge_on_underflow(&mut f, pages[0], &BTreeSet::new()).unwrap();
        assert_eq!(f.num_pages(), 0);
    }
}
