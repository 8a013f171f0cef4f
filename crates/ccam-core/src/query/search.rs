//! Graph search over an access method — the `Get-successors()`
//! consumers: "Get-successors() is used in graph search algorithms like
//! A*" (paper §1.2, citing the IVHS route-planning work \[24\]).
//!
//! Both algorithms expand nodes by the Get-successors rule, one Find
//! per expansion ([`NetworkFile::with_successors`], the walk
//! [`AccessMethod::get_successors`] is built on), so their I/O profile
//! directly reflects the access method's clustering quality. Records
//! are read in place: an expansion copies out its edges, and each
//! successor lends only its coordinates to the heuristic.
//!
//! [`NetworkFile::with_successors`]: crate::file::NetworkFile::with_successors

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use ccam_graph::NodeId;
use ccam_storage::{PageStore, StorageResult};

use crate::am::AccessMethod;

/// A shortest path found by [`dijkstra`] / [`a_star`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// Total cost of the path.
    pub cost: u64,
    /// Node sequence from source to goal (inclusive).
    pub path: Vec<NodeId>,
    /// Number of nodes expanded (A* quality diagnostics).
    pub expanded: usize,
}

/// Dijkstra's algorithm from `source` to `goal` over the stored network.
pub fn dijkstra<S: PageStore>(
    am: &dyn AccessMethod<S>,
    source: NodeId,
    goal: NodeId,
) -> StorageResult<Option<SearchResult>> {
    a_star_with(am, source, goal, |_, _| 0)
}

/// A* with the Euclidean travel-time lower bound used by the road-map
/// generator (`distance / 4`; edge costs are `⌊distance/4⌋ + 1 + noise`,
/// so the heuristic is admissible).
pub fn a_star<S: PageStore>(
    am: &dyn AccessMethod<S>,
    source: NodeId,
    goal: NodeId,
) -> StorageResult<Option<SearchResult>> {
    let Some((gx, gy)) = find_xy(am, goal)? else {
        return Ok(None);
    };
    let (gx, gy) = (gx as f64, gy as f64);
    a_star_with(am, source, goal, move |x, y| {
        let dx = x as f64 - gx;
        let dy = y as f64 - gy;
        ((dx * dx + dy * dy).sqrt() / 4.0) as u64
    })
}

/// A* with a caller-supplied admissible heuristic over node
/// coordinates `(x, y)`.
pub fn a_star_with<S: PageStore>(
    am: &dyn AccessMethod<S>,
    source: NodeId,
    goal: NodeId,
    heuristic: impl Fn(u32, u32) -> u64,
) -> StorageResult<Option<SearchResult>> {
    let Some((sx, sy)) = find_xy(am, source)? else {
        return Ok(None);
    };
    let mut dist: HashMap<NodeId, u64> = HashMap::new();
    let mut prev: HashMap<NodeId, NodeId> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(u64, u64, NodeId)>> = BinaryHeap::new();
    dist.insert(source, 0);
    heap.push(Reverse((heuristic(sx, sy), 0, source)));
    let mut expanded = 0usize;
    // The expanded node's edges, reused across expansions.
    let mut edges = Vec::new();

    while let Some(Reverse((_f, g, node))) = heap.pop() {
        if dist.get(&node).copied().unwrap_or(u64::MAX) < g {
            continue; // stale entry
        }
        expanded += 1;
        if node == goal {
            let mut path = vec![goal];
            let mut cur = goal;
            while let Some(&p) = prev.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Ok(Some(SearchResult {
                cost: g,
                path,
                expanded,
            }));
        }
        // One Get-successors() per expansion — one Find() of the node,
        // then its successors by the Get-A-successor rule: the dominant
        // I/O cost of the query (paper §1.2). The Find() is usually a
        // buffer hit because the expansion order has spatial locality.
        let _span = am.stats().span("get_successors");
        am.file().with_successors(node, &mut edges, |edge, succ| {
            let ng = g + edge.cost as u64;
            if ng < dist.get(&edge.to).copied().unwrap_or(u64::MAX) {
                dist.insert(edge.to, ng);
                prev.insert(edge.to, node);
                let (x, y) = succ.xy();
                heap.push(Reverse((ng + heuristic(x, y), ng, edge.to)));
            }
        })?;
    }
    Ok(None)
}

/// `Find()` of `id`, reading only its coordinates.
fn find_xy<S: PageStore>(
    am: &dyn AccessMethod<S>,
    id: NodeId,
) -> StorageResult<Option<(u32, u32)>> {
    let _span = am.stats().span("find");
    Ok(am.file().with_record(id, |rec| rec.xy())?.map(|(_, xy)| xy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::am::CcamBuilder;
    use ccam_graph::generators::{grid_network, path_network, zorder_id};
    use ccam_graph::Network;

    #[test]
    fn dijkstra_on_a_line() {
        let net = path_network(10);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let r = dijkstra(&am, zorder_id(0, 0), zorder_id(9, 0))
            .unwrap()
            .unwrap();
        assert_eq!(r.cost, 9);
        assert_eq!(r.path.len(), 10);
    }

    #[test]
    fn unreachable_goal_is_none() {
        let net = path_network(5); // one-way: node 4 cannot reach node 0
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        assert!(dijkstra(&am, zorder_id(4, 0), zorder_id(0, 0))
            .unwrap()
            .is_none());
    }

    #[test]
    fn missing_endpoints_are_none() {
        let net = path_network(3);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        use ccam_graph::NodeId;
        assert!(dijkstra(&am, NodeId(12345), zorder_id(0, 0))
            .unwrap()
            .is_none());
        assert!(a_star(&am, zorder_id(0, 0), NodeId(12345))
            .unwrap()
            .is_none());
    }

    #[test]
    fn source_equals_goal() {
        let net = path_network(3);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let r = dijkstra(&am, zorder_id(1, 0), zorder_id(1, 0))
            .unwrap()
            .unwrap();
        assert_eq!(r.cost, 0);
        assert_eq!(r.path, vec![zorder_id(1, 0)]);
    }

    #[test]
    fn a_star_agrees_with_dijkstra_on_cost() {
        let net = grid_network(8, 8, 1.0);
        let am = CcamBuilder::new(1024).build_static(&net).unwrap();
        let (s, g) = (zorder_id(0, 0), zorder_id(7, 7));
        let d = dijkstra(&am, s, g).unwrap().unwrap();
        let a = a_star(&am, s, g).unwrap().unwrap();
        assert_eq!(d.cost, a.cost, "A* must stay optimal");
    }

    #[test]
    fn dijkstra_matches_in_memory_reference() {
        // Cross-check against a plain in-memory Dijkstra on the Network.
        fn reference(net: &Network, s: ccam_graph::NodeId, g: ccam_graph::NodeId) -> Option<u64> {
            use std::cmp::Reverse;
            use std::collections::{BinaryHeap, HashMap};
            let mut dist = HashMap::new();
            let mut heap = BinaryHeap::new();
            dist.insert(s, 0u64);
            heap.push(Reverse((0u64, s)));
            while let Some(Reverse((d, v))) = heap.pop() {
                if v == g {
                    return Some(d);
                }
                if dist.get(&v).copied().unwrap_or(u64::MAX) < d {
                    continue;
                }
                for e in &net.node(v)?.successors {
                    let nd = d + e.cost as u64;
                    if nd < dist.get(&e.to).copied().unwrap_or(u64::MAX) {
                        dist.insert(e.to, nd);
                        heap.push(Reverse((nd, e.to)));
                    }
                }
            }
            None
        }
        let net = grid_network(6, 6, 0.6);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let ids = net.node_ids();
        for (i, &s) in ids.iter().enumerate().step_by(7) {
            let g = ids[(i * 13 + 5) % ids.len()];
            let got = dijkstra(&am, s, g).unwrap().map(|r| r.cost);
            assert_eq!(got, reference(&net, s, g), "{s:?} -> {g:?}");
        }
    }

    /// Each expansion reads its own record once — one `Find()` — and
    /// each of its successors once, by the Get-A-successor rule. On a
    /// one-page line every access is to that page, so the data-page
    /// accesses of one A* call are counted exactly: the goal's and the
    /// source's `Find()`, then for every expanded node but the goal, one
    /// for its record and one per successor.
    #[test]
    fn a_star_reads_an_expanded_record_once() {
        let net = grid_network(8, 1, 1.0); // a two-way line of 8 nodes
        let am = CcamBuilder::new(1024).build_static(&net).unwrap();
        assert_eq!(am.file().num_pages(), 1);
        am.file().pool().clear().unwrap();
        let before = am.stats().snapshot();
        let r = a_star(&am, zorder_id(0, 0), zorder_id(7, 0))
            .unwrap()
            .unwrap();
        let d = am.stats().snapshot().since(&before);
        // On a line A* expands exactly the path.
        assert_eq!(r.path.len(), 8);
        assert_eq!(r.expanded, r.path.len());
        let successors: usize = r.path[..r.path.len() - 1]
            .iter()
            .map(|&id| net.node(id).unwrap().successors.len())
            .sum();
        let own_records = r.expanded - 1;
        assert_eq!(d.physical_reads, 1);
        assert_eq!(
            d.buffer_hits + d.physical_reads,
            (2 + own_records + successors) as u64,
            "one access per expansion for the expanded node's own record"
        );
    }

    #[test]
    fn path_edges_are_real() {
        let net = grid_network(7, 7, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let r = a_star(&am, zorder_id(0, 0), zorder_id(6, 6))
            .unwrap()
            .unwrap();
        for w in r.path.windows(2) {
            let rec = net.node(w[0]).unwrap();
            assert!(rec.successors.iter().any(|e| e.to == w[1]));
        }
    }
}
