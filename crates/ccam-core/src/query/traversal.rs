//! Graph traversal and reachability queries.
//!
//! The related work the paper builds on evaluates storage structures by
//! "path computations, such as graph traversal and transitive closure"
//! (§1.2, citing Larson & Deshpande \[18\] and Hua et al. \[12\]). These are
//! the bulk consumers of `Get-successors()`: every expanded node costs
//! one successor retrieval, so total I/O ≈ `(1−α)·|A|` per expansion
//! (Table 3) and clustering quality dominates the bill.
//!
//! * [`reachable_within`] — the travel-time ball ("service area" in GIS:
//!   everything within 10 minutes of the depot),
//! * [`reachable_hops`] — breadth-first reachability with a hop bound,
//! * [`transitive_closure_from`] — full forward closure of one node.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

use ccam_graph::NodeId;
use ccam_storage::{PageStore, StorageResult};

use crate::am::AccessMethod;

/// Nodes reachable from `source` with path cost ≤ `budget`, with their
/// distances, in ascending distance order (ties by id). The source is
/// included at distance 0.
pub fn reachable_within<S: PageStore>(
    am: &dyn AccessMethod<S>,
    source: NodeId,
    budget: u64,
) -> StorageResult<Vec<(NodeId, u64)>> {
    if am.find(source)?.is_none() {
        return Ok(Vec::new());
    }
    let mut dist: HashMap<NodeId, u64> = HashMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(source, 0);
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((d, node))) = heap.pop() {
        if dist.get(&node).copied().unwrap_or(u64::MAX) < d {
            continue;
        }
        let Some(rec) = am.find(node)? else { continue };
        let succs = am.get_successors(node)?;
        for s in succs {
            let Some(edge) = rec.successors.iter().find(|e| e.to == s.id) else {
                continue;
            };
            let nd = d + edge.cost as u64;
            if nd <= budget && nd < dist.get(&s.id).copied().unwrap_or(u64::MAX) {
                dist.insert(s.id, nd);
                heap.push(Reverse((nd, s.id)));
            }
        }
    }
    let mut out: Vec<(NodeId, u64)> = dist.into_iter().collect();
    out.sort_by_key(|&(id, d)| (d, id));
    Ok(out)
}

/// Nodes reachable from `source` in at most `max_hops` successor steps
/// (breadth-first), source included at hop 0.
pub fn reachable_hops<S: PageStore>(
    am: &dyn AccessMethod<S>,
    source: NodeId,
    max_hops: usize,
) -> StorageResult<Vec<(NodeId, usize)>> {
    if am.find(source)?.is_none() {
        return Ok(Vec::new());
    }
    let mut seen: HashMap<NodeId, usize> = HashMap::new();
    let mut queue = VecDeque::new();
    seen.insert(source, 0);
    queue.push_back((source, 0usize));
    while let Some((node, hops)) = queue.pop_front() {
        if hops == max_hops {
            continue;
        }
        for s in am.get_successors(node)? {
            if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(s.id) {
                e.insert(hops + 1);
                queue.push_back((s.id, hops + 1));
            }
        }
    }
    let mut out: Vec<(NodeId, usize)> = seen.into_iter().collect();
    out.sort_by_key(|&(id, h)| (h, id));
    Ok(out)
}

/// The forward transitive closure of `source`: every node reachable by
/// following successor edges, in discovery (DFS) order.
pub fn transitive_closure_from<S: PageStore>(
    am: &dyn AccessMethod<S>,
    source: NodeId,
) -> StorageResult<Vec<NodeId>> {
    if am.find(source)?.is_none() {
        return Ok(Vec::new());
    }
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut order = Vec::new();
    let mut stack = vec![source];
    seen.insert(source);
    while let Some(node) = stack.pop() {
        order.push(node);
        let mut succs = am.get_successors(node)?;
        // Deterministic order.
        succs.sort_by_key(|s| s.id);
        for s in succs.into_iter().rev() {
            if seen.insert(s.id) {
                stack.push(s.id);
            }
        }
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::am::CcamBuilder;
    use ccam_graph::generators::{grid_network, path_network, zorder_id};
    use ccam_graph::RecordCodec;

    #[test]
    fn ball_on_a_line() {
        let net = path_network(10); // unit costs, one-way
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let ball = reachable_within(&am, zorder_id(0, 0), 3).unwrap();
        assert_eq!(ball.len(), 4); // distances 0,1,2,3
        assert_eq!(ball[0], (zorder_id(0, 0), 0));
        assert_eq!(ball[3], (zorder_id(3, 0), 3));
        // From the line's end nothing is reachable forward.
        let ball = reachable_within(&am, zorder_id(9, 0), 100).unwrap();
        assert_eq!(ball.len(), 1);
    }

    #[test]
    fn ball_budget_zero_is_just_the_source() {
        let net = grid_network(4, 4, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let ball = reachable_within(&am, zorder_id(1, 1), 0).unwrap();
        assert_eq!(ball, vec![(zorder_id(1, 1), 0)]);
    }

    #[test]
    fn missing_source_is_empty() {
        let net = grid_network(3, 3, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        assert!(reachable_within(&am, ccam_graph::NodeId(9999), 5)
            .unwrap()
            .is_empty());
        assert!(reachable_hops(&am, ccam_graph::NodeId(9999), 5)
            .unwrap()
            .is_empty());
        assert!(transitive_closure_from(&am, ccam_graph::NodeId(9999))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn hops_ball_on_grid() {
        let net = grid_network(7, 7, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let center = zorder_id(3, 3);
        let h1 = reachable_hops(&am, center, 1).unwrap();
        assert_eq!(h1.len(), 5, "center + 4 von-Neumann neighbors");
        let h2 = reachable_hops(&am, center, 2).unwrap();
        assert_eq!(h2.len(), 13, "Manhattan ball of radius 2");
        // Hop counts are exact BFS depths.
        for (id, h) in h1 {
            let n = net.node(id).unwrap();
            let manhattan = (n.x as i64 - 3).unsigned_abs() + (n.y as i64 - 3).unsigned_abs();
            assert_eq!(h as u64, manhattan);
        }
    }

    #[test]
    fn closure_covers_strongly_connected_grid() {
        let net = grid_network(5, 5, 1.0); // all two-way: strongly connected
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let closure = transitive_closure_from(&am, zorder_id(0, 0)).unwrap();
        assert_eq!(closure.len(), 25);
        // No duplicates.
        let set: HashSet<_> = closure.iter().collect();
        assert_eq!(set.len(), 25);
    }

    #[test]
    fn closure_respects_direction() {
        let net = path_network(6);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let from_mid = transitive_closure_from(&am, zorder_id(3, 0)).unwrap();
        assert_eq!(from_mid.len(), 3); // nodes 3, 4, 5
    }

    #[test]
    fn bounded_traversal_io_tracks_crr() {
        // Locality-bounded traversals (hop balls) are where clustering
        // pays: the working set is a neighborhood, so CCAM faults far
        // fewer pages than BFS-AM. (A *full* closure visits every page
        // regardless of placement — there only page count matters.)
        use crate::am::{TopoAm, TraversalOrder};
        use std::collections::HashMap as Map;
        let net = grid_network(12, 12, 1.0);
        let ccam = CcamBuilder::new(512)
            .codec(RecordCodec::Paper)
            .build_static(&net)
            .unwrap();
        let bfs = TopoAm::create(
            &net,
            512,
            TraversalOrder::BreadthFirst,
            None,
            &Map::new(),
            RecordCodec::Paper,
        )
        .unwrap();
        let mut ios = Vec::new();
        for am in [&ccam as &dyn AccessMethod, &bfs] {
            am.file().pool().set_capacity(4).unwrap();
            let mut total = 0u64;
            for cx in [2u32, 6, 9] {
                for cy in [2u32, 6, 9] {
                    am.file().pool().clear().unwrap();
                    let before = am.stats().snapshot();
                    let ball = reachable_hops(am, zorder_id(cx, cy), 3).unwrap();
                    assert!(ball.len() >= 20, "ball of radius 3 on a grid");
                    total += am.stats().snapshot().since(&before).physical_reads;
                }
            }
            ios.push(total);
        }
        assert!(
            ios[0] < ios[1],
            "hop balls over CCAM ({}) must beat BFS-AM ({})",
            ios[0],
            ios[1]
        );
    }
}
