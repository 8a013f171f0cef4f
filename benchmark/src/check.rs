//! Answer checking against the in-memory [`Network`], which is the
//! reference model of what the database must hold.
//!
//! Every response gets its status checked; one batch in
//! [`crate::spec::VALIDATE_EVERY`] is compared field by field. Refusals
//! and wrong answers both count as failures in `success_ratio`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use ccam_core::query::aggregate::RouteUnitAggregate;
use ccam_core::query::route::RouteEvaluation;
use ccam_core::query::search::SearchResult;
use ccam_graph::{Network, NodeData, NodeId};
use ccam_server::protocol::{Request, Response};

/// Attempted and failed operation counts of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations attempted (requests sent, calls made, records
    /// re-read after reopening).
    pub attempted: u64,
    /// Of those, refused, errored or answered wrongly.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Folds another tally in.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Correct answers over attempts.
    pub fn success_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// True when `resp` is the successful variant for `req` — the cheap
/// check every response gets.
pub fn status_ok(req: &Request, resp: &Response) -> bool {
    matches!(
        (req, resp),
        (Request::Find(_), Response::Record(_))
            | (Request::GetSuccessors(_), Response::Records(_))
            | (Request::Route(_), Response::RouteEval { .. })
            | (Request::RangeAggregate(_), Response::Aggregate { .. })
            | (Request::Upsert { .. }, Response::Upserted { .. })
            | (Request::Stats, Response::StatsJson(_))
    )
}

/// Record equality up to list order: deleting and re-inserting a node
/// re-appends it to its neighbours' lists, which permutes them.
pub fn same_node(a: &NodeData, b: &NodeData, compare_payload: bool) -> bool {
    fn sorted<T: Ord + Copy>(v: impl Iterator<Item = T>) -> Vec<T> {
        let mut v: Vec<T> = v.collect();
        v.sort_unstable();
        v
    }
    a.id == b.id
        && a.x == b.x
        && a.y == b.y
        && (!compare_payload || a.payload == b.payload)
        && sorted(a.successors.iter().map(|e| (e.to, e.cost)))
            == sorted(b.successors.iter().map(|e| (e.to, e.cost)))
        && sorted(a.predecessors.iter().copied()) == sorted(b.predecessors.iter().copied())
}

/// Sum of the edge costs along `nodes` in the model, or `None` when an
/// edge is missing.
fn path_cost(net: &Network, nodes: &[NodeId]) -> Option<u64> {
    nodes.windows(2).try_fold(0u64, |sum, w| {
        let edge = net.node(w[0])?.successors.iter().find(|e| e.to == w[1])?;
        Some(sum + u64::from(edge.cost))
    })
}

/// Expected `RangeAggregate` answer for `arcs` (all arcs exist in the
/// generated lists): `(total_cost, distinct nodes, payload byte sum)`.
fn aggregate_expectation(net: &Network, arcs: &[(NodeId, NodeId)]) -> Option<(u64, usize, u64)> {
    let mut cost = 0u64;
    let mut seen: Vec<NodeId> = Vec::new();
    let mut payload_sum = 0u64;
    for &(from, to) in arcs {
        let edge = net.node(from)?.successors.iter().find(|e| e.to == to)?;
        cost += u64::from(edge.cost);
        for id in [from, to] {
            if !seen.contains(&id) {
                seen.push(id);
                payload_sum += net
                    .node(id)?
                    .payload
                    .iter()
                    .map(|&b| u64::from(b))
                    .sum::<u64>();
            }
        }
    }
    Some((cost, seen.len(), payload_sum))
}

/// Full content check of one served read. Nodes in `volatile` may be
/// mid-rewrite by a concurrent writer, so their payload bytes (and sums
/// over them) are not compared.
pub fn read_matches(
    net: &Network,
    req: &Request,
    resp: &Response,
    volatile: &HashSet<NodeId>,
) -> bool {
    match (req, resp) {
        (Request::Find(id), Response::Record(rec)) => net
            .node(*id)
            .is_some_and(|want| same_node(want, rec, !volatile.contains(id))),
        (Request::GetSuccessors(id), Response::Records(recs)) => net.node(*id).is_some_and(|n| {
            recs.len() == n.successors.len()
                && n.successors.iter().all(|e| {
                    recs.iter().any(|r| {
                        r.id == e.to
                            && net
                                .node(e.to)
                                .is_some_and(|want| same_node(want, r, !volatile.contains(&e.to)))
                    })
                })
        }),
        (
            Request::Route(nodes),
            Response::RouteEval {
                total_cost,
                nodes_visited,
                complete,
            },
        ) => {
            *complete
                && *nodes_visited as usize == nodes.len()
                && path_cost(net, nodes) == Some(*total_cost)
        }
        (
            Request::RangeAggregate(arcs),
            Response::Aggregate {
                arcs_found,
                arcs_missing,
                total_cost,
                node_payload_sum,
                nodes_retrieved,
            },
        ) => aggregate_expectation(net, arcs).is_some_and(|(cost, distinct, payload_sum)| {
            let touches_volatile = arcs
                .iter()
                .any(|(a, b)| volatile.contains(a) || volatile.contains(b));
            *arcs_found as usize == arcs.len()
                && *arcs_missing == 0
                && *total_cost == cost
                && *nodes_retrieved as usize == distinct
                && (touches_volatile || *node_payload_sum == payload_sum)
        }),
        _ => false,
    }
}

/// Content check of a direct `evaluate_route` answer.
pub fn route_matches(net: &Network, nodes: &[NodeId], eval: &RouteEvaluation) -> bool {
    eval.complete
        && eval.nodes_visited == nodes.len()
        && path_cost(net, nodes) == Some(eval.total_cost)
}

/// Content check of a direct `route_unit_aggregate` answer.
pub fn aggregate_matches(
    net: &Network,
    arcs: &[(NodeId, NodeId)],
    agg: &RouteUnitAggregate,
) -> bool {
    aggregate_expectation(net, arcs).is_some_and(|(cost, distinct, payload_sum)| {
        agg.arcs_found == arcs.len()
            && agg.arcs_missing == 0
            && agg.total_cost == cost
            && agg.nodes_retrieved == distinct
            && agg.node_payload_sum == payload_sum
    })
}

/// Content check of a direct window query: exactly the model's nodes
/// inside `[x0, y0, x1, y1]`, each with the right record.
pub fn window_matches(net: &Network, window: [u32; 4], recs: &[NodeData]) -> bool {
    let [x0, y0, x1, y1] = window;
    let inside = |n: &NodeData| n.x >= x0 && n.x <= x1 && n.y >= y0 && n.y <= y1;
    net.nodes().filter(|n| inside(n)).count() == recs.len()
        && recs
            .iter()
            .all(|r| inside(r) && net.node(r.id).is_some_and(|want| same_node(want, r, true)))
}

/// Shortest-path cost in the model (plain Dijkstra), the reference for
/// the A* answers.
fn shortest_cost(net: &Network, from: NodeId, to: NodeId) -> Option<u64> {
    let mut dist: HashMap<NodeId, u64> = HashMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(from, 0);
    heap.push(Reverse((0u64, from)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if v == to {
            return Some(d);
        }
        if dist.get(&v).is_some_and(|&best| best < d) {
            continue;
        }
        for e in &net.node(v)?.successors {
            let nd = d + u64::from(e.cost);
            if dist.get(&e.to).is_none_or(|&best| nd < best) {
                dist.insert(e.to, nd);
                heap.push(Reverse((nd, e.to)));
            }
        }
    }
    None
}

/// Content check of a direct `a_star` answer: a real path of the model
/// from `from` to `to` whose cost is the shortest one.
pub fn search_matches(
    net: &Network,
    from: NodeId,
    to: NodeId,
    found: Option<&SearchResult>,
) -> bool {
    let Some(found) = found else {
        return false;
    };
    found.path.first() == Some(&from)
        && found.path.last() == Some(&to)
        && path_cost(net, &found.path) == Some(found.cost)
        && shortest_cost(net, from, to) == Some(found.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccam_graph::generators::grid_network;
    use ccam_graph::generators::zorder_id;

    #[test]
    fn same_node_ignores_list_order_only() {
        let net = grid_network(3, 3, 1.0);
        let a = net.node(zorder_id(1, 1)).unwrap().clone();
        let mut b = a.clone();
        b.successors.reverse();
        b.predecessors.reverse();
        assert!(same_node(&a, &b, true));
        b.payload = vec![9; 8];
        assert!(!same_node(&a, &b, true));
        assert!(same_node(&a, &b, false));
        b.successors.pop();
        assert!(!same_node(&a, &b, false));
    }

    #[test]
    fn wrong_answers_are_rejected() {
        let net = grid_network(4, 4, 1.0);
        let none = HashSet::new();
        let walk = vec![zorder_id(0, 0), zorder_id(1, 0), zorder_id(1, 1)];
        let good = Response::RouteEval {
            total_cost: 2,
            nodes_visited: 3,
            complete: true,
        };
        let bad = Response::RouteEval {
            total_cost: 3,
            nodes_visited: 3,
            complete: true,
        };
        assert!(read_matches(
            &net,
            &Request::Route(walk.clone()),
            &good,
            &none
        ));
        assert!(!read_matches(
            &net,
            &Request::Route(walk.clone()),
            &bad,
            &none
        ));
        assert!(!status_ok(
            &Request::Find(walk[0]),
            &Response::Error(
                ccam_server::protocol::Status::Overloaded,
                ccam_server::protocol::OpCode::Find
            )
        ));
        assert_eq!(
            shortest_cost(&net, zorder_id(0, 0), zorder_id(3, 3)),
            Some(6)
        );
    }
}
