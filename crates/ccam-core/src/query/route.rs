//! Route evaluation (paper §2.3, §4.3).
//!
//! "A route specifies a sequence of nodes n₁ … n_k and edges. ... it can
//! be processed as a sequence of Get-A-successor() operations, e.g.
//! Find(n₁), Get-A-successor(n₁, n₂), ..., Get-A-successor(n_{k−1},
//! n_k)." The aggregate property — total travel time here — "is a
//! function of the properties of the nodes and edges in the route."
//!
//! The Figure 6 experiment runs this with a single one-page buffer; the
//! caller sets the buffer capacity (`am.file().pool().set_capacity(1)`)
//! before evaluating.

use ccam_graph::walks::Route;
use ccam_graph::{NodeId, RecordRef};
use ccam_storage::{PageStore, StorageResult};

use crate::am::AccessMethod;

/// The result of evaluating one route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteEvaluation {
    /// Sum of the costs of the traversed edges (e.g. total travel time).
    pub total_cost: u64,
    /// Nodes actually visited (== route length when the route is valid).
    pub nodes_visited: usize,
    /// True when every edge of the route existed in the stored network.
    pub complete: bool,
}

/// Evaluates `route` over `am` as `Find` + `Get-A-successor` chain,
/// aggregating edge costs.
///
/// A route referencing a missing node or edge yields `complete ==
/// false` with the partial aggregate (real road databases hit this when
/// a segment is closed; queries must not fail outright).
pub fn evaluate_route<S: PageStore>(
    am: &dyn AccessMethod<S>,
    route: &Route,
) -> StorageResult<RouteEvaluation> {
    Ok(evaluate_route_bounded(am, route, &mut || false)?
        .expect("never-cancelling evaluation always completes"))
}

/// [`evaluate_route`] with a cancellation hook for deadline-bounded
/// callers: `cancel` is polled once per hop (i.e. per
/// `Get-A-successor`), and a `true` abandons the walk, returning
/// `Ok(None)` — distinct from a storage error, and from a complete
/// evaluation. A serving layer maps it to a deadline-exceeded status; a
/// long route over a cold buffer pool is otherwise unboundedly slow.
pub fn evaluate_route_bounded<S: PageStore>(
    am: &dyn AccessMethod<S>,
    route: &Route,
    cancel: &mut dyn FnMut() -> bool,
) -> StorageResult<Option<RouteEvaluation>> {
    let mut eval = RouteEvaluation {
        total_cost: 0,
        nodes_visited: 0,
        complete: true,
    };
    let Some(&first) = route.nodes.first() else {
        return Ok(Some(eval));
    };
    if cancel() {
        return Ok(None);
    }
    // Each record is read in place for one field: the cost of its edge
    // to the route's next node.
    let file = am.file();
    let found = {
        let _span = am.stats().span("find");
        file.with_record(first, |rec| edge_cost(rec, route.nodes.get(1).copied()))?
    };
    let Some((_, mut edge)) = found else {
        eval.complete = false;
        return Ok(Some(eval));
    };
    eval.nodes_visited = 1;
    for (i, &next_id) in route.nodes.iter().enumerate().skip(1) {
        if cancel() {
            return Ok(None);
        }
        let Some(cost) = edge else {
            eval.complete = false;
            break;
        };
        let next = {
            let _span = am.stats().span("get_a_successor");
            file.with_record_buffered_first(next_id, |rec| {
                edge_cost(rec, route.nodes.get(i + 1).copied())
            })?
        };
        let Some((_, next_edge)) = next else {
            eval.complete = false;
            break;
        };
        eval.total_cost += cost as u64;
        eval.nodes_visited += 1;
        edge = next_edge;
    }
    Ok(Some(eval))
}

/// The cost of `rec`'s edge to `to`, read in place; `None` when there is
/// no such edge (or no `to`).
pub(crate) fn edge_cost(rec: RecordRef<'_>, to: Option<NodeId>) -> Option<u32> {
    let to = to?;
    rec.successors().find(|e| e.to == to).map(|e| e.cost)
}

/// Convenience: evaluates a node-id sequence.
pub fn evaluate_path<S: PageStore>(
    am: &dyn AccessMethod<S>,
    nodes: &[NodeId],
) -> StorageResult<RouteEvaluation> {
    evaluate_route(
        am,
        &Route {
            nodes: nodes.to_vec(),
        },
    )
}

/// Convenience: [`evaluate_route_bounded`] over a node-id sequence.
pub fn evaluate_path_bounded<S: PageStore>(
    am: &dyn AccessMethod<S>,
    nodes: &[NodeId],
    cancel: &mut dyn FnMut() -> bool,
) -> StorageResult<Option<RouteEvaluation>> {
    evaluate_route_bounded(
        am,
        &Route {
            nodes: nodes.to_vec(),
        },
        cancel,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::am::CcamBuilder;
    use ccam_graph::generators::{grid_network, zorder_id};
    use ccam_graph::walks::random_walk_routes;

    #[test]
    fn straight_route_cost() {
        let net = grid_network(6, 1, 1.0); // a 6-node line, unit costs
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let nodes: Vec<_> = (0..6).map(|x| zorder_id(x, 0)).collect();
        let eval = evaluate_path(&am, &nodes).unwrap();
        assert!(eval.complete);
        assert_eq!(eval.nodes_visited, 6);
        assert_eq!(eval.total_cost, 5);
    }

    #[test]
    fn missing_edge_marks_incomplete() {
        let net = grid_network(4, 4, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        // (0,0) -> (3,3) is not an edge.
        let eval = evaluate_path(&am, &[zorder_id(0, 0), zorder_id(3, 3)]).unwrap();
        assert!(!eval.complete);
        assert_eq!(eval.nodes_visited, 1);
        assert_eq!(eval.total_cost, 0);
    }

    #[test]
    fn missing_start_marks_incomplete() {
        let net = grid_network(3, 3, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let eval = evaluate_path(&am, &[NodeId(u64::MAX)]).unwrap();
        assert!(!eval.complete);
        assert_eq!(eval.nodes_visited, 0);
    }

    #[test]
    fn cancellation_abandons_the_walk_with_none() {
        let net = grid_network(8, 1, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let nodes: Vec<_> = (0..8).map(|x| zorder_id(x, 0)).collect();
        // Cancel after three polls: the walk stops mid-route.
        let mut polls = 0;
        let mut cancel = || {
            polls += 1;
            polls > 3
        };
        let out = evaluate_path_bounded(&am, &nodes, &mut cancel).unwrap();
        assert!(out.is_none(), "cancelled evaluation must return None");
        // A never-firing hook reproduces the unbounded result exactly.
        let full = evaluate_path_bounded(&am, &nodes, &mut || false)
            .unwrap()
            .unwrap();
        assert_eq!(full, evaluate_path(&am, &nodes).unwrap());
    }

    #[test]
    fn empty_route_is_trivially_complete() {
        let net = grid_network(3, 3, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let eval = evaluate_path(&am, &[]).unwrap();
        assert!(eval.complete);
        assert_eq!(eval.nodes_visited, 0);
    }

    #[test]
    fn io_cost_matches_cost_model_shape() {
        // Route evaluation with a 1-page buffer costs
        // ~ 1 + (L-1)(1-α) page accesses (Table 3).
        let net = grid_network(12, 12, 1.0);
        let am = CcamBuilder::new(1024).build_static(&net).unwrap();
        let alpha = am.crr().unwrap();
        am.file().pool().set_capacity(1).unwrap();
        let routes = random_walk_routes(&net, 50, 20, 42);
        am.file().pool().clear().unwrap();
        let before = am.stats().snapshot();
        for r in &routes {
            am.file().pool().clear().unwrap(); // cold start per route
            let snap = am.stats().snapshot();
            let eval = evaluate_route(&am, r).unwrap();
            assert!(eval.complete);
            let _ = snap;
        }
        let total = am.stats().snapshot().since(&before).physical_reads as f64 - 0.0;
        let measured = total / routes.len() as f64;
        let predicted = 1.0 + 19.0 * (1.0 - alpha);
        // Generous envelope: the model is approximate (revisits help).
        assert!(
            measured <= predicted * 1.3 + 1.0,
            "measured {measured:.2} vs predicted {predicted:.2}"
        );
        assert!(measured >= 1.0);
    }
}
