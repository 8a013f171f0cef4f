//! Aggregate queries beyond single-route evaluation (paper §1.1 and the
//! §5 future-work list: "tour evaluation, location-allocation evaluation
//! etc.").
//!
//! * **Route-unit aggregates** — "several GIS support \[a\] special
//!   datatype of a route-unit which represents a collection of arcs with
//!   common characteristics. ... Processing aggregate queries over
//!   route-units may require the retrieval of all nodes and all edges in
//!   the specified route-units" (§1.1). Think: total ridership over a
//!   bus route, gas volume over a pipeline.
//! * **Tour evaluation** — a route that returns to its origin.
//! * **Location-allocation evaluation** — score candidate facility
//!   locations by total shortest-path cost to a set of demand nodes.

use std::collections::HashSet;

use ccam_graph::walks::Route;
use ccam_graph::{NodeId, RecordRef};
use ccam_storage::{PageStore, StorageResult};

use crate::am::AccessMethod;
use crate::query::route::{edge_cost, evaluate_route, RouteEvaluation};
use crate::query::search::dijkstra;

/// Aggregate over one route-unit (a set of directed arcs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouteUnitAggregate {
    /// Arcs found in the stored network.
    pub arcs_found: usize,
    /// Arcs referencing missing nodes/edges.
    pub arcs_missing: usize,
    /// Sum of edge costs over found arcs.
    pub total_cost: u64,
    /// Sum of the payload bytes of the distinct nodes touched (stand-in
    /// for "aggregate the attribute data over nodes", §1.1).
    pub node_payload_sum: u64,
    /// Distinct nodes retrieved.
    pub nodes_retrieved: usize,
}

/// Computes the aggregate properties of a route-unit given as directed
/// arcs `(from, to)`. Retrieves every referenced node through the access
/// method (using `Get-A-successor` buffering for arc targets).
pub fn route_unit_aggregate<S: PageStore>(
    am: &dyn AccessMethod<S>,
    arcs: &[(NodeId, NodeId)],
) -> StorageResult<RouteUnitAggregate> {
    Ok(route_unit_aggregate_bounded(am, arcs, &mut || false)?
        .expect("never-cancelling aggregation always completes"))
}

/// [`route_unit_aggregate`] with a cancellation hook for
/// deadline-bounded callers: `cancel` is polled once per arc, and a
/// `true` abandons the aggregation, returning `Ok(None)` (a partial
/// aggregate would be indistinguishable from a complete one — the
/// counts are the answer, so there is nothing useful to salvage).
pub fn route_unit_aggregate_bounded<S: PageStore>(
    am: &dyn AccessMethod<S>,
    arcs: &[(NodeId, NodeId)],
    cancel: &mut dyn FnMut() -> bool,
) -> StorageResult<Option<RouteUnitAggregate>> {
    let mut agg = RouteUnitAggregate::default();
    // A hash set: a wire request may carry 65 535 arcs.
    let mut seen: HashSet<NodeId> = HashSet::new();
    let file = am.file();
    for &(from, to) in arcs {
        if cancel() {
            return Ok(None);
        }
        // The arc's cost, and the payload sum of a node not yet
        // aggregated, are read in place.
        let fresh = !seen.contains(&from);
        let read = |rec: RecordRef<'_>| {
            let sum = fresh.then(|| payload_sum(rec));
            (edge_cost(rec, Some(to)), sum)
        };
        let found = if fresh {
            let _span = am.stats().span("find");
            file.with_record(from, read)?
        } else {
            // Already aggregated; still need the edge cost.
            let _span = am.stats().span("get_a_successor");
            file.with_record_buffered_first(from, read)?
        };
        let Some((_, (Some(cost), from_sum))) = found else {
            agg.arcs_missing += 1;
            continue;
        };
        agg.arcs_found += 1;
        agg.total_cost += cost as u64;
        if let Some(sum) = from_sum {
            agg.node_payload_sum += sum;
            agg.nodes_retrieved += 1;
            seen.insert(from);
        }
        if !seen.contains(&to) {
            let _span = am.stats().span("get_a_successor");
            if let Some((_, sum)) = file.with_record_buffered_first(to, payload_sum)? {
                agg.node_payload_sum += sum;
                agg.nodes_retrieved += 1;
                seen.insert(to);
            }
        }
    }
    Ok(Some(agg))
}

/// The sum of a record's payload bytes.
fn payload_sum(rec: RecordRef<'_>) -> u64 {
    rec.payload().iter().map(|&b| u64::from(b)).sum()
}

/// Evaluates a tour: a route whose last node must equal its first.
/// Returns `None` when the node sequence is not a closed tour.
pub fn evaluate_tour<S: PageStore>(
    am: &dyn AccessMethod<S>,
    tour: &Route,
) -> StorageResult<Option<RouteEvaluation>> {
    if tour.nodes.len() < 2 || tour.nodes.first() != tour.nodes.last() {
        return Ok(None);
    }
    Ok(Some(evaluate_route(am, tour)?))
}

/// One candidate's score in a location-allocation evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationScore {
    /// The candidate facility node.
    pub candidate: NodeId,
    /// Sum of shortest-path costs to every reachable demand node.
    pub total_cost: u64,
    /// Demand nodes unreachable from this candidate.
    pub unreachable: usize,
}

/// Location-allocation evaluation: scores each `candidate` facility by
/// the total shortest-path cost of serving all `demands`, best first.
/// Unreachable demands are counted rather than disqualifying (real road
/// networks have one-way pockets); ties break towards fewer unreachable
/// demands, then lower node id.
pub fn location_allocation<S: PageStore>(
    am: &dyn AccessMethod<S>,
    candidates: &[NodeId],
    demands: &[NodeId],
) -> StorageResult<Vec<AllocationScore>> {
    let mut scores = Vec::with_capacity(candidates.len());
    for &c in candidates {
        let mut total = 0u64;
        let mut unreachable = 0usize;
        for &d in demands {
            match dijkstra(am, c, d)? {
                Some(r) => total += r.cost,
                None => unreachable += 1,
            }
        }
        scores.push(AllocationScore {
            candidate: c,
            total_cost: total,
            unreachable,
        });
    }
    scores.sort_by_key(|s| (s.unreachable, s.total_cost, s.candidate));
    Ok(scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::am::CcamBuilder;
    use ccam_graph::generators::{grid_network, zorder_id};

    #[test]
    fn route_unit_totals() {
        let net = grid_network(4, 1, 1.0); // line of 4 nodes, unit costs
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let arcs = [
            (zorder_id(0, 0), zorder_id(1, 0)),
            (zorder_id(1, 0), zorder_id(2, 0)),
            (zorder_id(2, 0), zorder_id(3, 0)),
        ];
        let agg = route_unit_aggregate(&am, &arcs).unwrap();
        assert_eq!(agg.arcs_found, 3);
        assert_eq!(agg.arcs_missing, 0);
        assert_eq!(agg.total_cost, 3);
        assert_eq!(agg.nodes_retrieved, 4);

        // A wire-sized unit: 11 round trips along a 500-node line, 10 978
        // arcs over 500 distinct nodes, against sums from the model.
        let net = grid_network(500, 1, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let line: Vec<_> = (0..500).map(|x| zorder_id(x, 0)).collect();
        let there = line.windows(2).map(|w| (w[0], w[1]));
        let back = line.windows(2).rev().map(|w| (w[1], w[0]));
        let trip: Vec<_> = there.chain(back).collect();
        let arcs: Vec<_> = std::iter::repeat_n(trip, 11).flatten().collect();
        assert!(arcs.len() >= 10_000);
        let cost = |&(a, b): &(NodeId, NodeId)| {
            let e = net.node(a).unwrap().successors.iter().find(|e| e.to == b);
            e.unwrap().cost as u64
        };
        let payload: u64 = net
            .nodes()
            .flat_map(|n| n.payload.iter().map(|&b| b as u64))
            .sum();
        let want = RouteUnitAggregate {
            arcs_found: arcs.len(),
            arcs_missing: 0,
            total_cost: arcs.iter().map(cost).sum(),
            node_payload_sum: payload,
            nodes_retrieved: 500,
        };
        assert_eq!(route_unit_aggregate(&am, &arcs).unwrap(), want);
    }

    #[test]
    fn route_unit_cancellation_returns_none() {
        let net = grid_network(4, 1, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let arcs = [
            (zorder_id(0, 0), zorder_id(1, 0)),
            (zorder_id(1, 0), zorder_id(2, 0)),
        ];
        let mut polls = 0;
        let mut cancel = || {
            polls += 1;
            polls > 1
        };
        assert!(route_unit_aggregate_bounded(&am, &arcs, &mut cancel)
            .unwrap()
            .is_none());
        let full = route_unit_aggregate_bounded(&am, &arcs, &mut || false)
            .unwrap()
            .unwrap();
        assert_eq!(full, route_unit_aggregate(&am, &arcs).unwrap());
    }

    #[test]
    fn route_unit_tolerates_missing_arcs() {
        let net = grid_network(3, 3, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let arcs = [
            (zorder_id(0, 0), zorder_id(1, 0)),
            (zorder_id(0, 0), zorder_id(2, 2)), // not an edge
            (ccam_graph::NodeId(99999), zorder_id(0, 0)), // missing node
        ];
        let agg = route_unit_aggregate(&am, &arcs).unwrap();
        assert_eq!(agg.arcs_found, 1);
        assert_eq!(agg.arcs_missing, 2);
    }

    #[test]
    fn tour_requires_closure() {
        let net = grid_network(3, 3, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let open = Route {
            nodes: vec![zorder_id(0, 0), zorder_id(1, 0)],
        };
        assert!(evaluate_tour(&am, &open).unwrap().is_none());
        let closed = Route {
            nodes: vec![
                zorder_id(0, 0),
                zorder_id(1, 0),
                zorder_id(1, 1),
                zorder_id(0, 1),
                zorder_id(0, 0),
            ],
        };
        let eval = evaluate_tour(&am, &closed).unwrap().unwrap();
        assert!(eval.complete);
        assert_eq!(eval.total_cost, 4);
        assert_eq!(eval.nodes_visited, 5);
    }

    #[test]
    fn location_allocation_prefers_central_nodes() {
        let net = grid_network(5, 5, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let corner = zorder_id(0, 0);
        let center = zorder_id(2, 2);
        let demands: Vec<_> = [(0u32, 4u32), (4, 0), (4, 4), (0, 0), (2, 2)]
            .iter()
            .map(|&(x, y)| zorder_id(x, y))
            .collect();
        let scores = location_allocation(&am, &[corner, center], &demands).unwrap();
        assert_eq!(scores[0].candidate, center, "center serves demand cheaper");
        assert!(scores[0].total_cost < scores[1].total_cost);
        assert_eq!(scores[0].unreachable, 0);
    }
}
