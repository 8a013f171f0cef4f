//! Aggregate queries on networks (paper §1, §2.3 and the future-work
//! queries of §5).
//!
//! * [`route`] — route evaluation: `Find(n₁)` followed by a chain of
//!   `Get-A-successor()` calls, the paper's flagship IVHS query,
//! * [`search`] — graph search over an access method: Dijkstra and A*
//!   (the `Get-successors()` consumers of §1.2),
//! * [`aggregate`] — tour evaluation, route-unit aggregates and
//!   location-allocation evaluation (§5),
//! * [`spatial`] — window queries as Z-order range scans of the node-id
//!   B⁺-tree (§2.1's secondary index),
//! * [`traversal`] — graph traversal, reachability balls and transitive
//!   closure (the related-work path computations of §1.2).

pub mod aggregate;
pub mod route;
pub mod search;
pub mod spatial;
pub mod traversal;

pub use aggregate::{
    evaluate_tour, location_allocation, route_unit_aggregate, route_unit_aggregate_bounded,
};
pub use route::{evaluate_route, evaluate_route_bounded, RouteEvaluation};
pub use search::{a_star, dijkstra, SearchResult};
pub use spatial::SpatialIndex;
pub use traversal::{reachable_hops, reachable_within, transitive_closure_from};
