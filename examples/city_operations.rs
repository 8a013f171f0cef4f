//! City operations dashboard — spatial windows, service areas and
//! traffic-adaptive reclustering on one CCAM database.
//!
//! Three operational questions a city traffic centre asks every day
//! (paper §1.1's application list), answered through the disk file with
//! page I/O counted:
//!
//! 1. *What is inside this map window?* — spatial window query via the
//!    Z-order secondary index (§2.1).
//! 2. *What can an ambulance reach within 8 minutes?* — a travel-time
//!    reachability ball (graph traversal, §1.2).
//! 3. *Traffic changed — re-optimize storage.* — re-weight the edges
//!    from the new route workload and recluster for WCRR.
//!
//! ```sh
//! cargo run --release --example city_operations
//! ```

use ccam::core::am::{AccessMethod, CcamBuilder};
use ccam::core::check::verify;
use ccam::core::query::spatial::SpatialIndex;
use ccam::core::query::traversal::{reachable_within, transitive_closure_from};
use ccam::graph::roadmap::minneapolis_like;
use ccam::graph::walks::{edge_weights_from_routes, random_walk_routes};

fn main() {
    let net = minneapolis_like(2077);
    let mut am = CcamBuilder::new(2048).build_static(&net).unwrap();
    println!(
        "city database: {} intersections, {} segments, {} pages, CRR = {:.3}\n",
        net.len(),
        net.num_edges(),
        am.file().num_pages(),
        am.crr().unwrap()
    );

    // 1. Map window: everything in the downtown quarter.
    am.file().pool().clear().unwrap();
    let before = am.stats().snapshot();
    let downtown = SpatialIndex::zorder()
        .window_records(am.file(), 800, 800, 1300, 1300)
        .unwrap();
    let io = am.stats().snapshot().since(&before).physical_reads;
    println!(
        "downtown window (800..1300)²: {} intersections retrieved with {} page accesses",
        downtown.len(),
        io
    );
    let degree: f64 = downtown
        .iter()
        .map(|n| n.successors.len() as f64)
        .sum::<f64>()
        / downtown.len().max(1) as f64;
    println!("  mean outgoing segments in window: {degree:.2}\n");

    // 2. Service area of a central fire station.
    let station = downtown[downtown.len() / 2].id;
    am.file().pool().clear().unwrap();
    let before = am.stats().snapshot();
    let ball = reachable_within(&am, station, 120).unwrap();
    let io = am.stats().snapshot().since(&before).physical_reads;
    println!(
        "service area of station {station}: {} intersections within 120 time units ({} page accesses)",
        ball.len(),
        io
    );
    let frontier = ball.iter().filter(|(_, d)| *d > 100).count();
    println!("  {frontier} of them at the 100+ fringe\n");

    // Reachability sanity: the whole city is reachable from the station.
    let closure = transitive_closure_from(&am, station).unwrap();
    println!(
        "full forward closure from the station covers {} / {} intersections\n",
        closure.len(),
        net.len()
    );

    // 3. New traffic pattern arrives: re-weight and recluster.
    let new_routes = random_walk_routes(&net, 150, 25, 9001);
    let weights = edge_weights_from_routes(&new_routes);
    let wcrr_before = am.wcrr(&weights).unwrap();
    let wcrr_after = am.reweight_and_reorganize(weights.clone()).unwrap();
    println!(
        "traffic refresh: WCRR under the new workload {wcrr_before:.3} -> {wcrr_after:.3} after reclustering"
    );

    // Route costs under the new placement (1-page buffer).
    am.file().pool().set_capacity(1).unwrap();
    let mut io = 0u64;
    for r in &new_routes[..50] {
        am.file().pool().clear().unwrap();
        let before = am.stats().snapshot();
        ccam::core::query::route::evaluate_route(&am, r).unwrap();
        io += am.stats().snapshot().since(&before).physical_reads;
    }
    println!(
        "  avg {:.2} page accesses per 25-stop route after refresh",
        io as f64 / 50.0
    );

    // End-of-day integrity audit.
    let report = verify(am.file()).unwrap();
    println!(
        "\nintegrity audit: {} records on {} pages — {}",
        report.records,
        report.pages,
        if report.is_clean() { "clean" } else { "ISSUES" }
    );
}
