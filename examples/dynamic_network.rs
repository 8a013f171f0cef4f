//! Dynamic network maintenance — the paper's §2.4 in action.
//!
//! A utility company's network grows and shrinks: new pipeline junctions
//! come online, old segments are decommissioned. The example runs the
//! same growth workload under each reorganization policy and shows the
//! I/O-vs-clustering trade-off of Table 1 / Figure 7, plus edge-level
//! maintenance and a persistent file on disk.
//!
//! ```sh
//! cargo run --release --example dynamic_network
//! ```

use ccam::core::am::{AccessMethod, CcamBuilder};
use ccam::core::reorg::ReorgPolicy;
use ccam::graph::generators::zorder_id;
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::{EdgeTo, NodeData};

fn main() {
    // A mid-size pipeline network.
    let net = road_map(&RoadMapConfig {
        grid_w: 15,
        grid_h: 15,
        removed_nodes: 3,
        target_segments: 330,
        target_directed: 580,
        cell: 64,
        jitter: 24,
        seed: 9,
    });
    println!(
        "pipeline network: {} junctions, {} segments\n",
        net.len(),
        net.num_edges()
    );

    println!("growth workload (40 new junctions) under each reorganization policy:");
    for policy in [
        ReorgPolicy::FirstOrder,
        ReorgPolicy::SecondOrder,
        ReorgPolicy::HigherOrder,
    ] {
        let mut am = CcamBuilder::new(1024)
            .policy(policy)
            .build_static(&net)
            .unwrap();
        let crr_before = am.crr().unwrap();
        let ids = net.node_ids();

        let mut io = 0u64;
        for k in 0..40u32 {
            // A new junction tapping into two existing ones.
            let (x, y) = (3000 + k * 17, 3000 + k * 13);
            let a = ids[(k as usize * 31) % ids.len()];
            let b = ids[(k as usize * 53 + 7) % ids.len()];
            let junction = NodeData {
                id: zorder_id(x, y),
                x,
                y,
                payload: vec![k as u8; 6],
                successors: vec![EdgeTo { to: a, cost: 5 }],
                predecessors: vec![b],
            };
            am.file().pool().clear().unwrap();
            let before = am.stats().snapshot();
            am.insert_node(&junction, &[(b, 5)]).unwrap();
            am.file().pool().flush_all().unwrap();
            let d = am.stats().snapshot().since(&before);
            io += d.physical_reads + d.physical_writes;
        }
        println!(
            "  {:12}  avg {: >5.2} page I/O per insert, CRR {:.3} -> {:.3}",
            policy.name(),
            io as f64 / 40.0,
            crr_before,
            am.crr().unwrap()
        );
    }

    // Edge maintenance: a segment is decommissioned, a bypass built.
    let mut am = CcamBuilder::new(1024).build_static(&net).unwrap();
    let some_edge = net.edges().next().unwrap();
    let removed = am.delete_edge(some_edge.0, some_edge.1).unwrap();
    println!(
        "\ndecommissioned segment {} -> {} (cost {:?})",
        some_edge.0, some_edge.1, removed
    );
    let ids = net.node_ids();
    let (p, q) = (ids[3], ids[ids.len() - 4]);
    if am.insert_edge(p, q, 9).unwrap() {
        println!("built bypass {p} -> {q} (cost 9)");
    }

    // The file persists to a real page file and reopens from it,
    // records and record format intact.
    let path = std::env::temp_dir().join("ccam-dynamic-network.db");
    am.file().save_to(&path).unwrap();
    let reopened = CcamBuilder::new(1024)
        .open_on(ccam::storage::FilePageStore::open(&path).unwrap())
        .unwrap();
    println!(
        "\npersisted {} {} records across {} pages to {}",
        reopened.file().len(),
        reopened.file().codec().name(),
        reopened.file().num_pages(),
        path.display()
    );
    std::fs::remove_file(&path).ok();
}
