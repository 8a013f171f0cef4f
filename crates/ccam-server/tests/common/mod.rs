//! Helpers shared by the server's socket suites and its unit tests.
#![allow(dead_code)]

use std::time::{Duration, Instant};

use ccam_graph::{Network, NodeId};

/// Polls `cond` until it holds; panics at the caller if it has not
/// within 10 s.
#[track_caller]
pub fn wait_until(mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "condition never held");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A 50 000-node route back and forth over a two-way street whose ends
/// both satisfy `usable`: real edges, so an evaluation genuinely runs to
/// the end (~8 ms in a release build, ~60 ms in a debug one).
pub fn ping_pong(net: &Network, usable: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
    let (a, b) = net
        .nodes()
        .filter(|n| usable(n.id))
        .find_map(|n| {
            n.successors
                .iter()
                .map(|e| e.to)
                .find(|&to| {
                    usable(to)
                        && net
                            .node(to)
                            .is_some_and(|m| m.successors.iter().any(|e| e.to == n.id))
                })
                .map(|to| (n.id, to))
        })
        .expect("road map has a two-way street");
    (0..50_000)
        .map(|i| if i % 2 == 0 { a } else { b })
        .collect()
}
