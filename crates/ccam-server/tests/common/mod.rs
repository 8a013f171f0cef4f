//! Helpers shared by the server's socket suites and its unit tests.
#![allow(dead_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ccam_graph::{Network, NodeId};
use ccam_storage::{MemPageStore, PageStore, WalStore};

/// What every served database sits on, in memory: a page store under
/// its write-ahead log.
pub type WalMem = WalStore<MemPageStore>;

/// A [`WalMem`] over a fresh log (see [`logged`]).
pub fn wal_mem(page_size: usize) -> WalMem {
    logged(MemPageStore::new(page_size).unwrap())
}

/// `inner` under a fresh log in the temp directory. The log's path is
/// unlinked at once (the open handle keeps the file), so nothing is
/// left behind however the test ends.
pub fn logged<S: PageStore>(inner: S) -> WalStore<S> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "ccam-server-test-{}-{}.wal",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let store = WalStore::create(inner, &path).unwrap();
    std::fs::remove_file(&path).unwrap();
    store
}

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
