//! Crash recovery: kill the store at arbitrary points during updates and
//! assert that reopening through the WAL restores a consistent database.
//!
//! The harness is `WalStore<FaultStore<FilePageStore>>`: the crash
//! controller schedules a "power failure" after the k-th physical
//! mutation, optionally tearing the page write it dies on, and undoing
//! a seeded half of the page writes no data sync covered (the store's
//! volatile-write class). A sweep over crash indices covers every phase
//! of the commit protocol — pass-through allocation (before logging),
//! the apply phase (after the batch is durable), and the inner sync —
//! plus the no-crash tail.
//!
//! Each round is a `ccam_testing` history, so after every
//! simulated crash the reopened file passes the full `check::verify`
//! audit and holds, record for record, the last committed state or that
//! state with the in-flight operation applied: no operation that
//! returned `Ok` is lost, the in-flight one is all-or-nothing, and no
//! other record changes.

use ccam::core::am::{AccessMethod, CcamBuilder};
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::Network;
use ccam::storage::{FilePageStore, TornWrite, WalStore};
use ccam_testing::{Driver, History, Outcome, Step, TempDir};

const BLOCK: usize = 512;

fn net() -> Network {
    road_map(&RoadMapConfig {
        grid_w: 9,
        grid_h: 9,
        removed_nodes: 2,
        target_segments: 120,
        target_directed: 210,
        cell: 64,
        jitter: 24,
        seed: 23,
    })
}

/// Runs `history` on a fresh logged page file of [`net`], its fault
/// store seeded with the history's seed, with a log cap of a few
/// batches so the history crosses checkpoints. The driver reopens
/// (replays) it after the crash and at the end.
fn crashes(history: &History) -> Outcome {
    ccam_testing::assert_history("crashes(&history)", history, |seed| {
        let dir = TempDir::new("ccam-rec");
        ccam_testing::create_durable(&dir, &CcamBuilder::new(BLOCK), BLOCK, &net());
        Driver::durable(dir, CcamBuilder::new(BLOCK), net(), Some(seed), || {})
    })
}

#[test]
fn crash_sweep_over_churn_recovers_every_time() {
    let modes = [TornWrite::None, TornWrite::Partial, TornWrite::Zeroed];
    // Churn: delete every ninth node, then put it back.
    let victims = net().len().div_ceil(9);
    let churn = (0..victims).flat_map(|j| [Step::DeleteNode(9 * j), Step::ReinsertNode(0)]);
    let mut crashed = 0;
    let ks = [0, 1, 2, 3, 5, 8, 12, 17, 23, 30, 40, 55, 75, 100, 150, 400];
    for (i, k) in ks.into_iter().enumerate() {
        let steps = std::iter::once(Step::Crash(k, modes[i % modes.len()]));
        crashed += crashes(&History::new(k, steps.chain(churn.clone()).collect())).crashes;
    }
    // The sweep must actually exercise crashes, not just the happy path.
    assert!(crashed >= 8, "only {crashed} rounds crashed");
}

/// Reorganization only moves records: whichever side of the crash the
/// file lands on, every node is present and identical.
#[test]
fn crash_mid_reorganization_recovers() {
    for k in [0u64, 4, 9, 20, 45] {
        crashes(&History::new(
            k,
            vec![Step::Crash(k, TornWrite::Partial), Step::ReorganizeFull],
        ));
    }
}

#[test]
fn torn_log_tail_is_truncated_not_fatal() {
    use std::io::Write;

    let net = net();
    let dir = TempDir::new("ccam-rec");
    let (path, wal) = (dir.path("db"), dir.path("wal"));
    ccam_testing::create_durable(&dir, &CcamBuilder::new(BLOCK), BLOCK, &net);

    // Fake a torn append: a frame header promising more bytes than were
    // ever written, followed by garbage.
    {
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&4096u32.to_le_bytes()).unwrap();
        f.write_all(&[0xAB; 24]).unwrap();
    }

    let store = FilePageStore::open(&path).unwrap();
    let (ws, report) = WalStore::open(store, &wal).unwrap();
    assert!(!report.was_clean());
    assert!(report.torn_bytes > 0, "torn tail not detected: {report:?}");
    assert_eq!(report.replayed_batches, 0);

    let am2 = CcamBuilder::new(BLOCK).open_on(ws).unwrap();
    ccam_testing::check(am2.file(), &net).unwrap();
    drop(am2);

    // A second open finds a clean, already-truncated log.
    let store = FilePageStore::open(&path).unwrap();
    let (_ws, report) = WalStore::open(store, &wal).unwrap();
    assert!(report.was_clean(), "second recovery not clean: {report:?}");
}
