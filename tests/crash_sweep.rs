//! Deterministic crash-sweep harness (see also `tests/recovery.rs`).
//!
//! Every round is a `ccam_testing` history over a copy of one
//! golden database: a crash (or `ENOSPC`) step at the store's k-th
//! mutation, then a seeded delete/reinsert churn under **each of the
//! four reorganization policies**. The strided tests sweep a subset of
//! k (dense early, where the commit protocol's phases live); the
//! `#[ignore]`d `exhaustive_*` variants sweep every k until a round
//! outlives its history and back the CI `crash-sweep` job. Crash
//! rounds tear or not, with the store's volatile-write class armed, so
//! a log truncated ahead of the data file loses a commit
//! (`truncating_before_the_data_sync_…` does it by hand and watches the
//! model check fail).
//!
//! `enospc_between_steps_…` fills the disk at every step boundary of a
//! history whose steps allocate more than one page each now and then,
//! so a refused allocation follows one its batch already made.
//!
//! The driver checks after every step, the crash and the refused write
//! that the file holds the last committed state or that state with the
//! in-flight step applied, audits clean and keeps CRR/WCRR in [0, 1];
//! where the step's batch never reached the log, the live pages must be
//! the last commit's too.
//! The first reopen of a crash round also checks that **recovery is
//! idempotent**: two recoveries of copies of the crashed files, and a
//! second of the same copy, give identical page bytes and indexes.
//! Histories come from [`SweepRng`] seeded by `CRASH_SWEEP_SEED`
//! (default 23): no OS entropy, no clocks.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use ccam::core::am::{AccessMethod, CcamBuilder};
use ccam::core::{check, ReorgPolicy};
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::{Network, NodeId, RecordCodec};
use ccam::storage::recovery::live_snapshot;
use ccam::storage::{
    FaultStore, FilePageStore, MemPageStore, PageId, PageStore, StorageError, SweepRng, TornWrite,
    Wal, WalControl, WalStore,
};
use ccam_testing::{
    self, assert_history, create_durable, open_durable, Driver, Durable, History, Outcome, Step,
    TempDir, Violation,
};

const BLOCK: usize = 512;
const CHURN_OPS: usize = 12;
/// Node deletes and reinserts, alike.
const CHURN: &[(u64, Step)] = &[(1, Step::DeleteNode(0)), (1, Step::ReinsertNode(0))];

/// Every policy from Table 1, with a short lazy trigger so the sweep
/// actually crosses lazy sweeps.
const POLICIES: [(ReorgPolicy, &str); 4] = [
    (ReorgPolicy::FirstOrder, "first"),
    (ReorgPolicy::SecondOrder, "second"),
    (ReorgPolicy::HigherOrder, "higher"),
    (ReorgPolicy::Lazy { every: 3 }, "lazy"),
];

fn sweep_seed() -> u64 {
    std::env::var("CRASH_SWEEP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(23)
}

/// ~200-node Minneapolis-proportioned road map (14×14 lattice − 1%).
fn net() -> Network {
    road_map(&RoadMapConfig::scaled(14, sweep_seed()))
}

/// `(page snapshot, index page map, replayed batches)` from [`recover`].
type RecoveredState = (Vec<(PageId, Vec<u8>)>, Vec<(NodeId, PageId)>, u64);

/// Recovers `db`+`wal` and returns the [`RecoveredState`]. The snapshot
/// is taken through the recovered store — the byte truth an idempotency
/// comparison needs.
fn recover(db: &Path, wal: &Path) -> RecoveredState {
    let store = FilePageStore::open(db).unwrap();
    let (ws, report) = WalStore::open(store, wal).unwrap();
    let snapshot = live_snapshot(&ws).unwrap();
    let am = CcamBuilder::new(BLOCK).open_on(ws).unwrap();
    let audit = check::verify(am.file()).unwrap();
    assert!(
        audit.is_clean(),
        "recovered file fails audit: {:?}",
        audit.issues
    );
    let mut map: Vec<(NodeId, PageId)> = am.file().page_map().unwrap().into_iter().collect();
    map.sort();
    (snapshot, map, report.replayed_batches)
}

/// Recovers two independent copies of the crashed files, and the first
/// twice: identical bytes and indexes, and nothing left to replay.
fn assert_recovery_is_idempotent(db: &Path, wal: &Path, twin: &(PathBuf, PathBuf)) {
    // The copy is taken *before* any recovery touches the files.
    std::fs::copy(db, &twin.0).unwrap();
    std::fs::copy(wal, &twin.1).unwrap();
    let (snap_a, map_a, _) = recover(db, wal);
    let (snap_b, map_b, _) = recover(&twin.0, &twin.1);
    assert_eq!(snap_a, snap_b, "two recoveries of the same crash diverge");
    assert_eq!(map_a, map_b, "recovered indexes diverge");
    // Recovering an already-recovered file changes nothing.
    let (snap_c, map_c, replayed) = recover(db, wal);
    assert_eq!(replayed, 0, "second recovery replayed batches");
    assert_eq!(snap_a, snap_c, "re-recovery changed page bytes");
    assert_eq!(map_a, map_c, "re-recovery changed the index");
}

/// A committed golden database all rounds start from (one build, many
/// copies — the sweep would be quadratic if every round rebuilt).
struct Golden {
    net: Network,
    /// The Rust expression that builds `net`, for a pasted history.
    source: String,
    codec: RecordCodec,
    dir: TempDir,
}

impl Golden {
    /// `net` stored in `codec`, whose records a leaked zero-filled page
    /// would decode as none in the paper's format, and as a page in the
    /// wrong codec in the compact one.
    fn build(net: Network, source: &str, codec: RecordCodec) -> Golden {
        let dir = TempDir::new("ccam-sweep");
        create_durable(&dir, &CcamBuilder::new(BLOCK).codec(codec), BLOCK, &net);
        let (_, _, report) = open_durable(&dir.path(""), &CcamBuilder::new(BLOCK), None);
        assert!(report.was_clean(), "golden copy must open clean");
        let source = source.to_string();
        Golden {
            net,
            source,
            codec,
            dir,
        }
    }

    /// A driver over a round-private copy of the golden files. A crash
    /// round (`seed` given) checks recovery idempotency at its first
    /// reopen: after the crash, or at the end when none fired.
    fn driver(&self, policy: ReorgPolicy, seed: Option<u64>) -> Driver<Durable> {
        let dir = TempDir::new("ccam-sweep");
        let (db, wal) = (dir.path("db"), dir.path("wal"));
        std::fs::copy(self.dir.path("db"), &db).unwrap();
        std::fs::copy(self.dir.path("wal"), &wal).unwrap();
        let twin = (dir.path("twin.db"), dir.path("twin.wal"));
        let mut idempotent = seed.is_none();
        let builder = CcamBuilder::new(BLOCK).policy(policy);
        Driver::durable(dir, builder, self.net.clone(), seed, move || {
            if !std::mem::replace(&mut idempotent, true) {
                assert_recovery_is_idempotent(&db, &wal, &twin);
            }
        })
    }

    /// Runs `history`: a crash round (the power cut armed, its seed the
    /// history's), or a disk-full round.
    fn run(&self, history: &History, policy: ReorgPolicy, crash: bool) -> Outcome {
        let call = format!(
            "Golden::build({0}, \"{0}\", RecordCodec::{1:?}).run(&history, ReorgPolicy::{policy:?}, {crash})",
            self.source, self.codec
        );
        assert_history(&call, history, |seed| {
            self.driver(policy, crash.then_some(seed))
        })
    }
}

/// `first` followed by a seeded churn of node deletes and reinserts.
fn churn(first: Step, seed: u64) -> History {
    let mut history = History::generate(seed, CHURN_OPS, CHURN);
    history.steps.insert(0, first);
    history
}

/// One crash round at index `k`: the churn under `policy` with a power
/// failure scheduled. True when the crash fired (false = the round
/// outlived the history).
fn crash_round(golden: &Golden, policy: ReorgPolicy, k: u64, mode: TornWrite) -> bool {
    let history = churn(Step::Crash(k, mode), sweep_seed() ^ k);
    golden.run(&history, policy, true).crashes > 0
}

/// One disk-full round: the store reports `ENOSPC` (optionally after a
/// short write) from the k-th mutation on. No power failure — the
/// process survives, so the failed step must abort gracefully and, once
/// space is freed, the same handle runs one more step (the refused one
/// again if it was rolled back) and is checked. True when a step hit
/// the full disk.
fn enospc_round(golden: &Golden, policy: ReorgPolicy, k: u64, short_write: bool) -> bool {
    let history = churn(Step::NoSpace(k, short_write), sweep_seed() ^ k);
    golden.run(&history, policy, false).no_space > 0
}

/// Disk-full rounds at every step boundary of a history that grows
/// records spread over the file by 63 bytes each, then reclusters the
/// whole file: the device fills after one more mutation. Before a batch
/// reaches the log only its allocations reach the store, so a step that
/// allocates twice (a grown record that fits on no page, then a
/// neighbour's; a reclustering that needs more pages) has its second
/// allocation refused, and its rollback must give back the first — the
/// driver checks that the live pages are the last commit's.
fn enospc_rounds_between_steps(golden: &Golden, policy: ReorgPolicy) -> u64 {
    let grows = (0..CHURN_OPS).map(|i| Step::Grow(7 * i, 63));
    let history = History::new(sweep_seed(), grows.chain([Step::ReorganizeFull]).collect());
    (0..history.steps.len())
        .map(|at| {
            let mut round = history.clone();
            round.steps.insert(at, Step::NoSpace(1, at % 2 == 1));
            golden.run(&round, policy, false).no_space
        })
        .sum()
}

/// Sweeps `k = 0, 1, 2, …` until a round outlives the workload, calling
/// `round` for each. Returns the number of rounds that failed/crashed.
fn sweep_every_k(mut round: impl FnMut(u64) -> bool, max_k: u64) -> u64 {
    let mut fired = 0;
    for k in 0..=max_k {
        if round(k) {
            fired += 1;
        } else {
            return fired;
        }
    }
    panic!("workload still crashing at k={max_k}: sweep bound too low");
}

/// Strided crash indices for the fast default tests: every boundary of
/// the early commit-protocol phases, then exponentially sparser.
fn strided_ks() -> Vec<u64> {
    let mut ks: Vec<u64> = (0..16).collect();
    let mut k = 20u64;
    while k < 2_000 {
        ks.push(k);
        k += k / 4;
    }
    ks
}

#[test]
fn crash_sweep_strided_all_policies() {
    let golden = Golden::build(net(), "net()", RecordCodec::Compact);
    let modes = [TornWrite::None, TornWrite::Partial, TornWrite::Zeroed];
    for (policy, pname) in POLICIES {
        let mut crashes = 0;
        for (i, &k) in strided_ks().iter().enumerate() {
            if !crash_round(&golden, policy, k, modes[i % modes.len()]) {
                break;
            }
            crashes += 1;
        }
        assert!(crashes >= 8, "{pname}: only {crashes} rounds crashed");
    }
}

#[test]
fn enospc_sweep_strided_all_policies() {
    let golden = Golden::build(net(), "net()", RecordCodec::Compact);
    for (policy, pname) in POLICIES {
        let mut hits = 0;
        for (i, &k) in strided_ks().iter().enumerate() {
            if !enospc_round(&golden, policy, k, i % 2 == 1) {
                break;
            }
            hits += 1;
        }
        assert!(hits >= 8, "{pname}: only {hits} rounds hit ENOSPC");
    }
}

/// On the paper codec, where only the driver's live-page check can see
/// a pass-through allocation that outlived its rollback.
#[test]
fn enospc_between_steps_all_policies() {
    let golden = Golden::build(net(), "net()", RecordCodec::Paper);
    for (policy, pname) in POLICIES {
        let hits = enospc_rounds_between_steps(&golden, policy);
        assert!(hits >= 8, "{pname}: only {hits} rounds hit ENOSPC");
    }
}

/// The exhaustive variant behind the CI `crash-sweep` job: every crash
/// index, every torn-write mode, every policy. Run with
/// `cargo test --release --test crash_sweep -- --ignored`.
#[test]
#[ignore = "exhaustive; run by the CI crash-sweep job"]
fn exhaustive_crash_sweep_every_k() {
    let golden = Golden::build(net(), "net()", RecordCodec::Compact);
    for (policy, pname) in POLICIES {
        for mode in [TornWrite::None, TornWrite::Partial, TornWrite::Zeroed] {
            let fired = sweep_every_k(|k| crash_round(&golden, policy, k, mode), 5_000);
            assert!(fired > 0, "{pname} {mode:?}: sweep never crashed");
        }
    }
}

#[test]
#[ignore = "exhaustive; run by the CI crash-sweep job"]
fn exhaustive_enospc_sweep_every_k() {
    let golden = Golden::build(net(), "net()", RecordCodec::Compact);
    for (policy, pname) in POLICIES {
        for short in [false, true] {
            let fired = sweep_every_k(|k| enospc_round(&golden, policy, k, short), 5_000);
            assert!(fired > 0, "{pname} short={short}: sweep never filled");
        }
    }
}

/// What the volatile-write class is for. A commit of page images does
/// not sync the data file; the log covers it until a checkpoint syncs,
/// *then* truncates. Do those two in the wrong order by hand — cut the
/// log, power off before the data sync — and a committed delete is
/// gone: the file still audits clean, and the model check says what is
/// missing. (Without the class every issued write survives the cut and
/// this ordering bug is invisible.)
#[test]
fn truncating_before_the_data_sync_loses_a_commit_and_the_ledger_shows_it() {
    let golden = Golden::build(net(), "net()", RecordCodec::Compact);
    let wal = golden.dir.path("wal");
    let builder = CcamBuilder::new(BLOCK).policy(ReorgPolicy::FirstOrder);
    let (am, ctl, _) = open_durable(&golden.dir.path(""), &builder, Some(sweep_seed()));
    // Every write the cut can undo, it does.
    ctl.set_volatile_writes(1024);
    let mut driver = Driver::new(am, golden.net.clone());

    // Delete nodes until one commit is page images only: no data sync.
    let data_syncs = || ctl.syncs.load(Ordering::Relaxed);
    let unsynced = loop {
        let (victim, synced) = (driver.model().node_ids()[0], data_syncs());
        driver.step(&Step::DeleteNode(0)).unwrap();
        if data_syncs() == synced {
            break victim;
        }
    };
    assert!(driver.with_file(|f| f.pool().with_store(|s| !s.log().is_empty())));

    // The wrong order: truncate first…
    let (mut log, _) = Wal::open(&wal, BLOCK).unwrap();
    log.checkpoint().unwrap();
    drop(log);
    // …and the power goes before the data sync.
    ctl.crash_after(0, TornWrite::None);
    assert!(driver
        .with_file(|f| f.pool().with_store_mut(|s| s.checkpoint()))
        .is_err());
    assert!(ctl.is_dead());
    let committed = driver.committed().clone();
    std::mem::forget(driver);

    let (am2, _, report) = open_durable(&golden.dir.path(""), &CcamBuilder::new(BLOCK), None);
    assert_eq!(report.replayed_batches, 0, "the log was cut");
    assert!(check::verify(am2.file()).unwrap().is_clean());
    let violation = ccam_testing::check(am2.file(), &committed).unwrap_err();
    assert!(
        matches!(&violation, Violation::Records(diffs)
            if diffs.iter().any(|(id, model, file)| *id == unsynced && model.is_none() && file.is_some())),
        "the check missed the lost delete of {unsynced}: {violation:?}"
    );
}

/// Acceptance: across a 10 000-update workload the log never exceeds
/// the configured cap by more than one transaction's frames, while
/// every committed byte stays durable in the data file.
#[test]
fn bounded_wal_holds_cap_across_10k_updates() {
    let dir = TempDir::new("ccam-sweep");
    let mut s = WalStore::create(MemPageStore::new(64).unwrap(), &dir.path("wal")).unwrap();
    const CAP: u64 = 4 * 1024;
    s.set_max_wal_bytes(Some(CAP));
    let mut rng = SweepRng::new(sweep_seed());
    let mut pages = Vec::new();
    for _ in 0..8 {
        pages.push(s.allocate().unwrap());
    }
    s.sync().unwrap();
    // One batch = a handful of page images ≤ 8 × (frame + page) bytes.
    let one_txn = 8 * (64 + 32) as u64;
    for i in 0..10_000u64 {
        let n = 1 + rng.gen_range(3) as usize;
        for _ in 0..n {
            let p = pages[rng.gen_range(pages.len() as u64) as usize];
            s.write(p, &[(i % 251) as u8; 64]).unwrap();
        }
        s.sync().unwrap();
        let len = s.log().len();
        assert!(
            len <= CAP + one_txn,
            "update {i}: wal grew to {len} (cap {CAP})"
        );
    }
    let info = s.info();
    assert!(info.checkpoints > 10, "cap never cycled: {info:?}");
    assert!(info.commits >= 10_000);
}

/// Property form of the idempotency guarantee: for *any* workload seed,
/// crash index, torn-write mode and reorganization policy, recovering
/// the crashed pair twice — two independent copies, and the same copy
/// again after it already recovered — yields byte-identical page files
/// and the same rebuilt index. Complements the store-level
/// `wal_replay_is_idempotent` in ccam-storage/tests/prop_storage.rs by
/// covering the full access-method stack.
mod prop_recovery {
    use super::*;
    use proptest::prelude::*;

    /// Each case builds and crashes a whole database; keep the local
    /// default modest and let CI elevate via `PROPTEST_CASES`.
    fn proptest_cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(16)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]
        #[test]
        fn recovery_is_idempotent_after_any_crash(
            seed in any::<u64>(),
            k in 0u64..600,
            mode_ix in 0usize..3,
            policy_ix in 0usize..POLICIES.len(),
        ) {
            let mode = [TornWrite::None, TornWrite::Partial, TornWrite::Zeroed][mode_ix];
            let source = format!("road_map(&RoadMapConfig::scaled(8, {seed}))");
            let golden = Golden::build(road_map(&RoadMapConfig::scaled(8, seed)), &source, RecordCodec::Compact);
            golden.run(&churn(Step::Crash(k, mode), seed ^ k), POLICIES[policy_ix].0, true);
        }
    }
}

/// ENOSPC on the *pass-through* allocation path aborts the batch
/// cleanly: rollback returns the allocated pages even while the disk
/// is still reported full.
#[test]
fn enospc_rollback_returns_passthrough_allocations() {
    let (fstore, ctl) = FaultStore::new(MemPageStore::new(64).unwrap());
    let dir = TempDir::new("ccam-sweep");
    let mut s = WalStore::create(fstore, &dir.path("wal")).unwrap();
    let a = s.allocate().unwrap();
    s.write(a, &[1u8; 64]).unwrap();
    s.sync().unwrap();

    ctl.fill_after(1, false);
    let b = s.allocate().unwrap(); // the last allocation that fits
    assert!(matches!(s.allocate(), Err(StorageError::NoSpace)));
    assert!(s.is_poisoned());
    s.rollback().unwrap(); // frees `b` although the disk is full
    assert!(!s.is_live(b));
    assert!(ctl.is_full());

    ctl.drain();
    s.write(a, &[2u8; 64]).unwrap();
    s.sync().unwrap();
    let mut buf = [0u8; 64];
    s.read(a, &mut buf).unwrap();
    assert_eq!(buf, [2u8; 64]);
}
