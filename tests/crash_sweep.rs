//! Deterministic crash-sweep harness (see also `tests/recovery.rs`).
//!
//! Where `recovery.rs` spot-checks a handful of crash indices, this
//! sweep is exhaustive: a seeded insert/delete workload runs under
//! **each of the four reorganization policies**, and the store is
//! killed after the k-th physical store operation **for every k** until
//! a round outlives the whole workload — so every instruction boundary
//! of the commit protocol (pass-through allocation, batch append, apply,
//! inner sync) gets its own crash. Each crash index is exercised with
//! clean power-cuts and with torn page writes, always with the store's
//! volatile-write class armed — the cut also undoes a seeded half of the
//! page writes no data sync covered, so a log truncated ahead of the
//! data file loses a commit here (`truncating_before_the_data_sync_…`
//! does it by hand and watches the ledger audit fail). A separate sweep
//! injects `ENOSPC` / short writes through
//! [`ccam::storage::FaultStore`] instead of killing the process.
//!
//! After every simulated failure the round asserts:
//!
//! * the reopened file passes the full `check::verify` audit,
//! * committed operations are never lost, the in-flight operation is
//!   all-or-nothing,
//! * CRR/WCRR still evaluate to a sane ratio in (0, 1],
//! * **recovery is idempotent**: recovering two independent copies of
//!   the crashed files — and recovering the same copy twice — yields
//!   byte-identical page files and the same rebuilt index.
//!
//! Determinism: the workload is driven by [`SweepRng`] (SplitMix64) from
//! `CRASH_SWEEP_SEED` (default 23); no OS entropy, no clocks. The
//! default tests run a strided subset of crash indices (dense early,
//! where the commit protocol's phases live); the `#[ignore]`d
//! `exhaustive_*` variants sweep every k and back the CI `crash-sweep`
//! job.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ccam::core::am::{AccessMethod, Ccam, CcamBuilder, DeletedNode};
use ccam::core::{check, ReorgPolicy};
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::{Network, NodeId};
use ccam::storage::recovery::live_snapshot;
use ccam::storage::{
    wal_sidecar, FaultController, FaultStore, FilePageStore, MemPageStore, PageId, PageStore,
    StorageError, SweepRng, TornWrite, Wal, WalControl, WalStore,
};

const BLOCK: usize = 512;
const CHURN_OPS: usize = 12;

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

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ccam-sweep-{}-{}", std::process::id(), name));
    p
}

/// A committed golden database all rounds start from (one build, many
/// `fs::copy`s — the sweep would be quadratic if every round rebuilt).
struct Golden {
    db: PathBuf,
    wal: PathBuf,
}

impl Golden {
    fn build(net: &Network, name: &str) -> Golden {
        let db = temp_path(&format!("golden-{name}.db"));
        let wal = wal_sidecar(&db);
        std::fs::remove_file(&db).ok();
        std::fs::remove_file(&wal).ok();
        let store = FilePageStore::create(&db, BLOCK).unwrap();
        let ws = WalStore::create(store, &wal).unwrap();
        let am = CcamBuilder::new(BLOCK).build_static_on(ws, net).unwrap();
        am.file().commit().unwrap();
        drop(am);
        Golden { db, wal }
    }

    /// Copies the golden pair to round-private paths.
    fn clone_to(&self, name: &str) -> (PathBuf, PathBuf) {
        let db = temp_path(&format!("{name}.db"));
        let wal = wal_sidecar(&db);
        std::fs::copy(&self.db, &db).unwrap();
        std::fs::copy(&self.wal, &wal).unwrap();
        (db, wal)
    }
}

impl Drop for Golden {
    fn drop(&mut self) {
        std::fs::remove_file(&self.db).ok();
        std::fs::remove_file(&self.wal).ok();
    }
}

/// What the seeded churn committed before the failure (if any).
struct ChurnResult {
    /// Victim → expected presence after its last committed op.
    committed: BTreeMap<NodeId, bool>,
    /// `(victim, present_before, present_after)` of the failed op.
    inflight: Option<(NodeId, bool, bool)>,
}

/// True when no stashed (currently deleted) node is adjacent to `v` in
/// the original network — deleting or reinserting `v` then only patches
/// records that are actually present.
fn neighbors_live(net: &Network, stash: &BTreeMap<NodeId, DeletedNode>, v: NodeId) -> bool {
    let rec = net.node(v).unwrap();
    rec.successors.iter().all(|e| !stash.contains_key(&e.to))
        && rec.predecessors.iter().all(|p| !stash.contains_key(p))
}

/// Seeded insert/delete churn: each step either deletes a random live
/// node or reinserts a previously deleted one (several nodes can be
/// absent at once, exercising underflow merges, overflow splits on
/// reinsert, and every reorganization policy). Stops at the first
/// failed operation, recording the in-flight victim.
fn churn<S: PageStore>(am: &mut Ccam<S>, net: &Network, seed: u64, ops: usize) -> ChurnResult {
    let ids = net.node_ids();
    let mut rng = SweepRng::new(seed);
    let mut stash: BTreeMap<NodeId, DeletedNode> = BTreeMap::new();
    let mut committed: BTreeMap<NodeId, bool> = BTreeMap::new();
    let mut inflight = None;
    for _ in 0..ops {
        let reinsert = !stash.is_empty() && rng.gen_bool(1, 2);
        if reinsert {
            let keys: Vec<NodeId> = stash
                .keys()
                .copied()
                .filter(|&v| neighbors_live(net, &stash, v))
                .collect();
            let Some(&v) = keys.get(rng.gen_range(keys.len().max(1) as u64) as usize) else {
                continue;
            };
            let del = stash.remove(&v).unwrap();
            match am.insert_node(&del.data, &del.incoming) {
                Ok(()) => {
                    committed.insert(v, true);
                }
                Err(_) => {
                    inflight = Some((v, false, true));
                    break;
                }
            }
        } else {
            let mut pick = None;
            for _ in 0..64 {
                let c = ids[rng.gen_range(ids.len() as u64) as usize];
                if !stash.contains_key(&c) && neighbors_live(net, &stash, c) {
                    pick = Some(c);
                    break;
                }
            }
            let Some(v) = pick else { continue };
            match am.delete_node(v) {
                Ok(del) => {
                    stash.insert(v, del.expect("picked victim must be live"));
                    committed.insert(v, false);
                }
                Err(_) => {
                    inflight = Some((v, true, false));
                    break;
                }
            }
        }
    }
    ChurnResult {
        committed,
        inflight,
    }
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

/// Audits a reopened access method against the churn ledger; returns
/// what it found wrong.
fn ledger_violations<S: PageStore>(am: &Ccam<S>, r: &ChurnResult) -> Vec<String> {
    let mut wrong = Vec::new();
    for (&v, &present) in &r.committed {
        if r.inflight.map(|(iv, _, _)| iv) == Some(v) {
            continue; // judged by the in-flight rule
        }
        if am.find(v).unwrap().is_some() != present {
            wrong.push(format!("committed state of victim {v} lost"));
        }
    }
    if let Some((v, pre, post)) = r.inflight {
        let got = am.find(v).unwrap().is_some();
        if got != pre && got != post {
            wrong.push(format!("in-flight victim {v} in impossible state"));
        }
    }
    // WCRR sanity: connectivity ratios remain well-defined ratios.
    let crr = am.crr().unwrap();
    if !(0.0..=1.0).contains(&crr) {
        wrong.push(format!("CRR {crr} out of range"));
    }
    let wcrr = am.wcrr(&std::collections::HashMap::new()).unwrap();
    if !(0.0..=1.0).contains(&wcrr) {
        wrong.push(format!("WCRR {wcrr} out of range"));
    }
    wrong
}

fn assert_ledger<S: PageStore>(am: &Ccam<S>, r: &ChurnResult, ctx: &str) {
    let wrong = ledger_violations(am, r);
    assert!(wrong.is_empty(), "{ctx}: {wrong:?}");
}

/// A golden copy opened with a small log cap over a fault store whose
/// power cut, once scheduled, also undoes a seeded half of the page
/// writes no data sync covered.
fn open_volatile(
    db: &Path,
    wal: &Path,
    policy: ReorgPolicy,
    seed: u64,
) -> (
    Ccam<WalStore<FaultStore<FilePageStore>>>,
    Arc<FaultController>,
) {
    let store = FilePageStore::open(db).unwrap();
    let (cstore, ctl) = FaultStore::with_seed(store, seed);
    ctl.set_volatile_writes(512);
    let (mut ws, report) = WalStore::open(cstore, wal).unwrap();
    assert!(report.was_clean(), "golden copy must open clean");
    // A few batches to the cap: the churn crosses it again and again,
    // so crash indices fall on both sides of checkpoints.
    ws.set_max_wal_bytes(Some(8 * BLOCK as u64));
    let mut am = CcamBuilder::new(BLOCK).policy(policy).open_on(ws).unwrap();
    am.file_mut().set_auto_commit(true);
    (am, ctl)
}

/// One crash round at index `k`: copy the golden files, churn under
/// `policy` with a scheduled power failure, then recover **two
/// independent copies** of the crashed files plus the original twice,
/// asserting identical bytes and a clean audit each time. Returns true
/// when the crash fired (false = the round outlived the workload).
fn crash_round(
    net: &Network,
    golden: &Golden,
    policy: ReorgPolicy,
    k: u64,
    mode: TornWrite,
    name: &str,
) -> bool {
    let (db, wal) = golden.clone_to(name);
    let (mut am, ctl) = open_volatile(&db, &wal, policy, sweep_seed() ^ k);

    ctl.crash_after(k, mode);
    let r = churn(&mut am, net, sweep_seed() ^ k, CHURN_OPS);
    let crashed = ctl.is_dead();
    if crashed {
        // Power is gone: nothing flushes, drops or rolls back.
        std::mem::forget(am);
    } else {
        assert!(r.inflight.is_none(), "ops failed without a crash");
        drop(am);
    }

    // Idempotency copy *before* any recovery touches the files.
    let db2 = temp_path(&format!("{name}-2.db"));
    let wal2 = wal_sidecar(&db2);
    std::fs::copy(&db, &db2).unwrap();
    std::fs::copy(&wal, &wal2).unwrap();

    let ctx = format!("k={k} {mode:?} {policy:?}");
    let (snap_a, map_a, _) = recover(&db, &wal);
    let (snap_b, map_b, _) = recover(&db2, &wal2);
    assert_eq!(
        snap_a, snap_b,
        "{ctx}: two recoveries of the same crash diverge"
    );
    assert_eq!(map_a, map_b, "{ctx}: recovered indexes diverge");
    // Recovering an already-recovered file changes nothing.
    let (snap_c, map_c, replayed) = recover(&db, &wal);
    assert_eq!(replayed, 0, "{ctx}: second recovery replayed batches");
    assert_eq!(snap_a, snap_c, "{ctx}: re-recovery changed page bytes");
    assert_eq!(map_a, map_c, "{ctx}: re-recovery changed the index");

    // Full ledger audit on the recovered file.
    let store = FilePageStore::open(&db).unwrap();
    let (ws, _) = WalStore::open(store, &wal).unwrap();
    let am2 = CcamBuilder::new(BLOCK).policy(policy).open_on(ws).unwrap();
    assert_ledger(&am2, &r, &ctx);

    for p in [&db, &wal, &db2, &wal2] {
        std::fs::remove_file(p).ok();
    }
    crashed
}

/// One disk-full round: the store reports `ENOSPC` (optionally after a
/// short write) from the k-th mutation on. No power failure — the
/// process survives, so the failed operation must abort gracefully:
/// the in-memory file stays consistent, and once space is freed the
/// workload resumes without reopening.
fn enospc_round(
    net: &Network,
    golden: &Golden,
    policy: ReorgPolicy,
    k: u64,
    short_write: bool,
    name: &str,
) -> bool {
    let (db, wal) = golden.clone_to(name);
    let store = FilePageStore::open(&db).unwrap();
    let (fstore, ctl) = FaultStore::new(store);
    let (ws, _) = WalStore::open(fstore, &wal).unwrap();
    let mut am = CcamBuilder::new(BLOCK).policy(policy).open_on(ws).unwrap();
    am.file_mut().set_auto_commit(true);

    ctl.fill_after(k, short_write);
    let r = churn(&mut am, net, sweep_seed() ^ k, CHURN_OPS);
    let filled = ctl.injected_faults() > 0;
    let ctx = format!("k={k} short={short_write} {policy:?}");
    assert_eq!(
        filled,
        r.inflight.is_some(),
        "{ctx}: ops and injected faults disagree"
    );

    if filled {
        // Graceful abort: with the disk still full, the live file must
        // already be consistent and queryable — either rolled back to
        // the last committed state or (fault past the commit point)
        // holding the whole logged batch.
        let audit = check::verify(am.file()).unwrap();
        assert!(
            audit.is_clean(),
            "{ctx}: file inconsistent after ENOSPC: {:?}",
            audit.issues
        );
        assert_ledger(&am, &r, &ctx);

        // Operator frees space: the same handle resumes.
        ctl.drain();
        am.file().commit().unwrap();
        let v = r.inflight.unwrap().0;
        match am.find(v).unwrap() {
            Some(_) => {
                am.delete_node(v).unwrap().unwrap();
            }
            None => {
                let rec = net.node(v).unwrap();
                let incoming: Vec<(NodeId, u32)> = net
                    .nodes()
                    .flat_map(|n| {
                        n.successors
                            .iter()
                            .filter(|e| e.to == v)
                            .map(move |e| (n.id, e.cost))
                    })
                    .collect();
                am.insert_node(rec, &incoming).unwrap();
            }
        }
        assert!(check::verify(am.file()).unwrap().is_clean());
    }
    drop(am);

    // And the on-disk state reopens clean regardless.
    let store = FilePageStore::open(&db).unwrap();
    let (ws, _) = WalStore::open(store, &wal).unwrap();
    let am2 = CcamBuilder::new(BLOCK).open_on(ws).unwrap();
    assert!(check::verify(am2.file()).unwrap().is_clean(), "{ctx}");

    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&wal).ok();
    filled
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
    let net = net();
    let golden = Golden::build(&net, "strided");
    let modes = [TornWrite::None, TornWrite::Partial, TornWrite::Zeroed];
    for (policy, pname) in POLICIES {
        let mut crashes = 0;
        for (i, &k) in strided_ks().iter().enumerate() {
            let mode = modes[i % modes.len()];
            if !crash_round(&net, &golden, policy, k, mode, &format!("st-{pname}-{k}")) {
                break;
            }
            crashes += 1;
        }
        assert!(crashes >= 8, "{pname}: only {crashes} rounds crashed");
    }
}

#[test]
fn enospc_sweep_strided_all_policies() {
    let net = net();
    let golden = Golden::build(&net, "enospc");
    for (policy, pname) in POLICIES {
        let mut hits = 0;
        for (i, &k) in strided_ks().iter().enumerate() {
            let short = i % 2 == 1;
            if !enospc_round(&net, &golden, policy, k, short, &format!("en-{pname}-{k}")) {
                break;
            }
            hits += 1;
        }
        assert!(hits >= 8, "{pname}: only {hits} rounds hit ENOSPC");
    }
}

/// The exhaustive variant behind the CI `crash-sweep` job: every crash
/// index, every torn-write mode, every policy. Run with
/// `cargo test --release --test crash_sweep -- --ignored`.
#[test]
#[ignore = "exhaustive; run by the CI crash-sweep job"]
fn exhaustive_crash_sweep_every_k() {
    let net = net();
    let golden = Golden::build(&net, "exh");
    for (policy, pname) in POLICIES {
        for mode in [TornWrite::None, TornWrite::Partial, TornWrite::Zeroed] {
            let fired = sweep_every_k(
                |k| crash_round(&net, &golden, policy, k, mode, &format!("ex-{pname}-{k}")),
                5_000,
            );
            assert!(fired > 0, "{pname} {mode:?}: sweep never crashed");
        }
    }
}

#[test]
#[ignore = "exhaustive; run by the CI crash-sweep job"]
fn exhaustive_enospc_sweep_every_k() {
    let net = net();
    let golden = Golden::build(&net, "exh-en");
    for (policy, pname) in POLICIES {
        for short in [false, true] {
            let fired = sweep_every_k(
                |k| enospc_round(&net, &golden, policy, k, short, &format!("xe-{pname}-{k}")),
                5_000,
            );
            assert!(fired > 0, "{pname} short={short}: sweep never filled");
        }
    }
}

/// What the volatile-write class is for. A commit of page images does
/// not sync the data file; the log covers it until a checkpoint syncs,
/// *then* truncates. Do those two in the wrong order by hand — cut the
/// log, power off before the data sync — and a committed delete is
/// gone: the file still audits clean, and the ledger says what is
/// missing. (Without the class every issued write survives the cut and
/// this ordering bug is invisible.)
#[test]
fn truncating_before_the_data_sync_loses_a_commit_and_the_ledger_shows_it() {
    let net = net();
    let golden = Golden::build(&net, "unsynced-truncate");
    let (db, wal) = golden.clone_to("unsynced-truncate-round");
    let (mut am, ctl) = open_volatile(&db, &wal, ReorgPolicy::FirstOrder, sweep_seed());
    // Every write the cut can undo, it does.
    ctl.set_volatile_writes(1024);

    // Delete nodes until one commit is page images only: no data sync.
    let data_syncs = || ctl.syncs.load(Ordering::Relaxed);
    let mut r = ChurnResult {
        committed: BTreeMap::new(),
        inflight: None,
    };
    let mut stash = BTreeMap::new();
    for v in net.node_ids() {
        if !neighbors_live(&net, &stash, v) {
            continue;
        }
        let synced = data_syncs();
        stash.insert(v, am.delete_node(v).unwrap().unwrap());
        r.committed.insert(v, false);
        if data_syncs() == synced {
            break;
        }
    }
    let unsynced = *r.committed.keys().next_back().unwrap();
    assert!(am.file().pool().with_store(|s| !s.log().is_empty()));

    // The wrong order: truncate first…
    let (mut log, _) = Wal::open(&wal, BLOCK).unwrap();
    log.checkpoint().unwrap();
    drop(log);
    // …and the power goes before the data sync.
    ctl.crash_after(0, TornWrite::None);
    assert!(am.file().pool().with_store_mut(|s| s.checkpoint()).is_err());
    assert!(ctl.is_dead());
    std::mem::forget(am);

    let store = FilePageStore::open(&db).unwrap();
    let (ws, report) = WalStore::open(store, &wal).unwrap();
    assert_eq!(report.replayed_batches, 0, "the log was cut");
    let am2 = CcamBuilder::new(BLOCK).open_on(ws).unwrap();
    assert!(check::verify(am2.file()).unwrap().is_clean());
    let wrong = ledger_violations(&am2, &r);
    assert!(
        wrong.iter().any(|w| w.contains(&unsynced.to_string())),
        "the audit missed the lost delete of {unsynced}: {wrong:?}"
    );
    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&wal).ok();
}

/// Acceptance: across a 10 000-update workload the log never exceeds
/// the configured cap by more than one transaction's frames, while
/// every committed byte stays durable in the data file.
#[test]
fn bounded_wal_holds_cap_across_10k_updates() {
    let wal_path = temp_path("bounded-10k.wal");
    std::fs::remove_file(&wal_path).ok();
    let mut s = WalStore::create(MemPageStore::new(64).unwrap(), &wal_path).unwrap();
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
    std::fs::remove_file(&wal_path).ok();
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
            let (policy, _) = POLICIES[policy_ix];
            let net = road_map(&RoadMapConfig::scaled(8, seed));
            let name = format!("prop-{seed:x}-{k}");
            let db = temp_path(&format!("{name}.db"));
            let wal = wal_sidecar(&db);
            std::fs::remove_file(&db).ok();
            std::fs::remove_file(&wal).ok();
            let store = FilePageStore::create(&db, BLOCK).unwrap();
            let ws = WalStore::create(store, &wal).unwrap();
            let am = CcamBuilder::new(BLOCK).build_static_on(ws, &net).unwrap();
            am.file().commit().unwrap();
            drop(am);

            let (mut am, ctl) = open_volatile(&db, &wal, policy, seed ^ k);
            ctl.crash_after(k, mode);
            let r = churn(&mut am, &net, seed ^ k, CHURN_OPS);
            if ctl.is_dead() {
                std::mem::forget(am);
            } else {
                drop(am);
            }

            // Idempotency copy *before* any recovery touches the files.
            let db2 = temp_path(&format!("{name}-2.db"));
            let wal2 = wal_sidecar(&db2);
            std::fs::copy(&db, &db2).unwrap();
            std::fs::copy(&wal, &wal2).unwrap();

            let (snap_a, map_a, _) = recover(&db, &wal);
            let (snap_b, map_b, _) = recover(&db2, &wal2);
            prop_assert_eq!(&snap_a, &snap_b, "independent recoveries diverge");
            prop_assert_eq!(&map_a, &map_b, "recovered indexes diverge");
            let (snap_c, map_c, replayed) = recover(&db, &wal);
            prop_assert_eq!(replayed, 0, "re-recovery replayed batches");
            prop_assert_eq!(&snap_a, &snap_c, "re-recovery changed page bytes");
            prop_assert_eq!(&map_a, &map_c, "re-recovery changed the index");

            // The recovered file still honors the workload ledger.
            let store = FilePageStore::open(&db).unwrap();
            let (ws, _) = WalStore::open(store, &wal).unwrap();
            let am2 = CcamBuilder::new(BLOCK).policy(policy).open_on(ws).unwrap();
            assert_ledger(&am2, &r, &name);

            for p in [&db, &wal, &db2, &wal2] {
                std::fs::remove_file(p).ok();
            }
        }
    }
}

/// ENOSPC on the *pass-through* allocation path aborts the batch
/// cleanly: rollback returns the allocated pages even while the disk
/// is still reported full.
#[test]
fn enospc_rollback_returns_passthrough_allocations() {
    let (fstore, ctl) = FaultStore::new(MemPageStore::new(64).unwrap());
    let wal_path = temp_path("enospc-alloc.wal");
    std::fs::remove_file(&wal_path).ok();
    let mut s = WalStore::create(fstore, &wal_path).unwrap();
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
    std::fs::remove_file(&wal_path).ok();
}
