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
//! Invariants checked after every simulated crash:
//!
//! * the reopened file passes the full `check::verify` audit,
//! * no operation that returned `Ok` is lost (committed = durable),
//! * the in-flight operation is all-or-nothing,
//! * records the crash never touched are byte-identical.

use std::collections::{BTreeMap, BTreeSet};

use ccam::core::am::{AccessMethod, CcamBuilder, DeletedNode};
use ccam::core::check;
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::{Network, NodeId};
use ccam::storage::{wal_sidecar, FaultStore, FilePageStore, TornWrite, WalStore};

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

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ccam-rec-{}-{}", std::process::id(), name));
    p
}

/// Nodes whose records a delete/reinsert of any victim may rewrite:
/// the victims themselves plus every neighbor on either side.
fn touched_set(net: &Network, victims: &[NodeId]) -> BTreeSet<NodeId> {
    let mut touched = BTreeSet::new();
    for &v in victims {
        touched.insert(v);
        let rec = net.node(v).unwrap();
        for e in &rec.successors {
            touched.insert(e.to);
        }
        for &p in &rec.predecessors {
            touched.insert(p);
        }
    }
    touched
}

/// One crash round: build a WAL-backed file, churn delete/reinsert ops
/// with a crash scheduled after `k` physical mutations, then reopen and
/// audit. Returns `true` when the crash actually fired.
fn crash_round(net: &Network, k: u64, mode: TornWrite, name: &str) -> bool {
    let path = temp_path(name);
    let wal = wal_sidecar(&path);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();

    let store = FilePageStore::create(&path, BLOCK).unwrap();
    let (cstore, ctl) = FaultStore::with_seed(store, k);
    ctl.set_volatile_writes(512);
    let mut ws = WalStore::create(cstore, &wal).unwrap();
    // A cap of a few batches, so the churn crosses checkpoints.
    ws.set_max_wal_bytes(Some(8 * BLOCK as u64));
    let mut am = CcamBuilder::new(BLOCK).build_static_on(ws, net).unwrap();
    am.file().commit().unwrap();
    am.file_mut().set_auto_commit(true);

    let ids = net.node_ids();
    let victims: Vec<NodeId> = ids.iter().step_by(9).copied().collect();

    ctl.crash_after(k, mode);

    // Churn: delete each victim, then put it back. Every op that returns
    // Ok has auto-committed; the first Err is the in-flight op.
    let mut committed_present: BTreeMap<NodeId, bool> = BTreeMap::new();
    let mut stash: BTreeMap<NodeId, DeletedNode> = BTreeMap::new();
    let mut inflight: Option<(NodeId, bool, bool)> = None; // (victim, pre, post)
    'ops: for &v in &victims {
        match am.delete_node(v) {
            Ok(del) => {
                stash.insert(v, del.expect("victim should be live"));
                committed_present.insert(v, false);
            }
            Err(_) => {
                inflight = Some((v, true, false));
                break 'ops;
            }
        }
        let del = &stash[&v];
        match am.insert_node(&del.data, &del.incoming) {
            Ok(()) => {
                committed_present.insert(v, true);
            }
            Err(_) => {
                inflight = Some((v, false, true));
                break 'ops;
            }
        }
    }

    let crashed = ctl.is_dead();
    if crashed {
        // Power is gone: nothing gets flushed, dropped or rolled back.
        std::mem::forget(am);
    } else {
        assert!(inflight.is_none(), "ops failed without a crash");
        drop(am);
    }

    // Reboot: reopen the file, replaying the log.
    let store = FilePageStore::open(&path).unwrap();
    let (ws, report) = WalStore::open(store, &wal).unwrap();
    let am2 = CcamBuilder::new(BLOCK).open_on(ws).unwrap();

    let audit = check::verify(am2.file()).unwrap();
    assert!(
        audit.is_clean(),
        "k={k} {mode:?}: recovered file fails audit: {:?} (recovery {report:?})",
        audit.issues
    );

    // Zero lost committed records.
    for (&v, &present) in &committed_present {
        if inflight.map(|(iv, _, _)| iv) == Some(v) {
            continue; // judged by the in-flight rule below
        }
        assert_eq!(
            am2.find(v).unwrap().is_some(),
            present,
            "k={k} {mode:?}: committed state of victim {v} lost"
        );
    }
    // The in-flight op is atomic: its victim is in the pre- or the
    // post-state, never half of each (the audit above rules that out).
    if let Some((v, pre, post)) = inflight {
        let got = am2.find(v).unwrap().is_some();
        assert!(
            got == pre || got == post,
            "k={k} {mode:?}: in-flight victim {v} in impossible state"
        );
    }
    // Untouched records survive byte-for-byte.
    let touched = touched_set(net, &victims);
    for id in net.node_ids() {
        if !touched.contains(&id) {
            assert_eq!(
                &am2.find(id).unwrap().unwrap(),
                net.node(id).unwrap(),
                "k={k} {mode:?}: untouched record {id} damaged"
            );
        }
    }

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();
    crashed
}

#[test]
fn crash_sweep_over_churn_recovers_every_time() {
    let net = net();
    let modes = [TornWrite::None, TornWrite::Partial, TornWrite::Zeroed];
    let mut crashes = 0;
    for (i, k) in [
        0u64, 1, 2, 3, 5, 8, 12, 17, 23, 30, 40, 55, 75, 100, 150, 400,
    ]
    .into_iter()
    .enumerate()
    {
        if crash_round(&net, k, modes[i % modes.len()], &format!("sweep{k}")) {
            crashes += 1;
        }
    }
    // The sweep must actually exercise crashes, not just the happy path.
    assert!(crashes >= 8, "only {crashes} rounds crashed");
}

#[test]
fn crash_mid_reorganization_recovers() {
    let net = net();
    for k in [0u64, 4, 9, 20, 45] {
        let path = temp_path(&format!("reorg{k}"));
        let wal = wal_sidecar(&path);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&wal).ok();

        let store = FilePageStore::create(&path, BLOCK).unwrap();
        let (cstore, ctl) = FaultStore::with_seed(store, k);
        ctl.set_volatile_writes(512);
        let ws = WalStore::create(cstore, &wal).unwrap();
        let mut am = CcamBuilder::new(BLOCK).build_static_on(ws, &net).unwrap();
        am.file().commit().unwrap();
        am.file_mut().set_auto_commit(true);

        ctl.crash_after(k, TornWrite::Partial);
        let crashed = am.reorganize_full().is_err();
        assert_eq!(crashed, ctl.is_dead());
        if crashed {
            std::mem::forget(am);
        } else {
            drop(am);
        }

        let store = FilePageStore::open(&path).unwrap();
        let (ws, _report) = WalStore::open(store, &wal).unwrap();
        let am2 = CcamBuilder::new(BLOCK).open_on(ws).unwrap();
        let audit = check::verify(am2.file()).unwrap();
        assert!(audit.is_clean(), "k={k}: {:?}", audit.issues);
        // Reorganization only moves records; every node must still be
        // present and identical whichever side of the crash we landed on.
        for id in net.node_ids() {
            assert_eq!(
                &am2.find(id).unwrap().unwrap(),
                net.node(id).unwrap(),
                "k={k}: record {id} damaged by crashed reorganization"
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&wal).ok();
    }
}

#[test]
fn torn_log_tail_is_truncated_not_fatal() {
    use std::io::Write;

    let net = net();
    let path = temp_path("torntail");
    let wal = wal_sidecar(&path);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();

    let store = FilePageStore::create(&path, BLOCK).unwrap();
    let ws = WalStore::create(store, &wal).unwrap();
    let am = CcamBuilder::new(BLOCK).build_static_on(ws, &net).unwrap();
    am.file().commit().unwrap();
    drop(am);

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
    assert!(check::verify(am2.file()).unwrap().is_clean());
    for id in net.node_ids() {
        assert!(am2.find(id).unwrap().is_some());
    }
    drop(am2);

    // A second open finds a clean, already-truncated log.
    let store = FilePageStore::open(&path).unwrap();
    let (_ws, report) = WalStore::open(store, &wal).unwrap();
    assert!(report.was_clean(), "second recovery not clean: {report:?}");

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();
}
