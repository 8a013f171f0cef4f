//! Stress: snapshot-consistent reads racing a committing writer.
//!
//! The serving layer shares one `Ccam` between a single writer and many
//! readers through `EpochCell`. Since the MVCC-lite rework, readers do
//! not block on the writer at all: `read()` pins the last *published*
//! snapshot (a `Ccam<SnapshotStore>` view), and a commit atomically
//! publishes a new one. A reader can therefore never observe a
//! half-applied transaction — only the committed state before it or
//! after it — and a pinned snapshot never changes underneath the
//! reader, even while `reorganize_full` rewrites the whole file.
//!
//! Three escalating tests:
//!
//! 1. `reads_during_commit_see_only_committed_states` — sentinel
//!    stamping: every transaction stamps one generation number into
//!    several nodes and now and then reclusters the whole file, while
//!    readers pin snapshots.
//! 2. `pinned_snapshots_match_the_committed_generation_ledger` — the
//!    same over a WAL-backed store with injected ENOSPC aborts.
//!
//!    In both, every pinned snapshot holds exactly the network the
//!    writer committed at its epoch (the `ccam_testing` check:
//!    all sentinels of one generation, never a blend, never an aborted
//!    transaction), stays so while held, epochs only move forward, and
//!    the last read sees the last commit.
//! 3. `panicking_writer_poisons_cell_and_recover_rolls_back` — a
//!    writer that panics mid-transaction must not tear pinned readers,
//!    must fail *new* reads fast, and `recover()` must roll the
//!    uncommitted mutation back.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use ccam::core::am::{AccessMethod, Ccam, CcamBuilder};
use ccam::core::epoch::EpochCell;
use ccam::core::query::route::evaluate_route;
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::walks::random_walk_routes;
use ccam::graph::{Network, NodeId};
use ccam::storage::{FaultController, FaultStore, MemPageStore, PageStore, WalStore};
use ccam_testing::{check, TempDir};

fn test_network(seed: u64) -> Network {
    road_map(&RoadMapConfig {
        grid_w: 10,
        grid_h: 10,
        removed_nodes: 2,
        target_segments: 150,
        target_directed: 265,
        cell: 64,
        jitter: 24,
        seed,
    })
}

fn stamp(generation: u64) -> Vec<u8> {
    generation.to_le_bytes().to_vec()
}

fn read_stamp(payload: &[u8]) -> u64 {
    let bytes: [u8; 8] = payload.try_into().expect("sentinel payload is 8 bytes");
    u64::from_le_bytes(bytes)
}

/// How a race is run.
struct Race {
    sentinels: usize,
    generations: u64,
    reorg_every: u64,
    /// Every this many generations the disk fills and the transaction
    /// aborts (0: never).
    abort_every: u64,
    readers: usize,
}

/// A writer commits generation after generation on `db`, which holds
/// `net`, while readers pin snapshots and check each against the ledger
/// of committed networks.
fn race<S: PageStore + Send + 'static>(
    db: Ccam<S>,
    net: &Network,
    disk: Option<Arc<FaultController>>,
    race: Race,
) {
    let ids = net.node_ids();
    let n = race.sentinels;
    let sentinels: Vec<NodeId> = (0..n).map(|k| ids[k * (ids.len() - 1) / (n - 1)]).collect();
    let routes = random_walk_routes(net, 8, 10, 9);
    let db = Arc::new(EpochCell::new(db).unwrap());
    let epoch_at_start = db.epoch();
    // ledger[epoch] = the network published at that epoch, entered
    // before the commit that publishes it.
    let ledger = Mutex::new(HashMap::from([(epoch_at_start, net.clone())]));
    let committed = |epoch: u64| ledger.lock().unwrap()[&epoch].clone();
    let restamp = |w: &mut Ccam<S>, model: &mut Network, generation: u64| {
        for &id in &sentinels {
            let deleted = w.delete_node(id)?.unwrap();
            let mut node = deleted.data;
            node.payload = stamp(generation);
            w.insert_node(&node, &deleted.incoming)?;
            ccam_testing::reinsert(model, &node);
        }
        Ok::<_, ccam::storage::StorageError>(())
    };
    // Generation 0: every sentinel in a known committed state before
    // any reader starts; route costs then stay what they are now.
    let mut model = net.clone();
    let mut w = db.write().unwrap();
    restamp(&mut w, &mut model, 0).unwrap();
    ledger
        .lock()
        .unwrap()
        .insert(epoch_at_start + 1, model.clone());
    w.commit().unwrap();
    let costs: Vec<u64> = {
        let view = db.read().unwrap();
        let eval = |r| evaluate_route(&*view, r).unwrap().total_cost;
        routes.iter().map(eval).collect()
    };

    let stop = AtomicBool::new(false);
    let mut aborts = 0;
    std::thread::scope(|s| {
        s.spawn(|| {
            for generation in 1..=race.generations {
                if race.abort_every > 0 && generation % race.abort_every == 0 {
                    // Injected ENOSPC: the transaction fails, the guard is
                    // dropped without commit (a benign abort, not a
                    // poison), and nothing of it may ever become visible.
                    let (epoch_before, disk) = (db.epoch(), disk.as_ref().unwrap());
                    let faults_before = disk.injected_faults();
                    disk.fill_after(0, false);
                    let mut w = db.write().unwrap();
                    let r = restamp(&mut w, &mut model.clone(), generation);
                    assert!(r.is_err(), "generation {generation}: a full disk must fail");
                    drop(w);
                    disk.drain();
                    assert!(disk.injected_faults() > faults_before);
                    assert_eq!(db.epoch(), epoch_before, "an abort bumped the epoch");
                    let leaked = check(db.read().unwrap().file(), &committed(epoch_before));
                    assert_eq!(leaked, Ok(()), "an abort leaked into the published view");
                    aborts += 1;
                    continue;
                }
                let mut w = db.write().unwrap();
                restamp(&mut w, &mut model, generation).unwrap();
                if generation % race.reorg_every == 0 {
                    // The whole layout rewritten inside the transaction.
                    assert!(w.reorganize_full().unwrap() > 0.0);
                }
                let epoch = db.epoch() + 1;
                ledger.lock().unwrap().insert(epoch, model.clone());
                assert_eq!(w.commit().unwrap(), epoch);
            }
            stop.store(true, Ordering::Release);
        });
        for reader in 0..race.readers {
            let (db, routes, costs) = (&db, &routes, &costs);
            let (stop, committed) = (&stop, &committed);
            s.spawn(move || {
                let mut last_seen = 0;
                loop {
                    let done = stop.load(Ordering::Acquire);
                    let snap = db.read().unwrap();
                    let epoch = snap.epoch();
                    // Epochs only move forward: nothing uncommitted (or
                    // rolled back) ever becomes visible.
                    assert!(
                        epoch >= last_seen,
                        "reader {reader}: {epoch} after {last_seen}"
                    );
                    last_seen = epoch;
                    let model = committed(epoch);
                    let pinned = check(snap.file(), &model);
                    assert_eq!(pinned, Ok(()), "epoch {epoch}: pinned snapshot differs");
                    // Structure queries stay valid mid-churn.
                    let k = epoch as usize % routes.len();
                    let eval = evaluate_route(&*snap, &routes[k]).unwrap();
                    assert!(eval.complete);
                    assert_eq!(eval.total_cost, costs[k]);
                    // The pin holds still while the writer commits on.
                    std::thread::sleep(std::time::Duration::from_micros(500));
                    let held = check(snap.file(), &model);
                    assert_eq!(held, Ok(()), "pinned snapshot mutated while held");
                    if done {
                        assert_eq!(epoch, db.epoch(), "the last read must see the last commit");
                        break;
                    }
                }
            });
        }
    });
    // One epoch bump per committed transaction, generation 0 included.
    assert_eq!(db.epoch(), epoch_at_start + 1 + race.generations - aborts);
}

#[test]
fn reads_during_commit_see_only_committed_states() {
    let net = test_network(5);
    let dir = TempDir::new("ccam-rdc");
    let wal = WalStore::create(MemPageStore::new(1024).unwrap(), &dir.path("wal")).unwrap();
    let db = CcamBuilder::new(1024).build_static_on(wal, &net).unwrap();
    let race_ = Race {
        sentinels: 4,
        generations: 60,
        reorg_every: 10,
        abort_every: 0,
        readers: 3,
    };
    race(db, &net, None, race_);
}

/// The snapshot-isolation property proper, with ENOSPC aborts. The fault
/// injector sits on top of the log, so ENOSPC bites before anything
/// reaches the WAL overlay and an aborted transaction genuinely rolls
/// back.
#[test]
fn pinned_snapshots_match_the_committed_generation_ledger() {
    let net = test_network(11);
    let dir = TempDir::new("ccam-rdc");
    let wal = WalStore::create(MemPageStore::new(1024).unwrap(), &dir.path("wal")).unwrap();
    let (store, disk) = FaultStore::new(wal);
    let mut db = CcamBuilder::new(1024).build_static_on(store, &net).unwrap();
    db.file_mut().set_auto_commit(true);
    let race_ = Race {
        sentinels: 3,
        generations: 30,
        reorg_every: 5,
        abort_every: 7,
        readers: 2,
    };
    race(db, &net, Some(disk), race_);
}

/// A writer that panics mid-transaction: already-pinned snapshots stay
/// readable, new reads fail fast with a poison error, and `recover()`
/// rolls the uncommitted mutation back before republishing.
#[test]
fn panicking_writer_poisons_cell_and_recover_rolls_back() {
    let net = test_network(23);
    let target = net.node_ids()[3];

    let dir = TempDir::new("ccam-rdc");
    let mem = MemPageStore::new(1024).unwrap();
    let wal = WalStore::create(mem, &dir.path("wal")).unwrap();
    let mut am = CcamBuilder::new(1024).build_static_on(wal, &net).unwrap();
    // Explicit transaction boundaries: the mutation below stays
    // uncommitted in the WAL overlay so recover() can roll it back.
    am.file_mut().set_auto_commit(false);

    let db = EpochCell::new(am).unwrap();
    let before = db.read().unwrap();
    assert_eq!(check(before.file(), &net), Ok(()));

    // Readers racing the panicking writer: whatever they pin must be
    // the committed generation — the in-flight delete never shows.
    let crashed = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                // Until the crash, or the poisoned window: fail-fast is
                // the contract.
                while let (false, Ok(snap)) = (crashed.load(Ordering::Acquire), db.read()) {
                    let found = snap.find(target).unwrap();
                    assert!(found.is_some(), "reader saw the uncommitted delete");
                }
            });
        }
        s.spawn(|| {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut w = db.write().unwrap();
                w.delete_node(target).unwrap().unwrap();
                panic!("writer dies mid-transaction");
            }));
            assert!(result.is_err());
            crashed.store(true, Ordering::Release);
        });
    });

    // The cell is poisoned: new reads and writes fail fast...
    assert!(db.is_poisoned());
    assert!(db.read().is_err());
    assert!(db.write().is_err());
    // ...but the snapshot pinned BEFORE the crash is still fully
    // readable and unchanged.
    assert_eq!(check(before.file(), &net), Ok(()));

    // Recovery rolls the uncommitted delete back and republishes the
    // committed generation.
    db.recover().unwrap();
    assert!(!db.is_poisoned());
    let after = check(db.read().unwrap().file(), &net);
    assert_eq!(
        after,
        Ok(()),
        "recover must roll the uncommitted delete back"
    );

    // The recovered cell accepts committed work again.
    {
        let mut w = db.write().unwrap();
        let deleted = w.delete_node(target).unwrap().unwrap();
        let mut node = deleted.data;
        node.payload = stamp(99);
        w.insert_node(&node, &deleted.incoming).unwrap();
        w.commit().unwrap();
    }
    let snap = db.read().unwrap();
    assert_eq!(read_stamp(&snap.find(target).unwrap().unwrap().payload), 99);
}
