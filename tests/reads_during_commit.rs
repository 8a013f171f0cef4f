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
//!    several nodes; readers must see all sentinels agree (atomicity)
//!    and generations move forward only (no uncommitted state).
//! 2. `pinned_snapshots_match_the_committed_generation_ledger` — the
//!    snapshot-isolation property proper, over a WAL-backed store with
//!    injected ENOSPC aborts: every pinned snapshot is byte-identical
//!    to exactly the generation the writer committed at that epoch,
//!    and stays immutable while held.
//! 3. `panicking_writer_poisons_cell_and_recover_rolls_back` — a
//!    writer that panics mid-transaction must not tear pinned readers,
//!    must fail *new* reads fast, and `recover()` must roll the
//!    uncommitted mutation back.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use ccam::core::am::{AccessMethod, Ccam, CcamBuilder};
use ccam::core::epoch::EpochCell;
use ccam::core::query::route::evaluate_route;
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::walks::random_walk_routes;
use ccam::graph::Network;
use ccam::storage::{FaultStore, MemPageStore, PageStore, WalStore};

const WRITE_TRANSACTIONS: u64 = 60;
const REORG_EVERY: u64 = 10;

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

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ccam-rdc-{}-{}", std::process::id(), name))
}

/// Layout-independent digest of every record reachable in the file.
/// Two views digest equal iff they hold the same logical node set
/// (ids, coordinates, payloads, edges) — which is exactly what one
/// committed generation pins.
fn digest<S: PageStore>(am: &Ccam<S>) -> u64 {
    let mut nodes = std::collections::BTreeMap::new();
    for (_page, records) in am.file().scan_uncounted().expect("scan pinned view") {
        for node in records {
            nodes.insert(node.id.0, node);
        }
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for (id, node) in &nodes {
        id.hash(&mut h);
        node.x.hash(&mut h);
        node.y.hash(&mut h);
        node.payload.hash(&mut h);
        for e in &node.successors {
            e.to.0.hash(&mut h);
            e.cost.hash(&mut h);
        }
        for p in &node.predecessors {
            p.0.hash(&mut h);
        }
    }
    h.finish()
}

#[test]
fn reads_during_commit_see_only_committed_states() {
    let net = test_network(5);
    let wal_path = temp_path("stamps.wal");
    let wal = WalStore::create(MemPageStore::new(1024).unwrap(), &wal_path).unwrap();
    let am = CcamBuilder::new(1024).build_static_on(wal, &net).unwrap();
    let ids = net.node_ids();
    let sentinels = [
        ids[0],
        ids[ids.len() / 3],
        ids[2 * ids.len() / 3],
        ids[ids.len() - 1],
    ];
    let routes = random_walk_routes(&net, 8, 10, 9);

    let db = Arc::new(EpochCell::new(am).unwrap());

    // Generation 0: put every sentinel into a known committed state
    // before any reader starts, and record the read-only baselines.
    {
        let mut am = db.write().unwrap();
        for &id in &sentinels {
            let deleted = am.delete_node(id).unwrap().unwrap();
            let mut node = deleted.data;
            node.payload = stamp(0);
            am.insert_node(&node, &deleted.incoming).unwrap();
        }
        am.commit().unwrap();
    }
    let (succ_counts, route_costs): (Vec<usize>, Vec<u64>) = {
        let am = db.read().unwrap();
        (
            sentinels
                .iter()
                .map(|&id| am.get_successors(id).unwrap().len())
                .collect(),
            routes
                .iter()
                .map(|r| {
                    let eval = evaluate_route(&*am, r).unwrap();
                    assert!(eval.complete, "baseline route must be complete");
                    eval.total_cost
                })
                .collect(),
        )
    };
    let epoch_at_start = db.epoch();

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Writer: one committed transaction per generation; every
        // REORG_EVERY-th also rewrites the whole file layout while
        // still inside the same exclusive critical section.
        {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                for generation in 1..=WRITE_TRANSACTIONS {
                    let mut am = db.write().unwrap();
                    for &id in &sentinels {
                        let deleted = am.delete_node(id).unwrap().unwrap();
                        let mut node = deleted.data;
                        node.payload = stamp(generation);
                        am.insert_node(&node, &deleted.incoming).unwrap();
                    }
                    if generation % REORG_EVERY == 0 {
                        let crr = am.reorganize_full().unwrap();
                        assert!(crr > 0.0);
                    }
                    am.commit().unwrap();
                }
                stop.store(true, Ordering::Release);
            });
        }

        // Readers: loop until the writer finishes, then one final pass
        // that must observe the last generation.
        for reader in 0..3usize {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let succ_counts = &succ_counts;
            let route_costs = &route_costs;
            let routes = &routes;
            s.spawn(move || {
                let mut last_seen = 0u64;
                loop {
                    let done = stop.load(Ordering::Acquire);
                    let am = db.read().unwrap();
                    // All sentinels agree: the transaction is atomic.
                    let generations: Vec<u64> = sentinels
                        .iter()
                        .map(|&id| read_stamp(&am.find(id).unwrap().unwrap().payload))
                        .collect();
                    assert!(
                        generations.iter().all(|&g| g == generations[0]),
                        "reader {reader} saw a torn transaction: {generations:?}"
                    );
                    // Generations only move forward: nothing uncommitted
                    // (or rolled back) ever becomes visible.
                    assert!(
                        generations[0] >= last_seen,
                        "reader {reader} saw generation go backwards: \
                         {} after {last_seen}",
                        generations[0]
                    );
                    last_seen = generations[0];
                    // Structure queries stay valid mid-churn: the edge
                    // set is delete/re-insert invariant, so successor
                    // counts and route costs never change.
                    for (k, &id) in sentinels.iter().enumerate() {
                        assert_eq!(am.get_successors(id).unwrap().len(), succ_counts[k]);
                    }
                    let r = &routes[last_seen as usize % routes.len()];
                    let eval = evaluate_route(&*am, r).unwrap();
                    assert!(eval.complete);
                    assert_eq!(
                        eval.total_cost,
                        route_costs[last_seen as usize % route_costs.len()]
                    );
                    drop(am);
                    if done {
                        assert_eq!(
                            last_seen, WRITE_TRANSACTIONS,
                            "final read after writer exit must see its last commit"
                        );
                        break;
                    }
                }
            });
        }
    });

    // Every committed write() above was one epoch bump: the initial
    // stamping transaction plus WRITE_TRANSACTIONS generations.
    assert_eq!(db.epoch(), epoch_at_start + WRITE_TRANSACTIONS);
    drop(db);
    let _ = std::fs::remove_file(&wal_path);
}

/// The snapshot-isolation property proper: every snapshot a reader
/// pins is byte-identical to exactly ONE committed generation — the
/// one the writer recorded in a ledger at that epoch — and stays
/// immutable for as long as the pin is held, even while the writer
/// churns, reorganizes, and aborts on injected ENOSPC faults.
#[test]
fn pinned_snapshots_match_the_committed_generation_ledger() {
    const GENERATIONS: u64 = 30;
    const ABORT_EVERY: u64 = 7;

    let net = test_network(11);
    let ids = net.node_ids();
    let sentinels = [ids[0], ids[ids.len() / 2], ids[ids.len() - 1]];

    // Full durable stack with a fault injector on top: ENOSPC bites
    // BEFORE anything reaches the WAL overlay, so an aborted
    // transaction genuinely rolls back.
    let wal_path = temp_path("ledger.wal");
    let _ = std::fs::remove_file(&wal_path);
    let mem = MemPageStore::new(1024).unwrap();
    let wal = WalStore::create(mem, &wal_path).unwrap();
    let (store, disk) = FaultStore::new(wal);
    let mut am = CcamBuilder::new(1024).build_static_on(store, &net).unwrap();
    am.file_mut().set_auto_commit(true);

    let db = Arc::new(EpochCell::new(am).unwrap());

    // ledger[epoch] = digest of the generation published at that epoch.
    let ledger: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    {
        let snap = db.read().unwrap();
        ledger.lock().unwrap().insert(snap.epoch(), digest(&snap));
    }

    let stop = Arc::new(AtomicBool::new(false));
    // (epoch, digest) pairs observed by readers, checked against the
    // ledger once the writer is done.
    let observed: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));

    std::thread::scope(|s| {
        {
            let db = Arc::clone(&db);
            let ledger = Arc::clone(&ledger);
            let stop = Arc::clone(&stop);
            let disk = Arc::clone(&disk);
            s.spawn(move || {
                for generation in 1..=GENERATIONS {
                    if generation % ABORT_EVERY == 0 {
                        // Injected ENOSPC: the transaction fails, the
                        // guard is dropped without commit, and nothing
                        // of it may ever become visible.
                        let epoch_before = db.epoch();
                        let faults_before = disk.injected_faults();
                        disk.fill_after(0, false);
                        {
                            let mut w = db.write().unwrap();
                            let r = w.delete_node(sentinels[0]);
                            assert!(
                                r.is_err(),
                                "generation {generation}: write on a full disk must fail"
                            );
                            // Drop without commit: a benign abort, not
                            // a poison.
                        }
                        disk.drain();
                        assert!(disk.injected_faults() > faults_before);
                        assert_eq!(
                            db.epoch(),
                            epoch_before,
                            "aborted transaction must not bump the epoch"
                        );
                        let snap = db.read().unwrap();
                        assert_eq!(
                            digest(&snap),
                            ledger.lock().unwrap()[&epoch_before],
                            "aborted transaction leaked into the published view"
                        );
                        continue;
                    }
                    let mut w = db.write().unwrap();
                    for &id in &sentinels {
                        let deleted = w.delete_node(id).unwrap().unwrap();
                        let mut node = deleted.data;
                        node.payload = stamp(generation);
                        w.insert_node(&node, &deleted.incoming).unwrap();
                    }
                    if generation % 5 == 0 {
                        w.reorganize_full().unwrap();
                    }
                    let epoch = w.commit().unwrap();
                    let snap = db.read().unwrap();
                    assert_eq!(snap.epoch(), epoch);
                    ledger.lock().unwrap().insert(epoch, digest(&snap));
                }
                stop.store(true, Ordering::Release);
            });
        }

        for _reader in 0..2usize {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let observed = Arc::clone(&observed);
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let snap = db.read().unwrap();
                    let epoch = snap.epoch();
                    let d1 = digest(&snap);
                    // The pin must hold the generation still while the
                    // writer keeps committing underneath.
                    std::thread::sleep(std::time::Duration::from_micros(500));
                    let d2 = digest(&snap);
                    assert_eq!(d1, d2, "pinned snapshot mutated while held");
                    observed.lock().unwrap().push((epoch, d1));
                }
            });
        }
    });

    // Every observation corresponds to exactly the generation the
    // writer committed at that epoch — never a blend, never an
    // aborted transaction.
    let ledger = ledger.lock().unwrap();
    let observed = observed.lock().unwrap();
    assert!(!observed.is_empty());
    for &(epoch, d) in observed.iter() {
        let committed = ledger
            .get(&epoch)
            .unwrap_or_else(|| panic!("reader pinned unknown epoch {epoch}"));
        assert_eq!(
            *committed, d,
            "epoch {epoch}: pinned snapshot differs from the committed generation"
        );
    }
    // 30 generations, every 7th aborted: 26 epoch bumps on top of the
    // initial publish (epoch 0).
    let committed_gens = GENERATIONS - GENERATIONS / ABORT_EVERY;
    assert_eq!(db.epoch(), committed_gens);

    let _ = std::fs::remove_file(&wal_path);
}

/// A writer that panics mid-transaction: already-pinned snapshots stay
/// readable, new reads fail fast with a poison error, and `recover()`
/// rolls the uncommitted mutation back before republishing.
#[test]
fn panicking_writer_poisons_cell_and_recover_rolls_back() {
    let net = test_network(23);
    let target = net.node_ids()[3];

    let wal_path = temp_path("panic.wal");
    let _ = std::fs::remove_file(&wal_path);
    let mem = MemPageStore::new(1024).unwrap();
    let wal = WalStore::create(mem, &wal_path).unwrap();
    let mut am = CcamBuilder::new(1024).build_static_on(wal, &net).unwrap();
    // Explicit transaction boundaries: the mutation below stays
    // uncommitted in the WAL overlay so recover() can roll it back.
    am.file_mut().set_auto_commit(false);

    let db = Arc::new(EpochCell::new(am).unwrap());
    let before = db.read().unwrap();
    assert!(before.find(target).unwrap().is_some());
    let before_digest = digest(&before);

    // Readers racing the panicking writer: whatever they pin must be
    // the committed generation — the in-flight delete never shows.
    let crashed = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for _ in 0..2 {
            let db = Arc::clone(&db);
            let crashed = Arc::clone(&crashed);
            s.spawn(move || {
                while !crashed.load(Ordering::Acquire) {
                    match db.read() {
                        Ok(snap) => {
                            assert!(
                                snap.find(target).unwrap().is_some(),
                                "reader saw the uncommitted delete"
                            );
                        }
                        // Poisoned window: fail-fast is the contract.
                        Err(_) => break,
                    }
                }
            });
        }
        {
            let db = Arc::clone(&db);
            let crashed = Arc::clone(&crashed);
            s.spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut w = db.write().unwrap();
                    w.delete_node(target).unwrap().unwrap();
                    panic!("writer dies mid-transaction");
                }));
                assert!(result.is_err());
                crashed.store(true, Ordering::Release);
            });
        }
    });

    // The cell is poisoned: new reads and writes fail fast...
    assert!(db.is_poisoned());
    assert!(db.read().is_err());
    assert!(db.write().is_err());
    // ...but the snapshot pinned BEFORE the crash is still fully
    // readable and unchanged.
    assert!(before.find(target).unwrap().is_some());
    assert_eq!(digest(&before), before_digest);

    // Recovery rolls the uncommitted delete back and republishes the
    // committed generation.
    db.recover().unwrap();
    assert!(!db.is_poisoned());
    let after = db.read().unwrap();
    assert!(
        after.find(target).unwrap().is_some(),
        "recover must roll the uncommitted delete back"
    );
    assert_eq!(digest(&after), before_digest);

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

    let _ = std::fs::remove_file(&wal_path);
}
