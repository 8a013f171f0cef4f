//! Property-based tests for the storage substrate.
//!
//! The slotted page is model-checked against a `HashMap<SlotId, Vec<u8>>`;
//! the buffer pool is checked to be transparent (reads through the pool
//! always observe the latest writes, for any capacity); WAL recovery is
//! checked to preserve every committed page and to be idempotent under
//! repeated replay (a crash *during* recovery is itself recoverable);
//! every snapshot pin of a logged store is checked to read its own
//! generation, whatever is committed or rolled back after it.

use std::collections::{BTreeMap, HashMap};

use ccam_storage::{BufferPool, MemPageStore, PageId, SlottedPage, StorageError};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum PageOp {
    Insert(Vec<u8>),
    Delete(usize),
    Update(usize, Vec<u8>),
    Compact,
}

fn page_op() -> impl Strategy<Value = PageOp> {
    prop_oneof![
        3 => prop::collection::vec(any::<u8>(), 0..60).prop_map(PageOp::Insert),
        2 => any::<usize>().prop_map(PageOp::Delete),
        2 => (any::<usize>(), prop::collection::vec(any::<u8>(), 0..60))
            .prop_map(|(i, v)| PageOp::Update(i, v)),
        1 => Just(PageOp::Compact),
    ]
}

#[derive(Debug, Clone)]
enum PoolOp {
    Alloc,
    Free(usize),
    Read(usize),
    Write(usize, u8),
    Clear,
    SetCapacity(usize),
    Corrupt(usize),
    FaultBurst,
    Heal,
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        4 => Just(PoolOp::Alloc),
        2 => any::<usize>().prop_map(PoolOp::Free),
        4 => any::<usize>().prop_map(PoolOp::Read),
        4 => (any::<usize>(), any::<u8>()).prop_map(|(i, v)| PoolOp::Write(i, v)),
        1 => Just(PoolOp::Clear),
        2 => (1usize..5).prop_map(PoolOp::SetCapacity),
        1 => any::<usize>().prop_map(PoolOp::Corrupt),
        1 => Just(PoolOp::FaultBurst),
        2 => Just(PoolOp::Heal),
    ]
}

#[derive(Debug, Clone)]
enum LruOp {
    Alloc,
    /// Access a page (`true` = through `with_page_mut`); hit or miss,
    /// it becomes the most recently used.
    Touch(usize, bool),
    Free(usize),
    Clear,
    SetCapacity(usize),
}

fn lru_op() -> impl Strategy<Value = LruOp> {
    prop_oneof![
        3 => Just(LruOp::Alloc),
        8 => (any::<usize>(), any::<bool>()).prop_map(|(i, w)| LruOp::Touch(i, w)),
        2 => any::<usize>().prop_map(LruOp::Free),
        1 => Just(LruOp::Clear),
        2 => (1usize..6).prop_map(LruOp::SetCapacity),
        // Far past the handful of live pages: growing must change nothing
        // but the budget.
        1 => (200usize..400).prop_map(LruOp::SetCapacity),
    ]
}

#[derive(Debug, Clone)]
enum WalOp {
    Alloc,
    Write(usize, u8),
    Free(usize),
    Sync,
}

fn wal_op() -> impl Strategy<Value = WalOp> {
    prop_oneof![
        3 => Just(WalOp::Alloc),
        4 => (any::<usize>(), any::<u8>()).prop_map(|(i, v)| WalOp::Write(i, v)),
        2 => any::<usize>().prop_map(WalOp::Free),
        3 => Just(WalOp::Sync),
    ]
}

#[derive(Debug, Clone)]
enum SnapOp {
    Alloc,
    Write(usize, u8),
    Free(usize),
    Commit,
    Rollback,
    Pin,
    Unpin(usize),
}

fn snap_op() -> impl Strategy<Value = SnapOp> {
    prop_oneof![
        2 => Just(SnapOp::Alloc),
        4 => (any::<usize>(), any::<u8>()).prop_map(|(i, v)| SnapOp::Write(i, v)),
        2 => any::<usize>().prop_map(SnapOp::Free),
        3 => Just(SnapOp::Commit),
        1 => Just(SnapOp::Rollback),
        2 => Just(SnapOp::Pin),
        1 => any::<usize>().prop_map(SnapOp::Unpin),
    ]
}

/// Per-case WAL file in the temp dir (proptest runs cases sequentially,
/// but a counter keeps shrink re-runs from colliding with leftovers).
fn unique_wal_path() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ccam-prop-{}-{}.wal",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

proptest! {
    /// Any sequence of inserts/deletes/updates/compactions leaves the page
    /// agreeing with an in-memory model, and free-space accounting never
    /// goes negative.
    #[test]
    fn slotted_page_matches_model(ops in prop::collection::vec(page_op(), 1..80)) {
        let mut buf = vec![0u8; 512];
        let mut page = SlottedPage::init(&mut buf);
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
        let mut live: Vec<u16> = Vec::new();

        for op in ops {
            match op {
                PageOp::Insert(data) => match page.insert(&data) {
                    Ok(slot) => {
                        prop_assert!(!model.contains_key(&slot),
                            "insert returned an already-live slot");
                        model.insert(slot, data);
                        live.push(slot);
                    }
                    Err(StorageError::PageFull { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                },
                PageOp::Delete(i) => {
                    if live.is_empty() { continue; }
                    let slot = live.remove(i % live.len());
                    page.delete(slot).unwrap();
                    model.remove(&slot);
                }
                PageOp::Update(i, data) => {
                    if live.is_empty() { continue; }
                    let slot = live[i % live.len()];
                    match page.update(slot, &data) {
                        Ok(()) => { model.insert(slot, data); }
                        Err(StorageError::PageFull { .. }) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                PageOp::Compact => page.compact(),
            }

            // Model agreement after every step.
            prop_assert_eq!(page.live_count() as usize, model.len());
            for (&slot, data) in &model {
                prop_assert_eq!(page.get(slot), Some(&data[..]));
            }
            let used: usize = model.values().map(|d| d.len()).sum();
            prop_assert_eq!(page.used_bytes(), used);
            prop_assert!(page.free_space() <= 512);
        }
    }

    /// The buffer pool is transparent for any capacity: interleaved writes
    /// and reads across many pages always observe the latest data.
    #[test]
    fn buffer_pool_is_transparent(
        cap in 1usize..6,
        ops in prop::collection::vec((0u32..12, any::<u8>()), 1..120),
    ) {
        let pool = BufferPool::new(MemPageStore::new(64).unwrap(), cap);
        let mut ids: Vec<PageId> = Vec::new();
        let mut shadow: Vec<u8> = Vec::new();
        for (page_sel, value) in ops {
            // Lazily allocate pages as the op stream references them.
            while ids.len() <= page_sel as usize {
                ids.push(pool.allocate().unwrap());
                shadow.push(0);
            }
            let id = ids[page_sel as usize];
            pool.with_page_mut(id, |buf| buf.fill(value)).unwrap();
            shadow[page_sel as usize] = value;

            // Every page readable with its latest value.
            for (i, &id) in ids.iter().enumerate() {
                let ok = pool
                    .with_page(id, |buf| buf.iter().all(|&x| x == shadow[i]))
                    .unwrap();
                prop_assert!(ok, "page {i} lost its bytes (cap={cap})");
            }
            prop_assert!(pool.resident_pages().len() <= cap);
        }
        // And the data survives a full flush + clear (i.e. it is durable in
        // the store, not just in frames).
        pool.clear().unwrap();
        for (i, &id) in ids.iter().enumerate() {
            let ok = pool
                .with_page(id, |buf| buf.iter().all(|&x| x == shadow[i]))
                .unwrap();
            prop_assert!(ok);
        }
    }

    /// WAL recovery is correct and idempotent: after random committed
    /// batches and a crash at a random physical mutation, (1) every
    /// committed page survives byte-for-byte, (2) any extra live page is
    /// an unreferenced zero-filled allocation leak, and (3) replaying the
    /// same log twice — a crash in the middle of recovery — leaves the
    /// store byte-identical to a single replay.
    #[test]
    fn wal_replay_is_idempotent(
        ops in prop::collection::vec(wal_op(), 1..60),
        crash_countdown in 1u64..50,
    ) {
        use ccam_storage::testing::{FaultStore, TornWrite};
        use ccam_storage::{recovery, PageStore, Wal, WalStore};

        const PS: usize = 64;
        let wal_path = unique_wal_path();
        std::fs::remove_file(&wal_path).ok();

        let (cstore, ctl) = FaultStore::with_seed(MemPageStore::new(PS).unwrap(), crash_countdown);
        let mut ws = WalStore::create(cstore, &wal_path).unwrap();
        // The cut tears the write it strikes and undoes half of those
        // no data sync covered.
        ctl.set_volatile_writes(512);
        ctl.crash_after(crash_countdown, TornWrite::Partial);

        // Shadow state: `working` tracks every applied op, `committed`
        // the state as of the last durable commit.
        let mut working: HashMap<u32, Vec<u8>> = HashMap::new();
        let mut committed: HashMap<u32, Vec<u8>> = HashMap::new();
        let mut live: Vec<PageId> = Vec::new();
        for op in ops {
            match op {
                WalOp::Alloc => match ws.allocate() {
                    Ok(id) => {
                        working.insert(id.index(), vec![0; PS]);
                        live.push(id);
                    }
                    Err(_) => break,
                },
                WalOp::Write(i, v) => {
                    if live.is_empty() { continue; }
                    let id = live[i % live.len()];
                    if ws.write(id, &[v; PS]).is_ok() {
                        working.insert(id.index(), vec![v; PS]);
                    } else {
                        break;
                    }
                }
                WalOp::Free(i) => {
                    if live.is_empty() { continue; }
                    let id = live.remove(i % live.len());
                    if ws.free(id).is_ok() {
                        working.remove(&id.index());
                    } else {
                        break;
                    }
                }
                WalOp::Sync => {
                    let logged = ws.pending_ops() > 0;
                    match ws.sync() {
                        Ok(()) => { committed = working.clone(); }
                        Err(_) => {
                            // The WAL file itself never fails here, so a
                            // non-empty batch was logged (durable) before
                            // the inner store died mid-apply.
                            if logged { committed = working.clone(); }
                            break;
                        }
                    }
                }
            }
        }

        // Reboot: take the surviving inner store and recover it, twice
        // over the same scan (as if recovery itself was interrupted).
        let mut store = ws.simulate_crash().into_inner();
        let (mut wal, scan) = Wal::open(&wal_path, PS).unwrap();
        recovery::replay(&mut store, &mut wal, &scan).unwrap();
        let snap1 = recovery::live_snapshot(&store).unwrap();
        recovery::replay(&mut store, &mut wal, &scan).unwrap();
        let snap2 = recovery::live_snapshot(&store).unwrap();
        prop_assert_eq!(&snap1, &snap2, "second replay changed the store");

        // Every committed page is there, byte-for-byte.
        for (&idx, data) in &committed {
            let got = snap1.iter().find(|(id, _)| id.index() == idx);
            prop_assert_eq!(
                got.map(|(_, b)| &b[..]), Some(&data[..]),
                "committed page {} lost or damaged", idx
            );
        }
        // Anything extra is an allocation that crashed before its batch
        // was logged: live but still zero-filled, never stale data.
        for (id, bytes) in &snap1 {
            if !committed.contains_key(&id.index()) {
                prop_assert!(
                    bytes.iter().all(|&b| b == 0),
                    "leaked page {} holds non-zero data", id.index()
                );
            }
        }

        // A fresh open after recovery finds a clean, checkpointed log:
        // nothing beyond the checkpoint marker recovery left behind.
        let (_wal, scan) = Wal::open(&wal_path, PS).unwrap();
        prop_assert!(scan
            .records
            .iter()
            .all(|r| matches!(r.record, ccam_storage::LogRecord::Checkpoint)));
        prop_assert_eq!(scan.truncated_bytes, 0);
        std::fs::remove_file(&wal_path).ok();
    }

    /// The buffer pool's frame table and page map stay in agreement under
    /// any interleaving of allocate/free/read/write/clear/set_capacity —
    /// including mid-operation failures injected by a [`FaultStore`]
    /// (checksum-corrupt pages and transient fault bursts). After every
    /// step [`BufferPool::check_invariants`] must hold and residency must
    /// respect the capacity; once the store is healed the pool must be
    /// fully operational again.
    #[test]
    fn buffer_pool_invariants_hold_under_faults(
        cap in 1usize..5,
        ops in prop::collection::vec(pool_op(), 1..100),
    ) {
        use ccam_storage::testing::FaultStore;

        let (store, ctl) = FaultStore::with_seed(MemPageStore::new(64).unwrap(), 7);
        let pool = BufferPool::new(store, cap);
        let mut live: Vec<PageId> = Vec::new();

        for op in ops {
            match op {
                PoolOp::Alloc => {
                    if let Ok(id) = pool.allocate() {
                        live.push(id);
                    }
                }
                PoolOp::Free(i) => {
                    if live.is_empty() { continue; }
                    let idx = i % live.len();
                    // A failed free leaves the page live; only drop it
                    // from the model when the pool reported success.
                    if pool.free(live[idx]).is_ok() {
                        live.remove(idx);
                    }
                }
                PoolOp::Read(i) => {
                    if live.is_empty() { continue; }
                    let _ = pool.with_page(live[i % live.len()], |_| ());
                }
                PoolOp::Write(i, v) => {
                    if live.is_empty() { continue; }
                    let _ = pool.with_page_mut(live[i % live.len()], |buf| buf.fill(v));
                }
                PoolOp::Clear => { let _ = pool.clear(); }
                PoolOp::SetCapacity(n) => { let _ = pool.set_capacity(n); }
                PoolOp::Corrupt(i) => {
                    if live.is_empty() { continue; }
                    ctl.mark_corrupt(live[i % live.len()]);
                }
                PoolOp::FaultBurst => ctl.set_fault_rate(1024, 2),
                PoolOp::Heal => {
                    ctl.set_fault_rate(0, 1);
                    for id in ctl.corrupt_pages() {
                        ctl.clear_corrupt(id);
                    }
                }
            }
            pool.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert!(pool.resident_pages().len() <= pool.capacity());
        }

        // Heal every injected fault: the pool must flush cleanly and every
        // live page must still be reachable through it.
        ctl.set_fault_rate(0, 1);
        for id in ctl.corrupt_pages() {
            ctl.clear_corrupt(id);
        }
        pool.clear().unwrap();
        pool.check_invariants().map_err(TestCaseError::fail)?;
        for &id in &live {
            pool.with_page(id, |_| ()).unwrap();
        }
    }

    /// The pool's recency order matches an exact LRU model: every access
    /// (hit or miss) moves the page to MRU, misses evict the LRU-most
    /// resident, `free` drops the page, `clear` empties the pool and
    /// `set_capacity` sheds LRU-most first. [`BufferPool::resident_pages`]
    /// reports MRU-first, so it must equal the model list verbatim.
    #[test]
    fn buffer_pool_matches_lru_model(
        cap in 1usize..6,
        ops in prop::collection::vec(lru_op(), 1..150),
    ) {
        let pool = BufferPool::new(MemPageStore::new(64).unwrap(), cap);
        let mut live: Vec<PageId> = Vec::new();
        let mut model: Vec<PageId> = Vec::new(); // MRU-first
        let mut cap = cap;

        for op in ops {
            match op {
                LruOp::Alloc => {
                    // Allocation touches only the store — never a frame.
                    live.push(pool.allocate().unwrap());
                }
                LruOp::Touch(i, write) => {
                    if live.is_empty() { continue; }
                    let id = live[i % live.len()];
                    if write {
                        pool.with_page_mut(id, |_| ()).unwrap();
                    } else {
                        pool.with_page(id, |_| ()).unwrap();
                    }
                    if let Some(pos) = model.iter().position(|&p| p == id) {
                        model.remove(pos);
                    } else if model.len() == cap {
                        model.pop(); // miss at capacity evicts LRU-most
                    }
                    model.insert(0, id);
                }
                LruOp::Free(i) => {
                    if live.is_empty() { continue; }
                    let id = live.remove(i % live.len());
                    pool.free(id).unwrap();
                    model.retain(|&p| p != id);
                }
                LruOp::Clear => {
                    pool.clear().unwrap();
                    model.clear();
                }
                LruOp::SetCapacity(n) => {
                    pool.set_capacity(n).unwrap();
                    model.truncate(n);
                    cap = n;
                }
            }
            prop_assert_eq!(&pool.resident_pages(), &model);
            pool.check_invariants().map_err(TestCaseError::fail)?;
        }
    }

    /// Allocate/free on the memory store never hands out the same live id
    /// twice and always recycles freed ids before growing.
    #[test]
    fn store_allocation_discipline(ops in prop::collection::vec(any::<bool>(), 1..200)) {
        use ccam_storage::PageStore;
        let mut store = MemPageStore::new(64).unwrap();
        let mut live: Vec<PageId> = Vec::new();
        let mut high_water = 0u32;
        for alloc in ops {
            if alloc || live.is_empty() {
                let id = store.allocate().unwrap();
                prop_assert!(!live.contains(&id));
                // Either recycled or brand new right above the high water mark.
                prop_assert!(id.index() <= high_water);
                high_water = high_water.max(id.index() + 1);
                live.push(id);
            } else {
                let id = live.swap_remove(live.len() / 2);
                store.free(id).unwrap();
            }
            prop_assert_eq!(store.live_pages().len(), live.len());
        }
    }

    /// Pins of a logged store read their own generation: after commits,
    /// rollbacks, frees and re-allocations of the same ids, every held
    /// pin has exactly the live pages and the bytes committed at the
    /// generation it names (each page filled with one byte; a map per
    /// generation is the model).
    #[test]
    fn snapshot_pins_read_their_own_generation(
        seeded in prop::collection::vec(any::<u8>(), 0..6),
        ops in prop::collection::vec(snap_op(), 1..80),
    ) {
        use ccam_storage::{PageStore, SnapshotStore, WalStore};
        const PAGE: usize = 64;
        let path = unique_wal_path();
        let mut s = WalStore::create(MemPageStore::new(PAGE).unwrap(), &path).unwrap();
        // What the store holds now, and at the last commit.
        let mut working: BTreeMap<PageId, u8> = BTreeMap::new();
        for &fill in &seeded {
            let page = s.allocate().unwrap();
            s.write(page, &[fill; PAGE]).unwrap();
            working.insert(page, fill);
        }
        s.sync().unwrap();
        let mut committed = working.clone();
        let mut generations = BTreeMap::from([(0u64, committed.clone())]);
        let mut pins: Vec<SnapshotStore> = vec![s.snapshot().unwrap()];
        let mut batch = false;
        let nth = |map: &BTreeMap<PageId, u8>, i: usize| map.keys().nth(i % map.len().max(1)).copied();
        for op in ops {
            match op {
                SnapOp::Alloc => {
                    working.insert(s.allocate().unwrap(), 0);
                    batch = true;
                }
                SnapOp::Write(i, fill) => if let Some(page) = nth(&working, i) {
                    s.write(page, &[fill; PAGE]).unwrap();
                    working.insert(page, fill);
                    batch = true;
                },
                SnapOp::Free(i) => if let Some(page) = nth(&working, i) {
                    s.free(page).unwrap();
                    working.remove(&page);
                    batch = true;
                },
                SnapOp::Commit => {
                    s.sync().unwrap();
                    if std::mem::take(&mut batch) {
                        let next = generations.len() as u64;
                        generations.insert(next, working.clone());
                    }
                    committed = working.clone();
                }
                SnapOp::Rollback => {
                    s.rollback().unwrap();
                    working = committed.clone();
                    batch = false;
                }
                SnapOp::Pin => {
                    let pin = s.snapshot().unwrap();
                    prop_assert_eq!(pin.generation() as usize, generations.len() - 1);
                    pins.push(pin);
                }
                SnapOp::Unpin(i) => if !pins.is_empty() {
                    pins.remove(i % pins.len());
                },
            }
            let ids = s.num_pages() + 1;
            for pin in &pins {
                let model = &generations[&pin.generation()];
                prop_assert_eq!(pin.live_pages(), model.keys().copied().collect::<Vec<_>>());
                let mut buf = [0u8; PAGE];
                for page in (0..ids).map(PageId) {
                    match model.get(&page) {
                        Some(&fill) => {
                            pin.read(page, &mut buf).unwrap();
                            prop_assert_eq!(buf, [fill; PAGE]);
                        }
                        None => prop_assert!(matches!(
                            pin.read(page, &mut buf),
                            Err(StorageError::InvalidPage(_))
                        )),
                    }
                    prop_assert_eq!(pin.is_live(page), model.contains_key(&page));
                }
            }
        }
        drop(s);
        std::fs::remove_file(&path).ok();
    }
}
