//! Single-writer / multi-version snapshot epochs over an access method.
//!
//! The serving layer shares one open [`crate::am::Ccam`] between many
//! reader threads while a maintenance writer applies inserts, deletes
//! and reorganizations. Every read must observe a *committed* state —
//! either the state before a writer's transaction or the state after it,
//! never a torn mix of the two.
//!
//! # The design this crate ships (and tests)
//!
//! Of the two candidate designs — (a) readers pin the last committed
//! state while the writer mutates, or (b) readers block for the writer's
//! whole critical section — this module implements **(a): MVCC-lite
//! pinned snapshots**. (Design (b), a reader/writer lock around the
//! whole `Ccam`, shipped first and stalled every reader for the length
//! of a reorganization.)
//!
//! * [`EpochCell::read`] returns a [`Snapshot`]: an `Arc` of the last
//!   *published* read-only view. Taking it costs one `RwLock` read
//!   acquisition and an `Arc` clone — no lock is held while the query
//!   runs, so readers never wait on a writer and a writer never waits
//!   on readers.
//! * [`EpochCell::write`] keeps single-writer exclusivity over the
//!   mutable value. The writer mutates freely; readers cannot observe
//!   any of it, because they only ever dereference the published view.
//! * [`EpochWriteGuard::commit`] captures a fresh view from the
//!   (committed) writer state via [`Snapshotable::capture`], publishes
//!   it atomically, and bumps the epoch. **The epoch bumps only on
//!   successful commit.**
//!
//! # Version lifecycle
//!
//! Capture pins a *generation* of the committed pages: a clone of the
//! write-ahead log's `MemPageStore` mirror of them
//! (`ccam_storage::snapshot`; the first capture seeds it), which costs
//! one reference per 64 pages and copies no page image. A later commit
//! copies only the images it replaces while a pin still holds them, and
//! a superseded image is freed when the last `Snapshot` holding it
//! drops. A store with no log has no mirror, so [`EpochCell::new`] over
//! it fails with `StorageError::NoLog`. The view's index is a
//! copy-on-write fork of the writer's, so nothing is scanned to build
//! it, and a published view is immutable: snapshots taken before a
//! commit keep reading their own generation for as long as they live.
//!
//! # Commit / abort / panic state machine
//!
//! ```text
//!   write() ──► mutating ──ok──► commit() ──capture ok──► published, epoch+1
//!                  │                  └─capture err─────► Err (view unchanged,
//!                  │                                      writer reusable)
//!                  ├── guard dropped (abort) ───────────► view + epoch unchanged
//!                  └── panic (unwind) ──────────────────► cell POISONED
//! ```
//!
//! A dropped-without-commit guard is a benign abort: the access-method
//! layer has already rolled the writer back to its committed state, the
//! published view never changed, and the epoch does not move. A *panic*
//! mid-transaction may leave the writer value torn. The cell's poison is
//! its writer mutex's own: std poisons a `Mutex` whose guard drops while
//! its thread unwinds, and every entry point reads that flag —
//! `write()` and `with_writer()` after they acquire the lock, so a
//! writer that was already queued when another panicked sees the poison
//! instead of the torn value. `read()`, `write()` and `with_writer()`
//! then fail with `StorageError::Poisoned` (the server answers
//! `Internal`) until [`EpochCell::recover`] restores the committed state
//! via [`Snapshotable::restore_committed`], republishes and clears the
//! poison. Snapshots already taken stay valid through poisoning — they
//! are immutable committed data. `write()` and `with_writer()` are the
//! one place in the workspace that takes a lock without
//! `ccam_storage::sync`, whose helpers recover a poisoned guard.
//!
//! The epoch counter is observability, not synchronization: a reader
//! that records [`EpochCell::epoch`] before and after a batch can tell
//! whether a commit intervened, and [`Snapshot::epoch`] names the
//! committed generation a snapshot serves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use ccam_storage::sync::{lock, read_lock, write_lock};
use ccam_storage::{IoStats, StorageError, StorageResult};

/// A value that can publish immutable committed views of itself.
///
/// `capture` is called at commit time, after the value's own
/// transactional machinery has made the state durable; it must first
/// ensure the committed state is visible (e.g. flush + sync), then
/// build a read-only view of exactly that state.
pub trait Snapshotable {
    /// The immutable read-only view readers share.
    type View: Send + Sync + 'static;

    /// Builds a view of the current committed state. `prev` is the view
    /// the new one will replace (`None` for the first), so a capture can
    /// carry over what the old view was given after it was built — e.g.
    /// the size its buffer pool was set to.
    fn capture(&self, prev: Option<&Self::View>) -> StorageResult<Self::View>;

    /// Restores the committed state after a panic left the value
    /// possibly torn (used by [`EpochCell::recover`]). The default
    /// assumes the value cannot tear.
    fn restore_committed(&mut self) -> StorageResult<()> {
        Ok(())
    }

    /// The value's I/O counters, if it has any — lets the cell expose
    /// them without locking the writer (a long reorganization holds the
    /// writer lock, and metrics must not block on it).
    fn stats_handle(&self) -> Option<Arc<IoStats>> {
        None
    }
}

struct Published<V> {
    view: Arc<V>,
    epoch: u64,
}

/// A single-writer cell publishing immutable snapshots of `T` with a
/// monotone commit epoch. See the module docs for the design.
pub struct EpochCell<T: Snapshotable> {
    writer: Mutex<T>,
    published: RwLock<Published<T::View>>,
    epoch: AtomicU64,
    io: Option<Arc<IoStats>>,
}

impl<T: Snapshotable> EpochCell<T> {
    /// Wraps `value` at epoch 0, capturing and publishing its initial
    /// committed view.
    pub fn new(value: T) -> StorageResult<Self> {
        let view = Arc::new(value.capture(None)?);
        let io = value.stats_handle();
        Ok(EpochCell {
            writer: Mutex::new(value),
            published: RwLock::new(Published { view, epoch: 0 }),
            epoch: AtomicU64::new(0),
            io,
        })
    }

    /// Pins the last published snapshot. Cheap (one `Arc` clone) and
    /// never blocked by a writer's critical section; the snapshot stays
    /// valid — and keeps reading its own committed generation — for as
    /// long as it is held, across any number of later commits.
    ///
    /// Fails with [`StorageError::Poisoned`] after a writer panicked
    /// mid-transaction (see [`EpochCell::recover`]).
    pub fn read(&self) -> StorageResult<Snapshot<T::View>> {
        if self.is_poisoned() {
            return Err(StorageError::Poisoned);
        }
        let p = read_lock(&self.published);
        Ok(Snapshot {
            view: Arc::clone(&p.view),
            epoch: p.epoch,
        })
    }

    /// Exclusive write access. The caller runs a whole logical
    /// transaction (mutate + commit) under the guard and then calls
    /// [`EpochWriteGuard::commit`] to publish; dropping the guard
    /// without committing aborts (readers keep the previous view and
    /// the epoch does not move).
    ///
    /// Fails with [`StorageError::Poisoned`] after a writer panicked
    /// mid-transaction, also when this call was already waiting for the
    /// lock when that writer panicked.
    pub fn write(&self) -> StorageResult<EpochWriteGuard<'_, T>> {
        Ok(EpochWriteGuard {
            guard: self.lock_writer()?,
            cell: self,
        })
    }

    /// Clears poison after a writer panic: restores the committed state
    /// ([`Snapshotable::restore_committed`]), captures and publishes a
    /// fresh view, and re-opens the cell. Returns the new epoch.
    pub fn recover(&self) -> StorageResult<u64> {
        let mut writer = lock(&self.writer);
        writer.restore_committed()?;
        let view = Arc::new(writer.capture(Some(&self.current()))?);
        let epoch = self.publish(view);
        self.writer.clear_poison();
        Ok(epoch)
    }

    /// Runs `f` with shared access to the writer-side value, briefly
    /// holding the writer lock without opening a transaction (no commit,
    /// no epoch movement — snapshot readers are unaffected). The
    /// replication streamer uses this to collect committed log records
    /// between writer transactions; keep `f` short, since it excludes
    /// writers for its duration.
    ///
    /// Fails with [`StorageError::Poisoned`] like [`EpochCell::write`].
    /// A panic inside `f` poisons the cell too: it unwinds through the
    /// writer lock, and the cell cannot tell a panicking reader of the
    /// value from a panicking writer.
    pub fn with_writer<R>(&self, f: impl FnOnce(&T) -> R) -> StorageResult<R> {
        let w = self.lock_writer()?;
        Ok(f(&w))
    }

    /// True after a writer panicked mid-transaction and before
    /// [`EpochCell::recover`] succeeded.
    pub fn is_poisoned(&self) -> bool {
        self.writer.is_poisoned()
    }

    /// The number of commits published so far. Two equal observations
    /// bracket a span in which no writer committed.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The wrapped value's I/O counters, without touching the writer
    /// lock (usable while a long transaction is in flight).
    pub fn io_stats(&self) -> Option<Arc<IoStats>> {
        self.io.clone()
    }

    /// Consumes the cell, returning the inner (writer) value.
    pub fn into_inner(self) -> T {
        self.writer
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The writer lock, or [`StorageError::Poisoned`] if a holder
    /// panicked — judged once the lock is held, so a caller that queued
    /// behind the panicking writer never sees its torn value.
    #[allow(clippy::disallowed_methods)] // the writer's poison is the cell's
    fn lock_writer(&self) -> StorageResult<MutexGuard<'_, T>> {
        self.writer.lock().map_err(|_| StorageError::Poisoned)
    }

    /// The published view. Only the holder of the writer lock replaces
    /// it, so to that holder it is also the view the next commit
    /// supersedes.
    fn current(&self) -> Arc<T::View> {
        Arc::clone(&read_lock(&self.published).view)
    }

    fn publish(&self, view: Arc<T::View>) -> u64 {
        let mut p = write_lock(&self.published);
        let epoch = p.epoch + 1;
        *p = Published { view, epoch };
        // Inside the lock so `epoch()` can never run ahead of the view
        // a concurrent `read()` would pin.
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }
}

/// A pinned, immutable committed view (see [`EpochCell::read`]).
pub struct Snapshot<V> {
    view: Arc<V>,
    epoch: u64,
}

impl<V> Snapshot<V> {
    /// The commit epoch this snapshot serves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl<V> Clone for Snapshot<V> {
    fn clone(&self) -> Self {
        Snapshot {
            view: Arc::clone(&self.view),
            epoch: self.epoch,
        }
    }
}

impl<V> std::ops::Deref for Snapshot<V> {
    type Target = V;
    fn deref(&self) -> &V {
        &self.view
    }
}

/// Write guard for [`EpochCell::write`]: exclusive access that
/// publishes only on explicit [`EpochWriteGuard::commit`]. Dropping it
/// without committing aborts; unwinding through it poisons the cell.
pub struct EpochWriteGuard<'a, T: Snapshotable> {
    guard: MutexGuard<'a, T>,
    cell: &'a EpochCell<T>,
}

impl<T: Snapshotable> EpochWriteGuard<'_, T> {
    /// Captures the writer's committed state, publishes it as the next
    /// snapshot, bumps the epoch and releases the guard. Returns the
    /// new epoch.
    ///
    /// On capture failure the previous view stays published, the epoch
    /// does not move, and the cell is *not* poisoned (the writer state
    /// is still its committed self; the caller may retry).
    pub fn commit(self) -> StorageResult<u64> {
        let prev = self.cell.current();
        let view = Arc::new(self.capture(Some(&prev))?);
        Ok(self.cell.publish(view))
    }
}

impl<T: Snapshotable> std::ops::Deref for EpochWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: Snapshotable> std::ops::DerefMut for EpochWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test double: a pair whose invariant is `a == b`, with a
    /// "repair" that re-establishes it from the first element.
    #[derive(Clone)]
    struct Pair(u64, u64);

    impl Snapshotable for Pair {
        type View = Pair;
        fn capture(&self, _prev: Option<&Self::View>) -> StorageResult<Self::View> {
            Ok(self.clone())
        }
        fn restore_committed(&mut self) -> StorageResult<()> {
            self.1 = self.0;
            Ok(())
        }
    }

    #[test]
    fn epoch_counts_committed_transactions_only() {
        let cell = EpochCell::new(Pair(0, 0)).unwrap();
        assert_eq!(cell.epoch(), 0);
        let mut g = cell.write().unwrap();
        g.0 = 1;
        g.1 = 1;
        assert_eq!(cell.epoch(), 0); // not bumped until commit
        assert_eq!(g.commit().unwrap(), 1);
        assert_eq!(cell.epoch(), 1);

        // Abort: drop without commit — no bump, readers keep the old view.
        {
            let mut g = cell.write().unwrap();
            g.0 = 99;
            g.1 = 99;
        }
        assert_eq!(cell.epoch(), 1);
        assert_eq!(cell.read().unwrap().0, 1);
    }

    #[test]
    fn snapshots_pin_their_generation_across_commits() {
        let cell = EpochCell::new(Pair(1, 1)).unwrap();
        let old = cell.read().unwrap();
        let mut g = cell.write().unwrap();
        g.0 = 2;
        g.1 = 2;
        g.commit().unwrap();
        // The pinned snapshot still serves its own committed generation.
        assert_eq!(old.0, 1);
        assert_eq!(old.epoch(), 0);
        let new = cell.read().unwrap();
        assert_eq!(new.0, 2);
        assert_eq!(new.epoch(), 1);
    }

    #[test]
    fn readers_never_see_a_torn_write() {
        // The writer breaks the invariant (a != b) mid-transaction;
        // readers resolve published snapshots only and can never catch it.
        let cell = std::sync::Arc::new(EpochCell::new(Pair(0, 0)).unwrap());
        let stop = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = std::sync::Arc::clone(&cell);
                let stop = std::sync::Arc::clone(&stop);
                s.spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        let g = cell.read().unwrap();
                        assert_eq!(g.0, g.1, "torn state observed");
                    }
                });
            }
            for i in 1..500u64 {
                let mut g = cell.write().unwrap();
                g.0 = i;
                // The torn (i, i-1) state exists only in the writer
                // value, which no reader dereferences.
                g.1 = i;
                g.commit().unwrap();
            }
            stop.store(1, Ordering::Relaxed);
        });
        assert_eq!(cell.epoch(), 499);
    }

    #[test]
    fn panicking_writer_poisons_and_recover_reopens() {
        let cell = std::sync::Arc::new(EpochCell::new(Pair(5, 5)).unwrap());
        let pre_panic = cell.read().unwrap();

        let cell2 = std::sync::Arc::clone(&cell);
        let r = std::thread::spawn(move || {
            let mut g = cell2.write().unwrap();
            g.0 = 6; // torn: invariant broken…
            panic!("injected writer panic"); // …and never restored
        })
        .join();
        assert!(r.is_err());

        // New reads and writes fail typed; pinned snapshots stay valid.
        assert!(cell.is_poisoned());
        assert!(matches!(cell.read(), Err(StorageError::Poisoned)));
        assert!(matches!(cell.write(), Err(StorageError::Poisoned)));
        assert_eq!(pre_panic.0, 5);
        assert_eq!(cell.epoch(), 0);

        // Recover: committed state restored, fresh view published.
        cell.recover().unwrap();
        assert!(!cell.is_poisoned());
        let g = cell.read().unwrap();
        assert_eq!(g.0, g.1, "recover must republish a consistent state");

        // The cell is fully usable again.
        let mut w = cell.write().unwrap();
        w.0 = 7;
        w.1 = 7;
        w.commit().unwrap();
        assert_eq!(cell.read().unwrap().0, 7);
    }

    /// Writer A takes the lock and tears the pair; `queued` starts once
    /// A holds it and is left about 100 ms to block on the lock, then A
    /// panics. Returns what `queued` returned. Whether `queued` reached
    /// the lock in time decides only whether a check made before the
    /// lock is caught out; a cell that judges poison after acquiring it
    /// fails `queued` either way.
    fn queued_behind_a_panic<R: Send>(
        cell: &EpochCell<Pair>,
        queued: impl FnOnce(&EpochCell<Pair>) -> R + Send,
    ) -> R {
        let (locked, is_locked) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let a = s.spawn(move || {
                let mut g = cell.write().unwrap();
                g.0 += 1; // torn: invariant broken…
                locked.send(()).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(100));
                panic!("injected writer panic"); // …and never restored
            });
            is_locked.recv().unwrap();
            let b = s.spawn(|| queued(cell));
            assert!(a.join().is_err());
            b.join().unwrap()
        })
    }

    #[test]
    fn a_writer_queued_behind_a_panicking_writer_sees_the_poison() {
        let cell = EpochCell::new(Pair(5, 5)).unwrap();
        let queued = queued_behind_a_panic(&cell, |cell| cell.write().and_then(|w| w.commit()));
        assert!(matches!(queued, Err(StorageError::Poisoned)));
        assert_eq!(cell.epoch(), 0, "the torn pair was committed");
        assert!(cell.is_poisoned());
        cell.recover().unwrap();
        let g = cell.read().unwrap();
        assert_eq!(g.0, g.1, "recover must republish a consistent state");
    }

    #[test]
    fn a_reader_of_the_writer_queued_behind_a_panic_sees_the_poison() {
        let cell = EpochCell::new(Pair(5, 5)).unwrap();
        let queued = queued_behind_a_panic(&cell, |cell| cell.with_writer(|p| (p.0, p.1)));
        assert!(matches!(queued, Err(StorageError::Poisoned)));
        assert_eq!(cell.epoch(), 0);
        assert!(cell.is_poisoned());
    }

    #[test]
    fn a_panic_inside_with_writer_poisons_the_cell() {
        let cell = EpochCell::new(Pair(5, 5)).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.with_writer(|_| panic!("injected panic under the writer lock"))
        }));
        assert!(r.is_err());
        assert!(matches!(cell.read(), Err(StorageError::Poisoned)));
        cell.recover().unwrap();
        assert_eq!(cell.with_writer(|p| p.0).unwrap(), 5);
    }

    #[test]
    fn equal_epochs_bracket_a_quiescent_span() {
        let cell = EpochCell::new(Pair(7, 7)).unwrap();
        let before = cell.epoch();
        let v = cell.read().unwrap().0;
        let after = cell.epoch();
        assert_eq!(before, after);
        assert_eq!(v, 7);
    }
}
