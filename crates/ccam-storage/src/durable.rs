//! [`WalStore`]: a write-ahead-logged [`PageStore`] wrapper.
//!
//! `WalStore` makes any inner store crash-atomic at `sync()` granularity.
//! Page writes and frees are buffered in an in-memory overlay (a no-steal
//! policy: nothing uncommitted reaches the data pages); [`PageStore::sync`]
//! is the commit point. It serializes the whole overlay into one log
//! batch ([`Wal::append_batch`] — group commit, one write), and only then
//! applies the page images and frees to the inner store.
//!
//! ## What each sync is for
//!
//! * **The log `fdatasync`, once per commit, is the commit point.** A
//!   crash before it completes loses the batch entirely (the data file
//!   never saw it); a crash any time after leaves a committed batch in
//!   the log that redo replay ([`crate::recovery`]) completes on reopen.
//! * **The data-file sync exists for the log's sake, not the commit's.**
//!   The applied images need not be durable while the log still holds
//!   them — replay rewrites every one. They must be durable *before the
//!   log bytes covering them are truncated*, so the inner store is synced
//!   at checkpoint time: data sync, **then** truncate, never the reverse.
//! * **A batch that changes the allocation map syncs the data file at
//!   commit.** A file store's `open` walks the freelist links and reads
//!   the page count before replay gets a chance to repair them, so a
//!   batch with an allocation or a free is not left to the next
//!   checkpoint.
//!
//! A checkpoint happens when a commit pushes the log past its byte cap
//! ([`DEFAULT_MAX_WAL_BYTES`] unless [`WalStore::set_max_wal_bytes`]
//! says otherwise), on [`WalStore::checkpoint`], and on clean close (the
//! buffer pool's drop) — so a cleanly closed database reopens with an
//! empty log, and a killed one replays at most a cap's worth of page
//! images. A `sync()` with nothing pending makes no system call.
//!
//! Either way the data file reopens in a state that is *some* prefix of
//! committed batches — never a torn middle: batches retained in the log
//! are already applied, and redoing them is idempotent.
//!
//! Allocations are the one operation that passes straight through: the
//! inner store assigns the id (keeping id assignment identical with and
//! without a WAL), and recovery frees any allocation whose batch never
//! committed.
//!
//! ## Failure handling
//!
//! An I/O error from the log or the inner store *poisons* the wrapper:
//! further mutations fail with [`StorageError::Poisoned`] until either
//! [`WalStore::rollback`] discards the unlogged overlay or — when the
//! failure struck *after* the batch was logged, i.e. after the commit
//! point — a retried `sync()` re-applies it (apply is idempotent).
//! Poisoning is what keeps a half-failed multi-page operation from being
//! committed by a later, unrelated flush (e.g. the buffer pool's
//! write-back on drop).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;

use std::sync::{Arc, Mutex};

use crate::error::{StorageError, StorageResult};
use crate::page::PageId;
use crate::recovery::{live_snapshot, replay, RecoveryReport};
use crate::snapshot::SnapshotStore;
use crate::store::{PageStore, WalControl, WalInfo};
use crate::sync::lock;
use crate::wal::{LogRecord, StampedRecord, Wal};

/// Live-log bytes past which a commit checkpoints, unless
/// [`WalStore::set_max_wal_bytes`] names another cap: a crash-open
/// replays at most about a thousand 1 KiB page images. A stalled
/// subscriber holds the tail back up to four caps, not for ever.
pub const DEFAULT_MAX_WAL_BYTES: u64 = 1 << 20;

// ---------------------------------------------------------------------------
// Log retention: who still needs which WAL bytes
// ---------------------------------------------------------------------------

/// Registry of log-tail subscribers (replication followers, mostly).
/// Each subscriber holds a [`RetentionSlot`] carrying its last-applied
/// LSN; the minimum across live slots is a floor below which the log
/// must not be truncated, gating [`WalStore::checkpoint`].
pub struct WalRetention {
    slots: Mutex<RetentionSlots>,
}

#[derive(Default)]
struct RetentionSlots {
    next_id: u64,
    applied: HashMap<u64, u64>,
}

impl WalRetention {
    fn new() -> Arc<WalRetention> {
        Arc::new(WalRetention {
            slots: Mutex::new(RetentionSlots::default()),
        })
    }

    /// Registers a subscriber whose state reflects everything up to
    /// `applied_lsn`. The returned slot pins the log from there until
    /// advanced or dropped.
    pub fn subscribe(self: &Arc<Self>, applied_lsn: u64) -> RetentionSlot {
        let mut s = lock(&self.slots);
        let id = s.next_id;
        s.next_id += 1;
        s.applied.insert(id, applied_lsn);
        RetentionSlot {
            retention: Arc::clone(self),
            id,
        }
    }

    /// Smallest applied LSN across live subscribers (`None` when there
    /// are none).
    pub fn min_lsn(&self) -> Option<u64> {
        lock(&self.slots).applied.values().copied().min()
    }

    /// Number of live subscriber slots.
    pub fn subscribers(&self) -> usize {
        lock(&self.slots).applied.len()
    }
}

/// One subscriber's claim on the log tail; dropping it releases the
/// claim.
pub struct RetentionSlot {
    retention: Arc<WalRetention>,
    id: u64,
}

impl RetentionSlot {
    /// Records that the subscriber has durably applied everything up to
    /// `applied_lsn` (monotonic: lower values are ignored).
    pub fn advance(&self, applied_lsn: u64) {
        let mut s = lock(&self.retention.slots);
        if let Some(v) = s.applied.get_mut(&self.id) {
            if applied_lsn > *v {
                *v = applied_lsn;
            }
        }
    }
}

impl Drop for RetentionSlot {
    fn drop(&mut self) {
        lock(&self.retention.slots).applied.remove(&self.id);
    }
}

// ---------------------------------------------------------------------------
// Replication feed
// ---------------------------------------------------------------------------

/// Answer to "give me every committed log record past LSN `after`"
/// ([`WalControl::repl_feed`]).
#[derive(Debug)]
pub enum ReplFeed {
    /// A checkpoint already reclaimed the bytes after `after`; the
    /// subscriber must re-seed from a full image instead.
    NotRetained {
        /// First LSN the retained tail can still serve.
        tail_start_lsn: u64,
    },
    /// Committed records in log order, every one stamped past `after`.
    Records {
        /// The records (possibly empty when the subscriber is caught up).
        records: Vec<StampedRecord>,
        /// The log's next LSN — what "caught up" currently means.
        next_lsn: u64,
    },
}

/// A full committed-state snapshot for seeding a subscriber that fell
/// behind the retained log tail.
#[derive(Debug)]
pub struct ReplImage {
    /// The image reflects every record up to and including this LSN.
    pub applied_lsn: u64,
    /// Page size of the image pages.
    pub page_size: usize,
    /// Every live page and its committed contents, ascending by id.
    pub pages: Vec<(PageId, Vec<u8>)>,
}

/// Answer to an image-handoff request ([`WalControl::repl_image`]).
#[derive(Debug)]
pub enum ReplImageState {
    /// Mid-batch or mid-repair: retry at the next commit boundary.
    Busy,
    /// The committed snapshot.
    Ready(ReplImage),
}

/// A [`PageStore`] wrapper that write-ahead logs every mutation and turns
/// `sync()` into an atomic commit point. See the module docs for the
/// protocol.
pub struct WalStore<S: PageStore> {
    inner: S,
    wal: Wal,
    /// After-images pending commit, keyed by page id (ascending order
    /// makes log batches deterministic).
    pending_writes: BTreeMap<u32, Box<[u8]>>,
    /// Pages allocated since the last commit, in allocation order.
    pending_allocs: Vec<PageId>,
    /// Frees deferred until commit.
    pending_frees: BTreeSet<u32>,
    /// The current batch is durable in the log but not yet fully applied
    /// to the inner store (an error struck mid-apply).
    logged: bool,
    /// An I/O error left the wrapper mid-batch; mutations are refused.
    poisoned: bool,
    /// Live-log byte cap (`None` = [`DEFAULT_MAX_WAL_BYTES`]): committed
    /// batches are retained until a commit leaves the log above the cap,
    /// and that commit checkpoints — one data sync and one truncation
    /// for all of them. `Some(0)` checkpoints at every commit. Retained
    /// batches are already applied to the data file, so replay on reopen
    /// merely redoes them (redo is idempotent).
    max_wal_bytes: Option<u64>,
    /// The committed pages, kept once [`WalStore::snapshot`] seeds them.
    /// Each successful `sync()` applies its batch as the next generation;
    /// a pin is a copy-on-write fork, which keeps the generation it was
    /// taken at.
    mirror: Option<SnapshotStore>,
    /// Log-tail subscribers gating checkpoint truncation.
    retention: Arc<WalRetention>,
}

impl<S: PageStore> WalStore<S> {
    /// Wraps `inner` with a fresh, empty log at `wal_path` (truncating
    /// any existing log). Use for newly created databases.
    pub fn create(inner: S, wal_path: &Path) -> StorageResult<Self> {
        let wal = Wal::create(wal_path, inner.page_size())?;
        Ok(WalStore::with_wal(inner, wal))
    }

    /// Wraps `inner` with the log at `wal_path`, first running crash
    /// recovery: committed batches in the log are redone onto `inner`,
    /// an uncommitted tail is discarded, torn bytes are truncated. Use
    /// for reopened databases; a clean shutdown yields a
    /// [`RecoveryReport::was_clean`] report.
    pub fn open(mut inner: S, wal_path: &Path) -> StorageResult<(Self, RecoveryReport)> {
        let (mut wal, scan) = Wal::open(wal_path, inner.page_size())?;
        let report = replay(&mut inner, &mut wal, &scan)?;
        Ok((WalStore::with_wal(inner, wal), report))
    }

    fn with_wal(inner: S, wal: Wal) -> Self {
        WalStore {
            inner,
            wal,
            pending_writes: BTreeMap::new(),
            pending_allocs: Vec::new(),
            pending_frees: BTreeSet::new(),
            logged: false,
            poisoned: false,
            max_wal_bytes: None,
            mirror: None,
            retention: WalRetention::new(),
        }
    }

    /// Pins the committed generation for a snapshot reader: a read-only
    /// copy-on-write fork of the mirror of the committed pages, which
    /// costs one reference count per 64 pages. The first call seeds the
    /// mirror with one tolerant scan (a page failing its checksum stays
    /// live, and snapshot reads of it fail as device reads would); from
    /// then on every commit applies its batch to the mirror.
    ///
    /// The first call must come at a commit boundary: it fails with
    /// [`StorageError::Poisoned`] while a batch is pending, logged or
    /// the wrapper is poisoned.
    pub fn snapshot(&mut self) -> StorageResult<SnapshotStore> {
        if self.mirror.is_none() {
            if self.pending_ops() != 0 || self.logged || self.poisoned {
                return Err(StorageError::Poisoned);
            }
            self.mirror = Some(SnapshotStore::seed(&self.inner)?);
        }
        Ok(self.mirror.clone().expect("seeded"))
    }

    /// Read-only view of the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Handle to the log (commit counts, byte counters, path).
    pub fn log(&self) -> &Wal {
        &self.wal
    }

    /// Number of buffered operations awaiting the next commit.
    pub fn pending_ops(&self) -> usize {
        self.pending_writes.len() + self.pending_allocs.len() + self.pending_frees.len()
    }

    /// True when an earlier I/O failure left the wrapper refusing
    /// mutations (see the module docs).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Commit batches appended to the log over this handle's lifetime.
    pub fn commits(&self) -> u64 {
        self.wal.commit_count()
    }

    /// Caps the live log at roughly `limit` bytes: the commit that
    /// leaves it larger checkpoints. `None` restores
    /// [`DEFAULT_MAX_WAL_BYTES`]; `Some(0)` checkpoints at every commit.
    pub fn set_max_wal_bytes(&mut self, limit: Option<u64>) {
        self.max_wal_bytes = limit;
    }

    /// The live-log byte cap in force.
    pub fn max_wal_bytes(&self) -> u64 {
        self.max_wal_bytes.unwrap_or(DEFAULT_MAX_WAL_BYTES)
    }

    /// The log's counters, [`WalControl::info`] in an `Option`. The
    /// `Option` exists for one caller, `benchmark/src/setup.rs`, which
    /// predates [`PageStore::wal`] and may not be edited beside a change
    /// to this crate; it goes when that file moves to the accessor.
    pub fn wal_info(&self) -> Option<WalInfo> {
        Some(self.info())
    }

    /// The retention registry gating log truncation (see
    /// [`WalRetention`]). Subscribe before streaming the tail so a
    /// checkpoint cannot reclaim records mid-catch-up.
    pub fn wal_retention(&self) -> Arc<WalRetention> {
        Arc::clone(&self.retention)
    }

    /// The LSN floor below which the log must not be truncated: the
    /// smallest position a subscriber has acknowledged, `None` without
    /// subscribers. Nothing else reads the log on anyone's behalf — a
    /// pinned snapshot generation holds its own page images.
    fn truncation_floor(&self) -> Option<u64> {
        self.retention.min_lsn()
    }

    /// True when truncating the whole record area strands no
    /// subscriber: the floor has applied everything up to the last
    /// stamped LSN.
    fn checkpoint_allowed(&self) -> bool {
        match self.truncation_floor() {
            None => true,
            Some(f) => f.saturating_add(1) >= self.wal.next_lsn(),
        }
    }

    /// Byte size past which truncation proceeds even over a lagging
    /// subscriber's floor, bounding log growth under a stalled follower
    /// (which then re-seeds via [`WalStore::handoff_image`]).
    fn retention_hard_cap(&self) -> u64 {
        self.max_wal_bytes().saturating_mul(4)
    }

    /// Forces a checkpoint now: syncs the inner store, then truncates
    /// the log. Every committed batch is applied to the data file at
    /// `sync()` time, so the log never holds anything the data file
    /// lacks — except mid-apply after a failure, when the wrapper is
    /// poisoned and this refuses (retry `sync()` first).
    ///
    /// Truncation is skipped (the inner sync still happens) while a
    /// subscriber still needs the tail — compare
    /// [`WalInfo::retained_lsn`] against [`WalInfo::next_lsn`] to see
    /// whether bytes were reclaimable.
    pub fn checkpoint(&mut self) -> StorageResult<()> {
        if self.logged || self.poisoned {
            return Err(StorageError::Poisoned);
        }
        if self.wal.is_empty() {
            // Whatever the log held was synced before it was cut.
            return Ok(());
        }
        self.inner.sync()?;
        if self.checkpoint_allowed() {
            self.wal.checkpoint()?;
        }
        Ok(())
    }

    /// Every committed log record stamped past `after`, or
    /// [`ReplFeed::NotRetained`] when a checkpoint already reclaimed
    /// them. Records in the log are committed by construction (batches
    /// land in one atomic append), so anything returned is safe to ship.
    pub fn repl_records_after(&mut self, after: u64) -> StorageResult<ReplFeed> {
        if after.saturating_add(1) < self.wal.tail_start_lsn() {
            return Ok(ReplFeed::NotRetained {
                tail_start_lsn: self.wal.tail_start_lsn(),
            });
        }
        let records = self.wal.records_after(after)?;
        Ok(ReplFeed::Records {
            records,
            next_lsn: self.wal.next_lsn(),
        })
    }

    /// Full committed-state snapshot for seeding a subscriber that fell
    /// behind the retained tail. Only valid at a commit boundary —
    /// returns [`ReplImageState::Busy`] while a batch is pending or
    /// logged (retry after the next `sync()`).
    pub fn handoff_image(&mut self) -> StorageResult<ReplImageState> {
        if self.pending_ops() != 0 || self.logged || self.poisoned {
            return Ok(ReplImageState::Busy);
        }
        let pages = live_snapshot(&self.inner)?;
        Ok(ReplImageState::Ready(ReplImage {
            applied_lsn: self.wal.next_lsn() - 1,
            page_size: self.inner.page_size(),
            pages,
        }))
    }

    /// Discards the pending (unlogged) overlay: buffered writes and
    /// frees are dropped and pass-through allocations are returned to
    /// the inner store's freelist, clearing any poison.
    ///
    /// Fails with [`StorageError::Poisoned`] when the current batch is
    /// already durable in the log — a logged batch is *committed* and
    /// must be applied (retry `sync()`), not rolled back.
    pub fn rollback(&mut self) -> StorageResult<()> {
        if self.logged {
            return Err(StorageError::Poisoned);
        }
        self.pending_writes.clear();
        self.pending_frees.clear();
        // Reverse order restores the inner freelist to its pre-batch
        // LIFO state.
        while let Some(p) = self.pending_allocs.pop() {
            self.inner.free(p)?;
        }
        self.poisoned = false;
        Ok(())
    }

    /// Consumes the wrapper, returning the inner store. Pending
    /// (uncommitted) operations are discarded — callers wanting them
    /// durable must `sync()` first.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Test hook: drops the wrapper *without* applying the pending
    /// overlay or touching the log — exactly what a power cut leaves
    /// behind (the inner store holds only committed state plus
    /// pass-through allocations; the log keeps whatever was fsynced).
    pub fn simulate_crash(self) -> S {
        self.inner
    }

    fn batch_records(&self) -> Vec<LogRecord> {
        let mut records = Vec::with_capacity(
            self.pending_allocs.len() + self.pending_writes.len() + self.pending_frees.len(),
        );
        for &p in &self.pending_allocs {
            records.push(LogRecord::Alloc { page: p });
        }
        for (&id, data) in &self.pending_writes {
            records.push(LogRecord::PageImage {
                page: PageId(id),
                data: data.clone(),
            });
        }
        for &id in &self.pending_frees {
            records.push(LogRecord::Free { page: PageId(id) });
        }
        records
    }

    /// Applies the logged batch to the inner store, and checkpoints if
    /// the log has outgrown its cap. Idempotent, so it doubles as the
    /// retry path after a mid-apply failure.
    fn apply_logged(&mut self) -> StorageResult<()> {
        for (&id, data) in &self.pending_writes {
            self.inner.write(PageId(id), data)?;
        }
        for &id in &self.pending_frees {
            let p = PageId(id);
            if self.inner.is_live(p) {
                self.inner.free(p)?;
            }
        }
        // The allocation map is read at open, before replay could repair
        // it: a batch that changed it is synced now. Page images wait
        // for the checkpoint.
        let mut data_synced = false;
        if !self.pending_allocs.is_empty() || !self.pending_frees.is_empty() {
            self.inner.sync()?;
            data_synced = true;
        }
        // A lagging subscriber holds the tail back — up to the hard cap,
        // past which truncation proceeds and the laggard must re-seed
        // from an image.
        let len = self.wal.len();
        let forced = len > self.retention_hard_cap();
        if len > self.max_wal_bytes() && (forced || self.checkpoint_allowed()) {
            if !data_synced {
                self.inner.sync()?;
            }
            self.wal.checkpoint()?;
        }
        Ok(())
    }

    fn check_not_poisoned(&self) -> StorageResult<()> {
        if self.poisoned {
            Err(StorageError::Poisoned)
        } else {
            Ok(())
        }
    }
}

impl<S: PageStore> PageStore for WalStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn allocate(&mut self) -> StorageResult<PageId> {
        self.check_not_poisoned()?;
        // Pass-through: the inner store assigns the id. Recovery undoes
        // allocations whose batch never commits.
        match self.inner.allocate() {
            Ok(p) => {
                self.pending_allocs.push(p);
                Ok(p)
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        if self.pending_frees.contains(&id.0) {
            return Err(StorageError::InvalidPage(id));
        }
        if let Some(data) = self.pending_writes.get(&id.0) {
            buf.copy_from_slice(data);
            return Ok(());
        }
        self.inner.read(id, buf)
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> StorageResult<()> {
        self.check_not_poisoned()?;
        if self.pending_frees.contains(&id.0) || !self.inner.is_live(id) {
            return Err(StorageError::InvalidPage(id));
        }
        self.pending_writes
            .insert(id.0, buf.to_vec().into_boxed_slice());
        Ok(())
    }

    fn free(&mut self, id: PageId) -> StorageResult<()> {
        self.check_not_poisoned()?;
        if self.pending_frees.contains(&id.0) || !self.inner.is_live(id) {
            return Err(StorageError::InvalidPage(id));
        }
        self.pending_writes.remove(&id.0);
        self.pending_frees.insert(id.0);
        Ok(())
    }

    fn is_live(&self, id: PageId) -> bool {
        self.inner.is_live(id) && !self.pending_frees.contains(&id.0)
    }

    /// The commit point. Logs the overlay as one durable batch and
    /// applies it to the inner store; see the module docs for which
    /// syncs that takes. With nothing pending it does nothing.
    fn sync(&mut self) -> StorageResult<()> {
        if self.poisoned && !self.logged {
            // A mutation failed before anything reached the log: there is
            // no consistent batch to commit. Roll back first.
            return Err(StorageError::Poisoned);
        }
        if !self.logged {
            if self.pending_ops() == 0 {
                return Ok(());
            }
            let records = self.batch_records();
            if let Err(e) = self.wal.append_batch(&records) {
                self.poisoned = true;
                return Err(e);
            }
            self.logged = true;
        }
        match self.apply_logged() {
            Ok(()) => {
                // The batch is committed and applied: bring the mirror
                // up to date before forgetting what it contained.
                if let Some(mirror) = &mut self.mirror {
                    let writes = self.pending_writes.iter().map(|(&p, d)| (p, &d[..]));
                    let frees = self.pending_frees.iter().copied();
                    mirror.publish(&self.pending_allocs, writes, frees);
                }
                self.pending_writes.clear();
                self.pending_allocs.clear();
                self.pending_frees.clear();
                self.logged = false;
                self.poisoned = false;
                Ok(())
            }
            Err(e) => {
                // Committed in the log but not yet in the data file;
                // retrying sync() (or reopening) completes it.
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn live_pages(&self) -> Vec<PageId> {
        self.inner
            .live_pages()
            .into_iter()
            .filter(|p| !self.pending_frees.contains(&p.0))
            .collect()
    }

    fn ensure_allocated(&mut self, id: PageId) -> StorageResult<()> {
        self.check_not_poisoned()?;
        if self.pending_frees.remove(&id.0) {
            // Un-free within the batch: the page stays live and comes
            // back zeroed, like a fresh allocation.
            self.pending_writes
                .insert(id.0, vec![0u8; self.page_size()].into_boxed_slice());
            return Ok(());
        }
        if self.inner.is_live(id) {
            return Ok(());
        }
        match self.inner.ensure_allocated(id) {
            Ok(()) => {
                self.pending_allocs.push(id);
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn wal(&mut self) -> Option<&mut dyn WalControl> {
        Some(self)
    }
}

impl<S: PageStore> WalControl for WalStore<S> {
    fn rollback(&mut self) -> StorageResult<()> {
        WalStore::rollback(self)
    }

    fn checkpoint(&mut self) -> StorageResult<()> {
        WalStore::checkpoint(self)
    }

    fn set_max_wal_bytes(&mut self, limit: Option<u64>) {
        WalStore::set_max_wal_bytes(self, limit)
    }

    fn info(&self) -> WalInfo {
        WalInfo {
            live_bytes: self.wal.len(),
            commits: self.wal.commit_count(),
            checkpoints: self.wal.checkpoint_count(),
            bytes_appended: self.wal.bytes_appended(),
            syncs: self.wal.sync_count(),
            retained_lsn: self
                .truncation_floor()
                .unwrap_or_else(|| self.wal.next_lsn() - 1),
            next_lsn: self.wal.next_lsn(),
            tail_start_lsn: self.wal.tail_start_lsn(),
        }
    }

    fn snapshot(&mut self) -> StorageResult<SnapshotStore> {
        WalStore::snapshot(self)
    }

    fn wal_retention(&self) -> Arc<WalRetention> {
        WalStore::wal_retention(self)
    }

    fn repl_feed(&mut self, after: u64) -> StorageResult<ReplFeed> {
        WalStore::repl_records_after(self, after)
    }

    fn repl_image(&mut self) -> StorageResult<ReplImageState> {
        WalStore::handoff_image(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{FilePageStore, MemPageStore};
    use crate::testing::{FaultController, FaultStore};
    use crate::wal::wal_sidecar;
    use std::sync::atomic::Ordering;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ccam-durable-test-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn overlay_reads_own_writes_and_commit_applies() {
        let wal_path = temp_path("overlay.wal");
        let mut s = WalStore::create(MemPageStore::new(64).unwrap(), &wal_path).unwrap();
        let p = s.allocate().unwrap();
        s.write(p, &[5u8; 64]).unwrap();

        // Visible through the wrapper…
        let mut buf = [0u8; 64];
        s.read(p, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 64]);
        // …but not yet in the inner store (no-steal).
        s.inner().read(p, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);

        s.sync().unwrap();
        s.inner().read(p, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 64]);
        assert_eq!(s.commits(), 1);
        assert_eq!(s.pending_ops(), 0);
        // The batch stays in the log until a checkpoint cuts it.
        assert!(!s.log().is_empty());
        WalStore::checkpoint(&mut s).unwrap();
        assert!(s.log().is_empty());
        s.inner().read(p, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 64]);
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn snapshots_pin_committed_generations_across_commits() {
        let wal_path = temp_path("snapshots.wal");
        let mut s = WalStore::create(MemPageStore::new(64).unwrap(), &wal_path).unwrap();
        let p = s.allocate().unwrap();
        s.write(p, &[1u8; 64]).unwrap();
        s.sync().unwrap();

        let gen0 = s.snapshot().unwrap();

        // A pending (uncommitted) overlay is invisible to snapshots and
        // to a pin taken right now.
        s.write(p, &[2u8; 64]).unwrap();
        let q = s.allocate().unwrap();
        s.write(q, &[3u8; 64]).unwrap();
        let still_gen0 = s.snapshot().unwrap();
        assert_eq!(still_gen0.generation(), gen0.generation());

        s.sync().unwrap();
        let gen1 = s.snapshot().unwrap();
        assert_eq!(gen1.generation(), gen0.generation() + 1);

        let mut buf = [0u8; 64];
        gen0.read(p, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64]);
        assert!(matches!(
            gen0.read(q, &mut buf),
            Err(StorageError::InvalidPage(_))
        ));
        gen1.read(p, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 64]);
        gen1.read(q, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 64]);

        // A rolled-back overlay never becomes a generation.
        s.write(p, &[9u8; 64]).unwrap();
        s.rollback().unwrap();
        s.sync().unwrap();
        assert_eq!(s.snapshot().unwrap().generation(), gen1.generation());

        // Frees publish: a new pin no longer sees q, the old pin does.
        s.free(q).unwrap();
        s.sync().unwrap();
        let gen2 = s.snapshot().unwrap();
        assert!(!gen2.is_live(q));
        gen1.read(q, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 64]);

        // The images the commits superseded go with the last pin.
        let superseded = [gen0.image(p).unwrap(), gen1.image(q).unwrap()].map(Arc::downgrade);
        drop((gen0, still_gen0, gen1, gen2));
        assert!(superseded.iter().all(|image| image.upgrade().is_none()));
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn crash_before_commit_loses_batch_crash_after_keeps_it() {
        let db = temp_path("crash.db");
        let wal_path = wal_sidecar(&db);
        // Committed generation.
        let (p1, p2);
        {
            let inner = FilePageStore::create(&db, 64).unwrap();
            let mut s = WalStore::create(inner, &wal_path).unwrap();
            p1 = s.allocate().unwrap();
            s.write(p1, &[1u8; 64]).unwrap();
            s.sync().unwrap();
            // Uncommitted tail: a write and an alloc that never sync.
            p2 = s.allocate().unwrap();
            s.write(p1, &[9u8; 64]).unwrap();
            s.write(p2, &[2u8; 64]).unwrap();
            let _ = s.simulate_crash(); // power cut
        }
        {
            let inner = FilePageStore::open(&db).unwrap();
            let (s, report) = WalStore::open(inner, &wal_path).unwrap();
            // Nobody closed the database: the committed batch is still
            // in the log and is redone; the tail never reached the log,
            // so there is nothing to discard or reclaim…
            assert_eq!(report.replayed_batches, 1);
            assert_eq!(report.discarded_records, 0);
            assert_eq!(report.reclaimed_pages, 0);
            // …p1 keeps its committed image, the overlay write is lost…
            let mut buf = [0u8; 64];
            s.read(p1, &mut buf).unwrap();
            assert_eq!(buf, [1u8; 64]);
            // …and the pass-through allocation survives as a live but
            // still-zeroed page: the accepted leak (see the module docs).
            // Reclamation of *logged* uncommitted allocs is covered by
            // recovery::tests::uncommitted_allocations_are_reclaimed.
            assert!(s.is_live(p2));
            s.read(p2, &mut buf).unwrap();
            assert_eq!(buf, [0u8; 64]);
        }
        std::fs::remove_file(&db).ok();
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn rollback_discards_overlay_and_reclaims_allocs() {
        let wal_path = temp_path("rollback.wal");
        let mut s = WalStore::create(MemPageStore::new(64).unwrap(), &wal_path).unwrap();
        let a = s.allocate().unwrap();
        s.write(a, &[3u8; 64]).unwrap();
        s.sync().unwrap();

        let b = s.allocate().unwrap();
        s.write(a, &[7u8; 64]).unwrap();
        s.free(a).unwrap(); // also testable: free then rollback
        s.rollback().unwrap();

        assert!(!s.is_live(b));
        assert!(s.is_live(a));
        let mut buf = [0u8; 64];
        s.read(a, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 64]); // pre-batch committed state
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn failed_mutation_poisons_until_rollback() {
        let wal_path = temp_path("poison.wal");
        let (flaky, switch) = FaultStore::new(MemPageStore::new(64).unwrap());
        let mut s = WalStore::create(flaky, &wal_path).unwrap();
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 64]).unwrap();
        s.sync().unwrap();

        switch.arm_after(0);
        assert!(s.allocate().is_err()); // injected failure → poisoned
        switch.disarm();
        assert!(s.is_poisoned());
        assert!(matches!(
            s.write(a, &[2u8; 64]),
            Err(StorageError::Poisoned)
        ));
        assert!(matches!(s.sync(), Err(StorageError::Poisoned)));

        s.rollback().unwrap();
        assert!(!s.is_poisoned());
        s.write(a, &[2u8; 64]).unwrap();
        s.sync().unwrap();
        let mut buf = [0u8; 64];
        s.inner().read(a, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 64]);
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn logged_batch_survives_apply_failure_and_retries() {
        let wal_path = temp_path("retry.wal");
        let (flaky, switch) = FaultStore::new(MemPageStore::new(64).unwrap());
        let mut s = WalStore::create(flaky, &wal_path).unwrap();
        let a = s.allocate().unwrap();
        s.sync().unwrap();

        s.write(a, &[8u8; 64]).unwrap();
        // Fail the *inner* write during apply: the batch is already in
        // the log (the log file is not flaky), so this strikes after the
        // commit point.
        switch.arm_after(0);
        assert!(s.sync().is_err());
        assert!(s.is_poisoned());
        // Rollback is refused — the batch is committed.
        assert!(s.rollback().is_err());

        switch.disarm();
        s.sync().unwrap(); // retry completes the apply
        assert!(!s.is_poisoned());
        let mut buf = [0u8; 64];
        s.inner().read(a, &mut buf).unwrap();
        assert_eq!(buf, [8u8; 64]);
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn bounded_wal_retains_batches_and_checkpoints_past_cap() {
        let wal_path = temp_path("bounded.wal");
        let mut s = WalStore::create(MemPageStore::new(64).unwrap(), &wal_path).unwrap();
        s.set_max_wal_bytes(Some(400));
        let a = s.allocate().unwrap();
        let mut retained_once = false;
        for i in 0..40u8 {
            s.write(a, &[i; 64]).unwrap();
            s.sync().unwrap();
            // One page-image batch is ~100 bytes of frames; the log may
            // overshoot the cap by at most one batch before truncating.
            assert!(s.log().len() <= 400 + 200, "log grew to {}", s.log().len());
            retained_once |= !s.log().is_empty();
            // Committed state is always applied, cap or no cap.
            let mut buf = [0u8; 64];
            s.inner().read(a, &mut buf).unwrap();
            assert_eq!(buf, [i; 64]);
        }
        assert!(retained_once, "cap never let the log retain a batch");
        assert!(s.log().checkpoint_count() > 0, "cap never triggered");
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn retained_batches_replay_idempotently_after_crash() {
        let db = temp_path("bounded-crash.db");
        let wal_path = wal_sidecar(&db);
        let (a, b);
        {
            let inner = FilePageStore::create(&db, 64).unwrap();
            let mut s = WalStore::create(inner, &wal_path).unwrap();
            s.set_max_wal_bytes(Some(1 << 20)); // cap high: retain everything
            a = s.allocate().unwrap();
            s.write(a, &[1u8; 64]).unwrap();
            s.sync().unwrap();
            b = s.allocate().unwrap();
            s.write(b, &[2u8; 64]).unwrap();
            s.free(a).unwrap();
            s.sync().unwrap();
            assert!(!s.log().is_empty(), "batches should be retained");
            let _ = s.simulate_crash();
        }
        {
            // Both batches are already in the data file; replay redoes
            // them in order (alloc → write → free is idempotent) and must
            // land on the same final state.
            let inner = FilePageStore::open(&db).unwrap();
            let (s, report) = WalStore::open(inner, &wal_path).unwrap();
            assert_eq!(report.replayed_batches, 2);
            assert!(!s.is_live(a));
            assert!(s.is_live(b));
            let mut buf = [0u8; 64];
            s.read(b, &mut buf).unwrap();
            assert_eq!(buf, [2u8; 64]);
            // Recovery checkpoints: the log is empty again.
            assert!(s.log().is_empty());
        }
        std::fs::remove_file(&db).ok();
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn manual_checkpoint_truncates_and_refuses_when_poisoned() {
        let wal_path = temp_path("manual-ckpt.wal");
        let (flaky, switch) = FaultStore::new(MemPageStore::new(64).unwrap());
        let mut s = WalStore::create(flaky, &wal_path).unwrap();
        s.set_max_wal_bytes(Some(1 << 20));
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 64]).unwrap();
        s.sync().unwrap();
        assert!(!s.log().is_empty());
        WalStore::checkpoint(&mut s).unwrap();
        assert!(s.log().is_empty());

        // Mid-apply failure leaves a logged batch; checkpoint must refuse
        // until a retried sync() completes the apply.
        s.write(a, &[2u8; 64]).unwrap();
        switch.arm_after(0);
        assert!(s.sync().is_err());
        switch.disarm();
        assert!(matches!(
            WalStore::checkpoint(&mut s),
            Err(StorageError::Poisoned)
        ));
        s.sync().unwrap();
        WalStore::checkpoint(&mut s).unwrap();
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn retention_slot_blocks_checkpoint_until_caught_up() {
        let wal_path = temp_path("retention.wal");
        let mut s = WalStore::create(MemPageStore::new(64).unwrap(), &wal_path).unwrap();
        s.set_max_wal_bytes(Some(50)); // hard cap = 200 bytes
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 64]).unwrap();

        // A subscriber from genesis holds the tail across a commit that
        // crosses the cap.
        let slot = s.wal_retention().subscribe(0);
        s.sync().unwrap();
        assert!((50..=200).contains(&s.log().len()));
        assert!(!s.log().is_empty(), "subscribed tail was truncated");
        let info = s.info();
        assert_eq!(info.retained_lsn, 0);
        assert!(info.next_lsn > 1);

        // Feed the subscriber: everything from LSN 0 is streamable.
        let ReplFeed::Records { records, next_lsn } = s.repl_records_after(0).unwrap() else {
            panic!("tail should be retained");
        };
        assert_eq!(next_lsn, s.log().next_lsn());
        assert!(records
            .iter()
            .any(|r| matches!(r.record, LogRecord::PageImage { .. })));

        // Caught up → manual checkpoint truncates again.
        slot.advance(next_lsn - 1);
        WalStore::checkpoint(&mut s).unwrap();
        assert!(s.log().is_empty());

        // Now the subscriber's old position is gone.
        drop(slot);
        let stale = s.wal_retention().subscribe(0);
        match s.repl_records_after(0).unwrap() {
            ReplFeed::NotRetained { tail_start_lsn } => {
                assert_eq!(tail_start_lsn, s.log().tail_start_lsn());
            }
            _ => panic!("stale position should not be retained"),
        }
        drop(stale);
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn dropped_slot_releases_retention() {
        let wal_path = temp_path("retention-drop.wal");
        let mut s = WalStore::create(MemPageStore::new(64).unwrap(), &wal_path).unwrap();
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 64]).unwrap();
        let slot = s.wal_retention().subscribe(0);
        s.sync().unwrap();
        assert!(!s.log().is_empty());
        drop(slot);
        WalStore::checkpoint(&mut s).unwrap();
        assert!(s.log().is_empty());
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn hard_cap_forces_truncation_past_stalled_subscriber() {
        let wal_path = temp_path("hard-cap.wal");
        let mut s = WalStore::create(MemPageStore::new(64).unwrap(), &wal_path).unwrap();
        s.set_max_wal_bytes(Some(300)); // hard cap = 1200 bytes
        let a = s.allocate().unwrap();
        let _slot = s.wal_retention().subscribe(0); // never advances
        for i in 0..40u8 {
            s.write(a, &[i; 64]).unwrap();
            s.sync().unwrap();
        }
        // The stalled subscriber could not pin the log past the hard cap.
        assert!(
            s.log().len() <= 1200 + 200,
            "stalled subscriber grew the log to {}",
            s.log().len()
        );
        assert!(s.log().checkpoint_count() > 0);
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn a_pinned_generation_stays_byte_identical_across_a_truncation() {
        let wal_path = temp_path("pin-truncation.wal");
        let mut s = WalStore::create(MemPageStore::new(64).unwrap(), &wal_path).unwrap();
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 64]).unwrap();
        s.sync().unwrap();
        s.snapshot().unwrap();
        s.write(a, &[2u8; 64]).unwrap();
        s.sync().unwrap();
        let pin = s.snapshot().unwrap();

        // Commit past the pinned generation, then cut the log under it:
        // the pin reads its own page images, not the log.
        s.write(a, &[3u8; 64]).unwrap();
        s.sync().unwrap();
        assert_eq!(s.info().retained_lsn, s.info().next_lsn - 1);
        WalStore::checkpoint(&mut s).unwrap();
        assert!(s.log().is_empty(), "a pinned generation held the tail");
        s.write(a, &[4u8; 64]).unwrap();
        s.sync().unwrap();

        let mut buf = [0u8; 64];
        pin.read(a, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 64]);
        drop(pin);
        std::fs::remove_file(&wal_path).ok();
    }

    /// Runs `f` and returns what it cost: (`fdatasync`s of the log,
    /// syncs of the data store under it).
    fn syncs_spent(
        s: &mut WalStore<FaultStore<MemPageStore>>,
        ctl: &FaultController,
        f: impl FnOnce(&mut WalStore<FaultStore<MemPageStore>>),
    ) -> (u64, u64) {
        let before = (s.log().sync_count(), ctl.syncs.load(Ordering::Relaxed));
        f(s);
        let after = (s.log().sync_count(), ctl.syncs.load(Ordering::Relaxed));
        (after.0 - before.0, after.1 - before.1)
    }

    /// The fsync budget of the module docs, sync by sync.
    #[test]
    fn a_commit_pays_for_the_syncs_it_needs() {
        let wal_path = temp_path("sync-budget.wal");
        let (store, ctl) = FaultStore::new(MemPageStore::new(64).unwrap());
        let mut s = WalStore::create(store, &wal_path).unwrap();
        let (mut a, mut b) = (PageId(0), PageId(0));

        // An allocation changes the map the data file is opened by.
        let alloc = syncs_spent(&mut s, &ctl, |s| {
            a = s.allocate().unwrap();
            b = s.allocate().unwrap();
            s.write(a, &[1u8; 64]).unwrap();
            s.sync().unwrap();
        });
        assert_eq!(alloc, (1, 1), "batch with allocations");
        // Page images alone wait for the checkpoint.
        let images = syncs_spent(&mut s, &ctl, |s| {
            s.write(a, &[2u8; 64]).unwrap();
            s.write(b, &[3u8; 64]).unwrap();
            s.sync().unwrap();
        });
        assert_eq!(images, (1, 0), "page-image-only batch");
        let free = syncs_spent(&mut s, &ctl, |s| {
            s.free(b).unwrap();
            s.sync().unwrap();
        });
        assert_eq!(free, (1, 1), "batch with a free");
        let nothing = syncs_spent(&mut s, &ctl, |s| s.sync().unwrap());
        assert_eq!(nothing, (0, 0), "nothing pending");
        assert_eq!(s.commits(), 3);

        // A checkpoint is one data sync and one log write; on a log
        // already cut it is nothing.
        let checkpoint = syncs_spent(&mut s, &ctl, |s| WalStore::checkpoint(s).unwrap());
        assert_eq!(checkpoint, (1, 1));
        assert!(s.log().is_empty());
        let again = syncs_spent(&mut s, &ctl, |s| WalStore::checkpoint(s).unwrap());
        assert_eq!(again, (0, 0));
        std::fs::remove_file(&wal_path).ok();
    }

    /// The commit that crosses the cap syncs the data file *before* it
    /// truncates: fail that sync and the log is still whole.
    #[test]
    fn crossing_the_cap_syncs_the_data_file_before_truncating() {
        let wal_path = temp_path("sync-order.wal");
        let (store, ctl) = FaultStore::new(MemPageStore::new(64).unwrap());
        let mut s = WalStore::create(store, &wal_path).unwrap();
        s.set_max_wal_bytes(Some(400));
        let a = s.allocate().unwrap();
        s.sync().unwrap();
        WalStore::checkpoint(&mut s).unwrap();

        let data_syncs = || ctl.syncs.load(Ordering::Relaxed);
        let (checkpoints, synced) = (s.log().checkpoint_count(), data_syncs());
        let mut commits = 0u8;
        let refused = loop {
            s.write(a, &[commits; 64]).unwrap();
            // One store operation — the page write — succeeds; the data
            // sync of a checkpoint, if this commit takes one, fails.
            ctl.arm_after(1);
            let outcome = s.sync();
            ctl.disarm();
            commits += 1;
            if outcome.is_err() {
                break data_syncs();
            }
            assert_eq!(data_syncs(), synced, "data sync below the cap");
        };
        assert!(commits > 1, "the cap retained no batch");
        assert_eq!(refused, synced + 1);
        assert!(s.log().len() > 400);
        assert_eq!(
            s.log().checkpoint_count(),
            checkpoints,
            "truncated unsynced"
        );
        let tail = s.wal.records_after(0).unwrap();
        assert_eq!(
            tail.iter()
                .filter(|r| r.record == LogRecord::Commit)
                .count(),
            commits as usize
        );

        // The batch is committed; the retried sync finishes the job.
        s.sync().unwrap();
        assert_eq!(data_syncs(), synced + 2);
        assert_eq!(s.log().checkpoint_count(), checkpoints + 1);
        assert!(s.log().is_empty());
        std::fs::remove_file(&wal_path).ok();
    }

    /// A power cut loses every page write since the last data sync; the
    /// log still holds them all, and reopening redoes them.
    #[test]
    fn a_kill_without_close_replays_the_tail_to_the_same_bytes() {
        let wal_path = temp_path("kill.wal");
        let (store, ctl) = FaultStore::new(MemPageStore::new(64).unwrap());
        ctl.set_volatile_writes(1024);
        let mut s = WalStore::create(store, &wal_path).unwrap();
        let pages: Vec<PageId> = (0..3).map(|_| s.allocate().unwrap()).collect();
        s.sync().unwrap();
        for round in 1..=4u8 {
            for &p in &pages {
                s.write(p, &[round; 64]).unwrap();
            }
            s.sync().unwrap();
        }
        // The last batch reaches the log; the power goes on its first
        // page write.
        s.write(pages[0], &[9u8; 64]).unwrap();
        let committed = live_snapshot(&s).unwrap();
        ctl.crash_after(0, crate::testing::TornWrite::None);
        assert!(s.sync().is_err());

        let store = s.simulate_crash().into_inner();
        let lost = live_snapshot(&store).unwrap();
        assert!(
            lost.iter().all(|(_, bytes)| bytes.iter().all(|&b| b == 0)),
            "the cut should have undone every unsynced write"
        );
        let (s, report) = WalStore::open(store, &wal_path).unwrap();
        assert_eq!(report.replayed_batches, 6);
        assert_eq!(live_snapshot(&s).unwrap(), committed);
        assert!(s.log().is_empty());
        std::fs::remove_file(&wal_path).ok();
    }

    /// Closing the pool over the store is the clean close: it leaves an
    /// empty log, and the next open has nothing to replay.
    #[test]
    fn a_clean_close_leaves_nothing_to_replay() {
        let db = temp_path("close.db");
        let wal_path = wal_sidecar(&db);
        let p;
        {
            let inner = FilePageStore::create(&db, 64).unwrap();
            let pool = crate::BufferPool::new(WalStore::create(inner, &wal_path).unwrap(), 4);
            p = pool.allocate().unwrap();
            pool.with_page_mut(p, |b| b.fill(1)).unwrap();
            pool.flush_all().unwrap();
            pool.with_page_mut(p, |b| b.fill(2)).unwrap();
            pool.flush_all().unwrap();
            assert!(pool.with_store(|s| !s.log().is_empty()));
        }
        let inner = FilePageStore::open(&db).unwrap();
        let (s, report) = WalStore::open(inner, &wal_path).unwrap();
        assert!(report.was_clean(), "{report:?}");
        assert!(s.log().is_empty());
        let mut buf = [0u8; 64];
        s.read(p, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 64]);
        std::fs::remove_file(&db).ok();
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn handoff_image_reflects_committed_state_only() {
        let wal_path = temp_path("handoff.wal");
        let mut s = WalStore::create(MemPageStore::new(64).unwrap(), &wal_path).unwrap();
        let a = s.allocate().unwrap();
        s.write(a, &[7u8; 64]).unwrap();
        // Mid-batch: busy.
        assert!(matches!(s.handoff_image().unwrap(), ReplImageState::Busy));
        s.sync().unwrap();
        let ReplImageState::Ready(img) = s.handoff_image().unwrap() else {
            panic!("commit boundary should produce an image");
        };
        assert_eq!(img.applied_lsn, s.log().next_lsn() - 1);
        assert_eq!(img.pages.len(), 1);
        assert_eq!(img.pages[0].0, a);
        assert!(img.pages[0].1.iter().all(|&b| b == 7));
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn free_then_commit_releases_page() {
        let wal_path = temp_path("free.wal");
        let mut s = WalStore::create(MemPageStore::new(64).unwrap(), &wal_path).unwrap();
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        s.write(a, &[1u8; 64]).unwrap();
        s.write(b, &[2u8; 64]).unwrap();
        s.sync().unwrap();

        s.free(a).unwrap();
        // Deferred: invisible through the wrapper, still live inside.
        assert!(!s.is_live(a));
        assert!(s.inner().is_live(a));
        assert_eq!(s.live_pages(), vec![b]);
        let mut buf = [0u8; 64];
        assert!(s.read(a, &mut buf).is_err());

        s.sync().unwrap();
        assert!(!s.inner().is_live(a));
        std::fs::remove_file(&wal_path).ok();
    }
}
