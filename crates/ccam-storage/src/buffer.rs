//! LRU buffer manager with counted page accesses.
//!
//! Every page request from the access-method layer flows through
//! [`BufferPool`]. A request for a non-resident page evicts the least
//! recently used frame (writing it back if dirty) and counts one
//! *data-page access* — the unit the paper's experiments report. Requests
//! for resident pages are buffer hits and cost nothing, which is exactly
//! the behaviour the `Get-A-successor()` description relies on ("the
//! buffered data-page containing the node is likely to contain the
//! specified successor node if CRR is high", §2.3).
//! [`BufferPool::with_mru_page`] is that description's "buffered
//! data-page": the frame the previous access left at the MRU head, handed
//! out in O(1) without naming a page.
//!
//! # What is counted
//!
//! Every closure run over a frame is one counted access: a hit
//! (`buffer_hits`, and with profiling on one [`PageAccessKind::Hit`]
//! event) when the page was resident, a miss (`physical_reads`, one
//! [`PageAccessKind::Miss`] event) when it had to be read.
//! [`BufferPool::with_mru_page`] pins and reads a frame, so it counts one
//! hit like any other; it can never miss. Nothing that only inspects the
//! pool ([`BufferPool::resident_pages`], [`BufferPool::read_uncounted`])
//! is counted.
//!
//! # One organization, every capacity
//!
//! The same structure serves the paper's "one buffer with the size of
//! one data page" (route evaluation, §4.3) and pools of thousands of
//! frames; every hot path is O(1) and nothing depends on the capacity,
//! at construction or after [`BufferPool::set_capacity`]:
//!
//! * One `Mutex<State>` guards the store, the page table and the recency
//!   list. The page table is a dense `Vec<u32>` (`PageId` → slab slot):
//!   stores hand out sequential page ids, so a lookup is one indexed
//!   load (measured 5–15% faster than a `HashMap`; EXPERIMENTS.md).
//! * Recency is an intrusive doubly-linked LRU list over a slab: a hit
//!   relinks one node at the MRU head, an eviction takes the LRU-most
//!   *unpinned* entry from the tail — exact LRU.
//! * Each frame's bytes sit behind their own `RwLock`. The `with_page` /
//!   `with_page_mut` closures run holding only that lock and a *pin* on
//!   the frame (pinned frames are never evicted), so closures may nest
//!   page accesses and readers of different pages overlap; only the
//!   lookup and the unpin serialise on the state mutex.
//! * A miss reads the page *before* evicting anything, then evicts, then
//!   installs. If every frame is pinned the evictor waits on a condvar,
//!   which releases the state lock — so afterwards it re-checks
//!   residency and re-reads the page before installing.
//!
//! Lock order (outermost first): `state` → frame buffer → profile
//! events. Under `state` the pool takes buffer locks of *unpinned*
//! frames only, with one exception: write-back (`flush_all`, `clear`,
//! drop) read-locks every dirty frame, so it must not race a mutating
//! closure that itself re-enters the pool.
//!
//! # Prefetch (opt-in, off by default)
//!
//! [`BufferPool::set_prefetcher`] installs a connectivity-aware hook: on
//! every miss it maps the faulted page to candidate pages (e.g. the
//! pages of its successors' clusters) and the pool reads them into *free*
//! frames only — a prefetch never evicts — at the LRU tail, so real
//! misses reclaim them first. Prefetched reads are counted honestly
//! (`physical_reads`, `prefetch_issued`, a [`PageAccessKind::Prefetch`]
//! event each), so the paper-metric page-access counts are unchanged
//! exactly when the hook is off (the default).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};

use crate::error::{StorageError, StorageResult};
use crate::metrics::PageAccessKind;
use crate::page::PageId;
use crate::stats::IoStats;
use crate::store::{PageStore, WalControl};
use crate::sync::{lock, read_lock, wait, write_lock};

/// Slab slot of the LRU list's sentinel: `entries[0].next` is the MRU
/// end, `entries[0].prev` the LRU end, and an empty list links it to
/// itself. No frame ever lives there, so the page table also uses 0 for
/// "not resident".
const SENTINEL: usize = 0;

/// A connectivity-aware prefetch hook: maps a faulted page to candidate
/// pages worth reading into free frames.
pub type Prefetcher = Arc<dyn Fn(PageId) -> Vec<PageId> + Send + Sync>;

struct Frame {
    id: PageId,
    /// Set by `with_page_mut` under the buffer's write lock, read and
    /// cleared by write-back under its read lock — the lock orders every
    /// access, so `Relaxed` suffices.
    dirty: AtomicBool,
    buf: RwLock<Box<[u8]>>,
}

/// One slab entry: a resident frame plus its intrusive LRU links. The
/// default entry is the empty list's sentinel (no frame, self-linked).
#[derive(Default)]
struct Entry {
    frame: Option<Arc<Frame>>,
    prev: usize,
    next: usize,
    /// Closures currently running over this frame's buffer; pinned
    /// frames are never chosen for eviction.
    pins: u32,
}

/// Circular doubly-linked LRU list over a slab. Every operation is O(1).
struct LruList {
    entries: Vec<Entry>,
    free: Vec<usize>,
    /// Resident frames (linked entries, the sentinel excluded).
    len: usize,
}

impl LruList {
    fn new() -> LruList {
        LruList {
            entries: vec![Entry::default()],
            free: Vec::new(),
            len: 0,
        }
    }

    fn link_after(&mut self, prev: usize, slot: usize) {
        let next = self.entries[prev].next;
        self.entries[slot].prev = prev;
        self.entries[slot].next = next;
        self.entries[prev].next = slot;
        self.entries[next].prev = slot;
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.entries[slot].prev, self.entries[slot].next);
        self.entries[prev].next = next;
        self.entries[next].prev = prev;
    }

    fn move_to_head(&mut self, slot: usize) {
        if self.entries[SENTINEL].next != slot {
            self.unlink(slot);
            self.link_after(SENTINEL, slot);
        }
    }

    /// Stores `frame` (unpinned) in a free slot linked after `prev`.
    fn insert_after(&mut self, prev: usize, frame: Arc<Frame>) -> usize {
        let entry = Entry {
            frame: Some(frame),
            ..Entry::default()
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot] = entry;
                slot
            }
            None => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
        };
        self.link_after(prev, slot);
        self.len += 1;
        slot
    }

    /// Unlinks `slot`, frees it and hands back its frame.
    fn remove(&mut self, slot: usize) -> Option<Arc<Frame>> {
        self.unlink(slot);
        self.len -= 1;
        self.free.push(slot);
        self.entries[slot].frame.take()
    }

    /// The LRU-most unpinned entry, or `None` when every resident frame
    /// is pinned. O(1) unless concurrent closures have pinned the tail.
    fn pick_victim(&self) -> Option<usize> {
        let mut slot = self.entries[SENTINEL].prev;
        while slot != SENTINEL && self.entries[slot].pins > 0 {
            slot = self.entries[slot].prev;
        }
        (slot != SENTINEL).then_some(slot)
    }

    /// Resident frames, most recently used first.
    fn frames(&self) -> impl Iterator<Item = &Arc<Frame>> {
        let mut slot = SENTINEL;
        std::iter::from_fn(move || {
            slot = self.entries[slot].next;
            self.entries[slot].frame.as_ref()
        })
    }
}

/// Everything the state mutex guards.
struct State<S: PageStore> {
    store: S,
    /// `PageId` → slab slot ([`SENTINEL`] when not resident), grown on
    /// demand to the largest page id ever buffered.
    table: Vec<u32>,
    lru: LruList,
    capacity: usize,
    /// Evictors parked on the condvar; the unpin path skips the notify
    /// syscall when nobody waits (the common case).
    waiters: usize,
    prefetcher: Option<Prefetcher>,
}

impl<S: PageStore> State<S> {
    fn slot_of(&self, id: PageId) -> Option<usize> {
        match self.table.get(id.0 as usize) {
            Some(&slot) if slot as usize != SENTINEL => Some(slot as usize),
            _ => None,
        }
    }

    fn frame(&self, slot: usize) -> Arc<Frame> {
        let frame = self.lru.entries[slot].frame.as_ref();
        Arc::clone(frame.expect("linked slot holds a frame"))
    }

    /// Links a freshly read, clean page into the pool (unpinned) after
    /// slot `prev` — the sentinel for the MRU head, the sentinel's `prev`
    /// for the LRU tail. Caller has ensured a free frame exists.
    fn install(&mut self, id: PageId, data: Box<[u8]>, prev: usize) -> usize {
        let frame = Arc::new(Frame {
            id,
            dirty: AtomicBool::new(false),
            buf: RwLock::new(data),
        });
        let slot = self.lru.insert_after(prev, frame);
        let idx = id.0 as usize;
        if idx >= self.table.len() {
            self.table.resize(idx + 1, SENTINEL as u32);
        }
        self.table[idx] = slot as u32;
        slot
    }

    /// Drops the frame in `slot` (no write-back).
    fn remove(&mut self, slot: usize) {
        if let Some(frame) = self.lru.remove(slot) {
            self.table[frame.id.0 as usize] = SENTINEL as u32;
        }
    }
}

/// A pinned frame: while it lives the frame cannot be evicted. Dropping
/// it unpins — also when the caller's closure unwinds, so a panicking
/// reader never leaves a frame unevictable.
struct Pin<'a, S: PageStore> {
    pool: &'a BufferPool<S>,
    slot: usize,
    frame: Arc<Frame>,
}

impl<S: PageStore> Drop for Pin<'_, S> {
    fn drop(&mut self) {
        let mut s = lock(&self.pool.state);
        // `free`/`discard_frames` may have dropped the frame (and the
        // slot may have been recycled) while the closure ran.
        let mine = |f: &Arc<Frame>| Arc::ptr_eq(f, &self.frame);
        if let Some(e) = s.lru.entries.get_mut(self.slot) {
            if e.frame.as_ref().is_some_and(mine) {
                e.pins -= 1;
            }
        }
        let wake = s.waiters > 0;
        drop(s);
        if wake {
            self.pool.cv.notify_all();
        }
    }
}

/// An exact-LRU buffer pool over a [`PageStore`] with counted page
/// accesses; see the module docs for the structure and lock order.
pub struct BufferPool<S: PageStore> {
    state: Mutex<State<S>>,
    /// Signalled on unpin, for evictors that found every frame pinned.
    cv: Condvar,
    stats: Arc<IoStats>,
    page_size: usize,
}

impl<S: PageStore> BufferPool<S> {
    /// Wraps `store` with a pool of `capacity` frames (≥ 1).
    pub fn new(store: S, capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        let page_size = store.page_size();
        BufferPool {
            state: Mutex::new(State {
                store,
                table: Vec::new(),
                lru: LruList::new(),
                capacity,
                waiters: 0,
                prefetcher: None,
            }),
            cv: Condvar::new(),
            stats: IoStats::new_shared(),
            page_size,
        }
    }

    /// Shared I/O counters (bumped by this pool).
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Page size of the underlying store.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Installs (or with `None` removes) the connectivity-aware prefetch
    /// hook. Off by default; see the module docs for the counting rules.
    pub fn set_prefetcher(&self, hook: Option<Prefetcher>) {
        lock(&self.state).prefetcher = hook;
    }

    /// Changes the frame budget, evicting (and writing back) surplus
    /// frames immediately. Error-atomic: the new budget is adopted only
    /// once every surplus frame is actually evicted, so a failed
    /// write-back mid-shrink leaves the old capacity in force.
    pub fn set_capacity(&self, capacity: usize) -> StorageResult<()> {
        assert!(capacity >= 1);
        let (mut s, _) = self.evict_to(lock(&self.state), capacity)?;
        s.capacity = capacity;
        Ok(())
    }

    /// Current frame budget.
    pub fn capacity(&self) -> usize {
        lock(&self.state).capacity
    }

    /// Allocates a fresh page in the store (counted, but not faulted in:
    /// callers typically write it next, which is one access).
    pub fn allocate(&self) -> StorageResult<PageId> {
        let id = lock(&self.state).store.allocate()?;
        self.stats.record_alloc();
        Ok(id)
    }

    /// Frees `id`, dropping any buffered copy.
    pub fn free(&self, id: PageId) -> StorageResult<()> {
        let mut s = lock(&self.state);
        // Free in the store first: if it fails, the buffered copy (and
        // any dirty contents) must survive untouched.
        s.store.free(id)?;
        if let Some(slot) = s.slot_of(id) {
            s.remove(slot);
        }
        self.stats.record_free();
        Ok(())
    }

    /// Runs `f` over the (read-only) contents of page `id`.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> StorageResult<R> {
        let pin = self.acquire(id)?;
        let buf = read_lock(&pin.frame.buf);
        Ok(f(&buf))
    }

    /// Runs `f` over the mutable contents of page `id`, marking it dirty.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> StorageResult<R> {
        let pin = self.acquire(id)?;
        let mut buf = write_lock(&pin.frame.buf);
        pin.frame.dirty.store(true, Ordering::Relaxed);
        Ok(f(&mut buf))
    }

    /// Pins page `id` at the MRU head, faulting it in on a miss.
    fn acquire(&self, id: PageId) -> StorageResult<Pin<'_, S>> {
        let mut s = lock(&self.state);
        if let Some(pin) = self.pin_resident(&mut s, id) {
            return Ok(pin);
        }
        // Read *before* a frame exists and *before* any eviction: a
        // failed read must neither leave a frame cached as if it held
        // valid contents nor cost a resident its frame (the LRU victim,
        // dirty write-back included, is only paid for once the new page
        // is actually in hand).
        let mut data = self.read_page(&s, id)?;
        let room = s.capacity - 1;
        let (mut s, waited) = self.evict_to(s, room)?;
        if waited {
            // The wait released the state lock: a concurrent miss may
            // have installed this page (pin that frame — a second copy
            // would diverge and lose whichever writes back last), and
            // the speculative read is stale if the page was modified
            // and written back meanwhile. The lock is now held through
            // install, so the re-read is current.
            if let Some(pin) = self.pin_resident(&mut s, id) {
                return Ok(pin);
            }
            data = self.read_page(&s, id)?;
        }
        self.stats.record_read();
        self.stats.record_page_event(id, PageAccessKind::Miss);
        let slot = s.install(id, data, SENTINEL);
        // The pin is taken only after the hook ran (prefetch never
        // evicts, so the unpinned frame is safe): a panicking hook
        // leaves the faulted page resident and no pin behind.
        self.prefetch_after_miss(&mut s, id);
        Ok(self.pin(&mut s, slot))
    }

    /// Runs `f` over the most recently used resident page and its id —
    /// the frame the previous access left at the LRU head. `None`, with
    /// `f` not run, when nothing is resident. O(1) and order-preserving:
    /// no page-table lookup, and the head stays the head, so the recency
    /// of every other frame is untouched. Counts one buffer hit.
    pub fn with_mru_page<R>(&self, f: impl FnOnce(PageId, &[u8]) -> R) -> Option<R> {
        let pin = {
            let mut s = lock(&self.state);
            let slot = s.lru.entries[SENTINEL].next;
            if slot == SENTINEL {
                return None;
            }
            self.pin_hit(&mut s, slot)
        };
        let buf = read_lock(&pin.frame.buf);
        Some(f(pin.frame.id, &buf))
    }

    /// Hit path: finds `id` resident and pins it at the MRU head.
    fn pin_resident(&self, s: &mut State<S>, id: PageId) -> Option<Pin<'_, S>> {
        let slot = s.slot_of(id)?;
        s.lru.move_to_head(slot);
        Some(self.pin_hit(s, slot))
    }

    /// Pins the resident frame in `slot` and counts the hit.
    fn pin_hit(&self, s: &mut State<S>, slot: usize) -> Pin<'_, S> {
        let pin = self.pin(s, slot);
        self.stats.record_hit();
        self.stats
            .record_page_event(pin.frame.id, PageAccessKind::Hit);
        pin
    }

    fn pin(&self, s: &mut State<S>, slot: usize) -> Pin<'_, S> {
        s.lru.entries[slot].pins += 1;
        let frame = s.frame(slot);
        Pin {
            pool: self,
            slot,
            frame,
        }
    }

    /// Reads live page `id` from the store into a fresh buffer.
    fn read_page(&self, s: &State<S>, id: PageId) -> StorageResult<Box<[u8]>> {
        if !s.store.is_live(id) {
            return Err(StorageError::InvalidPage(id));
        }
        let mut data = vec![0u8; self.page_size].into_boxed_slice();
        if let Err(e) = s.store.read(id, &mut data) {
            if matches!(e, StorageError::ChecksumMismatch { .. }) {
                self.stats.record_checksum_failure();
            }
            return Err(e);
        }
        Ok(data)
    }

    /// Writes `frame` back to the store if dirty and marks it clean.
    fn write_back(&self, store: &mut S, frame: &Frame) -> StorageResult<()> {
        // The read lock excludes `with_page_mut`, so the bytes written
        // and the cleared flag describe the same version of the page.
        let buf = read_lock(&frame.buf);
        if frame.dirty.load(Ordering::Relaxed) {
            store.write(frame.id, &buf)?;
            frame.dirty.store(false, Ordering::Relaxed);
            self.stats.record_write();
            self.stats
                .record_page_event(frame.id, PageAccessKind::Write);
        }
        Ok(())
    }

    /// Evicts LRU-most unpinned frames (writing dirty ones back) until
    /// at most `target` remain. A failed write-back leaves the victim
    /// where it was and propagates — the pool never loses dirty bytes.
    /// Waits on the condvar when every frame is pinned, which consumes
    /// and re-acquires the state guard, so the guard is handed back
    /// together with whether it waited, i.e. whether the state lock was
    /// ever released and the caller must revalidate what it observed
    /// before the call.
    fn evict_to<'a>(
        &self,
        mut s: MutexGuard<'a, State<S>>,
        target: usize,
    ) -> StorageResult<(MutexGuard<'a, State<S>>, bool)> {
        let mut waited = false;
        while s.lru.len > target {
            let Some(slot) = s.lru.pick_victim() else {
                s.waiters += 1;
                s = wait(&self.cv, s);
                s.waiters -= 1;
                waited = true;
                continue;
            };
            let frame = s.frame(slot);
            self.write_back(&mut s.store, &frame)?;
            s.remove(slot);
            self.stats.record_eviction();
        }
        Ok((s, waited))
    }

    /// Best-effort prefetch after a miss on `id`: reads hook-suggested
    /// pages into *free* frames at the LRU tail, counting each read.
    fn prefetch_after_miss(&self, s: &mut State<S>, id: PageId) {
        let Some(hook) = s.prefetcher.clone() else {
            return;
        };
        for pid in hook(id) {
            if s.lru.len >= s.capacity {
                break;
            }
            if s.slot_of(pid).is_some() {
                continue;
            }
            let Ok(data) = self.read_page(s, pid) else {
                continue;
            };
            self.stats.record_read();
            self.stats.record_prefetch();
            self.stats.record_page_event(pid, PageAccessKind::Prefetch);
            let lru_tail = s.lru.entries[SENTINEL].prev;
            s.install(pid, data, lru_tail);
        }
    }

    /// Ids of currently resident pages, most recently used first
    /// (uncounted; diagnostics and tests — the O(frames) walk is not on
    /// any operation's path).
    pub fn resident_pages(&self) -> Vec<PageId> {
        lock(&self.state).lru.frames().map(|f| f.id).collect()
    }

    /// Writes back every dirty frame (frames stay resident and are
    /// marked clean) in ascending page order, not recency order, so the
    /// write-back sequence — and any write-ahead log batch built from
    /// it — is deterministic regardless of eviction history. Stops at
    /// the first error: a `WalStore` beneath only commits on `sync()`,
    /// so a partial write-back is never made durable.
    fn write_back_dirty(&self, s: &mut State<S>) -> StorageResult<()> {
        let mut frames: Vec<Arc<Frame>> = s.lru.frames().cloned().collect();
        frames.sort_unstable_by_key(|f| f.id);
        for frame in frames {
            self.write_back(&mut s.store, &frame)?;
        }
        Ok(())
    }

    /// Writes back every dirty frame (frames stay resident), then syncs
    /// the store — the commit point when the store is a `WalStore`.
    pub fn flush_all(&self) -> StorageResult<()> {
        let mut s = lock(&self.state);
        self.write_back_dirty(&mut s)?;
        s.store.sync()?;
        self.stats.record_sync();
        Ok(())
    }

    /// Writes back those of `pages` that are resident and dirty, in the
    /// order given, without syncing — [`Self::flush_all`] for a caller
    /// that knows which pages it wrote, at the cost of those pages and
    /// not of every resident frame.
    pub fn flush_pages(&self, pages: &[PageId]) -> StorageResult<()> {
        let mut s = lock(&self.state);
        for &id in pages {
            if let Some(slot) = s.slot_of(id) {
                let frame = s.frame(slot);
                self.write_back(&mut s.store, &frame)?;
            }
        }
        Ok(())
    }

    /// Writes back and evicts every frame — the harness calls this before
    /// each measured operation so the operation starts cold, matching the
    /// paper's per-operation "average number of data page accesses".
    pub fn clear(&self) -> StorageResult<()> {
        let mut s = lock(&self.state);
        self.write_back_dirty(&mut s)?;
        let (mut s, _) = self.evict_to(s, 0)?;
        s.store.sync()?;
        self.stats.record_sync();
        Ok(())
    }

    /// Read-only access to the underlying store (page geometry, live-page
    /// enumeration for CRR scans). `f` runs under the pool's state lock
    /// and must not call back into the pool.
    pub fn with_store<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&lock(&self.state).store)
    }

    /// Mutable access to the underlying store. Same rule as
    /// [`Self::with_store`].
    pub fn with_store_mut<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut lock(&self.state).store)
    }

    /// Runs `f` on the write-ahead log of the store stack
    /// ([`PageStore::wal`]) — how abort, checkpoint, snapshot and
    /// replication paths drive it — or returns `None` when the stack
    /// has no log. Same rule as [`Self::with_store`].
    pub fn with_wal<R>(&self, f: impl FnOnce(&mut dyn WalControl) -> R) -> Option<R> {
        lock(&self.state).store.wal().map(f)
    }

    /// Drops every frame *without* writing dirty contents back — the
    /// abort path: uncommitted mutations live only in dirty frames, so
    /// this plus a store rollback restores the last committed state.
    pub fn discard_frames(&self) {
        let mut s = lock(&self.state);
        s.table.clear();
        s.lru = LruList::new();
    }

    /// Reads page `id`'s *current* contents into `buf` without counting
    /// an access or creating a frame: a resident frame (dirty or not) is
    /// served from memory, anything else straight from the store.
    /// In-memory bookkeeping scans (the free-space map) use this: they
    /// must neither perturb the counted I/O statistics nor force a
    /// `flush_all`, which on a `WalStore` is a *commit point* and would
    /// commit a half-finished multi-page operation.
    pub fn read_uncounted(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        let s = lock(&self.state);
        let Some(slot) = s.slot_of(id) else {
            return s.store.read(id, buf);
        };
        let frame = s.frame(slot);
        drop(s);
        buf.copy_from_slice(&read_lock(&frame.buf));
        Ok(())
    }

    /// Flushes dirty frames and syncs the store (alias of
    /// [`Self::flush_all`] for API clarity at shutdown).
    pub fn flush(&self) -> StorageResult<()> {
        self.flush_all()
    }

    /// Verifies page-table ↔ LRU-list agreement, the capacity bound and
    /// slab accounting; returns a description of the first violation.
    /// A debugging and property-testing aid.
    pub fn check_invariants(&self) -> Result<(), String> {
        let s = lock(&self.state);
        let lru = &s.lru;
        let ensure = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
        // Walk the ring from the sentinel back to it.
        let (mut listed, mut prev) = (0usize, SENTINEL);
        loop {
            let slot = lru.entries[prev].next;
            let e = &lru.entries[slot];
            ensure(e.prev == prev, format!("slot {slot} prev link broken"))?;
            if slot == SENTINEL {
                break;
            }
            let id = e.frame.as_ref().map(|f| f.id);
            let id = id.ok_or_else(|| format!("linked slot {slot} has no frame"))?;
            let mapped = s.slot_of(id) == Some(slot);
            ensure(mapped, format!("page {} not mapped to its slot", id.0))?;
            let live = s.store.is_live(id);
            ensure(live, format!("resident page {} is dead in the store", id.0))?;
            listed += 1;
            ensure(listed <= lru.len, "list outgrew its len".into())?;
            prev = slot;
        }
        // Each listed page maps back to its own slot, so equal counts
        // mean the table holds nothing else; every slab entry is the
        // sentinel, linked or free.
        let mapped = s.table.iter().filter(|&&x| x as usize != SENTINEL).count();
        let slab = 1 + lru.len + lru.free.len();
        ensure(
            listed == lru.len
                && mapped == lru.len
                && lru.len <= s.capacity
                && slab == lru.entries.len(),
            format!(
                "{listed} listed, {mapped} mapped, len {}, capacity {}, slab {slab}/{}",
                lru.len,
                s.capacity,
                lru.entries.len()
            ),
        )
    }
}

/// Dirty frames are written back when the pool drops, so a file-backed
/// database closed without an explicit flush still persists its data
/// (errors at drop time are necessarily swallowed — call
/// [`BufferPool::flush_all`] to observe them).
impl<S: PageStore> Drop for BufferPool<S> {
    fn drop(&mut self) {
        let mut s = lock(&self.state);
        let _ = self.write_back_dirty(&mut s);
        // A clean close leaves an empty log behind: the next open has
        // nothing to replay.
        if s.store.sync().is_ok() {
            if let Some(log) = s.store.wal() {
                let _ = log.checkpoint();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemPageStore;
    use crate::testing::FaultStore;

    fn pool(cap: usize) -> BufferPool<MemPageStore> {
        BufferPool::new(MemPageStore::new(128).unwrap(), cap)
    }

    fn pages<S: PageStore, const N: usize>(p: &BufferPool<S>) -> [PageId; N] {
        std::array::from_fn(|_| p.allocate().unwrap())
    }

    fn touch<S: PageStore>(p: &BufferPool<S>, id: PageId) {
        p.with_page(id, |_| ()).unwrap();
    }

    fn fill<S: PageStore>(p: &BufferPool<S>, id: PageId, byte: u8) {
        p.with_page_mut(id, |buf| buf.fill(byte)).unwrap();
    }

    fn resident<S: PageStore>(p: &BufferPool<S>, id: PageId) -> bool {
        p.resident_pages().contains(&id)
    }

    fn holds<S: PageStore>(p: &BufferPool<S>, id: PageId, byte: u8) -> bool {
        p.with_page(id, |buf| buf.iter().all(|&x| x == byte))
            .unwrap()
    }

    #[test]
    fn hits_misses_and_evictions_counted() {
        let p = pool(2);
        let [a, b, c, d] = pages(&p);
        touch(&p, a); // miss
        touch(&p, a); // hit
        touch(&p, b); // miss
        let s = p.stats().snapshot();
        assert_eq!((s.physical_reads, s.buffer_hits, s.evictions), (2, 1, 0));
        assert_eq!(s.prefetch_issued, 0, "prefetch is off by default");
        touch(&p, c);
        touch(&p, d);
        // 4 faults through 2 frames: 2 evictions.
        assert_eq!(p.stats().snapshot().evictions, 2);
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let p = pool(1);
        let [a, b] = pages(&p);
        fill(&p, a, 7);
        touch(&p, b); // evicts dirty a
        assert_eq!(p.stats().snapshot().physical_writes, 1);
        // Re-reading a shows the persisted bytes.
        assert!(holds(&p, a, 7));
    }

    #[test]
    fn clear_makes_next_access_cold() {
        let p = pool(4);
        let [a] = pages(&p);
        fill(&p, a, 9);
        p.clear().unwrap();
        assert!(!resident(&p, a));
        let before = p.stats().snapshot();
        touch(&p, a);
        assert_eq!(p.stats().snapshot().since(&before).physical_reads, 1);
    }

    /// Two threads missing on the same page while every frame is pinned
    /// both park in `evict_to`; the wait releases the state lock, so the
    /// loser must dedup against (or re-read after) the winner's install
    /// instead of admitting a stale duplicate frame — either failure
    /// loses one of the increments below.
    #[test]
    fn concurrent_misses_on_same_page_lose_no_updates() {
        use std::sync::mpsc;
        let p = pool(2);
        let [a, b, t] = pages(&p);
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (rel_a_tx, rel_a_rx) = mpsc::channel::<()>();
        let (rel_b_tx, rel_b_rx) = mpsc::channel::<()>();
        std::thread::scope(|sc| {
            let p = &p;
            let pa_tx = pinned_tx.clone();
            sc.spawn(move || {
                p.with_page(a, move |_| {
                    pa_tx.send(()).unwrap();
                    let _ = rel_a_rx.recv();
                })
                .unwrap();
            });
            sc.spawn(move || {
                p.with_page(b, move |_| {
                    pinned_tx.send(()).unwrap();
                    let _ = rel_b_rx.recv();
                })
                .unwrap();
            });
            pinned_rx.recv().unwrap();
            pinned_rx.recv().unwrap();
            // Both capacity-2 frames are now pinned: the misses below
            // cannot find a victim until `a` is released.
            let missers: Vec<_> = (0..2)
                .map(|_| sc.spawn(move || p.with_page_mut(t, |buf| buf[0] += 1).unwrap()))
                .collect();
            std::thread::sleep(std::time::Duration::from_millis(100));
            rel_a_tx.send(()).unwrap();
            for m in missers {
                m.join().unwrap();
            }
            rel_b_tx.send(()).unwrap();
        });
        assert_eq!(p.resident_pages().iter().filter(|&&id| id == t).count(), 1);
        assert_eq!(p.with_page(t, |buf| buf[0]).unwrap(), 2);
    }

    #[test]
    fn drop_flushes_dirty_frames() {
        // A shared store observed after the pool drops: dirty frames must
        // have been written back by Drop.
        let (store, counters) = FaultStore::new(MemPageStore::new(128).unwrap());
        let p = BufferPool::new(store, 2);
        let [a] = pages(&p);
        fill(&p, a, 3);
        assert_eq!(counters.writes.load(Ordering::Relaxed), 0);
        drop(p);
        assert_eq!(counters.writes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn failed_fill_is_never_left_cached_as_valid() {
        let (store, switch) = FaultStore::new(MemPageStore::new(128).unwrap());
        let p = BufferPool::new(store, 4);
        let [a] = pages(&p);
        fill(&p, a, 0x42);
        p.clear().unwrap();
        // The fill read fails: no frame may be created for the page.
        switch.arm_after(0);
        assert!(p.with_page(a, |_| ()).is_err());
        assert!(!resident(&p, a), "failed fill left a frame cached");
        // Nothing dirty was fabricated either: clearing writes nothing.
        switch.disarm();
        let before = p.stats().snapshot();
        p.clear().unwrap();
        assert_eq!(p.stats().snapshot().since(&before).physical_writes, 0);
        // And a healthy retry reads the real contents, not zeroes.
        assert!(holds(&p, a, 0x42));
    }

    #[test]
    fn failed_store_free_keeps_the_buffered_copy() {
        let (store, switch) = FaultStore::new(MemPageStore::new(128).unwrap());
        let p = BufferPool::new(store, 4);
        let [a] = pages(&p);
        fill(&p, a, 6);
        switch.arm_after(0);
        assert!(p.free(a).is_err());
        switch.disarm();
        // The dirty frame survived the failed free and still flushes.
        assert!(resident(&p, a));
        assert!(holds(&p, a, 6));
        p.free(a).unwrap();
        assert!(!resident(&p, a));
        assert!(p.with_page(a, |_| ()).is_err());
    }

    /// Regression: the miss path used to evict the LRU victim (dirty
    /// write-back included) *before* attempting the replacement read, so
    /// a failed read still cost residents their frames. The read must
    /// come first.
    #[test]
    fn failed_fill_leaves_prior_residents_buffered() {
        let (store, ctl) = FaultStore::with_seed(MemPageStore::new(128).unwrap(), 5);
        let p = BufferPool::new(store, 2);
        let [a, b, c] = pages(&p);
        // Fill the pool: a and b resident, a dirty.
        fill(&p, a, 1);
        touch(&p, b);
        let writes_before = p.stats().snapshot().physical_writes;
        // A checksum-failing fault-in of c must not evict anyone.
        ctl.mark_corrupt(c);
        let r = p.with_page(c, |_| ());
        assert!(matches!(r, Err(StorageError::ChecksumMismatch { .. })));
        assert!(resident(&p, a) && resident(&p, b), "failed read evicted");
        assert!(!resident(&p, c), "failed fill left a frame cached");
        assert_eq!(p.stats().snapshot().checksum_failures, 1);
        let writes = p.stats().snapshot().physical_writes;
        assert_eq!(writes, writes_before, "write-back paid for a failed read");
        p.check_invariants().unwrap();
        // Once the page heals, the fault-in proceeds and evicts normally.
        ctl.clear_corrupt(c);
        touch(&p, c);
        assert!(resident(&p, c));
        p.check_invariants().unwrap();
    }

    /// Regression: a failed eviction write-back mid-shrink used to leave
    /// the pool claiming the new (smaller) capacity while holding more
    /// resident frames than that. The old capacity must survive the
    /// error.
    #[test]
    fn failed_shrink_restores_capacity() {
        let (store, ctl) = FaultStore::with_seed(MemPageStore::new(128).unwrap(), 5);
        let p = BufferPool::new(store, 3);
        let ids: [PageId; 3] = pages(&p);
        for &id in &ids {
            fill(&p, id, 2);
        }
        // Every store op fails: the first write-back aborts the shrink.
        ctl.set_fault_rate(1024, 1);
        assert!(p.set_capacity(1).is_err());
        ctl.set_fault_rate(0, 1);
        assert_eq!(p.capacity(), 3, "failed shrink must keep the old capacity");
        assert_eq!(p.resident_pages().len(), 3, "failed shrink lost a frame");
        p.check_invariants().unwrap();
        // The shrink succeeds once the store recovers, with no data loss.
        p.set_capacity(1).unwrap();
        assert_eq!((p.capacity(), p.resident_pages().len()), (1, 1));
        assert!(p.stats().snapshot().physical_writes >= 2);
        p.check_invariants().unwrap();
        assert!(ids.iter().all(|&id| holds(&p, id, 2)));
    }

    #[test]
    fn page_events_attributed_to_open_span() {
        use PageAccessKind::{Hit, Miss, Write};
        let p = pool(1);
        let [a, b] = pages(&p);
        fill(&p, a, 1);
        let stats = p.stats();
        stats.set_profiling(true);
        {
            let _span = p.stats().span("op");
            touch(&p, b); // evicts dirty a (write), misses b
            touch(&p, b); // hit
            p.with_mru_page(|_, _| ()); // a hit like any other
        }
        let profiles = stats.take_profiles();
        assert_eq!(profiles.len(), 1);
        let events = profiles[0].events.iter().map(|e| (e.kind, e.page));
        let expected = vec![(Write, a), (Miss, b), (Hit, b), (Hit, b)];
        assert_eq!(events.collect::<Vec<_>>(), expected);
        assert_eq!(profiles[0].data_page_accesses(), 1);
    }

    #[test]
    fn read_uncounted_sees_dirty_frames_without_stats_or_frames() {
        let p = pool(2);
        let [a, b] = pages(&p);
        fill(&p, a, 7);
        fill(&p, b, 8);
        p.clear().unwrap();
        fill(&p, a, 9); // dirty, resident
        let before = p.stats().snapshot();
        let mut buf = vec![0u8; 128];
        // Resident dirty frame: latest bytes, no count.
        p.read_uncounted(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 9));
        // Non-resident page: store bytes, no frame created.
        p.read_uncounted(b, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 8));
        assert!(!resident(&p, b));
        let delta = p.stats().snapshot().since(&before);
        assert_eq!((delta.physical_reads, delta.buffer_hits), (0, 0));
    }

    #[test]
    fn flush_pages_writes_back_the_named_dirty_frames_only() {
        let p = pool(4);
        let [a, b, c] = pages(&p);
        fill(&p, a, 1);
        fill(&p, b, 2);
        let stored = |id: PageId| {
            let mut buf = [0u8; 128];
            p.with_store(|s| s.read(id, &mut buf)).unwrap();
            buf[0]
        };
        // `a` is dirty, `c` has no frame, `b` is not named: one write.
        let before = p.stats().snapshot().physical_writes;
        p.flush_pages(&[a, c]).unwrap();
        assert_eq!(p.stats().snapshot().physical_writes, before + 1);
        assert_eq!((stored(a), stored(b)), (1, 0));
        // Clean now: naming it again writes nothing.
        p.flush_pages(&[a]).unwrap();
        assert_eq!(p.stats().snapshot().physical_writes, before + 1);
        p.flush_all().unwrap();
        assert_eq!(stored(b), 2);
    }

    #[test]
    fn discard_frames_drops_dirty_state() {
        let p = pool(2);
        let [a] = pages(&p);
        fill(&p, a, 1);
        p.flush_all().unwrap();
        fill(&p, a, 2); // uncommitted
        p.discard_frames();
        assert!(!resident(&p, a));
        p.check_invariants().unwrap();
        // The committed bytes survive; the discarded mutation is gone.
        assert!(holds(&p, a, 1));
    }

    #[test]
    fn access_to_never_allocated_page_errors() {
        let r = pool(2).with_page(PageId(42), |_| ());
        assert!(matches!(r, Err(StorageError::InvalidPage(_))));
    }

    /// The LRU list stays exact through a long mixed workload:
    /// `resident_pages` equals a most-recent-first model after every
    /// access.
    #[test]
    fn lru_order_exact_through_mixed_workload() {
        let p = pool(4);
        let ids: [PageId; 8] = pages(&p);
        let mut model: Vec<PageId> = Vec::new();
        for i in [0usize, 1, 2, 3, 0, 4, 2, 5, 6, 1, 7, 3, 3, 0, 6, 2] {
            let id = ids[i];
            touch(&p, id);
            model.retain(|&x| x != id);
            model.insert(0, id);
            model.truncate(4);
            assert_eq!(p.resident_pages(), model, "after access to {}", id.0);
            p.check_invariants().unwrap();
        }
    }

    /// The MRU accessor hands out the list head without reordering
    /// anything, counts one hit per call, and never reads the store.
    #[test]
    fn mru_page_is_the_head_and_leaves_order_alone() {
        let p = pool(3);
        assert_eq!(p.with_mru_page(|id, _| id), None, "empty pool");
        assert_eq!(p.stats().snapshot().buffer_hits, 0);
        let [a, b, c] = pages(&p);
        fill(&p, a, 1);
        fill(&p, b, 2);
        fill(&p, c, 3);
        touch(&p, b);
        let order = p.resident_pages();
        assert_eq!(order, vec![b, c, a]);
        let before = p.stats().snapshot();
        let seen = p.with_mru_page(|id, buf| (id, buf[0]));
        assert_eq!(seen, Some((b, 2)));
        assert_eq!(p.resident_pages(), order);
        let d = p.stats().snapshot().since(&before);
        assert_eq!((d.buffer_hits, d.physical_reads), (1, 0));
        p.check_invariants().unwrap();
    }

    /// Regression for the pool that fixed its organization at
    /// construction: built at one frame and grown to a thousand, it must
    /// be exact LRU at the new size.
    #[test]
    fn grown_pool_stays_exact_lru() {
        let p = pool(1);
        p.set_capacity(1000).unwrap();
        let ids: [PageId; 1000] = pages(&p);
        for &id in &ids {
            touch(&p, id);
        }
        let mut model: Vec<PageId> = ids.iter().rev().copied().collect();
        assert_eq!(p.resident_pages(), model);
        // Re-touch in a permuted order (7 is coprime to 1000).
        for k in 0..1000 {
            let id = ids[(k * 7 + 3) % 1000];
            touch(&p, id);
            model.retain(|&x| x != id);
            model.insert(0, id);
        }
        assert_eq!(p.resident_pages(), model);
        p.check_invariants().unwrap();
        let s = p.stats().snapshot();
        assert_eq!((s.physical_reads, s.buffer_hits), (1000, 1000));
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn concurrent_hits_agree() {
        let p = pool(8);
        let ids: [PageId; 8] = pages(&p);
        for (i, &id) in ids.iter().enumerate() {
            fill(&p, id, i as u8);
        }
        std::thread::scope(|sc| {
            for t in 0..4usize {
                let p = &p;
                sc.spawn(move || {
                    for round in 0..200 {
                        let i = (t * 3 + round) % ids.len();
                        assert!(holds(p, ids[i], i as u8));
                    }
                });
            }
        });
        p.check_invariants().unwrap();
    }

    /// Concurrent readers of distinct pages make progress (closures run
    /// outside the state lock).
    #[test]
    fn concurrent_readers_on_distinct_pages() {
        let p = pool(8);
        let ids: [PageId; 4] = pages(&p);
        for (i, &id) in ids.iter().enumerate() {
            fill(&p, id, i as u8 + 1);
        }
        let barrier = std::sync::Barrier::new(ids.len());
        std::thread::scope(|sc| {
            for (i, &id) in ids.iter().enumerate() {
                let (p, barrier) = (&p, &barrier);
                sc.spawn(move || {
                    barrier.wait();
                    for _ in 0..500 {
                        assert!(holds(p, id, i as u8 + 1));
                    }
                });
            }
        });
        p.check_invariants().unwrap();
        // 4 cold misses, then pure hits.
        let s = p.stats().snapshot();
        assert_eq!((s.physical_reads, s.buffer_hits), (4, 4 * 500));
    }

    #[test]
    fn prefetch_fills_free_frames_and_counts_honestly() {
        let p = pool(4);
        let [a, b, c] = pages(&p);
        fill(&p, b, 0xbb);
        fill(&p, c, 0xcc);
        p.clear().unwrap();
        let before = p.stats().snapshot();
        p.set_prefetcher(Some(Arc::new(move |_| vec![b, c])));
        touch(&p, a); // the only miss: b and c arrive by prefetch
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.prefetch_issued, 2);
        assert_eq!(d.physical_reads, 3, "prefetch reads are counted reads");
        assert!(resident(&p, b) && resident(&p, c));
        p.check_invariants().unwrap();
        // The prefetched pages now hit without further physical reads.
        let mid = p.stats().snapshot();
        assert!(holds(&p, b, 0xbb) && holds(&p, c, 0xcc));
        let d2 = p.stats().snapshot().since(&mid);
        assert_eq!((d2.physical_reads, d2.buffer_hits), (0, 2));
    }

    #[test]
    fn prefetch_never_evicts_residents() {
        let p = pool(2);
        let [a, b, c] = pages(&p);
        touch(&p, a); // a resident
        p.set_prefetcher(Some(Arc::new(move |_| vec![c])));
        touch(&p, b); // fills the last free frame
        assert!(resident(&p, a), "prefetch must not evict residents");
        assert!(resident(&p, b));
        assert!(!resident(&p, c), "no free frame was left to prefetch into");
        assert_eq!(p.stats().snapshot().prefetch_issued, 0);
        p.check_invariants().unwrap();
    }

    /// Prefetched frames sit at the LRU tail: real misses reclaim them
    /// before any demand-fetched page.
    #[test]
    fn prefetched_frames_are_first_eviction_victims() {
        let p = pool(2);
        let [a, b, c] = pages(&p);
        p.set_prefetcher(Some(Arc::new(move |_| vec![b])));
        touch(&p, a); // a demand, b prefetched
        assert_eq!(p.resident_pages(), vec![a, b]);
        p.set_prefetcher(None);
        touch(&p, c); // evicts the prefetched b, not a
        assert!(resident(&p, a) && !resident(&p, b) && resident(&p, c));
    }

    /// A panicking hook (the fault seam `ccam-server`'s panic-isolation
    /// test uses) leaves the faulted page resident and unpinned: the
    /// one-frame pool can still evict it afterwards.
    #[test]
    fn panicking_prefetch_hook_leaves_no_pin_behind() {
        let p = pool(1);
        let [a, b] = pages(&p);
        p.set_prefetcher(Some(Arc::new(|_| panic!("injected"))));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| touch(&p, a)));
        assert!(r.is_err());
        assert!(resident(&p, a));
        p.set_prefetcher(None);
        touch(&p, b); // would wait forever on a leaked pin
        assert_eq!(p.resident_pages(), vec![b]);
        p.check_invariants().unwrap();
    }
}
