//! The network data file shared by every access method.
//!
//! A [`NetworkFile`] is the paper's "connectivity-clustered data file"
//! stripped of any particular clustering policy: slotted data pages
//! holding variable-length node records behind a *counted* buffer pool,
//! plus the B⁺-tree secondary index mapping node-id → data page. The
//! access methods differ only in *which* page each record lands on —
//! exactly the design space the paper explores.
//!
//! I/O accounting: every data-page fetch flows through the buffer pool
//! and shows up in [`NetworkFile::stats`]. Index traffic is kept on the
//! index's own pool ("we assume that the index pages are buffered in main
//! memory", §3.2). Diagnostic whole-file scans (CRR measurement, page
//! maps) read the store directly and are *not* counted.
//!
//! Each lookup rule has one entry point, which lends the record to a
//! closure as a [`RecordRef`] read in the pinned frame's bytes: no read
//! path copies a page, and a caller that needs one field decodes only
//! that. [`NetworkFile::find`], [`NetworkFile::find_buffered_first`] and
//! [`NetworkFile::read_from_page`] are the same lookups made owned.
//! Per lookup that means:
//! - [`NetworkFile::with_record`] (`Find()`) counts one access to the
//!   page the index names — a buffer hit or a physical read;
//! - [`NetworkFile::with_record_buffered_first`] (`Get-A-successor()`)
//!   first searches the pool's most recently used frame, which counts
//!   one buffer hit (and, with profiling on, one `PageAccessKind::Hit`
//!   event) whether or not the record is there; nothing else is counted
//!   unless it then falls back to `with_record`;
//! - [`NetworkFile::with_record_on`] is that rule for a page the caller
//!   already knows: the same probe, then that page, and no index access.
//!
//! Record format: a file stores every record in one [`RecordCodec`],
//! chosen at `Create()` ([`NetworkFile::create`]) and recorded in the
//! format bit of every data page's header
//! ([`SlottedView::format_bit`]), so it travels with each page image —
//! through `save_to`, the log, replication and snapshot views.
//! [`NetworkFile::open`] reads it back from the pages; a file written
//! before the bit existed has it clear everywhere and opens as
//! [`RecordCodec::Paper`]. This module is the only one that reads or
//! writes record bytes: record sizes for placement and clustering come
//! from [`NetworkFile::record_len`] and
//! [`NetworkFile::clustering_weight`].

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ccam_graph::record::{peek_id, RecordCodec, RecordRef};
use ccam_graph::{EdgeTo, NodeData, NodeId};
use ccam_index::BPlusTree;
use ccam_storage::sync::lock;
use ccam_storage::{
    BufferPool, IoStats, MemPageStore, PageId, PageStore, SlottedPage, SlottedView, SnapshotStore,
    StorageError, StorageResult,
};

/// Default buffer capacity for update operations — the paper "assume\[s\]
/// that sufficient buffers are provided for update operations" (§3.2).
pub const DEFAULT_BUFFER_FRAMES: usize = 64;

/// A query result over a file with quarantined (unreadable) pages.
///
/// Degraded operations skip pages whose checksums fail instead of
/// aborting: `value` holds everything that was readable, and `skipped`
/// lists the data pages that could not be consulted. An empty `skipped`
/// means the answer is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degraded<T> {
    /// The (possibly partial) result.
    pub value: T,
    /// Data pages that were skipped because they are quarantined.
    pub skipped: Vec<PageId>,
}

impl<T> Degraded<T> {
    /// Wraps a result that consulted every page it needed.
    pub fn complete(value: T) -> Self {
        Degraded {
            value,
            skipped: Vec::new(),
        }
    }

    /// True when no page had to be skipped — the answer is exact.
    pub fn is_complete(&self) -> bool {
        self.skipped.is_empty()
    }
}

/// The data file: counted data pages + secondary index.
///
/// Generic over the page store: experiments run on [`MemPageStore`] (the
/// paper's metric is page-access *counts*), while
/// [`ccam_storage::FilePageStore`] gives a genuinely persistent file —
/// see [`NetworkFile::save_to`] / [`NetworkFile::open`]. The secondary
/// index always lives in memory ("we assume that the index pages are
/// buffered in main memory", §3.2); `open` rebuilds it by scanning the
/// data pages, and every update maintains it in place from then on
/// (§2.3). A published read-only view does not scan: it forks the
/// writer's index (`NetworkFile::snapshot_view`).
pub struct NetworkFile<S: PageStore = MemPageStore> {
    pool: BufferPool<S>,
    index: BPlusTree<MemPageStore>,
    page_size: usize,
    /// The record format of every data page.
    codec: RecordCodec,
    auto_commit: bool,
    /// Pages known to be unreadable (failed checksum on open or during a
    /// query). Degraded operations skip them; healthy operations never
    /// place records on them.
    quarantined: Mutex<BTreeSet<PageId>>,
    /// Logical operations committed / aborted under auto-commit (the
    /// access methods treat each insert / delete / reorganization as one
    /// transaction).
    txn_commits: AtomicU64,
    txn_aborts: AtomicU64,
}

impl NetworkFile<MemPageStore> {
    /// Creates an empty memory-backed file over `page_size`-byte data
    /// pages, in the paper's record format.
    pub fn new(page_size: usize) -> StorageResult<Self> {
        Self::create(MemPageStore::new(page_size)?, RecordCodec::Paper)
    }
}

impl<S: PageStore> NetworkFile<S> {
    /// Creates an empty file over a fresh (empty) page store, storing
    /// its records in `codec`.
    pub fn create(store: S, codec: RecordCodec) -> StorageResult<Self> {
        let page_size = store.page_size();
        Ok(NetworkFile {
            pool: BufferPool::new(store, DEFAULT_BUFFER_FRAMES),
            // The index uses 1 KiB pages regardless of the data page size;
            // its I/O is not part of the reported metric.
            index: BPlusTree::new_mem(1024)?,
            page_size,
            codec,
            auto_commit: false,
            quarantined: Mutex::new(BTreeSet::new()),
            txn_commits: AtomicU64::new(0),
            txn_aborts: AtomicU64::new(0),
        })
    }

    /// Opens a store that already holds data pages, rebuilding the
    /// secondary index with one uncounted scan. The record codec is the
    /// one the pages record; a store with no data pages opens as
    /// [`RecordCodec::Paper`] (nothing in it is encoded yet).
    ///
    /// Pages that fail their checksum are **quarantined** instead of
    /// failing the open: their records stay unindexed and degraded
    /// queries report the pages as skipped (run
    /// [`ccam_storage::scrub`] to repair them from the WAL). Any other
    /// read error still aborts the open.
    pub fn open(store: S) -> StorageResult<Self> {
        let mut file = Self::create(store, RecordCodec::Paper)?;
        file.rebuild_index()?;
        Ok(file)
    }

    /// Discards the in-memory secondary index and quarantine set and
    /// rebuilds both from one tolerant, uncounted scan of the live data
    /// pages — the same scan [`NetworkFile::open`] performs. Also used by
    /// [`NetworkFile::abort`] after dirty frames have been discarded, so
    /// the index reflects exactly what the store holds. The record codec
    /// is read back from the first readable page, if there is one.
    pub fn rebuild_index(&mut self) -> StorageResult<()> {
        self.index = BPlusTree::new_mem(1024)?;
        self.clear_quarantined();
        let index = &mut self.index;
        let mut codec = None;
        let unreadable = self.pool.with_store(|store| {
            let mut unreadable = Vec::new();
            let mut buf = vec![0u8; store.page_size()];
            for page in store.live_pages() {
                match store.read(page, &mut buf) {
                    // Only the ids are needed: nothing is decoded.
                    Ok(()) => {
                        let view = SlottedView::attach(&buf);
                        codec.get_or_insert(page_codec(view));
                        for (_, rec) in view.iter() {
                            index.insert(peek_id(rec).0, page.index() as u64)?;
                        }
                    }
                    Err(StorageError::ChecksumMismatch { .. }) => unreadable.push(page),
                    Err(e) => return Err(e),
                }
            }
            Ok(unreadable)
        })?;
        if let Some(codec) = codec {
            self.codec = codec;
        }
        for page in unreadable {
            self.quarantine(page);
        }
        Ok(())
    }

    /// A read-only file over `store` — one committed generation of this
    /// file's data pages, taken while no update is in flight, itself a
    /// copy-on-write fork of the log's mirror — without the scan
    /// [`NetworkFile::open`] pays: the view's secondary index is a
    /// copy-on-write fork of this file's ([`BPlusTree::fork`]), its
    /// quarantine set is the generation's own list of unreadable pages,
    /// and its data pool starts empty with `frames` frames. Data pages
    /// and index pages are shared and freed by the one rule, so a view
    /// costs what the commit changed since the previous fork, not what
    /// the file holds. Index entries for ids on unreadable pages come
    /// along with the rest, so a lookup routes to the quarantined page
    /// and takes the degraded path instead of reporting a confident
    /// miss.
    pub(crate) fn snapshot_view(
        &self,
        store: SnapshotStore,
        frames: usize,
    ) -> StorageResult<NetworkFile<SnapshotStore>> {
        let quarantined = store.unreadable_pages().into_iter().collect();
        Ok(NetworkFile {
            pool: BufferPool::new(store, frames),
            index: self.index.fork()?,
            page_size: self.page_size,
            codec: self.codec,
            auto_commit: false,
            quarantined: Mutex::new(quarantined),
            txn_commits: AtomicU64::new(0),
            txn_aborts: AtomicU64::new(0),
        })
    }

    /// Runs `change` on the store and brings the secondary index and the
    /// quarantine set up to date for `pages` alone — `change` may
    /// rewrite, allocate or free those data pages and must leave every
    /// other page as it was (a replication follower applying a shipped
    /// log segment, which names the pages it touches). The ids on each
    /// page's old image are read before `change`, the ids on its new
    /// image after; only entries that differ are rewritten, so the index
    /// pages of untouched ids stay shared with earlier forks. Cost is
    /// proportional to `pages`, not to the file. The record codec follows
    /// the new images (a follower seeded with an empty file learns it
    /// from the first page shipped to it).
    ///
    /// Falls back to [`Self::rebuild_index`] when an old image cannot be
    /// read (its ids cannot be named) or when `change` fails part-way.
    pub fn reindex_pages<T>(
        &mut self,
        pages: &[PageId],
        change: impl FnOnce(&mut S) -> StorageResult<T>,
    ) -> StorageResult<T> {
        // Cached frames may predate the change.
        self.pool.discard_frames();
        let mut buf = vec![0u8; self.page_size];
        let mut before: HashMap<u64, PageId> = HashMap::new();
        let mut all_read = true;
        for &page in pages {
            match self.read_live_image(page, &mut buf) {
                Ok(true) => before.extend(
                    SlottedView::attach(&buf)
                        .iter()
                        .map(|(_, rec)| (peek_id(rec).0, page)),
                ),
                Ok(false) => {}
                Err(StorageError::ChecksumMismatch { .. }) => all_read = false,
                Err(e) => return Err(e),
            }
        }
        let out = match self.pool.with_store_mut(change) {
            Ok(out) if all_read => out,
            Ok(out) => {
                self.rebuild_index()?;
                return Ok(out);
            }
            Err(e) => {
                // The index must describe whatever the store now holds.
                let _ = self.rebuild_index();
                return Err(e);
            }
        };
        for &page in pages {
            lock(&self.quarantined).remove(&page);
            match self.read_live_image(page, &mut buf) {
                Ok(true) => {
                    let view = SlottedView::attach(&buf);
                    self.codec = page_codec(view);
                    for (_, rec) in view.iter() {
                        let id = peek_id(rec);
                        if before.remove(&id.0) != Some(page) {
                            self.index_insert(id, page)?;
                        }
                    }
                }
                Ok(false) => {}
                Err(StorageError::ChecksumMismatch { .. }) => self.quarantine(page),
                Err(e) => return Err(e),
            }
        }
        // What is left was on an old image and is on no new one.
        for (id, page) in before {
            if self.page_of(NodeId(id))? == Some(page) {
                self.index_remove(NodeId(id))?;
            }
        }
        Ok(out)
    }

    /// Reads `page` from the store (no frame, uncounted) into `buf`;
    /// `false` when the page is not live.
    fn read_live_image(&self, page: PageId, buf: &mut [u8]) -> StorageResult<bool> {
        self.pool.with_store(|store| {
            if !store.is_live(page) {
                return Ok(false);
            }
            store.read(page, buf).map(|()| true)
        })
    }

    /// Persists every live data page into a fresh page file at `path`
    /// (page ids preserved, gaps freed). The result reopens with
    /// [`NetworkFile::open`] on a [`ccam_storage::FilePageStore`].
    pub fn save_to(&self, path: &std::path::Path) -> StorageResult<()> {
        self.pool.flush_all()?;
        let mut out = ccam_storage::FilePageStore::create(path, self.page_size)?;
        self.pool.with_store(|store| {
            let live = store.live_pages();
            let max = live
                .iter()
                .map(|p| p.index())
                .max()
                .map(|m| m + 1)
                .unwrap_or(0);
            let mut buf = vec![0u8; self.page_size];
            for i in 0..max {
                let id = out.allocate()?;
                debug_assert_eq!(id.index(), i);
                if store.is_live(PageId(i)) {
                    store.read(PageId(i), &mut buf)?;
                    out.write(id, &buf)?;
                }
            }
            for i in 0..max {
                if !store.is_live(PageId(i)) {
                    out.free(PageId(i))?;
                }
            }
            out.sync()
        })
    }

    /// Data page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Largest record this file can store.
    pub fn max_record_len(&self) -> usize {
        SlottedPage::max_record_len(self.page_size)
    }

    /// The record format of this file's data pages.
    pub fn codec(&self) -> RecordCodec {
        self.codec
    }

    /// Byte size `node`'s record occupies in this file.
    pub fn record_len(&self, node: &NodeData) -> usize {
        self.codec.encoded_len(node)
    }

    /// Clustering weight of a node in this file: record bytes plus
    /// slot-directory overhead (the clustering layer budgets against
    /// [`Self::clustering_budget`]).
    pub fn clustering_weight(&self, node: &NodeData) -> usize {
        self.record_len(node) + ccam_storage::slotted::SLOT_LEN
    }

    /// Counted I/O statistics of the data pages.
    pub fn stats(&self) -> Arc<IoStats> {
        self.pool.stats()
    }

    /// The buffer pool (experiments adjust capacity / clear it between
    /// measured operations).
    pub fn pool(&self) -> &BufferPool<S> {
        &self.pool
    }

    // -- durability ---------------------------------------------------------

    /// Flushes every dirty data page and syncs the store. Over a
    /// [`ccam_storage::WalStore`] this is the *commit point*: the whole
    /// flush becomes one atomic, durable log batch.
    pub fn commit(&self) -> StorageResult<()> {
        self.pool.flush_all()
    }

    /// When enabled, the access-method layer commits after every logical
    /// operation (insert / delete / reorganize), making each one an
    /// atomic transaction on a WAL-backed store. Off by default: the
    /// paper's experiments count page accesses and must not pay a flush
    /// per operation.
    pub fn set_auto_commit(&mut self, on: bool) {
        self.auto_commit = on;
    }

    /// True when per-operation commits are enabled.
    pub fn auto_commit(&self) -> bool {
        self.auto_commit
    }

    /// Commits iff auto-commit is enabled — called by the access methods
    /// at the end of each logical operation. Successful commits are
    /// counted in [`NetworkFile::txn_commits`].
    pub fn maybe_commit(&self) -> StorageResult<()> {
        if self.auto_commit {
            self.commit()?;
            self.txn_commits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Abandons every uncommitted change: dirty buffer frames are
    /// dropped, the store's pending overlay is rolled back, and the
    /// secondary index is rebuilt from the (committed) data pages.
    ///
    /// Returns `false` — having done nothing — when the store cannot
    /// roll back (no WAL). If the failed operation's batch already
    /// reached the log (the store is poisoned *after* its commit point),
    /// rollback is impossible; the batch is completed with a retried
    /// `sync()` instead, which lands the same all-or-nothing guarantee:
    /// the file holds either none or all of the operation's writes.
    pub fn abort(&mut self) -> StorageResult<bool> {
        let Some(rolled_back) = self.pool.with_wal(|log| log.rollback().is_ok()) else {
            return Ok(false);
        };
        self.pool.discard_frames();
        if !rolled_back {
            // Past the commit point: finish applying the logged batch.
            self.pool.with_store_mut(|s| s.sync())?;
        }
        self.rebuild_index()?;
        self.txn_aborts.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Logical operations committed under auto-commit.
    pub fn txn_commits(&self) -> u64 {
        self.txn_commits.load(Ordering::Relaxed)
    }

    /// Logical operations rolled back via [`NetworkFile::abort`].
    pub fn txn_aborts(&self) -> u64 {
        self.txn_aborts.load(Ordering::Relaxed)
    }

    /// Number of live data pages.
    pub fn num_pages(&self) -> usize {
        self.pool.with_store(|s| s.live_pages().len())
    }

    /// True when `page` is a live data page (uncounted store metadata).
    pub fn is_live_page(&self, page: PageId) -> bool {
        self.pool.with_store(|s| s.is_live(page))
    }

    // -- quarantine ---------------------------------------------------------

    /// Marks `page` unreadable: degraded operations skip it and record
    /// placement avoids it until [`Self::clear_quarantined`].
    pub fn quarantine(&self, page: PageId) {
        lock(&self.quarantined).insert(page);
    }

    /// True when `page` is quarantined.
    pub fn is_quarantined(&self, page: PageId) -> bool {
        lock(&self.quarantined).contains(&page)
    }

    /// The quarantined pages, in order.
    pub fn quarantined_pages(&self) -> Vec<PageId> {
        lock(&self.quarantined).iter().copied().collect()
    }

    /// Forgets every quarantine mark (after a successful scrub repair).
    pub fn clear_quarantined(&self) {
        lock(&self.quarantined).clear();
    }

    /// Reads `id` from `page` unless the page is quarantined; a checksum
    /// failure quarantines the page on the spot. Skipped pages are pushed
    /// onto `skipped` (deduplicated); any other error propagates.
    fn read_guarded(
        &self,
        page: PageId,
        id: NodeId,
        skipped: &mut Vec<PageId>,
    ) -> StorageResult<Option<NodeData>> {
        if self.is_quarantined(page) {
            if !skipped.contains(&page) {
                skipped.push(page);
            }
            return Ok(None);
        }
        match self.read_from_page(page, id) {
            Ok(rec) => Ok(rec),
            Err(StorageError::ChecksumMismatch { .. }) => {
                self.quarantine(page);
                if !skipped.contains(&page) {
                    skipped.push(page);
                }
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// `Find()` that degrades instead of aborting: a quarantined (or
    /// freshly checksum-failed) data page is skipped and reported in
    /// [`Degraded::skipped`]. When the record cannot be found *and* the
    /// file has quarantined pages, those pages are reported too — the
    /// record may be on one of them, unindexed since a tolerant
    /// [`NetworkFile::open`].
    pub fn find_degraded(&self, id: NodeId) -> StorageResult<Degraded<Option<NodeData>>> {
        let mut skipped = Vec::new();
        let found = match self.page_of(id)? {
            Some(page) => self.read_guarded(page, id, &mut skipped)?,
            None => None,
        };
        if found.is_none() && skipped.is_empty() {
            // Absence is only trustworthy when every page was readable.
            skipped = self.quarantined_pages();
        }
        Ok(Degraded {
            value: found,
            skipped,
        })
    }

    /// Number of indexed node records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the file stores no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // -- index ------------------------------------------------------------

    /// Page currently holding `id`, from the secondary index (no data-page
    /// I/O).
    pub fn page_of(&self, id: NodeId) -> StorageResult<Option<PageId>> {
        Ok(self.index.get(id.0)?.map(|v| PageId(v as u32)))
    }

    /// Index entries with `lo <= id <= hi` as `(raw id, raw page)` pairs
    /// (index-only; used by Z-order window queries).
    pub fn index_range(&self, lo: u64, hi: u64) -> StorageResult<Vec<(u64, u64)>> {
        self.index.range(lo, hi)
    }

    /// I/O counters of the secondary index's own buffer pool (separate
    /// from the data-page counts the paper reports; see
    /// [`Self::set_index_buffer_capacity`]).
    pub fn index_stats(&self) -> Arc<IoStats> {
        self.index.index_stats()
    }

    /// Restricts the secondary index to `frames` buffered pages, making
    /// index I/O observable instead of assumed free (§3.2's assumption,
    /// flagged for evaluation in §5).
    pub fn set_index_buffer_capacity(&self, frames: usize) -> StorageResult<()> {
        self.index.set_buffer_capacity(frames)
    }

    /// Number of index pages.
    pub fn index_pages(&self) -> usize {
        self.index.num_pages()
    }

    /// Number of index pages this file shares, image for image, with
    /// `other`'s index — all but the pages rewritten since one was
    /// forked from the other (`Self::snapshot_view`). Diagnostics and
    /// tests.
    pub fn index_pages_shared_with<T: PageStore>(&self, other: &NetworkFile<T>) -> usize {
        self.index.pages_shared_with(&other.index)
    }

    fn index_insert(&mut self, id: NodeId, page: PageId) -> StorageResult<()> {
        self.index.insert(id.0, page.index() as u64)?;
        Ok(())
    }

    fn index_remove(&mut self, id: NodeId) -> StorageResult<()> {
        self.index.remove(id.0)?;
        Ok(())
    }

    // -- counted record access ---------------------------------------------

    /// `Find()`: secondary-index lookup, then a (counted) data-page fetch;
    /// [`Self::with_record`] made owned.
    pub fn find(&self, id: NodeId) -> StorageResult<Option<(PageId, NodeData)>> {
        self.with_record(id, |rec| rec.to_owned())
    }

    /// Reads `id`'s record from `page` (counted fetch; in-page scan is
    /// free). `None` when the record is not on that page.
    pub fn read_from_page(&self, page: PageId, id: NodeId) -> StorageResult<Option<NodeData>> {
        self.record_in(page, id, |rec| rec.to_owned())
    }

    /// The lookup of `Get-A-successor()`, made owned; see
    /// [`Self::with_record_buffered_first`].
    pub fn find_buffered_first(&self, id: NodeId) -> StorageResult<Option<(PageId, NodeData)>> {
        self.with_record_buffered_first(id, |rec| rec.to_owned())
    }

    /// `Find()`, read in place: the index names `id`'s page, and `f`
    /// reads the record where it lies in that page's frame — one counted
    /// access, nothing decoded that `f` does not ask for. Returns the
    /// page with `f`'s result; `None` when `id` is not indexed (or not
    /// on the page the index names).
    ///
    /// `f` runs under the frame's read lock, like every closure the
    /// `with_record*` entry points lend a record to: it must not call
    /// back into this file or its pool.
    pub fn with_record<R>(
        &self,
        id: NodeId,
        f: impl FnOnce(RecordRef<'_>) -> R,
    ) -> StorageResult<Option<(PageId, R)>> {
        let Some(page) = self.page_of(id)? else {
            return Ok(None);
        };
        Ok(self.record_in(page, id, f)?.map(|r| (page, r)))
    }

    /// The lookup of `Get-A-successor()`, read in place: "the buffered
    /// data-page should be searched first. If the desired successor node
    /// is not in the buffer, then a Find() operation is needed" (§2.3).
    /// The buffered data page is the pool's most recently used frame —
    /// the page the previous hop read, and under the paper's one-page
    /// buffer the only one. It is searched in place: one counted buffer
    /// hit, no index access, never a physical read, and the recency
    /// order of the pool is left as it was. When `id` is not on it this
    /// *is* [`Self::with_record`]: the index names the page and only
    /// that page is touched.
    pub fn with_record_buffered_first<R>(
        &self,
        id: NodeId,
        f: impl FnOnce(RecordRef<'_>) -> R,
    ) -> StorageResult<Option<(PageId, R)>> {
        match self.on_mru_frame(None, id, f) {
            Ok(hit) => Ok(Some(hit)),
            Err(f) => self.with_record(id, f),
        }
    }

    /// Reads `id`'s record in place from `page`, which the caller already
    /// knows (a range scan of the index named it): the most recently
    /// used frame is tried first, as [`Self::with_record_buffered_first`]
    /// does — one counted hit — and `page` is fetched only when it is not
    /// that frame. No index access. `None` when the record is not on
    /// `page`.
    pub fn with_record_on<R>(
        &self,
        page: PageId,
        id: NodeId,
        f: impl FnOnce(RecordRef<'_>) -> R,
    ) -> StorageResult<Option<R>> {
        match self.on_mru_frame(Some(page), id, f) {
            Ok((_, hit)) => Ok(Some(hit)),
            Err(f) => self.record_in(page, id, f),
        }
    }

    /// `Get-successors()`, read in place: one `Find()` of `id`, whose
    /// out-edges are copied into `edges` (the frame is released before
    /// any successor is looked up); then each successor in edge order by
    /// the `Get-A-successor()` rule ([`Self::with_record_buffered_first`]),
    /// lent to `f` with the edge that reaches it. A successor with no
    /// record is skipped. `false` when `id` is not found.
    pub fn with_successors(
        &self,
        id: NodeId,
        edges: &mut Vec<EdgeTo>,
        mut f: impl FnMut(EdgeTo, RecordRef<'_>),
    ) -> StorageResult<bool> {
        edges.clear();
        if self
            .with_record(id, |rec| edges.extend(rec.successors()))?
            .is_none()
        {
            return Ok(false);
        }
        for &edge in edges.iter() {
            self.with_record_buffered_first(edge.to, |rec| f(edge, rec))?;
        }
        Ok(true)
    }

    /// Lends `id`'s record to `f` when it is on the pool's most recently
    /// used frame — and that frame is `page`, when one is given — or
    /// hands `f` back. The probe counts one buffer hit either way.
    fn on_mru_frame<R, F: FnOnce(RecordRef<'_>) -> R>(
        &self,
        page: Option<PageId>,
        id: NodeId,
        f: F,
    ) -> Result<(PageId, R), F> {
        let mut f = Some(f);
        let hit = self.pool.with_mru_page(|mru, buf| {
            if page.is_some_and(|page| page != mru) {
                return None;
            }
            let rec = record_bytes(buf, id)?;
            Some((mru, f.take()?(self.codec.view(rec))))
        });
        hit.flatten().ok_or_else(|| f.expect("lent only on a hit"))
    }

    /// Lends `id`'s record on `page` to `f` (counted fetch; the in-page
    /// scan is free).
    fn record_in<R>(
        &self,
        page: PageId,
        id: NodeId,
        f: impl FnOnce(RecordRef<'_>) -> R,
    ) -> StorageResult<Option<R>> {
        self.pool.with_page(page, |buf| {
            record_bytes(buf, id).map(|rec| f(self.codec.view(rec)))
        })
    }

    /// All records on `page` (counted fetch).
    pub fn read_page_records(&self, page: PageId) -> StorageResult<Vec<NodeData>> {
        self.pool.with_page(page, |buf| records_on(self.codec, buf))
    }

    /// How many of `ids` have their record on `page` (counted fetch; the
    /// ids are read in place, nothing is decoded).
    pub(crate) fn count_ids_on(&self, page: PageId, ids: &[NodeId]) -> StorageResult<usize> {
        self.pool.with_page(page, |buf| {
            SlottedView::attach(buf)
                .iter()
                .filter(|(_, rec)| ids.contains(&peek_id(rec)))
                .count()
        })
    }

    /// Free bytes on `page` after compaction (counted fetch).
    pub fn page_free_space(&self, page: PageId) -> StorageResult<usize> {
        self.pool
            .with_page(page, |buf| SlottedView::attach(buf).free_space())
    }

    /// Live record bytes on `page` (counted fetch).
    pub fn page_used_bytes(&self, page: PageId) -> StorageResult<usize> {
        self.pool
            .with_page(page, |buf| SlottedView::attach(buf).used_bytes())
    }

    // -- counted record mutation --------------------------------------------

    /// Allocates a fresh, slot-formatted data page.
    pub fn allocate_page(&mut self) -> StorageResult<PageId> {
        let page = self.pool.allocate()?;
        self.pool.with_page_mut(page, |buf| {
            self.format(buf);
        })?;
        Ok(page)
    }

    /// Formats `buf` as an empty data page of this file's codec.
    fn format<'b>(&self, buf: &'b mut [u8]) -> SlottedPage<'b> {
        SlottedPage::init_with_format(buf, self.codec == RecordCodec::Compact)
    }

    /// Frees an (empty) data page.
    pub fn free_page(&mut self, page: PageId) -> StorageResult<()> {
        self.pool.free(page)
    }

    /// Tries to store `node` on `page`; updates the index on success.
    /// Returns false when the page lacks space.
    pub fn insert_into(&mut self, page: PageId, node: &NodeData) -> StorageResult<bool> {
        let rec = self.codec.encode(node);
        if rec.len() > self.max_record_len() {
            return Err(StorageError::RecordTooLarge {
                record: rec.len(),
                max: self.max_record_len(),
            });
        }
        let ok = self.pool.with_page_mut(page, |buf| {
            let mut sp = SlottedPage::attach(buf);
            match sp.insert(&rec) {
                Ok(_) => Ok(true),
                Err(StorageError::PageFull { .. }) => Ok(false),
                Err(e) => Err(e),
            }
        })??;
        if ok {
            self.index_insert(node.id, page)?;
        }
        Ok(ok)
    }

    /// Removes `id`'s record from `page`, returning it and dropping the
    /// index entry.
    pub fn remove_from(&mut self, page: PageId, id: NodeId) -> StorageResult<Option<NodeData>> {
        let removed = self.pool.with_page_mut(page, |buf| {
            let mut sp = SlottedPage::attach(buf);
            let found = sp
                .iter()
                .find(|(_, rec)| peek_id(rec) == id)
                .map(|(slot, rec)| (slot, self.codec.decode(rec)));
            if let Some((slot, _)) = found {
                sp.delete(slot)?;
            }
            Ok::<_, StorageError>(found.map(|(_, rec)| rec))
        })??;
        if removed.is_some() {
            self.index_remove(id)?;
        }
        Ok(removed)
    }

    /// Rewrites `node`'s record in place on `page`. Returns false when
    /// the grown record no longer fits (the caller must relocate it —
    /// the record is left *unchanged* in that case).
    pub fn update_in(&mut self, page: PageId, node: &NodeData) -> StorageResult<bool> {
        let rec = self.codec.encode(node);
        self.pool.with_page_mut(page, |buf| {
            let mut sp = SlottedPage::attach(buf);
            let Some((slot, _)) = sp.iter().find(|(_, r)| peek_id(r) == node.id) else {
                return Err(StorageError::InvalidSlot(u16::MAX));
            };
            match sp.update(slot, &rec) {
                Ok(()) => Ok(true),
                Err(StorageError::PageFull { .. }) => Ok(false),
                Err(e) => Err(e),
            }
        })?
    }

    /// Stores `node` on `page` if it fits, otherwise on a freshly
    /// allocated page; returns the page used.
    pub fn insert_or_spill(&mut self, page: PageId, node: &NodeData) -> StorageResult<PageId> {
        if self.insert_into(page, node)? {
            return Ok(page);
        }
        let fresh = self.allocate_page()?;
        let ok = self.insert_into(fresh, node)?;
        debug_assert!(ok, "fresh page must fit any valid record");
        Ok(fresh)
    }

    /// Bulk-loads `groups` of records, one group per fresh page, in group
    /// order (used by every `Create()` implementation): a repack with no
    /// source pages. A group that exceeds the page capacity is an error —
    /// the clustering layer guarantees fit.
    pub fn bulk_load<'a>(
        &mut self,
        groups: impl IntoIterator<Item = Vec<&'a NodeData>>,
    ) -> StorageResult<Vec<PageId>> {
        self.repack(&[], groups)
    }

    /// Rewrites a set of data pages wholesale — the write half of every
    /// reorganization (reclustering, overflow split, underflow merge).
    ///
    /// Each page of `sources` is formatted empty, once, in order. Then
    /// each group is written onto the page popped from the *back* of
    /// `sources`, or onto a freshly allocated page once they run out,
    /// and the sources left over are freed in order. Returns the pages
    /// written, one per group.
    ///
    /// The index is rewritten only for ids whose page changed: a record
    /// that lands on the source page it was read from keeps its entry
    /// (and the index pages holding it stay shared with earlier forks).
    /// An id that was on a source page and is in no group loses its
    /// entry. Like every mutation here this goes through the pool, so it
    /// stays buffered in the caller's transaction; nothing flushes.
    pub(crate) fn repack<'a>(
        &mut self,
        sources: &[PageId],
        groups: impl IntoIterator<Item = Vec<&'a NodeData>>,
    ) -> StorageResult<Vec<PageId>> {
        let mut was_on: HashMap<NodeId, PageId> = HashMap::new();
        for &page in sources {
            self.pool.with_page_mut(page, |buf| {
                let ids = SlottedView::attach(buf).iter().map(|(_, rec)| peek_id(rec));
                was_on.extend(ids.map(|id| (id, page)));
                self.format(buf);
            })?;
        }
        let mut spare = sources.to_vec();
        let mut written = Vec::new();
        let mut rec = Vec::new();
        for group in groups {
            let page = match spare.pop() {
                Some(page) => page,
                None => self.allocate_page()?,
            };
            self.pool.with_page_mut(page, |buf| {
                let mut sp = SlottedPage::attach(buf);
                for node in &group {
                    rec.clear();
                    self.codec.encode_into(node, &mut rec);
                    sp.insert(&rec)?;
                }
                Ok::<_, StorageError>(())
            })??;
            for node in &group {
                if was_on.remove(&node.id) != Some(page) {
                    self.index_insert(node.id, page)?;
                }
            }
            written.push(page);
        }
        for page in spare {
            self.free_page(page)?;
        }
        let mut dropped: Vec<NodeId> = was_on.into_keys().collect();
        dropped.sort_unstable();
        for id in dropped {
            self.index_remove(id)?;
        }
        Ok(written)
    }

    // -- uncounted diagnostics ------------------------------------------------

    /// `node → page` map for the whole file, straight from the index
    /// (uncounted; used by CRR measurement and experiments).
    pub fn page_map(&self) -> StorageResult<HashMap<NodeId, PageId>> {
        Ok(self
            .index
            .entries()?
            .into_iter()
            .map(|(k, v)| (NodeId(k), PageId(v as u32)))
            .collect())
    }

    /// Exact post-compaction free bytes per live page, bypassing the
    /// buffer pool's counters (uncounted — models the in-memory
    /// free-space map a real system maintains). Quarantined pages are
    /// excluded: no new record may land on an unreadable page.
    ///
    /// Reads through [`BufferPool::read_uncounted`], which serves
    /// resident (possibly dirty) frames from memory, so the scan never
    /// flushes. Flushing here would be a hidden *commit point* on a
    /// WAL-backed store in the middle of a logical operation — exactly
    /// the torn state crash recovery must never observe.
    pub fn free_space_map_uncounted(&self) -> StorageResult<Vec<(PageId, usize)>> {
        let mut out = Vec::new();
        let mut buf = vec![0u8; self.page_size];
        for page in self.pool.with_store(|s| s.live_pages()) {
            if self.is_quarantined(page) {
                continue;
            }
            self.pool.read_uncounted(page, &mut buf)?;
            out.push((page, SlottedView::attach(&buf).free_space()));
        }
        Ok(out)
    }

    /// Decodes every record in the file, grouped by page, bypassing the
    /// buffer pool's counters (uncounted; diagnostics only — dirty
    /// resident frames are served from memory without flushing, see
    /// [`Self::free_space_map_uncounted`]). Strict: any read error,
    /// including a checksum mismatch on a quarantined page, propagates.
    /// Each page is decoded in the codec its own header records, so a
    /// page that disagrees with the file (which `check` reports) still
    /// decodes.
    pub fn scan_uncounted(&self) -> StorageResult<Vec<(PageId, Vec<NodeData>)>> {
        let scan = self.scan_with_codecs_uncounted()?;
        Ok(scan
            .into_iter()
            .map(|(page, _, records)| (page, records))
            .collect())
    }

    /// [`Self::scan_uncounted`], each page with the codec its header
    /// records.
    pub(crate) fn scan_with_codecs_uncounted(
        &self,
    ) -> StorageResult<Vec<(PageId, RecordCodec, Vec<NodeData>)>> {
        let mut out = Vec::new();
        let mut buf = vec![0u8; self.page_size];
        for page in self.pool.with_store(|s| s.live_pages()) {
            self.pool.read_uncounted(page, &mut buf)?;
            let codec = page_codec(SlottedView::attach(&buf));
            out.push((page, codec, records_on(codec, &buf)));
        }
        Ok(out)
    }

    /// The paper's blocking factor γ: average records per data page.
    pub fn blocking_factor(&self) -> f64 {
        let pages = self.num_pages();
        if pages == 0 {
            0.0
        } else {
            self.len() as f64 / pages as f64
        }
    }

    /// Page byte budget the clustering layer must respect so that any
    /// group it produces is guaranteed to fit one slotted page (header
    /// subtracted; per-record slot overhead is included in
    /// [`Self::clustering_weight`]).
    pub fn clustering_budget(&self) -> usize {
        self.page_size - ccam_storage::slotted::HEADER_LEN
    }
}

/// The record codec a data page's header records.
fn page_codec(view: SlottedView<'_>) -> RecordCodec {
    if view.format_bit() {
        RecordCodec::Compact
    } else {
        RecordCodec::Paper
    }
}

/// The bytes of `id`'s record on the slotted page `buf` (the in-page
/// scan is free in the paper's metric).
fn record_bytes(buf: &[u8], id: NodeId) -> Option<&[u8]> {
    SlottedView::attach(buf)
        .iter()
        .find(|(_, rec)| peek_id(rec) == id)
        .map(|(_, rec)| rec)
}

/// Every live record on the slotted page `buf`, in slot order.
fn records_on(codec: RecordCodec, buf: &[u8]) -> Vec<NodeData> {
    SlottedView::attach(buf)
        .iter()
        .map(|(_, rec)| codec.decode(rec))
        .collect()
}

/// Byte size of `node`'s record in the paper's codec.
///
/// Kept for the benchmark harness, which sizes records from outside a
/// file; code that has a file asks it ([`NetworkFile::record_len`]).
pub fn record_len(node: &NodeData) -> usize {
    RecordCodec::Paper.encoded_len(node)
}

/// Clustering weight of `node` in a paper-codec file; see
/// [`record_len`] and [`NetworkFile::clustering_weight`].
pub fn clustering_weight(node: &NodeData) -> usize {
    record_len(node) + ccam_storage::slotted::SLOT_LEN
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccam_graph::EdgeTo;

    fn node(id: u64, degree: usize) -> NodeData {
        NodeData {
            id: NodeId(id),
            x: id as u32,
            y: id as u32,
            payload: vec![0xaa; 8],
            successors: (0..degree)
                .map(|i| EdgeTo {
                    to: NodeId(1000 + i as u64),
                    cost: 1,
                })
                .collect(),
            predecessors: vec![],
        }
    }

    #[test]
    fn insert_find_roundtrip() {
        let mut f = NetworkFile::new(512).unwrap();
        let p = f.allocate_page().unwrap();
        let n = node(7, 3);
        assert!(f.insert_into(p, &n).unwrap());
        let (page, rec) = f.find(NodeId(7)).unwrap().unwrap();
        assert_eq!(page, p);
        assert_eq!(rec, n);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn find_missing_is_none() {
        let f = NetworkFile::new(512).unwrap();
        assert!(f.find(NodeId(1)).unwrap().is_none());
    }

    #[test]
    fn remove_clears_index() {
        let mut f = NetworkFile::new(512).unwrap();
        let p = f.allocate_page().unwrap();
        f.insert_into(p, &node(7, 0)).unwrap();
        let removed = f.remove_from(p, NodeId(7)).unwrap().unwrap();
        assert_eq!(removed.id, NodeId(7));
        assert!(f.find(NodeId(7)).unwrap().is_none());
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn update_in_place_and_relocation_signal() {
        let mut f = NetworkFile::new(256).unwrap();
        let p = f.allocate_page().unwrap();
        let mut n = node(7, 1);
        f.insert_into(p, &n).unwrap();
        // Fill the rest of the page so growth must fail.
        let filler = NodeData {
            payload: vec![1; f.page_free_space(p).unwrap() - 40],
            ..node(8, 0)
        };
        assert!(f.insert_into(p, &filler).unwrap());
        n.successors.push(EdgeTo {
            to: NodeId(99),
            cost: 9,
        });
        n.successors.push(EdgeTo {
            to: NodeId(100),
            cost: 9,
        });
        assert!(!f.update_in(p, &n).unwrap(), "grow must signal relocation");
        // Old record still intact.
        let (_, rec) = f.find(NodeId(7)).unwrap().unwrap();
        assert_eq!(rec.successors.len(), 1);
    }

    #[test]
    fn insert_or_spill_allocates() {
        let mut f = NetworkFile::new(128).unwrap();
        let p = f.allocate_page().unwrap();
        let big = NodeData {
            payload: vec![0; 60],
            ..node(1, 0)
        };
        let p1 = f.insert_or_spill(p, &big).unwrap();
        assert_eq!(p1, p);
        let big2 = NodeData {
            id: NodeId(2),
            ..big.clone()
        };
        let p2 = f.insert_or_spill(p, &big2).unwrap();
        assert_ne!(p2, p);
        assert_eq!(f.num_pages(), 2);
    }

    #[test]
    fn bulk_load_groups_pages() {
        let mut f = NetworkFile::new(512).unwrap();
        let nodes: Vec<NodeData> = (0..10).map(|i| node(i, 2)).collect();
        let groups: Vec<Vec<&NodeData>> =
            vec![nodes[0..5].iter().collect(), nodes[5..10].iter().collect()];
        let pages = f.bulk_load(groups).unwrap();
        assert_eq!(pages.len(), 2);
        for i in 0..5u64 {
            assert_eq!(f.page_of(NodeId(i)).unwrap(), Some(pages[0]));
        }
        for i in 5..10u64 {
            assert_eq!(f.page_of(NodeId(i)).unwrap(), Some(pages[1]));
        }
        assert!((f.blocking_factor() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn buffer_hits_are_free() {
        let mut f = NetworkFile::new(512).unwrap();
        let p = f.allocate_page().unwrap();
        f.insert_into(p, &node(1, 0)).unwrap();
        f.pool().clear().unwrap();
        let before = f.stats().snapshot();
        f.find(NodeId(1)).unwrap();
        f.find(NodeId(1)).unwrap();
        let d = f.stats().snapshot().since(&before);
        assert_eq!(d.physical_reads, 1, "second find must be a buffer hit");
    }

    /// The MRU frame answers without the index; anything else is
    /// `Find()` on exactly the page the index names.
    #[test]
    fn buffered_first_probes_the_mru_frame_then_finds() {
        let mut f = NetworkFile::new(512).unwrap();
        let p = f.allocate_page().unwrap();
        f.insert_into(p, &node(1, 0)).unwrap();
        f.insert_into(p, &node(2, 0)).unwrap();
        let q = f.allocate_page().unwrap();
        f.insert_into(q, &node(3, 0)).unwrap();
        f.pool().clear().unwrap();
        // Empty pool: nothing to probe, one physical read.
        let before = f.stats().snapshot();
        assert_eq!(f.find_buffered_first(NodeId(1)).unwrap().unwrap().0, p);
        let d = f.stats().snapshot().since(&before);
        assert_eq!((d.physical_reads, d.buffer_hits), (1, 0));
        // On the MRU page: one hit, no index access, no read.
        let (before, index_before) = (f.stats().snapshot(), f.index_stats().snapshot());
        assert_eq!(f.find_buffered_first(NodeId(2)).unwrap().unwrap().0, p);
        let d = f.stats().snapshot().since(&before);
        assert_eq!((d.physical_reads, d.buffer_hits), (0, 1));
        let index = f.index_stats().snapshot().since(&index_before);
        assert_eq!(index.buffer_hits + index.physical_reads, 0);
        // Elsewhere: the probe's hit, then Find's read of that one page.
        let before = f.stats().snapshot();
        assert_eq!(f.find_buffered_first(NodeId(3)).unwrap().unwrap().0, q);
        let d = f.stats().snapshot().since(&before);
        assert_eq!((d.physical_reads, d.buffer_hits), (1, 1));
        // Resident but not MRU: the probe's hit plus Find's hit.
        let before = f.stats().snapshot();
        assert_eq!(f.find_buffered_first(NodeId(1)).unwrap().unwrap().0, p);
        let d = f.stats().snapshot().since(&before);
        assert_eq!((d.physical_reads, d.buffer_hits), (0, 2));
        assert!(f.find_buffered_first(NodeId(99)).unwrap().is_none());
    }

    #[test]
    fn scan_uncounted_leaves_stats_alone() {
        let mut f = NetworkFile::new(512).unwrap();
        let p = f.allocate_page().unwrap();
        f.insert_into(p, &node(1, 1)).unwrap();
        let before = f.stats().snapshot();
        let scan = f.scan_uncounted().unwrap();
        assert_eq!(scan.len(), 1);
        assert_eq!(scan[0].1.len(), 1);
        let d = f.stats().snapshot().since(&before);
        assert_eq!(d.physical_reads, 0);
    }

    #[test]
    fn degraded_find_skips_quarantined_pages() {
        let mut f = NetworkFile::new(512).unwrap();
        let p = f.allocate_page().unwrap();
        f.insert_into(p, &node(1, 0)).unwrap();
        let q = f.allocate_page().unwrap();
        f.insert_into(q, &node(2, 0)).unwrap();
        f.quarantine(q);
        // Healthy page: exact answer.
        let d = f.find_degraded(NodeId(1)).unwrap();
        assert!(d.value.is_some());
        assert!(d.is_complete());
        // Quarantined page: skipped, not an error.
        let d = f.find_degraded(NodeId(2)).unwrap();
        assert!(d.value.is_none());
        assert_eq!(d.skipped, vec![q]);
        // A genuine miss on a degraded file reports the quarantine too:
        // the record might live on the unreadable page.
        let d = f.find_degraded(NodeId(99)).unwrap();
        assert!(d.value.is_none());
        assert_eq!(d.skipped, vec![q]);
        // After clearing, everything is exact again.
        f.clear_quarantined();
        assert!(f.find_degraded(NodeId(2)).unwrap().value.is_some());
    }

    #[test]
    fn abort_rolls_back_to_last_commit() {
        let wal = std::env::temp_dir().join(format!(
            "ccam-file-abort-{}-{:?}.wal",
            std::process::id(),
            std::thread::current().id()
        ));
        let store =
            ccam_storage::WalStore::create(ccam_storage::MemPageStore::new(512).unwrap(), &wal)
                .unwrap();
        let mut f = NetworkFile::create(store, RecordCodec::Paper).unwrap();
        let p = f.allocate_page().unwrap();
        f.insert_into(p, &node(1, 0)).unwrap();
        f.commit().unwrap();

        // Uncommitted: a grown record, a second record, a fresh page.
        let q = f.allocate_page().unwrap();
        f.insert_into(q, &node(2, 3)).unwrap();
        f.remove_from(p, NodeId(1)).unwrap();
        assert!(f.abort().unwrap(), "WAL store must support rollback");

        // Back on the committed state: node 1 present, node 2 and the
        // fresh page gone, index consistent with the pages.
        assert!(f.find(NodeId(1)).unwrap().is_some());
        assert!(f.find(NodeId(2)).unwrap().is_none());
        assert_eq!(f.len(), 1);
        assert_eq!(f.num_pages(), 1);
        assert_eq!(f.txn_aborts(), 1);
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn abort_without_wal_reports_false() {
        let mut f = NetworkFile::new(512).unwrap();
        let p = f.allocate_page().unwrap();
        f.insert_into(p, &node(1, 0)).unwrap();
        assert!(!f.abort().unwrap(), "plain store cannot roll back");
        // Nothing was discarded.
        assert!(f.find(NodeId(1)).unwrap().is_some());
        assert_eq!(f.txn_aborts(), 0);
    }

    #[test]
    fn maybe_commit_counts_transactions() {
        let wal = std::env::temp_dir().join(format!(
            "ccam-file-txn-{}-{:?}.wal",
            std::process::id(),
            std::thread::current().id()
        ));
        let store =
            ccam_storage::WalStore::create(ccam_storage::MemPageStore::new(512).unwrap(), &wal)
                .unwrap();
        let mut f = NetworkFile::create(store, RecordCodec::Paper).unwrap();
        let p = f.allocate_page().unwrap();
        f.insert_into(p, &node(1, 0)).unwrap();
        f.maybe_commit().unwrap();
        assert_eq!(f.txn_commits(), 0, "auto-commit off: no transaction");
        f.set_auto_commit(true);
        f.insert_into(p, &node(2, 0)).unwrap();
        f.maybe_commit().unwrap();
        assert_eq!(f.txn_commits(), 1);
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn uncounted_scans_do_not_commit() {
        let wal = std::env::temp_dir().join(format!(
            "ccam-file-scan-{}-{:?}.wal",
            std::process::id(),
            std::thread::current().id()
        ));
        let store =
            ccam_storage::WalStore::create(ccam_storage::MemPageStore::new(512).unwrap(), &wal)
                .unwrap();
        let mut f = NetworkFile::create(store, RecordCodec::Paper).unwrap();
        let p = f.allocate_page().unwrap();
        f.insert_into(p, &node(1, 0)).unwrap();

        // The scans see the dirty (uncommitted) truth...
        let scan = f.scan_uncounted().unwrap();
        assert_eq!(scan[0].1.len(), 1);
        let fsm = f.free_space_map_uncounted().unwrap();
        assert_eq!(fsm.len(), 1);

        // ...without forcing a commit: abort still rolls everything back.
        assert!(f.abort().unwrap());
        assert_eq!(f.len(), 0);
        assert_eq!(f.num_pages(), 0);
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn quarantined_pages_never_receive_new_records() {
        let mut f = NetworkFile::new(512).unwrap();
        let p = f.allocate_page().unwrap();
        f.insert_into(p, &node(1, 0)).unwrap();
        f.quarantine(p);
        let map = f.free_space_map_uncounted().unwrap();
        assert!(
            map.iter().all(|(page, _)| *page != p),
            "quarantined page must not appear in the free-space map"
        );
        assert!(f.quarantined_pages().contains(&p));
    }
}
