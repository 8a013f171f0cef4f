//! Page stores: flat arrays of fixed-size pages with a freelist.
//!
//! Two implementations are provided:
//!
//! * [`MemPageStore`] — pages live in a `Vec`; used by every experiment
//!   (the paper measures page-access *counts*, so a RAM-resident store with
//!   counted accesses reproduces its metric exactly while keeping the
//!   benchmark sweeps fast; its copy-on-write clone also backs the
//!   in-memory index and the log's snapshot mirror),
//! * [`FilePageStore`] — pages live in a real file with positioned reads
//!   and writes; demonstrates that the formats are genuinely persistent and
//!   is exercised by tests and the quickstart example.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

use crate::durable::{ReplFeed, ReplImageState, WalRetention};
use crate::error::{StorageError, StorageResult};
use crate::page::{validate_page_size, PageId};
use crate::snapshot::SnapshotStore;

/// Write-ahead-log counters, reported by [`WalControl::info`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalInfo {
    /// Live log bytes right now (header + surviving records).
    pub live_bytes: u64,
    /// Commit batches appended over the handle's lifetime.
    pub commits: u64,
    /// Checkpoints taken over the handle's lifetime.
    pub checkpoints: u64,
    /// Record bytes appended over the handle's lifetime.
    pub bytes_appended: u64,
    /// `fdatasync`s of the log file over the handle's lifetime.
    pub syncs: u64,
    /// The LSN floor truncation is gated on: smallest applied LSN among
    /// replication subscribers, or `next_lsn - 1` when none holds the
    /// tail.
    pub retained_lsn: u64,
    /// Next LSN to be stamped.
    pub next_lsn: u64,
    /// First LSN the retained log tail can still serve.
    pub tail_start_lsn: u64,
}

/// Abstraction over a flat collection of fixed-size pages.
///
/// Pages are addressed by dense [`PageId`]s. `free` recycles ids through a
/// freelist; the store never shrinks.
///
/// The trait is ten page-I/O methods plus one accessor, [`PageStore::wal`],
/// and none of them has a default body: a wrapper forwards `wal` or it
/// does not compile, so stacking a store over a write-ahead log can
/// never silently switch off rollback, snapshots or replication.
///
/// `Send` is a supertrait so that an access method generic over any
/// `PageStore` (including `Box<dyn PageStore>`) can be handed to worker
/// threads — the serving layer shares one database behind an
/// `EpochCell`. Stores are moved between threads, never aliased: shared
/// access always goes through the buffer pool's locks.
pub trait PageStore: Send {
    /// Size in bytes of every page of this store.
    fn page_size(&self) -> usize;

    /// Number of page slots ever allocated (including freed ones).
    fn num_pages(&self) -> u32;

    /// Allocates a zeroed page and returns its id.
    fn allocate(&mut self) -> StorageResult<PageId>;

    /// Reads page `id` into `buf` (`buf.len() == page_size`).
    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()>;

    /// Writes `buf` to page `id`.
    fn write(&mut self, id: PageId, buf: &[u8]) -> StorageResult<()>;

    /// Returns page `id` to the freelist.
    fn free(&mut self, id: PageId) -> StorageResult<()>;

    /// True when `id` refers to a live (allocated, not freed) page.
    fn is_live(&self, id: PageId) -> bool;

    /// Flushes buffered writes to durable storage (no-op for memory).
    fn sync(&mut self) -> StorageResult<()>;

    /// Ids of all live pages, ascending. Used by full-file scans
    /// (e.g. measuring CRR over an access method's placement).
    fn live_pages(&self) -> Vec<PageId>;

    /// Forces page `id` live, zero-filled, regardless of the freelist's
    /// current order — already-live pages are left untouched.
    ///
    /// [`PageStore::allocate`] hands out ids in whatever order the
    /// freelist dictates, which after a crash is not necessarily the
    /// order the write-ahead log recorded; redo replay
    /// ([`crate::recovery`]) therefore needs to materialize *specific*
    /// page ids. Slots between the current end of the store and `id` are
    /// created free.
    fn ensure_allocated(&mut self, id: PageId) -> StorageResult<()>;

    /// The write-ahead log under this store, when there is one: the
    /// `WalStore` in the stack answers with itself, plain stores
    /// ([`MemPageStore`], [`FilePageStore`], `SnapshotStore`) answer
    /// `None`, and every wrapper forwards to the store it wraps. This is
    /// how callers holding a `Box<dyn PageStore>` (the CLI) or a pool
    /// over any stack drive commit/abort, checkpointing, snapshots and
    /// replication without knowing what sits underneath.
    ///
    /// `&mut` only: every caller reaches the log through
    /// `BufferPool::with_wal`, which takes the same lock a read-only
    /// accessor would.
    fn wal(&mut self) -> Option<&mut dyn WalControl>;
}

/// What a write-ahead log adds to a page store, reached through
/// [`PageStore::wal`]. Implemented once, by `WalStore`.
pub trait WalControl {
    /// Discards every mutation since the last `sync` (the uncommitted
    /// batch); fails when that batch already reached the log.
    fn rollback(&mut self) -> StorageResult<()>;

    /// Forces a checkpoint: the data file is synced, then the log is
    /// truncated.
    fn checkpoint(&mut self) -> StorageResult<()>;

    /// Caps the live log at roughly `limit` bytes: the store checkpoints
    /// automatically once the log grows past it (`None` restores the
    /// default cap, `Some(0)` checkpoints at every commit).
    fn set_max_wal_bytes(&mut self, limit: Option<u64>);

    /// The log's counters.
    fn info(&self) -> WalInfo;

    /// Pins the committed generation: a read-only fork of the log's
    /// mirror of its committed pages, which reads that generation
    /// whatever is committed afterwards. The first call seeds the mirror
    /// with one scan and must come at a commit boundary.
    fn snapshot(&mut self) -> StorageResult<SnapshotStore>;

    /// The registry of log-tail subscribers gating checkpoint
    /// truncation (see [`WalRetention`]).
    fn wal_retention(&self) -> Arc<WalRetention>;

    /// Committed log records stamped past `after`, for shipping to a
    /// replication subscriber.
    fn repl_feed(&mut self, after: u64) -> StorageResult<ReplFeed>;

    /// Full committed-state snapshot for re-seeding a subscriber that
    /// fell behind the retained log tail.
    fn repl_image(&mut self) -> StorageResult<ReplImageState>;
}

/// Boxed stores delegate, so `Box<dyn PageStore>` is itself a
/// [`PageStore`] (the CLI opens its whole stack, retry wrapper and log,
/// behind one type).
impl<P: PageStore + ?Sized> PageStore for Box<P> {
    fn page_size(&self) -> usize {
        (**self).page_size()
    }

    fn num_pages(&self) -> u32 {
        (**self).num_pages()
    }

    fn allocate(&mut self) -> StorageResult<PageId> {
        (**self).allocate()
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        (**self).read(id, buf)
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> StorageResult<()> {
        (**self).write(id, buf)
    }

    fn free(&mut self, id: PageId) -> StorageResult<()> {
        (**self).free(id)
    }

    fn is_live(&self, id: PageId) -> bool {
        (**self).is_live(id)
    }

    fn sync(&mut self) -> StorageResult<()> {
        (**self).sync()
    }

    fn live_pages(&self) -> Vec<PageId> {
        (**self).live_pages()
    }

    fn ensure_allocated(&mut self, id: PageId) -> StorageResult<()> {
        (**self).ensure_allocated(id)
    }

    fn wal(&mut self) -> Option<&mut dyn WalControl> {
        (**self).wal()
    }
}

// ---------------------------------------------------------------------------
// In-memory store
// ---------------------------------------------------------------------------

/// Slots per chunk of a [`MemPageStore`]'s page table.
const CHUNK: usize = 64;

/// One entry of the page table: the page's image, `None` when freed.
type Slot = Option<Arc<[u8]>>;

/// RAM-backed [`PageStore`].
///
/// [`Clone`] is a copy-on-write fork. The page table is kept in chunks
/// of `CHUNK` slots and both the chunks and the page images sit behind
/// `Arc`, so a clone copies one reference per *chunk* — no image, and a
/// sixty-fourth of the table — and shares everything with the original.
/// Whichever side then writes a page first copies that page's chunk of
/// references and gives itself a fresh image; the other side keeps the
/// old one, which is freed when its last holder drops it. A store that
/// was never cloned overwrites its pages in place.
#[derive(Clone)]
pub struct MemPageStore {
    page_size: usize,
    chunks: Vec<Arc<Vec<Slot>>>,
    free: Vec<u32>,
}

impl MemPageStore {
    /// Creates an empty store of `page_size`-byte pages.
    pub fn new(page_size: usize) -> StorageResult<Self> {
        validate_page_size(page_size)?;
        Ok(MemPageStore {
            page_size,
            chunks: Vec::new(),
            free: Vec::new(),
        })
    }

    /// A store whose page table is `slots`, in page-id order: one pass,
    /// the empty slots becoming the freelist.
    pub(crate) fn from_slots(page_size: usize, slots: Vec<Slot>) -> StorageResult<Self> {
        let mut store = MemPageStore::new(page_size)?;
        for (id, slot) in slots.into_iter().enumerate() {
            if slot.is_none() {
                store.free.push(id as u32);
            }
            store.push(slot);
        }
        Ok(store)
    }

    /// The image of page `id`, `None` when it is not live.
    #[cfg(test)]
    pub(crate) fn image(&self, id: PageId) -> Option<&Arc<[u8]>> {
        self.slot(id)?.as_ref()
    }

    fn zeroed(&self) -> Slot {
        Some(Arc::from(vec![0u8; self.page_size]))
    }

    fn slot(&self, id: PageId) -> Option<&Slot> {
        let i = id.0 as usize;
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// The slot of `id` for writing; un-shares its chunk first.
    fn slot_mut(&mut self, id: PageId) -> Option<&mut Slot> {
        let i = id.0 as usize;
        Arc::make_mut(self.chunks.get_mut(i / CHUNK)?).get_mut(i % CHUNK)
    }

    /// Every slot of the page table, in page-id order.
    fn slots(&self) -> impl Iterator<Item = &Slot> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// Appends a slot to the page table.
    fn push(&mut self, slot: Slot) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => Arc::make_mut(chunk).push(slot),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(slot);
                self.chunks.push(Arc::new(chunk));
            }
        }
    }

    /// Number of live pages whose image this store shares (same
    /// allocation, not merely equal bytes) with the same page of
    /// `other` — what a fork has not had to copy. Diagnostics and tests.
    pub fn pages_shared_with(&self, other: &MemPageStore) -> usize {
        self.slots()
            .zip(other.slots())
            .filter(|pair| matches!(pair, (Some(a), Some(b)) if Arc::ptr_eq(a, b)))
            .count()
    }
}

impl PageStore for MemPageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        let full = self.chunks.len().saturating_sub(1) * CHUNK;
        (full + self.chunks.last().map_or(0, |c| c.len())) as u32
    }

    fn allocate(&mut self) -> StorageResult<PageId> {
        let zeroed = self.zeroed();
        if let Some(idx) = self.free.pop() {
            *self.slot_mut(PageId(idx)).expect("freelist names a slot") = zeroed;
            return Ok(PageId(idx));
        }
        let idx = self.num_pages();
        self.push(zeroed);
        Ok(PageId(idx))
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        let page = self
            .slot(id)
            .and_then(|p| p.as_ref())
            .ok_or(StorageError::InvalidPage(id))?;
        buf.copy_from_slice(page);
        Ok(())
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> StorageResult<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        let page = self
            .slot_mut(id)
            .and_then(|p| p.as_mut())
            .ok_or(StorageError::InvalidPage(id))?;
        match Arc::get_mut(page) {
            Some(bytes) => bytes.copy_from_slice(buf),
            // Shared with a fork: leave it its image, take a fresh one.
            None => *page = Arc::from(buf),
        }
        Ok(())
    }

    fn free(&mut self, id: PageId) -> StorageResult<()> {
        match self.slot_mut(id) {
            Some(slot @ Some(_)) => *slot = None,
            _ => return Err(StorageError::InvalidPage(id)),
        }
        self.free.push(id.0);
        Ok(())
    }

    fn is_live(&self, id: PageId) -> bool {
        self.slot(id).is_some_and(Option::is_some)
    }

    fn sync(&mut self) -> StorageResult<()> {
        Ok(())
    }

    fn live_pages(&self) -> Vec<PageId> {
        (0..self.num_pages())
            .map(PageId)
            .filter(|&id| self.is_live(id))
            .collect()
    }

    fn ensure_allocated(&mut self, id: PageId) -> StorageResult<()> {
        if self.is_live(id) {
            return Ok(());
        }
        while self.num_pages() <= id.0 {
            let n = self.num_pages();
            if n != id.0 {
                self.free.push(n);
            }
            self.push(None);
        }
        self.free.retain(|&f| f != id.0);
        *self.slot_mut(id).expect("table reaches id") = self.zeroed();
        Ok(())
    }

    fn wal(&mut self) -> Option<&mut dyn WalControl> {
        None
    }
}

// ---------------------------------------------------------------------------
// File-backed store
// ---------------------------------------------------------------------------

/// Magic of the retired checksum-free format, recognised only to name it
/// when refusing such a file.
const FILE_MAGIC_V1: &[u8; 8] = b"CCAMPGF1";
const FILE_MAGIC_V2: &[u8; 8] = b"CCAMPGF2";

/// Bytes appended to each data page: the IEEE CRC32 of
/// `page contents || page id (LE)` and its bitwise complement.
const TRAILER_LEN: u64 = 8;

/// File-backed [`PageStore`].
///
/// The file (format v2, magic `CCAMPGF2`) starts with a `page_size`-byte
/// header region holding the metadata block (`magic | page_size: u32 |
/// num_pages: u32 | free_head: u32`); freed pages are chained through
/// their first four bytes. Each data slot is `page_size + 8` bytes at
/// offset `page_size + id * (page_size + 8)`. The 8-byte trailer stores
/// `crc32(data || id_le)` (little-endian) followed by its bitwise
/// complement. Every [`PageStore::read`] fetches the whole slot in one
/// positioned read, recomputes the checksum and surfaces
/// [`StorageError::ChecksumMismatch`] on disagreement; including the
/// page id in the checksummed bytes also catches misdirected writes.
/// Files of the retired checksum-free v1 format (`CCAMPGF1`) are refused
/// on open.
pub struct FilePageStore {
    file: File,
    page_size: usize,
    num_pages: u32,
    free_head: u32, // u32::MAX = empty
    live: Vec<bool>,
}

impl FilePageStore {
    /// Creates a new page file at `path` (truncating any existing file).
    pub fn create(path: &Path, page_size: usize) -> StorageResult<Self> {
        validate_page_size(page_size)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut store = FilePageStore {
            file,
            page_size,
            num_pages: 0,
            free_head: u32::MAX,
            live: Vec::new(),
        };
        store.write_meta()?;
        Ok(store)
    }

    /// Opens an existing page file, verifying magic and geometry.
    ///
    /// The live-page bitmap is reconstructed by walking the freelist.
    pub fn open(path: &Path) -> StorageResult<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut meta = [0u8; 20];
        file.read_exact_at(&mut meta, 0)?;
        match &meta[0..8] {
            m if m == FILE_MAGIC_V2 => {}
            m if m == FILE_MAGIC_V1 => {
                return Err(StorageError::Corrupt(
                    "retired v1 (CCAMPGF1, checksum-free) page-file format".into(),
                ))
            }
            _ => return Err(StorageError::Corrupt("bad magic".into())),
        }
        let page_size = u32::from_le_bytes(meta[8..12].try_into().unwrap()) as usize;
        validate_page_size(page_size)?;
        let num_pages = u32::from_le_bytes(meta[12..16].try_into().unwrap());
        let free_head = u32::from_le_bytes(meta[16..20].try_into().unwrap());
        let mut store = FilePageStore {
            file,
            page_size,
            num_pages,
            free_head,
            live: vec![true; num_pages as usize],
        };
        // Mark freed pages dead by walking the chain.
        let mut cur = free_head;
        let mut steps = 0u32;
        while cur != u32::MAX {
            if cur >= num_pages || steps > num_pages {
                return Err(StorageError::Corrupt("freelist cycle or range".into()));
            }
            store.live[cur as usize] = false;
            let mut link = [0u8; 4];
            store.file.read_exact_at(&mut link, store.offset(cur))?;
            cur = u32::from_le_bytes(link);
            steps += 1;
        }
        Ok(store)
    }

    fn offset(&self, id: u32) -> u64 {
        self.page_size as u64 + id as u64 * (self.page_size as u64 + TRAILER_LEN)
    }

    /// Byte offset of page `id`'s data within the file. Exposed for
    /// integrity tooling (scrub reports, fault-injection tests that
    /// damage pages on disk).
    pub fn data_offset(&self, id: PageId) -> u64 {
        self.offset(id.0)
    }

    /// Checksum stamped into a page's trailer: CRC32 over the page bytes
    /// followed by the page id, so a page written to the wrong slot fails
    /// verification too.
    fn page_checksum(&self, id: u32, data: &[u8]) -> u32 {
        crate::wal::crc32_extend(crate::wal::crc32(data), &id.to_le_bytes())
    }

    /// Writes `data` and its checksum trailer to page `id`'s slot in one
    /// positioned write.
    fn write_page_raw(&mut self, id: u32, data: &[u8]) -> StorageResult<()> {
        let crc = self.page_checksum(id, data);
        let mut framed = Vec::with_capacity(data.len() + TRAILER_LEN as usize);
        framed.extend_from_slice(data);
        framed.extend_from_slice(&crc.to_le_bytes());
        framed.extend_from_slice(&(!crc).to_le_bytes());
        self.file.write_all_at(&framed, self.offset(id))?;
        Ok(())
    }

    fn write_meta(&mut self) -> StorageResult<()> {
        let mut meta = [0u8; 20];
        meta[0..8].copy_from_slice(FILE_MAGIC_V2);
        meta[8..12].copy_from_slice(&(self.page_size as u32).to_le_bytes());
        meta[12..16].copy_from_slice(&self.num_pages.to_le_bytes());
        meta[16..20].copy_from_slice(&self.free_head.to_le_bytes());
        self.file.write_all_at(&meta, 0)?;
        Ok(())
    }

    fn check_live(&self, id: PageId) -> StorageResult<()> {
        if self.is_live(id) {
            Ok(())
        } else {
            Err(StorageError::InvalidPage(id))
        }
    }
}

impl PageStore for FilePageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        self.num_pages
    }

    fn allocate(&mut self) -> StorageResult<PageId> {
        let id = if self.free_head != u32::MAX {
            let id = self.free_head;
            let mut link = [0u8; 4];
            self.file.read_exact_at(&mut link, self.offset(id))?;
            self.free_head = u32::from_le_bytes(link);
            self.live[id as usize] = true;
            id
        } else {
            let id = self.num_pages;
            self.num_pages += 1;
            self.live.push(true);
            id
        };
        let zeroes = vec![0u8; self.page_size];
        self.write_page_raw(id, &zeroes)?;
        self.write_meta()?;
        Ok(PageId(id))
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        self.check_live(id)?;
        // One positioned read of the whole slot: page, then trailer.
        let mut slot = vec![0u8; self.page_size + TRAILER_LEN as usize];
        self.file.read_exact_at(&mut slot, self.offset(id.0))?;
        let (data, trailer) = slot.split_at(self.page_size);
        let stored = u32::from_le_bytes(trailer[0..4].try_into().expect("8-byte trailer"));
        let complement = u32::from_le_bytes(trailer[4..8].try_into().expect("8-byte trailer"));
        let computed = self.page_checksum(id.0, data);
        if stored != computed || complement != !stored {
            return Err(StorageError::ChecksumMismatch {
                page: id,
                stored,
                computed,
            });
        }
        buf.copy_from_slice(data);
        Ok(())
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> StorageResult<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        self.check_live(id)?;
        self.write_page_raw(id.0, buf)?;
        Ok(())
    }

    fn free(&mut self, id: PageId) -> StorageResult<()> {
        self.check_live(id)?;
        let link = self.free_head.to_le_bytes();
        self.file.write_all_at(&link, self.offset(id.0))?;
        self.free_head = id.0;
        self.live[id.0 as usize] = false;
        self.write_meta()?;
        Ok(())
    }

    fn is_live(&self, id: PageId) -> bool {
        self.live.get(id.0 as usize).copied().unwrap_or(false)
    }

    fn sync(&mut self) -> StorageResult<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn live_pages(&self) -> Vec<PageId> {
        (0..self.num_pages)
            .map(PageId)
            .filter(|&id| self.is_live(id))
            .collect()
    }

    fn ensure_allocated(&mut self, id: PageId) -> StorageResult<()> {
        if self.is_live(id) {
            return Ok(());
        }
        if id.0 < self.num_pages {
            // Unlink `id` from wherever it sits in the freelist chain.
            let mut prev = u32::MAX;
            let mut cur = self.free_head;
            let mut steps = 0u32;
            while cur != u32::MAX && cur != id.0 {
                if cur >= self.num_pages || steps > self.num_pages {
                    return Err(StorageError::Corrupt("freelist cycle or range".into()));
                }
                let mut link = [0u8; 4];
                self.file.read_exact_at(&mut link, self.offset(cur))?;
                prev = cur;
                cur = u32::from_le_bytes(link);
                steps += 1;
            }
            if cur != id.0 {
                // Neither live nor on the freelist: the id is bogus.
                return Err(StorageError::InvalidPage(id));
            }
            let mut link = [0u8; 4];
            self.file.read_exact_at(&mut link, self.offset(id.0))?;
            if prev == u32::MAX {
                self.free_head = u32::from_le_bytes(link);
            } else {
                self.file.write_all_at(&link, self.offset(prev))?;
            }
            self.live[id.0 as usize] = true;
        } else {
            // Extend the store up to `id`, leaving intermediate slots free.
            while self.num_pages <= id.0 {
                let nid = self.num_pages;
                self.num_pages += 1;
                self.live.push(true);
                if nid != id.0 {
                    let link = self.free_head.to_le_bytes();
                    self.file.write_all_at(&link, self.offset(nid))?;
                    self.free_head = nid;
                    self.live[nid as usize] = false;
                }
            }
        }
        let zeroes = vec![0u8; self.page_size];
        self.write_page_raw(id.0, &zeroes)?;
        self.write_meta()?;
        Ok(())
    }

    fn wal(&mut self) -> Option<&mut dyn WalControl> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::WalStore;
    use crate::retry::{RetryPolicy, RetryStore};
    use crate::testing::FaultStore;
    use crate::wal::LogRecord;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ccam-storage-test-{}-{}", std::process::id(), name));
        p
    }

    fn exercise(store: &mut dyn PageStore) {
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        assert_ne!(a, b);
        let ps = store.page_size();
        let mut buf = vec![0xabu8; ps];
        store.write(a, &buf).unwrap();
        buf.fill(0xcd);
        store.write(b, &buf).unwrap();

        let mut out = vec![0u8; ps];
        store.read(a, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0xab));
        store.read(b, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0xcd));

        assert_eq!(store.live_pages(), vec![a, b]);

        store.free(a).unwrap();
        assert!(!store.is_live(a));
        assert!(store.read(a, &mut out).is_err());
        assert!(store.write(a, &buf).is_err());
        assert!(store.free(a).is_err());

        // Freed id is recycled, and the page comes back zeroed.
        let c = store.allocate().unwrap();
        assert_eq!(c, a);
        store.read(c, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn mem_store_basic_lifecycle() {
        let mut s = MemPageStore::new(256).unwrap();
        exercise(&mut s);
    }

    #[test]
    fn mem_store_clone_forks_copy_on_write() {
        let mut a = MemPageStore::new(64).unwrap();
        let (p, q) = (a.allocate().unwrap(), a.allocate().unwrap());
        a.write(p, &[1u8; 64]).unwrap();
        a.write(q, &[2u8; 64]).unwrap();
        let b = a.clone();
        assert_eq!(a.pages_shared_with(&b), 2);

        // The first write after the fork copies that page and no other;
        // the fork keeps the image it was given.
        a.write(p, &[3u8; 64]).unwrap();
        assert_eq!(a.pages_shared_with(&b), 1);
        let mut buf = [0u8; 64];
        b.read(p, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64]);
        a.read(p, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 64]);

        // Frees and allocations on one side never reach the other.
        a.free(q).unwrap();
        assert!(b.is_live(q));
        assert_eq!(a.allocate().unwrap(), q);
        b.read(q, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 64]);
        assert_eq!(a.pages_shared_with(&b), 0);

        // Once the fork is gone the page is overwritten in place again.
        drop(b);
        let image = |s: &MemPageStore| s.slot(p).unwrap().as_ref().map(Arc::as_ptr);
        let before = image(&a);
        a.write(p, &[4u8; 64]).unwrap();
        assert_eq!(image(&a), before);
    }

    #[test]
    fn file_store_basic_lifecycle() {
        let path = temp_path("lifecycle");
        let mut s = FilePageStore::create(&path, 256).unwrap();
        exercise(&mut s);
        drop(s);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_store_persists_across_reopen() {
        let path = temp_path("reopen");
        {
            let mut s = FilePageStore::create(&path, 128).unwrap();
            let a = s.allocate().unwrap();
            let b = s.allocate().unwrap();
            let c = s.allocate().unwrap();
            s.write(a, &[1u8; 128]).unwrap();
            s.write(b, &[2u8; 128]).unwrap();
            s.write(c, &[3u8; 128]).unwrap();
            s.free(b).unwrap();
            s.sync().unwrap();
        }
        {
            let mut s = FilePageStore::open(&path).unwrap();
            assert_eq!(s.page_size(), 128);
            assert_eq!(s.num_pages(), 3);
            assert!(s.is_live(PageId(0)));
            assert!(!s.is_live(PageId(1)));
            assert!(s.is_live(PageId(2)));
            let mut buf = vec![0u8; 128];
            s.read(PageId(2), &mut buf).unwrap();
            assert!(buf.iter().all(|&x| x == 3));
            // The freed page is first in line for reallocation.
            assert_eq!(s.allocate().unwrap(), PageId(1));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_garbage() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"this is not a page file at all......").unwrap();
        assert!(matches!(
            FilePageStore::open(&path),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_page_size_rejected() {
        assert!(MemPageStore::new(100).is_err());
        let path = temp_path("badsize");
        assert!(FilePageStore::create(&path, 33).is_err());
        std::fs::remove_file(&path).ok();
    }

    fn exercise_ensure_allocated(store: &mut dyn PageStore) {
        let ps = store.page_size();
        let a = store.allocate().unwrap();
        store.write(a, &vec![9u8; ps]).unwrap();

        // Already-live page: untouched.
        store.ensure_allocated(a).unwrap();
        let mut buf = vec![0u8; ps];
        store.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 9));

        // Beyond the end: materialized zeroed, gaps left free.
        store.ensure_allocated(PageId(5)).unwrap();
        assert!(store.is_live(PageId(5)));
        assert_eq!(store.num_pages(), 6);
        assert!(!store.is_live(PageId(3)));
        store.read(PageId(5), &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));

        // A freed page mid-freelist: unlinked and re-materialized; the
        // rest of the freelist keeps working.
        store.ensure_allocated(PageId(2)).unwrap();
        store.free(PageId(2)).unwrap();
        store.ensure_allocated(PageId(3)).unwrap();
        assert!(store.is_live(PageId(3)));
        assert!(!store.is_live(PageId(2)));
        let b = store.allocate().unwrap();
        assert!(store.is_live(b));
        assert_eq!(
            store.live_pages(),
            vec![a, b, PageId(3), PageId(5)]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn mem_store_ensure_allocated() {
        let mut s = MemPageStore::new(64).unwrap();
        exercise_ensure_allocated(&mut s);
    }

    #[test]
    fn file_store_ensure_allocated_and_reopen() {
        let path = temp_path("ensure");
        {
            let mut s = FilePageStore::create(&path, 64).unwrap();
            exercise_ensure_allocated(&mut s);
            s.sync().unwrap();
        }
        {
            let s = FilePageStore::open(&path).unwrap();
            assert!(s.is_live(PageId(3)));
            assert!(s.is_live(PageId(5)));
            let mut buf = vec![0u8; 64];
            s.read(PageId(0), &mut buf).unwrap();
            assert!(buf.iter().all(|&x| x == 9));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_read_detects_single_bit_corruption_anywhere_in_page() {
        for page_size in [64usize, 1024] {
            let path = temp_path(&format!("bitflip-{page_size}"));
            let mut s = FilePageStore::create(&path, page_size).unwrap();
            s.allocate().unwrap();
            let a = s.allocate().unwrap();
            let page: Vec<u8> = (0..page_size).map(|i| (i * 37 + 11) as u8).collect();
            s.write(a, &page).unwrap();
            s.sync().unwrap();
            let base = s.data_offset(a);
            let f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            let mut slot = vec![0u8; page_size + TRAILER_LEN as usize];
            f.read_exact_at(&mut slot, base).unwrap();
            let mut buf = vec![0u8; page_size];
            // Flip (and restore) bit 0 and bit 7 of every byte of the
            // slot, data and trailer: each flip lands in another lane of
            // the checksum kernel and must surface as ChecksumMismatch.
            for (at, &byte) in slot.iter().enumerate() {
                for bit in [0x01u8, 0x80] {
                    f.write_all_at(&[byte ^ bit], base + at as u64).unwrap();
                    assert!(
                        matches!(
                            s.read(a, &mut buf),
                            Err(StorageError::ChecksumMismatch { page, .. }) if page == a
                        ),
                        "page size {page_size}: flip {bit:#04x} at byte {at} went undetected"
                    );
                    // Restore the original byte; the page verifies again.
                    f.write_all_at(&[byte], base + at as u64).unwrap();
                    s.read(a, &mut buf).unwrap();
                    assert_eq!(buf, page);
                }
            }
            drop(s);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn v2_trailer_on_disk_is_the_pinned_checksum() {
        // Stamped by the bytewise CRC before the slice-by-16 kernel; a
        // page file written then must verify unchanged.
        let path = temp_path("trailer-pin");
        let mut s = FilePageStore::create(&path, 1024).unwrap();
        let id = PageId(3);
        s.ensure_allocated(id).unwrap();
        s.write(id, &[0x5a; 1024]).unwrap();
        s.sync().unwrap();
        let raw = std::fs::read(&path).unwrap();
        let at = (s.data_offset(id) + 1024) as usize;
        let stored = u32::from_le_bytes(raw[at..at + 4].try_into().unwrap());
        let complement = u32::from_le_bytes(raw[at + 4..at + 8].try_into().unwrap());
        assert_eq!(stored, 0x638E_9EA4);
        assert_eq!(complement, !0x638E_9EA4);
        let mut buf = vec![0u8; 1024];
        FilePageStore::open(&path)
            .unwrap()
            .read(id, &mut buf)
            .unwrap();
        assert_eq!(buf, [0x5a; 1024]);
        drop(s);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_read_of_a_slot_truncated_in_its_trailer_is_an_error() {
        let path = temp_path("trailer-cut");
        let mut s = FilePageStore::create(&path, 64).unwrap();
        s.allocate().unwrap();
        let last = s.allocate().unwrap();
        s.write(last, &[7u8; 64]).unwrap();
        s.sync().unwrap();
        let trailer = s.data_offset(last) + 64;
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let mut buf = vec![0u8; 64];
        // Every cut from "no trailer" to "one byte short".
        for keep in (0..TRAILER_LEN).rev() {
            f.set_len(trailer + keep).unwrap();
            assert!(
                s.read(last, &mut buf).is_err(),
                "cut at trailer byte {keep}"
            );
            let reopened = FilePageStore::open(&path).unwrap();
            assert!(
                reopened.read(last, &mut buf).is_err(),
                "cut at trailer byte {keep}, reopened"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_files_are_refused_naming_the_retired_format() {
        let path = temp_path("v1refused");
        {
            let mut s = FilePageStore::create(&path, 128).unwrap();
            exercise(&mut s);
            s.sync().unwrap();
        }
        // Same header, the retired magic.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(b"CCAMPGF1", 0).unwrap();
        drop(f);
        let err = FilePageStore::open(&path).err().expect("a v1 file opened");
        assert!(
            matches!(&err, StorageError::Corrupt(msg) if msg.contains("v1")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_reopen_verifies_and_detects_misdirected_write() {
        let path = temp_path("misdirect");
        let mut s = FilePageStore::create(&path, 64).unwrap();
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        s.write(a, &[1u8; 64]).unwrap();
        s.write(b, &[2u8; 64]).unwrap();
        s.sync().unwrap();
        // Simulate a misdirected write: copy page a's slot (data +
        // trailer) over page b's slot. Contents carry a's checksum, which
        // binds the page id, so reading b must fail.
        let off_a = s.data_offset(a);
        let off_b = s.data_offset(b);
        let raw = std::fs::read(&path).unwrap();
        let slot = raw[off_a as usize..off_a as usize + 72].to_vec();
        use std::io::{Seek as _, SeekFrom, Write as _};
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(off_b)).unwrap();
        f.write_all(&slot).unwrap();
        drop(f);
        let mut buf = vec![0u8; 64];
        s.read(a, &mut buf).unwrap();
        assert!(matches!(
            s.read(b, &mut buf),
            Err(StorageError::ChecksumMismatch { page, .. }) if page == b
        ));
        drop(s);
        std::fs::remove_file(&path).ok();
    }

    /// Through `wrap(log)`, every capability of the log is the inner
    /// store's own: nothing a wrapper sits on is switched off by it.
    fn log_is_reachable_through<W: PageStore>(
        tag: &str,
        wrap: impl FnOnce(WalStore<MemPageStore>) -> W,
    ) {
        fn log<W: PageStore>(s: &mut W) -> &mut dyn WalControl {
            s.wal().expect("the log is reachable through the wrapper")
        }
        let path = temp_path(tag);
        let mut inner = WalStore::create(MemPageStore::new(64).unwrap(), &path).unwrap();
        let pinned = inner.snapshot().unwrap();
        let retention = inner.wal_retention();
        let mut s = wrap(inner);

        // A subscriber's slot holds the tail across a commit that
        // crosses the byte cap (and stays under four of them).
        log(&mut s).set_max_wal_bytes(Some(50));
        let registry = log(&mut s).wal_retention();
        assert!(Arc::ptr_eq(&registry, &retention));
        let slot = registry.subscribe(0);
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 64]).unwrap();
        s.sync().unwrap();
        let held = log(&mut s).info();
        assert_eq!(held.tail_start_lsn, 1, "{tag}: subscribed tail truncated");

        // The committed records and the committed image are shippable.
        let ReplFeed::Records { records, next_lsn } = log(&mut s).repl_feed(0).unwrap() else {
            panic!("{tag}: tail should be retained");
        };
        assert_eq!(next_lsn, held.next_lsn);
        assert!(records.iter().any(|r| matches!(
            &r.record,
            LogRecord::PageImage { page, data } if *page == a && data[..] == [1u8; 64]
        )));
        let ReplImageState::Ready(image) = log(&mut s).repl_image().unwrap() else {
            panic!("{tag}: commit boundary should produce an image");
        };
        assert_eq!(image.pages, vec![(a, vec![1u8; 64])]);

        // With the slot released a checkpoint truncates.
        drop(slot);
        log(&mut s).checkpoint().unwrap();
        let truncated = log(&mut s).info();
        assert!(truncated.live_bytes < held.live_bytes);
        assert_eq!(truncated.checkpoints, held.checkpoints + 1);

        // Rollback discards an uncommitted write.
        s.write(a, &[2u8; 64]).unwrap();
        log(&mut s).rollback().unwrap();
        let mut buf = [0u8; 64];
        s.read(a, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64]);

        // Under the default cap a commit keeps its batch in the log; at
        // a cap of nothing it checkpoints.
        log(&mut s).set_max_wal_bytes(None);
        s.write(a, &[3u8; 64]).unwrap();
        s.sync().unwrap();
        let kept = log(&mut s).info();
        assert!(
            kept.live_bytes > truncated.live_bytes,
            "{tag}: cap not reset"
        );
        log(&mut s).set_max_wal_bytes(Some(0));
        s.write(a, &[4u8; 64]).unwrap();
        s.sync().unwrap();
        let cut = log(&mut s).info();
        assert_eq!(cut.live_bytes, truncated.live_bytes, "{tag}: cap not set");
        assert_eq!(cut.checkpoints, truncated.checkpoints + 1);

        // Snapshot readers pin the inner store's own committed pages.
        let now = log(&mut s).snapshot().unwrap();
        assert_eq!(now.generation(), pinned.generation() + 3, "{tag}");
        assert_eq!(now.pages_shared_with(&log(&mut s).snapshot().unwrap()), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_wrapper_reaches_the_log_beneath_it() {
        let plain = || MemPageStore::new(64).unwrap();
        let policy = RetryPolicy::default();

        log_is_reachable_through("box.wal", |log| Box::new(log) as Box<dyn PageStore>);
        assert!((Box::new(plain()) as Box<dyn PageStore>).wal().is_none());

        log_is_reachable_through("retry.wal", |log| RetryStore::new(log, policy));
        assert!(RetryStore::new(plain(), policy).wal().is_none());

        log_is_reachable_through("fault.wal", |log| FaultStore::new(log).0);
        assert!(FaultStore::new(plain()).0.wal().is_none());

        log_is_reachable_through("stack.wal", |log| {
            RetryStore::new(FaultStore::new(Box::new(log)).0, policy)
        });
        let stack = FaultStore::new(Box::new(plain())).0;
        assert!(RetryStore::new(stack, policy).wal().is_none());
    }

    #[test]
    fn mem_store_many_pages_round_trip() {
        let mut s = MemPageStore::new(64).unwrap();
        let ids: Vec<PageId> = (0..100).map(|_| s.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            s.write(id, &[i as u8; 64]).unwrap();
        }
        let mut buf = vec![0u8; 64];
        for (i, &id) in ids.iter().enumerate() {
            s.read(id, &mut buf).unwrap();
            assert!(buf.iter().all(|&x| x == i as u8));
        }
        assert_eq!(s.num_pages(), 100);
    }
}
