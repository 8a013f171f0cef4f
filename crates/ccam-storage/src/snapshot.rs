//! Copy-on-write snapshots of a write-ahead-logged store's committed
//! pages.
//!
//! Once its snapshots are on, a [`WalStore`](crate::WalStore) keeps a
//! mirror of its committed page set: a [`SnapshotStore`] over a
//! [`MemPageStore`], seeded by one tolerant scan and brought up to date
//! by every successful commit with the pages that batch allocated, wrote
//! and freed. A pin is a clone of the mirror — a copy-on-write fork of
//! its page table, one reference count per 64 pages and no page image —
//! so it reads the generation it was taken at whatever the writer
//! commits afterwards. A commit copies only the images it replaces while
//! a pin still holds them, and a superseded image is freed when the last
//! pin holding it drops: the rule the index of a served view already
//! follows (`BPlusTree::fork`).
//!
//! [`SnapshotStore`] is a read-only [`PageStore`], so the whole read
//! stack (buffer pool, network file, access methods) runs unmodified
//! over a frozen committed state.
//!
//! The mirror serves committed bytes from RAM. A page is unreadable only
//! if it already failed its checksum when the mirror was seeded;
//! snapshot reads of it fail with [`StorageError::ChecksumMismatch`],
//! and the first committed rewrite (or free) of the page takes it off
//! the list. Bit-rot that hits the backing device *after* seeding stays
//! invisible to snapshot readers, and no later commit marks a page
//! unreadable. That trade — reads never touch the device — is what makes
//! the read path stall-free.

use std::sync::Arc;

use crate::error::{StorageError, StorageResult};
use crate::page::PageId;
use crate::store::{MemPageStore, PageStore, WalControl};

/// A read-only [`PageStore`] over one committed generation: a fork of
/// the log's mirror. Every read resolves in memory; mutations fail with
/// [`StorageError::ReadOnlySnapshot`] and `sync` does nothing.
///
/// [`Clone`] is another pin of the same generation.
#[derive(Clone)]
pub struct SnapshotStore {
    pages: MemPageStore,
    /// Live pages that failed their checksum when the mirror was seeded
    /// and were neither rewritten nor freed since, ascending.
    unreadable: Arc<[u32]>,
    generation: u64,
}

impl SnapshotStore {
    /// Generation 0 of the committed page set of `store`, read by one
    /// tolerant scan: a page failing its checksum is kept live but
    /// unreadable.
    pub(crate) fn seed<S: PageStore>(store: &S) -> StorageResult<SnapshotStore> {
        let page_size = store.page_size();
        // What the mirror holds for an unreadable page; never read.
        let placeholder: Arc<[u8]> = Arc::from(vec![0u8; page_size]);
        let mut buf = vec![0u8; page_size];
        let mut slots = Vec::new();
        let mut unreadable = Vec::new();
        for page in store.live_pages() {
            slots.resize(page.index() as usize, None);
            let image = match store.read(page, &mut buf) {
                Ok(()) => Arc::from(&buf[..]),
                Err(StorageError::ChecksumMismatch { .. }) => {
                    unreadable.push(page.index());
                    Arc::clone(&placeholder)
                }
                Err(e) => return Err(e),
            };
            slots.push(Some(image));
        }
        Ok(SnapshotStore {
            pages: MemPageStore::from_slots(page_size, slots)?,
            unreadable: unreadable.into(),
            generation: 0,
        })
    }

    /// Applies one committed batch as the next generation: `allocs` come
    /// live zero-filled, then `writes` land and `frees` go. A rewritten or
    /// freed page leaves the unreadable list. Forks taken earlier keep
    /// the images this replaces.
    pub(crate) fn publish<'a>(
        &mut self,
        allocs: &[PageId],
        writes: impl IntoIterator<Item = (u32, &'a [u8])>,
        frees: impl IntoIterator<Item = u32>,
    ) {
        const SYNCED: &str = "the mirror holds the committed page set";
        let mut touched = Vec::new();
        for &page in allocs {
            self.pages.ensure_allocated(page).expect(SYNCED);
        }
        for (page, bytes) in writes {
            self.pages.write(PageId(page), bytes).expect(SYNCED);
            touched.push(page);
        }
        for page in frees {
            self.pages.free(PageId(page)).expect(SYNCED);
            touched.push(page);
        }
        if touched
            .iter()
            .any(|p| self.unreadable.binary_search(p).is_ok())
        {
            touched.sort_unstable();
            let kept = self
                .unreadable
                .iter()
                .filter(|p| touched.binary_search(p).is_err());
            self.unreadable = kept.copied().collect();
        }
        self.generation += 1;
    }

    /// The generation this store reads: the number of batches committed
    /// since the mirror was seeded.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The live pages every read of which fails with
    /// [`StorageError::ChecksumMismatch`], ascending — what a tolerant
    /// scan of this generation would quarantine.
    pub fn unreadable_pages(&self) -> Vec<PageId> {
        self.unreadable.iter().map(|&p| PageId(p)).collect()
    }

    /// Number of live pages whose image this store shares (same
    /// allocation) with `other` — what one of the two forks has not had
    /// to copy. Diagnostics and tests.
    pub fn pages_shared_with(&self, other: &SnapshotStore) -> usize {
        self.pages.pages_shared_with(&other.pages)
    }

    /// The store's image of `id` (tests: whether dropping a fork frees a
    /// superseded image).
    #[cfg(test)]
    pub(crate) fn image(&self, id: PageId) -> Option<&Arc<[u8]>> {
        self.pages.image(id)
    }
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotStore")
            .field("generation", &self.generation)
            .field("num_pages", &self.pages.num_pages())
            .finish_non_exhaustive()
    }
}

fn read_only() -> StorageError {
    StorageError::ReadOnlySnapshot
}

impl PageStore for SnapshotStore {
    fn page_size(&self) -> usize {
        self.pages.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.pages.num_pages()
    }

    fn allocate(&mut self) -> StorageResult<PageId> {
        Err(read_only())
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        if self.unreadable.binary_search(&id.index()).is_ok() {
            // The error shape the device produced, so quarantine and
            // degraded reads behave as they would against it.
            return Err(StorageError::ChecksumMismatch {
                page: id,
                stored: 0,
                computed: 0,
            });
        }
        self.pages.read(id, buf)
    }

    fn write(&mut self, _id: PageId, _buf: &[u8]) -> StorageResult<()> {
        Err(read_only())
    }

    fn free(&mut self, _id: PageId) -> StorageResult<()> {
        Err(read_only())
    }

    fn is_live(&self, id: PageId) -> bool {
        self.pages.is_live(id)
    }

    fn sync(&mut self) -> StorageResult<()> {
        // A no-op rather than an error: the read stack commits through
        // shared plumbing (e.g. pool flushes with no dirty frames), and
        // "persist nothing" is exactly right for a frozen image.
        Ok(())
    }

    fn live_pages(&self) -> Vec<PageId> {
        self.pages.live_pages()
    }

    fn ensure_allocated(&mut self, _id: PageId) -> StorageResult<()> {
        Err(read_only())
    }

    fn wal(&mut self) -> Option<&mut dyn WalControl> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::FaultStore;

    const PAGE: usize = 64;

    /// A mirror seeded from `pages` live pages, page `p` filled with `p`.
    fn seeded(pages: u8) -> SnapshotStore {
        let mut store = MemPageStore::new(PAGE).unwrap();
        for p in 0..pages {
            let id = store.allocate().unwrap();
            store.write(id, &[p; PAGE]).unwrap();
        }
        SnapshotStore::seed(&store).unwrap()
    }

    /// Commits a batch writing page `p` with `fill` for each `(p, fill)`
    /// of `writes` (allocating the pages the mirror lacks), then freeing
    /// `frees`.
    fn commit(mirror: &mut SnapshotStore, writes: &[(u32, u8)], frees: &[u32]) {
        let allocs: Vec<PageId> = writes
            .iter()
            .map(|&(p, _)| PageId(p))
            .filter(|&p| !mirror.is_live(p))
            .collect();
        let images: Vec<(u32, [u8; PAGE])> = writes.iter().map(|&(p, f)| (p, [f; PAGE])).collect();
        let writes = images.iter().map(|(p, image)| (*p, &image[..]));
        mirror.publish(&allocs, writes, frees.iter().copied());
    }

    fn read_page(s: &SnapshotStore, p: u32) -> StorageResult<Vec<u8>> {
        let mut buf = vec![0u8; s.page_size()];
        s.read(PageId(p), &mut buf)?;
        Ok(buf)
    }

    #[test]
    fn pinned_generation_is_immune_to_later_publishes() {
        let mut mirror = seeded(1);
        let snap = mirror.clone();
        commit(&mut mirror, &[(0, 2)], &[]);
        commit(&mut mirror, &[(1, 3)], &[0]);
        assert_eq!(read_page(&snap, 0).unwrap(), vec![0; PAGE]);
        assert!(matches!(
            read_page(&snap, 1),
            Err(StorageError::InvalidPage(_))
        ));
        let now = mirror.clone();
        assert!(matches!(
            read_page(&now, 0),
            Err(StorageError::InvalidPage(_))
        ));
        assert_eq!(read_page(&now, 1).unwrap(), vec![3; PAGE]);
    }

    /// Dropping the last pin of a superseded image frees it; while a pin
    /// holds it, it lives.
    #[test]
    fn unpin_collects_unreachable_images() {
        let mut mirror = seeded(1);
        let snap = mirror.clone();
        let first = Arc::downgrade(snap.image(PageId(0)).unwrap());
        commit(&mut mirror, &[(0, 2)], &[]);
        commit(&mut mirror, &[(0, 3)], &[]);
        assert_eq!(read_page(&mirror, 0).unwrap(), vec![3; PAGE]);
        assert!(first.upgrade().is_some(), "a pin still reads it");
        drop(snap);
        assert!(first.upgrade().is_none(), "the superseded image is freed");
    }

    #[test]
    fn two_pins_resolve_their_own_generations() {
        let mut mirror = seeded(1);
        let a = mirror.clone();
        commit(&mut mirror, &[(0, 2)], &[]);
        let b = mirror.clone();
        commit(&mut mirror, &[(0, 3)], &[]);
        assert_eq!((a.generation(), b.generation()), (0, 1));
        assert_eq!(read_page(&a, 0).unwrap(), vec![0; PAGE]);
        assert_eq!(read_page(&b, 0).unwrap(), vec![2; PAGE]);
        drop(a);
        assert_eq!(read_page(&b, 0).unwrap(), vec![2; PAGE]);
    }

    #[test]
    fn unreadable_image_reads_as_checksum_mismatch() {
        let (mut store, faults) = FaultStore::new(MemPageStore::new(PAGE).unwrap());
        let (a, b) = (store.allocate().unwrap(), store.allocate().unwrap());
        faults.mark_corrupt(a);
        let mut mirror = SnapshotStore::seed(&store).unwrap();
        let snap = mirror.clone();
        assert!(matches!(
            read_page(&snap, 0),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        assert!(snap.is_live(a));
        assert_eq!(snap.live_pages(), vec![a, b]);
        assert_eq!(snap.unreadable_pages(), vec![a]);
        // A committed rewrite heals the page for later pins only.
        commit(&mut mirror, &[(0, 5)], &[]);
        assert_eq!(read_page(&mirror, 0).unwrap(), vec![5; PAGE]);
        assert!(mirror.unreadable_pages().is_empty());
        assert!(read_page(&snap, 0).is_err());
    }

    #[test]
    fn snapshot_store_refuses_mutation() {
        let mut snap = seeded(1);
        assert!(matches!(
            snap.allocate(),
            Err(StorageError::ReadOnlySnapshot)
        ));
        assert!(matches!(
            snap.write(PageId(0), &[0; PAGE]),
            Err(StorageError::ReadOnlySnapshot)
        ));
        assert!(matches!(
            snap.free(PageId(0)),
            Err(StorageError::ReadOnlySnapshot)
        ));
        assert!(matches!(
            snap.ensure_allocated(PageId(3)),
            Err(StorageError::ReadOnlySnapshot)
        ));
        assert!(snap.sync().is_ok());
    }

    /// A pin shares every image with the mirror; a commit copies only
    /// the pages it rewrote, and only because a pin still holds them.
    #[test]
    fn a_pin_shares_every_page_a_commit_does_not_rewrite() {
        let mut mirror = seeded(100);
        let a = mirror.clone();
        assert_eq!(a.pages_shared_with(&mirror), 100);
        commit(&mut mirror, &[(7, 2), (100, 3)], &[]);
        assert_eq!(a.pages_shared_with(&mirror), 99);
        let b = mirror.clone();
        assert_eq!(b.pages_shared_with(&mirror), 101);
        assert_eq!(read_page(&b, 100).unwrap(), vec![3; PAGE]);
        assert_eq!(read_page(&a, 7).unwrap(), vec![7; PAGE]);
    }

    #[test]
    fn freed_then_reused_page_versions_correctly() {
        let mut mirror = seeded(1);
        let a = mirror.clone();
        commit(&mut mirror, &[], &[0]);
        let b = mirror.clone();
        commit(&mut mirror, &[(0, 9)], &[]);
        let c = mirror.clone();
        assert_eq!(read_page(&a, 0).unwrap(), vec![0; PAGE]);
        assert!(read_page(&b, 0).is_err());
        assert!(!b.is_live(PageId(0)));
        assert_eq!(read_page(&c, 0).unwrap(), vec![9; PAGE]);
    }
}
