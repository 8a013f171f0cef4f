//! Multi-version page images for non-blocking snapshot reads.
//!
//! [`PageVersions`] keeps a complete in-memory image of the *committed*
//! page set (the "mirror") plus, per page, a chain of superseded images
//! that are still reachable from pinned generations. A writer publishes
//! one new generation per committed batch ([`PageVersions::publish`]);
//! readers pin the current generation ([`SnapshotStore::pin`]) and
//! resolve every page read against exactly that generation, no matter
//! what the writer does afterwards. Old images are garbage-collected as
//! soon as no pin can reach them.
//!
//! Beside the images the set keeps two ascending page-id lists for the
//! committed generation — the live pages and the live pages whose image
//! is [`PageImage::Unreadable`] — and brings them up to date inside
//! `publish`, from the batch alone. A pin takes both by reference count,
//! so pinning costs the same whatever the database holds, and a publish
//! builds a new list only when its batch allocated or freed a page (or
//! rewrote an unreadable one).
//!
//! [`SnapshotStore`] wraps a pinned generation as a read-only
//! [`PageStore`], so the whole read stack (buffer pool, network file,
//! access methods) runs unmodified over a frozen committed state.
//!
//! The mirror serves committed bytes from RAM. A page is
//! [`PageImage::Unreadable`] only if it already failed its checksum when
//! the mirror was seeded; snapshot reads of it degrade, and the first
//! committed rewrite of the page heals it. Bit-rot that hits the backing
//! device *after* seeding stays invisible to snapshot readers, and no
//! later publish marks a page unreadable. That trade — reads never
//! touch the device — is what makes the read path stall-free.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{StorageError, StorageResult};
use crate::page::PageId;
use crate::store::{PageStore, WalControl};

/// One committed image of a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageImage {
    /// The page's bytes as of some committed generation.
    Bytes(Box<[u8]>),
    /// The page was live but unreadable (checksum failure) when the
    /// mirror was seeded, and has not been rewritten since; snapshot
    /// reads of it surface [`StorageError::ChecksumMismatch`] so the
    /// degraded-read path engages exactly as it would against the
    /// device.
    Unreadable,
}

/// A superseded image: the content of a page for every generation
/// `<= valid_through` (back to the previous entry in its chain).
/// `image == None` means the page was *not live* at those generations.
struct OldVersion {
    valid_through: u64,
    image: Option<Arc<PageImage>>,
}

struct VersionState {
    /// Committed image of every live page at the current generation.
    mirror: HashMap<u32, Arc<PageImage>>,
    /// Per-page chains of superseded images, ascending `valid_through`.
    versions: HashMap<u32, Vec<OldVersion>>,
    /// Pinned generation -> pin count.
    pins: BTreeMap<u64, usize>,
    /// The keys of `mirror`, ascending; shared with every pin of the
    /// committed generation.
    live: Arc<[u32]>,
    /// The keys of `mirror` whose image is unreadable, ascending.
    unreadable: Arc<[u32]>,
}

/// `list` (ascending page ids) with every page of `touched` (ascending,
/// distinct) put in or taken out as `member` says, or `None` when that
/// changes nothing. One merge pass: O(list + touched).
fn reconciled(list: &[u32], touched: &[u32], member: impl Fn(u32) -> bool) -> Option<Arc<[u32]>> {
    if touched
        .iter()
        .all(|&p| list.binary_search(&p).is_ok() == member(p))
    {
        return None;
    }
    let mut out = Vec::with_capacity(list.len() + touched.len());
    let mut kept = list.iter().copied().peekable();
    for &page in touched {
        while let Some(p) = kept.next_if(|&p| p < page) {
            out.push(p);
        }
        kept.next_if_eq(&page);
        if member(page) {
            out.push(page);
        }
    }
    out.extend(kept);
    Some(out.into())
}

/// Multi-version committed page images (see module docs).
pub struct PageVersions {
    page_size: usize,
    committed_gen: AtomicU64,
    /// Page images resolved for snapshot readers so far (a statistic).
    reads: AtomicU64,
    state: Mutex<VersionState>,
}

impl std::fmt::Debug for PageVersions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageVersions")
            .field("page_size", &self.page_size)
            .field("committed_gen", &self.committed_gen.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

/// One page's change inside a published batch.
pub enum PageChange {
    /// The page now holds these bytes.
    Written(Box<[u8]>),
    /// The page was freed.
    Freed,
}

impl PageVersions {
    /// Builds a version set whose generation-0 mirror is `images`
    /// (page index -> committed image). Seeds a `WalStore`'s mirror from
    /// its tolerant scan of the committed page set.
    pub fn from_images(
        page_size: usize,
        images: impl IntoIterator<Item = (u32, PageImage)>,
    ) -> Arc<PageVersions> {
        let mirror: HashMap<u32, Arc<PageImage>> = images
            .into_iter()
            .map(|(page, image)| (page, Arc::new(image)))
            .collect();
        let mut live: Vec<u32> = mirror.keys().copied().collect();
        live.sort_unstable();
        let unreadable: Vec<u32> = live
            .iter()
            .copied()
            .filter(|p| matches!(*mirror[p], PageImage::Unreadable))
            .collect();
        Arc::new(PageVersions {
            page_size,
            committed_gen: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            state: Mutex::new(VersionState {
                mirror,
                versions: HashMap::new(),
                pins: BTreeMap::new(),
                live: live.into(),
                unreadable: unreadable.into(),
            }),
        })
    }

    /// Page size of every image.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The current committed generation.
    pub fn committed_gen(&self) -> u64 {
        self.committed_gen.load(Ordering::Acquire)
    }

    /// Number of page images resolved for snapshot readers over this
    /// set's lifetime (test/metrics hook: a capture that scans nothing
    /// leaves it where it was).
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Atomically publishes one committed batch as the next generation:
    /// superseded images move onto the per-page version chains (so pinned
    /// readers keep resolving them), the mirror advances, and images no
    /// pin can reach are dropped. Returns the new committed generation.
    pub fn publish(&self, changes: impl IntoIterator<Item = (u32, PageChange)>) -> u64 {
        let mut s = self.state.lock();
        let gen = self.committed_gen.load(Ordering::Acquire);
        let mut touched = Vec::new();
        for (page, change) in changes {
            touched.push(page);
            let old = s.mirror.get(&page).cloned();
            s.versions.entry(page).or_default().push(OldVersion {
                valid_through: gen,
                image: old,
            });
            match change {
                PageChange::Written(bytes) => {
                    s.mirror.insert(page, Arc::new(PageImage::Bytes(bytes)));
                }
                PageChange::Freed => {
                    s.mirror.remove(&page);
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let mirror = &s.mirror;
        let live = reconciled(&s.live, &touched, |p| mirror.contains_key(&p));
        // A publish never makes a page unreadable: every touched page
        // leaves the list, healed by its rewrite or freed.
        let unreadable = reconciled(&s.unreadable, &touched, |_| false);
        if let Some(live) = live {
            s.live = live;
        }
        if let Some(unreadable) = unreadable {
            s.unreadable = unreadable;
        }
        let new_gen = gen + 1;
        self.committed_gen.store(new_gen, Ordering::Release);
        Self::collect(&mut s, new_gen);
        new_gen
    }

    /// Resolves the image of `page` at generation `gen`, or `None` when
    /// the page was not live then.
    fn image_at(&self, gen: u64, page: u32) -> Option<Arc<PageImage>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let s = self.state.lock();
        if let Some(chain) = s.versions.get(&page) {
            // Chains ascend in valid_through; the first entry covering
            // `gen` holds the image that was current then.
            for old in chain {
                if old.valid_through >= gen {
                    return old.image.clone();
                }
            }
        }
        s.mirror.get(&page).cloned()
    }

    fn unpin(&self, gen: u64) {
        let mut s = self.state.lock();
        match s.pins.get_mut(&gen) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                s.pins.remove(&gen);
            }
            None => debug_assert!(false, "unpin of generation {gen} with no pin"),
        }
        let committed = self.committed_gen.load(Ordering::Acquire);
        Self::collect(&mut s, committed);
    }

    /// Drops version-chain entries no pin can reach. An entry covers
    /// generations `<= valid_through`, so it is dead once every pin (and
    /// the committed generation itself) lies strictly above that.
    fn collect(s: &mut VersionState, committed: u64) {
        let min_reachable = s.pins.keys().next().copied().unwrap_or(committed);
        s.versions.retain(|_, chain| {
            chain.retain(|old| old.valid_through >= min_reachable);
            !chain.is_empty()
        });
    }

    /// Number of superseded images still retained (test/metrics hook).
    pub fn retained_versions(&self) -> usize {
        self.state.lock().versions.values().map(Vec::len).sum()
    }
}

/// A read-only [`PageStore`] over one pinned generation. Every read
/// resolves in memory against the committed images; mutations and
/// `sync` fail with [`StorageError::ReadOnlySnapshot`].
pub struct SnapshotStore {
    versions: Arc<PageVersions>,
    /// The pinned generation; unpinned on drop, which lets images no
    /// other pin can reach be collected.
    gen: u64,
    /// Live pages at the pinned generation, ascending (the set is
    /// immutable while the pin is held).
    live: Arc<[u32]>,
    /// The live pages whose image is [`PageImage::Unreadable`].
    unreadable: Arc<[u32]>,
}

impl SnapshotStore {
    /// Pins the current committed generation of `versions`: a pin count
    /// and two reference counts go up, no page is looked at.
    pub fn pin(versions: &Arc<PageVersions>) -> SnapshotStore {
        let mut s = versions.state.lock();
        let gen = versions.committed_gen.load(Ordering::Acquire);
        *s.pins.entry(gen).or_insert(0) += 1;
        SnapshotStore {
            versions: Arc::clone(versions),
            gen,
            live: Arc::clone(&s.live),
            unreadable: Arc::clone(&s.unreadable),
        }
    }

    /// The generation this store reads.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// The live pages every read of which fails with
    /// [`StorageError::ChecksumMismatch`], ascending — what a tolerant
    /// scan of this generation would quarantine.
    pub fn unreadable_pages(&self) -> Vec<PageId> {
        self.unreadable.iter().map(|&p| PageId(p)).collect()
    }
}

impl Drop for SnapshotStore {
    fn drop(&mut self) {
        self.versions.unpin(self.gen);
    }
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotStore")
            .field("generation", &self.gen)
            .field("live", &self.live.len())
            .finish_non_exhaustive()
    }
}

fn read_only() -> StorageError {
    StorageError::ReadOnlySnapshot
}

impl PageStore for SnapshotStore {
    fn page_size(&self) -> usize {
        self.versions.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.live.last().map_or(0, |p| p + 1)
    }

    fn allocate(&mut self) -> StorageResult<PageId> {
        Err(read_only())
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        match self.versions.image_at(self.gen, id.index()) {
            Some(image) => match &*image {
                PageImage::Bytes(bytes) => {
                    if buf.len() != bytes.len() {
                        return Err(StorageError::BadPageSize(buf.len()));
                    }
                    buf.copy_from_slice(bytes);
                    Ok(())
                }
                // Surfaced with the same error shape the device would
                // produce, so quarantine/degraded handling is identical.
                PageImage::Unreadable => Err(StorageError::ChecksumMismatch {
                    page: id,
                    stored: 0,
                    computed: 0,
                }),
            },
            None => Err(StorageError::InvalidPage(id)),
        }
    }

    fn write(&mut self, _id: PageId, _buf: &[u8]) -> StorageResult<()> {
        Err(read_only())
    }

    fn free(&mut self, _id: PageId) -> StorageResult<()> {
        Err(read_only())
    }

    fn is_live(&self, id: PageId) -> bool {
        self.live.binary_search(&id.index()).is_ok()
    }

    fn sync(&mut self) -> StorageResult<()> {
        // A no-op rather than an error: the read stack commits through
        // shared plumbing (e.g. pool flushes with no dirty frames), and
        // "persist nothing" is exactly right for a frozen image.
        Ok(())
    }

    fn live_pages(&self) -> Vec<PageId> {
        self.live.iter().map(|&p| PageId(p)).collect()
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

    fn bytes(fill: u8, n: usize) -> Box<[u8]> {
        vec![fill; n].into_boxed_slice()
    }

    fn read_page(s: &SnapshotStore, p: u32) -> StorageResult<Vec<u8>> {
        let mut buf = vec![0u8; s.page_size()];
        s.read(PageId(p), &mut buf)?;
        Ok(buf)
    }

    #[test]
    fn pinned_generation_is_immune_to_later_publishes() {
        let v = PageVersions::from_images(4, [(0, PageImage::Bytes(bytes(1, 4)))]);
        let snap = SnapshotStore::pin(&v);
        v.publish([(0, PageChange::Written(bytes(2, 4)))]);
        v.publish([
            (0, PageChange::Freed),
            (1, PageChange::Written(bytes(3, 4))),
        ]);
        assert_eq!(read_page(&snap, 0).unwrap(), vec![1; 4]);
        assert!(matches!(
            read_page(&snap, 1),
            Err(StorageError::InvalidPage(_))
        ));
        let now = SnapshotStore::pin(&v);
        assert!(matches!(
            read_page(&now, 0),
            Err(StorageError::InvalidPage(_))
        ));
        assert_eq!(read_page(&now, 1).unwrap(), vec![3; 4]);
    }

    #[test]
    fn unpin_collects_unreachable_images() {
        let v = PageVersions::from_images(4, [(0, PageImage::Bytes(bytes(1, 4)))]);
        let snap = SnapshotStore::pin(&v);
        v.publish([(0, PageChange::Written(bytes(2, 4)))]);
        v.publish([(0, PageChange::Written(bytes(3, 4)))]);
        assert!(v.retained_versions() >= 2);
        drop(snap);
        assert_eq!(v.retained_versions(), 0);
    }

    #[test]
    fn two_pins_resolve_their_own_generations() {
        let v = PageVersions::from_images(4, [(0, PageImage::Bytes(bytes(1, 4)))]);
        let a = SnapshotStore::pin(&v);
        v.publish([(0, PageChange::Written(bytes(2, 4)))]);
        let b = SnapshotStore::pin(&v);
        v.publish([(0, PageChange::Written(bytes(3, 4)))]);
        assert_eq!(read_page(&a, 0).unwrap(), vec![1; 4]);
        assert_eq!(read_page(&b, 0).unwrap(), vec![2; 4]);
        drop(a);
        assert_eq!(read_page(&b, 0).unwrap(), vec![2; 4]);
    }

    #[test]
    fn unreadable_image_reads_as_checksum_mismatch() {
        let v = PageVersions::from_images(4, [(0, PageImage::Unreadable)]);
        let snap = SnapshotStore::pin(&v);
        assert!(matches!(
            read_page(&snap, 0),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        assert!(snap.is_live(PageId(0)));
        assert_eq!(snap.live_pages(), vec![PageId(0)]);
    }

    #[test]
    fn snapshot_store_refuses_mutation() {
        let v = PageVersions::from_images(4, [(0, PageImage::Bytes(bytes(1, 4)))]);
        let mut snap = SnapshotStore::pin(&v);
        assert!(matches!(
            snap.allocate(),
            Err(StorageError::ReadOnlySnapshot)
        ));
        assert!(matches!(
            snap.write(PageId(0), &[0; 4]),
            Err(StorageError::ReadOnlySnapshot)
        ));
        assert!(matches!(
            snap.free(PageId(0)),
            Err(StorageError::ReadOnlySnapshot)
        ));
        assert!(snap.sync().is_ok());
    }

    /// The answer the incremental lists replace: every page any image is
    /// known for, filtered by a lookup of its image at `gen`.
    fn scanned_at(v: &PageVersions, gen: u64, unreadable_only: bool) -> Vec<u32> {
        let s = v.state.lock();
        let mut pages: Vec<u32> = s.mirror.keys().chain(s.versions.keys()).copied().collect();
        drop(s);
        pages.sort_unstable();
        pages.dedup();
        pages.retain(|&p| match v.image_at(gen, p).as_deref() {
            Some(PageImage::Unreadable) => true,
            Some(PageImage::Bytes(_)) => !unreadable_only,
            None => false,
        });
        pages
    }

    #[test]
    fn pinned_lists_equal_a_scan_of_every_pinned_generation() {
        use rand::{RngExt, SeedableRng};
        for seed in 0..24u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let seeded = (0..6u32).filter_map(|p| match rng.random_range(0..10) {
                0..=2 => None,
                3..=4 => Some((p, PageImage::Unreadable)),
                _ => Some((p, PageImage::Bytes(bytes(p as u8, 4)))),
            });
            let v = PageVersions::from_images(4, seeded.collect::<Vec<_>>());
            let mut pins = vec![SnapshotStore::pin(&v)];
            for step in 0..40u8 {
                // Batches repeat pages and free dead ones on purpose.
                let batch: Vec<(u32, PageChange)> = (0..rng.random_range(0..4))
                    .map(|_| {
                        let change = match rng.random_range(0..5) {
                            0 | 1 => PageChange::Freed,
                            _ => PageChange::Written(bytes(step, 4)),
                        };
                        (rng.random_range(0..10u32), change)
                    })
                    .collect();
                v.publish(batch);
                if rng.random_bool(0.5) {
                    pins.push(SnapshotStore::pin(&v));
                }
                if !pins.is_empty() && rng.random_bool(0.3) {
                    let at = rng.random_range(0..pins.len());
                    pins.swap_remove(at);
                }
                for pin in &pins {
                    let gen = pin.generation();
                    let live: Vec<u32> = pin.live_pages().iter().map(|p| p.0).collect();
                    assert_eq!(live, scanned_at(&v, gen, false), "seed {seed} gen {gen}");
                    let bad: Vec<u32> = pin.unreadable_pages().iter().map(|p| p.0).collect();
                    assert_eq!(bad, scanned_at(&v, gen, true), "seed {seed} gen {gen}");
                    assert_eq!(pin.num_pages(), live.last().map_or(0, |p| p + 1));
                }
            }
        }
    }

    #[test]
    fn pin_shares_the_lists_and_reads_no_image() {
        let images = (0..100u32).map(|p| (p, PageImage::Bytes(bytes(1, 4))));
        let v = PageVersions::from_images(4, images);
        let a = SnapshotStore::pin(&v);
        // A batch that neither allocates nor frees leaves the lists be.
        v.publish([(7, PageChange::Written(bytes(2, 4)))]);
        let b = SnapshotStore::pin(&v);
        assert!(Arc::ptr_eq(&a.live, &b.live));
        assert!(Arc::ptr_eq(&a.unreadable, &b.unreadable));
        v.publish([(100, PageChange::Written(bytes(3, 4)))]);
        let c = SnapshotStore::pin(&v);
        assert!(!Arc::ptr_eq(&b.live, &c.live));
        assert!(Arc::ptr_eq(&b.unreadable, &c.unreadable));
        assert_eq!(v.reads(), 0);
        assert_eq!(read_page(&c, 100).unwrap(), vec![3; 4]);
        assert_eq!(v.reads(), 1);
    }

    #[test]
    fn freed_then_reused_page_versions_correctly() {
        let v = PageVersions::from_images(4, [(0, PageImage::Bytes(bytes(1, 4)))]);
        let a = SnapshotStore::pin(&v);
        v.publish([(0, PageChange::Freed)]);
        let b = SnapshotStore::pin(&v);
        v.publish([(0, PageChange::Written(bytes(9, 4)))]);
        let c = SnapshotStore::pin(&v);
        assert_eq!(read_page(&a, 0).unwrap(), vec![1; 4]);
        assert!(read_page(&b, 0).is_err());
        assert!(!b.is_live(PageId(0)));
        assert_eq!(read_page(&c, 0).unwrap(), vec![9; 4]);
    }
}
