//! Scrub & repair: a full-file integrity pass with WAL-backed
//! self-healing.
//!
//! [`scrub`] reads every live page of a store and classifies it:
//!
//! * **Clean** — the page read back and (on checksummed v2 files)
//!   verified.
//! * **Repaired** — the read failed with
//!   [`StorageError::ChecksumMismatch`], but the write-ahead log held a
//!   committed after-image of the page; the image was rewritten in place
//!   (restamping the checksum) and re-verified.
//! * **Quarantined** — the checksum failed and no committed WAL image
//!   covers the page. The data is gone; the caller records the page so
//!   queries can degrade gracefully (skip it and report the skip) instead
//!   of aborting — see the quarantine API on `ccam-core`'s `NetworkFile`.
//!
//! Repair images come from [`committed_images`], which folds a
//! [`WalScan`] down to the *last committed* [`LogRecord::PageImage`] per
//! page — uncommitted tail records never repair anything, mirroring redo
//! recovery's commit rule. Note that a cleanly shut down database has a
//! checkpointed (empty) log, so WAL coverage exists only for damage to
//! pages whose batches have not yet been checkpointed; scrub is the
//! complement of, not a replacement for, backups.
//!
//! I/O errors (as opposed to checksum mismatches) abort the scrub — a
//! disk that cannot be read at all is not something a page-level pass
//! can reason about.

use std::collections::BTreeMap;
use std::path::Path;

use crate::error::{StorageError, StorageResult};
use crate::page::PageId;
use crate::store::{FilePageStore, PageStore};
use crate::wal::{wal_sidecar, LogRecord, Wal, WalScan};

/// Outcome of scrubbing one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageStatus {
    /// The page read back and verified.
    Clean,
    /// The checksum failed; a committed WAL image was rewritten in place
    /// and the page now verifies.
    Repaired,
    /// The checksum failed and no WAL image covers the page; callers
    /// should quarantine it.
    Quarantined,
}

/// Per-page outcomes of one [`scrub`] pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Status of every live page, ascending by id.
    pub pages: Vec<(PageId, PageStatus)>,
    /// Pages that read back clean.
    pub clean: u64,
    /// Pages rewritten from the WAL.
    pub repaired: u64,
    /// Pages left unreadable.
    pub quarantined: u64,
}

impl ScrubReport {
    /// True when every page was clean (nothing repaired or quarantined).
    pub fn is_clean(&self) -> bool {
        self.repaired == 0 && self.quarantined == 0
    }

    /// Ids of the quarantined pages, ascending.
    pub fn quarantined_pages(&self) -> Vec<PageId> {
        self.pages
            .iter()
            .filter(|(_, s)| *s == PageStatus::Quarantined)
            .map(|&(id, _)| id)
            .collect()
    }
}

/// Folds a [`WalScan`] to the last *committed* after-image per page —
/// the redo images a scrub may legitimately repair from.
pub fn committed_images(scan: &WalScan) -> BTreeMap<PageId, Box<[u8]>> {
    let mut committed: BTreeMap<PageId, Box<[u8]>> = BTreeMap::new();
    let mut batch: BTreeMap<PageId, Box<[u8]>> = BTreeMap::new();
    for stamped in &scan.records {
        match &stamped.record {
            LogRecord::PageImage { page, data } => {
                batch.insert(*page, data.clone());
            }
            LogRecord::Free { page } => {
                // A freed page's earlier image is no longer meaningful;
                // the empty sentinel erases it when this batch commits.
                batch.insert(*page, Box::default());
            }
            LogRecord::Commit => {
                for (page, data) in std::mem::take(&mut batch) {
                    if data.is_empty() {
                        committed.remove(&page);
                    } else {
                        committed.insert(page, data);
                    }
                }
            }
            LogRecord::Alloc { .. } | LogRecord::Checkpoint => {}
        }
    }
    // Records after the last commit marker are an uncommitted tail:
    // dropped, exactly as redo recovery discards them.
    committed
}

/// Scrubs every live page of `store`, repairing checksum failures from
/// `images` (see [`committed_images`]) where possible.
///
/// The store is synced before returning when anything was rewritten.
pub fn scrub<S: PageStore>(
    store: &mut S,
    images: &BTreeMap<PageId, Box<[u8]>>,
) -> StorageResult<ScrubReport> {
    let mut report = ScrubReport::default();
    let mut buf = vec![0u8; store.page_size()];
    for id in store.live_pages() {
        let status = match store.read(id, &mut buf) {
            Ok(()) => PageStatus::Clean,
            Err(StorageError::ChecksumMismatch { .. }) => match images.get(&id) {
                Some(image) if image.len() == store.page_size() => {
                    store.write(id, image)?;
                    // The rewrite restamps the trailer; re-verify to be
                    // sure the repair actually took.
                    match store.read(id, &mut buf) {
                        Ok(()) => PageStatus::Repaired,
                        Err(StorageError::ChecksumMismatch { .. }) => PageStatus::Quarantined,
                        Err(e) => return Err(e),
                    }
                }
                _ => PageStatus::Quarantined,
            },
            Err(e) => return Err(e),
        };
        match status {
            PageStatus::Clean => report.clean += 1,
            PageStatus::Repaired => report.repaired += 1,
            PageStatus::Quarantined => report.quarantined += 1,
        }
        report.pages.push((id, status));
    }
    if report.repaired > 0 {
        store.sync()?;
    }
    Ok(report)
}

/// Scrubs the page file at `db`, repairing from its `<db>.wal` sidecar
/// when one exists. The WAL is only read (its torn tail, if any, is
/// truncated as on any open); it is *not* checkpointed, so a later
/// recovery still sees every committed batch.
pub fn scrub_file(db: &Path) -> StorageResult<ScrubReport> {
    let mut store = FilePageStore::open(db)?;
    let wal_path = wal_sidecar(db);
    let images = if wal_path.exists() {
        let (_wal, scan) = Wal::open(&wal_path, store.page_size())?;
        committed_images(&scan)
    } else {
        BTreeMap::new()
    };
    scrub(&mut store, &images)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemPageStore;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "ccam-integrity-test-{}-{}",
            std::process::id(),
            name
        ));
        p
    }

    fn flip_bit(path: &Path, offset: u64) {
        use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .unwrap();
        f.seek(SeekFrom::Start(offset)).unwrap();
        let mut b = [0u8; 1];
        f.read_exact(&mut b).unwrap();
        f.seek(SeekFrom::Start(offset)).unwrap();
        f.write_all(&[b[0] ^ 0x40]).unwrap();
    }

    #[test]
    fn clean_file_scrubs_clean() {
        let path = temp_path("clean");
        let mut s = FilePageStore::create(&path, 64).unwrap();
        for i in 0..4u8 {
            let p = s.allocate().unwrap();
            s.write(p, &[i; 64]).unwrap();
        }
        let report = scrub(&mut s, &BTreeMap::new()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.clean, 4);
        assert_eq!(report.pages.len(), 4);
        drop(s);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn uncovered_corruption_is_quarantined_covered_is_repaired() {
        let path = temp_path("repair");
        let mut s = FilePageStore::create(&path, 64).unwrap();
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        s.write(a, &[0xaa; 64]).unwrap();
        s.write(b, &[0xbb; 64]).unwrap();
        s.sync().unwrap();
        // Corrupt both pages on disk.
        flip_bit(&path, s.data_offset(a) + 10);
        flip_bit(&path, s.data_offset(b) + 10);
        // Only page a is covered by a committed WAL image.
        let mut images = BTreeMap::new();
        images.insert(a, vec![0xaa; 64].into_boxed_slice());
        let report = scrub(&mut s, &images).unwrap();
        assert_eq!(report.repaired, 1);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.quarantined_pages(), vec![b]);
        // The repaired page reads back verified with the WAL contents.
        let mut buf = vec![0u8; 64];
        s.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0xaa));
        assert!(s.read(b, &mut buf).is_err());
        drop(s);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scrub_detects_every_single_bit_corruption() {
        let path = temp_path("sweep");
        let mut s = FilePageStore::create(&path, 64).unwrap();
        let ids: Vec<PageId> = (0..8)
            .map(|i| {
                let p = s.allocate().unwrap();
                s.write(p, &[i as u8 ^ 0x3c; 64]).unwrap();
                p
            })
            .collect();
        s.sync().unwrap();
        // One bit flipped in any page, at shifting byte positions: scrub
        // must flag exactly that page, every time.
        for (i, &id) in ids.iter().enumerate() {
            flip_bit(&path, s.data_offset(id) + (i as u64 * 7) % 64);
            let report = scrub(&mut s, &BTreeMap::new()).unwrap();
            assert_eq!(report.quarantined, 1, "page {id:?} flip undetected");
            assert_eq!(report.quarantined_pages(), vec![id]);
            // Un-flip; the file is clean again.
            flip_bit(&path, s.data_offset(id) + (i as u64 * 7) % 64);
            assert!(scrub(&mut s, &BTreeMap::new()).unwrap().is_clean());
        }
        drop(s);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn committed_images_respect_commit_boundaries_and_frees() {
        let path = temp_path("images");
        let mut wal = Wal::create(&path, 16).unwrap();
        let img = |b: u8| vec![b; 16].into_boxed_slice();
        wal.append_batch(&[
            LogRecord::PageImage {
                page: PageId(1),
                data: img(0x11),
            },
            LogRecord::PageImage {
                page: PageId(2),
                data: img(0x22),
            },
        ])
        .unwrap();
        wal.append_batch(&[
            LogRecord::PageImage {
                page: PageId(1),
                data: img(0x33), // supersedes 0x11
            },
            LogRecord::Free { page: PageId(2) }, // invalidates 0x22
        ])
        .unwrap();
        // Uncommitted tail: append a batch, then chop its commit frame.
        wal.append_batch(&[LogRecord::PageImage {
            page: PageId(3),
            data: img(0x44),
        }])
        .unwrap();
        let len = wal.len();
        drop(wal);
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 17).unwrap();
        drop(f);

        let (_wal, scan) = Wal::open(&path, 16).unwrap();
        let images = committed_images(&scan);
        assert_eq!(images.len(), 1);
        assert!(images.get(&PageId(1)).unwrap().iter().all(|&b| b == 0x33));
        assert!(!images.contains_key(&PageId(2)));
        assert!(!images.contains_key(&PageId(3)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scrub_file_repairs_from_wal_sidecar() {
        let db = temp_path("sidecar.db");
        let wal_path = wal_sidecar(&db);
        let (a, off);
        {
            let mut s = FilePageStore::create(&db, 64).unwrap();
            a = s.allocate().unwrap();
            s.write(a, &[0x77; 64]).unwrap();
            s.sync().unwrap();
            off = s.data_offset(a);
        }
        // A committed WAL batch covering the page (as if the batch had
        // not been checkpointed yet).
        {
            let mut wal = Wal::create(&wal_path, 64).unwrap();
            wal.append_batch(&[LogRecord::PageImage {
                page: a,
                data: vec![0x77; 64].into_boxed_slice(),
            }])
            .unwrap();
        }
        flip_bit(&db, off + 5);
        let report = scrub_file(&db).unwrap();
        assert_eq!(report.repaired, 1);
        assert_eq!(report.quarantined, 0);
        // And a second pass is clean.
        assert!(scrub_file(&db).unwrap().is_clean());
        std::fs::remove_file(&db).ok();
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn mem_store_scrubs_clean() {
        let mut s = MemPageStore::new(64).unwrap();
        let p = s.allocate().unwrap();
        s.write(p, &[1u8; 64]).unwrap();
        let report = scrub(&mut s, &BTreeMap::new()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.pages, vec![(p, PageStatus::Clean)]);
    }
}
