//! Write-ahead log: an append-only file of CRC32-framed, LSN-stamped
//! records.
//!
//! The log is the durability substrate behind [`crate::WalStore`]: every
//! batch of page mutations is serialized into the log and fsynced
//! *before* any data page is touched, so a crash at an arbitrary instant
//! leaves either (a) no trace of the batch (commit marker missing — the
//! batch never happened) or (b) a fully replayable batch (commit marker
//! present — redo recovery completes it). Torn tails — a partial frame
//! left by a crash mid-append — are detected by length and CRC checks and
//! truncated away, never panicked on.
//!
//! ## File layout
//!
//! ```text
//! header (24 bytes):
//!   magic "CCAMWAL1" | page_size: u32 | start_lsn: u64 | crc32(bytes 8..20)
//! record frame (repeated):
//!   len: u32 | crc32(payload) | payload
//! payload:
//!   lsn: u64 | kind: u8 | body
//! ```
//!
//! Record kinds: page image (after-image of one data page), page
//! allocation, page free, commit marker, checkpoint marker. The header is
//! rewritten only by [`Wal::checkpoint`] (which truncates the record
//! area); appends never touch it, so a valid header stays valid across
//! any crash during normal appends.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::StorageResult;
use crate::page::PageId;

const WAL_MAGIC: &[u8; 8] = b"CCAMWAL1";
const HEADER_LEN: u64 = 24;
const FRAME_HEADER_LEN: usize = 8; // len + crc
const PAYLOAD_PREFIX_LEN: usize = 9; // lsn + kind

const KIND_PAGE_IMAGE: u8 = 1;
const KIND_ALLOC: u8 = 2;
const KIND_FREE: u8 = 3;
const KIND_COMMIT: u8 = 4;
const KIND_CHECKPOINT: u8 = 5;

// ---------------------------------------------------------------------------
// CRC32 (IEEE), slice-by-16 — kept safe and dependency-free on purpose.
// ---------------------------------------------------------------------------

/// The classic bytewise table: entry `i` is the CRC register after
/// feeding byte `i` into a zero register.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Slice-by-16 tables: `t[0]` is [`crc32_table`], and `t[k][i]` is the
/// register after byte `i` followed by `k` zero bytes, so the sixteen
/// bytes of one step fold independently and are XORed together.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    t[0] = crc32_table();
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 16 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// The CRC register update over `data` (no pre/post inversion): sixteen
/// bytes per step, the remainder one byte at a time through `t[0]`.
fn crc32_raw(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("chunks_exact yields 16 bytes");
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xff) as usize]
            ^ t[14][((x >> 8) & 0xff) as usize]
            ^ t[13][((x >> 16) & 0xff) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = (c >> 8) ^ t[0][((c ^ b as u32) & 0xff) as usize];
    }
    c
}

/// IEEE CRC32 of `data` (the checksum framing every log record).
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_raw(!0u32, data)
}

/// Continues a CRC32 over more bytes: `crc32_extend(crc32(a), b)` equals
/// `crc32` of `a` followed by `b`. Lets callers checksum logically
/// concatenated buffers without copying them together (page data + page
/// id in the v2 page-file trailer).
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    !crc32_raw(!crc, data)
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One logical record in the write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// After-image of data page `page` (redo: write `data` to `page`).
    PageImage {
        /// The page the image belongs to.
        page: PageId,
        /// Full page contents (always `page_size` bytes).
        data: Box<[u8]>,
    },
    /// Page `page` was allocated (redo: materialize it zero-filled).
    Alloc {
        /// The allocated page.
        page: PageId,
    },
    /// Page `page` was freed (redo: return it to the freelist).
    Free {
        /// The freed page.
        page: PageId,
    },
    /// Commit marker: every record since the previous marker is durable
    /// as one atomic batch.
    Commit,
    /// Checkpoint marker: all earlier batches are known durable in the
    /// data file (written right after the log is truncated).
    Checkpoint,
}

impl LogRecord {
    fn kind(&self) -> u8 {
        match self {
            LogRecord::PageImage { .. } => KIND_PAGE_IMAGE,
            LogRecord::Alloc { .. } => KIND_ALLOC,
            LogRecord::Free { .. } => KIND_FREE,
            LogRecord::Commit => KIND_COMMIT,
            LogRecord::Checkpoint => KIND_CHECKPOINT,
        }
    }
}

/// A parsed record together with the log sequence number it was stamped
/// with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampedRecord {
    /// Monotonic log sequence number.
    pub lsn: u64,
    /// The record itself.
    pub record: LogRecord,
}

fn parse_record(page_size: usize, kind: u8, body: &[u8]) -> Option<LogRecord> {
    match kind {
        KIND_PAGE_IMAGE => {
            if body.len() != 4 + page_size {
                return None;
            }
            let page = PageId(u32::from_le_bytes(body[0..4].try_into().unwrap()));
            Some(LogRecord::PageImage {
                page,
                data: body[4..].to_vec().into_boxed_slice(),
            })
        }
        KIND_ALLOC | KIND_FREE => {
            if body.len() != 4 {
                return None;
            }
            let page = PageId(u32::from_le_bytes(body.try_into().unwrap()));
            Some(match kind {
                KIND_ALLOC => LogRecord::Alloc { page },
                _ => LogRecord::Free { page },
            })
        }
        KIND_COMMIT if body.is_empty() => Some(LogRecord::Commit),
        KIND_CHECKPOINT if body.is_empty() => Some(LogRecord::Checkpoint),
        _ => None,
    }
}

/// Walks record frames in `buf` (the record area, header excluded)
/// starting at expected LSN `start_lsn`, stopping at EOF or the first
/// torn/stale/malformed frame. Returns the well-formed records plus the
/// byte offset the scan stopped at.
fn scan_frames(buf: &[u8], start_lsn: u64, page_size: usize) -> (Vec<StampedRecord>, usize) {
    let mut records = Vec::new();
    let mut off = 0usize;
    let mut last_lsn = start_lsn.saturating_sub(1);
    let max_payload = page_size + 64;
    while buf.len() - off >= FRAME_HEADER_LEN {
        let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[off + 4..off + 8].try_into().unwrap());
        if len < PAYLOAD_PREFIX_LEN || len > max_payload || buf.len() - off - FRAME_HEADER_LEN < len
        {
            break; // torn tail
        }
        let payload = &buf[off + FRAME_HEADER_LEN..off + FRAME_HEADER_LEN + len];
        if crc32(payload) != crc {
            break; // torn tail
        }
        let lsn = u64::from_le_bytes(payload[0..8].try_into().unwrap());
        if lsn <= last_lsn {
            break; // stale bytes from an older log generation
        }
        let Some(record) = parse_record(page_size, payload[8], &payload[9..]) else {
            break; // unknown kind / malformed body: treat as torn
        };
        last_lsn = lsn;
        records.push(StampedRecord { lsn, record });
        off += FRAME_HEADER_LEN + len;
    }
    (records, off)
}

// ---------------------------------------------------------------------------
// The log file
// ---------------------------------------------------------------------------

/// Handle to an append-only write-ahead log file.
///
/// Appends are batched: [`Wal::append_batch`] serializes a whole group of
/// records (plus its trailing [`LogRecord::Commit`]) into one buffer,
/// writes it with a single syscall and one fsync — group commit.
pub struct Wal {
    file: File,
    path: PathBuf,
    page_size: usize,
    next_lsn: u64,
    /// Current end-of-log offset (records append here).
    end: u64,
    /// LSN of the first record in the retained tail (the header's
    /// `start_lsn`). Records with lower LSNs have been truncated away by
    /// a checkpoint and can no longer be streamed.
    tail_start_lsn: u64,
    /// Lifetime counters, for experiments attributing WAL overhead.
    commits: u64,
    bytes_appended: u64,
    checkpoints: u64,
    syncs: u64,
}

/// What [`Wal::open`] found in an existing log.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Well-formed records, in log order (the torn tail excluded).
    pub records: Vec<StampedRecord>,
    /// Bytes of torn/garbage tail that were truncated away.
    pub truncated_bytes: u64,
    /// True when the header itself was damaged and reinitialized (only
    /// possible after a crash mid-checkpoint, when the data file is
    /// already fully durable).
    pub reset_header: bool,
}

impl Wal {
    /// Creates a fresh, empty log at `path` (truncating any existing
    /// file), for `page_size`-byte data pages.
    pub fn create(path: &Path, page_size: usize) -> StorageResult<Wal> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut wal = Wal {
            file,
            path: path.to_path_buf(),
            page_size,
            next_lsn: 1,
            end: HEADER_LEN,
            tail_start_lsn: 1,
            commits: 0,
            bytes_appended: 0,
            checkpoints: 0,
            syncs: 0,
        };
        wal.write_header()?;
        wal.fsync()?;
        Ok(wal)
    }

    /// Opens the log at `path`, scanning every record and truncating any
    /// torn tail. A missing file is created empty; a file whose header is
    /// unreadable (possible only after a crash mid-checkpoint, by which
    /// point the data file holds everything) is reinitialized.
    pub fn open(path: &Path, page_size: usize) -> StorageResult<(Wal, WalScan)> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.metadata()?.len();
        let mut wal = Wal {
            file,
            path: path.to_path_buf(),
            page_size,
            next_lsn: 1,
            end: HEADER_LEN,
            tail_start_lsn: 1,
            commits: 0,
            bytes_appended: 0,
            checkpoints: 0,
            syncs: 0,
        };
        let mut scan = WalScan::default();

        let start_lsn = match wal.read_header(file_len) {
            Some(lsn) => lsn,
            None => {
                // Torn or absent header: reinitialize. Appends never touch
                // the header, so this only happens when no record has been
                // written since the last checkpoint.
                scan.reset_header = true;
                scan.truncated_bytes = file_len.saturating_sub(HEADER_LEN);
                wal.file.set_len(0)?;
                wal.end = HEADER_LEN;
                wal.write_header()?;
                wal.fsync()?;
                return Ok((wal, scan));
            }
        };
        wal.next_lsn = start_lsn;
        wal.tail_start_lsn = start_lsn;

        // Scan record frames until EOF or the first damaged frame.
        let mut buf = Vec::new();
        wal.file.seek(SeekFrom::Start(HEADER_LEN))?;
        wal.file.read_to_end(&mut buf)?;
        let (records, off) = scan_frames(&buf, start_lsn, wal.page_size);
        let last_lsn = records
            .last()
            .map(|r| r.lsn)
            .unwrap_or(start_lsn.saturating_sub(1));
        scan.records = records;

        wal.end = HEADER_LEN + off as u64;
        scan.truncated_bytes = file_len.saturating_sub(wal.end);
        if file_len > wal.end {
            wal.file.set_len(wal.end)?;
            wal.fsync()?;
        }
        wal.next_lsn = last_lsn + 1;
        Ok((wal, scan))
    }

    /// `fdatasync` of the log file, counted in [`Wal::sync_count`].
    fn fsync(&mut self) -> StorageResult<()> {
        self.file.sync_data()?;
        self.syncs += 1;
        Ok(())
    }

    fn write_header(&mut self) -> StorageResult<()> {
        let mut h = [0u8; HEADER_LEN as usize];
        h[0..8].copy_from_slice(WAL_MAGIC);
        h[8..12].copy_from_slice(&(self.page_size as u32).to_le_bytes());
        h[12..20].copy_from_slice(&self.next_lsn.to_le_bytes());
        let crc = crc32(&h[8..20]);
        h[20..24].copy_from_slice(&crc.to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&h)?;
        Ok(())
    }

    /// Returns the start LSN on success, `None` when the header is torn,
    /// short, or carries the wrong magic/page size.
    fn read_header(&mut self, file_len: u64) -> Option<u64> {
        if file_len < HEADER_LEN {
            return None;
        }
        let mut h = [0u8; HEADER_LEN as usize];
        self.file.seek(SeekFrom::Start(0)).ok()?;
        self.file.read_exact(&mut h).ok()?;
        if &h[0..8] != WAL_MAGIC {
            return None;
        }
        let crc = u32::from_le_bytes(h[20..24].try_into().unwrap());
        if crc32(&h[8..20]) != crc {
            return None;
        }
        let page_size = u32::from_le_bytes(h[8..12].try_into().unwrap()) as usize;
        if page_size != self.page_size {
            return None;
        }
        Some(u64::from_le_bytes(h[12..20].try_into().unwrap()))
    }

    fn encode_into(&mut self, out: &mut Vec<u8>, record: &LogRecord) {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let mut payload = Vec::with_capacity(PAYLOAD_PREFIX_LEN + self.page_size);
        payload.extend_from_slice(&lsn.to_le_bytes());
        payload.push(record.kind());
        match record {
            LogRecord::PageImage { page, data } => {
                debug_assert_eq!(data.len(), self.page_size);
                payload.extend_from_slice(&page.0.to_le_bytes());
                payload.extend_from_slice(data);
            }
            LogRecord::Alloc { page } | LogRecord::Free { page } => {
                payload.extend_from_slice(&page.0.to_le_bytes());
            }
            LogRecord::Commit | LogRecord::Checkpoint => {}
        }
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }

    /// Appends `records` plus a trailing [`LogRecord::Commit`] as one
    /// contiguous write followed by one fsync (group commit). On return,
    /// the batch is durable.
    pub fn append_batch(&mut self, records: &[LogRecord]) -> StorageResult<()> {
        let mut buf = Vec::new();
        for r in records {
            self.encode_into(&mut buf, r);
        }
        self.encode_into(&mut buf, &LogRecord::Commit);
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&buf)?;
        self.fsync()?;
        self.end += buf.len() as u64;
        self.bytes_appended += buf.len() as u64;
        self.commits += 1;
        Ok(())
    }

    /// Checkpoints the log: called once every logged batch is known
    /// durable in the data file. Truncates the record area, persists the
    /// running LSN in the header (LSNs stay monotonic across
    /// checkpoints), and writes a fresh [`LogRecord::Checkpoint`] marker.
    pub fn checkpoint(&mut self) -> StorageResult<()> {
        self.file.set_len(HEADER_LEN)?;
        self.end = HEADER_LEN;
        self.write_header()?;
        // The header just persisted `next_lsn` as the new start; the
        // checkpoint marker below is stamped with exactly that LSN, so it
        // is the first record of the retained tail.
        self.tail_start_lsn = self.next_lsn;
        let mut buf = Vec::new();
        self.encode_into(&mut buf, &LogRecord::Checkpoint);
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&buf)?;
        self.fsync()?;
        self.end += buf.len() as u64;
        self.checkpoints += 1;
        Ok(())
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Page size the log frames its page images with.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Next LSN to be stamped.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// LSN of the first record still present in the log's record area.
    /// A reader that has applied everything up to LSN `L` can be served
    /// from this log iff `L + 1 >= tail_start_lsn`; otherwise the bytes
    /// it needs were reclaimed by a checkpoint.
    pub fn tail_start_lsn(&self) -> u64 {
        self.tail_start_lsn
    }

    /// Re-reads the retained record area and returns every well-formed
    /// record with `lsn > after`, in log order. The scan applies the same
    /// framing checks as [`Wal::open`], so a torn in-flight tail (never
    /// present here in practice — appends are single atomic writes under
    /// the store lock) is simply excluded.
    pub fn records_after(&mut self, after: u64) -> StorageResult<Vec<StampedRecord>> {
        let mut buf = Vec::new();
        self.file.seek(SeekFrom::Start(HEADER_LEN))?;
        let record_area = (self.end - HEADER_LEN) as usize;
        buf.resize(record_area, 0);
        self.file.read_exact(&mut buf)?;
        let (mut records, _) = scan_frames(&buf, self.tail_start_lsn, self.page_size);
        records.retain(|r| r.lsn > after);
        Ok(records)
    }

    /// Current log file length in bytes (header included).
    pub fn len(&self) -> u64 {
        self.end
    }

    /// True when the log holds no records beyond the header/checkpoint
    /// marker. A freshly checkpointed log contains exactly one bodyless
    /// [`LogRecord::Checkpoint`] frame and still counts as empty.
    pub fn is_empty(&self) -> bool {
        self.end <= HEADER_LEN + (FRAME_HEADER_LEN + PAYLOAD_PREFIX_LEN) as u64
    }

    /// Commit batches appended over this handle's lifetime.
    pub fn commit_count(&self) -> u64 {
        self.commits
    }

    /// Record bytes appended over this handle's lifetime.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Checkpoints taken over this handle's lifetime.
    pub fn checkpoint_count(&self) -> u64 {
        self.checkpoints
    }

    /// `fdatasync`s of the log file over this handle's lifetime: one per
    /// [`Wal::append_batch`], one per [`Wal::checkpoint`], plus those of
    /// creating the file or cutting a torn tail at open.
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }
}

/// Sidecar log path conventionally paired with data file `db`:
/// `<db>.wal` (extension appended, not replaced, so `net.db` maps to
/// `net.db.wal`).
pub fn wal_sidecar(db: &Path) -> PathBuf {
    let mut name = db.as_os_str().to_os_string();
    name.push(".wal");
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ccam-wal-test-{}-{}", std::process::id(), name));
        p
    }

    /// The bytewise table CRC the slice-by-16 kernel replaced: one
    /// lookup per byte, the oracle the kernel must agree with.
    fn crc32_bytewise(mut c: u32, data: &[u8]) -> u32 {
        const TABLE: [u32; 256] = crc32_table();
        for &b in data {
            c = (c >> 8) ^ TABLE[((c ^ b as u32) & 0xff) as usize];
        }
        c
    }

    /// `n` seeded pseudo-random bytes (xorshift64).
    fn random_bytes(n: usize, mut state: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Computed by the bytewise CRC that page files and logs were
        // stamped with before the slice-by-16 kernel: they pin the
        // on-disk format, so a file from then still verifies.
        assert_eq!(crc32(&[0x5a; 1024]), 0xA9DA_8AA6);
        let mut page: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        page.extend_from_slice(&7u32.to_le_bytes());
        assert_eq!(crc32(&page), 0xF6BB_9C07);
    }

    #[test]
    fn slice_by_16_kernel_equals_the_bytewise_oracle() {
        let mut lengths: Vec<usize> = (0..=64).chain((65..=4104).step_by(7)).collect();
        for edge in [512, 1024, 2048, 4096] {
            lengths.extend([edge - 1, edge, edge + 1]);
        }
        let max_len = *lengths.iter().max().unwrap();
        let buf = random_bytes(16 + max_len, 0x9E37_79B9_7F4A_7C15);
        for seed in [0u32, !0, 0x1BAD_CAFE] {
            for offset in 0..16 {
                let data = &buf[offset..offset + max_len];
                // The oracle's register after every prefix, in one pass.
                let mut prefix = Vec::with_capacity(max_len + 1);
                prefix.push(seed);
                for i in 0..max_len {
                    prefix.push(crc32_bytewise(prefix[i], &data[i..=i]));
                }
                for &len in &lengths {
                    assert_eq!(
                        crc32_raw(seed, &data[..len]),
                        prefix[len],
                        "seed {seed:#x}, offset {offset}, length {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn crc32_extend_continues_at_every_split() {
        let buf = random_bytes(1100, 0xC0FF_EE00_D15E_A5E5);
        let whole = crc32(&buf);
        assert_eq!(whole, !crc32_bytewise(!0, &buf));
        for split in 0..=buf.len() {
            let (a, b) = buf.split_at(split);
            assert_eq!(crc32_extend(crc32(a), b), whole, "split at {split}");
        }
    }

    #[test]
    fn batch_round_trips_through_reopen() {
        let path = temp_path("roundtrip");
        let records = vec![
            LogRecord::Alloc { page: PageId(0) },
            LogRecord::PageImage {
                page: PageId(0),
                data: vec![7u8; 64].into_boxed_slice(),
            },
            LogRecord::Free { page: PageId(3) },
        ];
        {
            let mut wal = Wal::create(&path, 64).unwrap();
            wal.append_batch(&records).unwrap();
        }
        let (wal, scan) = Wal::open(&path, 64).unwrap();
        assert_eq!(scan.truncated_bytes, 0);
        assert!(!scan.reset_header);
        let got: Vec<LogRecord> = scan.records.iter().map(|r| r.record.clone()).collect();
        assert_eq!(&got[..3], &records[..]);
        assert_eq!(got[3], LogRecord::Commit);
        // LSNs are dense and monotonic.
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r.lsn, 1 + i as u64);
        }
        assert_eq!(wal.next_lsn(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = temp_path("torn");
        {
            let mut wal = Wal::create(&path, 64).unwrap();
            wal.append_batch(&[LogRecord::Alloc { page: PageId(1) }])
                .unwrap();
        }
        // Simulate a crash mid-append: garbage half-frame at the tail.
        let intact = std::fs::metadata(&path).unwrap().len();
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x01]).unwrap();
        }
        let (wal, scan) = Wal::open(&path, 64).unwrap();
        assert_eq!(scan.truncated_bytes, 5);
        assert_eq!(scan.records.len(), 2); // Alloc + Commit
        assert_eq!(wal.len(), intact);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_record_crc_truncates_from_there() {
        let path = temp_path("crc");
        {
            let mut wal = Wal::create(&path, 64).unwrap();
            wal.append_batch(&[LogRecord::Alloc { page: PageId(1) }])
                .unwrap();
            wal.append_batch(&[LogRecord::Alloc { page: PageId(2) }])
                .unwrap();
        }
        // Flip one byte inside the second batch's first record payload.
        let len = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        let second_batch_payload = len as usize - 30; // inside the last two frames
        bytes[second_batch_payload] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let (_, scan) = Wal::open(&path, 64).unwrap();
        // First batch intact; everything at/after the flipped byte gone.
        assert!(scan.records.len() >= 2);
        assert!(scan.records.len() < 4);
        assert_eq!(scan.records[0].record, LogRecord::Alloc { page: PageId(1) });
        assert_eq!(scan.records[1].record, LogRecord::Commit);
        assert!(scan.truncated_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_resets_to_empty_log() {
        let path = temp_path("header");
        std::fs::write(&path, b"short").unwrap();
        let (wal, scan) = Wal::open(&path, 64).unwrap();
        assert!(scan.reset_header);
        assert!(scan.records.is_empty());
        assert!(wal.is_empty());
        // And the reset log is immediately usable.
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_truncates_and_keeps_lsn_monotonic() {
        let path = temp_path("ckpt");
        let lsn_after;
        {
            let mut wal = Wal::create(&path, 64).unwrap();
            wal.append_batch(&[LogRecord::Alloc { page: PageId(1) }])
                .unwrap();
            wal.checkpoint().unwrap();
            lsn_after = wal.next_lsn();
            assert!(lsn_after > 2);
        }
        let (wal, scan) = Wal::open(&path, 64).unwrap();
        // Only the checkpoint marker survives.
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].record, LogRecord::Checkpoint);
        assert_eq!(wal.next_lsn(), lsn_after);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_after_filters_by_lsn_and_tracks_tail() {
        let path = temp_path("records-after");
        let mut wal = Wal::create(&path, 64).unwrap();
        assert_eq!(wal.tail_start_lsn(), 1);
        wal.append_batch(&[LogRecord::Alloc { page: PageId(1) }])
            .unwrap(); // LSNs 1 (Alloc), 2 (Commit)
        wal.append_batch(&[LogRecord::Free { page: PageId(1) }])
            .unwrap(); // LSNs 3 (Free), 4 (Commit)

        let all = wal.records_after(0).unwrap();
        assert_eq!(all.len(), 4);
        let tail = wal.records_after(2).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].lsn, 3);
        assert_eq!(tail[0].record, LogRecord::Free { page: PageId(1) });
        assert_eq!(tail[1].record, LogRecord::Commit);
        assert!(wal.records_after(4).unwrap().is_empty());

        // Checkpoint reclaims the tail; only the marker survives and the
        // retained floor advances to its LSN.
        wal.checkpoint().unwrap();
        assert_eq!(wal.tail_start_lsn(), 5);
        let after_ckpt = wal.records_after(0).unwrap();
        assert_eq!(after_ckpt.len(), 1);
        assert_eq!(after_ckpt[0].lsn, 5);
        assert_eq!(after_ckpt[0].record, LogRecord::Checkpoint);

        // Reopen restores the floor from the header.
        drop(wal);
        let (wal, _) = Wal::open(&path, 64).unwrap();
        assert_eq!(wal.tail_start_lsn(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sidecar_appends_extension() {
        assert_eq!(
            wal_sidecar(Path::new("/tmp/net.db")),
            PathBuf::from("/tmp/net.db.wal")
        );
        assert_eq!(wal_sidecar(Path::new("db")), PathBuf::from("db.wal"));
    }
}
