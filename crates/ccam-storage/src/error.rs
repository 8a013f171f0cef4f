//! Error type shared by all storage-layer operations.

use std::fmt;

use crate::page::PageId;

/// Result alias used throughout the storage layer.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by page stores, slotted pages and the buffer manager.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A page id outside the allocated range (or a freed page) was accessed.
    InvalidPage(PageId),
    /// A record is too large to ever fit in a page of the configured size.
    RecordTooLarge {
        /// Size of the record the caller tried to store.
        record: usize,
        /// Maximum record payload a page of this file can hold.
        max: usize,
    },
    /// The page has no room for the record (caller should split/allocate).
    PageFull {
        /// Bytes needed, including slot-directory overhead.
        needed: usize,
        /// Bytes available after compaction.
        available: usize,
    },
    /// A slot id that does not refer to a live record.
    InvalidSlot(u16),
    /// The on-disk file is not a valid page file (bad magic / geometry).
    Corrupt(String),
    /// A page's stored CRC32 does not match its contents — the page
    /// bit-rotted, was torn, or a write was misdirected. Surfaced only by
    /// checksummed (v2) page files; see `FilePageStore`.
    ChecksumMismatch {
        /// The page that failed verification.
        page: PageId,
        /// Checksum stored in the page trailer.
        stored: u32,
        /// Checksum computed over the page contents just read.
        computed: u32,
    },
    /// Requested page size is unsupported (too small or not a power of two).
    BadPageSize(usize),
    /// A durable store hit an I/O failure mid-batch and refuses further
    /// mutations until rolled back or recovered (see `WalStore`).
    Poisoned,
    /// The underlying device is out of space (`ENOSPC` or a short write).
    /// Typed separately from [`StorageError::Io`] so callers can abort the
    /// in-flight operation gracefully — the file stays consistent and the
    /// buffer pool drops the aborted transaction's dirty frames — instead
    /// of treating a full disk as a transient fault to retry.
    NoSpace,
    /// A mutation was attempted through a read-only snapshot store
    /// (see `snapshot::SnapshotStore`); snapshots serve one pinned
    /// committed generation and never accept writes.
    ReadOnlySnapshot,
    /// A snapshot was asked of a store stack with no write-ahead log.
    /// Snapshots fork the log's mirror of its committed pages
    /// (`WalStore::snapshot`); without a log there is none.
    NoLog,
}

impl StorageError {
    /// Stable machine-readable name of this error's kind, for per-kind
    /// metrics and logs (`serve.internal_errors.<kind>` and friends).
    /// One lowercase token per variant; append-only.
    pub fn kind(&self) -> &'static str {
        match self {
            StorageError::Io(_) => "io",
            StorageError::InvalidPage(_) => "invalid_page",
            StorageError::RecordTooLarge { .. } => "record_too_large",
            StorageError::PageFull { .. } => "page_full",
            StorageError::InvalidSlot(_) => "invalid_slot",
            StorageError::Corrupt(_) => "corrupt",
            StorageError::ChecksumMismatch { .. } => "checksum_mismatch",
            StorageError::BadPageSize(_) => "bad_page_size",
            StorageError::Poisoned => "poisoned",
            StorageError::NoSpace => "no_space",
            StorageError::ReadOnlySnapshot => "read_only_snapshot",
            StorageError::NoLog => "no_log",
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::InvalidPage(p) => write!(f, "invalid page id {p:?}"),
            StorageError::RecordTooLarge { record, max } => {
                write!(f, "record of {record} bytes exceeds page capacity {max}")
            }
            StorageError::PageFull { needed, available } => {
                write!(f, "page full: need {needed} bytes, {available} available")
            }
            StorageError::InvalidSlot(s) => write!(f, "invalid slot {s}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt page file: {msg}"),
            StorageError::ChecksumMismatch {
                page,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch on page {page:?}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            StorageError::BadPageSize(s) => write!(f, "unsupported page size {s}"),
            StorageError::Poisoned => {
                write!(
                    f,
                    "store poisoned by an earlier I/O failure; roll back or recover"
                )
            }
            StorageError::NoSpace => write!(f, "no space left on device"),
            StorageError::ReadOnlySnapshot => {
                write!(f, "mutation attempted through a read-only snapshot")
            }
            StorageError::NoLog => {
                write!(f, "the store has no write-ahead log to snapshot")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        // ENOSPC (28) and short writes (WriteZero from write_all) both mean
        // the device ran out of room; surface them as the typed variant.
        if e.raw_os_error() == Some(28) || e.kind() == std::io::ErrorKind::WriteZero {
            return StorageError::NoSpace;
        }
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = StorageError::PageFull {
            needed: 128,
            available: 64,
        };
        assert!(e.to_string().contains("128"));
        assert!(e.to_string().contains("64"));
        let e = StorageError::RecordTooLarge {
            record: 9000,
            max: 1000,
        };
        assert!(e.to_string().contains("9000"));
    }

    #[test]
    fn enospc_and_short_writes_map_to_no_space() {
        let enospc = std::io::Error::from_raw_os_error(28);
        assert!(matches!(StorageError::from(enospc), StorageError::NoSpace));
        let short = std::io::Error::new(std::io::ErrorKind::WriteZero, "short write");
        assert!(matches!(StorageError::from(short), StorageError::NoSpace));
        assert!(StorageError::NoSpace.to_string().contains("no space"));
    }

    #[test]
    fn kind_names_are_stable_tokens() {
        assert_eq!(StorageError::NoSpace.kind(), "no_space");
        assert_eq!(StorageError::Poisoned.kind(), "poisoned");
        assert_eq!(StorageError::NoLog.kind(), "no_log");
        assert_eq!(StorageError::Io(std::io::Error::other("x")).kind(), "io");
        assert_eq!(
            StorageError::ChecksumMismatch {
                page: PageId(1),
                stored: 0,
                computed: 1,
            }
            .kind(),
            "checksum_mismatch"
        );
    }

    #[test]
    fn io_error_round_trips_through_from() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: StorageError = io.into();
        assert!(matches!(e, StorageError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
