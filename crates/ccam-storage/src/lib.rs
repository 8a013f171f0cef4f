#![warn(missing_docs)]

//! Paged storage substrate for the CCAM reproduction.
//!
//! This crate provides everything below the access-method layer:
//!
//! * [`page`] — page identifiers and block-size constants,
//! * [`slotted`] — slotted pages holding variable-length records (node
//!   records "do not have fixed formats, since the size of the
//!   successor-list and predecessor-list varies across nodes", paper §2.1),
//! * [`store`] — the [`PageStore`] abstraction (ten page-I/O methods and
//!   one accessor, [`PageStore::wal`], through which a stack's log
//!   answers as a [`WalControl`]) with an in-memory and a file-backed
//!   implementation,
//! * [`buffer`] — an LRU buffer manager that counts data-page accesses,
//! * [`stats`] — shared I/O counters used by every experiment (the paper
//!   reports "the number of data pages accessed", §4), plus opt-in
//!   per-operation profiling spans,
//! * [`metrics`] — a named-metric registry (counters / gauges /
//!   histograms) with a dependency-free JSON dump, the per-operation
//!   [`OpProfile`] page-access traces the spans produce, and [`Json`],
//!   the one JSON writer every report uses,
//! * [`wal`], [`durable`], [`recovery`] — an opt-in write-ahead log:
//!   [`WalStore`] wraps any [`PageStore`], turns `sync()` into an atomic
//!   commit point, and replays the log on reopen so a crash at an
//!   arbitrary instant never tears a multi-page update,
//! * [`retry`] — [`RetryStore`] absorbs transient faults with bounded
//!   attempts and deterministic exponential backoff,
//! * [`integrity`] — [`scrub`] verifies every page's
//!   CRC32 (v2 page files), repairs damage from committed WAL images and
//!   reports what must be quarantined,
//! * [`testing`] — [`FaultStore`], the one fault injector every harness
//!   stacks (operation counts, stalls, an error switch, page rot, seeded
//!   glitches, `ENOSPC`, power cuts with torn writes — one
//!   [`FaultController`], one documented evaluation order), and the
//!   [`SweepRng`] workload generator.
//!
//! The access methods in `ccam-core` never touch a [`PageStore`] directly;
//! all page traffic flows through a [`BufferPool`] so that the experiments
//! can attribute every physical page fetch to the operation that caused it.

pub mod buffer;
pub mod durable;
pub mod error;
pub mod integrity;
pub mod metrics;
pub mod page;
pub mod recovery;
pub mod retry;
pub mod slotted;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod testing;
pub mod wal;

pub use buffer::{BufferPool, Prefetcher};
pub use durable::{
    ReplFeed, ReplImage, ReplImageState, RetentionSlot, WalRetention, WalStore,
    DEFAULT_MAX_WAL_BYTES,
};
pub use error::{StorageError, StorageResult};
pub use integrity::{committed_images, scrub, scrub_file, PageStatus, ScrubReport};
pub use metrics::{Histogram, Json, MetricsRegistry, OpProfile, PageAccessKind, PageEvent};
pub use page::{PageId, BLOCK_1K, BLOCK_2K, BLOCK_4K, BLOCK_512, MIN_PAGE_SIZE};
pub use recovery::{apply_image, apply_segment, RecoveryReport, SegmentApply};
pub use retry::{RetryPolicy, RetryStore};
pub use slotted::{SlotId, SlottedPage, SlottedView};
pub use snapshot::SnapshotStore;
pub use stats::{IoSnapshot, IoStats, OpSpan};
pub use store::{FilePageStore, MemPageStore, PageStore, WalControl, WalInfo};
pub use testing::{FaultController, FaultStore, SweepRng, TornWrite};
pub use wal::{wal_sidecar, LogRecord, StampedRecord, Wal};
