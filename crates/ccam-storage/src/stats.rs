//! Shared I/O counters and per-operation profiling spans.
//!
//! The paper's experiments report "the number of data pages accessed" for
//! each operation (§4). [`IoStats`] is the single source of truth for that
//! number: the buffer pool bumps `physical_reads` on every miss and
//! `buffer_hits` on every hit, and the experiment harness snapshots /
//! subtracts around each measured operation.
//!
//! On top of the counters sits opt-in *operation profiling*: with
//! [`IoStats::set_profiling`] enabled, every access-method entry point
//! opens an [`OpSpan`] and the buffer pool attributes each page event
//! (`hit` / `miss` / `write`, with its page id) to the innermost-open
//! top-level span, yielding one [`OpProfile`] per operation — the
//! observable counterpart of the `costmodel` predictions. Profiling off
//! costs one relaxed atomic load per page access.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{OpProfile, PageAccessKind, PageEvent};
use crate::page::PageId;
use crate::sync::lock;

/// Monotonic I/O counters, cheap to share between the buffer pool and the
/// measurement harness.
#[derive(Default)]
pub struct IoStats {
    physical_reads: AtomicU64,
    physical_writes: AtomicU64,
    buffer_hits: AtomicU64,
    allocations: AtomicU64,
    frees: AtomicU64,
    syncs: AtomicU64,
    retries: AtomicU64,
    checksum_failures: AtomicU64,
    evictions: AtomicU64,
    prefetch_issued: AtomicU64,
    /// Fast-path switch for the profiler (checked on every page access).
    profiling: AtomicBool,
    profile: Mutex<ProfileState>,
}

/// Profiler state: operation spans may nest (e.g. `get_successors` calls
/// `find`); only the outermost span records, and events are attributed
/// to it.
#[derive(Debug, Default)]
struct ProfileState {
    depth: u32,
    current: Option<OpenOp>,
    done: Vec<OpProfile>,
}

#[derive(Debug)]
struct OpenOp {
    op: String,
    events: Vec<PageEvent>,
    before: IoSnapshot,
    started: Instant,
}

impl std::fmt::Debug for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoStats")
            .field("snapshot", &self.snapshot())
            .field("profiling", &self.profiling_enabled())
            .finish_non_exhaustive()
    }
}

/// A point-in-time copy of the counters, used to compute per-operation
/// deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Pages fetched from the store because they were not buffered.
    pub physical_reads: u64,
    /// Dirty pages written back to the store.
    pub physical_writes: u64,
    /// Page requests satisfied from the buffer pool.
    pub buffer_hits: u64,
    /// Pages allocated.
    pub allocations: u64,
    /// Pages freed.
    pub frees: u64,
    /// Store syncs — commit points when the store is a
    /// write-ahead-logged `WalStore`, so benches can attribute WAL
    /// overhead per operation.
    pub syncs: u64,
    /// Store operations re-issued by a `RetryStore` after a transient
    /// fault (one per extra attempt, not per faulted operation).
    pub retries: u64,
    /// Page reads that failed CRC32 verification (recorded by the buffer
    /// pool and by `RetryStore` when the store surfaces
    /// `ChecksumMismatch`).
    pub checksum_failures: u64,
    /// Frames evicted from the buffer pool (dirty or clean) to make room
    /// or satisfy a shrink/clear.
    pub evictions: u64,
    /// Pages speculatively read by the buffer pool's connectivity-aware
    /// prefetcher. Always zero with prefetch off (the default); prefetch
    /// reads also count as `physical_reads` — the accounting is honest,
    /// not free.
    pub prefetch_issued: u64,
}

impl IoSnapshot {
    /// Counter-wise difference `self - earlier`. Saturating: when
    /// [`IoStats::reset`] ran between the two snapshots, a counter in
    /// `self` may be *smaller* than in `earlier`; the delta clamps to
    /// zero instead of panicking (debug) or wrapping to ~2⁶⁴ (release).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            physical_reads: self.physical_reads.saturating_sub(earlier.physical_reads),
            physical_writes: self.physical_writes.saturating_sub(earlier.physical_writes),
            buffer_hits: self.buffer_hits.saturating_sub(earlier.buffer_hits),
            allocations: self.allocations.saturating_sub(earlier.allocations),
            frees: self.frees.saturating_sub(earlier.frees),
            syncs: self.syncs.saturating_sub(earlier.syncs),
            retries: self.retries.saturating_sub(earlier.retries),
            checksum_failures: self
                .checksum_failures
                .saturating_sub(earlier.checksum_failures),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            prefetch_issued: self.prefetch_issued.saturating_sub(earlier.prefetch_issued),
        }
    }

    /// Total page accesses in the paper's sense: data pages brought in from
    /// disk. Buffer hits are free by definition of the cost model (§3.2).
    pub fn data_page_accesses(&self) -> u64 {
        self.physical_reads
    }
}

impl IoStats {
    /// Creates a fresh, shareable counter set.
    pub fn new_shared() -> Arc<IoStats> {
        Arc::new(IoStats::default())
    }

    pub(crate) fn record_read(&self) {
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self) {
        self.physical_writes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_hit(&self) {
        self.buffer_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_alloc(&self) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_free(&self) {
        self.frees.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_sync(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_checksum_failure(&self) {
        self.checksum_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_prefetch(&self) {
        self.prefetch_issued.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            physical_writes: self.physical_writes.load(Ordering::Relaxed),
            buffer_hits: self.buffer_hits.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            checksum_failures: self.checksum_failures.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            prefetch_issued: self.prefetch_issued.load(Ordering::Relaxed),
        }
    }

    /// Snapshot-and-subtract in one step: the counter deltas accumulated
    /// since `before` (itself a [`IoStats::snapshot`]). The standard
    /// around-one-operation measurement idiom:
    ///
    /// ```ignore
    /// let before = pool.stats().snapshot();
    /// am.insert_node(&rec)?;
    /// let cost = pool.stats().delta_since(&before);
    /// ```
    pub fn delta_since(&self, before: &IoSnapshot) -> IoSnapshot {
        self.snapshot().since(before)
    }

    /// Resets every counter to zero (between experiment phases).
    pub fn reset(&self) {
        self.physical_reads.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.buffer_hits.store(0, Ordering::Relaxed);
        self.allocations.store(0, Ordering::Relaxed);
        self.frees.store(0, Ordering::Relaxed);
        self.syncs.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.checksum_failures.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.prefetch_issued.store(0, Ordering::Relaxed);
    }

    // -- operation profiling -------------------------------------------------

    /// Switches per-operation profiling on or off. Turning it off
    /// discards any open span and all collected profiles.
    pub fn set_profiling(&self, on: bool) {
        self.profiling.store(on, Ordering::Relaxed);
        if !on {
            *lock(&self.profile) = ProfileState::default();
        }
    }

    /// True when profiling is enabled.
    pub fn profiling_enabled(&self) -> bool {
        self.profiling.load(Ordering::Relaxed)
    }

    /// Opens an operation span named `op`. While the span guard lives,
    /// page events and counter deltas are attributed to the operation;
    /// dropping it finishes the [`OpProfile`]. Spans nest — only the
    /// outermost records (a `get_successors` internally issuing `find`s
    /// yields *one* profile). No-op (cheap) when profiling is off.
    pub fn span(self: Arc<Self>, op: &str) -> OpSpan {
        let active = self.profiling_enabled();
        if active {
            let before = self.snapshot();
            let mut st = lock(&self.profile);
            st.depth += 1;
            if st.depth == 1 {
                st.current = Some(OpenOp {
                    op: op.to_string(),
                    events: Vec::new(),
                    before,
                    started: Instant::now(),
                });
            }
        }
        OpSpan {
            stats: self,
            active,
        }
    }

    /// Attributes one page event to the open span, if any (called by the
    /// buffer pool next to the matching counter bump).
    pub(crate) fn record_page_event(&self, page: PageId, kind: PageAccessKind) {
        if !self.profiling.load(Ordering::Relaxed) {
            return;
        }
        let mut st = lock(&self.profile);
        if let Some(cur) = st.current.as_mut() {
            cur.events.push(PageEvent { page, kind });
        }
    }

    fn end_span(&self) {
        let after = self.snapshot();
        let mut st = lock(&self.profile);
        st.depth = st.depth.saturating_sub(1);
        if st.depth == 0 {
            if let Some(cur) = st.current.take() {
                let profile = OpProfile {
                    op: cur.op,
                    events: cur.events,
                    io: after.since(&cur.before),
                    elapsed_us: cur.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
                };
                st.done.push(profile);
            }
        }
    }

    /// Drains every finished operation profile collected so far.
    pub fn take_profiles(&self) -> Vec<OpProfile> {
        std::mem::take(&mut lock(&self.profile).done)
    }
}

/// Guard for one profiled operation (see [`IoStats::span`]); the profile
/// is finished when the guard drops.
#[must_use = "the span records until the guard is dropped"]
pub struct OpSpan {
    stats: Arc<IoStats>,
    active: bool,
}

impl Drop for OpSpan {
    fn drop(&mut self) {
        if self.active {
            self.stats.end_span();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = IoStats::new_shared();
        s.record_read();
        s.record_read();
        s.record_write();
        s.record_hit();
        s.record_alloc();
        s.record_free();
        let snap = s.snapshot();
        assert_eq!(snap.physical_reads, 2);
        assert_eq!(snap.physical_writes, 1);
        assert_eq!(snap.buffer_hits, 1);
        assert_eq!(snap.allocations, 1);
        assert_eq!(snap.frees, 1);
        assert_eq!(snap.data_page_accesses(), 2);
    }

    #[test]
    fn since_computes_deltas() {
        let s = IoStats::new_shared();
        s.record_read();
        let before = s.snapshot();
        s.record_read();
        s.record_read();
        s.record_hit();
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.physical_reads, 2);
        assert_eq!(delta.buffer_hits, 1);
        assert_eq!(delta.physical_writes, 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::new_shared();
        s.record_read();
        s.record_write();
        s.record_sync();
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn retry_and_checksum_counters_accumulate_and_reset() {
        let s = IoStats::new_shared();
        s.record_retry();
        s.record_retry();
        s.record_checksum_failure();
        let snap = s.snapshot();
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.checksum_failures, 1);
        let before = snap;
        s.record_retry();
        assert_eq!(s.delta_since(&before).retries, 1);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    /// Regression: `reset()` between two snapshots used to make `since`
    /// panic in debug (unchecked subtraction) and wrap to ~2⁶⁴ in
    /// release; it must saturate to zero instead.
    #[test]
    fn since_saturates_across_a_reset() {
        let s = IoStats::new_shared();
        s.record_read();
        s.record_read();
        s.record_write();
        let before = s.snapshot();
        s.reset();
        s.record_read();
        let d = s.delta_since(&before);
        assert_eq!(d.physical_reads, 0, "must clamp, not wrap");
        assert_eq!(d.physical_writes, 0);
        // The other direction still subtracts normally.
        s.record_read();
        let before = s.snapshot();
        s.record_read();
        assert_eq!(s.delta_since(&before).physical_reads, 1);
    }

    #[test]
    fn spans_collect_profiles_only_when_enabled() {
        use crate::metrics::PageAccessKind;
        let s = IoStats::new_shared();
        // Disabled: span is a no-op.
        drop(Arc::clone(&s).span("find"));
        assert!(s.take_profiles().is_empty());

        s.set_profiling(true);
        {
            let _g = Arc::clone(&s).span("find");
            s.record_read();
            s.record_page_event(crate::page::PageId(3), PageAccessKind::Miss);
        }
        let profiles = s.take_profiles();
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].op, "find");
        assert_eq!(profiles[0].io.physical_reads, 1);
        assert_eq!(profiles[0].trace_string(), "3:miss");
        assert!(s.take_profiles().is_empty(), "drained");
    }

    #[test]
    fn nested_spans_record_one_profile_for_the_outermost() {
        use crate::metrics::PageAccessKind;
        let s = IoStats::new_shared();
        s.set_profiling(true);
        {
            let _outer = Arc::clone(&s).span("get_successors");
            s.record_page_event(crate::page::PageId(1), PageAccessKind::Miss);
            {
                let _inner = Arc::clone(&s).span("find");
                s.record_page_event(crate::page::PageId(2), PageAccessKind::Hit);
            }
            s.record_page_event(crate::page::PageId(3), PageAccessKind::Write);
        }
        let profiles = s.take_profiles();
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].op, "get_successors");
        assert_eq!(profiles[0].trace_string(), "1:miss 2:hit 3:write");
    }

    #[test]
    fn disabling_profiling_discards_state() {
        let s = IoStats::new_shared();
        s.set_profiling(true);
        drop(Arc::clone(&s).span("find"));
        s.set_profiling(false);
        assert!(s.take_profiles().is_empty());
    }

    #[test]
    fn syncs_counted_and_delta_since_matches_manual_subtraction() {
        let s = IoStats::new_shared();
        s.record_sync();
        let before = s.snapshot();
        s.record_sync();
        s.record_read();
        assert_eq!(s.delta_since(&before), s.snapshot().since(&before));
        assert_eq!(s.delta_since(&before).syncs, 1);
        assert_eq!(s.snapshot().syncs, 2);
    }
}
