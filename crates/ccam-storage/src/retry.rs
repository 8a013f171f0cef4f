//! Bounded-attempt retry with deterministic exponential backoff.
//!
//! Transient faults — a glitched bus read, a momentary `EIO`, a page
//! whose checksum fails once and verifies on the next read — should be
//! absorbed below the access-method layer, not surfaced to every query.
//! [`RetryStore`] wraps any [`PageStore`] and re-issues failed operations
//! according to a [`RetryPolicy`]: at most `max_attempts` tries, with an
//! exponentially growing backoff between them.
//!
//! Backoff is expressed in abstract *ticks*, not wall-clock time: the
//! store reports each computed delay to a pluggable sleeper callback
//! (default: do nothing). Tests install a recording sleeper and assert
//! the exact delay sequence; production callers may translate ticks to
//! `Duration`s. Nothing in this module reads a clock, so retry behaviour
//! is fully deterministic.
//!
//! Only *transient-looking* errors are retried: [`StorageError::Io`] and
//! [`StorageError::ChecksumMismatch`] (a mismatch can be a one-off
//! glitch on the wire; a persistent mismatch keeps failing and is
//! surfaced after the attempt budget, at which point scrub/quarantine —
//! see [`crate::integrity`] — takes over). Logical errors such as
//! [`StorageError::InvalidPage`] fail immediately.
//!
//! # Jitter
//!
//! With [`RetryPolicy::jitter_seed`] set, each delay is drawn uniformly
//! from `[backoff/2, backoff]` using a seeded xorshift stream private to
//! the store. Concurrent workers retrying the same faulted page then
//! spread out instead of hammering it in lockstep (a retry storm re-fails
//! for all of them at once); with the seed unset the schedule stays
//! exactly the deterministic doubled sequence the tests assert.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{StorageError, StorageResult};
use crate::page::PageId;
use crate::stats::IoStats;
use crate::store::{PageStore, WalControl};

/// Retry budget and backoff schedule for a [`RetryStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in abstract ticks.
    pub base_delay_ticks: u64,
    /// Ceiling on any single backoff delay.
    pub max_delay_ticks: u64,
    /// `Some(seed)` jitters each delay uniformly into
    /// `[backoff/2, backoff]` from a seeded stream; `None` keeps the
    /// exact deterministic exponential sequence.
    pub jitter_seed: Option<u64>,
}

impl Default for RetryPolicy {
    /// Three attempts with delays of 1 and 2 ticks between them.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay_ticks: 1,
            max_delay_ticks: 64,
            jitter_seed: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (useful as an explicit "off" switch).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay_ticks: 0,
            max_delay_ticks: 0,
            jitter_seed: None,
        }
    }

    /// The same policy with jitter enabled under `seed`.
    pub fn with_jitter(self, seed: u64) -> Self {
        RetryPolicy {
            jitter_seed: Some(seed),
            ..self
        }
    }

    /// Backoff in ticks before retry number `retry` (1-based): the base
    /// delay doubled per retry, capped at `max_delay_ticks`.
    pub fn backoff(&self, retry: u32) -> u64 {
        let shifted = self.base_delay_ticks.saturating_mul(
            1u64.checked_shl(retry.saturating_sub(1))
                .unwrap_or(u64::MAX),
        );
        shifted.min(self.max_delay_ticks)
    }

    fn is_transient(err: &StorageError) -> bool {
        matches!(
            err,
            StorageError::Io(_) | StorageError::ChecksumMismatch { .. }
        )
    }
}

/// Callback invoked with each backoff delay (in ticks) before a retry.
pub type Sleeper = dyn Fn(u64) + Send + Sync;

/// A [`PageStore`] wrapper that retries transient failures with bounded
/// attempts and exponential backoff (see [`RetryPolicy`]).
///
/// Every extra attempt is counted in the shared [`IoStats`]
/// (`retries`); checksum mismatches observed along the way are counted
/// as `checksum_failures` even when a later attempt succeeds.
pub struct RetryStore<S: PageStore> {
    inner: S,
    policy: RetryPolicy,
    stats: Arc<IoStats>,
    sleeper: Box<Sleeper>,
    /// xorshift64* state for jittered delays; `None` when the policy has
    /// no jitter seed. Shared across readers so concurrent retries draw
    /// from one interleaved stream (which is what desynchronizes them).
    jitter: Option<Mutex<u64>>,
}

impl<S: PageStore> RetryStore<S> {
    /// Wraps `inner` with `policy`; backoff delays are computed but not
    /// acted on (no sleeping — ticks are abstract).
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        Self::with_sleeper(inner, policy, |_| {})
    }

    /// Like [`RetryStore::new`], but reports each backoff delay to
    /// `sleeper` (a test records them; a server might sleep).
    pub fn with_sleeper(
        inner: S,
        policy: RetryPolicy,
        sleeper: impl Fn(u64) + Send + Sync + 'static,
    ) -> Self {
        RetryStore {
            inner,
            policy,
            stats: IoStats::new_shared(),
            sleeper: Box::new(sleeper),
            // xorshift needs a nonzero state.
            jitter: policy.jitter_seed.map(|seed| Mutex::new(seed | 1)),
        }
    }

    /// The delay before retry `retry` (1-based): the policy's backoff,
    /// jittered into `[backoff/2, backoff]` when a jitter seed is set.
    fn delay(&self, retry: u32) -> u64 {
        let full = self.policy.backoff(retry);
        let Some(state) = &self.jitter else {
            return full;
        };
        let mut s = state.lock();
        let mut x = *s;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *s = x;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        full / 2 + r % (full / 2 + 1)
    }

    /// The policy this store retries under.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Shared counters recording retries and observed checksum failures.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Consumes the wrapper, returning the inner store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// After failed attempt number `attempt`: gives `err` back when it is
    /// final (budget spent, or not transient), otherwise backs off and
    /// counts the retry.
    fn back_off(&self, err: StorageError, attempt: &mut u32) -> StorageResult<()> {
        if matches!(err, StorageError::ChecksumMismatch { .. }) {
            self.stats.record_checksum_failure();
        }
        if *attempt >= self.policy.max_attempts || !RetryPolicy::is_transient(&err) {
            return Err(err);
        }
        (self.sleeper)(self.delay(*attempt));
        self.stats.record_retry();
        *attempt += 1;
        Ok(())
    }

    fn run<T>(&self, mut op: impl FnMut(&S) -> StorageResult<T>) -> StorageResult<T> {
        let mut attempt = 1;
        loop {
            match op(&self.inner) {
                Ok(v) => return Ok(v),
                Err(err) => self.back_off(err, &mut attempt)?,
            }
        }
    }

    fn run_mut<T>(&mut self, mut op: impl FnMut(&mut S) -> StorageResult<T>) -> StorageResult<T> {
        let mut attempt = 1;
        loop {
            match op(&mut self.inner) {
                Ok(v) => return Ok(v),
                Err(err) => self.back_off(err, &mut attempt)?,
            }
        }
    }
}

impl<S: PageStore> PageStore for RetryStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn allocate(&mut self) -> StorageResult<PageId> {
        self.run_mut(|s| s.allocate())
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        self.run(|s| s.read(id, buf))
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> StorageResult<()> {
        self.run_mut(|s| s.write(id, buf))
    }

    fn free(&mut self, id: PageId) -> StorageResult<()> {
        self.run_mut(|s| s.free(id))
    }

    fn is_live(&self, id: PageId) -> bool {
        self.inner.is_live(id)
    }

    fn sync(&mut self) -> StorageResult<()> {
        self.run_mut(|s| s.sync())
    }

    fn live_pages(&self) -> Vec<PageId> {
        self.inner.live_pages()
    }

    fn ensure_allocated(&mut self, id: PageId) -> StorageResult<()> {
        self.run_mut(|s| s.ensure_allocated(id))
    }

    // The log's controls pass straight through (rollback/checkpoint are
    // not retried: a failed rollback means the inner store is poisoned,
    // not glitched). NoSpace is likewise never transient — `is_transient`
    // only matches Io and ChecksumMismatch.
    fn wal(&mut self) -> Option<&mut dyn WalControl> {
        self.inner.wal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemPageStore;
    use crate::testing::FaultStore;
    use parking_lot::Mutex;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay_ticks: 3,
            max_delay_ticks: 20,
            jitter_seed: None,
        };
        assert_eq!(p.backoff(1), 3);
        assert_eq!(p.backoff(2), 6);
        assert_eq!(p.backoff(3), 12);
        assert_eq!(p.backoff(4), 20); // capped
        assert_eq!(p.backoff(63), 20);
    }

    #[test]
    fn transient_faults_are_absorbed_and_counted() {
        // The error switch keeps failing while armed, so disarm from the
        // sleeper after the second failure — models a two-op glitch
        // absorbed within a four-attempt budget.
        let (flaky, switch) = FaultStore::new(MemPageStore::new(64).unwrap());
        let sw = std::sync::Arc::clone(&switch);
        let fails = std::sync::atomic::AtomicU64::new(0);
        let mut s = RetryStore::with_sleeper(
            flaky,
            RetryPolicy {
                max_attempts: 4,
                base_delay_ticks: 1,
                max_delay_ticks: 8,
                jitter_seed: None,
            },
            move |_| {
                if fails.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1 >= 2 {
                    sw.disarm();
                }
            },
        );
        let p = s.allocate().unwrap();
        s.write(p, &[7u8; 64]).unwrap();
        switch.arm_after(0);
        let mut buf = [0u8; 64];
        s.read(p, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
        assert_eq!(s.stats().snapshot().retries, 2);
    }

    #[test]
    fn budget_exhaustion_surfaces_the_error() {
        let (flaky, switch) = FaultStore::new(MemPageStore::new(64).unwrap());
        let mut s = RetryStore::new(flaky, RetryPolicy::default());
        let p = s.allocate().unwrap();
        switch.arm_after(0); // fail forever
        let mut buf = [0u8; 64];
        assert!(matches!(s.read(p, &mut buf), Err(StorageError::Io(_))));
        // max_attempts = 3 ⇒ 2 retries recorded.
        assert_eq!(s.stats().snapshot().retries, 2);
    }

    #[test]
    fn logical_errors_fail_fast() {
        let s = RetryStore::new(MemPageStore::new(64).unwrap(), RetryPolicy::default());
        let mut buf = [0u8; 64];
        assert!(matches!(
            s.read(PageId(99), &mut buf),
            Err(StorageError::InvalidPage(_))
        ));
        assert_eq!(s.stats().snapshot().retries, 0);
    }

    /// Runs one store to delay exhaustion and returns the recorded
    /// jittered delay sequence for `policy`.
    fn recorded_delays(policy: RetryPolicy) -> Vec<u64> {
        let delays: std::sync::Arc<Mutex<Vec<u64>>> = std::sync::Arc::new(Mutex::new(Vec::new()));
        let d = std::sync::Arc::clone(&delays);
        let (flaky, switch) = FaultStore::new(MemPageStore::new(64).unwrap());
        let mut s = RetryStore::with_sleeper(flaky, policy, move |t| d.lock().push(t));
        let p = s.allocate().unwrap();
        switch.arm_after(0);
        let mut buf = [0u8; 64];
        assert!(s.read(p, &mut buf).is_err());
        let out = delays.lock().clone();
        out
    }

    #[test]
    fn jittered_delays_stay_within_half_to_full_backoff() {
        let policy = RetryPolicy {
            max_attempts: 12,
            base_delay_ticks: 8,
            max_delay_ticks: 1024,
            jitter_seed: Some(7),
        };
        let delays = recorded_delays(policy);
        assert_eq!(delays.len(), 11);
        let mut saw_jitter = false;
        for (i, &d) in delays.iter().enumerate() {
            let full = policy.backoff(i as u32 + 1);
            assert!(
                d >= full / 2 && d <= full,
                "delay {d} outside [{}, {full}]",
                full / 2
            );
            saw_jitter |= d != full;
        }
        assert!(saw_jitter, "12 draws never jittered below full backoff");
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_differs_across_seeds() {
        let base = RetryPolicy {
            max_attempts: 8,
            base_delay_ticks: 16,
            max_delay_ticks: 4096,
            jitter_seed: None,
        };
        let a = recorded_delays(base.with_jitter(1));
        let b = recorded_delays(base.with_jitter(1));
        let c = recorded_delays(base.with_jitter(2));
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_ne!(a, c, "different seeds should desynchronize");
    }

    #[test]
    fn sleeper_sees_the_exact_backoff_sequence() {
        let delays: std::sync::Arc<Mutex<Vec<u64>>> = std::sync::Arc::new(Mutex::new(Vec::new()));
        let d = std::sync::Arc::clone(&delays);
        let (flaky, switch) = FaultStore::new(MemPageStore::new(64).unwrap());
        let mut s = RetryStore::with_sleeper(
            flaky,
            RetryPolicy {
                max_attempts: 5,
                base_delay_ticks: 2,
                max_delay_ticks: 6,
                jitter_seed: None,
            },
            move |t| d.lock().push(t),
        );
        let p = s.allocate().unwrap();
        switch.arm_after(0);
        let mut buf = [0u8; 64];
        assert!(s.read(p, &mut buf).is_err());
        assert_eq!(*delays.lock(), vec![2, 4, 6, 6]);
    }
}
