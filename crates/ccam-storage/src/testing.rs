//! Test support: one fault-injecting store and a seeded workload
//! generator.
//!
//! A disk-based access method must surface I/O failures as errors, never
//! panics or silent corruption. [`FaultStore`] wraps any [`PageStore`]
//! and, under one shared [`FaultController`], counts raw store traffic
//! and injects every fault class the harnesses use. Each class is armed
//! and cleared on its own; all are off in a fresh store, so a database
//! is built cleanly and the faults are switched on afterwards.
//!
//! | class | arm / clear | effect |
//! |---|---|---|
//! | latency stall | [`set_latency`](FaultController::set_latency) | a seeded fraction of reads and writes sleep first |
//! | error switch | [`arm_after`](FaultController::arm_after) / [`disarm`](FaultController::disarm) | after `k` more operations every operation fails with an I/O error — a fault the caller may retry through |
//! | page rot | [`mark_corrupt`](FaultController::mark_corrupt) / [`clear_corrupt`](FaultController::clear_corrupt) | reads of the page fail their checksum until a full-page write restamps it |
//! | transient glitch | [`set_fault_rate`](FaultController::set_fault_rate) | a seeded fraction of operations fail `burst` consecutive times, then pass |
//! | `ENOSPC` | [`fill_after`](FaultController::fill_after) / [`drain`](FaultController::drain) | after `k` more mutations the device is full: mutations fail with [`StorageError::NoSpace`], optionally landing a half-page short write; reads and `free` are never blocked |
//! | power cut | [`crash_after`](FaultController::crash_after) / [`revive`](FaultController::revive) | after `k` more mutations the store dies, optionally tearing the write it dies on; every operation fails until revived |
//! | volatile writes | [`set_volatile_writes`](FaultController::set_volatile_writes) | a page write is only as durable as the last `sync`: at the power cut a seeded fraction of the pages written since then fall back to what they held before — what a device cache loses |
//!
//! # Evaluation order
//!
//! An operation is counted, then meets the armed classes in the order
//! of the table — stall; error switch; on a read the rot check, then
//! (on every operation) the glitch draw; `ENOSPC`; power cut — and the
//! first class to fail it ends the walk: a later countdown does not
//! tick and a later stream does not draw. This is the order the stack
//! "latency over glitches-and-rot over `ENOSPC` over power cut" gives.
//! Volatile writes fail nothing: they decide what the power cut leaves
//! behind, drawing once per un-synced page when it trips (lost pages
//! are put back first, then the dying write tears). The stall, glitch
//! and lost-write draws come from three xorshift streams derived from
//! the one constructor seed, so a seed replays its schedule exactly.
//! Nothing reads a clock or OS randomness.
//!
//! [`PageStore::wal`] forwards to the wrapped store unconditionally:
//! the log's own controls are not fault-injected, not even once the
//! power is cut (every harness stacks its power cut *under* the log).
//!
//! [`SweepRng`] is the deterministic generator crash-sweep harnesses
//! derive their workloads from: same seed, same workload, same crash
//! schedule — a failing sweep round replays exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::{StorageError, StorageResult};
use crate::page::PageId;
use crate::store::{PageStore, WalControl};
use crate::sync::lock;

/// How the final page write behaves when a [`FaultStore`] dies on it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum TornWrite {
    /// The write never reaches the page (clean power cut between writes).
    #[default]
    None,
    /// Only the first half of the buffer lands; the rest of the page
    /// keeps its old contents (torn sector write).
    Partial,
    /// The page is zero-filled (drive wrote garbage/zeros on power loss).
    Zeroed,
}

/// The operation classes the fault walk distinguishes.
#[derive(Clone, Copy)]
enum Op {
    Read(PageId),
    Write,
    Free,
    /// `allocate`, `sync`, `ensure_allocated`.
    Other,
}

/// Ticks a countdown of operations still allowed (`None` = disarmed).
/// True when none was left: once at zero a countdown stays there, so it
/// keeps answering true until re-armed.
fn expired(remaining: &mut Option<u64>) -> bool {
    let left = *remaining;
    *remaining = left.map(|n| n.saturating_sub(1));
    left == Some(0)
}

/// One draw from an xorshift64* stream.
fn draw(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn io_error(what: &'static str) -> StorageError {
    StorageError::Io(std::io::Error::other(what))
}

/// What a test has armed and what has been injected, behind the
/// controller's one lock: an operation's walk through the classes is
/// atomic even when reads race.
#[derive(Debug, Default)]
struct Plan {
    /// Stall stream; offset from the glitch stream under one seed.
    latency_rng: u64,
    /// Per-1024 chance that a read or write stalls (0 = off).
    latency_rate: u64,
    latency_us: u64,
    stalls: u64,
    /// Operations remaining before the error switch fires.
    switch: Option<u64>,
    /// Pages that fail checksum verification on read.
    corrupt: BTreeSet<u32>,
    glitch_rng: u64,
    /// Per-1024 chance that an operation starts a glitch (0 = off).
    fault_rate: u64,
    /// Consecutive failures per glitch (≥ 1 once armed).
    burst: u64,
    /// Failures still owed from the glitch in progress.
    pending: u64,
    glitches: u64,
    /// Mutations remaining before the device fills.
    fill: Option<u64>,
    full: bool,
    short_write: bool,
    no_space: u64,
    /// Mutations remaining before the power cut.
    crash: Option<u64>,
    dead: bool,
    torn: TornWrite,
    /// Lost-write stream, drawn from only when the power cut trips.
    volatile_rng: u64,
    /// Per-1024 chance that an un-synced page write is lost at the
    /// power cut (0 = every write is durable at once).
    volatile_rate: u64,
    /// What each page written since the last `sync` held before its
    /// first such write.
    unsynced: BTreeMap<u32, Box<[u8]>>,
}

/// An operation the walk failed, and what the device does on the way
/// down.
struct Refusal {
    err: StorageError,
    /// What the refused page write lands before failing.
    lands: TornWrite,
    /// Pages whose un-synced writes the power cut loses, each with the
    /// image to put back.
    lost: BTreeMap<u32, Box<[u8]>>,
}

/// Shared controller of a [`FaultStore`]: raw per-operation counts and
/// the arming of every fault class (see the module docs for the classes
/// and the order they are evaluated in).
#[derive(Debug, Default)]
pub struct FaultController {
    /// Raw page reads (below the buffer pool, unlike [`crate::IoStats`]
    /// which counts pool traffic).
    pub reads: AtomicU64,
    /// Raw page writes.
    pub writes: AtomicU64,
    /// Page allocations (`allocate` and `ensure_allocated`).
    pub allocs: AtomicU64,
    /// Page frees.
    pub frees: AtomicU64,
    /// Sync (commit-point) calls.
    pub syncs: AtomicU64,
    plan: Mutex<Plan>,
}

impl FaultController {
    fn new(seed: u64) -> Arc<FaultController> {
        let plan = Plan {
            // xorshift needs a nonzero state.
            latency_rng: seed.wrapping_add(0x9E37_79B9) | 1,
            glitch_rng: seed | 1,
            volatile_rng: seed.wrapping_add(0x7F4A_7C15) | 1,
            ..Plan::default()
        };
        Arc::new(FaultController {
            plan: Mutex::new(plan),
            ..FaultController::default()
        })
    }

    /// Arms latency stalls: roughly `per_1024` out of every 1024 reads
    /// and writes sleep `micros` microseconds first (a real
    /// `thread::sleep`; *which* operations stall is seeded). Zero
    /// disarms.
    pub fn set_latency(&self, per_1024: u64, micros: u64) {
        let mut plan = lock(&self.plan);
        plan.latency_rate = per_1024;
        plan.latency_us = micros;
    }

    /// Arms the error switch: the next `ops` operations succeed,
    /// everything after fails with an I/O error.
    pub fn arm_after(&self, ops: u64) {
        lock(&self.plan).switch = Some(ops);
    }

    /// Disarms the error switch (operations succeed again).
    pub fn disarm(&self) {
        lock(&self.plan).switch = None;
    }

    /// Marks `id` as bit-rotted: reads fail with the
    /// [`StorageError::ChecksumMismatch`] a checksummed file store would
    /// produce, until a full-page write restamps the page.
    pub fn mark_corrupt(&self, id: PageId) {
        lock(&self.plan).corrupt.insert(id.0);
    }

    /// Heals `id` without a write.
    pub fn clear_corrupt(&self, id: PageId) {
        lock(&self.plan).corrupt.remove(&id.0);
    }

    /// Pages currently marked corrupt, ascending.
    pub fn corrupt_pages(&self) -> Vec<PageId> {
        lock(&self.plan)
            .corrupt
            .iter()
            .map(|&p| PageId(p))
            .collect()
    }

    /// Arms transient glitches: roughly `per_1024` out of every 1024
    /// operations start a glitch of `burst` consecutive failures
    /// (`burst` ≥ 1), so a `RetryStore` with `max_attempts > burst`
    /// absorbs every glitch while a bare store surfaces it. Zero
    /// disarms.
    pub fn set_fault_rate(&self, per_1024: u64, burst: u64) {
        let mut plan = lock(&self.plan);
        plan.burst = burst.max(1);
        plan.fault_rate = per_1024;
        if per_1024 == 0 {
            plan.pending = 0;
        }
    }

    /// Schedules the fill: `ops` more mutations (allocate / write / sync
    /// / ensure) succeed, then the device is full. With `short_write`, a
    /// page write that hits the limit lands a half-page prefix before
    /// failing, the way `write(2)` reports a filling device.
    pub fn fill_after(&self, ops: u64, short_write: bool) {
        let mut plan = lock(&self.plan);
        plan.short_write = short_write;
        plan.full = false;
        plan.fill = Some(ops);
    }

    /// Frees up space: mutations succeed again.
    pub fn drain(&self) {
        let mut plan = lock(&self.plan);
        plan.full = false;
        plan.fill = None;
    }

    /// True once the scheduled fill has fired.
    pub fn is_full(&self) -> bool {
        lock(&self.plan).full
    }

    /// Schedules the crash: `ops` more mutations (allocate / write /
    /// free / sync / ensure) succeed, then the store dies. `torn` picks
    /// what happens if the dying operation is a page write.
    pub fn crash_after(&self, ops: u64, torn: TornWrite) {
        let mut plan = lock(&self.plan);
        plan.torn = torn;
        plan.dead = false;
        plan.crash = Some(ops);
    }

    /// Cancels any scheduled crash and clears the dead state ("plugs the
    /// machine back in") — used between crash rounds in sweeps.
    pub fn revive(&self) {
        let mut plan = lock(&self.plan);
        plan.dead = false;
        plan.crash = None;
    }

    /// True once the scheduled crash has fired.
    pub fn is_dead(&self) -> bool {
        lock(&self.plan).dead
    }

    /// Arms volatile writes: from now on the store remembers what each
    /// page held before its first write since the last successful
    /// `sync`, and when a scheduled crash fires roughly `per_1024` out
    /// of every 1024 of those pages are put back (1024 = all of them) —
    /// the rest keep their new contents. Allocations and frees are not
    /// undone. Zero disarms and forgets.
    pub fn set_volatile_writes(&self, per_1024: u64) {
        let mut plan = lock(&self.plan);
        plan.volatile_rate = per_1024;
        if per_1024 == 0 {
            plan.unsynced.clear();
        }
    }

    /// Latency stalls injected so far.
    pub fn injected_stalls(&self) -> u64 {
        lock(&self.plan).stalls
    }

    /// Transient glitch failures injected so far.
    pub fn injected_glitches(&self) -> u64 {
        lock(&self.plan).glitches
    }

    /// `NoSpace` errors injected so far.
    pub fn injected_no_space(&self) -> u64 {
        lock(&self.plan).no_space
    }

    /// Stalls + glitches + `NoSpace` errors — what a chaos harness
    /// subtracts from its error budget: an injected fault surfacing as a
    /// typed error is the system working, not an SLO violation.
    pub fn injected_faults(&self) -> u64 {
        let plan = lock(&self.plan);
        plan.stalls + plan.glitches + plan.no_space
    }

    /// Walks `op` through the armed fault classes in the documented
    /// order.
    fn admit(&self, op: Op) -> Result<(), Refusal> {
        let refuse = |err, lands| {
            Err(Refusal {
                err,
                lands,
                lost: BTreeMap::new(),
            })
        };
        let clean = |err| refuse(err, TornWrite::None);
        let mut plan = lock(&self.plan);
        if matches!(op, Op::Read(_) | Op::Write)
            && plan.latency_rate > 0
            && draw(&mut plan.latency_rng) % 1024 < plan.latency_rate
        {
            plan.stalls += 1;
            let stall = std::time::Duration::from_micros(plan.latency_us);
            // Sleep unlocked: a stall must not hold up the controller.
            drop(plan);
            std::thread::sleep(stall);
            plan = lock(&self.plan);
        }
        if expired(&mut plan.switch) {
            return clean(io_error("injected I/O failure"));
        }
        if let Op::Read(id) = op {
            if plan.corrupt.contains(&id.0) {
                // Deterministic fabricated checksums: what a real v2
                // file would report, minus the actual bit pattern.
                let stored = 0xBAD0_0000 | id.0;
                return clean(StorageError::ChecksumMismatch {
                    page: id,
                    stored,
                    computed: stored ^ 1,
                });
            }
        }
        if plan.pending > 0 {
            plan.pending -= 1;
            plan.glitches += 1;
            return clean(io_error("injected transient fault (burst)"));
        }
        if plan.fault_rate > 0 && draw(&mut plan.glitch_rng) % 1024 < plan.fault_rate {
            plan.pending = plan.burst.saturating_sub(1);
            plan.glitches += 1;
            return clean(io_error("injected transient fault"));
        }
        // Freeing *releases* space — it must keep working on a full
        // device (rollback relies on it to return pass-through
        // allocations) — and a full disk still serves what it holds.
        if matches!(op, Op::Write | Op::Other) {
            let filling = !plan.full && expired(&mut plan.fill);
            if plan.full || filling {
                plan.full = true;
                plan.no_space += 1;
                let lands = if filling && plan.short_write {
                    TornWrite::Partial
                } else {
                    TornWrite::None
                };
                return refuse(StorageError::NoSpace, lands);
            }
        }
        if plan.dead {
            return clean(io_error("simulated power failure"));
        }
        if !matches!(op, Op::Read(_)) && expired(&mut plan.crash) {
            plan.dead = true;
            let plan = &mut *plan;
            let rate = plan.volatile_rate;
            let rng = &mut plan.volatile_rng;
            let mut lost = std::mem::take(&mut plan.unsynced);
            lost.retain(|_, _| draw(rng) % 1024 < rate);
            return Err(Refusal {
                err: io_error("simulated power failure"),
                lands: plan.torn,
                lost,
            });
        }
        Ok(())
    }

    /// True when the power cut could lose a write to `id` made now and
    /// nothing is remembered of `id` yet.
    fn wants_pre_image(&self, id: PageId) -> bool {
        let plan = lock(&self.plan);
        plan.volatile_rate > 0 && !plan.unsynced.contains_key(&id.0)
    }

    /// A full-page write (or a free) restamps the page, healing the rot
    /// — the same semantics a checksummed file store has.
    fn heal(&self, id: PageId) {
        lock(&self.plan).corrupt.remove(&id.0);
    }
}

/// A [`PageStore`] wrapper that counts raw store operations and injects
/// faults as its [`FaultController`] directs (see the module docs).
///
/// Stacks under a [`crate::RetryStore`] the way production does, so
/// short glitch bursts are absorbed by the retry budget and only
/// over-budget faults surface to the access method; persistent rot
/// surfaces as [`StorageError::ChecksumMismatch`] for the scrub /
/// quarantine machinery above. Crash-recovery tests wrap a
/// `FilePageStore` in one under a `WalStore`, kill it mid-operation,
/// then reopen the file and assert the log replay restores every
/// invariant.
pub struct FaultStore<S: PageStore> {
    inner: S,
    controller: Arc<FaultController>,
}

impl<S: PageStore> FaultStore<S> {
    /// Wraps `inner`; returns the store, every fault class disarmed, and
    /// its controller.
    pub fn new(inner: S) -> (Self, Arc<FaultController>) {
        Self::with_seed(inner, 0)
    }

    /// Like [`FaultStore::new`], with the glitch and stall schedules
    /// seeded by `seed`.
    pub fn with_seed(inner: S, seed: u64) -> (Self, Arc<FaultController>) {
        let controller = FaultController::new(seed);
        let store = FaultStore {
            inner,
            controller: Arc::clone(&controller),
        };
        (store, controller)
    }

    /// Consumes the wrapper, returning the inner store (reopening after
    /// the "reboot").
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Admits a mutation or fails it — first putting back, on the inner
    /// store, the un-synced writes a power cut loses. `Err` carries what
    /// the page write being refused lands before failing.
    fn admit_mutation(&mut self, op: Op) -> Result<(), (StorageError, TornWrite)> {
        self.controller.admit(op).map_err(|refusal| {
            for (id, image) in refusal.lost {
                // A page freed since it was written has nothing to lose.
                let _ = self.inner.write(PageId(id), &image);
            }
            (refusal.err, refusal.lands)
        })
    }

    fn pass_mutation(&mut self, op: Op) -> StorageResult<()> {
        self.admit_mutation(op).map_err(|(err, _)| err)
    }
}

impl<S: PageStore> PageStore for FaultStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn allocate(&mut self) -> StorageResult<PageId> {
        self.controller.allocs.fetch_add(1, Ordering::Relaxed);
        self.pass_mutation(Op::Other)?;
        self.inner.allocate()
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        self.controller.reads.fetch_add(1, Ordering::Relaxed);
        // A read never trips the power cut, so nothing is lost here.
        self.controller
            .admit(Op::Read(id))
            .map_err(|refusal| refusal.err)?;
        self.inner.read(id, buf)
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> StorageResult<()> {
        self.controller.writes.fetch_add(1, Ordering::Relaxed);
        if let Err((err, lands)) = self.admit_mutation(Op::Write) {
            match lands {
                TornWrite::None => {}
                TornWrite::Partial => {
                    let mut page = vec![0u8; buf.len()];
                    if self.inner.read(id, &mut page).is_ok() {
                        page[..buf.len() / 2].copy_from_slice(&buf[..buf.len() / 2]);
                        let _ = self.inner.write(id, &page);
                    }
                }
                TornWrite::Zeroed => {
                    let _ = self.inner.write(id, &vec![0u8; buf.len()]);
                }
            }
            return Err(err);
        }
        if self.controller.wants_pre_image(id) {
            let mut held = vec![0u8; buf.len()];
            if self.inner.read(id, &mut held).is_ok() {
                let mut plan = lock(&self.controller.plan);
                plan.unsynced.insert(id.0, held.into_boxed_slice());
            }
        }
        self.inner.write(id, buf)?;
        self.controller.heal(id);
        Ok(())
    }

    fn free(&mut self, id: PageId) -> StorageResult<()> {
        self.controller.frees.fetch_add(1, Ordering::Relaxed);
        self.pass_mutation(Op::Free)?;
        self.inner.free(id)?;
        self.controller.heal(id);
        Ok(())
    }

    fn is_live(&self, id: PageId) -> bool {
        self.inner.is_live(id)
    }

    fn sync(&mut self) -> StorageResult<()> {
        self.controller.syncs.fetch_add(1, Ordering::Relaxed);
        self.pass_mutation(Op::Other)?;
        self.inner.sync()?;
        lock(&self.controller.plan).unsynced.clear();
        Ok(())
    }

    fn live_pages(&self) -> Vec<PageId> {
        self.inner.live_pages()
    }

    fn ensure_allocated(&mut self, id: PageId) -> StorageResult<()> {
        self.controller.allocs.fetch_add(1, Ordering::Relaxed);
        self.pass_mutation(Op::Other)?;
        self.inner.ensure_allocated(id)
    }

    fn wal(&mut self) -> Option<&mut dyn WalControl> {
        self.inner.wal()
    }
}

// ---------------------------------------------------------------------------
// Deterministic workload generation
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny, high-quality deterministic generator for seeded
/// test workloads (crash sweeps, property tests). No OS entropy, no wall
/// clock — two instances with the same seed produce identical streams.
#[derive(Debug, Clone)]
pub struct SweepRng {
    state: u64,
}

impl SweepRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SweepRng {
        SweepRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n` > 0).
    pub fn gen_range(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Bernoulli draw: true with probability `num`/`denom`.
    pub fn gen_bool(&mut self, num: u64, denom: u64) -> bool {
        self.gen_range(denom) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemPageStore;
    use crate::BufferPool;

    #[test]
    fn disarmed_flaky_store_is_transparent() {
        let (mut s, _switch) = FaultStore::new(MemPageStore::new(64).unwrap());
        let p = s.allocate().unwrap();
        s.write(p, &[1u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        s.read(p, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64]);
    }

    #[test]
    fn armed_switch_fails_after_budget() {
        let (mut s, switch) = FaultStore::new(MemPageStore::new(64).unwrap());
        let p = s.allocate().unwrap();
        switch.arm_after(2);
        let mut buf = [0u8; 64];
        s.read(p, &mut buf).unwrap(); // 1
        s.read(p, &mut buf).unwrap(); // 2
        assert!(matches!(s.read(p, &mut buf), Err(StorageError::Io(_))));
        assert!(matches!(s.write(p, &buf), Err(StorageError::Io(_))));
        switch.disarm();
        s.read(p, &mut buf).unwrap();
    }

    #[test]
    fn buffer_pool_propagates_injected_errors() {
        let (s, switch) = FaultStore::new(MemPageStore::new(64).unwrap());
        let pool = BufferPool::new(s, 2);
        let p = pool.allocate().unwrap();
        pool.with_page_mut(p, |b| b.fill(7)).unwrap();
        pool.clear().unwrap();
        switch.arm_after(0);
        assert!(pool.with_page(p, |_| ()).is_err());
        switch.disarm();
        let ok = pool.with_page(p, |b| b[0]).unwrap();
        assert_eq!(ok, 7);
    }

    #[test]
    fn counting_store_counts() {
        let (s, counters) = FaultStore::new(MemPageStore::new(64).unwrap());
        let pool = BufferPool::new(s, 1);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        pool.with_page_mut(a, |x| x.fill(1)).unwrap();
        pool.with_page_mut(b, |x| x.fill(2)).unwrap(); // evicts dirty a
        pool.flush_all().unwrap();
        assert_eq!(counters.allocs.load(Ordering::Relaxed), 2);
        assert_eq!(counters.reads.load(Ordering::Relaxed), 2);
        assert!(counters.writes.load(Ordering::Relaxed) >= 2);
        assert_eq!(counters.syncs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn counting_store_counts_syncs_directly() {
        let (mut s, counters) = FaultStore::new(MemPageStore::new(64).unwrap());
        s.sync().unwrap();
        s.sync().unwrap();
        assert_eq!(counters.syncs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn flaky_store_injects_failures_on_sync() {
        let (mut s, switch) = FaultStore::new(MemPageStore::new(64).unwrap());
        s.sync().unwrap();
        switch.arm_after(0);
        assert!(matches!(s.sync(), Err(StorageError::Io(_))));
        switch.disarm();
        s.sync().unwrap();
    }

    #[test]
    fn corrupt_store_marked_pages_fail_checksum_until_rewritten() {
        let (mut s, ctl) = FaultStore::with_seed(MemPageStore::new(64).unwrap(), 42);
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        s.write(a, &[1u8; 64]).unwrap();
        s.write(b, &[2u8; 64]).unwrap();
        ctl.mark_corrupt(a);
        let mut buf = [0u8; 64];
        assert!(matches!(
            s.read(a, &mut buf),
            Err(StorageError::ChecksumMismatch { page, .. }) if page == a
        ));
        // Unmarked pages read fine; a full-page rewrite heals the rot.
        s.read(b, &mut buf).unwrap();
        assert_eq!(ctl.corrupt_pages(), vec![a]);
        s.write(a, &[3u8; 64]).unwrap();
        s.read(a, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 64]);
        assert!(ctl.corrupt_pages().is_empty());
    }

    #[test]
    fn corrupt_store_glitches_are_seeded_and_bursty() {
        // Same seed ⇒ same fault schedule.
        let run = |seed: u64| {
            let (mut s, ctl) = FaultStore::with_seed(MemPageStore::new(64).unwrap(), seed);
            let p = s.allocate().unwrap();
            s.write(p, &[9u8; 64]).unwrap();
            ctl.set_fault_rate(512, 2); // ~half the ops glitch, 2 fails each
            let mut buf = [0u8; 64];
            let outcomes: Vec<bool> = (0..32).map(|_| s.read(p, &mut buf).is_ok()).collect();
            (outcomes, ctl.injected_faults())
        };
        let (a, fa) = run(7);
        let (b, fb) = run(7);
        assert_eq!(a, b);
        assert_eq!(fa, fb);
        assert!(fa > 0, "a 50% rate over 32 ops must fire at least once");
        // A different seed produces a different schedule (with these
        // parameters the chance of collision is negligible).
        let (c, _) = run(1234);
        assert_ne!(a, c);
    }

    #[test]
    fn chaos_store_is_quiet_until_armed_and_composes_fault_classes() {
        let (mut s, ctl) = FaultStore::with_seed(MemPageStore::new(64).unwrap(), 7);
        // Disarmed: clean build phase.
        let p = s.allocate().unwrap();
        s.write(p, &[3u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        s.read(p, &mut buf).unwrap();
        assert_eq!(ctl.injected_faults(), 0);

        // Armed: glitches fire (rate 1024/1024 = always).
        ctl.set_fault_rate(1024, 1);
        assert!(matches!(s.read(p, &mut buf), Err(StorageError::Io(_))));
        assert!(ctl.injected_faults() > 0);
        ctl.set_fault_rate(0, 1);
        s.read(p, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 64]);

        // Targeted corruption survives disarm and heals on write.
        ctl.mark_corrupt(p);
        assert!(matches!(
            s.read(p, &mut buf),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        s.write(p, &[4u8; 64]).unwrap();
        s.read(p, &mut buf).unwrap();

        // Disk-full pulses surface the typed NoSpace on mutations while
        // reads keep working; draining recovers.
        ctl.fill_after(0, false);
        assert!(matches!(s.write(p, &[5u8; 64]), Err(StorageError::NoSpace)));
        s.read(p, &mut buf).unwrap();
        ctl.drain();
        s.write(p, &[6u8; 64]).unwrap();
    }

    #[test]
    fn chaos_latency_schedule_is_seed_deterministic() {
        let run = |seed: u64| {
            let (mut s, ctl) = FaultStore::with_seed(MemPageStore::new(64).unwrap(), seed);
            // Build before arming.
            let p = s.allocate().unwrap();
            s.write(p, &[1u8; 64]).unwrap();
            // ~25% of reads stall, for zero time: schedule only.
            ctl.set_latency(256, 0);
            let mut buf = [0u8; 64];
            for _ in 0..64 {
                s.read(p, &mut buf).unwrap();
            }
            ctl.injected_stalls()
        };
        assert_eq!(run(11), run(11), "same seed, same stall schedule");
        assert!(run(11) > 0, "a 25% rate must stall at least once in 64");
    }

    #[test]
    fn retry_store_absorbs_corrupt_store_bursts() {
        use crate::retry::{RetryPolicy, RetryStore};
        let (s, ctl) = FaultStore::with_seed(MemPageStore::new(64).unwrap(), 99);
        let mut s = RetryStore::new(
            s,
            RetryPolicy {
                // Comfortably above the burst length of 2, so even a
                // glitch that chains straight into another one is
                // absorbed within the budget.
                max_attempts: 8,
                base_delay_ticks: 1,
                max_delay_ticks: 4,
                jitter_seed: None,
            },
        );
        let p = s.allocate().unwrap();
        s.write(p, &[5u8; 64]).unwrap();
        ctl.set_fault_rate(128, 2);
        let mut buf = [0u8; 64];
        for _ in 0..64 {
            s.read(p, &mut buf).unwrap();
        }
        assert_eq!(buf, [5u8; 64]);
        // Every injected fault was retried through.
        assert_eq!(s.stats().snapshot().retries, ctl.injected_faults());
    }

    #[test]
    fn sweep_rng_is_deterministic_and_varies_with_seed() {
        let mut a = SweepRng::new(42);
        let mut b = SweepRng::new(42);
        let sa: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(sa, sb);
        let mut c = SweepRng::new(43);
        let sc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_ne!(sa, sc);
        let mut d = SweepRng::new(7);
        for _ in 0..100 {
            assert!(d.gen_range(10) < 10);
        }
    }

    #[test]
    fn full_disk_store_fails_mutations_with_no_space_until_drained() {
        let (mut s, ctl) = FaultStore::new(MemPageStore::new(64).unwrap());
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 64]).unwrap();
        ctl.fill_after(1, false);
        s.write(a, &[2u8; 64]).unwrap(); // last op that fits
        assert!(matches!(s.write(a, &[3u8; 64]), Err(StorageError::NoSpace)));
        assert!(ctl.is_full());
        assert!(matches!(s.allocate(), Err(StorageError::NoSpace)));
        assert!(matches!(s.sync(), Err(StorageError::NoSpace)));
        // Reads still work on a full disk.
        let mut buf = [0u8; 64];
        s.read(a, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 64]);
        ctl.drain();
        s.write(a, &[4u8; 64]).unwrap();
        s.read(a, &mut buf).unwrap();
        assert_eq!(buf, [4u8; 64]);
        assert!(ctl.injected_faults() >= 3);
    }

    #[test]
    fn full_disk_short_write_lands_a_prefix() {
        let (mut s, ctl) = FaultStore::new(MemPageStore::new(64).unwrap());
        let a = s.allocate().unwrap();
        s.write(a, &[0xaa; 64]).unwrap();
        ctl.fill_after(0, true);
        assert!(matches!(
            s.write(a, &[0xbb; 64]),
            Err(StorageError::NoSpace)
        ));
        ctl.drain();
        let mut buf = [0u8; 64];
        s.read(a, &mut buf).unwrap();
        assert!(buf[..32].iter().all(|&x| x == 0xbb));
        assert!(buf[32..].iter().all(|&x| x == 0xaa));
    }

    #[test]
    fn crash_store_dies_at_scheduled_op_and_stays_dead() {
        let (mut s, ctl) = FaultStore::new(MemPageStore::new(64).unwrap());
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 64]).unwrap();
        ctl.crash_after(1, TornWrite::None);
        s.write(a, &[2u8; 64]).unwrap(); // last surviving mutation
        assert!(s.write(a, &[3u8; 64]).is_err()); // the crash
        assert!(ctl.is_dead());
        // Everything fails until revived — including reads and syncs.
        let mut buf = [0u8; 64];
        assert!(s.read(a, &mut buf).is_err());
        assert!(s.sync().is_err());
        assert!(s.allocate().is_err());
        ctl.revive();
        s.read(a, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 64]); // the dying write never landed
    }

    #[test]
    fn crash_store_tears_the_dying_write() {
        // Partial: first half new, second half old.
        let (mut s, ctl) = FaultStore::new(MemPageStore::new(64).unwrap());
        let a = s.allocate().unwrap();
        s.write(a, &[0xaa; 64]).unwrap();
        ctl.crash_after(0, TornWrite::Partial);
        assert!(s.write(a, &[0xbb; 64]).is_err());
        ctl.revive();
        let mut buf = [0u8; 64];
        s.read(a, &mut buf).unwrap();
        assert!(buf[..32].iter().all(|&x| x == 0xbb));
        assert!(buf[32..].iter().all(|&x| x == 0xaa));

        // Zeroed: the page comes back blank.
        let (mut s, ctl) = FaultStore::new(MemPageStore::new(64).unwrap());
        let a = s.allocate().unwrap();
        s.write(a, &[0xaa; 64]).unwrap();
        ctl.crash_after(0, TornWrite::Zeroed);
        assert!(s.write(a, &[0xbb; 64]).is_err());
        ctl.revive();
        s.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
    }

    #[test]
    fn power_cut_undoes_a_seeded_share_of_the_writes_no_sync_covered() {
        // Pages 0..8 hold 1 and are synced; the first four are rewritten
        // (2) and synced again, the last four rewritten twice (2, then
        // 3) with no sync after.
        let after_cut = |seed: u64, per_1024: u64| {
            let (mut s, ctl) = FaultStore::with_seed(MemPageStore::new(64).unwrap(), seed);
            ctl.set_volatile_writes(per_1024);
            let pages: Vec<PageId> = (0..8).map(|_| s.allocate().unwrap()).collect();
            for &p in &pages {
                s.write(p, &[1u8; 64]).unwrap();
            }
            s.sync().unwrap();
            for &p in &pages[..4] {
                s.write(p, &[2u8; 64]).unwrap();
            }
            s.sync().unwrap();
            for &p in &pages[4..] {
                s.write(p, &[2u8; 64]).unwrap();
                s.write(p, &[3u8; 64]).unwrap();
            }
            ctl.crash_after(0, TornWrite::None);
            assert!(s.sync().is_err());
            ctl.revive();
            let mut buf = [0u8; 64];
            pages
                .iter()
                .map(|&p| {
                    s.read(p, &mut buf).unwrap();
                    buf[0]
                })
                .collect::<Vec<u8>>()
        };
        // Disarmed, every write is durable at once; fully armed, exactly
        // the unsynced ones fall back to what the last sync covered.
        assert_eq!(after_cut(1, 0), [2, 2, 2, 2, 3, 3, 3, 3]);
        assert_eq!(after_cut(1, 1024), [2, 2, 2, 2, 1, 1, 1, 1]);
        // In between, the seed picks which.
        let some = after_cut(1, 512);
        assert_eq!(some[..4], [2, 2, 2, 2]);
        assert!(some[4..].iter().all(|&b| b == 1 || b == 3));
        assert_eq!(some, after_cut(1, 512));
        let mixed = |seed| {
            let tail = &after_cut(seed, 512)[4..];
            tail.contains(&1) && tail.contains(&3)
        };
        assert!((1..=8).any(mixed), "no seed of 8 lost some and kept some");
    }

    /// Drives a fixed, seeded mix of 4 096 single store operations over
    /// four live pages and returns the indices of those that glitched
    /// and of those that stalled.
    fn drive(s: &mut FaultStore<MemPageStore>, ctl: &FaultController) -> (Vec<u32>, Vec<u32>) {
        let mut mix = SweepRng::new(1);
        let mut buf = [0u8; 64];
        let mut spare = None;
        let (mut glitched, mut stalled) = (Vec::new(), Vec::new());
        for i in 0..4096u32 {
            let (glitches, stalls) = (ctl.injected_glitches(), ctl.injected_stalls());
            let p = PageId(mix.gen_range(4) as u32);
            let _ = match mix.gen_range(8) {
                0..=3 => s.read(p, &mut buf),
                4 | 5 => s.write(p, &buf),
                6 => s.sync(),
                _ => match spare.take() {
                    Some(q) => s.free(q),
                    None => s.allocate().map(|q| spare = Some(q)),
                },
            };
            if ctl.injected_glitches() != glitches {
                glitched.push(i);
            }
            if ctl.injected_stalls() != stalls {
                stalled.push(i);
            }
        }
        (glitched, stalled)
    }

    /// The oracle of the port from six stacked wrappers to this one
    /// store. The literals were recorded, with [`drive`], on the tree
    /// this store replaced: glitches from the glitch-and-rot wrapper at
    /// `set_fault_rate(12, 2)`, glitches and stalls from the composed
    /// chaos wrapper at its default rates (the same 12/2, stalls 8 per
    /// 1024) — the two agreed on the glitches for every seed.
    #[test]
    fn seeds_replay_the_schedules_recorded_before_the_port() {
        // (seed, first index of each two-failure burst, stalled indices)
        #[rustfmt::skip]
        const RECORDED: [(u64, &[u32], &[u32]); 4] = [
            (5, &[229, 255, 326, 355, 557, 689, 727, 740, 783, 947, 1092, 1205, 1269, 1493, 1534, 1586, 1613, 1650, 1664, 1766, 1819, 1906, 1942, 2017, 2184, 2263, 2526, 2709, 2728, 2757, 2819, 2867, 2929, 2961, 3023, 3045, 3201, 3373, 3396, 3489, 3571, 3640, 3720, 3808, 3816, 3867, 3934], &[423, 530, 606, 970, 1001, 1100, 1223, 1298, 1428, 1682, 1728, 1787, 1924, 1981, 1988, 2076, 2492, 2524, 2696, 3017, 3279, 3462, 3526, 3588, 3775, 3833]),
            (7, &[91, 207, 213, 216, 515, 540, 675, 696, 712, 797, 823, 887, 987, 1059, 1130, 1382, 1399, 1483, 1488, 1733, 1800, 1814, 1842, 1959, 2005, 2051, 2089, 2156, 2565, 2739, 2824, 2860, 3007, 3091, 3211, 3292, 3423, 3482, 3497, 3529, 3784, 3886, 3891, 4019], &[838, 931, 958, 1330, 1487, 1547, 1763, 1769, 2247, 2282, 2404, 2679, 3232, 3242, 3342, 3680, 3851, 3856]),
            (42, &[4, 8, 42, 112, 251, 271, 274, 331, 368, 374, 385, 463, 518, 521, 543, 755, 778, 824, 869, 1000, 1078, 1271, 1282, 1408, 1414, 1444, 1575, 1764, 1806, 2049, 2230, 2264, 2381, 2536, 2610, 2663, 2684, 2695, 2782, 2837, 2906, 2950, 3034, 3110, 3190, 3280, 3408, 3497, 3556, 3664, 3832, 3921, 3963, 4054], &[26, 298, 722, 1148, 1238, 1604, 1794, 2146, 2457, 2634, 2717, 2720, 2830, 2891, 2998, 3092, 3149, 3619, 3625, 3709, 3988]),
            (77, &[51, 102, 108, 112, 203, 549, 593, 736, 742, 862, 906, 996, 1049, 1185, 1261, 1372, 1513, 1573, 1682, 1685, 1839, 1856, 1987, 2003, 2048, 2095, 2194, 2239, 2256, 2363, 2379, 2528, 2533, 2546, 2641, 2699, 2718, 2726, 2975, 3084, 3129, 3139, 3270, 3334, 3369, 3582, 3628, 3651, 3731, 3743, 3761, 3801, 3865, 4036], &[88, 112, 149, 204, 220, 245, 766, 854, 905, 1035, 1514, 1532, 1966, 2047, 2084, 2289, 2364, 2466, 2527, 2647, 2830, 2919, 3413, 3619]),
        ];
        for (seed, bursts, stalls) in RECORDED {
            let glitches: Vec<u32> = bursts.iter().flat_map(|&i| [i, i + 1]).collect();
            for latency_per_1024 in [0, 8] {
                let (mut s, ctl) = FaultStore::with_seed(MemPageStore::new(64).unwrap(), seed);
                for _ in 0..4 {
                    let p = s.allocate().unwrap();
                    s.write(p, &[1u8; 64]).unwrap();
                }
                ctl.set_fault_rate(12, 2);
                ctl.set_latency(latency_per_1024, 0);
                let (glitched, stalled) = drive(&mut s, &ctl);
                assert_eq!(glitched, glitches, "seed {seed}");
                let expected: &[u32] = if latency_per_1024 == 0 { &[] } else { stalls };
                assert_eq!(stalled, expected, "seed {seed}");
            }
        }
    }

    /// Two classes armed at once meet an operation in the documented
    /// order, and the first to fail it keeps the later ones from ticking
    /// or drawing.
    #[test]
    fn armed_classes_are_evaluated_in_the_documented_order() {
        let (mut s, ctl) = FaultStore::with_seed(MemPageStore::new(64).unwrap(), 3);
        let p = s.allocate().unwrap();
        let q = s.allocate().unwrap();
        let mut buf = [0u8; 64];

        // Rot before the glitch draw: a rotted read fails its checksum
        // and draws nothing; a healthy read glitches.
        ctl.mark_corrupt(p);
        ctl.set_fault_rate(1024, 1);
        assert!(matches!(
            s.read(p, &mut buf),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        assert_eq!(ctl.injected_glitches(), 0);
        assert!(matches!(s.read(q, &mut buf), Err(StorageError::Io(_))));
        assert_eq!(ctl.injected_glitches(), 1);

        // The error switch before both.
        ctl.arm_after(0);
        assert!(matches!(s.read(p, &mut buf), Err(StorageError::Io(_))));
        assert_eq!(ctl.injected_glitches(), 1);
        ctl.disarm();

        // The glitch draw before ENOSPC: the fill countdown has not
        // ticked when the glitch fails the write.
        ctl.fill_after(0, false);
        assert!(matches!(s.write(q, &buf), Err(StorageError::Io(_))));
        assert!(!ctl.is_full());
        ctl.set_fault_rate(0, 1);

        // ENOSPC before the power cut: a full device answers NoSpace and
        // the crash countdown does not tick; `free`, which a full device
        // never blocks, is the mutation the store then dies on.
        ctl.crash_after(0, TornWrite::None);
        assert!(matches!(s.write(q, &buf), Err(StorageError::NoSpace)));
        assert!(ctl.is_full() && !ctl.is_dead());
        assert_eq!(ctl.injected_no_space(), 1);
        assert!(matches!(s.free(q), Err(StorageError::Io(_))));
        assert!(ctl.is_dead());
        // Dead, even a rotted read reports its rot first.
        assert!(matches!(
            s.read(p, &mut buf),
            Err(StorageError::ChecksumMismatch { .. })
        ));
    }
}
