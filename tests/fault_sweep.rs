//! Seeded randomized fault sweep: a mixed operation workload runs over a
//! store that injects transient glitches and persistent page corruption
//! (`FaultStore`), shielded by a `RetryStore`. The invariant is the
//! robustness contract of the storage stack:
//!
//! * with the retry budget above the glitch burst length, every
//!   operation — reads and multi-page mutations alike — succeeds;
//! * persistent corruption surfaces as the typed
//!   [`StorageError::ChecksumMismatch`] on strict paths and as a
//!   [`Degraded`](ccam::core::Degraded) answer (bad page skipped and
//!   reported) on degraded paths — never as a panic;
//! * once the corruption heals, the surviving file passes the full
//!   integrity verifier.
//!
//! Everything derives from the proptest-generated seed; a failing
//! schedule replays exactly.

use ccam::core::am::{AccessMethod, CcamBuilder};
use ccam::core::check;
use ccam::graph::generators::grid_network;
use ccam::storage::{FaultStore, MemPageStore, RetryPolicy, RetryStore, StorageError};
use proptest::prelude::*;

/// Local default kept modest (each case builds a CCAM file); CI elevates
/// via `PROPTEST_CASES`.
fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]
    #[test]
    fn mixed_ops_survive_transient_and_persistent_faults(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..5, any::<u16>(), any::<u16>()), 8..24),
    ) {
        let (store, ctl) = FaultStore::with_seed(MemPageStore::new(512).unwrap(), seed);
        let store = RetryStore::new(
            store,
            // Budget comfortably above the burst length of 2, so even a
            // glitch chaining into a fresh one stays absorbed.
            RetryPolicy {
                max_attempts: 8,
                base_delay_ticks: 1,
                max_delay_ticks: 4,
                jitter_seed: None,
            },
        );
        let net = grid_network(8, 8, 1.0);
        let mut am = CcamBuilder::new(512).build_static_on(store, &net).unwrap();
        let ids = net.node_ids();

        // -- Phase 1: transient glitches only; every op must succeed. ----
        ctl.set_fault_rate(16, 2);
        for (code, ai, bi) in &ops {
            let a = ids[*ai as usize % ids.len()];
            let b = ids[*bi as usize % ids.len()];
            match code {
                0 => {
                    let r = am.find(a);
                    prop_assert!(r.is_ok(), "find under glitches: {r:?}");
                }
                1 => {
                    let r = am.get_successors(a);
                    prop_assert!(r.is_ok(), "get_successors under glitches: {r:?}");
                }
                2 if a != b => {
                    let cost = 1 + (*bi as u32 % 40);
                    let r = am.insert_edge(a, b, cost);
                    prop_assert!(r.is_ok(), "insert_edge under glitches: {r:?}");
                }
                3 => {
                    let r = am.delete_edge(a, b);
                    prop_assert!(r.is_ok(), "delete_edge under glitches: {r:?}");
                }
                4 => {
                    // Delete and immediately re-insert: the heaviest
                    // multi-page mutation pair in the stack.
                    let del = am.delete_node(a);
                    prop_assert!(del.is_ok(), "delete_node under glitches: {del:?}");
                    if let Some(del) = del.unwrap() {
                        let r = am.insert_node(&del.data, &del.incoming);
                        prop_assert!(r.is_ok(), "insert_node under glitches: {r:?}");
                    }
                }
                _ => {}
            }
        }

        // -- Phase 2: one page rots persistently. ------------------------
        ctl.set_fault_rate(0, 1); // isolate the persistent fault
        let victim = ids[seed as usize % ids.len()];
        let vpage = am.file().find(victim).unwrap().expect("phase 1 preserves every node").0;
        // Push every dirty page down and evict, so reads go to the store.
        am.file().commit().unwrap();
        am.file().pool().clear().unwrap();
        ctl.mark_corrupt(vpage);

        // The degraded lookup detects the corruption, quarantines the
        // page, and reports the skip instead of aborting.
        let miss = am.file().find_degraded(victim).unwrap();
        prop_assert!(miss.value.is_none());
        prop_assert!(miss.skipped.contains(&vpage), "skip list {:?} missing {vpage:?}", miss.skipped);
        prop_assert!(am.file().is_quarantined(vpage));

        // Strict and degraded reads over the whole id space: success, the
        // typed checksum error naming the bad page, or a Degraded answer.
        for &id in ids.iter().take(12) {
            match am.find(id) {
                Ok(_) => {}
                Err(StorageError::ChecksumMismatch { page, .. }) => {
                    prop_assert_eq!(page, vpage);
                }
                Err(e) => prop_assert!(false, "unexpected error class: {e}"),
            }
            let deg = am.get_successors_degraded(id);
            prop_assert!(deg.is_ok(), "degraded read must not abort: {deg:?}");
            for p in deg.unwrap().skipped {
                prop_assert_eq!(p, vpage);
            }
        }

        // -- Phase 3: heal; the surviving file verifies clean. -----------
        ctl.clear_corrupt(vpage);
        am.file().clear_quarantined();
        prop_assert!(am.find(victim).unwrap().is_some());
        let report = check::verify(am.file()).unwrap();
        prop_assert!(
            report.issues.is_empty(),
            "verifier found issues after heal: {:?}",
            report.issues
        );
    }
}
