//! Unit tests for the B⁺-tree (the model-checking property tests live in
//! `tests/prop_index.rs`).

use super::*;

fn tree() -> BPlusTree<MemPageStore> {
    // Small pages force deep trees quickly (leaf cap 7, internal cap 9).
    BPlusTree::new_mem(128).unwrap()
}

#[test]
fn empty_tree_lookups() {
    let t = tree();
    assert!(t.is_empty());
    assert_eq!(t.get(42).unwrap(), None);
    assert_eq!(t.range(0, u64::MAX).unwrap(), vec![]);
    assert_eq!(t.depth().unwrap(), 1);
}

#[test]
fn insert_get_single() {
    let mut t = tree();
    assert_eq!(t.insert(5, 50).unwrap(), None);
    assert_eq!(t.get(5).unwrap(), Some(50));
    assert_eq!(t.len(), 1);
}

#[test]
fn insert_replaces_and_returns_old() {
    let mut t = tree();
    t.insert(5, 50).unwrap();
    assert_eq!(t.insert(5, 55).unwrap(), Some(50));
    assert_eq!(t.get(5).unwrap(), Some(55));
    assert_eq!(t.len(), 1);
}

#[test]
fn sequential_inserts_split_and_stay_sorted() {
    let mut t = tree();
    for k in 0..500u64 {
        t.insert(k, k * 10).unwrap();
    }
    assert_eq!(t.len(), 500);
    assert!(t.depth().unwrap() >= 3, "should have split repeatedly");
    t.check_invariants().unwrap();
    for k in 0..500u64 {
        assert_eq!(t.get(k).unwrap(), Some(k * 10), "key {k}");
    }
}

#[test]
fn reverse_inserts() {
    let mut t = tree();
    for k in (0..300u64).rev() {
        t.insert(k, k).unwrap();
    }
    t.check_invariants().unwrap();
    assert_eq!(t.entries().unwrap().len(), 300);
}

#[test]
fn interleaved_inserts() {
    let mut t = tree();
    // Strided pattern exercises splits at every position.
    for k in (0..400u64).step_by(2) {
        t.insert(k, k).unwrap();
    }
    for k in (1..400u64).step_by(2) {
        t.insert(k, k).unwrap();
    }
    t.check_invariants().unwrap();
    let entries = t.entries().unwrap();
    assert_eq!(entries.len(), 400);
    assert!(entries.windows(2).all(|w| w[0].0 + 1 == w[1].0));
}

#[test]
fn range_queries() {
    let mut t = tree();
    for k in (0..200u64).map(|k| k * 3) {
        t.insert(k, k).unwrap();
    }
    assert_eq!(
        t.range(10, 30).unwrap(),
        vec![
            (12, 12),
            (15, 15),
            (18, 18),
            (21, 21),
            (24, 24),
            (27, 27),
            (30, 30)
        ]
    );
    assert_eq!(t.range(598, u64::MAX).unwrap(), vec![]); // above max key 597
    assert_eq!(t.range(50, 40).unwrap(), vec![]); // inverted
    assert_eq!(t.range(0, 0).unwrap(), vec![(0, 0)]);
}

#[test]
fn remove_missing_key_is_none() {
    let mut t = tree();
    t.insert(1, 1).unwrap();
    assert_eq!(t.remove(2).unwrap(), None);
    assert_eq!(t.len(), 1);
}

#[test]
fn remove_all_ascending() {
    let mut t = tree();
    for k in 0..300u64 {
        t.insert(k, k).unwrap();
    }
    for k in 0..300u64 {
        assert_eq!(t.remove(k).unwrap(), Some(k), "removing {k}");
        t.check_invariants().unwrap();
    }
    assert!(t.is_empty());
    assert_eq!(t.depth().unwrap(), 1, "tree should collapse to a leaf root");
}

#[test]
fn remove_all_descending() {
    let mut t = tree();
    for k in 0..300u64 {
        t.insert(k, k).unwrap();
    }
    for k in (0..300u64).rev() {
        assert_eq!(t.remove(k).unwrap(), Some(k));
    }
    t.check_invariants().unwrap();
    assert!(t.is_empty());
}

#[test]
fn remove_middle_then_reinsert() {
    let mut t = tree();
    for k in 0..200u64 {
        t.insert(k, k).unwrap();
    }
    for k in 50..150u64 {
        t.remove(k).unwrap();
    }
    t.check_invariants().unwrap();
    assert_eq!(t.len(), 100);
    for k in 50..150u64 {
        assert_eq!(t.get(k).unwrap(), None);
        t.insert(k, k + 1000).unwrap();
    }
    t.check_invariants().unwrap();
    assert_eq!(t.get(99).unwrap(), Some(1099));
    assert_eq!(t.get(0).unwrap(), Some(0));
}

#[test]
fn mixed_workload_stays_consistent() {
    use std::collections::BTreeMap;
    let mut t = tree();
    let mut model = BTreeMap::new();
    // Deterministic pseudo-random mix without pulling in rand here.
    let mut x = 0x12345678u64;
    for _ in 0..3000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let key = (x >> 33) % 512;
        if (x >> 3).is_multiple_of(3) {
            assert_eq!(t.remove(key).unwrap(), model.remove(&key));
        } else {
            let val = x % 100_000;
            assert_eq!(t.insert(key, val).unwrap(), model.insert(key, val));
        }
    }
    t.check_invariants().unwrap();
    let got = t.entries().unwrap();
    let want: Vec<(u64, u64)> = model.into_iter().collect();
    assert_eq!(got, want);
}

#[test]
fn extreme_keys() {
    let mut t = tree();
    t.insert(0, 1).unwrap();
    t.insert(u64::MAX, 2).unwrap();
    t.insert(u64::MAX - 1, 3).unwrap();
    assert_eq!(t.get(u64::MAX).unwrap(), Some(2));
    assert_eq!(
        t.range(u64::MAX - 1, u64::MAX).unwrap(),
        vec![(u64::MAX - 1, 3), (u64::MAX, 2)]
    );
    assert_eq!(t.remove(u64::MAX).unwrap(), Some(2));
    t.check_invariants().unwrap();
}

#[test]
fn larger_pages_make_shallower_trees() {
    let mut small = BPlusTree::new_mem(128).unwrap();
    let mut big = BPlusTree::new_mem(4096).unwrap();
    for k in 0..1000u64 {
        small.insert(k, k).unwrap();
        big.insert(k, k).unwrap();
    }
    assert!(big.depth().unwrap() < small.depth().unwrap());
    small.check_invariants().unwrap();
    big.check_invariants().unwrap();
}

#[test]
fn fork_is_independent_and_copies_only_what_changes() {
    let mut t = tree();
    for k in 0..2000u64 {
        t.insert(k * 2, k).unwrap();
    }
    let before = t.fork().unwrap();
    let pages = t.num_pages();
    assert_eq!(before.pages_shared_with(&t), pages, "a fork copies nothing");
    assert_eq!(before.len(), t.len());

    // An update in place rewrites one leaf; a fresh key that splits a
    // leaf rewrites that leaf and its parent and adds one page.
    t.insert(1000, 7).unwrap();
    let one = t.fork().unwrap();
    assert_eq!(one.pages_shared_with(&before), pages - 1);
    let depth = t.depth().unwrap();
    for k in 0..8u64 {
        t.insert(2001 + 2 * k, k).unwrap();
    }
    t.remove(10).unwrap();
    let after = t.fork().unwrap();
    let grown = after.num_pages() - pages;
    assert!(
        grown >= 1,
        "eight neighbouring keys must split a 7-entry leaf"
    );
    let copied = pages - after.pages_shared_with(&one);
    assert!(
        copied <= 2 * depth + grown,
        "copied {copied} of {pages} pages"
    );

    // Every fork still answers from the moment it was taken.
    assert_eq!(before.get(1000).unwrap(), Some(500));
    assert_eq!(one.get(1000).unwrap(), Some(7));
    assert_eq!(one.get(10).unwrap(), Some(5));
    assert_eq!(after.get(10).unwrap(), None);
    assert_eq!(before.get(2001).unwrap(), None);
    assert_eq!(after.get(2001).unwrap(), Some(0));
    for f in [&before, &one, &after] {
        f.check_invariants().unwrap();
    }
    assert_eq!(after.entries().unwrap(), t.entries().unwrap());

    // A fork is a tree in its own right: writing to it leaves the
    // original alone.
    let mut forked = after;
    forked.insert(3, 33).unwrap();
    assert_eq!(forked.get(3).unwrap(), Some(33));
    assert_eq!(t.get(3).unwrap(), None);
    t.check_invariants().unwrap();
}

#[test]
fn fork_after_more_writes_than_it_records_loses_nothing() {
    let mut t = BPlusTree::new_mem(1024).unwrap();
    let base = t.fork().unwrap();
    // Far more node writes than the written-page list holds.
    for k in 0..20_000u64 {
        t.insert(k, k + 1).unwrap();
    }
    let f = t.fork().unwrap();
    assert_eq!(base.len(), 0);
    assert_eq!(f.len(), 20_000);
    assert_eq!(f.entries().unwrap(), t.entries().unwrap());
    f.check_invariants().unwrap();
    t.insert(5, 0).unwrap();
    assert_eq!(t.fork().unwrap().get(5).unwrap(), Some(0));
    assert_eq!(f.get(5).unwrap(), Some(6));
}
