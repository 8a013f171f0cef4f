//! Property-based tests: the B⁺-tree is model-checked against
//! `std::collections::BTreeMap`, and the Grid File's structural invariants
//! hold under arbitrary insert/remove interleavings.

use std::collections::BTreeMap;

use ccam_index::{zorder, BPlusTree, GridFile};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Range(u64, u64),
}

fn tree_op(key_space: u64) -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        4 => (0..key_space, any::<u64>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        3 => (0..key_space).prop_map(TreeOp::Remove),
        1 => (0..key_space).prop_map(TreeOp::Get),
        1 => (0..key_space, 0..key_space).prop_map(|(a, b)| TreeOp::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any op sequence leaves the B+-tree agreeing with BTreeMap, with all
    /// structural invariants intact.
    #[test]
    fn btree_matches_btreemap(ops in prop::collection::vec(tree_op(128), 1..300)) {
        let mut tree = BPlusTree::new_mem(128).unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(k, v).unwrap(), model.insert(k, v));
                }
                TreeOp::Remove(k) => {
                    prop_assert_eq!(tree.remove(k).unwrap(), model.remove(&k));
                }
                TreeOp::Get(k) => {
                    prop_assert_eq!(tree.get(k).unwrap(), model.get(&k).copied());
                }
                TreeOp::Range(lo, hi) => {
                    let got = tree.range(lo, hi).unwrap();
                    let want: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }
        tree.check_invariants().unwrap();
    }

    /// Grid-file structure stays consistent and every live value is
    /// retrievable at its coordinates under random weighted inserts and
    /// removes.
    #[test]
    fn gridfile_consistency(
        cap in 2usize..12,
        ops in prop::collection::vec(
            (0u32..64, 0u32..64, 1usize..5, any::<bool>()), 1..200),
    ) {
        let mut g: GridFile<u64> = GridFile::new(cap * 4);
        let mut live: Vec<(u32, u32, u64)> = Vec::new();
        let mut next_val = 0u64;
        for (x, y, w, is_insert) in ops {
            if is_insert || live.is_empty() {
                g.insert(x, y, w, next_val);
                live.push((x, y, next_val));
                next_val += 1;
            } else {
                let (x, y, v) = live.swap_remove((x as usize + y as usize) % live.len());
                prop_assert_eq!(g.remove(x, y, v), Some(v));
            }
            g.check_invariants();
        }
        prop_assert_eq!(g.len(), live.len());
        for &(x, y, v) in &live {
            let found = g.point_query(x, y).iter().any(|e| e.value == v);
            prop_assert!(found, "value {v} at ({x},{y}) lost");
        }
    }

    /// Grid-file range queries return exactly the points in the rectangle.
    #[test]
    fn gridfile_range_queries_exact(
        pts in prop::collection::vec((0u32..100, 0u32..100), 1..80),
        rect in (0u32..100, 0u32..100, 0u32..100, 0u32..100),
    ) {
        let mut g: GridFile<u64> = GridFile::new(4);
        for (i, &(x, y)) in pts.iter().enumerate() {
            g.insert(x, y, 1, i as u64);
        }
        let (a, b, c, d) = rect;
        let (x0, x1) = (a.min(c), a.max(c));
        let (y0, y1) = (b.min(d), b.max(d));
        let mut got: Vec<u64> = g.range_query(x0, y0, x1, y1).iter().map(|e| e.value).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = pts.iter().enumerate()
            .filter(|(_, &(x, y))| x >= x0 && x <= x1 && y >= y0 && y <= y1)
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Z-order locality: the codes of the 4 sub-quadrants of any aligned
    /// power-of-two square are contiguous, disjoint blocks.
    #[test]
    fn zorder_block_property(level in 1u32..16, cx in any::<u32>(), cy in any::<u32>()) {
        let size = 1u32 << level;
        let x0 = cx & !(size - 1);
        let y0 = cy & !(size - 1);
        let lo = zorder::z_encode(x0, y0);
        let hi = zorder::z_encode(x0 + size - 1, y0 + size - 1);
        // Every point in the square falls inside [lo, hi] ...
        let probe = [
            (x0, y0), (x0 + size - 1, y0), (x0, y0 + size - 1),
            (x0 + size / 2, y0 + size / 2),
        ];
        for (x, y) in probe {
            let z = zorder::z_encode(x, y);
            prop_assert!(z >= lo && z <= hi);
        }
        // ... and the range is exactly size^2 codes (the block is dense).
        prop_assert_eq!(hi - lo + 1, (size as u64) * (size as u64));
    }
}
