//! A disk-page B⁺-tree mapping `u64` keys to `u64` values.
//!
//! This is CCAM's secondary index: one entry per node, keyed by node id
//! (which the road-map workloads assign in Z-order of the node's
//! coordinates, so key order is spatial order as in the paper §2.1). The
//! value packs the record's data-page address.
//!
//! The tree is built on the same [`PageStore`]/[`BufferPool`] substrate as
//! the data file, but with its **own** pool: the paper's cost model
//! "assume\[s\] that the index pages are buffered in main memory" (§3.2), so
//! index page traffic is deliberately kept out of the data-page access
//! counts. The index pool is sized generously and its stats are tracked
//! separately (available through [`BPlusTree::index_stats`] for anyone who
//! wants to model index cost, one of the paper's future-work items).
//!
//! Layout (little-endian):
//!
//! ```text
//! leaf:     [1u8 | count: u16 | next_leaf: u32 | (key: u64, val: u64)*]
//! internal: [2u8 | count: u16 | child0: u32   | (key: u64, child: u32)*]
//! ```
//!
//! An internal node with `count` keys has `count + 1` children; keys are
//! strict upper bounds for the subtree to their left (standard B⁺
//! separators).

mod node;

use std::sync::{Arc, Mutex};

use ccam_storage::sync::lock;
use ccam_storage::{BufferPool, IoStats, MemPageStore, PageId, PageStore, StorageResult};

use node::{probe_node, read_node, write_node, Node, Probe};

/// Result of a recursive insert: the replaced value (if the key existed)
/// plus the separator/new-page pair when the child split.
type InsertOutcome = (Option<u64>, Option<(u64, PageId)>);

/// Number of frames the dedicated index pool keeps resident. Large enough
/// that the whole index of the paper-scale networks stays in memory.
const INDEX_POOL_FRAMES: usize = 4096;

/// A B⁺-tree over `u64` keys and `u64` values.
///
/// ```
/// use ccam_index::BPlusTree;
///
/// let mut t = BPlusTree::new_mem(1024).unwrap();
/// for k in 0..100 {
///     t.insert(k, k * 10).unwrap();
/// }
/// assert_eq!(t.get(42).unwrap(), Some(420));
/// assert_eq!(t.range(10, 12).unwrap(), vec![(10, 100), (11, 110), (12, 120)]);
/// assert_eq!(t.remove(42).unwrap(), Some(420));
/// assert_eq!(t.get(42).unwrap(), None);
/// ```
pub struct BPlusTree<S: PageStore> {
    pool: BufferPool<S>,
    root: PageId,
    len: usize,
    leaf_cap: usize,
    internal_cap: usize,
    /// Pages written since the last [`BPlusTree::fork`] — the only ones
    /// that can be dirty in the pool, so the only ones a fork writes
    /// back. Recording stops at [`INDEX_POOL_FRAMES`] entries: a list
    /// that long saves nothing over looking at every frame, and a tree
    /// nobody forks must not grow one without bound.
    written: Mutex<Vec<PageId>>,
}

impl BPlusTree<MemPageStore> {
    /// Creates an empty tree on a fresh in-memory store with pages of
    /// `page_size` bytes.
    pub fn new_mem(page_size: usize) -> StorageResult<Self> {
        Self::create(MemPageStore::new(page_size)?)
    }

    /// A second tree holding exactly this one's entries, for the cost of
    /// what changed since the last fork and not of what the tree holds:
    /// the nodes written since the last fork are written back, then the
    /// store is cloned, which shares every page image copy-on-write
    /// ([`MemPageStore`]'s `Clone`). The two trees are independent
    /// afterwards; a node either side rewrites is copied then, once, and
    /// the image the other side still reads is freed with the last tree
    /// that holds it. The fork's pool starts empty with this pool's
    /// capacity.
    pub fn fork(&self) -> StorageResult<Self> {
        let mut written = lock(&self.written);
        if written.len() < INDEX_POOL_FRAMES {
            self.pool.flush_pages(&written)?;
        } else {
            self.pool.flush_all()?;
        }
        written.clear();
        let store = self.pool.with_store(MemPageStore::clone);
        Ok(BPlusTree {
            pool: BufferPool::new(store, self.pool.capacity()),
            root: self.root,
            len: self.len,
            leaf_cap: self.leaf_cap,
            internal_cap: self.internal_cap,
            written: Mutex::default(),
        })
    }

    /// Number of pages this tree still shares with `other` (same image,
    /// not merely equal bytes) — everything a fork has not copied.
    /// Counts written-back pages only. Diagnostics and tests.
    pub fn pages_shared_with(&self, other: &Self) -> usize {
        self.pool.with_store(|mine| {
            other
                .pool
                .with_store(|theirs| mine.pages_shared_with(theirs))
        })
    }
}

impl<S: PageStore> BPlusTree<S> {
    /// Creates an empty tree on `store` (which must be empty).
    pub fn create(store: S) -> StorageResult<Self> {
        let page_size = store.page_size();
        let pool = BufferPool::new(store, INDEX_POOL_FRAMES);
        let root = pool.allocate()?;
        let (leaf_cap, internal_cap) = node::capacities(page_size);
        assert!(
            leaf_cap >= 3 && internal_cap >= 3,
            "page size {page_size} too small for a useful B+-tree"
        );
        let mut tree = BPlusTree {
            pool,
            root,
            len: 0,
            leaf_cap,
            internal_cap,
            written: Mutex::default(),
        };
        tree.write_node(
            root,
            &Node::Leaf {
                next: PageId::INVALID,
                entries: Vec::new(),
            },
        )?;
        Ok(tree)
    }

    /// Every node write of the tree: encodes `node` onto `page` and
    /// notes the page for the next fork.
    fn write_node(&mut self, page: PageId, node: &Node) -> StorageResult<()> {
        let written = self.written.get_mut().unwrap_or_else(|e| e.into_inner());
        if written.len() < INDEX_POOL_FRAMES {
            written.push(page);
        }
        write_node(&self.pool, page, node)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// I/O counters of the dedicated index pool (not part of the data-page
    /// access counts the experiments report).
    pub fn index_stats(&self) -> Arc<IoStats> {
        self.pool.stats()
    }

    /// Restricts the index pool to `frames` buffered pages. The paper
    /// assumes the index fits in memory; shrinking the pool makes index
    /// I/O observable — the measurement its §5 lists as future work.
    pub fn set_buffer_capacity(&self, frames: usize) -> StorageResult<()> {
        self.pool.set_capacity(frames)
    }

    /// Number of pages the index currently occupies.
    pub fn num_pages(&self) -> usize {
        self.pool.with_store(|s| s.live_pages().len())
    }

    /// Looks up `key`, searching each node on the path in its page
    /// bytes (nothing is decoded or allocated).
    pub fn get(&self, key: u64) -> StorageResult<Option<u64>> {
        let mut page = self.root;
        loop {
            match self.pool.with_page(page, |buf| probe_node(buf, key))? {
                Probe::Descend(child) => page = child,
                Probe::Leaf(val) => return Ok(val),
            }
        }
    }

    /// Inserts `key → val`, returning the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: u64, val: u64) -> StorageResult<Option<u64>> {
        let (old, split) = self.insert_rec(self.root, key, val)?;
        if let Some((sep, right)) = split {
            let new_root = self.pool.allocate()?;
            let old_root = self.root;
            self.write_node(
                new_root,
                &Node::Internal {
                    keys: vec![sep],
                    children: vec![old_root, right],
                },
            )?;
            self.root = new_root;
        }
        if old.is_none() {
            self.len += 1;
        }
        Ok(old)
    }

    fn insert_rec(&mut self, page: PageId, key: u64, val: u64) -> StorageResult<InsertOutcome> {
        match read_node(&self.pool, page)? {
            Node::Leaf { next, mut entries } => {
                match entries.binary_search_by_key(&key, |e| e.0) {
                    Ok(i) => {
                        let old = entries[i].1;
                        entries[i].1 = val;
                        self.write_node(page, &Node::Leaf { next, entries })?;
                        Ok((Some(old), None))
                    }
                    Err(i) => {
                        entries.insert(i, (key, val));
                        if entries.len() <= self.leaf_cap {
                            self.write_node(page, &Node::Leaf { next, entries })?;
                            return Ok((None, None));
                        }
                        // Split: right half moves to a new leaf.
                        let mid = entries.len() / 2;
                        let right_entries = entries.split_off(mid);
                        let sep = right_entries[0].0;
                        let right_page = self.pool.allocate()?;
                        self.write_node(
                            right_page,
                            &Node::Leaf {
                                next,
                                entries: right_entries,
                            },
                        )?;
                        self.write_node(
                            page,
                            &Node::Leaf {
                                next: right_page,
                                entries,
                            },
                        )?;
                        Ok((None, Some((sep, right_page))))
                    }
                }
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = child_index(&keys, key);
                let (old, split) = self.insert_rec(children[idx], key, val)?;
                if let Some((sep, right)) = split {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    if keys.len() <= self.internal_cap {
                        self.write_node(page, &Node::Internal { keys, children })?;
                        return Ok((old, None));
                    }
                    // Split the internal node; the middle key moves up.
                    let mid = keys.len() / 2;
                    let up_key = keys[mid];
                    let right_keys = keys.split_off(mid + 1);
                    keys.pop(); // remove up_key from the left node
                    let right_children = children.split_off(mid + 1);
                    let right_page = self.pool.allocate()?;
                    self.write_node(
                        right_page,
                        &Node::Internal {
                            keys: right_keys,
                            children: right_children,
                        },
                    )?;
                    self.write_node(page, &Node::Internal { keys, children })?;
                    Ok((old, Some((up_key, right_page))))
                } else {
                    Ok((old, None))
                }
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    ///
    /// Underflowing nodes borrow from or merge with a sibling, so the tree
    /// stays balanced under arbitrary delete sequences (the paper's
    /// `Delete()` removes index entries on every node deletion).
    pub fn remove(&mut self, key: u64) -> StorageResult<Option<u64>> {
        let removed = self.remove_rec(self.root, key)?;
        if removed.is_some() {
            self.len -= 1;
        }
        // Collapse a root that lost all its keys.
        if let Node::Internal { keys, children } = read_node(&self.pool, self.root)? {
            if keys.is_empty() {
                let old_root = self.root;
                self.root = children[0];
                self.pool.free(old_root)?;
            }
        }
        Ok(removed)
    }

    fn remove_rec(&mut self, page: PageId, key: u64) -> StorageResult<Option<u64>> {
        match read_node(&self.pool, page)? {
            Node::Leaf { next, mut entries } => match entries.binary_search_by_key(&key, |e| e.0) {
                Ok(i) => {
                    let (_, v) = entries.remove(i);
                    self.write_node(page, &Node::Leaf { next, entries })?;
                    Ok(Some(v))
                }
                Err(_) => Ok(None),
            },
            Node::Internal { keys, children } => {
                let idx = child_index(&keys, key);
                let removed = self.remove_rec(children[idx], key)?;
                if removed.is_some() {
                    self.rebalance_child(page, idx)?;
                }
                Ok(removed)
            }
        }
    }

    /// After a deletion inside `children[idx]` of internal node `page`,
    /// restores the minimum-occupancy invariant by borrowing from or
    /// merging with an adjacent sibling.
    fn rebalance_child(&mut self, page: PageId, idx: usize) -> StorageResult<()> {
        let (keys, children) = match read_node(&self.pool, page)? {
            Node::Internal { keys, children } => (keys, children),
            Node::Leaf { .. } => unreachable!("rebalance_child on a leaf"),
        };
        let child = children[idx];
        let child_node = read_node(&self.pool, child)?;
        let (child_len, min) = match &child_node {
            Node::Leaf { entries, .. } => (entries.len(), self.leaf_cap / 2),
            Node::Internal { keys, .. } => (keys.len(), self.internal_cap / 2),
        };
        if child_len >= min {
            return Ok(());
        }
        // Prefer borrowing from the richer adjacent sibling.
        let left = idx.checked_sub(1).map(|i| children[i]);
        let right = children.get(idx + 1).copied();
        let mut keys = keys;
        let mut children = children;

        let sibling_len = |n: &Node| match n {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Internal { keys, .. } => keys.len(),
        };

        let left_node = left.map(|p| read_node(&self.pool, p)).transpose()?;
        let right_node = right.map(|p| read_node(&self.pool, p)).transpose()?;
        let left_len = left_node.as_ref().map(&sibling_len).unwrap_or(0);
        let right_len = right_node.as_ref().map(sibling_len).unwrap_or(0);

        if left_len > min || right_len > min {
            // Borrow one entry/key from the richer sibling.
            if left_len >= right_len {
                let sep_idx = idx - 1;
                match (left_node.unwrap(), child_node) {
                    (
                        Node::Leaf {
                            next: lnext,
                            entries: mut lent,
                        },
                        Node::Leaf {
                            next: cnext,
                            entries: mut cent,
                        },
                    ) => {
                        let moved = lent.pop().expect("left sibling non-empty");
                        cent.insert(0, moved);
                        keys[sep_idx] = cent[0].0;
                        self.write_node(
                            left.unwrap(),
                            &Node::Leaf {
                                next: lnext,
                                entries: lent,
                            },
                        )?;
                        self.write_node(
                            child,
                            &Node::Leaf {
                                next: cnext,
                                entries: cent,
                            },
                        )?;
                    }
                    (
                        Node::Internal {
                            keys: mut lkeys,
                            children: mut lch,
                        },
                        Node::Internal {
                            keys: mut ckeys,
                            children: mut cch,
                        },
                    ) => {
                        // Rotate through the separator.
                        let moved_child = lch.pop().expect("left child");
                        let moved_key = lkeys.pop().expect("left key");
                        ckeys.insert(0, keys[sep_idx]);
                        cch.insert(0, moved_child);
                        keys[sep_idx] = moved_key;
                        self.write_node(
                            left.unwrap(),
                            &Node::Internal {
                                keys: lkeys,
                                children: lch,
                            },
                        )?;
                        self.write_node(
                            child,
                            &Node::Internal {
                                keys: ckeys,
                                children: cch,
                            },
                        )?;
                    }
                    _ => unreachable!("siblings at the same level share a kind"),
                }
            } else {
                let sep_idx = idx;
                match (child_node, right_node.unwrap()) {
                    (
                        Node::Leaf {
                            next: cnext,
                            entries: mut cent,
                        },
                        Node::Leaf {
                            next: rnext,
                            entries: mut rent,
                        },
                    ) => {
                        let moved = rent.remove(0);
                        cent.push(moved);
                        keys[sep_idx] = rent[0].0;
                        self.write_node(
                            child,
                            &Node::Leaf {
                                next: cnext,
                                entries: cent,
                            },
                        )?;
                        self.write_node(
                            right.unwrap(),
                            &Node::Leaf {
                                next: rnext,
                                entries: rent,
                            },
                        )?;
                    }
                    (
                        Node::Internal {
                            keys: mut ckeys,
                            children: mut cch,
                        },
                        Node::Internal {
                            keys: mut rkeys,
                            children: mut rch,
                        },
                    ) => {
                        let moved_child = rch.remove(0);
                        let moved_key = rkeys.remove(0);
                        ckeys.push(keys[sep_idx]);
                        cch.push(moved_child);
                        keys[sep_idx] = moved_key;
                        self.write_node(
                            child,
                            &Node::Internal {
                                keys: ckeys,
                                children: cch,
                            },
                        )?;
                        self.write_node(
                            right.unwrap(),
                            &Node::Internal {
                                keys: rkeys,
                                children: rch,
                            },
                        )?;
                    }
                    _ => unreachable!("siblings at the same level share a kind"),
                }
            }
        } else {
            // Merge with a sibling (prefer left so the leaf chain stays
            // easy to fix: survivor is always the left node).
            let (li, ri) = if left.is_some() {
                (idx - 1, idx)
            } else {
                (idx, idx + 1)
            };
            let lp = children[li];
            let rp = children[ri];
            let lnode = read_node(&self.pool, lp)?;
            let rnode = read_node(&self.pool, rp)?;
            match (lnode, rnode) {
                (
                    Node::Leaf {
                        entries: mut lent, ..
                    },
                    Node::Leaf {
                        next: rnext,
                        entries: rent,
                    },
                ) => {
                    lent.extend(rent);
                    self.write_node(
                        lp,
                        &Node::Leaf {
                            next: rnext,
                            entries: lent,
                        },
                    )?;
                }
                (
                    Node::Internal {
                        keys: mut lkeys,
                        children: mut lch,
                    },
                    Node::Internal {
                        keys: rkeys,
                        children: rch,
                    },
                ) => {
                    lkeys.push(keys[li]);
                    lkeys.extend(rkeys);
                    lch.extend(rch);
                    self.write_node(
                        lp,
                        &Node::Internal {
                            keys: lkeys,
                            children: lch,
                        },
                    )?;
                }
                _ => unreachable!("siblings at the same level share a kind"),
            }
            keys.remove(li);
            children.remove(ri);
            self.pool.free(rp)?;
        }
        self.write_node(page, &Node::Internal { keys, children })?;
        Ok(())
    }

    /// Returns all `(key, value)` pairs with `lo <= key <= hi`, in key
    /// order, walking the leaf chain.
    pub fn range(&self, lo: u64, hi: u64) -> StorageResult<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        if lo > hi {
            return Ok(out);
        }
        // Descend to the leaf containing lo.
        let mut page = self.root;
        while let Node::Internal { keys, children } = read_node(&self.pool, page)? {
            page = children[child_index(&keys, lo)];
        }
        // Walk the chain.
        loop {
            let (next, entries) = match read_node(&self.pool, page)? {
                Node::Leaf { next, entries } => (next, entries),
                Node::Internal { .. } => unreachable!("leaf chain contains a leaf"),
            };
            for (k, v) in entries {
                if k > hi {
                    return Ok(out);
                }
                if k >= lo {
                    out.push((k, v));
                }
            }
            if !next.is_valid() {
                return Ok(out);
            }
            page = next;
        }
    }

    /// All entries in key order.
    pub fn entries(&self) -> StorageResult<Vec<(u64, u64)>> {
        self.range(0, u64::MAX)
    }

    /// Height of the tree (1 = root is a leaf).
    pub fn depth(&self) -> StorageResult<usize> {
        let mut d = 1;
        let mut page = self.root;
        loop {
            match read_node(&self.pool, page)? {
                Node::Internal { children, .. } => {
                    d += 1;
                    page = children[0];
                }
                Node::Leaf { .. } => return Ok(d),
            }
        }
    }

    /// Exhaustively verifies the B⁺-tree invariants; panics with a
    /// description on violation. Test-support API.
    pub fn check_invariants(&self) -> StorageResult<()> {
        let mut leaf_count = 0usize;
        let depth = self.depth()?;
        self.check_rec(self.root, None, None, 1, depth, &mut leaf_count)?;
        // The leaf chain visits every entry in order.
        let entries = self.entries()?;
        assert_eq!(entries.len(), self.len, "len() disagrees with leaf chain");
        for w in entries.windows(2) {
            assert!(w[0].0 < w[1].0, "leaf chain out of order");
        }
        Ok(())
    }

    fn check_rec(
        &self,
        page: PageId,
        lo: Option<u64>,
        hi: Option<u64>,
        level: usize,
        depth: usize,
        leaves: &mut usize,
    ) -> StorageResult<()> {
        let in_bounds = |k: u64| {
            if let Some(l) = lo {
                assert!(k >= l, "key {k} below subtree bound {l}");
            }
            if let Some(h) = hi {
                assert!(k < h, "key {k} at/above subtree bound {h}");
            }
        };
        match read_node(&self.pool, page)? {
            Node::Leaf { entries, .. } => {
                assert_eq!(level, depth, "leaf at wrong depth");
                *leaves += 1;
                for w in entries.windows(2) {
                    assert!(w[0].0 < w[1].0, "unsorted leaf");
                }
                for (k, _) in &entries {
                    in_bounds(*k);
                }
                if page != self.root {
                    assert!(
                        entries.len() >= self.leaf_cap / 2,
                        "leaf underflow: {} < {}",
                        entries.len(),
                        self.leaf_cap / 2
                    );
                }
                assert!(entries.len() <= self.leaf_cap, "leaf overflow");
            }
            Node::Internal { keys, children } => {
                assert!(level < depth, "internal node at leaf depth");
                assert_eq!(children.len(), keys.len() + 1);
                for w in keys.windows(2) {
                    assert!(w[0] < w[1], "unsorted internal node");
                }
                for &k in &keys {
                    in_bounds(k);
                }
                if page != self.root {
                    assert!(keys.len() >= self.internal_cap / 2, "internal underflow");
                }
                assert!(keys.len() <= self.internal_cap, "internal overflow");
                for (i, &child) in children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
                    let chi = if i == keys.len() { hi } else { Some(keys[i]) };
                    self.check_rec(child, clo, chi, level + 1, depth, leaves)?;
                }
            }
        }
        Ok(())
    }
}

/// Index of the child to descend into for `key` given separator `keys`.
#[inline]
fn child_index(keys: &[u64], key: u64) -> usize {
    // Separator keys[i] is the smallest key of children[i + 1].
    match keys.binary_search(&key) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

#[cfg(test)]
mod tests;
