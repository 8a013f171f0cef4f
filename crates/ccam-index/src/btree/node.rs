//! On-page encoding of B⁺-tree nodes.

use ccam_storage::{BufferPool, PageId, PageStore, StorageResult};

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;
const HEADER: usize = 7; // tag u8 | count u16 | next_leaf-or-child0 u32
const LEAF_ENTRY: usize = 16; // key u64 | val u64
const INTERNAL_ENTRY: usize = 12; // key u64 | child u32

/// In-memory form of one tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Leaf: sorted `(key, value)` entries plus the next-leaf link.
    Leaf {
        next: PageId,
        entries: Vec<(u64, u64)>,
    },
    /// Internal: `children.len() == keys.len() + 1`.
    Internal {
        keys: Vec<u64>,
        children: Vec<PageId>,
    },
}

/// `(leaf_capacity, internal_key_capacity)` for pages of `page_size` bytes.
pub fn capacities(page_size: usize) -> (usize, usize) {
    (
        (page_size - HEADER) / LEAF_ENTRY,
        (page_size - HEADER) / INTERNAL_ENTRY,
    )
}

/// One step of a point lookup, answered from a node's page bytes.
pub enum Probe {
    /// Internal node: the child whose subtree covers the key.
    Descend(PageId),
    /// Leaf: the key's value, if present.
    Leaf(Option<u64>),
}

/// Searches the node encoded in `buf` for `key` in place — a binary
/// search over the fixed-stride entries, decoding only the keys it
/// compares. Agrees with [`read_node`] followed by a search of the
/// decoded vectors (a zeroed page is an empty leaf).
pub fn probe_node(buf: &[u8], key: u64) -> Probe {
    let count = u16::from_le_bytes([buf[1], buf[2]]) as usize;
    let internal = buf[0] == TAG_INTERNAL;
    let stride = if internal { INTERNAL_ENTRY } else { LEAF_ENTRY };
    let entries = &buf[HEADER..HEADER + count * stride];
    let key_at = |i: usize| u64::from_le_bytes(entries[i * stride..][..8].try_into().unwrap());
    // First entry whose key exceeds `key`: entries before it are <= key.
    let (mut lo, mut hi) = (0, count);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if key_at(mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if internal {
        // Separator i is the smallest key of child i + 1, so the child is
        // the one after the last separator <= key (child0 sits in the
        // header).
        let child = match lo.checked_sub(1) {
            Some(i) => &entries[i * stride + 8..][..4],
            None => &buf[3..7],
        };
        Probe::Descend(PageId(u32::from_le_bytes(child.try_into().unwrap())))
    } else {
        let hit = lo.checked_sub(1).filter(|&i| key_at(i) == key);
        Probe::Leaf(
            hit.map(|i| u64::from_le_bytes(entries[i * stride + 8..][..8].try_into().unwrap())),
        )
    }
}

/// Decodes the node stored in `page`.
pub fn read_node<S: PageStore>(pool: &BufferPool<S>, page: PageId) -> StorageResult<Node> {
    pool.with_page(page, |buf| {
        let tag = buf[0];
        let count = u16::from_le_bytes([buf[1], buf[2]]) as usize;
        let head = u32::from_le_bytes(buf[3..7].try_into().unwrap());
        match tag {
            TAG_INTERNAL => {
                let mut keys = Vec::with_capacity(count);
                let mut children = Vec::with_capacity(count + 1);
                children.push(PageId(head));
                for i in 0..count {
                    let off = HEADER + i * INTERNAL_ENTRY;
                    keys.push(u64::from_le_bytes(buf[off..off + 8].try_into().unwrap()));
                    children.push(PageId(u32::from_le_bytes(
                        buf[off + 8..off + 12].try_into().unwrap(),
                    )));
                }
                Node::Internal { keys, children }
            }
            // A freshly zeroed page (tag 0) decodes as an empty leaf; this
            // only happens for a brand-new root before its first write.
            _ => {
                let mut entries = Vec::with_capacity(count);
                for i in 0..count {
                    let off = HEADER + i * LEAF_ENTRY;
                    let k = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
                    let v = u64::from_le_bytes(buf[off + 8..off + 16].try_into().unwrap());
                    entries.push((k, v));
                }
                Node::Leaf {
                    next: if tag == TAG_LEAF {
                        PageId(head)
                    } else {
                        PageId::INVALID
                    },
                    entries,
                }
            }
        }
    })
}

/// Encodes `node` into `page`.
pub fn write_node<S: PageStore>(
    pool: &BufferPool<S>,
    page: PageId,
    node: &Node,
) -> StorageResult<()> {
    pool.with_page_mut(page, |buf| match node {
        Node::Leaf { next, entries } => {
            buf[0] = TAG_LEAF;
            buf[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
            buf[3..7].copy_from_slice(&next.index().to_le_bytes());
            for (i, (k, v)) in entries.iter().enumerate() {
                let off = HEADER + i * LEAF_ENTRY;
                buf[off..off + 8].copy_from_slice(&k.to_le_bytes());
                buf[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
            }
        }
        Node::Internal { keys, children } => {
            debug_assert_eq!(children.len(), keys.len() + 1);
            buf[0] = TAG_INTERNAL;
            buf[1..3].copy_from_slice(&(keys.len() as u16).to_le_bytes());
            buf[3..7].copy_from_slice(&children[0].index().to_le_bytes());
            for (i, k) in keys.iter().enumerate() {
                let off = HEADER + i * INTERNAL_ENTRY;
                buf[off..off + 8].copy_from_slice(&k.to_le_bytes());
                buf[off + 8..off + 12].copy_from_slice(&children[i + 1].index().to_le_bytes());
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccam_storage::MemPageStore;

    fn pool() -> BufferPool<MemPageStore> {
        BufferPool::new(MemPageStore::new(256).unwrap(), 16)
    }

    #[test]
    fn leaf_roundtrip() {
        let p = pool();
        let page = p.allocate().unwrap();
        let node = Node::Leaf {
            next: PageId(9),
            entries: vec![(1, 10), (2, 20), (5, 50)],
        };
        write_node(&p, page, &node).unwrap();
        assert_eq!(read_node(&p, page).unwrap(), node);
    }

    #[test]
    fn internal_roundtrip() {
        let p = pool();
        let page = p.allocate().unwrap();
        let node = Node::Internal {
            keys: vec![100, 200],
            children: vec![PageId(1), PageId(2), PageId(3)],
        };
        write_node(&p, page, &node).unwrap();
        assert_eq!(read_node(&p, page).unwrap(), node);
    }

    #[test]
    fn zeroed_page_reads_as_empty_leaf() {
        let p = pool();
        let page = p.allocate().unwrap();
        match read_node(&p, page).unwrap() {
            Node::Leaf { next, entries } => {
                assert!(!next.is_valid());
                assert!(entries.is_empty());
            }
            _ => panic!("expected leaf"),
        }
    }

    /// The in-place search answers what searching the decoded node would,
    /// at every position relative to the stored keys.
    #[test]
    fn probe_agrees_with_the_decoded_node() {
        let p = pool();
        let probe = |page, key| p.with_page(page, |buf| probe_node(buf, key)).unwrap();
        let empty = p.allocate().unwrap();
        assert!(matches!(probe(empty, 7), Probe::Leaf(None)), "zeroed page");
        let leaf = p.allocate().unwrap();
        let entries: Vec<(u64, u64)> = (1..=9).map(|k| (k * 10, k * 100)).collect();
        let next = PageId(9);
        write_node(&p, leaf, &Node::Leaf { next, entries }).unwrap();
        let internal = p.allocate().unwrap();
        let keys: Vec<u64> = (1..=9).map(|k| k * 10).collect();
        let children: Vec<PageId> = (0..=9).map(PageId).collect();
        write_node(&p, internal, &Node::Internal { keys, children }).unwrap();
        for key in 0..=100u64 {
            let want = (key % 10 == 0 && (10..=90).contains(&key)).then_some(key * 10);
            assert!(
                matches!(probe(leaf, key), Probe::Leaf(v) if v == want),
                "leaf {key}"
            );
            // Separator i is the smallest key of child i + 1.
            let child = PageId((key / 10).min(9) as u32);
            assert!(
                matches!(probe(internal, key), Probe::Descend(c) if c == child),
                "internal {key}"
            );
        }
    }

    #[test]
    fn capacities_scale_with_page_size() {
        let (l1, i1) = capacities(1024);
        let (l4, i4) = capacities(4096);
        assert!(l4 > l1 * 3);
        assert!(i4 > i1 * 3);
        assert_eq!(l1, (1024 - 7) / 16);
        assert_eq!(i1, (1024 - 7) / 12);
    }
}
