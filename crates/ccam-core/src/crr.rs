//! CRR / WCRR measurement (paper §1.2).
//!
//! ```text
//! CRR  =  # unsplit edges / # edges                (unsplit: Page(u) == Page(v))
//! WCRR =  Σ w(u,v) over unsplit edges / Σ w(u,v) over all edges
//! ```
//!
//! Both are measured over a data file's *current* record placement via
//! an uncounted scan, so measuring never perturbs the experiment's I/O
//! statistics. Directed edges are counted individually (a two-way street
//! contributes two edges, both unsplit or both split — the ratio is
//! unaffected, matching the paper's per-edge formulation).

use std::collections::HashMap;

use ccam_graph::{NodeData, NodeId};
use ccam_storage::{PageId, PageStore, StorageResult};

use crate::file::NetworkFile;

/// Connectivity Residue Ratio of the file's placement. Returns 1.0 for a
/// file with no edges (nothing can be split).
pub fn crr<S: PageStore>(file: &NetworkFile<S>) -> StorageResult<f64> {
    wcrr_with(file, |_, _| 1)
}

/// Weighted CRR with explicit per-edge weights (edges absent from the map
/// carry weight 0 — the paper derives weights from route traversal
/// counts, so untraversed edges do not contribute).
pub fn wcrr<S: PageStore>(
    file: &NetworkFile<S>,
    weights: &HashMap<(NodeId, NodeId), u64>,
) -> StorageResult<f64> {
    wcrr_with(file, |u, v| weights.get(&(u, v)).copied().unwrap_or(0))
}

/// WCRR under an arbitrary weight function.
pub fn wcrr_with<S: PageStore>(
    file: &NetworkFile<S>,
    weight: impl Fn(NodeId, NodeId) -> u64,
) -> StorageResult<f64> {
    let scan = file.scan_uncounted()?;
    let pages = scan.iter().map(|(page, records)| (*page, &records[..]));
    Ok(wcrr_of(&file.page_map()?, pages, weight))
}

/// WCRR under `weight` of a placement already read: `page_map` is the
/// index (`NetworkFile::page_map`), `pages` every data page with its
/// records (`NetworkFile::scan_uncounted`). Lets a caller that scanned
/// the file anyway measure it without a second scan.
pub fn wcrr_of<'a>(
    page_map: &HashMap<NodeId, PageId>,
    pages: impl IntoIterator<Item = (PageId, &'a [NodeData])>,
    weight: impl Fn(NodeId, NodeId) -> u64,
) -> f64 {
    let mut total = 0u64;
    let mut unsplit = 0u64;
    for (page, records) in pages {
        for rec in records {
            for e in &rec.successors {
                let Some(&tp) = page_map.get(&e.to) else {
                    continue; // dangling edge (target not stored)
                };
                let w = weight(rec.id, e.to);
                total += w;
                if tp == page {
                    unsplit += w;
                }
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        unsplit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccam_graph::EdgeTo;

    fn node(id: u64, succs: &[u64]) -> NodeData {
        NodeData {
            id: NodeId(id),
            x: 0,
            y: 0,
            payload: vec![],
            successors: succs
                .iter()
                .map(|&s| EdgeTo {
                    to: NodeId(s),
                    cost: 1,
                })
                .collect(),
            predecessors: vec![],
        }
    }

    /// Path 1→2→3→4 packed as {1,2} and {3,4}: one of three edges split.
    fn setup() -> NetworkFile {
        let mut f = NetworkFile::new(512).unwrap();
        let nodes = [node(1, &[2]), node(2, &[3]), node(3, &[4]), node(4, &[])];
        f.bulk_load(vec![vec![&nodes[0], &nodes[1]], vec![&nodes[2], &nodes[3]]])
            .unwrap();
        f
    }

    #[test]
    fn crr_counts_unsplit_fraction() {
        let f = setup();
        assert!((crr(&f).unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn wcrr_weights_edges() {
        let f = setup();
        let mut w = HashMap::new();
        w.insert((NodeId(1), NodeId(2)), 10u64); // unsplit
        w.insert((NodeId(2), NodeId(3)), 30u64); // split
                                                 // Edge 3->4 untraversed: weight 0.
        assert!((wcrr(&f, &w).unwrap() - 10.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_or_edgeless_file_has_crr_one() {
        let f = NetworkFile::new(512).unwrap();
        assert_eq!(crr(&f).unwrap(), 1.0);
        let mut f = NetworkFile::new(512).unwrap();
        let n = node(1, &[]);
        f.bulk_load(vec![vec![&n]]).unwrap();
        assert_eq!(crr(&f).unwrap(), 1.0);
    }

    #[test]
    fn dangling_edges_ignored() {
        let mut f = NetworkFile::new(512).unwrap();
        let n = node(1, &[999]); // 999 not stored
        f.bulk_load(vec![vec![&n]]).unwrap();
        assert_eq!(crr(&f).unwrap(), 1.0);
    }

    #[test]
    fn perfect_and_worst_placements() {
        let nodes = [node(1, &[2]), node(2, &[1])];
        let mut together = NetworkFile::new(512).unwrap();
        together
            .bulk_load(vec![vec![&nodes[0], &nodes[1]]])
            .unwrap();
        assert_eq!(crr(&together).unwrap(), 1.0);
        let mut apart = NetworkFile::new(512).unwrap();
        apart
            .bulk_load(vec![vec![&nodes[0]], vec![&nodes[1]]])
            .unwrap();
        assert_eq!(crr(&apart).unwrap(), 0.0);
    }
}
