//! Database integrity verification — `fsck` for CCAM files.
//!
//! A disk-resident access method needs a way to audit an opened file:
//! the secondary index and the data pages are physically separate
//! structures ("a secondary index is created on top of the data file",
//! §2.1), so corruption, a crashed reorganization or an external tool
//! can desynchronise them. [`verify`] cross-checks everything that must
//! hold:
//!
//! * every index entry points at a live page that actually holds the
//!   record,
//! * every stored record is indexed (no orphans),
//! * node ids are unique across pages,
//! * successor/predecessor lists are mutually consistent,
//! * every data page records the file's record codec,
//! * page occupancy respects the half-full goal (reported, not fatal —
//!   the paper's invariant is "whenever possible").

use std::collections::HashMap;
use std::fmt;

use ccam_graph::{NodeId, RecordCodec};
use ccam_storage::{PageId, PageStore, StorageResult};

use crate::file::NetworkFile;

/// One integrity problem found by [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Issue {
    /// An index entry references a page that does not hold the record.
    IndexPointsAway {
        /// The node whose entry is wrong.
        node: NodeId,
        /// Where the index claims the record lives.
        claimed: PageId,
    },
    /// A stored record has no index entry.
    OrphanRecord {
        /// The unindexed node.
        node: NodeId,
        /// The page holding it.
        page: PageId,
    },
    /// The same node id appears on two pages.
    DuplicateRecord {
        /// The duplicated node.
        node: NodeId,
        /// First page holding it.
        first: PageId,
        /// Second page holding it.
        second: PageId,
    },
    /// An edge `from → to` lacks the matching predecessor back-link.
    MissingBackLink {
        /// Edge source.
        from: NodeId,
        /// Edge target.
        to: NodeId,
    },
    /// A predecessor entry has no matching successor edge.
    DanglingPredecessor {
        /// The node listing the predecessor.
        node: NodeId,
        /// The claimed predecessor.
        pred: NodeId,
    },
    /// A data page's header records a codec other than the file's.
    CodecMismatch {
        /// The page.
        page: PageId,
        /// The codec its header records.
        found: RecordCodec,
        /// The file's codec.
        file: RecordCodec,
    },
}

impl fmt::Display for Issue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Issue::IndexPointsAway { node, claimed } => {
                write!(
                    f,
                    "index maps {node} to {claimed} but the record is not there"
                )
            }
            Issue::OrphanRecord { node, page } => {
                write!(f, "record {node} on {page} is not indexed")
            }
            Issue::DuplicateRecord {
                node,
                first,
                second,
            } => {
                write!(f, "record {node} stored twice: {first} and {second}")
            }
            Issue::MissingBackLink { from, to } => {
                write!(f, "edge {from} -> {to} has no predecessor back-link")
            }
            Issue::DanglingPredecessor { node, pred } => {
                write!(f, "{node} lists predecessor {pred} but no such edge exists")
            }
            Issue::CodecMismatch { page, found, file } => {
                write!(
                    f,
                    "{page} holds {} records in a {} file",
                    found.name(),
                    file.name()
                )
            }
        }
    }
}

/// Result of a [`verify`] run.
#[derive(Debug, Default)]
pub struct Report {
    /// Fatal inconsistencies (structure is wrong).
    pub issues: Vec<Issue>,
    /// Records checked.
    pub records: usize,
    /// Live data pages scanned.
    pub pages: usize,
    /// Pages below half occupancy (informational; the paper's invariant
    /// is best-effort).
    pub underfull_pages: usize,
    /// CRR of the placement, as a health indicator.
    pub crr: f64,
}

impl Report {
    /// True when no fatal issues were found.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Audits the file (uncounted full scan).
pub fn verify<S: PageStore>(file: &NetworkFile<S>) -> StorageResult<Report> {
    let mut report = Report {
        crr: crate::crr::crr(file)?,
        ..Report::default()
    };
    let index_map = file.page_map()?;
    let scan = file.scan_uncounted()?;
    report.pages = scan.len();
    for (page, found) in file.codec_mismatches_uncounted()? {
        report.issues.push(Issue::CodecMismatch {
            page,
            found,
            file: file.codec(),
        });
    }

    // Where each record actually lives, detecting duplicates.
    let mut actual: HashMap<NodeId, PageId> = HashMap::new();
    let mut edges: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    let mut preds: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for (page, records) in &scan {
        let mut used = 0usize;
        for rec in records {
            report.records += 1;
            used += file.clustering_weight(rec);
            if let Some(&first) = actual.get(&rec.id) {
                report.issues.push(Issue::DuplicateRecord {
                    node: rec.id,
                    first,
                    second: *page,
                });
            } else {
                actual.insert(rec.id, *page);
            }
            edges.insert(rec.id, rec.successors.iter().map(|e| e.to).collect());
            preds.insert(rec.id, rec.predecessors.clone());
        }
        if !records.is_empty() && used * 2 < file.clustering_budget() {
            report.underfull_pages += 1;
        }
    }

    // Index ↔ pages.
    for (&node, &claimed) in &index_map {
        if actual.get(&node) != Some(&claimed) {
            report.issues.push(Issue::IndexPointsAway { node, claimed });
        }
    }
    for (&node, &page) in &actual {
        if !index_map.contains_key(&node) {
            report.issues.push(Issue::OrphanRecord { node, page });
        }
    }

    // Cross-links (only between stored records; dangling references to
    // never-stored nodes are legal mid-incremental-create).
    for (&from, succs) in &edges {
        for &to in succs {
            if let Some(p) = preds.get(&to) {
                if !p.contains(&from) {
                    report.issues.push(Issue::MissingBackLink { from, to });
                }
            }
        }
    }
    for (&node, ps) in &preds {
        for &pred in ps {
            if let Some(succs) = edges.get(&pred) {
                if !succs.contains(&node) {
                    report
                        .issues
                        .push(Issue::DanglingPredecessor { node, pred });
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::am::{AccessMethod, CcamBuilder};
    use ccam_graph::generators::grid_network;

    #[test]
    fn fresh_file_is_clean() {
        let net = grid_network(8, 8, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let report = verify(am.file()).unwrap();
        assert!(report.is_clean(), "{:?}", report.issues);
        assert_eq!(report.records, 64);
        assert!(report.pages > 0);
        assert!(report.crr > 0.0);
    }

    #[test]
    fn churned_file_stays_clean() {
        let net = grid_network(7, 7, 1.0);
        let mut am = CcamBuilder::new(512).build_static(&net).unwrap();
        for id in net.node_ids().into_iter().step_by(2) {
            let del = am.delete_node(id).unwrap().unwrap();
            am.insert_node(&del.data, &del.incoming).unwrap();
        }
        let report = verify(am.file()).unwrap();
        assert!(report.is_clean(), "{:?}", report.issues);
        assert_eq!(report.records, 49);
    }

    #[test]
    fn detects_index_desync() {
        let net = grid_network(5, 5, 1.0);
        let mut am = CcamBuilder::new(512).build_static(&net).unwrap();
        // Sabotage: remove a record from its page behind the index's back.
        let id = net.node_ids()[7];
        let page = am.file().page_of(id).unwrap().unwrap();
        // remove_from also fixes the index, so re-add the stale entry by
        // reinserting the record on a DIFFERENT page without updating the
        // original entry… simplest sabotage: delete the record bytes via
        // remove_from, then manually re-create an index entry by inserting
        // the record into another page and hand-editing is not exposed —
        // instead remove and verify the orphan/away detection with a raw
        // two-step: take the record out (index entry goes too), then put
        // it back on a fresh page but ALSO leave a duplicate on the page
        // by inserting twice via insert_into.
        let rec = am.file().read_from_page(page, id).unwrap().unwrap();
        let fresh = am.file_mut().allocate_page().unwrap();
        // Duplicate: same id on two pages; index points at the fresh one.
        assert!(am.file_mut().insert_into(fresh, &rec).unwrap());
        let report = verify(am.file()).unwrap();
        assert!(!report.is_clean());
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, Issue::DuplicateRecord { node, .. } if *node == id)));
    }

    #[test]
    fn detects_broken_cross_links() {
        let net = grid_network(4, 4, 1.0);
        let mut am = CcamBuilder::new(512).build_static(&net).unwrap();
        // Sabotage: drop one predecessor entry without touching the edge.
        let id = net.node_ids()[5];
        let (page, mut rec) = am.file().find(id).unwrap().unwrap();
        assert!(!rec.predecessors.is_empty());
        let dropped = rec.predecessors.remove(0);
        assert!(am.file_mut().update_in(page, &rec).unwrap());
        let report = verify(am.file()).unwrap();
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, Issue::MissingBackLink { from, to }
                 if *from == dropped && *to == id)));
    }

    #[test]
    fn detects_a_page_in_another_codec() {
        let net = ccam_graph::generators::path_network(3);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        assert_eq!(am.file().codec(), RecordCodec::Compact);
        let page = am.file().page_of(net.node_ids()[0]).unwrap().unwrap();
        let records = am.file().read_page_records(page).unwrap();
        // Rewrite the page in the paper's format behind the file's back.
        am.file()
            .pool()
            .with_page_mut(page, |buf| {
                let mut sp = ccam_storage::SlottedPage::init(buf);
                for rec in &records {
                    sp.insert(&RecordCodec::Paper.encode(rec)).unwrap();
                }
            })
            .unwrap();
        let report = verify(am.file()).unwrap();
        assert_eq!(
            report.issues,
            vec![Issue::CodecMismatch {
                page,
                found: RecordCodec::Paper,
                file: RecordCodec::Compact,
            }]
        );
        assert_eq!(
            report.records, 3,
            "the page still decodes, in its own codec"
        );
    }

    #[test]
    fn issue_display_is_informative() {
        let i = Issue::DuplicateRecord {
            node: ccam_graph::NodeId(7),
            first: ccam_storage::PageId(1),
            second: ccam_storage::PageId(2),
        };
        let s = i.to_string();
        assert!(s.contains("N7") && s.contains("P1") && s.contains("P2"));
    }
}
