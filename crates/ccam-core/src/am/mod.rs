//! The access-method interface and its four implementations.
//!
//! "Aggregate queries on networks and the management of network data
//! require the efficient support of the following set of operations:
//! Create(), Find(), Insert(), Delete(), Get-A-successor() and
//! Get-successors()." (paper §1.2)
//!
//! * [`Ccam`] — connectivity clustering via graph partitioning (the
//!   paper's contribution; CCAM-S static create, CCAM-D incremental),
//! * [`TopoAm`] — topological-ordering files generalised to graphs:
//!   DFS-AM, BFS-AM and WDFS-AM,
//! * [`GridAm`] — spatial-proximity clustering with the Grid File.
//!
//! All implementations share one [`NetworkFile`] layout (slotted pages +
//! B⁺-tree index) and the same maintenance plumbing in [`common`]; they
//! differ exactly where the paper says they do — in how nodes are
//! assigned to pages at `Create()` and on updates.

pub mod ccam;
pub mod common;
pub mod gridam;
pub mod topo;

use std::collections::HashMap;
use std::sync::Arc;

use ccam_graph::{NodeData, NodeId};
use ccam_storage::{IoStats, MemPageStore, PageStore, StorageResult};

use crate::file::{Degraded, NetworkFile};

pub use ccam::{Ccam, CcamBuilder};
pub use common::DeletedNode;
pub use gridam::GridAm;
pub use topo::{TopoAm, TraversalOrder};

/// The network access-method operations of paper §1.2.
///
/// Implementations expose their data file via [`AccessMethod::file`];
/// the search operations have shared default implementations because the
/// paper defines them identically for every method (only the page
/// *placement* differs).
pub trait AccessMethod<S: PageStore = MemPageStore> {
    /// Display name used in experiment output ("CCAM-S", "DFS-AM", ...).
    fn name(&self) -> &str;

    /// The underlying data file.
    fn file(&self) -> &NetworkFile<S>;

    /// Mutable access to the data file.
    fn file_mut(&mut self) -> &mut NetworkFile<S>;

    // -- search operations ---------------------------------------------------
    //
    // Every entry point opens an operation span on the shared [`IoStats`].
    // Spans are no-ops unless profiling was enabled via
    // [`IoStats::set_profiling`]; nested calls (e.g. `get_successors` →
    // `find`) fold into the outermost span, so each public operation yields
    // exactly one [`ccam_storage::OpProfile`].

    /// `Find()`: retrieve the record of a given node-id via the secondary
    /// index (one counted data-page access on a cold buffer).
    fn find(&self, id: NodeId) -> StorageResult<Option<NodeData>> {
        let _span = self.stats().span("find");
        Ok(self.file().find(id)?.map(|(_, rec)| rec))
    }

    /// `Get-A-successor()`: retrieve the successor `to` of a node already
    /// in the buffer. "The buffered data-page should be searched first.
    /// If the desired successor node is not in the buffer, then a Find()
    /// operation is needed" (§2.3). One O(1) probe of the most recently
    /// used frame — `from`'s page when the caller has just read it — then
    /// `Find()`; see [`NetworkFile::find_buffered_first`].
    fn get_a_successor(&self, _from: NodeId, to: NodeId) -> StorageResult<Option<NodeData>> {
        let _span = self.stats().span("get_a_successor");
        Ok(self.file().find_buffered_first(to)?.map(|(_, rec)| rec))
    }

    /// `Get-successors()`: retrieve the records of all successors of
    /// `id`. Each successor is looked up by the `Get-A-successor()` rule:
    /// one co-located with the record read just before it (`id`'s own, or
    /// the previous successor's) is found on the most recently used frame
    /// without an index access; any other is a `Find()`, which costs no
    /// I/O when its page is buffered (§2.3). The owned form of
    /// [`NetworkFile::with_successors`], the walk A* expands by.
    fn get_successors(&self, id: NodeId) -> StorageResult<Vec<NodeData>> {
        let _span = self.stats().span("get_successors");
        let mut out = Vec::new();
        self.file()
            .with_successors(id, &mut Vec::new(), |_, rec| out.push(rec.to_owned()))?;
        Ok(out)
    }

    /// `Get-successors()` that degrades instead of aborting: successors
    /// on quarantined (checksum-failed) pages are skipped and the pages
    /// reported in [`Degraded::skipped`], so a partially corrupted file
    /// still answers with everything readable. See
    /// [`NetworkFile::find_degraded`] for the skip semantics.
    fn get_successors_degraded(&self, id: NodeId) -> StorageResult<Degraded<Vec<NodeData>>> {
        let _span = self.stats().span("get_successors_degraded");
        let src = self.file().find_degraded(id)?;
        let mut skipped = src.skipped;
        let Some(rec) = src.value else {
            return Ok(Degraded {
                value: Vec::new(),
                skipped,
            });
        };
        let mut out = Vec::with_capacity(rec.successors.len());
        for e in &rec.successors {
            let d = self.file().find_degraded(e.to)?;
            for p in d.skipped {
                if !skipped.contains(&p) {
                    skipped.push(p);
                }
            }
            if let Some(s) = d.value {
                out.push(s);
            }
        }
        Ok(Degraded {
            value: out,
            skipped,
        })
    }

    // -- maintenance operations -----------------------------------------------

    /// `Insert()` with a node argument: store `node`'s record and patch
    /// the successor/predecessor lists of its neighbors. `incoming`
    /// provides the costs of edges *into* the new node (predecessor →
    /// node), matching `node.predecessors`.
    fn insert_node(&mut self, node: &NodeData, incoming: &[(NodeId, u32)]) -> StorageResult<()> {
        let _span = self.stats().span("insert_node");
        self.insert_node_impl(node, incoming)
    }

    /// Method-specific body of [`AccessMethod::insert_node`]. Callers use
    /// `insert_node`, which wraps this in an operation span.
    fn insert_node_impl(
        &mut self,
        node: &NodeData,
        incoming: &[(NodeId, u32)],
    ) -> StorageResult<()>;

    /// `Delete()` with a node argument: remove the record, patch the
    /// neighbors, and return everything needed to re-insert it.
    fn delete_node(&mut self, id: NodeId) -> StorageResult<Option<DeletedNode>> {
        let _span = self.stats().span("delete_node");
        self.delete_node_impl(id)
    }

    /// Method-specific body of [`AccessMethod::delete_node`].
    fn delete_node_impl(&mut self, id: NodeId) -> StorageResult<Option<DeletedNode>>;

    /// `Insert()` with an edge argument. Returns false when the edge
    /// already exists or an endpoint is missing.
    fn insert_edge(&mut self, from: NodeId, to: NodeId, cost: u32) -> StorageResult<bool> {
        let _span = self.stats().span("insert_edge");
        self.insert_edge_impl(from, to, cost)
    }

    /// Method-specific body of [`AccessMethod::insert_edge`].
    fn insert_edge_impl(&mut self, from: NodeId, to: NodeId, cost: u32) -> StorageResult<bool>;

    /// `Delete()` with an edge argument. Returns the removed cost.
    fn delete_edge(&mut self, from: NodeId, to: NodeId) -> StorageResult<Option<u32>> {
        let _span = self.stats().span("delete_edge");
        self.delete_edge_impl(from, to)
    }

    /// Method-specific body of [`AccessMethod::delete_edge`].
    fn delete_edge_impl(&mut self, from: NodeId, to: NodeId) -> StorageResult<Option<u32>>;

    // -- metrics ---------------------------------------------------------------

    /// The Connectivity Residue Ratio of the current placement.
    fn crr(&self) -> StorageResult<f64> {
        crate::crr::crr(self.file())
    }

    /// Weighted CRR under route-derived edge weights.
    fn wcrr(&self, weights: &HashMap<(NodeId, NodeId), u64>) -> StorageResult<f64> {
        crate::crr::wcrr(self.file(), weights)
    }

    /// Counted I/O statistics of the data file.
    fn stats(&self) -> Arc<IoStats> {
        self.file().stats()
    }
}
