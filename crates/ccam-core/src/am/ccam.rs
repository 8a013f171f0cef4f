//! CCAM — the Connectivity-Clustered Access Method (paper §2).
//!
//! `Create()` assigns node records to data pages with the recursive
//! ratio-cut clustering of Figure 2, maximising (W)CRR. Two variants
//! reproduce the paper's §2.2:
//!
//! * **CCAM-S** ([`CcamBuilder::build_static`]) — whole-network
//!   `Static-Create()`,
//! * **CCAM-D** ([`CcamBuilder::build_dynamic`]) — `Incremental
//!   Create()` as a sequence of `Add-node()` operations with dynamic
//!   reclustering (second-order policy by default), for networks too
//!   large to partition in memory at once.
//!
//! Maintenance follows Figures 3 and 4 with the Table 1 reorganization
//! policies layered on the shared plumbing in [`super::common`].

use std::collections::HashMap;

use ccam_graph::{Network, NodeData, NodeId, RecordCodec};
use ccam_partition::{
    cluster_nodes_into_pages_with, ClusterOptions, PartGraph, PartitionStrategy, Partitioner,
};
use ccam_storage::{LogRecord, PageId, StorageError, StorageResult};

use crate::am::common::{
    self, insert_with_overflow_split, merge_on_underflow, patch_neighbors_on_delete,
    patch_neighbors_on_insert, select_page_by_neighbors, DeletedNode,
};
use crate::am::AccessMethod;
use crate::file::NetworkFile;
use crate::reorg::{self, ReorgPolicy};

/// Scale applied to route-derived edge weights during clustering. The
/// `+1` keeps untraversed edges weakly attractive, so a weighted CCAM
/// file still clusters raw connectivity where the workload is silent.
const WEIGHT_SCALE: u64 = 64;

/// Configures and creates [`Ccam`] files.
#[derive(Clone)]
pub struct CcamBuilder {
    page_size: usize,
    partitioner: Partitioner,
    policy: ReorgPolicy,
    weights: Option<HashMap<(NodeId, NodeId), u64>>,
    threads: usize,
    strategy: PartitionStrategy,
    codec: RecordCodec,
}

impl CcamBuilder {
    /// A builder for `page_size`-byte data pages with the paper's
    /// defaults — ratio-cut partitioning, second-order reorganization,
    /// uniform edge weights — and the compact record codec
    /// ([`RecordCodec::Compact`]; the paper experiments select
    /// [`RecordCodec::Paper`]).
    pub fn new(page_size: usize) -> Self {
        CcamBuilder {
            page_size,
            partitioner: Partitioner::RatioCut,
            policy: ReorgPolicy::SecondOrder,
            weights: None,
            threads: 1,
            strategy: PartitionStrategy::Flat,
            codec: RecordCodec::Compact,
        }
    }

    /// Selects the record codec of the files this builder creates.
    /// Reopened files keep the codec their pages record
    /// ([`NetworkFile::open`]).
    pub fn codec(mut self, codec: RecordCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Selects the two-way partitioning heuristic (ablation hook).
    pub fn partitioner(mut self, p: Partitioner) -> Self {
        self.partitioner = p;
        self
    }

    /// Number of threads for the bulk `Static-Create()` clustering
    /// (`0` = all available cores). The clustering result is
    /// byte-identical at every thread count, so this only changes
    /// wall-clock time, never CRR/WCRR or the paper experiments.
    /// Default: 1 (sequential).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Selects the clustering strategy for bulk `Static-Create()`:
    /// [`PartitionStrategy::Flat`] (the paper's recursive bipartition,
    /// the default) or [`PartitionStrategy::Multilevel`] (coarsen→
    /// partition→refine, for million-node networks). Pages and CRR stay
    /// deterministic for either choice.
    pub fn strategy(mut self, strategy: PartitionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Selects the reorganization policy for maintenance operations.
    pub fn policy(mut self, p: ReorgPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Supplies route-derived edge access frequencies; clustering then
    /// maximises WCRR instead of CRR (§4.3).
    pub fn weights(mut self, w: HashMap<(NodeId, NodeId), u64>) -> Self {
        self.weights = Some(w);
        self
    }

    fn wrap<S: ccam_storage::PageStore>(&self, file: NetworkFile<S>) -> Ccam<S> {
        Ccam {
            file,
            partitioner: self.partitioner,
            policy: self.policy,
            weights: self.weights.clone().unwrap_or_default(),
            update_counts: HashMap::new(),
            name: "CCAM".to_string(),
        }
    }

    /// An empty memory-backed CCAM file (nodes arrive via `insert_node`).
    pub fn build_empty(&self) -> StorageResult<Ccam> {
        self.build_empty_on(ccam_storage::MemPageStore::new(self.page_size)?)
    }

    /// An empty CCAM file over an arbitrary (empty) page store — e.g. a
    /// [`ccam_storage::FilePageStore`] for a persistent database.
    pub fn build_empty_on<S: ccam_storage::PageStore>(&self, store: S) -> StorageResult<Ccam<S>> {
        assert_eq!(
            store.page_size(),
            self.page_size,
            "store page size mismatch"
        );
        Ok(self.wrap(NetworkFile::create(store, self.codec)?))
    }

    /// Reopens an existing CCAM database from a store that already holds
    /// its data pages (e.g. a page file written by
    /// [`NetworkFile::save_to`]); the secondary index is rebuilt by one
    /// scan, and the record codec is the one the pages record, whatever
    /// this builder's.
    pub fn open_on<S: ccam_storage::PageStore>(&self, store: S) -> StorageResult<Ccam<S>> {
        let mut am = self.wrap(NetworkFile::open(store)?);
        am.name = "CCAM".to_string();
        Ok(am)
    }

    /// **CCAM-S**: `Static-Create()` — clusters the whole network at
    /// once with `cluster-nodes-into-pages()` (Figure 2) and bulk-loads
    /// the groups.
    pub fn build_static(&self, net: &Network) -> StorageResult<Ccam> {
        self.build_static_in(self.build_empty()?, net)
    }

    /// `Static-Create()` onto an arbitrary page store.
    pub fn build_static_on<S: ccam_storage::PageStore>(
        &self,
        store: S,
        net: &Network,
    ) -> StorageResult<Ccam<S>> {
        self.build_static_in(self.build_empty_on(store)?, net)
    }

    fn build_static_in<S: ccam_storage::PageStore>(
        &self,
        mut am: Ccam<S>,
        net: &Network,
    ) -> StorageResult<Ccam<S>> {
        am.name = "CCAM-S".to_string();
        let nodes: Vec<&NodeData> = net.nodes().collect();
        let idx_of: HashMap<NodeId, usize> =
            nodes.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
        let sizes: Vec<usize> = nodes.iter().map(|n| am.file.clustering_weight(n)).collect();
        let mut edges = Vec::new();
        for (i, n) in nodes.iter().enumerate() {
            for e in &n.successors {
                if let Some(&j) = idx_of.get(&e.to) {
                    edges.push((i, j, am.edge_weight(n.id, e.to)));
                }
            }
        }
        let graph = PartGraph::new(sizes, &edges);
        let opts = ClusterOptions::new(self.partitioner)
            .threads(self.threads)
            .strategy(self.strategy);
        let groups = cluster_nodes_into_pages_with(&graph, am.file.clustering_budget(), opts);
        am.file.bulk_load(
            groups
                .into_iter()
                .map(|g| g.into_iter().map(|i| nodes[i]).collect::<Vec<_>>()),
        )?;
        Ok(am)
    }

    /// **CCAM-D**: `Incremental Create()` — a sequence of `Add-node()`
    /// operations ("similar to Insert() ... \[but\] does not need to
    /// update the successor and predecessor lists", §2.2), each followed
    /// by the builder's reorganization policy.
    pub fn build_dynamic(&self, net: &Network) -> StorageResult<Ccam> {
        let mut am = self.build_empty()?;
        am.name = "CCAM-D".to_string();
        for node in net.nodes() {
            am.add_node(node)?;
        }
        Ok(am)
    }

    /// `Incremental Create()` onto an arbitrary page store.
    pub fn build_dynamic_on<S: ccam_storage::PageStore>(
        &self,
        store: S,
        net: &Network,
    ) -> StorageResult<Ccam<S>> {
        let mut am = self.build_empty_on(store)?;
        am.name = "CCAM-D".to_string();
        for node in net.nodes() {
            am.add_node(node)?;
        }
        Ok(am)
    }
}

/// The CCAM access method, generic over the backing page store
/// (memory by default; see [`CcamBuilder::open_on`] for disk files).
pub struct Ccam<S: ccam_storage::PageStore = ccam_storage::MemPageStore> {
    file: NetworkFile<S>,
    partitioner: Partitioner,
    policy: ReorgPolicy,
    /// Route-derived edge access frequencies (empty → uniform CRR).
    weights: HashMap<(NodeId, NodeId), u64>,
    /// Per-page update counters driving [`ReorgPolicy::Lazy`] triggers.
    update_counts: HashMap<ccam_storage::PageId, u32>,
    name: String,
}

impl<S: ccam_storage::PageStore> Ccam<S> {
    /// The reorganization policy used by maintenance operations.
    pub fn policy(&self) -> ReorgPolicy {
        self.policy
    }

    /// Changes the reorganization policy (the Figure 7 experiment sweeps
    /// it on one file).
    pub fn set_policy(&mut self, policy: ReorgPolicy) {
        self.policy = policy;
    }

    /// Clustering weight of an edge: scaled access frequency, keeping a
    /// baseline pull of 1 for untraversed edges.
    fn edge_weight(&self, u: NodeId, v: NodeId) -> u64 {
        self.weights
            .get(&(u, v))
            .map(|w| w * WEIGHT_SCALE + 1)
            .unwrap_or(1)
    }

    /// Places a record: neighbor-ranked page, else the fullest page with
    /// room, else a fresh page. Returns the chosen page.
    fn place_record(&mut self, node: &NodeData) -> StorageResult<ccam_storage::PageId> {
        let needed = self.file.record_len(node);
        if let Some(p) = select_page_by_neighbors(&self.file, &node.neighbors(), needed)? {
            return Ok(p);
        }
        if let Some(p) = common::any_page_with_space(&self.file, needed)? {
            return Ok(p);
        }
        self.file.allocate_page()
    }

    /// Completes one logical operation as a transaction: on success the
    /// whole operation commits (under auto-commit) as a single WAL
    /// batch; on failure — the operation's own error or the commit's —
    /// every uncommitted change is rolled back via
    /// [`NetworkFile::abort`], leaving the file on its last committed
    /// state, and the original error propagates. Without auto-commit
    /// (or without a rollback-capable store) errors just propagate: the
    /// caller owns the commit points.
    fn finish_txn<T>(&mut self, r: StorageResult<T>) -> StorageResult<T> {
        match r {
            Ok(v) => {
                if let Err(e) = self.file.maybe_commit() {
                    self.abort_txn();
                    return Err(e);
                }
                Ok(v)
            }
            Err(e) => {
                self.abort_txn();
                Err(e)
            }
        }
    }

    /// Best-effort rollback of a failed operation (its error must not be
    /// masked by the abort's). After a rollback, pages the lazy policy
    /// was counting may no longer exist, so the counters restart clean.
    fn abort_txn(&mut self) {
        if !self.file.auto_commit() {
            return;
        }
        if matches!(self.file.abort(), Ok(true)) {
            self.update_counts.clear();
        }
    }

    /// `Add-node()` — incremental-create insertion: places the record
    /// (whose lists are already complete) without patching neighbors,
    /// then applies the reorganization policy (§2.2).
    pub fn add_node(&mut self, node: &NodeData) -> StorageResult<()> {
        let r = self.add_node_inner(node);
        self.finish_txn(r)
    }

    fn add_node_inner(&mut self, node: &NodeData) -> StorageResult<()> {
        let page = self.place_record(node)?;
        let weights = std::mem::take(&mut self.weights);
        let weight = |u: NodeId, v: NodeId| {
            weights
                .get(&(u, v))
                .map(|w| w * WEIGHT_SCALE + 1)
                .unwrap_or(1)
        };
        let r = insert_with_overflow_split(&mut self.file, page, node, &weight, self.partitioner);
        self.weights = weights;
        r?;
        let page = self
            .file
            .page_of(node.id)?
            .ok_or_else(|| StorageError::Corrupt("record vanished after insert".into()))?;
        self.maintain_node(page, &node.neighbors())
    }

    /// Replaces the route-derived edge weights and reclusters the whole
    /// file to maximise WCRR under the new workload.
    ///
    /// This is the IVHS maintenance cycle the paper motivates: travel
    /// times and popular routes are "updated frequently" (§1.1), so the
    /// placement that was optimal for last month's traffic drifts; a
    /// periodic re-weight + reorganize restores it. Returns the WCRR
    /// under the new weights.
    pub fn reweight_and_reorganize(
        &mut self,
        weights: HashMap<(NodeId, NodeId), u64>,
    ) -> StorageResult<f64> {
        self.weights = weights;
        self.reorganize_full()?;
        crate::crr::wcrr(&self.file, &self.weights)
    }

    /// Reclusters the **entire data file** — Table 1's "3. all pages in
    /// data file" higher-order variant. This is the maintenance hammer: a
    /// file degraded by heavy churn recovers (near-)static-create CRR at
    /// the cost of reading and rewriting everything. Returns the CRR
    /// after reorganization.
    pub fn reorganize_full(&mut self) -> StorageResult<f64> {
        let r = self.reorganize_full_inner();
        self.finish_txn(r)?;
        crate::crr::crr(&self.file)
    }

    fn reorganize_full_inner(&mut self) -> StorageResult<()> {
        let pages: std::collections::BTreeSet<ccam_storage::PageId> =
            self.file.page_map()?.into_values().collect();
        self.reorganize_set(&pages)?;
        self.update_counts.clear();
        Ok(())
    }

    /// Reclusters an explicit page set under the configured weights.
    fn reorganize_set(
        &mut self,
        pages: &std::collections::BTreeSet<ccam_storage::PageId>,
    ) -> StorageResult<()> {
        let weights = std::mem::take(&mut self.weights);
        let weight = |u: NodeId, v: NodeId| {
            weights
                .get(&(u, v))
                .map(|w| w * WEIGHT_SCALE + 1)
                .unwrap_or(1)
        };
        let r = reorg::reorganize_pages(&mut self.file, pages, &weight, self.partitioner);
        self.weights = weights;
        r
    }

    /// Policy-driven maintenance after a node landed on / vanished from
    /// `page`: second/higher order reorganize immediately (Table 1); the
    /// lazy policy counts updates and sweeps `{P} ∪ NbrPages(P)` on
    /// trigger.
    fn maintain_node(
        &mut self,
        page: ccam_storage::PageId,
        neighbors: &[NodeId],
    ) -> StorageResult<()> {
        match self.policy {
            ReorgPolicy::FirstOrder => Ok(()),
            ReorgPolicy::SecondOrder | ReorgPolicy::HigherOrder => {
                let pages = reorg::pages_for_node_update(&self.file, page, neighbors, self.policy)?;
                self.reorganize_set(&pages)
            }
            ReorgPolicy::Lazy { every } => {
                // Every page the update wrote counts: the landing page
                // plus the neighbor pages whose lists were patched.
                self.lazy_tick(page, every)?;
                let nbr_pages = crate::pag::pages_of(&self.file, neighbors)?;
                for p in nbr_pages {
                    if p != page {
                        self.lazy_tick(p, every)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Bumps the lazy counter of `page`; sweeps on reaching `every`.
    fn lazy_tick(&mut self, page: ccam_storage::PageId, every: u32) -> StorageResult<()> {
        if !self.file.is_live_page(page) {
            self.update_counts.remove(&page);
            return Ok(());
        }
        let count = self.update_counts.entry(page).or_insert(0);
        *count += 1;
        if *count < every {
            return Ok(());
        }
        let pages = reorg::pages_for_lazy_trigger(&self.file, page)?;
        self.reorganize_set(&pages)?;
        for p in &pages {
            self.update_counts.remove(p);
        }
        Ok(())
    }

    /// Policy-driven maintenance after an edge update touching the pages
    /// of both endpoints.
    fn maintain_edge(
        &mut self,
        page_u: ccam_storage::PageId,
        page_v: ccam_storage::PageId,
    ) -> StorageResult<()> {
        match self.policy {
            ReorgPolicy::FirstOrder => Ok(()),
            ReorgPolicy::SecondOrder | ReorgPolicy::HigherOrder => {
                let pages = reorg::pages_for_edge_update(&self.file, page_u, page_v, self.policy)?;
                self.reorganize_set(&pages)
            }
            ReorgPolicy::Lazy { every } => {
                self.lazy_tick(page_u, every)?;
                if page_v != page_u {
                    self.lazy_tick(page_v, every)?;
                }
                Ok(())
            }
        }
    }

    fn insert_node_inner(
        &mut self,
        node: &NodeData,
        incoming: &[(NodeId, u32)],
    ) -> StorageResult<()> {
        let page = self.place_record(node)?;
        let weights = std::mem::take(&mut self.weights);
        let weight = |u: NodeId, v: NodeId| {
            weights
                .get(&(u, v))
                .map(|w| w * WEIGHT_SCALE + 1)
                .unwrap_or(1)
        };
        let r = insert_with_overflow_split(&mut self.file, page, node, &weight, self.partitioner);
        self.weights = weights;
        r?;
        patch_neighbors_on_insert(&mut self.file, node, incoming)?;
        let page = self
            .file
            .page_of(node.id)?
            .ok_or_else(|| StorageError::Corrupt("record vanished after insert".into()))?;
        self.maintain_node(page, &node.neighbors())
    }

    fn delete_node_inner(&mut self, id: NodeId) -> StorageResult<Option<DeletedNode>> {
        let Some((page, data)) = self.file.find(id)? else {
            return Ok(None);
        };
        let incoming = patch_neighbors_on_delete(&mut self.file, &data)?;
        self.file.remove_from(page, id)?;
        match self.policy {
            ReorgPolicy::FirstOrder | ReorgPolicy::Lazy { .. } => {
                let candidates = crate::pag::pages_of_nbrs(&self.file, &data)?;
                merge_on_underflow(&mut self.file, page, &candidates)?;
                // The lazy variant additionally counts the update and may
                // sweep (no-op under first order).
                self.maintain_node(page, &data.neighbors())?;
            }
            ReorgPolicy::SecondOrder | ReorgPolicy::HigherOrder => {
                // Reorganize around where x used to live (the page stays
                // live even when the deletion emptied it).
                self.maintain_node(page, &data.neighbors())?;
            }
        }
        Ok(Some(DeletedNode { data, incoming }))
    }

    fn insert_edge_inner(&mut self, from: NodeId, to: NodeId, cost: u32) -> StorageResult<bool> {
        let Some((pf, mut f_rec)) = self.file.find(from)? else {
            return Ok(false);
        };
        let Some((pt, mut t_rec)) = self.file.find(to)? else {
            return Ok(false);
        };
        if f_rec.successors.iter().any(|e| e.to == to) {
            return Ok(false);
        }
        f_rec.successors.push(ccam_graph::EdgeTo { to, cost });
        common::write_back(&mut self.file, pf, &f_rec)?;
        t_rec.predecessors.push(from);
        common::write_back(&mut self.file, pt, &t_rec)?;
        let pu = self
            .file
            .page_of(from)?
            .ok_or_else(|| StorageError::Corrupt("edge source lost its index entry".into()))?;
        let pv = self
            .file
            .page_of(to)?
            .ok_or_else(|| StorageError::Corrupt("edge target lost its index entry".into()))?;
        self.maintain_edge(pu, pv)?;
        Ok(true)
    }

    fn delete_edge_inner(&mut self, from: NodeId, to: NodeId) -> StorageResult<Option<u32>> {
        let Some((pf, mut f_rec)) = self.file.find(from)? else {
            return Ok(None);
        };
        let Some(pos) = f_rec.successors.iter().position(|e| e.to == to) else {
            return Ok(None);
        };
        let cost = f_rec.successors[pos].cost;
        f_rec.successors.remove(pos);
        common::write_back(&mut self.file, pf, &f_rec)?;
        if let Some((pt, mut t_rec)) = self.file.find(to)? {
            if let Some(ppos) = t_rec.predecessors.iter().position(|&p| p == from) {
                t_rec.predecessors.remove(ppos);
                common::write_back(&mut self.file, pt, &t_rec)?;
            }
        }
        let pu = self
            .file
            .page_of(from)?
            .ok_or_else(|| StorageError::Corrupt("edge source lost its index entry".into()))?;
        if let Some(pv) = self.file.page_of(to)? {
            self.maintain_edge(pu, pv)?;
        }
        Ok(Some(cost))
    }
}

impl<S: ccam_storage::PageStore> AccessMethod<S> for Ccam<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn file(&self) -> &NetworkFile<S> {
        &self.file
    }

    fn file_mut(&mut self) -> &mut NetworkFile<S> {
        &mut self.file
    }

    /// Figure 3: retrieve `PagesOfNbrs(x)` (implicit in the ranked page
    /// selection), place the record, patch the neighbor lists, then
    /// handle overflow (first order) or reorganize (higher policies).
    /// The whole operation — record placement, splits, neighbor
    /// patches, reorganization, index updates — is one transaction.
    fn insert_node_impl(
        &mut self,
        node: &NodeData,
        incoming: &[(NodeId, u32)],
    ) -> StorageResult<()> {
        let r = self.insert_node_inner(node, incoming);
        self.finish_txn(r)
    }

    /// Figure 4: retrieve `Page(x)` and `PagesOfNbrs(x)`, patch the
    /// neighbors, delete record and index entry, then merge on underflow
    /// (first order) or reorganize (higher policies). One transaction.
    fn delete_node_impl(&mut self, id: NodeId) -> StorageResult<Option<DeletedNode>> {
        let r = self.delete_node_inner(id);
        self.finish_txn(r)
    }

    fn insert_edge_impl(&mut self, from: NodeId, to: NodeId, cost: u32) -> StorageResult<bool> {
        let r = self.insert_edge_inner(from, to, cost);
        self.finish_txn(r)
    }

    fn delete_edge_impl(&mut self, from: NodeId, to: NodeId) -> StorageResult<Option<u32>> {
        let r = self.delete_edge_inner(from, to);
        self.finish_txn(r)
    }
}

impl<S: ccam_storage::PageStore> Ccam<S> {
    /// Replication follower apply: redoes a shipped WAL segment onto the
    /// backing store ([`ccam_storage::apply_segment`]) and re-coheres the
    /// in-memory layers on top of the changed pages — cached frames are
    /// discarded (their contents may predate the segment) and the node
    /// index is brought up to date for the pages the segment names
    /// ([`NetworkFile::reindex_pages`]), so applying costs what was
    /// shipped, not what the follower holds. Batches at or below
    /// `applied_lsn` are skipped, so re-applying an overlapping segment
    /// after a crash is harmless.
    ///
    /// The caller publishes the new state to readers afterwards (via
    /// `EpochCell` commit); until then snapshot readers keep their pinned
    /// generation.
    pub fn apply_replicated(
        &mut self,
        records: &[ccam_storage::StampedRecord],
        applied_lsn: u64,
    ) -> StorageResult<ccam_storage::SegmentApply> {
        let mut pages: Vec<PageId> = records
            .iter()
            .filter_map(|r| match r.record {
                LogRecord::PageImage { page, .. }
                | LogRecord::Alloc { page }
                | LogRecord::Free { page } => Some(page),
                LogRecord::Commit | LogRecord::Checkpoint => None,
            })
            .collect();
        pages.sort_unstable();
        pages.dedup();
        let apply = self.file.reindex_pages(&pages, |s| {
            ccam_storage::apply_segment(s, records, applied_lsn)
        })?;
        self.update_counts.clear();
        Ok(apply)
    }

    /// Replication follower re-seed: replaces the backing store's live
    /// page set with a full primary image ([`ccam_storage::apply_image`])
    /// and rebuilds the in-memory layers, for catch-up when the primary's
    /// log no longer retains our position.
    pub fn apply_replicated_image(
        &mut self,
        pages: &[(ccam_storage::PageId, Vec<u8>)],
    ) -> StorageResult<u64> {
        self.file.pool().discard_frames();
        let written = self
            .file
            .pool()
            .with_store_mut(|s| ccam_storage::apply_image(s, pages))?;
        self.file.rebuild_index()?;
        self.update_counts.clear();
        Ok(written)
    }

    /// Commits, then has the store's log start keeping multi-version
    /// committed page images (`WalStore::enable_snapshots`), which every
    /// snapshot capture pins. Capture turns them on itself; calling this
    /// first only moves the one-time seeding scan out of the first
    /// commit. Fails with [`StorageError::NoLog`] over a store with no
    /// write-ahead log.
    pub fn enable_snapshots(&mut self) -> StorageResult<()> {
        self.file.commit()?;
        self.page_versions().map(drop)
    }

    /// The log's committed page versions, turned on by the first call
    /// (which must come at a commit boundary).
    fn page_versions(&self) -> StorageResult<std::sync::Arc<ccam_storage::PageVersions>> {
        self.file
            .pool()
            .with_wal(|log| log.enable_snapshots())
            .unwrap_or(Err(StorageError::NoLog))
    }
}

/// Snapshot capture for the serving layer: the view is a read-only CCAM
/// over one pinned committed generation of the store's write-ahead log
/// ([`ccam_storage::SnapshotStore`]). All [`AccessMethod`] read
/// operations run unmodified against it. The view is built from the
/// writer's state, not by scanning the generation: its index is a
/// copy-on-write fork of the writer's and its quarantine set is the
/// generation's own list of unreadable pages
/// ([`NetworkFile::snapshot_view`]), so degraded reads keep working over
/// snapshots and a capture costs what the commit changed. A store with
/// no log cannot be captured ([`StorageError::NoLog`]).
impl<S: ccam_storage::PageStore> crate::epoch::Snapshotable for Ccam<S> {
    type View = Ccam<ccam_storage::SnapshotStore>;

    fn capture(&self, prev: Option<&Self::View>) -> StorageResult<Self::View> {
        // Flush + sync first: the commit point that publishes the batch
        // as a new generation, and the batch boundary the first capture
        // turns versioning on at.
        self.file.commit()?;
        let store = ccam_storage::SnapshotStore::pin(&self.page_versions()?);
        // The view that is being replaced was sized by whoever serves
        // it; its successor keeps that size.
        let frames = prev.map_or(crate::file::DEFAULT_BUFFER_FRAMES, |view| {
            view.file.pool().capacity()
        });
        Ok(Ccam {
            file: self.file.snapshot_view(store, frames)?,
            partitioner: self.partitioner,
            policy: self.policy,
            // The view is read-only: clustering weights and lazy-policy
            // counters only matter to mutations.
            weights: HashMap::new(),
            update_counts: HashMap::new(),
            name: self.name.clone(),
        })
    }

    fn restore_committed(&mut self) -> StorageResult<()> {
        // The log discards the torn transaction; the index and the
        // quarantine set are then rebuilt from what the store holds.
        self.file.abort()?;
        self.file.rebuild_index()?;
        self.update_counts.clear();
        Ok(())
    }

    fn stats_handle(&self) -> Option<std::sync::Arc<ccam_storage::IoStats>> {
        Some(self.file.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccam_graph::generators::grid_network;

    #[test]
    fn static_create_stores_every_node() {
        let net = grid_network(8, 8, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        assert_eq!(am.file().len(), 64);
        for id in net.node_ids() {
            let rec = am.find(id).unwrap().unwrap();
            assert_eq!(&rec, net.node(id).unwrap());
        }
    }

    #[test]
    fn static_create_yields_high_crr() {
        let net = grid_network(10, 10, 1.0);
        let am = CcamBuilder::new(1024).build_static(&net).unwrap();
        let crr = am.crr().unwrap();
        assert!(crr > 0.5, "static CCAM CRR {crr:.3} unexpectedly low");
    }

    #[test]
    fn dynamic_create_matches_static_contents() {
        let net = grid_network(6, 6, 1.0);
        let s = CcamBuilder::new(512).build_static(&net).unwrap();
        let d = CcamBuilder::new(512).build_dynamic(&net).unwrap();
        assert_eq!(s.file().len(), d.file().len());
        for id in net.node_ids() {
            assert_eq!(
                s.find(id).unwrap().unwrap(),
                d.find(id).unwrap().unwrap(),
                "{id:?}"
            );
        }
        // Dynamic clustering is decent, if below static.
        let crr_d = d.crr().unwrap();
        assert!(crr_d > 0.3, "CCAM-D CRR {crr_d:.3}");
    }

    #[test]
    fn get_successors_returns_all() {
        let net = grid_network(5, 5, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        for id in net.node_ids() {
            let succs = am.get_successors(id).unwrap();
            let expect = &net.node(id).unwrap().successors;
            assert_eq!(succs.len(), expect.len());
            for e in expect {
                assert!(succs.iter().any(|s| s.id == e.to));
            }
        }
    }

    #[test]
    fn insert_then_delete_roundtrip() {
        let net = grid_network(5, 5, 1.0);
        let mut am = CcamBuilder::new(512).build_static(&net).unwrap();
        let victim = net.node_ids()[12];
        let deleted = am.delete_node(victim).unwrap().unwrap();
        assert!(am.find(victim).unwrap().is_none());
        // Neighbors no longer reference the victim.
        for e in &deleted.data.successors {
            let rec = am.find(e.to).unwrap().unwrap();
            assert!(!rec.predecessors.contains(&victim));
        }
        // Re-insert: full restoration.
        am.insert_node(&deleted.data, &deleted.incoming).unwrap();
        let back = am.find(victim).unwrap().unwrap();
        assert_eq!(back.successors.len(), deleted.data.successors.len());
        for e in &deleted.data.successors {
            let rec = am.find(e.to).unwrap().unwrap();
            assert!(rec.predecessors.contains(&victim));
        }
        for &(p, cost) in &deleted.incoming {
            let rec = am.find(p).unwrap().unwrap();
            assert!(rec
                .successors
                .iter()
                .any(|e| e.to == victim && e.cost == cost));
        }
    }

    #[test]
    fn edge_insert_delete_roundtrip() {
        let net = grid_network(4, 4, 1.0);
        let mut am = CcamBuilder::new(512).build_static(&net).unwrap();
        let ids = net.node_ids();
        let (a, b) = (ids[0], ids[15]); // far apart: no existing edge
        assert!(am.insert_edge(a, b, 42).unwrap());
        assert!(!am.insert_edge(a, b, 42).unwrap(), "duplicate rejected");
        let rec = am.find(a).unwrap().unwrap();
        assert!(rec.successors.iter().any(|e| e.to == b && e.cost == 42));
        assert_eq!(am.delete_edge(a, b).unwrap(), Some(42));
        assert_eq!(am.delete_edge(a, b).unwrap(), None);
        let rec = am.find(b).unwrap().unwrap();
        assert!(!rec.predecessors.contains(&a));
    }

    #[test]
    fn policies_all_converge_to_consistent_files() {
        let net = grid_network(6, 6, 1.0);
        for policy in [
            ReorgPolicy::FirstOrder,
            ReorgPolicy::SecondOrder,
            ReorgPolicy::HigherOrder,
        ] {
            let mut am = CcamBuilder::new(512)
                .policy(policy)
                .build_static(&net)
                .unwrap();
            let ids = net.node_ids();
            // Delete + reinsert a batch of nodes under this policy.
            for &id in ids.iter().step_by(5) {
                let del = am.delete_node(id).unwrap().unwrap();
                am.insert_node(&del.data, &del.incoming).unwrap();
            }
            for id in net.node_ids() {
                assert!(
                    am.find(id).unwrap().is_some(),
                    "{policy:?} lost node {id:?}"
                );
            }
            let crr = am.crr().unwrap();
            assert!((0.0..=1.0).contains(&crr));
        }
    }

    /// Table 1's claim, on the paper's record. (With the compact record
    /// first order happens to end ahead on this grid: 0.723 against
    /// 0.705.)
    #[test]
    fn second_order_keeps_crr_healthier_than_first_under_churn() {
        let net = grid_network(8, 8, 1.0);
        let mut crr_by_policy = Vec::new();
        for policy in [ReorgPolicy::FirstOrder, ReorgPolicy::SecondOrder] {
            let mut am = CcamBuilder::new(512)
                .codec(RecordCodec::Paper)
                .policy(policy)
                .build_empty()
                .unwrap();
            am.name = policy.name().to_string();
            // Incremental build = pure churn workload.
            for node in net.nodes() {
                am.add_node(node).unwrap();
            }
            crr_by_policy.push(am.crr().unwrap());
        }
        assert!(
            crr_by_policy[1] >= crr_by_policy[0],
            "second-order {:.3} should beat first-order {:.3}",
            crr_by_policy[1],
            crr_by_policy[0]
        );
    }

    #[test]
    fn full_reorganization_restores_churned_crr() {
        let net = grid_network(9, 9, 1.0);
        // Degrade a first-order file with heavy churn.
        let mut am = CcamBuilder::new(512)
            .policy(ReorgPolicy::FirstOrder)
            .build_empty()
            .unwrap();
        for node in net.nodes() {
            am.add_node(node).unwrap();
        }
        let ids = net.node_ids();
        for round in 0..2 {
            for &id in ids.iter().skip(round).step_by(3) {
                let del = am.delete_node(id).unwrap().unwrap();
                am.insert_node(&del.data, &del.incoming).unwrap();
            }
        }
        let degraded = am.crr().unwrap();
        let restored = am.reorganize_full().unwrap();
        let static_baseline = CcamBuilder::new(512)
            .build_static(&net)
            .unwrap()
            .crr()
            .unwrap();
        assert!(
            restored > degraded,
            "full reorg must improve CRR: {degraded:.3} -> {restored:.3}"
        );
        assert!(
            restored > static_baseline - 0.1,
            "restored {restored:.3} should approach static {static_baseline:.3}"
        );
        // Contents untouched (edge-list order may differ after churn).
        for id in net.node_ids() {
            let rec = am.find(id).unwrap().unwrap();
            let want = net.node(id).unwrap();
            let mut got_s = rec.successors.clone();
            let mut want_s = want.successors.clone();
            got_s.sort_by_key(|e| e.to);
            want_s.sort_by_key(|e| e.to);
            assert_eq!(got_s, want_s, "{id:?}");
        }
    }

    #[test]
    fn lazy_policy_preserves_consistency_and_triggers_sweeps() {
        let net = grid_network(8, 8, 1.0);
        let mut am = CcamBuilder::new(512)
            .policy(ReorgPolicy::Lazy { every: 4 })
            .build_static(&net)
            .unwrap();
        let ids = net.node_ids();
        // Enough churn on overlapping pages to trip several sweeps.
        for round in 0..3 {
            for &id in ids.iter().skip(round).step_by(4) {
                let del = am.delete_node(id).unwrap().unwrap();
                am.insert_node(&del.data, &del.incoming).unwrap();
            }
        }
        for id in net.node_ids() {
            let rec = am.find(id).unwrap().unwrap();
            for e in &rec.successors {
                let t = am.find(e.to).unwrap().unwrap();
                assert!(t.predecessors.contains(&id));
            }
        }
        let crr = am.crr().unwrap();
        assert!((0.0..=1.0).contains(&crr));
    }

    #[test]
    fn lazy_policy_keeps_crr_above_first_order_under_growth() {
        let net = grid_network(9, 9, 1.0);
        let mut results = Vec::new();
        for policy in [ReorgPolicy::FirstOrder, ReorgPolicy::Lazy { every: 6 }] {
            let mut am = CcamBuilder::new(512).policy(policy).build_empty().unwrap();
            for node in net.nodes() {
                am.add_node(node).unwrap();
            }
            results.push(am.crr().unwrap());
        }
        assert!(
            results[1] >= results[0] - 0.02,
            "lazy {:.3} should at least match first-order {:.3}",
            results[1],
            results[0]
        );
    }

    #[test]
    fn reweighting_adapts_placement_to_new_traffic() {
        let net = grid_network(8, 8, 1.0);
        let ids: Vec<NodeId> = (0..8)
            .map(|x| ccam_graph::generators::zorder_id(x, 2))
            .collect();
        // Morning traffic: a hot west-east corridor on row 2.
        let mut morning = HashMap::new();
        for w in ids.windows(2) {
            morning.insert((w[0], w[1]), 500u64);
        }
        let mut am = CcamBuilder::new(512)
            .weights(morning.clone())
            .build_static(&net)
            .unwrap();
        let wcrr_morning = am.wcrr(&morning).unwrap();
        // Evening traffic: a hot north-south corridor on column 5.
        let col: Vec<NodeId> = (0..8)
            .map(|y| ccam_graph::generators::zorder_id(5, y))
            .collect();
        let mut evening = HashMap::new();
        for w in col.windows(2) {
            evening.insert((w[0], w[1]), 500u64);
        }
        let before_reweight = am.wcrr(&evening).unwrap();
        let after = am.reweight_and_reorganize(evening.clone()).unwrap();
        assert!(
            after > before_reweight,
            "reorganizing for evening traffic must raise its WCRR: {before_reweight:.3} -> {after:.3}"
        );
        assert!(
            wcrr_morning > 0.5,
            "morning placement served morning traffic"
        );
        // Contents intact.
        for id in net.node_ids() {
            assert!(am.find(id).unwrap().is_some());
        }
    }

    #[test]
    fn weighted_build_colocates_hot_edges() {
        let net = grid_network(6, 6, 1.0);
        // Make one long horizontal chain of edges extremely hot.
        let mut weights = HashMap::new();
        let ids: Vec<NodeId> = (0..6)
            .map(|x| ccam_graph::generators::zorder_id(x, 3))
            .collect();
        for w in ids.windows(2) {
            weights.insert((w[0], w[1]), 1000u64);
        }
        let am = CcamBuilder::new(512)
            .weights(weights.clone())
            .build_static(&net)
            .unwrap();
        let wcrr = am.wcrr(&weights).unwrap();
        assert!(
            wcrr > 0.6,
            "hot chain should be mostly colocated, wcrr = {wcrr:.3}"
        );
    }
}
