//! Property test: every access method, driven by an arbitrary sequence
//! of node/edge inserts and deletes, stays in lockstep with an
//! in-memory [`Network`] model — same records, same successor sets,
//! consistent cross-references — under every reorganization policy.

use ccam_core::am::{AccessMethod, CcamBuilder, GridAm, TopoAm, TraversalOrder};
use ccam_core::reorg::ReorgPolicy;
use ccam_graph::generators::grid_network;
use ccam_graph::{EdgeTo, Network, NodeData, NodeId, RecordCodec};
use ccam_storage::PageStore;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    /// Delete the i-th (mod live) node.
    DeleteNode(usize),
    /// Re-insert a previously deleted node.
    ReinsertNode(usize),
    /// Insert edge between the i-th and j-th live nodes.
    InsertEdge(usize, usize, u32),
    /// Delete the i-th (mod existing) edge.
    DeleteEdge(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => any::<usize>().prop_map(Op::DeleteNode),
        2 => any::<usize>().prop_map(Op::ReinsertNode),
        2 => (any::<usize>(), any::<usize>(), 1u32..50).prop_map(|(a, b, c)| Op::InsertEdge(a, b, c)),
        2 => any::<usize>().prop_map(Op::DeleteEdge),
    ]
}

/// Applies one op to both the AM and the model network; returns false if
/// the op was a no-op (e.g. nothing to delete).
fn apply<S: PageStore>(
    am: &mut dyn AccessMethod<S>,
    model: &mut Network,
    graveyard: &mut Vec<(NodeData, Vec<(NodeId, u32)>)>,
    op: &Op,
) -> bool {
    match op {
        Op::DeleteNode(i) => {
            let ids = model.node_ids();
            if ids.is_empty() {
                return false;
            }
            let id = ids[i % ids.len()];
            let deleted = am.delete_node(id).unwrap().expect("model says present");
            let model_data = model.remove_node(id).expect("model agrees");
            assert_eq!(deleted.data, model_data, "deleted record mismatch");
            graveyard.push((deleted.data, deleted.incoming));
            true
        }
        Op::ReinsertNode(i) => {
            if graveyard.is_empty() {
                return false;
            }
            let (mut data, incoming) = graveyard.remove(i % graveyard.len());
            // Drop references to nodes that died after this one.
            data.successors.retain(|e| model.node(e.to).is_some());
            data.predecessors.retain(|p| model.node(*p).is_some());
            let incoming: Vec<(NodeId, u32)> = incoming
                .into_iter()
                .filter(|(p, _)| model.node(*p).is_some())
                .collect();
            am.insert_node(&data, &incoming).unwrap();
            // Mirror in the model.
            model.add_node(data.id, data.x, data.y, data.payload.clone());
            for e in &data.successors {
                model.add_edge(data.id, e.to, e.cost);
            }
            for &(p, c) in &incoming {
                model.add_edge(p, data.id, c);
            }
            true
        }
        Op::InsertEdge(a, b, cost) => {
            let ids = model.node_ids();
            if ids.len() < 2 {
                return false;
            }
            let from = ids[a % ids.len()];
            let to = ids[b % ids.len()];
            if from == to {
                return false; // road networks have no self-loops
            }
            if model
                .node(from)
                .unwrap()
                .successors
                .iter()
                .any(|e| e.to == to)
            {
                // Duplicate edges must be rejected by the AM too.
                assert!(!am.insert_edge(from, to, *cost).unwrap());
                return false;
            }
            assert!(am.insert_edge(from, to, *cost).unwrap());
            model.add_edge(from, to, *cost);
            true
        }
        Op::DeleteEdge(i) => {
            let edges: Vec<(NodeId, NodeId, u32)> = model.edges().collect();
            if edges.is_empty() {
                return false;
            }
            let (from, to, cost) = edges[i % edges.len()];
            assert_eq!(am.delete_edge(from, to).unwrap(), Some(cost));
            assert_eq!(model.remove_edge(from, to), Some(cost));
            true
        }
    }
}

/// Full equivalence check between AM contents and the model.
fn check_equiv<S: PageStore>(am: &dyn AccessMethod<S>, model: &Network) {
    assert_eq!(am.file().len(), model.len(), "record count");
    for id in model.node_ids() {
        let rec = am
            .find(id)
            .unwrap()
            .unwrap_or_else(|| panic!("{id:?} lost"));
        let want = model.node(id).unwrap();
        assert_eq!(rec.id, want.id);
        assert_eq!((rec.x, rec.y), (want.x, want.y));
        assert_eq!(rec.payload, want.payload);
        let mut got_s: Vec<EdgeTo> = rec.successors.clone();
        let mut want_s: Vec<EdgeTo> = want.successors.clone();
        got_s.sort_by_key(|e| e.to);
        want_s.sort_by_key(|e| e.to);
        assert_eq!(got_s, want_s, "successors of {id:?}");
        let mut got_p = rec.predecessors.clone();
        let mut want_p = want.predecessors.clone();
        got_p.sort_unstable();
        want_p.sort_unstable();
        assert_eq!(got_p, want_p, "predecessors of {id:?}");
    }
    let crr = am.crr().unwrap();
    assert!((0.0..=1.0).contains(&crr));
}

fn run_ops(mut am: Box<dyn AccessMethod>, ops: &[Op]) {
    let mut model = grid_network(6, 6, 0.7);
    let mut graveyard = Vec::new();
    for op in ops {
        apply(am.as_mut(), &mut model, &mut graveyard, op);
    }
    check_equiv(am.as_ref(), &model);
}

const CODECS: [RecordCodec; 2] = [RecordCodec::Paper, RecordCodec::Compact];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ccam_matches_model_under_every_policy(
        ops in prop::collection::vec(op(), 1..40),
        policy_sel in 0usize..4,
        codec_sel in 0usize..2,
    ) {
        let net = grid_network(6, 6, 0.7);
        let policy = [
            ReorgPolicy::FirstOrder,
            ReorgPolicy::SecondOrder,
            ReorgPolicy::HigherOrder,
            ReorgPolicy::Lazy { every: 3 },
        ][policy_sel];
        let am = CcamBuilder::new(512)
            .policy(policy)
            .codec(CODECS[codec_sel])
            .build_static(&net)
            .unwrap();
        run_ops(Box::new(am), &ops);
    }

    #[test]
    fn topo_ams_match_model(
        ops in prop::collection::vec(op(), 1..40),
        order_sel in 0usize..2,
        codec_sel in 0usize..2,
    ) {
        let net = grid_network(6, 6, 0.7);
        let order = [TraversalOrder::DepthFirst, TraversalOrder::BreadthFirst][order_sel];
        let am =
            TopoAm::create(&net, 512, order, None, &HashMap::new(), CODECS[codec_sel]).unwrap();
        run_ops(Box::new(am), &ops);
    }

    #[test]
    fn grid_am_matches_model(
        ops in prop::collection::vec(op(), 1..40),
        codec_sel in 0usize..2,
    ) {
        let net = grid_network(6, 6, 0.7);
        let am = GridAm::create(&net, 512, CODECS[codec_sel]).unwrap();
        run_ops(Box::new(am), &ops);
    }
}

/// Workload traces: parse ∘ format is the identity for arbitrary op
/// sequences (fuzzed constructor side), and replay never panics on
/// arbitrary traces over a small network.
mod workload_props {
    use ccam_core::am::{AccessMethod, CcamBuilder};
    use ccam_core::workload::{format_trace, parse_trace, replay, Op};
    use ccam_graph::generators::grid_network;
    use ccam_graph::NodeId;
    use proptest::prelude::*;

    fn arb_op() -> impl Strategy<Value = Op> {
        let node = any::<u64>().prop_map(NodeId);
        prop_oneof![
            node.clone().prop_map(Op::Find),
            node.clone().prop_map(Op::Successors),
            (node.clone(), node.clone()).prop_map(|(a, b)| Op::ASuccessor(a, b)),
            prop::collection::vec(node.clone(), 2..8).prop_map(Op::Route),
            (node.clone(), node.clone()).prop_map(|(a, b)| Op::AStar(a, b)),
            (node.clone(), node.clone(), any::<u32>())
                .prop_map(|(a, b, c)| Op::InsertEdge(a, b, c)),
            (node.clone(), node.clone()).prop_map(|(a, b)| Op::DeleteEdge(a, b)),
            node.clone().prop_map(Op::DeleteNode),
            node.prop_map(Op::ReinsertNode),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn trace_text_roundtrip(ops in prop::collection::vec(arb_op(), 0..40)) {
            let text = format_trace(&ops);
            let parsed = parse_trace(&text).unwrap();
            prop_assert_eq!(parsed, ops);
        }

        /// Replay over arbitrary (mostly-missing) ids is total: it counts
        /// misses instead of failing, and leaves the file consistent.
        #[test]
        fn replay_is_total(ops in prop::collection::vec(arb_op(), 0..30)) {
            let net = grid_network(4, 4, 1.0);
            let mut am = CcamBuilder::new(512).build_static(&net).unwrap();
            let stats = replay(&mut am, &ops).unwrap();
            prop_assert_eq!(stats.executed, ops.len());
            let report = ccam_core::check::verify(am.file()).unwrap();
            prop_assert!(report.is_clean(), "{:?}", report.issues);
        }
    }
}

/// `Get-A-successor()` is one probe of the most recently used frame, then
/// `Find()`: it answers what `Find()` answers, never reads more pages,
/// costs at most two buffer hits whatever the pool holds, and leaves the
/// recency order of the pool exact.
mod successor_lookup {
    use ccam_core::am::{AccessMethod, Ccam, CcamBuilder};
    use ccam_core::query::route::evaluate_route;
    use ccam_graph::generators::grid_network;
    use ccam_graph::walks::random_walk_routes;
    use ccam_graph::{Network, NodeId};
    use ccam_storage::PageId;
    use proptest::prelude::*;

    fn build(net: &Network) -> Ccam {
        CcamBuilder::new(512).build_static(net).unwrap()
    }

    /// A hop onto a non-resident page of a full pool evicts the least
    /// recently used page — not `from`'s — and reorders nobody else.
    #[test]
    fn hop_to_a_cold_page_evicts_the_lru_page_and_keeps_the_order() {
        const FRAMES: usize = 4;
        let net = grid_network(10, 10, 1.0);
        let am = build(&net);
        let file = am.file();
        let page_of = |id: NodeId| file.page_of(id).unwrap().unwrap();
        let (from, to, _) = net
            .edges()
            .find(|&(a, b, _)| page_of(a) != page_of(b))
            .expect("some edge crosses pages");
        // One node on each of FRAMES - 1 other pages.
        let mut seen = vec![page_of(from), page_of(to)];
        let mut warm: Vec<NodeId> = Vec::new();
        for id in net.node_ids() {
            if warm.len() < FRAMES - 1 && !seen.contains(&page_of(id)) {
                seen.push(page_of(id));
                warm.push(id);
            }
        }
        file.pool().set_capacity(FRAMES).unwrap();
        file.pool().clear().unwrap();
        for &id in &warm {
            am.find(id).unwrap().unwrap();
        }
        am.find(from).unwrap().unwrap();
        let before = file.pool().resident_pages();
        assert_eq!(before.len(), FRAMES, "pool is full");
        assert_eq!(before[0], page_of(from));

        let reads = file.stats().snapshot();
        assert_eq!(am.get_a_successor(from, to).unwrap().unwrap().id, to);
        assert_eq!(file.stats().snapshot().since(&reads).physical_reads, 1);

        let mut expected: Vec<PageId> = vec![page_of(to)];
        expected.extend(&before[..FRAMES - 1]);
        assert_eq!(file.pool().resident_pages(), expected);
    }

    /// The cost of a hop does not grow with the number of resident
    /// frames: a scan of the buffer counted one hit per frame it walked.
    #[test]
    fn a_hop_over_a_large_warm_pool_costs_at_most_two_hits() {
        const FRAMES: usize = 200;
        const HOPS: usize = 32;
        // 52 × 52 nodes take ~250 compact 512-byte pages.
        let net = grid_network(52, 52, 1.0);
        let am = build(&net);
        let file = am.file();
        assert!(file.num_pages() > FRAMES, "database larger than its pool");
        file.pool().set_capacity(FRAMES).unwrap();
        for id in net.node_ids() {
            am.find(id).unwrap().unwrap();
        }
        assert_eq!(file.pool().resident_pages().len(), FRAMES, "warm pool");
        for route in random_walk_routes(&net, 8, HOPS + 1, 7) {
            let before = file.stats().snapshot();
            assert!(evaluate_route(&am, &route).unwrap().complete);
            let d = file.stats().snapshot().since(&before);
            // Find(n1) is one access; every hop after it at most two.
            assert!(
                d.buffer_hits + d.physical_reads <= 1 + 2 * HOPS as u64,
                "{} hits + {} reads over {HOPS} hops",
                d.buffer_hits,
                d.physical_reads
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Two identical files driven in lockstep, one by
        /// `Get-A-successor()` and one by `Find()`: same answers, never
        /// more physical reads, and the pools stay in the same state —
        /// same residents in the same recency order — after every step.
        #[test]
        fn get_a_successor_is_find_with_a_cheaper_first_look(
            frames in 1usize..12,
            history in prop::collection::vec((0u32..9, 0u32..8), 1..60),
        ) {
            let net = grid_network(8, 8, 1.0);
            let (probing, finding) = (build(&net), build(&net));
            for am in [&probing, &finding] {
                am.file().pool().set_capacity(frames).unwrap();
                am.file().pool().clear().unwrap();
            }
            let ids = net.node_ids();
            let mut from = ids[0];
            for (x, y) in history {
                // x == 8 lies outside the grid: a node that does not exist.
                let to = ccam_graph::generators::zorder_id(x, y);
                let (a, b) = (probing.stats().snapshot(), finding.stats().snapshot());
                let got = probing.get_a_successor(from, to).unwrap();
                let want = finding.find(to).unwrap();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(got.is_some(), ids.contains(&to));
                let got_reads = probing.stats().snapshot().since(&a).physical_reads;
                let want_reads = finding.stats().snapshot().since(&b).physical_reads;
                prop_assert!(got_reads <= want_reads, "{got_reads} > {want_reads} reads");
                prop_assert_eq!(
                    probing.file().pool().resident_pages(),
                    finding.file().pool().resident_pages()
                );
                from = to;
            }
        }
    }
}

/// A published view is built from the writer's index (forked
/// copy-on-write) and the pinned generation's own page lists, without
/// reading a data page. It must be indistinguishable from the view a
/// full tolerant scan of the same generation builds — `NetworkFile::open`
/// over a second pin — after every commit of every history, on a primary
/// and on a replication follower; and building it must cost what the
/// commit changed, not what the file holds.
mod view_is_a_full_rebuild {
    use super::{apply, check_equiv, op, Op};
    use ccam_core::am::{AccessMethod, Ccam, CcamBuilder};
    use ccam_core::epoch::{EpochCell, Snapshot, Snapshotable};
    use ccam_core::file::{NetworkFile, DEFAULT_BUFFER_FRAMES};
    use ccam_core::reorg::{reorganize_pages, ReorgPolicy};
    use ccam_graph::generators::grid_network;
    use ccam_graph::{Network, NodeData, NodeId};
    use ccam_partition::Partitioner;
    use ccam_storage::{
        MemPageStore, PageId, PageVersions, ReplFeed, SnapshotStore, StampedRecord, StorageError,
        WalStore,
    };
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    type Store = WalStore<MemPageStore>;
    type Db = Ccam<Store>;
    type View = Ccam<SnapshotStore>;

    const POLICIES: [ReorgPolicy; 4] = [
        ReorgPolicy::FirstOrder,
        ReorgPolicy::SecondOrder,
        ReorgPolicy::HigherOrder,
        ReorgPolicy::Lazy { every: 3 },
    ];

    /// A fresh WAL-backed store; every call gets a log file of its own.
    fn wal_store(page_size: usize) -> (Store, std::path::PathBuf) {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "ccam-prop-view-{}-{}.wal",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let store = WalStore::create(MemPageStore::new(page_size).unwrap(), &path).unwrap();
        (store, path)
    }

    /// Serves `db` as `ccam serve` does: every operation its own
    /// transaction, first view published (which turns page versioning
    /// on).
    fn serve(mut db: Db) -> (EpochCell<Db>, Arc<PageVersions>) {
        db.file_mut().set_auto_commit(true);
        let cell = EpochCell::new(db).unwrap();
        let versions = versions_of(&cell);
        (cell, versions)
    }

    /// The log's page versions that `cell`'s views pin.
    fn versions_of(cell: &EpochCell<Db>) -> Arc<PageVersions> {
        cell.with_writer(|db| db.file().pool().with_wal(|log| log.enable_snapshots()))
            .unwrap()
            .expect("a WAL store has a log")
            .unwrap()
    }

    /// Snapshots pin the log's page versions, so a store with no log
    /// has nothing to publish: a typed error, no copy.
    #[test]
    fn a_store_without_a_log_cannot_be_published() {
        let db = CcamBuilder::new(512)
            .build_static(&grid_network(4, 4, 1.0))
            .unwrap();
        assert!(matches!(
            EpochCell::new(db).err(),
            Some(StorageError::NoLog)
        ));
    }

    /// The first capture turns versioning on itself: publishing needs
    /// no `enable_snapshots()` first, the first view already reads the
    /// log's page versions, and later commits pin the same set.
    #[test]
    fn a_wal_store_publishes_without_enabling_snapshots_first() {
        let net = grid_network(4, 4, 1.0);
        let (store, wal) = wal_store(512);
        let db = CcamBuilder::new(512).build_static_on(store, &net).unwrap();
        let cell = EpochCell::new(db).unwrap();
        let id = net.node_ids()[5];
        let first = cell.read().unwrap();
        let payload = first.find(id).unwrap().unwrap().payload;
        let versions = versions_of(&cell);
        assert!(versions.reads() > 0, "the first view copied the file");
        let mut w = cell.write().unwrap();
        upsert(&mut w, id, vec![9; 3]);
        w.commit().unwrap();
        let reads = versions.reads();
        let now = cell.read().unwrap().find(id).unwrap().unwrap().payload;
        assert_eq!(now, vec![9; 3]);
        assert!(versions.reads() > reads, "the second view copied the file");
        assert_eq!(first.find(id).unwrap().unwrap().payload, payload);
        drop(first);
        drop(cell);
        std::fs::remove_file(wal).ok();
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// A node or edge update of the model test above.
        Update(Op),
        /// The i-th node deleted and put back with its payload grown by
        /// n bytes — records outgrow their pages and split them.
        Grow(usize, usize),
        /// Recluster the whole file.
        ReorganizeFull,
        /// Half an update of the i-th node, rolled back.
        Abort(usize),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            4 => op().prop_map(Step::Update),
            4 => (any::<usize>(), 16usize..64).prop_map(|(i, n)| Step::Grow(i, n)),
            1 => Just(Step::ReorganizeFull),
            1 => any::<usize>().prop_map(Step::Abort),
        ]
    }

    /// Applies one step to the writer and the model.
    fn run_step(
        db: &mut Db,
        model: &mut Network,
        graveyard: &mut Vec<(NodeData, Vec<(NodeId, u32)>)>,
        step: &Step,
    ) {
        let ids = model.node_ids();
        match step {
            Step::Update(op) => {
                apply(db, model, graveyard, op);
            }
            Step::Grow(i, n) if !ids.is_empty() => {
                apply(db, model, graveyard, &Op::DeleteNode(*i));
                let payload = &mut graveyard.last_mut().unwrap().0.payload;
                if payload.len() + n > 200 {
                    payload.truncate(4);
                }
                payload.extend(std::iter::repeat_n(*n as u8, *n));
                apply(db, model, graveyard, &Op::ReinsertNode(graveyard.len() - 1));
            }
            Step::ReorganizeFull => {
                db.reorganize_full().unwrap();
            }
            Step::Abort(i) if !ids.is_empty() => {
                db.file_mut().set_auto_commit(false);
                db.delete_node(ids[i % ids.len()]).unwrap();
                db.restore_committed().unwrap();
                db.file_mut().set_auto_commit(true);
            }
            Step::Grow(..) | Step::Abort(_) => {}
        }
    }

    /// The oracle: `view` against `NetworkFile::open` of a second pin of
    /// the generation it was captured from.
    fn assert_full_rebuild(view: &View, versions: &Arc<PageVersions>, probe: &[NodeId]) {
        let pin = SnapshotStore::pin(versions);
        let generation = view.file().pool().with_store(SnapshotStore::generation);
        assert_eq!(
            pin.generation(),
            generation,
            "view is of the committed generation"
        );
        let scanned = NetworkFile::open(pin).unwrap();
        let file = view.file();
        assert_eq!(
            file.index_range(0, u64::MAX).unwrap(),
            scanned.index_range(0, u64::MAX).unwrap(),
            "index entries"
        );
        assert_eq!(file.len(), scanned.len(), "index length");
        assert_eq!(file.quarantined_pages(), scanned.quarantined_pages());
        for &id in probe {
            assert_eq!(file.find(id).unwrap(), scanned.find(id).unwrap(), "{id:?}");
        }
    }

    /// Snapshots held across later commits, each with the model as it
    /// stood when the snapshot was published.
    #[derive(Default)]
    struct Held(Vec<(Snapshot<View>, Network)>);

    impl Held {
        fn hold(&mut self, view: Snapshot<View>, model: &Network) {
            self.0.push((view, model.clone()));
        }

        /// Checks and releases the oldest while more than `keep` are held.
        fn release_down_to(&mut self, keep: usize) {
            while self.0.len() > keep {
                let (view, model) = self.0.remove(0);
                check_equiv(&*view, &model);
            }
        }
    }

    /// Every id the history has ever seen: present ones must be found,
    /// deleted ones must be missed, by both views alike.
    fn probe_ids(model: &Network, graveyard: &[(NodeData, Vec<(NodeId, u32)>)]) -> Vec<NodeId> {
        let dead = graveyard.iter().map(|(node, _)| node.id);
        model.node_ids().into_iter().chain(dead).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn after_every_commit_of_a_history(
            steps in prop::collection::vec(step(), 1..24),
            policy_sel in 0usize..4,
        ) {
            let mut model = grid_network(6, 6, 0.7);
            let (store, wal) = wal_store(512);
            let db = CcamBuilder::new(512)
                .policy(POLICIES[policy_sel])
                .build_static_on(store, &model)
                .unwrap();
            let (cell, versions) = serve(db);
            assert_full_rebuild(&cell.read().unwrap(), &versions, &model.node_ids());
            let mut graveyard = Vec::new();
            let mut held = Held::default();
            for (n, step) in steps.iter().enumerate() {
                let mut w = cell.write().unwrap();
                run_step(&mut w, &mut model, &mut graveyard, step);
                w.commit().unwrap();
                let view = cell.read().unwrap();
                assert_full_rebuild(&view, &versions, &probe_ids(&model, &graveyard));
                check_equiv(&*view, &model);
                if n % 3 == 0 {
                    held.hold(view, &model);
                }
                held.release_down_to(2);
            }
            held.release_down_to(0);
            drop(cell);
            std::fs::remove_file(wal).ok();
        }

        /// The same on a follower that is shipped the primary's log one
        /// segment per step — now and then torn in two, so that a batch
        /// is held back and arrives with the next shipment.
        #[test]
        fn after_every_segment_a_follower_applies(
            steps in prop::collection::vec((step(), any::<bool>()), 1..20),
            policy_sel in 0usize..4,
        ) {
            let mut model = grid_network(6, 6, 0.7);
            let (store, primary_wal) = wal_store(512);
            // Subscribed before the build, so no checkpoint drops the tail.
            let slot = store.wal_retention().subscribe(0);
            let mut primary = CcamBuilder::new(512)
                .policy(POLICIES[policy_sel])
                .build_static_on(store, &model)
                .unwrap();
            primary.file_mut().set_auto_commit(true);
            primary.file().commit().unwrap();
            let (store, follower_wal) = wal_store(512);
            let follower = CcamBuilder::new(512).build_empty_on(store).unwrap();
            let (cell, versions) = serve(follower);

            let ship = |primary: &Db, after: u64| -> Vec<StampedRecord> {
                let feed = primary.file().pool().with_store_mut(|s| s.repl_records_after(after));
                match feed.unwrap() {
                    ReplFeed::Records { records, .. } => records,
                    other => panic!("tail not retained: {other:?}"),
                }
            };
            let mut applied = 0u64;
            let mut graveyard = Vec::new();
            let mut held = Held::default();
            for (n, (step, torn)) in steps.iter().enumerate() {
                // The first shipment carries the build itself.
                if n > 0 {
                    run_step(&mut primary, &mut model, &mut graveyard, step);
                }
                // A torn shipment stops short of its last batch's commit
                // record; the next one starts over from what was applied.
                for torn in [*torn, false] {
                    let mut records = ship(&primary, applied);
                    if torn {
                        records.truncate(records.len() / 2);
                    }
                    let mut w = cell.write().unwrap();
                    let apply = w.apply_replicated(&records, applied).unwrap();
                    applied = apply.applied_lsn;
                    w.commit().unwrap();
                    assert_full_rebuild(
                        &cell.read().unwrap(),
                        &versions,
                        &probe_ids(&model, &graveyard),
                    );
                }
                slot.advance(applied);
                let view = cell.read().unwrap();
                check_equiv(&*view, &model);
                if n % 3 == 0 {
                    held.hold(view, &model);
                }
                held.release_down_to(2);
            }
            held.release_down_to(0);
            drop(cell);
            std::fs::remove_file(primary_wal).ok();
            std::fs::remove_file(follower_wal).ok();
        }
    }

    /// `net` packed into pages in id order, no clustering: the tests
    /// below need a large file, not a well-clustered one.
    fn packed(net: &Network, page_size: usize) -> (Db, std::path::PathBuf) {
        let (store, wal) = wal_store(page_size);
        let mut db = CcamBuilder::new(page_size).build_empty_on(store).unwrap();
        let budget = db.file().clustering_budget();
        let mut groups: Vec<Vec<&NodeData>> = vec![Vec::new()];
        let mut used = 0;
        for node in net.nodes() {
            let weight = db.file().clustering_weight(node);
            if used + weight > budget {
                groups.push(Vec::new());
                used = 0;
            }
            used += weight;
            groups.last_mut().unwrap().push(node);
        }
        db.file_mut().bulk_load(groups).unwrap();
        (db, wal)
    }

    /// A payload replaced the structural way, `Delete()` then
    /// `Insert()`: the record is re-placed and its index entry rewritten.
    fn upsert(db: &mut Db, id: NodeId, payload: Vec<u8>) {
        let del = db.delete_node(id).unwrap().expect("node exists");
        let data = NodeData {
            payload,
            ..del.data
        };
        db.insert_node(&data, &del.incoming).unwrap();
    }

    /// Publishing a one-record upsert on a 20 736-node file reads no
    /// page of the generation it pins and copies a handful of index
    /// pages, the rest being shared with the view it replaces — so does
    /// publishing the first view, which a scan used to build.
    #[test]
    fn a_commit_reads_no_data_page_and_copies_a_root_to_leaf_path() {
        let net = grid_network(144, 144, 1.0);
        let (db, wal) = packed(&net, 1024);
        let (cell, versions) = serve(db);
        assert_eq!(
            versions.reads(),
            0,
            "the first capture scanned the generation"
        );

        let before = cell.read().unwrap();
        let pages = before.file().index_pages();
        assert!(pages > 300, "{pages} index pages");
        let id = net.node_ids()[net.len() / 2];
        let mut w = cell.write().unwrap();
        upsert(&mut w, id, vec![7; 40]);
        w.commit().unwrap();
        assert_eq!(versions.reads(), 0, "the capture scanned the generation");

        let after = cell.read().unwrap();
        // Reorganization around the upsert moves a few records; each
        // changed entry rewrites at most a root-to-leaf path of the
        // three-level tree, the upserted id's delete and insert two more.
        let entries = |view: &View| view.file().index_range(0, u64::MAX).unwrap();
        let (was, is) = (entries(&before), entries(&after));
        let moved = was.iter().zip(&is).filter(|(a, b)| a != b).count();
        assert!(moved < 64, "{moved} records changed page");
        let copied =
            after.file().index_pages() - after.file().index_pages_shared_with(before.file());
        assert!(
            (1..=3 * (moved + 2)).contains(&copied),
            "{copied} of {pages} index pages copied for {moved} moved records"
        );
        assert_eq!(after.find(id).unwrap().unwrap().payload, vec![7; 40]);
        assert_ne!(before.find(id).unwrap().unwrap().payload, vec![7; 40]);

        // A commit of nothing shares every index page.
        cell.write().unwrap().commit().unwrap();
        let idle = cell.read().unwrap();
        let shared = idle.file().index_pages_shared_with(after.file());
        assert_eq!(shared, idle.file().index_pages());
        assert_eq!(versions.reads(), 2, "two finds, two page images");
        drop((before, after, idle, cell));
        std::fs::remove_file(wal).ok();
    }

    /// Reorganizing pages whose clustering is already final moves no
    /// record, so it rewrites no index entry: the next view shares every
    /// index page with the one before, and the index still names the
    /// pages a scan of the new generation finds.
    #[test]
    fn a_reorganization_that_moves_nothing_writes_no_index_page() {
        let net = grid_network(16, 16, 1.0);
        let (store, wal) = wal_store(512);
        let db = CcamBuilder::new(512).build_static_on(store, &net).unwrap();
        let (cell, versions) = serve(db);
        let before = cell.read().unwrap();
        let mut w = cell.write().unwrap();
        let placed = w.file().page_map().unwrap();
        // One page on its own is final: it reclusters into itself.
        let pages: BTreeSet<PageId> = placed.values().copied().collect();
        assert!(pages.len() > 10);
        for page in pages {
            let set = BTreeSet::from([page]);
            reorganize_pages(w.file_mut(), &set, &|_, _| 1, Partitioner::RatioCut).unwrap();
        }
        assert_eq!(w.file().page_map().unwrap(), placed, "nothing moved");
        w.commit().unwrap();
        let after = cell.read().unwrap();
        assert_eq!(
            after.file().index_pages_shared_with(before.file()),
            after.file().index_pages()
        );
        let scanned = NetworkFile::open(SnapshotStore::pin(&versions)).unwrap();
        assert_eq!(scanned.page_map().unwrap(), placed);
        drop((before, after, cell));
        std::fs::remove_file(wal).ok();
    }

    /// A view's data pool is as large as that of the view it replaces;
    /// the first gets the default.
    #[test]
    fn a_view_inherits_the_capacity_of_its_predecessor() {
        let net = grid_network(8, 8, 1.0);
        let (db, wal) = packed(&net, 512);
        let (cell, _versions) = serve(db);
        let capacity = |cell: &EpochCell<Db>| cell.read().unwrap().file().pool().capacity();
        assert_eq!(capacity(&cell), DEFAULT_BUFFER_FRAMES);
        cell.read().unwrap().file().pool().set_capacity(7).unwrap();
        let mut w = cell.write().unwrap();
        upsert(&mut w, net.node_ids()[3], vec![1; 9]);
        w.commit().unwrap();
        assert_eq!(capacity(&cell), 7);
        cell.recover().unwrap();
        assert_eq!(capacity(&cell), 7);
        drop(cell);
        std::fs::remove_file(wal).ok();
    }
}

/// The server's `Upsert` rewrites one record where it lies: `find`, new
/// payload, `am::common::write_back`. No edge changes, so it must leave
/// the file holding what `Delete()` then `Insert()` of the same record
/// leave — the structural way, which re-places the record and patches
/// every neighbour twice — while touching one page.
mod upsert_in_place {
    use super::{apply, check_equiv, op, Op};
    use ccam_core::am::common::write_back;
    use ccam_core::am::{AccessMethod, Ccam, CcamBuilder};
    use ccam_core::check;
    use ccam_core::reorg::ReorgPolicy;
    use ccam_graph::generators::grid_network;
    use ccam_graph::{NodeData, NodeId};
    use proptest::prelude::*;

    /// The server's `Upsert`; false when `id` is absent.
    fn in_place(db: &mut Ccam, id: NodeId, payload: &[u8]) -> bool {
        let Some((page, mut rec)) = db.file().find(id).unwrap() else {
            return false;
        };
        rec.payload = payload.to_vec();
        write_back(db.file_mut(), page, &rec).unwrap();
        true
    }

    /// The same by `Delete()` then `Insert()`.
    fn structurally(db: &mut Ccam, id: NodeId, payload: &[u8]) -> bool {
        let Some(del) = db.delete_node(id).unwrap() else {
            return false;
        };
        let data = NodeData {
            payload: payload.to_vec(),
            ..del.data
        };
        db.insert_node(&data, &del.incoming).unwrap();
        true
    }

    /// Page writes that reach the store when `f`'s changes are flushed.
    fn page_writes(db: &mut Ccam, f: impl FnOnce(&mut Ccam)) -> u64 {
        db.file().commit().unwrap();
        let before = db.stats().snapshot();
        f(db);
        db.file().commit().unwrap();
        db.stats().snapshot().since(&before).physical_writes
    }

    /// A record with its edge lists in id order: `Delete()` and
    /// `Insert()` re-append a neighbour's entry, `write_back` does not.
    fn logical(mut rec: NodeData) -> NodeData {
        rec.successors.sort_by_key(|e| e.to);
        rec.predecessors.sort_unstable();
        rec
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// A node or edge update of the model test above.
        Update(Op),
        /// A new payload of `n` bytes for the i-th node: up to a fifth
        /// of a page, so records outgrow their pages now and then.
        Upsert(usize, usize),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            1 => op().prop_map(Step::Update),
            2 => (any::<usize>(), 0usize..100).prop_map(|(i, n)| Step::Upsert(i, n)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Two files in lockstep through a seeded history, payloads
        /// replaced in place on one and structurally on the other: after
        /// every step each holds its model's records and edge lists and
        /// passes the audit (index agreement included), and the two hold
        /// the same records.
        #[test]
        fn leaves_what_delete_then_insert_leaves(
            steps in prop::collection::vec(step(), 1..40),
            policy_sel in 0usize..4,
        ) {
            let policy = [
                ReorgPolicy::FirstOrder,
                ReorgPolicy::SecondOrder,
                ReorgPolicy::HigherOrder,
                ReorgPolicy::Lazy { every: 3 },
            ][policy_sel];
            let net = grid_network(6, 6, 0.7);
            let build = || CcamBuilder::new(512).policy(policy).build_static(&net).unwrap();
            let (mut here, mut here_model, mut here_dead) = (build(), net.clone(), Vec::new());
            let (mut there, mut there_model, mut there_dead) = (build(), net.clone(), Vec::new());
            for (n, step) in steps.iter().enumerate() {
                match step {
                    // The i-th edge is the i-th of a model's list order,
                    // which the structural side permutes: name the edge.
                    Step::Update(Op::DeleteEdge(i)) if here_model.num_edges() > 0 => {
                        let edges: Vec<_> = here_model.edges().collect();
                        let (from, to, _) = edges[i % edges.len()];
                        let same = there_model
                            .edges()
                            .position(|(f, t, _)| (f, t) == (from, to))
                            .unwrap();
                        apply(&mut here, &mut here_model, &mut here_dead, &Op::DeleteEdge(*i));
                        apply(&mut there, &mut there_model, &mut there_dead, &Op::DeleteEdge(same));
                    }
                    Step::Update(op) => {
                        apply(&mut here, &mut here_model, &mut here_dead, op);
                        apply(&mut there, &mut there_model, &mut there_dead, op);
                    }
                    Step::Upsert(i, len) if !here_model.is_empty() => {
                        let ids = here_model.node_ids();
                        let id = ids[i % ids.len()];
                        let payload = vec![n as u8; *len];
                        prop_assert!(in_place(&mut here, id, &payload));
                        here_model.node_mut(id).unwrap().payload.clone_from(&payload);
                        // `apply` mirrors the delete and the re-insert
                        // in the model, list order and all.
                        apply(&mut there, &mut there_model, &mut there_dead, &Op::DeleteNode(*i));
                        there_dead.last_mut().unwrap().0.payload = payload;
                        let last = there_dead.len() - 1;
                        apply(&mut there, &mut there_model, &mut there_dead, &Op::ReinsertNode(last));
                    }
                    Step::Upsert(..) => {}
                }
                for (db, model) in [(&here, &here_model), (&there, &there_model)] {
                    check_equiv(db, model);
                    let audit = check::verify(db.file()).unwrap();
                    prop_assert!(audit.is_clean(), "{:?}", audit.issues);
                }
                prop_assert_eq!(here_model.node_ids(), there_model.node_ids());
                for id in here_model.node_ids() {
                    prop_assert_eq!(
                        logical(here.find(id).unwrap().unwrap()),
                        logical(there.find(id).unwrap().unwrap())
                    );
                }
            }
        }
    }

    /// A payload of the same size stays on its page and costs that one
    /// page write; the structural way rewrites the neighbours' pages too.
    #[test]
    fn same_size_payload_is_one_page_write_on_the_same_page() {
        let net = grid_network(12, 12, 1.0);
        let mut db = CcamBuilder::new(512).build_static(&net).unwrap();
        let mut twin = CcamBuilder::new(512).build_static(&net).unwrap();
        let id = net.node_ids()[net.len() / 2];
        let page = db.file().page_of(id).unwrap();
        let payload = vec![0xAB; net.node(id).unwrap().payload.len()];

        let writes = page_writes(&mut db, |db| assert!(in_place(db, id, &payload)));
        assert_eq!(writes, 1);
        assert_eq!(db.file().page_of(id).unwrap(), page);
        assert_eq!(db.find(id).unwrap().unwrap().payload, payload);

        let twin_writes = page_writes(&mut twin, |db| assert!(structurally(db, id, &payload)));
        assert!(twin_writes > 1, "{twin_writes} page writes");
        assert_eq!(db.find(id).unwrap(), twin.find(id).unwrap());
    }

    /// A payload grown past what its page can hold moves the record,
    /// and the index follows it.
    #[test]
    fn a_payload_grown_past_its_page_relocates_and_find_follows() {
        let net = grid_network(12, 12, 1.0);
        let mut db = CcamBuilder::new(512).build_static(&net).unwrap();
        let id = net.node_ids()[net.len() / 2];
        let page = db.file().page_of(id).unwrap().unwrap();
        let room = db.file().page_free_space(page).unwrap();
        let payload = vec![7u8; net.node(id).unwrap().payload.len() + room + 1];

        assert!(in_place(&mut db, id, &payload));
        let moved_to = db.file().page_of(id).unwrap().unwrap();
        assert_ne!(moved_to, page, "the record cannot have stayed");
        assert_eq!(db.find(id).unwrap().unwrap().payload, payload);
        let mut want = net.node(id).unwrap().clone();
        want.payload = payload;
        assert_eq!(db.find(id).unwrap().unwrap(), want);
        assert!(check::verify(db.file()).unwrap().is_clean());
    }

    /// An id the file does not hold changes nothing.
    #[test]
    fn an_unknown_id_dirties_nothing() {
        let net = grid_network(6, 6, 1.0);
        let mut db = CcamBuilder::new(512).build_static(&net).unwrap();
        let writes = page_writes(&mut db, |db| {
            assert!(!in_place(db, NodeId(u64::MAX), &[1, 2, 3]));
        });
        assert_eq!(writes, 0);
    }
}
