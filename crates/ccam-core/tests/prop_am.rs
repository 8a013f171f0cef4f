//! Property tests: every access method, driven through seeded histories
//! by `ccam_testing`, stays in lockstep with the in-memory
//! `Network` model — same records, same edge lists, a clean audit after
//! every step — under every reorganization policy and both codecs.

use ccam_core::am::{CcamBuilder, GridAm, TopoAm, TraversalOrder};
use ccam_core::reorg::ReorgPolicy;
use ccam_graph::generators::grid_network;
use ccam_graph::RecordCodec;
use ccam_testing::{assert_history, create_durable, Driver, History, Outcome, Step, TempDir};
use proptest::prelude::*;
use std::collections::HashMap;

const CODECS: [RecordCodec; 2] = [RecordCodec::Paper, RecordCodec::Compact];

const POLICIES: [ReorgPolicy; 4] = [
    ReorgPolicy::FirstOrder,
    ReorgPolicy::SecondOrder,
    ReorgPolicy::HigherOrder,
    ReorgPolicy::Lazy { every: 3 },
];

/// Node and edge updates, payload rewrites and growth, commits and
/// reclusterings (a no-op for the comparator methods).
const MODEL: &[(u64, Step)] = &[
    (2, Step::DeleteNode(0)),
    (2, Step::ReinsertNode(0)),
    (2, Step::InsertEdge(0, 0, 0)),
    (2, Step::DeleteEdge(0)),
    (1, Step::Upsert(0, 0)),
    (1, Step::Grow(0, 0)),
    (1, Step::Commit),
    (1, Step::ReorganizeFull),
];

/// A CCAM in memory under `policy` and `codec`, driven through `history`.
fn ccam(history: &History, policy: ReorgPolicy, codec: RecordCodec) -> Outcome {
    let call = format!("ccam(&history, ReorgPolicy::{policy:?}, RecordCodec::{codec:?})");
    assert_history(&call, history, |_| {
        let net = grid_network(6, 6, 0.7);
        let am = CcamBuilder::new(512)
            .policy(policy)
            .codec(codec)
            .build_static(&net)
            .unwrap();
        Driver::new(am, net)
    })
}

/// A topological-order file, driven through `history`.
fn topo(history: &History, order: TraversalOrder, codec: RecordCodec) -> Outcome {
    let call = format!("topo(&history, TraversalOrder::{order:?}, RecordCodec::{codec:?})");
    assert_history(&call, history, |_| {
        let net = grid_network(6, 6, 0.7);
        Driver::new(
            TopoAm::create(&net, 512, order, None, &HashMap::new(), codec).unwrap(),
            net,
        )
    })
}

/// A Grid-File clustered file, driven through `history`.
fn grid(history: &History, codec: RecordCodec) -> Outcome {
    let call = format!("grid(&history, RecordCodec::{codec:?})");
    assert_history(&call, history, |_| {
        let net = grid_network(6, 6, 0.7);
        Driver::new(GridAm::create(&net, 512, codec).unwrap(), net)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ccam_matches_model_under_every_policy(
        seed in any::<u64>(),
        len in 1usize..40,
        policy_sel in 0usize..4,
        codec_sel in 0usize..2,
    ) {
        ccam(&History::generate(seed, len, MODEL), POLICIES[policy_sel], CODECS[codec_sel]);
    }

    #[test]
    fn topo_ams_match_model(
        seed in any::<u64>(),
        len in 1usize..40,
        order_sel in 0usize..2,
        codec_sel in 0usize..2,
    ) {
        let order = [TraversalOrder::DepthFirst, TraversalOrder::BreadthFirst][order_sel];
        topo(&History::generate(seed, len, MODEL), order, CODECS[codec_sel]);
    }

    #[test]
    fn grid_am_matches_model(
        seed in any::<u64>(),
        len in 1usize..40,
        codec_sel in 0usize..2,
    ) {
        grid(&History::generate(seed, len, MODEL), CODECS[codec_sel]);
    }
}

/// The one case proptest once recorded for the model test: an edge
/// between two far-apart indices under the lazy policy.
#[test]
fn an_edge_between_far_indices_under_the_lazy_policy() {
    let (from, to) = (10536208033782425279, 16368416483038631123);
    let history = History::new(0, vec![Step::InsertEdge(from, to, 15)]);
    for codec in CODECS {
        ccam(&history, ReorgPolicy::Lazy { every: 3 }, codec);
    }
}

/// Every step kind, crashes and full disks included.
const ELEVATED: &[(u64, Step)] = &[
    (2, Step::DeleteNode(0)),
    (2, Step::ReinsertNode(0)),
    (2, Step::InsertEdge(0, 0, 0)),
    (2, Step::DeleteEdge(0)),
    (1, Step::Upsert(0, 0)),
    (1, Step::Grow(0, 0)),
    (1, Step::Commit),
    (1, Step::Abort(0)),
    (1, Step::ReorganizeFull),
    (1, Step::Crash(0, ccam_storage::TornWrite::None)),
    (1, Step::NoSpace(0, false)),
];

/// A CCAM on a logged page file over a fault store that loses a seeded
/// half of its unsynced writes at a power cut, committing every step.
fn durable(history: &History, policy: ReorgPolicy, codec: RecordCodec) -> Outcome {
    let call = format!("durable(&history, ReorgPolicy::{policy:?}, RecordCodec::{codec:?})");
    assert_history(&call, history, |seed| {
        let net = grid_network(6, 6, 0.7);
        let dir = TempDir::new("ccam-prop-durable");
        let builder = CcamBuilder::new(512).policy(policy).codec(codec);
        create_durable(&dir, &builder, 512, &net);
        Driver::durable(dir, builder, net, Some(seed), || {})
    })
}

proptest! {
    /// The elevated sweep: long histories of every step kind on a
    /// durable file, `PROPTEST_CASES` of them (64 by default).
    #[test]
    #[ignore = "elevated; run by the CI faults job"]
    fn durable_histories_survive_crashes_and_full_disks(
        seed in any::<u64>(),
        len in 1usize..80,
        policy_sel in 0usize..4,
        codec_sel in 0usize..2,
    ) {
        let history = History::generate(seed, len, ELEVATED);
        durable(&history, POLICIES[policy_sel], CODECS[codec_sel]);
    }
}

/// The minimiser: a history whose one fault is an `Abort` on a store
/// without a log — which cannot roll back, so the node stays deleted —
/// shrinks to that step alone.
#[test]
fn the_minimiser_reduces_a_planted_violation_to_its_step() {
    let mut history = History::generate(7, 30, MODEL);
    history.steps.insert(17, Step::Abort(3));
    let call = || ccam(&history, ReorgPolicy::FirstOrder, RecordCodec::Compact);
    let panic = std::panic::catch_unwind(call).expect_err("a rollback without a log fails");
    let message = panic.downcast_ref::<String>().unwrap();
    let test = "History::new(7, vec![\n        Step::Abort(3),\n    ]);\n    \
                ccam(&history, ReorgPolicy::FirstOrder, RecordCodec::Compact);";
    assert!(
        message.contains("minimised from 31 steps to 1:"),
        "{message}"
    );
    assert!(message.contains(test), "{message}");
}

/// A failing history leaves no file behind: its directory goes when the
/// driver drops, also while a panic unwinds through the run, on every
/// run the minimiser makes.
#[test]
fn a_failing_history_removes_its_files() {
    let ours = format!("ccam-prop-unwind-{}-", std::process::id());
    let history = History::new(1, vec![Step::DeleteNode(0)]);
    let result = std::panic::catch_unwind(|| {
        assert_history("a_failing_history_removes_its_files()", &history, |_| {
            let (net, dir) = (grid_network(4, 4, 1.0), TempDir::new("ccam-prop-unwind"));
            create_durable(&dir, &CcamBuilder::new(512), 512, &net);
            // A reopen that panics while the driver holds its files.
            Driver::durable(dir, CcamBuilder::new(512), net, None, || panic!("planted"))
        })
    });
    assert!(result.is_err(), "the planted panic fails the history");
    let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(&ours))
        .collect();
    assert!(left.is_empty(), "{left:?}");
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
    use super::POLICIES;
    use ccam_core::am::{AccessMethod, Ccam, CcamBuilder};
    use ccam_core::epoch::{EpochCell, Snapshot};
    use ccam_core::file::{NetworkFile, DEFAULT_BUFFER_FRAMES};
    use ccam_core::reorg::{reorganize_pages, ReorgPolicy};
    use ccam_graph::generators::grid_network;
    use ccam_graph::{Network, NodeData, NodeId};
    use ccam_partition::Partitioner;
    use ccam_storage::{
        MemPageStore, PageId, PageStore, ReplFeed, SnapshotStore, StorageError, SweepRng, WalStore,
    };
    use ccam_testing::{assert_history, check, Driver, History, Outcome, Step, TempDir};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    type Store = WalStore<MemPageStore>;
    type Db = Ccam<Store>;
    type View = Ccam<SnapshotStore>;

    /// A fresh WAL-backed store, its log in a directory of its own that
    /// goes when the guard drops.
    fn wal_store(page_size: usize) -> (Store, TempDir) {
        let dir = TempDir::new("ccam-prop-view");
        let store = WalStore::create(MemPageStore::new(page_size).unwrap(), &dir.path("wal"));
        (store.unwrap(), dir)
    }

    /// Serves `db` as `ccam serve` does: every operation its own
    /// transaction, first view published (which seeds the log's mirror).
    fn serve(mut db: Db) -> EpochCell<Db> {
        db.file_mut().set_auto_commit(true);
        EpochCell::new(db).unwrap()
    }

    /// A pin of the committed generation of `file`'s log: a fork of the
    /// mirror the views of `file` fork.
    fn pin_of(file: &NetworkFile<Store>) -> SnapshotStore {
        file.pool()
            .with_wal(|log| log.snapshot())
            .expect("a WAL store has a log")
            .unwrap()
    }

    /// A pin of what `cell` last committed.
    fn pin(cell: &EpochCell<Db>) -> SnapshotStore {
        cell.with_writer(|db| pin_of(db.file())).unwrap()
    }

    /// The data pages of `view`: the pinned store it reads.
    fn pages_of(view: &View) -> SnapshotStore {
        view.file().pool().with_store(SnapshotStore::clone)
    }

    /// Snapshots fork the log's mirror, so a store with no log has
    /// nothing to publish: a typed error, no copy.
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

    /// The first capture seeds the log's mirror itself: publishing needs
    /// no `enable_snapshots()` first, the first view already forks the
    /// mirror, and later commits fork the same one.
    #[test]
    fn a_wal_store_publishes_without_enabling_snapshots_first() {
        let net = grid_network(4, 4, 1.0);
        let (store, _dir) = wal_store(512);
        let db = CcamBuilder::new(512).build_static_on(store, &net).unwrap();
        let cell = EpochCell::new(db).unwrap();
        let id = net.node_ids()[5];
        let first = cell.read().unwrap();
        let payload = first.find(id).unwrap().unwrap().payload;
        let shares_the_mirror = |view: &View| {
            let pages = pages_of(view);
            pages.pages_shared_with(&pin(&cell)) == pages.live_pages().len()
        };
        assert!(shares_the_mirror(&first), "the first view copied the file");
        let mut w = cell.write().unwrap();
        upsert(&mut w, id, vec![9; 3]);
        w.commit().unwrap();
        let second = cell.read().unwrap();
        assert_eq!(second.find(id).unwrap().unwrap().payload, vec![9; 3]);
        assert!(
            shares_the_mirror(&second),
            "the second view copied the file"
        );
        assert_eq!(first.find(id).unwrap().unwrap().payload, payload);
    }

    /// The oracle: `view` against `NetworkFile::open` of `pin`, a second
    /// pin of the generation it was captured from.
    fn assert_full_rebuild(view: &View, pin: SnapshotStore, probe: &[NodeId]) {
        let generation = pages_of(view).generation();
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

    /// Updates, growth past a page, aborts and reclusterings; about one
    /// step in four pins the published view.
    const VIEW: &[(u64, Step)] = &[
        (1, Step::DeleteNode(0)),
        (1, Step::ReinsertNode(0)),
        (1, Step::InsertEdge(0, 0, 0)),
        (1, Step::DeleteEdge(0)),
        (4, Step::Grow(0, 0)),
        (1, Step::Abort(0)),
        (1, Step::ReorganizeFull),
        (3, Step::Pin),
    ];

    /// A served CCAM under `policy`, every published view also checked
    /// against a full rebuild of its generation.
    fn served(history: &History, policy: ReorgPolicy) -> Outcome {
        let call = format!("served(&history, ReorgPolicy::{policy:?})");
        assert_history(&call, history, |_| {
            let net = grid_network(6, 6, 0.7);
            let (store, dir) = wal_store(512);
            let mut db = CcamBuilder::new(512)
                .policy(policy)
                .build_static_on(store, &net)
                .unwrap();
            db.file_mut().set_auto_commit(true);
            let driver = Driver::served(db, net).unwrap().with_files(dir);
            driver.on_view(|view, writer, ids| assert_full_rebuild(view, pin_of(writer), ids))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn after_every_commit_of_a_history(
            seed in any::<u64>(),
            len in 1usize..30,
            policy_sel in 0usize..4,
        ) {
            served(&History::generate(seed, len, VIEW), POLICIES[policy_sel]);
        }

        /// The same on a follower that is shipped the primary's log one
        /// segment per step — now and then torn in two, so that a batch
        /// is held back and arrives with the next shipment.
        #[test]
        fn after_every_segment_a_follower_applies(
            seed in any::<u64>(),
            len in 1usize..20,
            policy_sel in 0usize..4,
        ) {
            let history = History::generate(seed, len, VIEW);
            let net = grid_network(6, 6, 0.7);
            let (store, primary_dir) = wal_store(512);
            // Subscribed before the build, so no checkpoint drops the tail.
            let slot = store.wal_retention().subscribe(0);
            let mut primary = CcamBuilder::new(512)
                .policy(POLICIES[policy_sel])
                .build_static_on(store, &net)
                .unwrap();
            primary.file_mut().set_auto_commit(true);
            primary.file().commit().unwrap();
            let mut primary = Driver::new(primary, net).with_files(primary_dir);
            let (store, _follower_dir) = wal_store(512);
            let follower = CcamBuilder::new(512).build_empty_on(store).unwrap();
            let cell = serve(follower);

            let mut tear = SweepRng::new(history.seed);
            let mut applied = 0u64;
            let mut held: Vec<(Snapshot<View>, Network)> = Vec::new();
            for (n, step) in history.steps.iter().enumerate() {
                // The first shipment carries the build itself.
                if n > 0 {
                    primary.step(step).unwrap();
                }
                // A torn shipment stops short of its last batch's commit
                // record; the next one starts over from what was applied.
                for torn in [tear.gen_bool(1, 2), false] {
                    let feed = primary.with_file(|f| f.pool().with_store_mut(|s| s.repl_records_after(applied)));
                    let ReplFeed::Records { mut records, .. } = feed.unwrap() else {
                        panic!("tail not retained");
                    };
                    if torn {
                        records.truncate(records.len() / 2);
                    }
                    let mut w = cell.write().unwrap();
                    let apply = w.apply_replicated(&records, applied).unwrap();
                    applied = apply.applied_lsn;
                    w.commit().unwrap();
                    assert_full_rebuild(&cell.read().unwrap(), pin(&cell), &primary.ids());
                }
                slot.advance(applied);
                let view = cell.read().unwrap();
                check(view.file(), primary.committed()).unwrap();
                if n % 3 == 0 {
                    held.push((view, primary.committed().clone()));
                }
                // Held across later commits, each checked on release.
                while held.len() > 2 {
                    let (view, model) = held.remove(0);
                    check(view.file(), &model).unwrap();
                }
            }
            for (view, model) in held {
                check(view.file(), &model).unwrap();
            }
        }
    }

    /// `net` packed into pages in id order, no clustering: the tests
    /// below need a large file, not a well-clustered one.
    fn packed(net: &Network, page_size: usize) -> (Db, TempDir) {
        let (store, dir) = wal_store(page_size);
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
        (db, dir)
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

    /// Data pages of `after` it does not share with `before` (copied),
    /// and those whose bytes differ from `before`'s or were not live
    /// there (rewritten).
    fn copied_and_rewritten(before: &View, after: &View) -> (usize, usize) {
        let (was, is) = (pages_of(before), pages_of(after));
        let live = is.live_pages();
        let image = |store: &SnapshotStore, page| {
            let mut buf = vec![0; store.page_size()];
            store.read(page, &mut buf).ok().map(|()| buf)
        };
        let rewritten = live.iter().filter(|&&p| image(&was, p) != image(&is, p));
        (live.len() - is.pages_shared_with(&was), rewritten.count())
    }

    /// Publishing a one-record upsert on a 20 736-node file reads no
    /// page of the generation it pins: its view shares every data page
    /// with the one it replaces but those the upsert rewrote, and copies
    /// a handful of index pages, the rest being shared too — so does
    /// publishing the first view, which a scan used to build.
    #[test]
    fn a_commit_reads_no_data_page_and_copies_a_root_to_leaf_path() {
        let net = grid_network(144, 144, 1.0);
        let (db, _dir) = packed(&net, 1024);
        let cell = serve(db);

        let before = cell.read().unwrap();
        let pages = pages_of(&before).live_pages().len();
        assert_eq!(
            pages_of(&before).pages_shared_with(&pin(&cell)),
            pages,
            "the first capture copied a data page"
        );
        let index_pages = before.file().index_pages();
        assert!(index_pages > 300, "{index_pages} index pages");
        let id = net.node_ids()[net.len() / 2];
        let mut w = cell.write().unwrap();
        upsert(&mut w, id, vec![7; 40]);
        w.commit().unwrap();

        let after = cell.read().unwrap();
        let (copied, rewritten) = copied_and_rewritten(&before, &after);
        assert!(
            (1..=8).contains(&rewritten),
            "{rewritten} of {pages} data pages rewritten"
        );
        assert_eq!(copied, rewritten, "data pages copied");
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
            "{copied} of {index_pages} index pages copied for {moved} moved records"
        );
        assert_eq!(after.find(id).unwrap().unwrap().payload, vec![7; 40]);
        assert_ne!(before.find(id).unwrap().unwrap().payload, vec![7; 40]);

        // A commit of nothing shares every page.
        cell.write().unwrap().commit().unwrap();
        let idle = cell.read().unwrap();
        let shared = idle.file().index_pages_shared_with(after.file());
        assert_eq!(shared, idle.file().index_pages());
        assert_eq!(copied_and_rewritten(&after, &idle), (0, 0));
        drop((before, after, idle, cell));
    }

    /// Reorganizing pages whose clustering is already final moves no
    /// record, so it rewrites no index entry: the next view shares every
    /// index page with the one before, and the index still names the
    /// pages a scan of the new generation finds.
    #[test]
    fn a_reorganization_that_moves_nothing_writes_no_index_page() {
        let net = grid_network(16, 16, 1.0);
        let (store, _dir) = wal_store(512);
        let db = CcamBuilder::new(512).build_static_on(store, &net).unwrap();
        let cell = serve(db);
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
        let scanned = NetworkFile::open(pin(&cell)).unwrap();
        assert_eq!(scanned.page_map().unwrap(), placed);
        drop((before, after, cell));
    }

    /// A view's data pool is as large as that of the view it replaces;
    /// the first gets the default.
    #[test]
    fn a_view_inherits_the_capacity_of_its_predecessor() {
        let net = grid_network(8, 8, 1.0);
        let (db, _dir) = packed(&net, 512);
        let cell = serve(db);
        let capacity = |cell: &EpochCell<Db>| cell.read().unwrap().file().pool().capacity();
        assert_eq!(capacity(&cell), DEFAULT_BUFFER_FRAMES);
        cell.read().unwrap().file().pool().set_capacity(7).unwrap();
        let mut w = cell.write().unwrap();
        upsert(&mut w, net.node_ids()[3], vec![1; 9]);
        w.commit().unwrap();
        assert_eq!(capacity(&cell), 7);
        cell.recover().unwrap();
        assert_eq!(capacity(&cell), 7);
    }
}

/// The server's `Upsert` rewrites one record where it lies: `find`, new
/// payload, `am::common::write_back`. No edge changes, so it must leave
/// the file holding what `Delete()` then `Insert()` of the same record
/// leave — the structural way, which re-places the record and patches
/// every neighbour twice — while touching one page.
mod upsert_in_place {
    use super::POLICIES;
    use ccam_core::am::common::write_back;
    use ccam_core::am::{AccessMethod, Ccam, CcamBuilder};
    use ccam_core::reorg::ReorgPolicy;
    use ccam_graph::generators::grid_network;
    use ccam_graph::NodeId;
    use ccam_testing::{assert_history, Driver, History, Outcome, Step};
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

    /// Node and edge updates, and new payloads of up to a fifth of a
    /// page, so records outgrow their pages now and then.
    const UPSERTS: &[(u64, Step)] = &[
        (1, Step::DeleteNode(0)),
        (1, Step::ReinsertNode(0)),
        (1, Step::InsertEdge(0, 0, 0)),
        (1, Step::DeleteEdge(0)),
        (8, Step::Upsert(0, 0)),
    ];

    /// A CCAM under `policy` driven through `history`, its upserts made
    /// in place or by `Delete()` then `Insert()`.
    fn upserts(history: &History, policy: ReorgPolicy, by_reinsert: bool) -> Outcome {
        let call = format!("upserts(&history, ReorgPolicy::{policy:?}, {by_reinsert})");
        assert_history(&call, history, |_| {
            let net = grid_network(6, 6, 0.7);
            let am = CcamBuilder::new(512)
                .policy(policy)
                .build_static(&net)
                .unwrap();
            let driver = Driver::new(am, net);
            if by_reinsert {
                driver.upsert_by_reinsert()
            } else {
                driver
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// One seeded history, its payloads replaced in place on one file
        /// and structurally on another: after every step each holds the
        /// same model's records and edge lists and passes the audit
        /// (index agreement included), so the two hold the same records.
        #[test]
        fn leaves_what_delete_then_insert_leaves(
            seed in any::<u64>(),
            len in 1usize..40,
            policy_sel in 0usize..4,
        ) {
            let history = History::generate(seed, len, UPSERTS);
            upserts(&history, POLICIES[policy_sel], false);
            upserts(&history, POLICIES[policy_sel], true);
        }
    }

    /// `Upsert` of the middle node of a 12×12 grid, in place or
    /// structurally, checked against the model: the page writes it costs
    /// and whether the record stayed on its page. The payload keeps its
    /// size, or grows past what the page can hold.
    fn upsert_middle(grow: bool, by_reinsert: bool) -> (u64, bool) {
        let net = grid_network(12, 12, 1.0);
        let i = net.len() / 2;
        let id = net.node_ids()[i];
        let len = net.node(id).unwrap().payload.len();
        let mut driver = Driver::new(CcamBuilder::new(512).build_static(&net).unwrap(), net);
        if by_reinsert {
            driver = driver.upsert_by_reinsert();
        }
        let at = |d: &Driver<_>| d.with_file(|f| f.page_of(id).unwrap().unwrap());
        let page = at(&driver);
        let room = driver.with_file(|f| f.page_free_space(page).unwrap());
        let before = driver.with_file(|f| f.commit().map(|()| f.stats().snapshot()));
        let n = if grow { len + room + 1 } else { len };
        driver.step(&Step::Upsert(i, n)).unwrap();
        driver.step(&Step::Commit).unwrap();
        let stats = driver.with_file(|f| f.stats().snapshot().since(&before.unwrap()));
        (stats.physical_writes, at(&driver) == page)
    }

    /// A payload of the same size stays on its page and costs that one
    /// page write; the structural way rewrites the neighbours' pages too.
    #[test]
    fn same_size_payload_is_one_page_write_on_the_same_page() {
        assert_eq!(upsert_middle(false, false), (1, true));
        let (writes, _) = upsert_middle(false, true);
        assert!(writes > 1, "{writes} page writes");
    }

    /// A payload grown past what its page can hold moves the record,
    /// and the index follows it.
    #[test]
    fn a_payload_grown_past_its_page_relocates_and_find_follows() {
        let (_, stayed) = upsert_middle(true, false);
        assert!(!stayed, "the record cannot have stayed");
    }

    /// An id the file does not hold changes nothing.
    #[test]
    fn an_unknown_id_dirties_nothing() {
        let net = grid_network(6, 6, 1.0);
        let mut db = CcamBuilder::new(512).build_static(&net).unwrap();
        db.file().commit().unwrap();
        let before = db.stats().snapshot();
        assert!(!in_place(&mut db, NodeId(u64::MAX), &[1, 2, 3]));
        db.file().commit().unwrap();
        assert_eq!(db.stats().snapshot().since(&before).physical_writes, 0);
    }
}
