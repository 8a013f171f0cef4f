//! Property test: every access method, driven by an arbitrary sequence
//! of node/edge inserts and deletes, stays in lockstep with an
//! in-memory [`Network`] model — same records, same successor sets,
//! consistent cross-references — under every reorganization policy.

use ccam_core::am::{AccessMethod, CcamBuilder, GridAm, TopoAm, TraversalOrder};
use ccam_core::reorg::ReorgPolicy;
use ccam_graph::generators::grid_network;
use ccam_graph::{EdgeTo, Network, NodeData, NodeId};
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
fn apply(
    am: &mut dyn AccessMethod,
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
fn check_equiv(am: &dyn AccessMethod, model: &Network) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ccam_matches_model_under_every_policy(
        ops in prop::collection::vec(op(), 1..40),
        policy_sel in 0usize..4,
    ) {
        let net = grid_network(6, 6, 0.7);
        let policy = [
            ReorgPolicy::FirstOrder,
            ReorgPolicy::SecondOrder,
            ReorgPolicy::HigherOrder,
            ReorgPolicy::Lazy { every: 3 },
        ][policy_sel];
        let am = CcamBuilder::new(512).policy(policy).build_static(&net).unwrap();
        run_ops(Box::new(am), &ops);
    }

    #[test]
    fn topo_ams_match_model(
        ops in prop::collection::vec(op(), 1..40),
        order_sel in 0usize..2,
    ) {
        let net = grid_network(6, 6, 0.7);
        let order = [TraversalOrder::DepthFirst, TraversalOrder::BreadthFirst][order_sel];
        let am = TopoAm::create(&net, 512, order, None, &HashMap::new()).unwrap();
        run_ops(Box::new(am), &ops);
    }

    #[test]
    fn grid_am_matches_model(ops in prop::collection::vec(op(), 1..40)) {
        let net = grid_network(6, 6, 0.7);
        let am = GridAm::create(&net, 512).unwrap();
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
        let net = grid_network(36, 36, 1.0);
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
