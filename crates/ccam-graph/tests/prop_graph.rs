//! Property tests for the network model, record codec, and generators.

use ccam_graph::record::peek_id;
use ccam_graph::{EdgeTo, Network, NodeData, NodeId, RecordCodec};
use ccam_index::zorder::z_decode;
use proptest::prelude::*;

const CODECS: [RecordCodec; 2] = [RecordCodec::Paper, RecordCodec::Compact];

/// The largest record a 4 KiB slotted page holds (page minus its 6-byte
/// header and one 4-byte slot).
const MAX_RECORD_LEN_4K: usize = 4096 - 6 - 4;

/// Ids at both ends of the range as often as anywhere in it, so the
/// neighbour deltas below wrap.
fn arb_id() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()]
}

/// A neighbour of `id`: near it (a small delta of either sign, wrapping
/// at the ends of the range) or anywhere.
fn neighbour(id: u64, near: bool, delta: i16, far: u64) -> NodeId {
    NodeId(if near {
        id.wrapping_add(delta as i64 as u64)
    } else {
        far
    })
}

/// Records of every shape either codec must carry: Morton ids (implied
/// coordinates) and non-Morton ids (stored coordinates), empty and full
/// lists, near and far neighbours.
fn arb_node() -> impl Strategy<Value = NodeData> {
    (
        (arb_id(), any::<bool>(), any::<u32>(), any::<u32>()),
        prop::collection::vec(any::<u8>(), 0..64),
        prop::collection::vec(
            (any::<bool>(), any::<i16>(), any::<u64>(), any::<u32>()),
            0..12,
        ),
        prop::collection::vec((any::<bool>(), any::<i16>(), any::<u64>()), 0..12),
    )
        .prop_map(|((id, morton, x, y), payload, succs, preds)| {
            let (x, y) = if morton { z_decode(id) } else { (x, y) };
            NodeData {
                id: NodeId(id),
                x,
                y,
                payload,
                successors: succs
                    .into_iter()
                    .map(|(near, d, far, cost)| EdgeTo {
                        to: neighbour(id, near, d, far),
                        cost,
                    })
                    .collect(),
                predecessors: preds
                    .into_iter()
                    .map(|(near, d, far)| neighbour(id, near, d, far))
                    .collect(),
            }
        })
}

/// encode∘decode is the identity, `encoded_len` is exact and `peek_id`
/// reads the id, for `codec` and `node`.
fn assert_codec_roundtrip(codec: RecordCodec, node: &NodeData) -> Result<(), TestCaseError> {
    let buf = codec.encode(node);
    prop_assert_eq!(buf.len(), codec.encoded_len(node), "{:?}", codec);
    prop_assert_eq!(peek_id(&buf), node.id);
    prop_assert_eq!(&codec.decode(&buf), node);
    Ok(())
}

/// Every accessor of the in-place view equals the decoder's field, the
/// lists iterate lazily in either order and report their exact length,
/// and `to_owned` is `decode`, for `codec` and `node`.
fn assert_view_is_the_decoder(codec: RecordCodec, node: &NodeData) -> Result<(), TestCaseError> {
    let buf = codec.encode(node);
    let decoded = codec.decode(&buf);
    let rec = codec.view(&buf);
    prop_assert_eq!(rec.id(), decoded.id, "{:?}", codec);
    prop_assert_eq!(rec.xy(), (decoded.x, decoded.y), "{:?}", codec);
    prop_assert_eq!(rec.payload(), &decoded.payload[..], "{:?}", codec);
    // The predecessors first: they must not depend on a successor walk
    // having run.
    let preds = rec.predecessors();
    prop_assert_eq!(preds.len(), decoded.predecessors.len());
    prop_assert_eq!(preds.collect::<Vec<_>>(), decoded.predecessors.clone());
    let succs = rec.successors();
    prop_assert_eq!(succs.len(), decoded.successors.len());
    prop_assert_eq!(succs.collect::<Vec<_>>(), decoded.successors.clone());
    // A walk stopped part-way leaves the view whole.
    let mut partial = rec.successors();
    partial.next();
    prop_assert_eq!(partial.len(), decoded.successors.len().saturating_sub(1));
    prop_assert_eq!(&rec.to_owned(), &decoded, "{:?}", codec);
    prop_assert_eq!(&decoded, node, "{:?}", codec);
    Ok(())
}

/// The fixed edge cases: extreme ids, wrapping deltas, empty lists and
/// a payload as large as a 4 KiB page's largest record.
#[test]
fn record_codecs_carry_the_edge_cases() {
    let (x, y) = z_decode(u64::MAX);
    let cases = [
        NodeData {
            id: NodeId(0),
            x: 0,
            y: 0,
            payload: vec![],
            successors: vec![],
            predecessors: vec![],
        },
        NodeData {
            id: NodeId(u64::MAX),
            x,
            y,
            payload: vec![0xab; MAX_RECORD_LEN_4K],
            successors: vec![
                EdgeTo {
                    to: NodeId(0),
                    cost: u32::MAX,
                },
                EdgeTo {
                    to: NodeId(u64::MAX - 1),
                    cost: 0,
                },
            ],
            predecessors: vec![NodeId(0), NodeId(1), NodeId(1 << 63)],
        },
        NodeData {
            id: NodeId(0),
            x: 7,
            y: 9,
            payload: vec![1],
            successors: vec![EdgeTo {
                to: NodeId(u64::MAX),
                cost: 3,
            }],
            predecessors: vec![NodeId(u64::MAX), NodeId(u64::MAX - 5)],
        },
    ];
    for node in &cases {
        for codec in CODECS {
            assert_codec_roundtrip(codec, node).unwrap();
            assert_view_is_the_decoder(codec, node).unwrap();
        }
    }
    // The third case's coordinates are not its id's Morton code, so the
    // compact record stores them; the others imply theirs.
    let flags = |node: &NodeData| RecordCodec::Compact.encode(node)[8];
    assert_eq!(flags(&cases[2]) & 1, 1);
    assert_eq!(flags(&cases[0]) | flags(&cases[1]), 0);
    // A Morton id implies its coordinates, so the compact record stores
    // none: id, flags, three empty varints.
    assert_eq!(RecordCodec::Compact.encoded_len(&cases[0]), 8 + 1 + 3);
    assert_eq!(
        RecordCodec::Compact.encoded_len(&cases[2]),
        8 + 1 + 8 + 2 + 1 + 2 + 1 + 2
    );
}

proptest! {
    /// Each record codec is a bijection and its length function is exact.
    #[test]
    fn record_codec_roundtrip(node in arb_node()) {
        for codec in CODECS {
            assert_codec_roundtrip(codec, &node)?;
        }
    }

    /// The in-place view reads what the decoder reads, on both codecs.
    #[test]
    fn record_view_equals_the_decoder(node in arb_node()) {
        for codec in CODECS {
            assert_view_is_the_decoder(codec, &node)?;
        }
    }

    /// Network edge insert/remove sequences keep successor/predecessor
    /// lists mutually consistent.
    #[test]
    fn network_edges_stay_consistent(
        n in 2usize..12,
        ops in prop::collection::vec((any::<usize>(), any::<usize>(), any::<bool>()), 1..80),
    ) {
        let mut net = Network::new();
        for i in 0..n {
            net.add_node(NodeId(i as u64), i as u32, 0, vec![]);
        }
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for (a, b, insert) in ops {
            let from = NodeId((a % n) as u64);
            let to = NodeId((b % n) as u64);
            if insert {
                if from != to && !edges.contains(&(from, to)) {
                    net.add_edge(from, to, 1);
                    edges.push((from, to));
                }
            } else if let Some(pos) = edges.iter().position(|&e| e == (from, to)) {
                prop_assert_eq!(net.remove_edge(from, to), Some(1));
                edges.remove(pos);
            } else {
                prop_assert_eq!(net.remove_edge(from, to), None);
            }
            net.validate();
            prop_assert_eq!(net.num_edges(), edges.len());
        }
    }

    /// Removing any node leaves a consistent network with no references
    /// to the removed node.
    #[test]
    fn node_removal_is_clean(victim_sel in any::<usize>(), seed in any::<u64>()) {
        let mut net = ccam_graph::generators::random_network(20, 60, 1 << 12, seed);
        let ids = net.node_ids();
        let victim = ids[victim_sel % ids.len()];
        net.remove_node(victim).unwrap();
        net.validate();
        for n in net.nodes() {
            prop_assert!(!n.successors.iter().any(|e| e.to == victim));
            prop_assert!(!n.predecessors.contains(&victim));
        }
    }

    /// Network save/load round-trips exactly.
    #[test]
    fn network_io_roundtrip(seed in any::<u64>(), n in 2usize..30) {
        let net = ccam_graph::generators::random_network(n, n * 3, 1 << 12, seed);
        let mut path = std::env::temp_dir();
        path.push(format!("ccam-propio-{}-{seed}-{n}", std::process::id()));
        ccam_graph::save_network(&net, &path).unwrap();
        let back = ccam_graph::load_network(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back.len(), net.len());
        for id in net.node_ids() {
            prop_assert_eq!(back.node(id).unwrap(), net.node(id).unwrap());
        }
    }

    /// Road-map generator invariants across seeds: exact counts,
    /// uniqueness of ids, undirected connectivity.
    #[test]
    fn roadmap_invariants(seed in 0u64..50) {
        let cfg = ccam_graph::roadmap::RoadMapConfig {
            grid_w: 8,
            grid_h: 8,
            removed_nodes: 2,
            target_segments: 90,
            target_directed: 160,
            cell: 64,
            jitter: 24,
            seed,
        };
        let net = ccam_graph::roadmap::road_map(&cfg);
        prop_assert_eq!(net.len(), 62);
        prop_assert_eq!(net.num_edges(), 160);
        net.validate();
        // Undirected connectivity.
        let ids = net.node_ids();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![ids[0]];
        seen.insert(ids[0]);
        while let Some(v) = stack.pop() {
            for nb in net.node(v).unwrap().neighbors() {
                if seen.insert(nb) {
                    stack.push(nb);
                }
            }
        }
        prop_assert_eq!(seen.len(), net.len());
    }
}
