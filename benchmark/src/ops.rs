//! Seeded request lists.
//!
//! Every round's list is generated, before that round's clock starts,
//! from `(seed, phase, round)` alone — so one seed gives byte-identical
//! requests on every run, however many rounds `--seconds` allows.
//! Route, aggregate and A* endpoints come from fixed-length random walks
//! (never uniform pairs), which bounds the cost of a single request.
//!
//! Two seeds must also give runs of equal *work*, or the seed shows up
//! in every metric (with requests drawn at random, `pages_per_read_op`
//! of `embedded_ops` spread by 3 % between seeds). So the seed decides
//! order, never amounts:
//!
//! * what can be asked for — the nodes, a pool of walks, a pool of
//!   commuter routes, the nodes that get written — depends on the
//!   network alone;
//! * each kind of request is dealt from its own seeded permutation of
//!   that population, without replacement, each round taking up where
//!   the one before stopped: over a few rounds every seed asks for the
//!   same things, in another order;
//! * every round holds the mix's exact share of each kind, in a seeded
//!   order.

use ccam_graph::walks::{commuter_routes, random_walk_routes, Route};
use ccam_graph::{Network, NodeId};
use ccam_server::protocol::Request;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

use crate::spec::{Spec, MIN_ROUNDS, NETWORK_SEED};

/// Walks in the pool. A measured run deals each kind of walk request
/// several times this many, so every seed covers the whole pool.
const WALK_POOL: usize = 1024;
/// Commuter routes (shortest paths between random pairs) in the pool.
const COMMUTER_POOL: usize = 256;
/// Half-width of a window query in coordinate units: two and a half
/// road-map cells of 64, so a window holds about 25 nodes.
pub const WINDOW_HALF: u32 = 160;

/// The window query centred on `(x, y)`, as `[x0, y0, x1, y1]`.
pub fn window_around(x: u32, y: u32) -> [u32; 4] {
    [
        x.saturating_sub(WINDOW_HALF),
        y.saturating_sub(WINDOW_HALF),
        x + WINDOW_HALF,
        y + WINDOW_HALF,
    ]
}

/// Which list a round's generator seeds.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    /// Read requests.
    Read = 1,
    /// Write requests.
    Write = 2,
    /// Direct write replay of the traced run.
    Replay = 3,
}

/// The generator of stream `stream`, round `round` of a run.
fn stream_rng(seed: u64, stream: u64, round: usize) -> StdRng {
    // SplitMix64 decorrelates nearby seeds itself; the multipliers only
    // keep (stream, round) pairs from colliding.
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ (round as u64).wrapping_mul(0x8CB9_2BA7_2F3D_8DD7),
    )
}

/// A population of `len` things dealt in a seeded order, without
/// replacement; the order repeats when the population is used up.
struct Deck(Vec<usize>);

impl Deck {
    /// `stream` tells the decks of one run apart.
    fn new(len: usize, seed: u64, stream: u64) -> Deck {
        assert!(len > 0, "nothing to deal");
        let mut order: Vec<usize> = (0..len).collect();
        order.shuffle(&mut stream_rng(seed, 16 + stream, 0));
        Deck(order)
    }

    /// The `dealt`-th thing dealt since the run began.
    fn at(&self, dealt: usize) -> usize {
        self.0[dealt % self.0.len()]
    }
}

/// The nodes a workload writes to, as indices into the node list: as
/// many as the warm-up and the [`MIN_ROUNDS`] rounds the counts are
/// taken over write, picked by the network's own seed. By the end of
/// those rounds every seed has rewritten exactly these nodes, in its
/// own order; later rounds rewrite them again. (Rewriting moves records
/// between pages, so *which* nodes were rewritten shows in every later
/// page count.)
fn write_pool(nodes: usize, spec: &Spec) -> Vec<usize> {
    let mut pool = Deck::new(nodes, NETWORK_SEED, 5).0;
    pool.truncate((MIN_ROUNDS + 1) * spec.writes_per_round);
    pool
}

/// One write: replace `id`'s payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Upsert {
    /// The node to rewrite.
    pub id: NodeId,
    /// The new payload (same length as the generated one, so record
    /// sizes — and with them page splits — do not drift with the seed).
    pub payload: Vec<u8>,
}

/// The four read request kinds, in the order of a spec's `mix`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadKind {
    Find,
    Successors,
    Route,
    Aggregate,
}

const READ_KINDS: [ReadKind; 4] = [
    ReadKind::Find,
    ReadKind::Successors,
    ReadKind::Route,
    ReadKind::Aggregate,
];

/// The shortest list of kinds with exactly the shares of `mix`
/// (60:25:10:5 gives 12 + 5 + 2 + 1 = 20 entries).
fn mix_cycle(mix: [u32; 4]) -> Vec<ReadKind> {
    fn gcd(a: u32, b: u32) -> u32 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let unit = mix.iter().copied().fold(0, gcd).max(1);
    READ_KINDS
        .iter()
        .zip(mix)
        .flat_map(|(&kind, weight)| std::iter::repeat_n(kind, (weight / unit) as usize))
        .collect()
}

/// Request generator for the served workloads.
pub struct ServeOps {
    ids: Vec<NodeId>,
    payload_lens: Vec<usize>,
    walks: Vec<Route>,
    cycle: Vec<ReadKind>,
    /// One deck per read kind: over the nodes for Find and
    /// GetSuccessors, over the walks for Route and RangeAggregate.
    decks: [Deck; 4],
    write_pool: Vec<usize>,
    /// Deals positions of `write_pool`.
    targets: Deck,
    batch: usize,
    seed: u64,
}

impl ServeOps {
    /// Draws the walk pool over `net` and the orders `seed` deals in.
    pub fn new(net: &Network, spec: &Spec, seed: u64) -> ServeOps {
        let ids = net.node_ids();
        let walks = random_walk_routes(net, WALK_POOL, spec.walk_hops + 1, NETWORK_SEED);
        let write_pool = write_pool(ids.len(), spec);
        ServeOps {
            decks: [
                Deck::new(ids.len(), seed, 0),
                Deck::new(ids.len(), seed, 1),
                Deck::new(walks.len(), seed, 2),
                Deck::new(walks.len(), seed, 3),
            ],
            targets: Deck::new(write_pool.len(), seed, 4),
            write_pool,
            ids,
            payload_lens: net.nodes().map(|n| n.payload.len()).collect(),
            walks,
            cycle: mix_cycle(spec.mix),
            batch: spec.batch,
            seed,
        }
    }

    /// The walk pool (the WCRR edge weights are derived from it).
    pub fn walks(&self) -> &[Route] {
        &self.walks
    }

    /// The `batches` read batches of round `round`: the mix's exact
    /// share of each kind in a seeded order, each kind dealt from its
    /// deck where round `round - 1` stopped.
    pub fn read_round(&self, round: usize, batches: usize) -> Vec<Vec<Request>> {
        let mut kinds: Vec<ReadKind> = self
            .cycle
            .iter()
            .copied()
            .cycle()
            .take(batches * self.batch)
            .collect();
        let mut dealt = READ_KINDS.map(|k| round * kinds.iter().filter(|&&c| c == k).count());
        kinds.shuffle(&mut stream_rng(self.seed, Phase::Read as u64, round));
        kinds
            .chunks(self.batch)
            .map(|batch| {
                batch
                    .iter()
                    .map(|&kind| {
                        let at = self.decks[kind as usize].at(dealt[kind as usize]);
                        dealt[kind as usize] += 1;
                        match kind {
                            ReadKind::Find => Request::Find(self.ids[at]),
                            ReadKind::Successors => Request::GetSuccessors(self.ids[at]),
                            ReadKind::Route => Request::Route(self.walks[at].nodes.clone()),
                            ReadKind::Aggregate => {
                                Request::RangeAggregate(self.walks[at].edges().collect())
                            }
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The `writes` upserts of round `round` of `phase`. The rounds of
    /// [`Phase::Write`] deal the targets from the start of their order,
    /// [`Phase::Replay`] from its end.
    pub fn write_round(&self, phase: Phase, round: usize, writes: usize) -> Vec<Upsert> {
        let mut rng = stream_rng(self.seed, phase as u64, round);
        (0..writes)
            .map(|k| {
                let dealt = round * writes + k;
                let n = self.write_pool.len();
                let at = self.write_pool[match phase {
                    Phase::Replay => self.targets.at(n - 1 - dealt % n),
                    _ => self.targets.at(dealt),
                }];
                let payload = (0..self.payload_lens[at])
                    .map(|_| (rng.next_u64() & 0xff) as u8)
                    .collect();
                Upsert {
                    id: self.ids[at],
                    payload,
                }
            })
            .collect()
    }
}

/// One direct read call of `embedded_ops`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmbeddedRead {
    /// `evaluate_route` over a commuter route.
    Route(Route),
    /// `a_star` between the ends of a walk.
    AStar(NodeId, NodeId),
    /// `SpatialIndex::window_records` over `[x0, y0, x1, y1]`.
    Window([u32; 4]),
    /// `route_unit_aggregate` over the arcs of a walk.
    Aggregate(Vec<(NodeId, NodeId)>),
}

impl EmbeddedRead {
    /// The name of the span a traced run records around this call.
    pub fn span(&self) -> &'static str {
        match self {
            EmbeddedRead::Route(_) => "core.eval.route",
            EmbeddedRead::AStar(..) => "core.eval.astar",
            EmbeddedRead::Window(_) => "core.eval.window",
            EmbeddedRead::Aggregate(_) => "core.eval.agg",
        }
    }
}

/// Call generator for `embedded_ops`.
pub struct EmbeddedOps {
    ids: Vec<NodeId>,
    centres: Vec<(u32, u32)>,
    commuters: Vec<Route>,
    walks: Vec<Route>,
    /// One deck per kind of call: over the commuter routes, the walks
    /// (A*), the nodes (window centres) and the walks again (aggregate).
    decks: [Deck; 4],
    write_pool: Vec<usize>,
    /// Deals positions of `write_pool`.
    targets: Deck,
}

impl EmbeddedOps {
    /// Draws the commuter-route and walk pools over `net` and the
    /// orders `seed` deals in.
    pub fn new(net: &Network, spec: &Spec, seed: u64) -> EmbeddedOps {
        let ids = net.node_ids();
        let commuters = commuter_routes(net, COMMUTER_POOL, NETWORK_SEED);
        let walks = random_walk_routes(net, WALK_POOL, spec.walk_hops + 1, NETWORK_SEED);
        let write_pool = write_pool(ids.len(), spec);
        EmbeddedOps {
            decks: [
                Deck::new(commuters.len(), seed, 0),
                Deck::new(walks.len(), seed, 1),
                Deck::new(ids.len(), seed, 2),
                Deck::new(walks.len(), seed, 3),
            ],
            targets: Deck::new(write_pool.len(), seed, 4),
            write_pool,
            ids,
            centres: net.nodes().map(|n| (n.x, n.y)).collect(),
            commuters,
            walks,
        }
    }

    /// The commuter routes plus walks (for the WCRR edge weights).
    pub fn routes(&self) -> impl Iterator<Item = &Route> {
        self.commuters.iter().chain(&self.walks)
    }

    /// The `calls` read calls of round `round`: the four kinds in equal
    /// shares, interleaved, each dealt from its deck where round
    /// `round - 1` stopped.
    pub fn read_round(&self, round: usize, calls: usize) -> Vec<EmbeddedRead> {
        (0..calls)
            .map(|i| {
                let kind = i % 4;
                // Calls of this kind in a round: those `i < calls` with
                // `i % 4 == kind`.
                let per_round = (calls + 3 - kind) / 4;
                let at = self.decks[kind].at(round * per_round + i / 4);
                match kind {
                    0 => EmbeddedRead::Route(self.commuters[at].clone()),
                    1 => {
                        let walk = &self.walks[at];
                        EmbeddedRead::AStar(
                            walk.nodes[0],
                            *walk.nodes.last().expect("walk is not empty"),
                        )
                    }
                    2 => {
                        let (x, y) = self.centres[at];
                        EmbeddedRead::Window(window_around(x, y))
                    }
                    _ => EmbeddedRead::Aggregate(self.walks[at].edges().collect()),
                }
            })
            .collect()
    }

    /// The `writes` nodes deleted and re-inserted in round `round`,
    /// dealt where round `round - 1` stopped.
    pub fn write_round(&self, round: usize, writes: usize) -> Vec<NodeId> {
        (0..writes)
            .map(|k| self.ids[self.write_pool[self.targets.at(round * writes + k)]])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;
    use ccam_graph::generators::grid_network;
    use std::collections::HashSet;

    #[test]
    fn mix_cycle_is_the_shortest_exact_one() {
        let cycle = mix_cycle([60, 25, 10, 5]);
        let count = |k| cycle.iter().filter(|&&c| c == k).count();
        assert_eq!(cycle.len(), 20);
        assert_eq!(
            READ_KINDS.map(count),
            [12, 5, 2, 1],
            "12 + 5 + 2 + 1 of 20 is 60:25:10:5"
        );
    }

    #[test]
    fn every_round_of_every_seed_holds_the_same_share_of_each_kind() {
        let net = grid_network(8, 8, 1.0);
        let spec = Spec::of(Workload::ServeScale, true, None);
        let shares = |seed: u64, round: usize| {
            let mut counts = [0usize; 4];
            for req in ServeOps::new(&net, &spec, seed)
                .read_round(round, 40)
                .iter()
                .flatten()
            {
                counts[match req {
                    Request::Find(_) => 0,
                    Request::GetSuccessors(_) => 1,
                    Request::Route(_) => 2,
                    _ => 3,
                }] += 1;
            }
            counts
        };
        // 40 batches of 16 = 32 cycles of 6 + 6 + 5 + 3.
        assert_eq!(shares(1, 1), [192, 192, 160, 96]);
        assert_eq!(shares(1, 2), shares(2, 7));
    }

    #[test]
    fn every_seed_writes_the_same_nodes_in_another_order() {
        let net = grid_network(8, 8, 1.0);
        let spec = Spec::of(Workload::ServeHot, true, None);
        // Quick rounds write 8 nodes: the pool is the 48 nodes that the
        // warm-up and the five counted rounds write.
        let written = |seed: u64, rounds: usize| -> HashSet<NodeId> {
            let ops = ServeOps::new(&net, &spec, seed);
            (0..rounds)
                .flat_map(|round| ops.write_round(Phase::Write, round, 8))
                .map(|w| w.id)
                .collect()
        };
        assert_eq!(written(3, 6).len(), 48, "six rounds write 48 nodes once");
        assert_eq!(written(3, 6), written(4, 6), "the same 48 for every seed");
        assert_eq!(written(3, 9), written(3, 6), "later rounds rewrite them");
        let embedded = |seed: u64| -> Vec<NodeId> {
            let ops = EmbeddedOps::new(&net, &spec, seed);
            (0..6).flat_map(|round| ops.write_round(round, 8)).collect()
        };
        assert_ne!(embedded(3), embedded(4), "in another order");
        let as_set = |ids: Vec<NodeId>| ids.into_iter().collect::<HashSet<_>>();
        assert_eq!(as_set(embedded(3)), as_set(embedded(4)));
    }

    #[test]
    fn two_seeds_ask_for_the_same_things_in_another_order() {
        let net = grid_network(8, 8, 1.0);
        let spec = Spec::of(Workload::EmbeddedOps, true, None);
        // 4 rounds of 64 calls deal 64 windows: one around every node.
        let windows = |seed: u64| {
            let ops = EmbeddedOps::new(&net, &spec, seed);
            let mut asked: Vec<[u32; 4]> = (0..4)
                .flat_map(|round| ops.read_round(round, 64))
                .filter_map(|call| match call {
                    EmbeddedRead::Window(w) => Some(w),
                    _ => None,
                })
                .collect();
            let in_order = asked.clone();
            asked.sort_unstable();
            (in_order, asked)
        };
        let ((order_a, sorted_a), (order_b, sorted_b)) = (windows(1), windows(2));
        assert_eq!(sorted_a.len(), 64);
        assert_eq!(sorted_a, sorted_b);
        assert_ne!(order_a, order_b);
    }
}
