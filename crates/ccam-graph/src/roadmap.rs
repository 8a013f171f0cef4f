//! Synthetic road-map generator — the stand-in for the paper's
//! Minneapolis road map.
//!
//! The paper's experiments run on "the Minneapolis road map consisted of
//! 1079 nodes and 3057 edges, representing the road intersections and
//! highway segments for a 20-square-mile section of the Minneapolis
//! area" (§4). That 1990s dataset is not redistributable, so this module
//! generates a network with the same characteristics that drive CCAM's
//! behaviour (DESIGN.md §4 records the substitution):
//!
//! * the same node count and (directed) edge count,
//! * mean out-degree `|A| ≈ 2.83` and mean neighbor-list size `λ ≈ 3.2`
//!   (achieved with a calibrated mix of two-way and one-way streets),
//! * planar, grid-like connectivity with jittered intersection
//!   coordinates (connectivity correlates with spatial proximity, the
//!   property the Grid File exploits in §4.1),
//! * node ids assigned as the Z-order of the coordinates, the paper's id
//!   convention.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::generators::zorder_id;
use crate::network::{Network, NodeId};

/// Parameters of the road-map generator.
#[derive(Debug, Clone)]
pub struct RoadMapConfig {
    /// Lattice width (intersections per row before removals).
    pub grid_w: u32,
    /// Lattice height.
    pub grid_h: u32,
    /// Intersections removed to break the perfect lattice.
    pub removed_nodes: usize,
    /// Road segments kept (undirected pairs).
    pub target_segments: usize,
    /// Directed edges after one-way/two-way assignment.
    pub target_directed: usize,
    /// Coordinate distance between adjacent lattice points.
    pub cell: u32,
    /// Maximum coordinate jitter (must stay below `cell / 2`).
    pub jitter: u32,
    /// RNG seed.
    pub seed: u64,
}

impl RoadMapConfig {
    /// The Minneapolis-calibrated configuration: 33×33 lattice − 10
    /// intersections = 1079 nodes; 1726 segments of which 1331 two-way →
    /// 3057 directed edges, giving |A| = 2.833 and λ = 3.200 exactly as
    /// reported under Table 5.
    pub fn minneapolis(seed: u64) -> Self {
        RoadMapConfig {
            grid_w: 33,
            grid_h: 33,
            removed_nodes: 10,
            target_segments: 1726,
            target_directed: 3057,
            cell: 64,
            jitter: 24,
            seed,
        }
    }
}

impl RoadMapConfig {
    /// A Minneapolis-*proportioned* configuration at an arbitrary lattice
    /// size: ~1.6 road segments and ~2.83 directed edges per intersection,
    /// 1% of intersections removed. Used by the scaling experiment and
    /// the CLI generator.
    pub fn scaled(grid: u32, seed: u64) -> Self {
        assert!(grid >= 3, "lattice too small to keep a border");
        let nodes = grid * grid;
        RoadMapConfig {
            grid_w: grid,
            grid_h: grid,
            removed_nodes: (nodes / 100) as usize,
            target_segments: (nodes as f64 * 1.6) as usize,
            target_directed: (nodes as f64 * 2.83) as usize,
            cell: 64,
            jitter: 24,
            seed,
        }
    }
}

/// Generates the Minneapolis-like benchmark network.
pub fn minneapolis_like(seed: u64) -> Network {
    road_map(&RoadMapConfig::minneapolis(seed))
}

/// Generates a road network per `cfg`. See the module docs.
pub fn road_map(cfg: &RoadMapConfig) -> Network {
    assert!(cfg.jitter * 2 < cfg.cell, "jitter must not collide cells");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let w = cfg.grid_w as usize;
    let h = cfg.grid_h as usize;

    // 1. Lattice minus a few random intersections.
    let mut alive = vec![true; w * h];
    let mut removed = 0;
    while removed < cfg.removed_nodes {
        let v = rng.random_range(0..w * h);
        // Keep the border intact so removals cannot disconnect corners.
        let (x, y) = (v % w, v / w);
        if alive[v] && x > 0 && y > 0 && x < w - 1 && y < h - 1 {
            alive[v] = false;
            removed += 1;
        }
    }

    // 2. Jittered coordinates and Z-order ids.
    let mut coord = vec![(0u32, 0u32); w * h];
    let mut net = Network::new();
    for y in 0..h {
        for x in 0..w {
            let v = y * w + x;
            if !alive[v] {
                continue;
            }
            let cx = (x as u32 + 1) * cfg.cell + rng.random_range(0..=2 * cfg.jitter) - cfg.jitter;
            let cy = (y as u32 + 1) * cfg.cell + rng.random_range(0..=2 * cfg.jitter) - cfg.jitter;
            coord[v] = (cx, cy);
            // Variable-size application payload (street attributes).
            let payload_len = 4 + rng.random_range(0..9);
            let payload: Vec<u8> = (0..payload_len)
                .map(|_| rng.random_range(0..=255))
                .collect();
            net.add_node(zorder_id(cx, cy), cx, cy, payload);
        }
    }

    // 3. Candidate segments: lattice-adjacent alive pairs.
    let mut segments: Vec<(usize, usize)> = Vec::new();
    for y in 0..h {
        for x in 0..w {
            let v = y * w + x;
            if !alive[v] {
                continue;
            }
            if x + 1 < w && alive[v + 1] {
                segments.push((v, v + 1));
            }
            if y + 1 < h && alive[v + w] {
                segments.push((v, v + w));
            }
        }
    }

    // 4. Thin to the target count, keeping the street graph connected:
    // candidates in shuffled order, a segment goes when its two ends
    // stay joined without it. A street graph that is not connected to
    // begin with (an intersection walled in by removals) is left whole.
    segments.shuffle(&mut rng);
    let mut streets = StreetGraph::new(w * h, &segments);
    if streets.spans(&alive) {
        let mut surplus = segments.len().saturating_sub(cfg.target_segments);
        for s in 0..segments.len() {
            if surplus == 0 {
                break;
            }
            if streets.joined_without(s) {
                streets.removed[s] = true;
                surplus -= 1;
            }
        }
    }
    let kept: Vec<(usize, usize)> = (0..segments.len())
        .filter(|&s| !streets.removed[s])
        .map(|s| segments[s])
        .collect();

    // 5. One-way / two-way assignment hitting the directed-edge target.
    let two_way = cfg
        .target_directed
        .saturating_sub(kept.len())
        .min(kept.len());
    for (si, &(a, b)) in kept.iter().enumerate() {
        let (ida, idb) = (id_of(coord[a]), id_of(coord[b]));
        let cost = travel_time(coord[a], coord[b], &mut rng);
        if si < two_way {
            net.add_edge_bidir(ida, idb, cost);
        } else if rng.random_range(0..2u32) == 0 {
            net.add_edge(ida, idb, cost);
        } else {
            net.add_edge(idb, ida, cost);
        }
    }

    net
}

fn id_of((x, y): (u32, u32)) -> NodeId {
    zorder_id(x, y)
}

/// Travel time: scaled Euclidean distance plus congestion noise.
fn travel_time(a: (u32, u32), b: (u32, u32), rng: &mut StdRng) -> u32 {
    let dx = a.0 as f64 - b.0 as f64;
    let dy = a.1 as f64 - b.1 as f64;
    let dist = (dx * dx + dy * dy).sqrt();
    (dist / 4.0) as u32 + 1 + rng.random_range(0..8)
}

/// The undirected street graph during thinning: one adjacency structure
/// for the whole run, segments taken out by tombstone.
struct StreetGraph<'a> {
    segments: &'a [(usize, usize)],
    /// Per lattice point, `(neighbour, segment)` for every segment at it.
    adj: Vec<Vec<(usize, usize)>>,
    /// Tombstones, by segment.
    removed: Vec<bool>,
    /// The search that last reached each point (see `joined_without`).
    reached: Vec<u32>,
    searches: u32,
}

impl<'a> StreetGraph<'a> {
    fn new(n: usize, segments: &'a [(usize, usize)]) -> Self {
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (s, &(a, b)) in segments.iter().enumerate() {
            adj[a].push((b, s));
            adj[b].push((a, s));
        }
        StreetGraph {
            segments,
            adj,
            removed: vec![false; segments.len()],
            reached: vec![0; n],
            searches: 0,
        }
    }

    /// True when every alive point is reachable from the first one.
    fn spans(&self, alive: &[bool]) -> bool {
        let Some(start) = alive.iter().position(|&a| a) else {
            return true;
        };
        let mut seen = vec![false; alive.len()];
        let mut stack = vec![start];
        seen[start] = true;
        let mut visited = 0usize;
        while let Some(v) = stack.pop() {
            visited += 1;
            for &(u, s) in &self.adj[v] {
                if !self.removed[s] && !seen[u] {
                    seen[u] = true;
                    stack.push(u);
                }
            }
        }
        visited == alive.iter().filter(|&&a| a).count()
    }

    /// True when the ends of segment `skip` are joined by a path that
    /// avoids it — in a connected graph, exactly when the graph stays
    /// connected without it. Breadth-first from both ends in turn, one
    /// point each: a detour round a block is found after a handful of
    /// points, and a bridge costs the smaller of the two sides it parts.
    fn joined_without(&mut self, skip: usize) -> bool {
        let (a, b) = self.segments[skip];
        // Two fresh marks per search, so `reached` is never cleared.
        let marks = [2 * self.searches + 1, 2 * self.searches + 2];
        self.searches += 1;
        self.reached[a] = marks[0];
        self.reached[b] = marks[1];
        let mut frontier = [VecDeque::from([a]), VecDeque::from([b])];
        loop {
            for side in 0..2 {
                let Some(v) = frontier[side].pop_front() else {
                    // This end's whole side was walked without meeting
                    // the other.
                    return false;
                };
                for &(u, s) in &self.adj[v] {
                    if s == skip || self.removed[s] {
                        continue;
                    }
                    if self.reached[u] == marks[1 - side] {
                        return true;
                    }
                    if self.reached[u] != marks[side] {
                        self.reached[u] = marks[side];
                        frontier[side].push_back(u);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minneapolis_counts_match_the_paper() {
        let net = minneapolis_like(1995);
        assert_eq!(net.len(), 1079, "node count");
        assert_eq!(net.num_edges(), 3057, "directed edge count");
        net.validate();
    }

    #[test]
    fn minneapolis_degree_statistics() {
        let net = minneapolis_like(1995);
        let a = net.avg_out_degree();
        let lambda = net.avg_neighbor_count();
        assert!((a - 2.833).abs() < 0.02, "|A| = {a}");
        assert!((lambda - 3.20).abs() < 0.05, "lambda = {lambda}");
    }

    const MINNEAPOLIS_1995: u64 = 0x22ee_b092_1c09_c312;
    const SCALED_64_7: u64 = 0xa955_67f5_09e0_df50;
    const SCALED_100_11: u64 = 0xcc0e_454a_12ad_99f0;
    /// 178 s to generate then, which is why nothing was built on it.
    const SCALED_250_3: u64 = 0x3366_d767_f603_0c4d;

    /// FNV-1a over every node record, in id order.
    fn digest(net: &Network) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for n in net.nodes() {
            for b in crate::record::RecordCodec::Paper.encode(n) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The networks every experiment and benchmark workload is built on
    /// must not move: these digests were taken from the generator as it
    /// was before thinning stopped re-walking the whole graph per
    /// candidate segment.
    #[test]
    fn generated_networks_are_pinned() {
        assert_eq!(digest(&minneapolis_like(1995)), MINNEAPOLIS_1995);
        let scaled = road_map(&RoadMapConfig::scaled(64, 7));
        assert_eq!(digest(&scaled), SCALED_64_7);
        assert_eq!(
            digest(&road_map(&RoadMapConfig::scaled(100, 11))),
            SCALED_100_11
        );
    }

    #[test]
    fn sixty_thousand_intersections_generate_in_seconds() {
        let cfg = RoadMapConfig::scaled(250, 3);
        let t = std::time::Instant::now();
        let net = road_map(&cfg);
        let took = t.elapsed();
        assert_eq!(net.len(), 62_500 - 625);
        assert_eq!(net.num_edges(), cfg.target_directed);
        assert_eq!(digest(&net), SCALED_250_3);
        assert!(took.as_secs() < 30, "generation took {took:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = minneapolis_like(7);
        let b = minneapolis_like(7);
        assert_eq!(a.node_ids(), b.node_ids());
        assert_eq!(a.num_edges(), b.num_edges());
        let c = minneapolis_like(8);
        assert_ne!(a.node_ids(), c.node_ids());
    }

    #[test]
    fn street_graph_is_connected() {
        let net = minneapolis_like(3);
        // Undirected reachability over successor∪predecessor lists.
        let ids = net.node_ids();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![ids[0]];
        seen.insert(ids[0]);
        while let Some(v) = stack.pop() {
            for n in net.node(v).unwrap().neighbors() {
                if seen.insert(n) {
                    stack.push(n);
                }
            }
        }
        assert_eq!(seen.len(), net.len(), "road network must be connected");
    }

    #[test]
    fn ids_are_zorder_of_coordinates() {
        let net = minneapolis_like(5);
        for n in net.nodes().take(50) {
            assert_eq!(n.id, zorder_id(n.x, n.y));
        }
    }

    #[test]
    fn scaled_config_keeps_minneapolis_proportions() {
        let net = road_map(&RoadMapConfig::scaled(20, 9));
        let a = net.avg_out_degree();
        assert!((a - 2.83).abs() < 0.1, "|A| = {a}");
        assert_eq!(net.len(), 396); // 400 - 4 removed
        net.validate();
    }

    #[test]
    fn smaller_config_scales() {
        let cfg = RoadMapConfig {
            grid_w: 10,
            grid_h: 10,
            removed_nodes: 2,
            target_segments: 150,
            target_directed: 260,
            cell: 64,
            jitter: 24,
            seed: 1,
        };
        let net = road_map(&cfg);
        assert_eq!(net.len(), 98);
        assert_eq!(net.num_edges(), 260);
        net.validate();
    }
}
