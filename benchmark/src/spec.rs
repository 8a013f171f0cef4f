//! The four workloads and their fixed sizes.
//!
//! Everything a workload does is a *count* fixed here — batches per
//! round, writes per round, walk length, pool share — so that two runs
//! of one seed issue byte-identical requests. `--seconds` only decides
//! how many equal rounds are measured beyond the minimum.
//!
//! The networks are smaller than the issue asked for (a 160 x 160 grid
//! for 512 x 512, a 4 056-node road map for ~62 k nodes) and the mixed
//! workload writes 30 times a second for 8: `README.md`, *Sizes the
//! issue asked for*, has the measurements that forced each.

use ccam_partition::PartitionStrategy;

/// Rounds measured at the least, whatever `--seconds` says. The count
/// metrics (`pages_per_read_op`, `write_bytes_per_upsert`,
/// `space_bytes_per_node`) are taken over exactly the warm-up round plus
/// this many, so they do not depend on how fast the machine is.
pub const MIN_ROUNDS: usize = 5;

/// Data page size of every database the benchmark builds.
pub const PAGE_SIZE: usize = 1024;

/// One request batch in this many gets its full content validated
/// against the in-memory network (all get their status checked).
pub const VALIDATE_EVERY: usize = 16;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-size map, pool holds every page, server in the loop.
    ServeHot,
    /// Grid sixteen times its pool, server in the loop.
    ServeScale,
    /// Closed-loop reader beside a fixed-rate writer.
    ServeMixedRw,
    /// Direct library calls, no server.
    EmbeddedOps,
}

impl Workload {
    /// Every workload, in ledger order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ServeScale,
        Workload::ServeMixedRw,
        Workload::EmbeddedOps,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeScale => "serve_scale",
            Workload::ServeMixedRw => "serve_mixed_rw",
            Workload::EmbeddedOps => "embedded_ops",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workloads with one client, whose counts repeat
    /// exactly for a given seed.
    pub fn single_client(self) -> bool {
        self != Workload::ServeMixedRw
    }
}

/// The network a workload runs on. None depends on `--seed`: the seed
/// varies the requests, not the database, so the space and page-access
/// metrics of two seeds are comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetSpec {
    /// `RoadMapConfig::minneapolis` — 1 079 nodes, the paper's map.
    Minneapolis,
    /// `RoadMapConfig::scaled(side, _)` — a non-grid road map.
    RoadMap(u32),
    /// `grid_network(side, side, 1.0)` — every segment two-way.
    Grid(u32),
}

/// Seed of the generated road maps (fixed; see [`NetSpec`]).
pub const NETWORK_SEED: u64 = 1995;

/// How the pool under the reads is sized. A served snapshot view always
/// starts with the library default and the server has no knob for it, so
/// the benchmark sizes the view's public pool: before every round's
/// reads, and on `serve_mixed_rw` after every commit, which replaces
/// the view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolSpec {
    /// Twice the data pages of the fresh database, so every page still
    /// fits after the writes have split some: the hit ratio is 1 after
    /// warm-up.
    AllPages,
    /// `data pages / n` frames.
    Fraction(usize),
    /// The library default (`DEFAULT_BUFFER_FRAMES` = 64), untouched.
    LibraryDefault,
}

/// Everything fixed about one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload this is.
    pub workload: Workload,
    /// The network.
    pub net: NetSpec,
    /// Clustering strategy of `Create()`.
    pub strategy: PartitionStrategy,
    /// Read-phase pool size.
    pub pool: PoolSpec,
    /// Find : GetSuccessors : Route : RangeAggregate weights.
    pub mix: [u32; 4],
    /// Hops of the walks behind Route / RangeAggregate / A* requests.
    pub walk_hops: usize,
    /// Requests per batch frame (1 = per call, on `embedded_ops`).
    pub batch: usize,
    /// Read batches (or calls) per round.
    pub reads_per_round: usize,
    /// Writes per round.
    pub writes_per_round: usize,
    /// Server worker threads (0 = no server).
    pub workers: usize,
    /// Open-loop write rate in writes/s; `None` = closed loop.
    pub write_rate: Option<f64>,
    /// Times the whole set-up is repeated; `setup_s` is the median.
    pub setups: usize,
}

impl Spec {
    /// The spec of `workload`. `quick` shrinks every size for the smoke
    /// test; `grid` sets the side of the `serve_scale` grid (the 1 M-node
    /// reference run is `--grid 1000 --quick`: full size, few requests).
    pub fn of(workload: Workload, quick: bool, grid: Option<u32>) -> Spec {
        let mut spec = match workload {
            Workload::ServeHot => Spec {
                workload,
                net: NetSpec::Minneapolis,
                strategy: PartitionStrategy::Flat,
                pool: PoolSpec::AllPages,
                mix: [60, 25, 10, 5],
                walk_hops: 4,
                batch: 16,
                reads_per_round: 1000,
                writes_per_round: 200,
                workers: 1,
                write_rate: None,
                setups: 15,
            },
            Workload::ServeScale => Spec {
                workload,
                net: NetSpec::Grid(grid.unwrap_or(if quick { 24 } else { 160 })),
                strategy: PartitionStrategy::Multilevel,
                pool: PoolSpec::Fraction(16),
                mix: [30, 30, 25, 15],
                walk_hops: 32,
                batch: 16,
                reads_per_round: 400,
                writes_per_round: 40,
                workers: 1,
                write_rate: None,
                setups: 5,
            },
            Workload::ServeMixedRw => Spec {
                workload,
                net: NetSpec::RoadMap(64),
                strategy: PartitionStrategy::Multilevel,
                pool: PoolSpec::Fraction(4),
                mix: [60, 25, 10, 5],
                walk_hops: 4,
                batch: 16,
                reads_per_round: 400,
                writes_per_round: 60,
                workers: 2,
                write_rate: Some(30.0),
                setups: 5,
            },
            Workload::EmbeddedOps => Spec {
                workload,
                net: NetSpec::RoadMap(64),
                strategy: PartitionStrategy::Multilevel,
                pool: PoolSpec::LibraryDefault,
                mix: [25, 25, 25, 25],
                walk_hops: 24,
                batch: 1,
                reads_per_round: 2000,
                writes_per_round: 200,
                workers: 0,
                write_rate: None,
                setups: 5,
            },
        };
        if quick {
            if let NetSpec::RoadMap(side) = &mut spec.net {
                *side = 24;
            }
            spec.reads_per_round = 32;
            spec.writes_per_round = 8;
            spec.walk_hops = spec.walk_hops.min(8);
            spec.setups = 1;
            // Keep the quick mixed round short: 8 writes at 80/s.
            spec.write_rate = spec.write_rate.map(|_| 80.0);
        }
        spec
    }

    /// True when the workload drives a server.
    pub fn served(&self) -> bool {
        self.workers > 0
    }
}
