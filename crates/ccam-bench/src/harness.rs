//! Shared experiment plumbing.

use std::collections::HashMap;

use ccam_core::am::{AccessMethod, CcamBuilder, GridAm, TopoAm, TraversalOrder};
use ccam_core::file::clustering_weight;
use ccam_core::query::route::evaluate_route;
use ccam_graph::walks::Route;
use ccam_graph::{roadmap, Network, NodeId};
use ccam_partition::PartGraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Seed used by every experiment so tables regenerate identically.
pub const EXPERIMENT_SEED: u64 = 1995;

/// The benchmark network: the Minneapolis-like road map (1079 nodes,
/// 3057 directed edges — DESIGN.md §4).
pub fn benchmark_network() -> Network {
    roadmap::minneapolis_like(EXPERIMENT_SEED)
}

/// The five access methods of the paper's comparison, built over `net`
/// with the given block size and (optional) route-derived edge weights.
///
/// Order matches the paper's figures: CCAM-S, CCAM-D, DFS-AM,
/// (WDFS-AM when weighted,) Grid File, BFS-AM.
pub fn build_all_methods(
    net: &Network,
    block_size: usize,
    weights: Option<&HashMap<(NodeId, NodeId), u64>>,
    include_wdfs: bool,
) -> Vec<Box<dyn AccessMethod>> {
    let empty = HashMap::new();
    let w = weights.unwrap_or(&empty);
    let mut builder = CcamBuilder::new(block_size);
    if let Some(weights) = weights {
        builder = builder.weights(weights.clone());
    }
    let mut methods: Vec<Box<dyn AccessMethod>> = Vec::new();
    methods.push(Box::new(builder.build_static(net).expect("CCAM-S create")));
    methods.push(Box::new(builder.build_dynamic(net).expect("CCAM-D create")));
    methods.push(Box::new(
        TopoAm::create(net, block_size, TraversalOrder::DepthFirst, None, w)
            .expect("DFS-AM create"),
    ));
    if include_wdfs {
        methods.push(Box::new(
            TopoAm::create(net, block_size, TraversalOrder::WeightedDepthFirst, None, w)
                .expect("WDFS-AM create"),
        ));
    }
    methods.push(Box::new(
        GridAm::create(net, block_size).expect("Grid create"),
    ));
    methods.push(Box::new(
        TopoAm::create(net, block_size, TraversalOrder::BreadthFirst, None, w)
            .expect("BFS-AM create"),
    ));
    methods
}

/// A deterministic random sample of `fraction` of the network's nodes.
pub fn sample_nodes(net: &Network, fraction: f64, seed: u64) -> Vec<NodeId> {
    let mut ids = net.node_ids();
    let mut rng = StdRng::seed_from_u64(seed);
    ids.shuffle(&mut rng);
    let k = ((ids.len() as f64) * fraction).round() as usize;
    ids.truncate(k);
    ids
}

/// Measures the data-page I/O (reads + writes, the paper's §3.2
/// convention for update operations) of `op`, starting from a cold
/// buffer and flushing dirty pages afterwards.
pub fn measure_io<R>(
    am: &mut dyn AccessMethod,
    op: impl FnOnce(&mut dyn AccessMethod) -> R,
) -> (R, u64) {
    am.file().pool().clear().expect("clear buffer");
    let before = am.stats().snapshot();
    let r = op(am);
    am.file().pool().flush_all().expect("flush");
    let d = am.stats().snapshot().since(&before);
    (r, d.physical_reads + d.physical_writes)
}

/// Average data-page accesses per route for a route set, evaluated with
/// the paper's single one-page buffer (§4.3), cold per route.
pub fn avg_route_io(am: &dyn AccessMethod, routes: &[Route]) -> f64 {
    am.file().pool().set_capacity(1).expect("capacity");
    let mut total = 0u64;
    for route in routes {
        am.file().pool().clear().expect("clear");
        let before = am.stats().snapshot();
        let eval = evaluate_route(am, route).expect("route evaluation");
        debug_assert!(eval.complete, "walk-generated route must be valid");
        total += am.stats().snapshot().since(&before).physical_reads;
    }
    // Restore a sane buffer for later phases.
    am.file()
        .pool()
        .set_capacity(ccam_core::file::DEFAULT_BUFFER_FRAMES)
        .expect("capacity");
    total as f64 / routes.len() as f64
}

/// Parses the value given to command-line flag `flag`, or names the flag
/// and the value it could not parse. A harness that gates CI must not
/// quietly run with a default nobody asked for.
pub fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// A harness's command line, read front to back: iterate for the next
/// flag, then take its [`value`](Args::value) or [`num`](Args::num). A
/// missing or unparsable value exits 2 naming the flag.
pub struct Args {
    bin: &'static str,
    args: std::vec::IntoIter<String>,
}

impl Args {
    /// The process's arguments, for harness `bin` (the prefix of every
    /// error message).
    pub fn from_env(bin: &'static str) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let args = args.into_iter();
        Args { bin, args }
    }

    /// The argument after `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        let value = self.args.next();
        value.unwrap_or_else(|| self.fail(&format!("{flag}: missing value")))
    }

    /// The argument after `flag`, parsed (see [`parse_flag`]).
    pub fn num<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let value = self.value(flag);
        parse_flag(flag, &value).unwrap_or_else(|e| self.fail(&e))
    }

    /// Prints `<bin>: <msg>` and exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.bin);
        std::process::exit(2);
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.args.next()
    }
}

/// The `p`-quantile (0..=1, nearest rank) of an ascending slice; 0 when
/// empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The `PartGraph` that `Static-Create()` builds internally: clustering
/// weights per node, uniform edge weights (the CRR setting).
pub fn part_graph(net: &Network) -> PartGraph {
    let all: Vec<&ccam_graph::NodeData> = net.nodes().collect();
    let idx_of: HashMap<NodeId, usize> = all.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
    let sizes = all.iter().map(|n| clustering_weight(n)).collect();
    let mut edges = Vec::new();
    for (i, n) in all.iter().enumerate() {
        for e in &n.successors {
            if let Some(&j) = idx_of.get(&e.to) {
                edges.push((i, j, 1u64));
            }
        }
    }
    PartGraph::new(sizes, &edges)
}

/// Renders a plain-text table: header row + rows, column-aligned.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(cell.len());
            } else {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| -> String {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        s.trim_end().to_string()
    };
    let mut out = line(header);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_sized() {
        let net = ccam_graph::generators::grid_network(10, 10, 1.0);
        let a = sample_nodes(&net, 0.5, 7);
        let b = sample_nodes(&net, 0.5, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        let c = sample_nodes(&net, 0.5, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn measure_io_counts_cold_accesses() {
        let net = ccam_graph::generators::grid_network(6, 6, 1.0);
        let mut am: Box<dyn AccessMethod> =
            Box::new(CcamBuilder::new(512).build_static(&net).unwrap());
        let id = net.node_ids()[0];
        let (_, io) = measure_io(am.as_mut(), |am| am.find(id).unwrap());
        assert_eq!(io, 1, "cold find reads exactly one data page");
    }

    #[test]
    fn flag_values_parse_or_name_the_flag() {
        assert_eq!(parse_flag::<usize>("--workers", "2"), Ok(2));
        assert_eq!(parse_flag::<f64>("--max-ratio", "2.5"), Ok(2.5));
        assert_eq!(
            parse_flag::<usize>("--workers", "two"),
            Err("--workers: cannot parse \"two\"".to_string())
        );
        assert_eq!(
            parse_flag::<u64>("--seed", ""),
            Err("--seed: cannot parse \"\"".to_string())
        );
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["a".into(), "bb".into()],
            &[vec!["xxx".into(), "y".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a    bb"));
        assert!(lines[2].starts_with("xxx  y"));
    }

    #[test]
    fn build_all_methods_names() {
        let net = ccam_graph::generators::grid_network(6, 6, 1.0);
        let methods = build_all_methods(&net, 512, None, true);
        let names: Vec<&str> = methods.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "CCAM-S",
                "CCAM-D",
                "DFS-AM",
                "WDFS-AM",
                "Grid File",
                "BFS-AM"
            ]
        );
    }
}
