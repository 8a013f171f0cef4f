//! The paper's evaluation (§4): Figure 5, Table 5, Figure 6 and
//! Figure 7, one function each. A function builds its figure on a
//! network and a record codec and returns the text its binary prints.
//! `run_all` records that text under [`section_header`], and the root
//! package's `tests/experiment_shapes.rs` diffs it against
//! `experiments_report.txt` and checks its shapes.

use std::collections::{HashMap, HashSet};
use std::fmt::Write;

use ccam_core::am::{AccessMethod, CcamBuilder, GridAm, TopoAm, TraversalOrder};
use ccam_core::costmodel::CostParams;
use ccam_core::reorg::ReorgPolicy;
use ccam_graph::walks::{edge_weights_from_routes, random_walk_routes};
use ccam_graph::{Network, NodeData, NodeId, RecordCodec};

use crate::{
    avg_route_io, benchmark_network, build_all_methods, codec_arg, measure_io, render_table,
    sample_nodes, EXPERIMENT_SEED,
};

/// The line `run_all` writes above each binary's section of its report.
pub fn section_header(name: &str) -> String {
    format!("{:=^78}\n", format!(" {name} "))
}

/// A paper binary's `main`: reads `--codec` ([`codec_arg`]) and prints
/// `figure` on the benchmark network.
pub fn main(name: &'static str, figure: fn(&Network, RecordCodec) -> String) {
    let codec = codec_arg(name);
    print!("{}", figure(&benchmark_network(), codec));
}

/// Names a codec other than the paper's under a figure's title.
fn codec_note(out: &mut String, codec: RecordCodec) {
    if codec != RecordCodec::Paper {
        writeln!(
            out,
            "record codec: {} (extension; the paper's record is the default)\n",
            codec.name()
        )
        .unwrap();
    }
}

/// Prints a figure's shape checks, each `[ok]` or `[MISS]`.
fn shape_checks(out: &mut String, checks: &[(String, bool)]) {
    writeln!(out, "shape checks:").unwrap();
    for (label, ok) in checks {
        writeln!(out, "  [{}] {label}", if *ok { "ok" } else { "MISS" }).unwrap();
    }
}

/// Figure 5 — "The effect of disk block size on CRR".
///
/// CRR of the five access methods at disk block sizes 512 / 1024 /
/// 2048 / 4096 bytes, uniform edge weights (paper §4.1).
///
/// Expected shape (paper): CRR grows with block size for every method;
/// CCAM-S highest everywhere, CCAM-D close behind, then DFS-AM, with the
/// Grid File overtaking DFS-AM at 4k; BFS-AM far below everything.
pub fn fig5(net: &Network, codec: RecordCodec) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 5: CRR vs disk block size  (road map: {} nodes, {} edges)\n",
        net.len(),
        net.num_edges()
    )
    .unwrap();
    codec_note(&mut out, codec);
    let block_sizes = [512usize, 1024, 2048, 4096];

    // Build per block size, collect CRR per method.
    let mut names: Vec<String> = Vec::new();
    let mut crr: Vec<Vec<f64>> = Vec::new();
    for (bi, &bs) in block_sizes.iter().enumerate() {
        let methods = build_all_methods(net, bs, None, false, codec);
        for (mi, m) in methods.iter().enumerate() {
            if bi == 0 {
                names.push(m.name().to_string());
                crr.push(Vec::new());
            }
            crr[mi].push(m.crr().expect("crr"));
        }
    }

    let header: Vec<String> = std::iter::once("method".to_string())
        .chain(block_sizes.iter().map(|b| format!("{b}B")))
        .collect();
    let rows: Vec<Vec<String>> = names
        .iter()
        .enumerate()
        .map(|(mi, name)| {
            std::iter::once(name.clone())
                .chain(crr[mi].iter().map(|c| format!("{c:.4}")))
                .collect()
        })
        .collect();
    writeln!(out, "{}", render_table(&header, &rows)).unwrap();

    // Shape assertions from the paper, reported rather than enforced.
    let idx = |n: &str| names.iter().position(|x| x == n).expect("method");
    let (s, d, dfs, grid, bfs) = (
        idx("CCAM-S"),
        idx("CCAM-D"),
        idx("DFS-AM"),
        idx("Grid File"),
        idx("BFS-AM"),
    );
    let mut checks = vec![];
    for (bi, &bs) in block_sizes.iter().enumerate() {
        checks.push((
            format!("CCAM-S best at {bs}"),
            (0..names.len()).all(|m| m == s || crr[s][bi] >= crr[m][bi]),
        ));
        checks.push((
            format!("CCAM-D > DFS-AM at {bs}"),
            crr[d][bi] > crr[dfs][bi],
        ));
        checks.push((
            format!("DFS-AM > BFS-AM at {bs}"),
            crr[dfs][bi] > crr[bfs][bi],
        ));
    }
    checks.push((
        "CRR grows with block size (CCAM-S)".into(),
        crr[s].windows(2).all(|w| w[1] >= w[0]),
    ));
    checks.push((
        "Grid File competitive with DFS-AM at 4k (paper: overtakes)".into(),
        crr[grid][3] >= crr[dfs][3] * 0.85,
    ));
    shape_checks(&mut out, &checks);
    out
}

/// Table 5 — "I/O cost for Network Operations".
///
/// Average data-page accesses per operation at block size 1 KiB,
/// measured on a random 50% of the nodes (paper §4.2), with the
/// cost-model predictions of Tables 3/4 alongside.
///
/// Conventions taken from the paper:
/// * search operations assume the page of the source node is already
///   buffered (the harness primes the buffer with an unmeasured `Find`),
/// * update costs count reads + writes, with writes ≈ reads (§3.2),
/// * page under/overflows are side-stepped (first-order policy, each
///   deleted node is immediately re-inserted) "to filter out the effect
///   of reorganization policies".
pub fn table5(net: &Network, codec: RecordCodec) -> String {
    let mut out = String::new();
    let block = 1024;
    writeln!(
        out,
        "Table 5: I/O cost for network operations  (block = {block} B, 50% node sample)\n"
    )
    .unwrap();
    codec_note(&mut out, codec);

    let w = HashMap::new();
    // First-order policy: reorganization filtered out, as in the paper.
    let methods: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(
            CcamBuilder::new(block)
                .codec(codec)
                .policy(ReorgPolicy::FirstOrder)
                .build_static(net)
                .expect("CCAM"),
        ),
        Box::new(
            TopoAm::create(net, block, TraversalOrder::DepthFirst, None, &w, codec).expect("DFS"),
        ),
        Box::new(GridAm::create(net, block, codec).expect("Grid")),
        Box::new(
            TopoAm::create(net, block, TraversalOrder::BreadthFirst, None, &w, codec).expect("BFS"),
        ),
    ];

    let sample = sample_nodes(net, 0.5, EXPERIMENT_SEED + 1);
    let header: Vec<String> = [
        "method",
        "GetSuccs",
        "(pred)",
        "GetASucc",
        "(pred)",
        "Delete",
        "(pred)",
        "Insert",
        "alpha=CRR",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut params_line = String::new();

    for mut am in methods {
        let params = CostParams::measure(am.file()).expect("measure");
        // -- Get-successors / Get-A-successor: prime with Find, measure the op.
        let (mut gs_total, mut gs_n) = (0u64, 0u64);
        let (mut ga_total, mut ga_n) = (0u64, 0u64);
        for &x in &sample {
            let rec = am.find(x).expect("io").expect("sampled node exists");
            if rec.successors.is_empty() {
                continue;
            }
            // Get-successors, cold except for x's own page.
            am.file().pool().clear().expect("clear");
            am.find(x).expect("prime");
            let before = am.stats().snapshot();
            am.get_successors(x).expect("get_successors");
            gs_total += am.stats().snapshot().since(&before).physical_reads;
            gs_n += 1;
            // Get-A-successor of the first successor, same priming.
            am.file().pool().clear().expect("clear");
            am.find(x).expect("prime");
            let before = am.stats().snapshot();
            am.get_a_successor(x, rec.successors[0].to)
                .expect("get_a_successor");
            ga_total += am.stats().snapshot().since(&before).physical_reads;
            ga_n += 1;
        }

        // -- Delete (measured) then Insert back (measured): both columns
        // from one sweep, file restored after each pair.
        let (mut del_total, mut ins_total, mut upd_n) = (0u64, 0u64, 0u64);
        for &x in &sample {
            let (deleted, del_io) =
                measure_io(am.as_mut(), |am| am.delete_node(x).expect("delete"));
            let Some(deleted) = deleted else { continue };
            let (_, ins_io) = measure_io(am.as_mut(), |am| {
                am.insert_node(&deleted.data, &deleted.incoming)
                    .expect("insert")
            });
            del_total += del_io;
            ins_total += ins_io;
            upd_n += 1;
        }

        let gs = gs_total as f64 / gs_n as f64;
        let ga = ga_total as f64 / ga_n as f64;
        let del = del_total as f64 / upd_n as f64;
        let ins = ins_total as f64 / upd_n as f64;
        rows.push(vec![
            am.name().to_string(),
            format!("{gs:.3}"),
            format!("{:.3}", params.get_successors_cost()),
            format!("{ga:.3}"),
            format!("{:.3}", params.get_a_successor_cost()),
            format!("{del:.3}"),
            format!("{:.3}", params.delete_cost_rw(ReorgPolicy::FirstOrder)),
            format!("{ins:.3}"),
            format!("{:.4}", params.alpha),
        ]);
        if am.name() == "CCAM-S" {
            params_line = format!(
                "|A| = {:.3}   lambda = {:.2}   gamma = {:.2}",
                params.avg_successors, params.avg_neighbors, params.blocking_factor
            );
        }
    }
    writeln!(out, "{}", render_table(&header, &rows)).unwrap();
    writeln!(out, "{params_line}").unwrap();
    writeln!(
        out,
        "\nshape expectation (paper): CCAM lowest on GetSuccs/GetASucc/Delete; Grid File lowest on Insert."
    )
    .unwrap();
    out
}

/// Figure 6 — "Effect of Route Length" on route-evaluation I/O.
///
/// Block size 2048; route sets of lengths 10/20/30/40 (100 random-walk
/// routes each); edge weights derived from the routes' traversal counts;
/// one single-page buffer; queries processed as `Find` +
/// `Get-A-successor` chains (paper §4.3). WDFS-AM joins the comparison
/// here because edge weights exist to order its traversal; CCAM clusters
/// to maximise WCRR under the same weights.
///
/// Expected shape (paper): page accesses grow linearly with route
/// length; CCAM-S and CCAM-D below every other method at every length.
pub fn fig6(net: &Network, codec: RecordCodec) -> String {
    let mut out = String::new();
    let block = 2048;
    let lengths = [10usize, 20, 30, 40];
    writeln!(
        out,
        "Figure 6: route evaluation I/O vs route length  (block = {block} B, 100 routes/set, 1-page buffer)\n"
    )
    .unwrap();
    codec_note(&mut out, codec);

    // Route sets and the derived edge weights (all sets contribute).
    let route_sets: Vec<_> = lengths
        .iter()
        .enumerate()
        .map(|(i, &l)| random_walk_routes(net, 100, l, EXPERIMENT_SEED + 10 + i as u64))
        .collect();
    let all_routes: Vec<_> = route_sets.iter().flatten().cloned().collect();
    let weights = edge_weights_from_routes(&all_routes);

    let methods = build_all_methods(net, block, Some(&weights), true, codec);

    let header: Vec<String> = std::iter::once("method".to_string())
        .chain(lengths.iter().map(|l| format!("L={l}")))
        .chain(["WCRR".to_string()])
        .collect();
    let mut rows = Vec::new();
    let mut table: Vec<(String, Vec<f64>)> = Vec::new();
    for am in &methods {
        let mut series = Vec::new();
        for routes in &route_sets {
            series.push(avg_route_io(am.as_ref(), routes));
        }
        let wcrr = am.wcrr(&weights).expect("wcrr");
        rows.push(
            std::iter::once(am.name().to_string())
                .chain(series.iter().map(|v| format!("{v:.2}")))
                .chain([format!("{wcrr:.4}")])
                .collect(),
        );
        table.push((am.name().to_string(), series));
    }
    writeln!(out, "{}", render_table(&header, &rows)).unwrap();

    // Shape checks.
    let get = |n: &str| &table.iter().find(|(m, _)| m == n).expect("method").1;
    let (s, d) = (get("CCAM-S"), get("CCAM-D"));
    let mut checks = vec![];
    for (li, &l) in lengths.iter().enumerate() {
        let others_min = table
            .iter()
            .filter(|(m, _)| m != "CCAM-S" && m != "CCAM-D")
            .map(|(_, v)| v[li])
            .fold(f64::INFINITY, f64::min);
        checks.push((
            format!("CCAM-S & CCAM-D cheapest at L={l}"),
            s[li] < others_min && d[li] < others_min,
        ));
    }
    for (name, series) in &table {
        checks.push((
            format!("{name}: I/O grows with route length"),
            series.windows(2).all(|w| w[1] > w[0]),
        ));
    }
    shape_checks(&mut out, &checks);
    out
}

/// Figure 7 reports a sample every this many insertions.
const REPORT_EVERY: usize = 27;

/// Figure 7 — "Effect of the Reorganization Policies".
///
/// The paper inserts 20% of the Minneapolis road map's nodes into a CCAM
/// file built from the remaining 80% and tracks, per policy (first /
/// second / higher order), (a) the average I/O cost per insertion and
/// (b) the CRR trajectory (§4.4).
///
/// Expected shape (paper): higher-order I/O far above first/second
/// (which are nearly equal and flat); first-order ends with the lowest
/// CRR; higher-order CRR only slightly above second-order; CRR drifts
/// down for every policy as the file densifies.
pub fn fig7(net: &Network, codec: RecordCodec) -> String {
    let mut out = String::new();
    let block = 1024;
    writeln!(
        out,
        "Figure 7: reorganization policies during insertion of 20% of the road map  (block = {block} B)\n"
    )
    .unwrap();
    codec_note(&mut out, codec);

    // Hold out 20% of the nodes; the base file stores the rest.
    let held_out: Vec<NodeId> = sample_nodes(net, 0.2, EXPERIMENT_SEED + 2);
    let mut base = net.clone();
    for &id in &held_out {
        base.remove_node(id);
    }
    writeln!(
        out,
        "base network: {} nodes; inserting {} held-out nodes\n",
        base.len(),
        held_out.len()
    )
    .unwrap();

    let policies = [
        ReorgPolicy::FirstOrder,
        ReorgPolicy::SecondOrder,
        ReorgPolicy::HigherOrder,
    ];
    let mut io_rows: Vec<Vec<String>> = Vec::new();
    let mut crr_rows: Vec<Vec<String>> = Vec::new();
    let mut avg_io_final = Vec::new();
    let mut crr_final = Vec::new();
    let mut steps_header: Vec<String> = Vec::new();

    for policy in policies {
        let mut am = CcamBuilder::new(block)
            .codec(codec)
            .policy(policy)
            .build_static(&base)
            .expect("base CCAM");
        let mut present: HashSet<NodeId> = base.node_ids().into_iter().collect();

        let mut total_io = 0u64;
        let mut io_series: Vec<f64> = Vec::new();
        let mut crr_series: Vec<f64> = Vec::new();
        let mut steps: Vec<usize> = Vec::new();
        for (i, &id) in held_out.iter().enumerate() {
            let (data, incoming) = restricted_node(net, id, &present);
            let (r, io) = measure_io(&mut am as &mut dyn AccessMethod, |am| {
                am.insert_node(&data, &incoming)
            });
            r.expect("insert");
            present.insert(id);
            total_io += io;
            if (i + 1) % REPORT_EVERY == 0 || i + 1 == held_out.len() {
                steps.push(i + 1);
                io_series.push(total_io as f64 / (i + 1) as f64);
                crr_series.push(am.crr().expect("crr"));
            }
        }
        if steps_header.is_empty() {
            steps_header = std::iter::once("policy".to_string())
                .chain(steps.iter().map(|s| format!("n={s}")))
                .collect();
        }
        io_rows.push(
            std::iter::once(policy.name().to_string())
                .chain(io_series.iter().map(|v| format!("{v:.2}")))
                .collect(),
        );
        crr_rows.push(
            std::iter::once(policy.name().to_string())
                .chain(crr_series.iter().map(|v| format!("{v:.4}")))
                .collect(),
        );
        avg_io_final.push(*io_series.last().expect("series"));
        crr_final.push(*crr_series.last().expect("series"));
    }

    writeln!(out, "(a) average I/O cost per insertion (cumulative):").unwrap();
    writeln!(out, "{}", render_table(&steps_header, &io_rows)).unwrap();
    writeln!(out, "(b) CRR after n insertions:").unwrap();
    writeln!(out, "{}", render_table(&steps_header, &crr_rows)).unwrap();

    let checks = [
        (
            "higher-order I/O well above first/second".to_string(),
            avg_io_final[2] > 1.25 * avg_io_final[0] && avg_io_final[2] > 1.5 * avg_io_final[1],
        ),
        (
            "first and second order I/O close".to_string(),
            (avg_io_final[0] - avg_io_final[1]).abs() <= 0.5 * avg_io_final[0],
        ),
        (
            "first-order ends with the lowest CRR".to_string(),
            crr_final[0] <= crr_final[1] && crr_final[0] <= crr_final[2],
        ),
        (
            "higher-order CRR >= second-order - epsilon".to_string(),
            crr_final[2] >= crr_final[1] - 0.02,
        ),
    ];
    shape_checks(&mut out, &checks);
    out
}

/// The held-out node's record restricted to currently-present neighbors,
/// plus the incoming-edge costs (edges to still-absent nodes material-
/// ise later, when their other endpoint is inserted).
fn restricted_node(
    net: &Network,
    id: NodeId,
    present: &HashSet<NodeId>,
) -> (NodeData, Vec<(NodeId, u32)>) {
    let full = net.node(id).expect("held-out node in original network");
    let data = NodeData {
        id: full.id,
        x: full.x,
        y: full.y,
        payload: full.payload.clone(),
        successors: full
            .successors
            .iter()
            .filter(|e| present.contains(&e.to))
            .copied()
            .collect(),
        predecessors: full
            .predecessors
            .iter()
            .filter(|p| present.contains(p))
            .copied()
            .collect(),
    };
    let incoming = data
        .predecessors
        .iter()
        .map(|&p| {
            let cost = net
                .node(p)
                .expect("pred exists")
                .successors
                .iter()
                .find(|e| e.to == id)
                .expect("edge exists")
                .cost;
            (p, cost)
        })
        .collect();
    (data, incoming)
}
