//! Integration: the paper's evaluation (`ccam_bench::paper`) is the
//! regression oracle. Each figure on the benchmark map reproduces its
//! section of the committed `experiments_report.txt` byte for byte,
//! keeps every shape check on the compact record, and keeps them on a
//! reduced-scale road map; Table 5's cost model and the operation
//! profiles are checked directly.

use ccam::core::am::{AccessMethod, CcamBuilder};
use ccam::core::costmodel::CostParams;
use ccam::core::validate::{validate, ValidationConfig};
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::{Network, RecordCodec};
use ccam_bench::paper::{fig5, fig6, fig7, section_header, table5};
use ccam_bench::{benchmark_network, build_all_methods};

fn small_map() -> Network {
    road_map(&RoadMapConfig {
        grid_w: 15,
        grid_h: 15,
        removed_nodes: 3,
        target_segments: 330,
        target_directed: 580,
        cell: 64,
        jitter: 24,
        seed: 1995,
    })
}

/// Asserts that `figure` on the benchmark map, under `run_all`'s header
/// for binary `name`, appears verbatim in `experiments_report.txt`, or
/// names the figure and its first line that differs.
fn assert_matches_report(name: &str, figure: fn(&Network, RecordCodec) -> String) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/experiments_report.txt");
    let report = std::fs::read_to_string(path).expect("read experiments_report.txt");
    let header = section_header(name);
    let Some(at) = report.find(&header) else {
        panic!("{name}: no section header {header:?} in experiments_report.txt");
    };
    let expected = &report[at + header.len()..];
    let actual = figure(&benchmark_network(), RecordCodec::Paper) + "\n";
    if expected.starts_with(&actual) {
        return;
    }
    let mut expected_lines = expected.lines();
    for (i, line) in actual.lines().enumerate() {
        let want = expected_lines.next().unwrap_or("<end of report>");
        assert!(
            want == line,
            "{name}: line {} of its section differs from experiments_report.txt\n\
             expected: {want}\n  actual: {line}",
            i + 1
        );
    }
    panic!("{name}: its section differs from experiments_report.txt in line endings");
}

/// Asserts that a figure's text reports shape checks and misses none.
fn assert_every_check_holds(figure: &str, text: &str) {
    assert!(
        text.contains("shape checks:"),
        "{figure}: no shape checks\n{text}"
    );
    let misses: Vec<&str> = text.lines().filter(|l| l.contains("[MISS]")).collect();
    assert!(
        misses.is_empty(),
        "{figure}: {} shape check(s) missed:\n{}\n\n{text}",
        misses.len(),
        misses.join("\n")
    );
}

#[test]
fn fig5_matches_the_committed_report() {
    assert_matches_report("fig5_crr_vs_blocksize", fig5);
}

#[test]
fn table5_matches_the_committed_report() {
    assert_matches_report("table5_operation_costs", table5);
}

#[test]
fn fig6_matches_the_committed_report() {
    assert_matches_report("fig6_route_eval", fig6);
}

#[test]
fn fig7_matches_the_committed_report() {
    assert_matches_report("fig7_reorg_policies", fig7);
}

#[test]
fn fig5_keeps_its_shape_on_the_compact_record() {
    let text = fig5(&benchmark_network(), RecordCodec::Compact);
    assert_every_check_holds("fig5 (compact)", &text);
}

#[test]
fn fig6_keeps_its_shape_on_the_compact_record() {
    let text = fig6(&benchmark_network(), RecordCodec::Compact);
    assert_every_check_holds("fig6 (compact)", &text);
}

#[test]
fn fig7_keeps_its_shape_on_the_compact_record() {
    let text = fig7(&benchmark_network(), RecordCodec::Compact);
    assert_every_check_holds("fig7 (compact)", &text);
}

/// Figure 5 on the small map: CCAM-S has the highest CRR, CCAM-D beats
/// DFS-AM and DFS-AM beats BFS-AM, at every block size.
#[test]
fn ccam_has_the_highest_crr() {
    assert_every_check_holds("fig5 (small map)", &fig5(&small_map(), RecordCodec::Paper));
}

/// Figure 5: CRR grows from 512 B to 4 KiB blocks for every method.
#[test]
fn crr_grows_with_block_size() {
    let net = small_map();
    let crr = |block| -> Vec<(String, f64)> {
        build_all_methods(&net, block, None, false, RecordCodec::Paper)
            .iter()
            .map(|am| (am.name().to_string(), am.crr().unwrap()))
            .collect()
    };
    for ((name, c_small), (_, c_large)) in crr(512).iter().zip(&crr(4096)) {
        assert!(
            c_large > c_small,
            "{name}: CRR must grow with block size ({c_small:.3} -> {c_large:.3})"
        );
    }
}

/// Figure 6 on the small map: CCAM-S and CCAM-D evaluate routes more
/// cheaply than every other method, and every method's cost grows with
/// route length.
#[test]
fn route_evaluation_cost_ordering() {
    assert_every_check_holds("fig6 (small map)", &fig6(&small_map(), RecordCodec::Paper));
}

/// Table 3/5: measured Get-successors and Get-A-successor costs track
/// the cost model within a generous envelope.
#[test]
fn search_costs_track_the_cost_model() {
    let net = small_map();
    let am = CcamBuilder::new(1024)
        .codec(RecordCodec::Paper)
        .build_static(&net)
        .unwrap();
    let params = CostParams::measure(am.file()).unwrap();

    let ids = net.node_ids();
    let (mut gs, mut ga, mut n) = (0u64, 0u64, 0u64);
    for id in ids.into_iter().step_by(2) {
        let rec = am.find(id).unwrap().unwrap();
        if rec.successors.is_empty() {
            continue;
        }
        am.file().pool().clear().unwrap();
        am.find(id).unwrap();
        let before = am.stats().snapshot();
        am.get_successors(id).unwrap();
        gs += am.stats().snapshot().since(&before).physical_reads;

        am.file().pool().clear().unwrap();
        am.find(id).unwrap();
        let before = am.stats().snapshot();
        am.get_a_successor(id, rec.successors[0].to).unwrap();
        ga += am.stats().snapshot().since(&before).physical_reads;
        n += 1;
    }
    let gs = gs as f64 / n as f64;
    let ga = ga as f64 / n as f64;
    let pred_gs = params.get_successors_cost();
    let pred_ga = params.get_a_successor_cost();
    assert!(
        (gs - pred_gs).abs() < 0.35 + 0.5 * pred_gs,
        "get-successors measured {gs:.3} vs predicted {pred_gs:.3}"
    );
    assert!(
        (ga - pred_ga).abs() < 0.25 + 0.5 * pred_ga,
        "get-a-successor measured {ga:.3} vs predicted {pred_ga:.3}"
    );
}

/// The reusable validation harness reproduces the Table 5 methodology:
/// observed page accesses per operation class stay within a generous
/// envelope of the §3.2 predictions (same tolerances as the manual
/// measurement above), and every class the workload can exercise shows
/// up in the report.
#[test]
fn validation_harness_tracks_the_cost_model() {
    let net = small_map();
    let mut am = CcamBuilder::new(1024)
        .codec(RecordCodec::Paper)
        .build_static(&net)
        .unwrap();
    let cfg = ValidationConfig {
        sample: 48,
        routes: 6,
        route_len: 15,
        seed: 7,
        ..ValidationConfig::default()
    };
    let report = validate(&mut am, &cfg).unwrap();

    let find = report.class("find").unwrap();
    assert!(
        (find.observed - 1.0).abs() < 1e-9,
        "find on a cold buffer must cost exactly one page, got {:.3}",
        find.observed
    );
    let gs = report.class("get_successors").unwrap();
    assert!(
        (gs.observed - gs.predicted).abs() < 0.35 + 0.5 * gs.predicted,
        "get-successors observed {:.3} vs predicted {:.3}",
        gs.observed,
        gs.predicted
    );
    let ga = report.class("get_a_successor").unwrap();
    assert!(
        (ga.observed - ga.predicted).abs() < 0.25 + 0.5 * ga.predicted,
        "get-a-successor observed {:.3} vs predicted {:.3}",
        ga.observed,
        ga.predicted
    );
    let route = report.class("route").unwrap();
    assert!(route.observed >= 1.0, "a route faults at least one page");
    assert!(
        (route.observed - route.predicted).abs() < 0.5 + 0.5 * route.predicted,
        "route observed {:.3} vs predicted {:.3}",
        route.observed,
        route.predicted
    );
    // Updates ran (delete + re-insert). Table 4 predicts a worst case and
    // the re-insert runs on the buffer the delete warmed, so only the
    // delete is guaranteed to do physical I/O.
    let del = report.class("delete").unwrap();
    assert!(del.trials > 0 && del.observed > 0.0, "delete did no I/O");
    assert!(report.class("insert").unwrap().trials > 0);
    let text = report.render();
    for c in &report.classes {
        assert!(text.contains(&c.class), "render lost class {}", c.class);
    }
}

/// Operation spans attribute page accesses to the public entry point:
/// each call yields exactly one profile (nested `find`s fold in), named
/// after the operation, with a non-empty ordered page-access trace.
#[test]
fn operation_spans_capture_page_access_traces() {
    let net = small_map();
    let am = CcamBuilder::new(1024)
        .codec(RecordCodec::Paper)
        .build_static(&net)
        .unwrap();
    let id = net.node_ids()[0];
    am.stats().set_profiling(true);
    am.file().pool().clear().unwrap();
    am.find(id).unwrap();
    am.get_successors(id).unwrap();
    let profiles = am.stats().take_profiles();
    assert_eq!(
        profiles.len(),
        2,
        "two entry points must yield two profiles"
    );
    assert_eq!(profiles[0].op, "find");
    assert_eq!(profiles[1].op, "get_successors");
    assert!(profiles[0].data_page_accesses() >= 1);
    assert!(!profiles[0].trace_string().is_empty());
    // Profiling off again: no further collection.
    am.stats().set_profiling(false);
    am.find(id).unwrap();
    assert!(am.stats().take_profiles().is_empty());
}

/// Figure 7 on the small map: higher-order reorganization costs far
/// more I/O than first or second order, and first order ends with the
/// lowest CRR.
#[test]
fn reorg_policy_tradeoff() {
    assert_every_check_holds("fig7 (small map)", &fig7(&small_map(), RecordCodec::Paper));
}
