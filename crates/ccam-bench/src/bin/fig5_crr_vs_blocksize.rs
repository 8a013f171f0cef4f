//! Figure 5 — "The effect of disk block size on CRR".
//!
//! CRR of the five access methods on the benchmark road map at disk
//! block sizes 512 / 1024 / 2048 / 4096 bytes, uniform edge weights
//! (paper §4.1).
//!
//! Expected shape (paper): CRR grows with block size for every method;
//! CCAM-S highest everywhere, CCAM-D close behind, then DFS-AM, with the
//! Grid File overtaking DFS-AM at 4k; BFS-AM far below everything.
//!
//! `--codec compact` reruns it on the compact record (EXPERIMENTS.md).

use ccam_bench::{benchmark_network, build_all_methods, codec_arg, render_table};
use ccam_graph::RecordCodec;

fn main() {
    let codec = codec_arg("fig5_crr_vs_blocksize");
    let net = benchmark_network();
    println!(
        "Figure 5: CRR vs disk block size  (road map: {} nodes, {} edges)\n",
        net.len(),
        net.num_edges()
    );
    if codec != RecordCodec::Paper {
        println!(
            "record codec: {} (extension; the paper's record is the default)\n",
            codec.name()
        );
    }
    let block_sizes = [512usize, 1024, 2048, 4096];

    // Build per block size, collect CRR per method.
    let mut names: Vec<String> = Vec::new();
    let mut crr: Vec<Vec<f64>> = Vec::new();
    for (bi, &bs) in block_sizes.iter().enumerate() {
        let methods = build_all_methods(&net, bs, None, false, codec);
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
    println!("{}", render_table(&header, &rows));

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
    println!("shape checks:");
    for (label, ok) in checks {
        println!("  [{}] {label}", if ok { "ok" } else { "MISS" });
    }
}
