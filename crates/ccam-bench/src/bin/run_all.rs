//! Runs every experiment binary in sequence and writes a combined
//! report — the one-command regeneration of EXPERIMENTS.md's data.
//!
//! ```sh
//! cargo run --release -p ccam-bench --bin run_all [report.txt]
//! ```

use std::io::Write;
use std::process::Command;

const BINARIES: &[&str] = &[
    "fig5_crr_vs_blocksize",
    "table5_operation_costs",
    "fig6_route_eval",
    "fig7_reorg_policies",
    "ablation_partitioners",
    "ablation_buffer",
    "ablation_policies_extended",
    "ablation_index_cost",
    "ablation_workloads",
    "scaling",
];

fn main() {
    let out_path = std::env::args().nth(1);
    let mut combined = String::new();
    let mut failures = Vec::new();

    for bin in BINARIES {
        eprintln!("== running {bin} ...");
        // Experiment binaries live next to this one in the target dir.
        let exe = std::env::current_exe().expect("own path");
        let exe = exe.parent().expect("bin dir").join(bin);
        let output = Command::new(&exe).output().unwrap_or_else(|e| {
            panic!("spawn {bin}: {e} (run `cargo build --release -p ccam-bench` first)")
        });
        let text = String::from_utf8_lossy(&output.stdout);
        combined.push_str(&ccam_bench::paper::section_header(bin));
        combined.push_str(&text);
        combined.push('\n');
        if !output.status.success() {
            failures.push(*bin);
        }
        let misses = text.lines().filter(|l| l.contains("[MISS]")).count();
        if misses > 0 {
            failures.push(*bin);
            eprintln!("   {misses} shape check(s) MISSED");
        }
    }

    match out_path {
        Some(path) => {
            let mut f = std::fs::File::create(&path).expect("create report");
            f.write_all(combined.as_bytes()).expect("write report");
            eprintln!("report written to {path}");
        }
        None => print!("{combined}"),
    }

    if failures.is_empty() {
        eprintln!(
            "all {} experiments completed; every shape check passed",
            BINARIES.len()
        );
    } else {
        eprintln!("FAILURES: {failures:?}");
        std::process::exit(1);
    }
}
