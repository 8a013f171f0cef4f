//! A CI-gating harness given a flag without a value, or with one it
//! cannot parse, exits 2 and names the flag before doing any work.

use std::process::{Command, Output};

/// Each harness with its number flags and its other value-taking flags.
const HARNESSES: [(&str, &str, &str); 5] = [
    (
        env!("CARGO_BIN_EXE_build_scale"),
        "--nodes --block --routes --min-speedup",
        "--out",
    ),
    (
        env!("CARGO_BIN_EXE_perf_hotpaths"),
        "--grid --block",
        "--out --check-baseline",
    ),
    (
        env!("CARGO_BIN_EXE_reorg_stall"),
        "--seconds --readers --seed --max-ratio --floor-us",
        "--out",
    ),
    (
        env!("CARGO_BIN_EXE_chaos_serve"),
        "--seconds --seed --connections --batch --workers --max-p99-us",
        "--out",
    ),
    (
        env!("CARGO_BIN_EXE_repl_chaos"),
        "--seed --phase-ms --max-catchup-ms --write-error-budget",
        "--out",
    ),
];

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let Output { status, stderr, .. } = Command::new(bin).args(args).output().expect("spawn");
    (status.code(), String::from_utf8_lossy(&stderr).into_owned())
}

#[test]
fn a_missing_flag_value_exits_2_naming_the_flag() {
    for (bin, numbers, others) in HARNESSES {
        for flag in numbers.split(' ').chain(others.split(' ')) {
            let (code, err) = run(bin, &[flag]);
            assert_eq!(code, Some(2), "{bin} {flag}: {err}");
            assert!(err.contains(&format!("{flag}: missing value")), "{err}");
        }
    }
}

#[test]
fn a_malformed_flag_value_exits_2_naming_flag_and_value() {
    for (bin, numbers, _) in HARNESSES {
        for flag in numbers.split(' ') {
            let (code, err) = run(bin, &[flag, "many"]);
            assert_eq!(code, Some(2), "{bin} {flag} many: {err}");
            let named = format!("{flag}: cannot parse \"many\"");
            assert!(err.contains(&named), "{err}");
        }
    }
}

/// Every paper figure takes `--codec`; an unknown codec, a missing
/// value or a stray argument exits 2 before any figure is computed.
#[test]
fn a_paper_figure_refuses_an_unknown_codec() {
    for bin in [
        env!("CARGO_BIN_EXE_fig5_crr_vs_blocksize"),
        env!("CARGO_BIN_EXE_fig6_route_eval"),
        env!("CARGO_BIN_EXE_table5_operation_costs"),
        env!("CARGO_BIN_EXE_fig7_reorg_policies"),
    ] {
        let (code, err) = run(bin, &["--codec", "dense"]);
        assert_eq!(code, Some(2), "{bin}: {err}");
        assert!(err.contains("--codec: cannot parse \"dense\""), "{err}");
        let (code, err) = run(bin, &["--codec"]);
        assert_eq!(code, Some(2), "{bin}: {err}");
        assert!(err.contains("--codec: missing value"), "{err}");
        let (code, err) = run(bin, &["--block", "512"]);
        assert_eq!(code, Some(2), "{bin}: {err}");
        assert!(err.contains("unknown flag --block"), "{err}");
    }
}
