//! Figure 7 — reorganization policies under insertion ([`ccam_bench::paper::fig7`]).

fn main() {
    ccam_bench::paper::main("fig7_reorg_policies", ccam_bench::paper::fig7);
}
