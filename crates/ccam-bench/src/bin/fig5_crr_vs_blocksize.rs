//! Figure 5 — CRR vs disk block size ([`ccam_bench::paper::fig5`]).

fn main() {
    ccam_bench::paper::main("fig5_crr_vs_blocksize", ccam_bench::paper::fig5);
}
