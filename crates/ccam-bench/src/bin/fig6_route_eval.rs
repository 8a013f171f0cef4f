//! Figure 6 — route-evaluation I/O vs route length ([`ccam_bench::paper::fig6`]).

fn main() {
    ccam_bench::paper::main("fig6_route_eval", ccam_bench::paper::fig6);
}
