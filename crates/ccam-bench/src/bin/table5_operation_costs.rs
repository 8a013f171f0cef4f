//! Table 5 — I/O cost per network operation ([`ccam_bench::paper::table5`]).

fn main() {
    ccam_bench::paper::main("table5_operation_costs", ccam_bench::paper::table5);
}
