//! Experiment harness for the CCAM reproduction.
//!
//! One binary per table/figure of the paper's evaluation (§4), then the
//! ablations and the harnesses CI runs:
//!
//! | binary | artifact |
//! |--------|----------|
//! | `fig5_crr_vs_blocksize`   | Figure 5 — CRR vs disk block size |
//! | `table5_operation_costs`  | Table 5 — I/O cost per network operation, actual vs predicted |
//! | `fig6_route_eval`         | Figure 6 — route-evaluation I/O vs route length |
//! | `fig7_reorg_policies`     | Figure 7 — reorganization policies: I/O cost and CRR under insertion |
//! | `ablation_partitioners`   | extra — CRR per partitioning heuristic (ratio cut, FM, KL) |
//! | `ablation_buffer`         | extra — route-evaluation I/O vs buffer size |
//! | `ablation_policies_extended` | extra — edge-argument policies and lazy thresholds |
//! | `ablation_index_cost`     | extra — secondary-index page accesses vs index buffer |
//! | `ablation_workloads`      | extra — random walks vs commuter shortest paths |
//! | `scaling`                 | extra — CRR and route I/O vs network size |
//! | `validate_costmodel`      | extra — §3.2 cost-model predictions vs observed I/O per operation class |
//! | `run_all`                 | every experiment above in one report (`experiments_report.txt`) |
//! | `perf_hotpaths`           | clustering throughput, byte-identity across threads, commit ratio (CI bench-smoke) |
//! | `build_scale`             | flat vs multilevel clustering at scale (CI build-scale-smoke) |
//! | `reorg_stall`             | reader p99 while a writer reorganizes (CI bench-smoke) |
//! | `chaos_serve`             | seeded fault-injection harness for the server (CI chaos-smoke) |
//! | `repl_chaos`              | seeded chaos harness for replication (CI repl-smoke) |
//!
//! Serving throughput and per-layer timings are the benchmark ledger's
//! (`benchmark/`). The library part hosts the shared plumbing: building
//! every access method over the benchmark road map, per-operation I/O
//! measurement, flag parsing and plain-text table rendering.

pub mod harness;

pub use harness::*;
