#![warn(missing_docs)]

//! The repository's benchmark ledger.
//!
//! Four workloads, eleven end-to-end metrics with the same names on
//! every workload, and per-layer metrics taken from outside the crates:
//! by timing calls into their public functions and by differencing their
//! `IoStats` / `WalInfo` / `MetricsRegistry` counters. See `README.md`
//! beside this package for what each workload stresses and which
//! end-to-end metric each layer metric is expected to move.

pub mod check;
pub mod embedded;
pub mod json;
pub mod layers;
pub mod ops;
pub mod report;
pub mod rounds;
pub mod serve;
mod serve_trace;
pub mod setup;
pub mod spec;
pub mod spread;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

use report::Outcome;
use spec::{Spec, Workload};

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed of the request lists.
    pub seed: u64,
    /// Seconds of measured rounds (beyond the fixed minimum).
    pub seconds: f64,
    /// Traced run: per-layer metrics and the span file.
    pub traced: bool,
    /// Directory for the database files and the span file; everything
    /// the benchmark writes lands here.
    pub out_dir: PathBuf,
}

impl RunArgs {
    /// Seconds for the untraced rounds: a traced run spends half its
    /// time on them (the overhead ratio is taken against them) and the
    /// rest on the traced rounds and the probes.
    pub fn untraced_seconds(&self) -> f64 {
        if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Runs `workload` once.
pub fn run(spec: &Spec, args: &RunArgs) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    match spec.workload {
        Workload::EmbeddedOps => embedded::run(spec, args),
        _ => serve::run(spec, args),
    }
}
