//! Rounds: the unit every timing metric is a median over.
//!
//! A run makes one untimed warm-up round, then at least
//! [`crate::spec::MIN_ROUNDS`] measured rounds of equal, pre-generated
//! request lists, and keeps adding equal rounds while `--seconds`
//! lasts. A round holds reads and writes, timed apart (see the
//! workloads for why they alternate). Each timing metric is the median
//! of the per-round values (rate = requests in the round / round wall
//! time; percentiles are taken inside a round), so a neighbour's burst
//! spoils one round, not the run. Every time is the wall clock's, as
//! measured.

use std::time::Instant;

use crate::report::Outcome;
use crate::setup::{median_of, Res, SetupTimes};
use crate::stats::{median, percentile};

/// What one round of one kind of request measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Requests answered in the round.
    pub ops: u64,
    /// Wall time of the round in seconds.
    pub wall_s: f64,
    /// One latency per batch (or per call) in microseconds.
    pub lat_us: Vec<f64>,
}

/// Runs `round(0)` as the warm-up, then `round(1)`, `round(2)`, … until
/// at least `min_rounds` are done and the next one would not fit in
/// `budget_s`. Returns the measured rounds' results.
pub fn run_rounds<T>(
    budget_s: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> Res<T>,
) -> Res<Vec<T>> {
    round(0)?;
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(round(out.len() + 1)?);
        let elapsed = start.elapsed().as_secs_f64();
        let next_ends = elapsed + elapsed / out.len() as f64;
        if out.len() >= min_rounds && next_ends > budget_s {
            return Ok(out);
        }
    }
}

/// Median over rounds of requests per second.
pub fn ops_per_s(rounds: &[Round]) -> f64 {
    median(
        &rounds
            .iter()
            .map(|r| r.ops as f64 / r.wall_s)
            .collect::<Vec<_>>(),
    )
}

/// Median over rounds of the within-round latency percentile `p`.
pub fn latency_us(rounds: &[Round], p: f64) -> f64 {
    median(
        &rounds
            .iter()
            .map(|r| percentile(&r.lat_us, p))
            .collect::<Vec<_>>(),
    )
}

/// Records the six timing metrics of a run.
pub fn record_timings(out: &mut Outcome, setups: &[SetupTimes], reads: &[Round], writes: &[Round]) {
    let e = &mut out.end_to_end;
    e.set("setup_s", median_of(setups, |t| t.total_s));
    e.set("read_ops_per_s", ops_per_s(reads));
    e.set("read_lat_p50_us", latency_us(reads, 0.50));
    e.set("read_lat_p95_us", latency_us(reads, 0.95));
    e.set("write_ops_per_s", ops_per_s(writes));
    e.set("write_lat_p50_us", latency_us(writes, 0.50));
}

/// Read counts fixed at the end of the warm-up plus
/// [`crate::spec::MIN_ROUNDS`] rounds, so they do not depend on how
/// many extra rounds the machine's speed allowed.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedReads {
    /// Physical data-page reads since the pool was cold.
    pub physical_reads: u64,
    /// Read requests answered.
    pub ops: u64,
}

/// Write counts fixed at the same point. Nothing is done to the
/// database to take them: the rounds after this point run against the
/// same log state as the ones before.
#[derive(Debug, Clone, Copy)]
pub struct FixedWrites {
    /// Log bytes appended since the first round began.
    pub wal_bytes: u64,
    /// Writes committed.
    pub writes: u64,
    /// `VmHWM` at that point: later rounds only add latency samples.
    pub rss_peak_mb: f64,
}

/// Records the count metrics and `rss_peak_mb` of a run. `space_bytes`
/// is what the freshly set-up database takes on disk.
pub fn record_counts(
    out: &mut Outcome,
    reads: FixedReads,
    writes: FixedWrites,
    space_bytes: u64,
    nodes: usize,
) {
    let e = &mut out.end_to_end;
    e.set(
        "pages_per_read_op",
        reads.physical_reads as f64 / reads.ops as f64,
    );
    e.set(
        "write_bytes_per_upsert",
        writes.wal_bytes as f64 / writes.writes as f64,
    );
    e.set("space_bytes_per_node", space_bytes as f64 / nodes as f64);
    e.set("rss_peak_mb", writes.rss_peak_mb);
}

/// Median over rounds of the seconds one request took (what a traced
/// round is compared with).
pub fn seconds_per_request(rounds: &[Round]) -> f64 {
    1.0 / ops_per_s(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_up_is_discarded_and_minimum_is_kept() {
        let mut seen = Vec::new();
        let out = run_rounds(0.0, 5, |r| {
            seen.push(r);
            Ok(r)
        })
        .unwrap();
        assert_eq!(seen, [0, 1, 2, 3, 4, 5]);
        assert_eq!(out, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn budget_adds_rounds_beyond_the_minimum() {
        let out = run_rounds(0.05, 2, |r| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            Ok(r)
        })
        .unwrap();
        assert!(out.len() > 2, "only {} rounds in a 50 ms budget", out.len());
    }

    #[test]
    fn medians_are_taken_over_rounds() {
        let rounds: Vec<Round> = [1.0, 2.0, 4.0]
            .iter()
            .map(|&w| Round {
                ops: 100,
                wall_s: w,
                lat_us: vec![w, 10.0 * w],
            })
            .collect();
        assert_eq!(ops_per_s(&rounds), 50.0);
        assert_eq!(latency_us(&rounds, 1.0), 20.0);
        assert_eq!(seconds_per_request(&rounds), 0.02);
    }
}
