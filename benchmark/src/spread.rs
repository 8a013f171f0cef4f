//! `--repeat N [--check-spread]`: run one workload N times, each time
//! with another seed, and report how far identical code disagrees with
//! itself — per metric the median, the quartiles, the interquartile
//! range as a share of the median, and the two halves of the runs side
//! by side. With `--check-spread` the exit code is non-zero when the
//! halves' medians differ by more than half the metric's bound, or when
//! the interquartile range is wider than the bound (`setup_s` is exempt
//! from the second rule: it is a median of few, short set-ups).

use std::path::Path;
use std::process::Command;

use crate::json::{self, Value};
use crate::report::END_TO_END;
use crate::setup::{Ctx, Res};
use crate::stats::{median, quartiles, relative_iqr};

/// Runs this executable once as a child and returns its result line.
fn run_child(workload: &str, seed: u64, seconds: f64, out_dir: &Path) -> Res<Value> {
    let exe = std::env::current_exe().ctx("locate own executable")?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .ctx("spawn child run")?;
    if !output.status.success() {
        return Err(format!(
            "child run (seed {seed}) failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or("child printed no result line")?;
    let result = json::parse(line).ctx("parse child result")?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("run with seed {seed} was not correct"));
    }
    Ok(result)
}

/// The value of metric `name` in a run's result line.
fn value_of(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `name -> bound` for the end-to-end metrics, from the `BENCHMARK.json`
/// in the directory the command is run from (the repository root).
fn read_bounds() -> Res<Vec<(String, f64)>> {
    let text = std::fs::read_to_string("BENCHMARK.json").ctx("read BENCHMARK.json")?;
    let doc = json::parse(&text).ctx("parse BENCHMARK.json")?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "metric without a name or a bound".to_string())
        })
        .collect()
}

/// Runs `workload` `repeat` times with seeds `seed..seed + repeat`,
/// prints the spread tables (Markdown), and returns whether every metric
/// repeated within its bound (see the module docs for the two rules).
pub fn repeat(workload: &str, seed: u64, seconds: f64, repeat: usize, out_dir: &Path) -> Res<bool> {
    if repeat < 4 {
        return Err("--repeat needs at least 4 runs to have two halves with quartiles".into());
    }
    let bounds = read_bounds()?;
    let mut runs = Vec::with_capacity(repeat);
    for i in 0..repeat {
        runs.push(run_child(workload, seed + i as u64, seconds, out_dir)?);
        eprintln!("  {workload}: run {}/{repeat} done", i + 1);
    }
    println!(
        "### {workload} — {repeat} runs, seeds {seed}..{}, {seconds} s each\n",
        seed + repeat as u64 - 1
    );
    println!("| metric | unit | median | q1 | q3 | IQR/median | bound | range/median | first half | second half | halves differ | allowed | |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|---|");
    let mut all_ok = true;
    let mut every_run = String::new();
    for (name, unit) in END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .map(|r| value_of(r, name))
            .collect::<Option<_>>()
            .ok_or_else(|| format!("a run did not report {name}"))?;
        let bound = bounds
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| *b)
            .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))?;
        let [q1, q2, q3] = quartiles(&values);
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let (first, second) = values.split_at(values.len() / 2);
        let (a, b) = (median(first), median(second));
        let differ = (a - b).abs() / a.abs();
        let iqr = relative_iqr(&values);
        let ok = differ <= bound / 2.0 && (iqr <= bound || name == "setup_s");
        all_ok &= ok;
        println!(
            "| {name} | {unit} | {q2:.6} | {q1:.6} | {q3:.6} | {iqr:.4} | {bound:.4} | {:.4} | {a:.6} | {b:.6} | {differ:.4} | {:.4} | {} |",
            (hi - lo) / q2.abs(),
            bound / 2.0,
            if ok { "ok" } else { "NOISY" }
        );
        let listed: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
        every_run.push_str(&format!("| {name} | {} |\n", listed.join(" | ")));
    }
    println!("\nEvery run, in the order made:\n");
    let seeds: Vec<String> = (0..repeat)
        .map(|i| format!("seed {}", seed + i as u64))
        .collect();
    println!("| metric | {} |", seeds.join(" | "));
    println!("|---|{}", "---|".repeat(repeat));
    println!("{every_run}");
    Ok(all_ok)
}
