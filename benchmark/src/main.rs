//! Command-line entry of the benchmark ledger.
//!
//! ```text
//! ccam-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--quick] [--grid <side>] [--out-dir <dir>]
//!                [--repeat <n> [--check-spread]]
//! ```
//!
//! Prints a readable summary and then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero when the run could not be made.

use std::path::PathBuf;
use std::process::ExitCode;

use ccam_benchmark::spec::{Spec, Workload};
use ccam_benchmark::{spread, RunArgs};

struct Cli {
    workload: Workload,
    run: RunArgs,
    quick: bool,
    grid: Option<u32>,
    repeat: Option<usize>,
    check_spread: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut workload = None;
    let mut cli = Cli {
        workload: Workload::ServeHot,
        run: RunArgs {
            seed: 1,
            seconds: 10.0,
            traced: false,
            // Relative to the checkout root the command is run from:
            // everything written stays inside the benchmark's directory.
            out_dir: PathBuf::from("benchmark/out"),
        },
        quick: false,
        grid: None,
        repeat: None,
        check_spread: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => cli.run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cli.run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => cli.quick = true,
            "--grid" => cli.grid = Some(value()?.parse().map_err(|e| format!("--grid: {e}"))?),
            "--out-dir" => cli.run.out_dir = PathBuf::from(value()?),
            "--repeat" => {
                cli.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            "--check-spread" => cli.check_spread = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    cli.workload = workload.ok_or("--workload is required")?;
    if !(cli.run.seconds.is_finite() && cli.run.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(cli)
}

fn real_main() -> Result<ExitCode, String> {
    let cli = parse_cli()?;
    let name = cli.workload.name();
    if let Some(repeat) = cli.repeat {
        let quiet = spread::repeat(
            name,
            cli.run.seed,
            cli.run.seconds,
            repeat,
            &cli.run.out_dir,
        )?;
        return Ok(if quiet || !cli.check_spread {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let spec = Spec::of(cli.workload, cli.quick, cli.grid);
    let outcome = ccam_benchmark::run(&spec, &cli.run)?;
    println!("{}", outcome.summary(name, cli.run.seed, cli.run.traced)?);
    println!("{}", outcome.result_line(cli.run.traced)?);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ccam-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
