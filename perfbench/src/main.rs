//! Command-line entry point of the benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload range-intersects --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints the work fingerprint and a metric table, then, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (whose spans are
//! also written to `perfbench/out/`). A result that differs from its
//! reference prints `"correct": false` and exits non-zero. The run exits
//! non-zero without a result when the environment would change the
//! program or the writer of `serve-churn` fell behind.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::metrics::json_line;
use perfbench::{check, run, RunConfig, Scale, Workload};

const USAGE: &str =
    "usage: perfbench --workload <range-intersects|point-contains|serve-churn|airspace-3d> \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse() -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: Workload::RangeIntersects,
        seed: 1,
        seconds: 20,
        trace: false,
        scale: Scale::Full,
        corrupt_checksum: false,
        span_file: None,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or(format!("unknown workload {value:?}\n{USAGE}"))?,
                )
            }
            "--seed" => cfg.seed = number()?,
            "--seconds" => cfg.seconds = number()?.max(1),
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    cfg.workload = workload.ok_or(USAGE.to_string())?;
    if cfg.trace {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        cfg.span_file = Some(dir.join(format!("spans-{}-{}.jsonl", cfg.workload, cfg.seed)));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let result = parse().and_then(|cfg| {
        check::env_guard()?;
        let outcome = run(&cfg)?;
        let line = json_line(&outcome)?;
        Ok((outcome, line))
    });
    match result {
        Ok((outcome, line)) => {
            for l in &outcome.lines {
                println!("{l}");
            }
            println!("{line}");
            match &outcome.mismatch {
                Some(m) => {
                    eprintln!("perfbench: {m}");
                    ExitCode::FAILURE
                }
                None => ExitCode::SUCCESS,
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
