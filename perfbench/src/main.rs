//! `perfbench` — the open-loop socket-to-store benchmark of the Flock
//! online pipeline. See `perfbench/README.md` for the metrics and the
//! workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <uniform-churn|pareto-fanin|rpc-ingest|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero when any check fails. `serve` as the first argument runs
//! the serving role the load generator starts for itself.

mod fixture;
mod loadgen;
mod procfs;
mod replay;
mod serve;
mod stats;

use loadgen::{Metric, RunArgs};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("serve") {
        serve_main(&args[1..])
    } else {
        drive_main(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let pairs = args.chunks_exact(2);
    if !pairs.remainder().is_empty() {
        return Err(format!("expected `--flag value` pairs, got {args:?}"));
    }
    pairs
        .map(|p| match p[0].strip_prefix("--") {
            Some(name) => Ok((name, p[1].as_str())),
            None => Err(format!("unexpected argument `{}`", p[0])),
        })
        .collect()
}

fn serve_main(args: &[String]) -> Result<bool, String> {
    let (mut workload, mut store) = (None, None);
    for (name, value) in flags(args)? {
        match name {
            "workload" => workload = Some(value),
            "store" => store = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown serve flag --{name}")),
        }
    }
    let w = workload
        .and_then(fixture::workload)
        .ok_or("serve needs a known --workload")?;
    serve::serve(w, &store.ok_or("serve needs --store")?)?;
    Ok(true)
}

fn drive_main(args: &[String]) -> Result<bool, String> {
    let mut workload = None;
    let mut run = RunArgs {
        seed: 1,
        seconds: 10,
        trace: false,
    };
    for (name, value) in flags(args)? {
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("--{name} needs a number"))
        };
        match name {
            "workload" => workload = Some(value.to_string()),
            "seed" => run.seed = num()?,
            "seconds" => run.seconds = num()?.max(1),
            "trace" => run.trace = num()? == 1,
            _ => return Err(format!("unknown flag --{name}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let selected: Vec<_> = if workload == "all" {
        fixture::WORKLOADS.iter().collect()
    } else {
        vec![fixture::workload(&workload).ok_or_else(|| {
            let names: Vec<_> = fixture::WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload `{workload}` (known: {}, all)",
                names.join(", ")
            )
        })?]
    };

    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for w in &selected {
        let out = loadgen::run(w, &run)?;
        correct &= out.correct;
        attempted += out.attempted;
        failed += out.failed;
        let prefix = if selected.len() > 1 {
            format!("{}.", w.name)
        } else {
            String::new()
        };
        for Metric { name, value, unit } in out.metrics {
            metrics.push((format!("{prefix}{name}"), value, unit));
        }
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct && failed == 0)
}

/// The result line: every value with all its digits.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        // JSON has no NaN; the run has already failed a check for it.
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
