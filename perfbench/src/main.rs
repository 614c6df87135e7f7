//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints each metric with its unit, then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and the
//! `metrics` (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Exits 1 when any round disagreed with the generator's answer key.

use perfbench::bench::{run, Config, Metric};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <edit-10k|restart-10k|claims-deep> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

/// The metrics as a JSON object; a value that is not a finite number is
/// written as `null`.
fn json_metrics(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn main() -> ExitCode {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        small: false,
        work_dir: PathBuf::from("perfbench/.run"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                cfg.workload = value;
                true
            }
            "--seed" => value.parse().map(|v| cfg.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| cfg.seconds = v).is_ok(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    cfg.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value for {flag}"));
        }
    }
    if cfg.workload.is_empty() {
        return usage("--workload is required");
    }

    let outcome = match run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} ({} worker threads, {} s measured loop)",
        cfg.workload, cfg.seed, jobs, cfg.seconds
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<28} {:>16.6} ratio ({} of {} rounds failed)",
        "failed_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for problem in &outcome.problems {
        eprintln!("MISMATCH {problem}");
    }
    let metrics = if cfg.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    // A metric that could not be measured fails the run like a mismatch.
    let unmeasured = metrics.iter().filter(|m| !m.value.is_finite()).count() as u64;
    if unmeasured > 0 {
        eprintln!("perfbench: {unmeasured} metric(s) could not be measured");
    }
    let failed = outcome.failed + unmeasured;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        outcome.attempted.max(1),
        failed,
        json_metrics(metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
