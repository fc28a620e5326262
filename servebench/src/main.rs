//! `servebench`: the SpeakQL serving benchmark.
//!
//! ```text
//! servebench --workload dictation|batch|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `README.md` in this directory.

#![forbid(unsafe_code)]

mod fleet;
mod inputs;
mod modes;
mod run;
mod stats;
mod trace;
mod verify;

use modes::Outcome;
use run::Workload;
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The result line: every metric with all its digits.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, path] = argv.as_slice() {
        if flag == fleet::BUILD_IMAGE_FLAG {
            return match fleet::build_image(std::path::Path::new(path)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("servebench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\nusage: servebench --workload dictation|batch|churn --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        modes::traced(args.workload, args.seed, args.seconds)
    } else {
        modes::untraced(args.workload, args.seed, args.seconds)
    };
    match outcome {
        Ok(outcome) => {
            print!("{}", outcome.report);
            println!("{}", result_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modes::{Metric, END_TO_END, PER_LAYER};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a =
            parse_args(&args("--workload churn --seed 3 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Churn, 3, 10.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload batch --seconds 10")).is_err());
        assert!(parse_args(&args("--workload batch --seed 1 --seconds 0")).is_err());
    }

    /// Every declared metric is printed with its declared unit, and the
    /// result line is one JSON object with the four keys.
    #[test]
    fn every_named_metric_is_printed_with_its_unit() {
        for (mode, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let metrics: Vec<Metric> = declared
                .iter()
                .enumerate()
                .map(|(i, d)| Metric::new(d.name, 1.5 + i as f64))
                .collect();
            let outcome = Outcome {
                correct: true,
                attempted: 10,
                failed: 0,
                metrics,
                report: String::new(),
            };
            let line = result_line(&outcome);
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"
            ));
            for d in declared {
                let needle = format!("\"{}\": {{\"value\": ", d.name);
                assert!(line.contains(&needle), "{mode}: {} missing", d.name);
                let unit = format!("\"unit\": \"{}\"", d.unit);
                assert!(line.contains(&unit), "{mode}: unit of {} missing", d.name);
            }
        }
    }

    #[test]
    fn declared_metrics_match_the_benchmark_file() {
        let file = include_str!("../../BENCHMARK.json");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(
                file.contains(&entry),
                "{} is not declared as in BENCHMARK.json",
                d.name
            );
        }
    }
}
