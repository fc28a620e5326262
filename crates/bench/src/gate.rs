//! Baseline gates: one definition of "regressed" for the bench binaries.
//!
//! `perf_snapshot`, `load_gen`, `scale_curve` and `delta_churn` each write a
//! JSON snapshot and, under `--check BASELINE`, judge it against a committed
//! baseline. Each declares how as one [`Gate`]: a [`Rule`] per named
//! counter, one rule for every other counter (or none), and a rule per other
//! metric, named by its dotted JSON path. [`Gate::check`] prints one row per
//! metric. A metric missing on either side fails, except under
//! [`Rule::Info`], and [`Rule::True`] reads only the current run.
//!
//! In-run invariants (output identity, speedup and reuse floors) judge one
//! run rather than a baseline, so they stay with each workload and reach
//! [`Gate::finish`] as its `pass` flag. The module also holds the argument
//! and date plumbing the binaries share: [`take_flag`] and [`today_utc`].

use serde_json::{Number, Value};
use std::collections::BTreeSet;
use std::process::ExitCode;

/// How one metric is judged against its baseline value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// An unsigned integer equal to the baseline.
    Exact,
    /// An unsigned integer no higher than the baseline and at most `floor`
    /// times below it. A larger drop means the workload or the algorithm
    /// changed under the baseline, which must then be regenerated.
    Ratchet {
        /// Largest accepted improvement factor.
        floor: u64,
    },
    /// A measurement that fails above `baseline * (1 + tol) + grace`. Lower
    /// values pass, unless `floor` is set and the value is more than
    /// `floor` times below the baseline.
    Band {
        /// Tolerance above the baseline, as a fraction of it.
        tol: f64,
        /// Absolute slack on top of `tol`, in the metric's unit.
        grace: f64,
        /// Largest accepted improvement factor, if any.
        floor: Option<f64>,
    },
    /// A rate within `max` of the baseline, on either side.
    Points {
        /// Largest accepted absolute difference.
        max: f64,
    },
    /// A boolean that is `true` in the current run; the baseline is not read.
    True,
    /// Shown beside the judged metrics, never judged.
    Info,
}

impl Rule {
    /// Judge `current` against `baseline`: `Ok` with a status note when the
    /// metric passes, `Err` with the reason when it fails. `Exact` and
    /// `Ratchet` read unsigned integers, `Band` and `Points` any number.
    fn judge(self, baseline: Option<&Value>, current: Option<&Value>) -> Result<String, String> {
        let ints = baseline
            .and_then(Value::as_u64)
            .zip(current.and_then(Value::as_u64));
        let nums = baseline
            .and_then(Value::as_f64)
            .zip(current.and_then(Value::as_f64));
        let missing = || Err("MISSING".to_string());
        match self {
            Rule::Info => Ok("info".to_string()),
            Rule::True if matches!(current, Some(Value::Bool(true))) => Ok("ok".to_string()),
            Rule::True => Err("FAIL".to_string()),
            Rule::Exact => match ints {
                None => missing(),
                Some((b, c)) if b == c => Ok("ok".to_string()),
                Some(_) => Err("MISMATCH".to_string()),
            },
            Rule::Ratchet { floor } => match ints {
                None => missing(),
                Some((b, c)) if c > b => Err(regression(b as f64, c as f64)),
                Some((b, c)) if c.saturating_mul(floor) < b => Err(drift(b as f64, c as f64)),
                Some((b, c)) => Ok(format!("ok ({}, ratchet band)", change(b as f64, c as f64))),
            },
            Rule::Band { tol, grace, floor } => match nums {
                None => missing(),
                Some((b, c)) if c > b * (1.0 + tol) + grace => Err(regression(b, c)),
                Some((b, c)) if floor.is_some_and(|f| c * f < b) => Err(drift(b, c)),
                Some((b, c)) => Ok(format!("ok ({})", change(b, c))),
            },
            Rule::Points { max } => match nums {
                None => missing(),
                Some((b, c)) if (c - b).abs() <= max => {
                    Ok(format!("ok ({:+.0} points)", (c - b) * 100.0))
                }
                Some((b, c)) => Err(format!("REGRESSION ({:+.0} points)", (c - b) * 100.0)),
            },
        }
    }
}

/// Relative change from `b` to `c`, as a signed percentage.
fn change(b: f64, c: f64) -> String {
    format!("{:+.0}%", (c / b - 1.0) * 100.0)
}

fn regression(b: f64, c: f64) -> String {
    format!("REGRESSION ({})", change(b, c))
}

fn drift(b: f64, c: f64) -> String {
    format!("DRIFT ({:.0}x below baseline; refresh it)", b / c)
}

/// The baseline rules of one bench binary's snapshot.
#[derive(Debug)]
pub struct Gate {
    /// The binary's name, for messages and the regenerate hint.
    pub bin: &'static str,
    /// Rules for named keys of the snapshot's `counters` object.
    pub counters: &'static [(&'static str, Rule)],
    /// The rule for every other counter in either file; `None` skips them.
    pub other_counters: Option<Rule>,
    /// Rules for other metrics, by dotted JSON path.
    pub fields: &'static [(&'static str, Rule)],
}

impl Gate {
    /// Judge `current` against `baseline`, print one row per metric, and
    /// return how many metrics failed.
    pub fn check(&self, baseline: &Value, current: &Value) -> usize {
        let mut names: BTreeSet<&str> = self.counters.iter().map(|&(name, _)| name).collect();
        if self.other_counters.is_some() {
            for snapshot in [baseline, current] {
                if let Some(map) = snapshot.get("counters").and_then(Value::as_object) {
                    names.extend(map.keys().map(String::as_str));
                }
            }
        }
        let counter_rows = names.into_iter().filter_map(|name| {
            let named = self.counters.iter().find(|&&(n, _)| n == name);
            let rule = named.map(|&(_, rule)| rule).or(self.other_counters)?;
            Some((name, rule, counter(baseline, name), counter(current, name)))
        });
        let field_rows = self
            .fields
            .iter()
            .map(|&(path, rule)| (path, rule, field(baseline, path), field(current, path)));

        println!(
            "{:<34} {:>16} {:>16}  status",
            "metric", "baseline", "current"
        );
        let mut failures = 0;
        for (name, rule, base, cur) in counter_rows.chain(field_rows) {
            let status = rule.judge(base, cur).unwrap_or_else(|reason| {
                failures += 1;
                reason
            });
            println!("{name:<34} {:>16} {:>16}  {status}", show(base), show(cur));
        }
        failures
    }

    /// Write `snapshot` to `out` and, given a baseline path in `check`,
    /// judge the snapshot against that baseline. The exit code fails when
    /// the snapshot cannot be written, the run's own invariants failed
    /// (`pass` is false), the baseline cannot be read, or a metric broke
    /// its rule.
    pub fn finish(&self, snapshot: &Value, pass: bool, out: &str, check: Option<&str>) -> ExitCode {
        let bin = self.bin;
        let written = serde_json::to_string_pretty(snapshot)
            .map_err(|e| e.to_string())
            .and_then(|text| std::fs::write(out, text).map_err(|e| e.to_string()));
        if let Err(e) = written {
            eprintln!("[{bin}] error writing {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[{bin}] wrote {out}");

        let mut ok = pass;
        if let Some(path) = check {
            match read_json(path) {
                Ok(baseline) => {
                    let failures = self.check(&baseline, snapshot);
                    if failures == 0 {
                        eprintln!("\n[{bin}] PASS: every metric within its rule vs {path}.");
                    } else {
                        eprintln!(
                            "\n[{bin}] FAIL: {failures} metric(s) regressed vs {path}. \
                             If the change is intentional, regenerate the baseline with \
                             `cargo run --release -p speakql-bench --bin {bin} -- --out {path}`."
                        );
                        ok = false;
                    }
                }
                Err(e) => {
                    eprintln!("[{bin}] error reading baseline {path}: {e}");
                    ok = false;
                }
            }
        }
        if !pass {
            eprintln!("[{bin}] FAIL: in-run invariant violated (see above)");
        }
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// A counter of `snapshot`. Counter names contain dots, so they are keys of
/// the `counters` object, not paths.
fn counter<'a>(snapshot: &'a Value, name: &str) -> Option<&'a Value> {
    snapshot.get("counters")?.get(name)
}

/// The value at a dotted JSON `path` of `snapshot`.
pub(crate) fn field<'a>(snapshot: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(snapshot, |v, key| v.get(key))
}

/// A metric as a table cell.
fn show(v: Option<&Value>) -> String {
    match v {
        None => "-".to_string(),
        Some(Value::Number(Number::F64(x))) => format!("{x:.2}"),
        Some(Value::Number(Number::U64(n))) => n.to_string(),
        Some(Value::Number(Number::I64(n))) => n.to_string(),
        Some(Value::Bool(b)) => b.to_string(),
        Some(_) => "?".to_string(),
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    serde_json::from_str(&text).map_err(|e| e.to_string())
}

/// Split off a `--flag value` pair from free-form args.
pub fn take_flag(args: &[String], flag: &str) -> (Vec<String>, Option<String>) {
    let mut rest = Vec::new();
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag && i + 1 < args.len() {
            value = Some(args[i + 1].clone());
            i += 2;
        } else {
            rest.push(args[i].clone());
            i += 1;
        }
    }
    (rest, value)
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days; no chrono dependency).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days algorithm.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn passes(rule: Rule, baseline: Option<Value>, current: Option<Value>) -> bool {
        rule.judge(baseline.as_ref(), current.as_ref()).is_ok()
    }

    /// The next `f64` above a positive `x`.
    fn above(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    /// The next `f64` below a positive `x`.
    fn below(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn exact_passes_only_equal_integers() {
        for (b, c, pass) in [
            (7u64, 7u64, true),
            (7, 8, false),
            (7, 6, false),
            (0, 0, true),
        ] {
            assert_eq!(
                passes(Rule::Exact, Some(json!(b)), Some(json!(c))),
                pass,
                "{b} -> {c}"
            );
        }
        // A fractional value is not a counter.
        assert!(!passes(Rule::Exact, Some(json!(7)), Some(json!(7.5))));
    }

    #[test]
    fn ratchet_fails_above_baseline_and_past_its_floor() {
        let rule = Rule::Ratchet { floor: 10 };
        for (b, c, pass) in [
            (1000u64, 1000u64, true),
            (1000, 1001, false),
            (1000, 999, true),
            (1000, 100, true),
            (1000, 99, false),
            (0, 0, true),
            (0, 1, false),
        ] {
            assert_eq!(
                passes(rule, Some(json!(b)), Some(json!(c))),
                pass,
                "{b} -> {c}"
            );
        }
    }

    #[test]
    fn band_fails_just_above_its_limit() {
        for (tol, grace, b) in [
            (0.30, 0.0, 100.0),
            (0.30, 250.0, 224.087841),
            (0.30, 2_000.0, 14_602.0),
        ] {
            let rule = Rule::Band {
                tol,
                grace,
                floor: None,
            };
            let limit = b * (1.0 + tol) + grace;
            assert!(
                passes(rule, Some(json!(b)), Some(json!(limit))),
                "{b} at {limit}"
            );
            assert!(
                !passes(rule, Some(json!(b)), Some(json!(above(limit)))),
                "{b} past {limit}"
            );
            // Without a floor, faster never fails.
            assert!(passes(rule, Some(json!(b)), Some(json!(0.0))), "{b} -> 0");
        }
    }

    #[test]
    fn band_floor_fails_just_past_it() {
        let rule = Rule::Band {
            tol: 0.30,
            grace: 0.0,
            floor: Some(10.0),
        };
        assert!(passes(rule, Some(json!(80.0)), Some(json!(8.0))));
        assert!(!passes(rule, Some(json!(80.0)), Some(json!(below(8.0)))));
        assert!(passes(rule, Some(json!(80.0)), Some(json!(104.0))));
        assert!(!passes(rule, Some(json!(80.0)), Some(json!(above(104.0)))));
    }

    #[test]
    fn points_hold_both_sides() {
        let rule = Rule::Points { max: 0.25 };
        for (c, pass) in [
            (0.75, true),
            (0.25, true),
            (0.75 + 1e-9, false),
            (0.25 - 1e-9, false),
            (0.5, true),
        ] {
            assert_eq!(
                passes(rule, Some(json!(0.5)), Some(json!(c))),
                pass,
                "0.5 -> {c}"
            );
        }
    }

    #[test]
    fn true_reads_only_the_current_run() {
        for (c, pass) in [
            (Some(json!(true)), true),
            (Some(json!(false)), false),
            (Some(json!(1)), false),
            (None, false),
        ] {
            assert_eq!(passes(Rule::True, None, c.clone()), pass, "{c:?}");
            assert_eq!(passes(Rule::True, Some(json!(false)), c), pass);
        }
    }

    #[test]
    fn info_never_fails() {
        assert!(passes(Rule::Info, None, None));
        assert!(passes(Rule::Info, Some(json!(1)), None));
        assert!(passes(Rule::Info, Some(json!(1)), Some(json!(2))));
    }

    #[test]
    fn every_judged_rule_fails_a_metric_missing_on_either_side() {
        for rule in [
            Rule::Exact,
            Rule::Ratchet { floor: 10 },
            Rule::Band {
                tol: 0.30,
                grace: 0.0,
                floor: None,
            },
            Rule::Band {
                tol: 0.30,
                grace: 250.0,
                floor: Some(10.0),
            },
            Rule::Points { max: 0.05 },
        ] {
            assert!(passes(rule, Some(json!(1)), Some(json!(1))), "{rule:?}");
            assert!(!passes(rule, None, Some(json!(1))), "{rule:?}");
            assert!(!passes(rule, Some(json!(1)), None), "{rule:?}");
        }
    }

    const WALL: Gate = Gate {
        bin: "test",
        counters: &[("search.nodes_visited", Rule::Ratchet { floor: 10 })],
        other_counters: Some(Rule::Exact),
        fields: &[(
            "wall_clock_ms",
            Rule::Band {
                tol: 0.30,
                grace: 0.0,
                floor: None,
            },
        )],
    };

    #[test]
    fn a_missing_wall_clock_fails_on_either_side() {
        let with_wall = json!({"counters": {"search.nodes_visited": 50}, "wall_clock_ms": 100.0});
        let without = json!({"counters": {"search.nodes_visited": 50}});
        assert_eq!(WALL.check(&with_wall, &with_wall), 0);
        assert_eq!(WALL.check(&with_wall, &without), 1);
        assert_eq!(WALL.check(&without, &with_wall), 1);
    }

    #[test]
    fn other_counters_cover_both_files_or_none() {
        let base = json!({"counters": {"a": 1, "search.nodes_visited": 50}, "wall_clock_ms": 1.0});
        let extra =
            json!({"counters": {"a": 1, "b": 2, "search.nodes_visited": 40}, "wall_clock_ms": 1.0});
        assert_eq!(
            WALL.check(&base, &extra),
            1,
            "b is missing from the baseline"
        );
        assert_eq!(WALL.check(&extra, &base), 2, "b is missing; 50 is above 40");
        let named_only = Gate {
            other_counters: None,
            ..WALL
        };
        assert_eq!(named_only.check(&base, &extra), 0);
        assert_eq!(named_only.check(&extra, &base), 1);
    }

    #[test]
    fn fields_resolve_dotted_paths_and_counters_are_keys() {
        const NESTED: Gate = Gate {
            bin: "test",
            counters: &[
                ("cache.skeleton_hits", Rule::Info),
                ("server.requests", Rule::Exact),
            ],
            other_counters: None,
            fields: &[
                (
                    "latency.steady_p99_micros",
                    Rule::Band {
                        tol: 0.30,
                        grace: 2_000.0,
                        floor: None,
                    },
                ),
                ("gates.pass", Rule::True),
            ],
        };
        let run = |requests: u64, p99: u64, pass: bool| {
            json!({
                "counters": {"server.requests": requests},
                "latency": {"steady_p99_micros": p99},
                "gates": {"pass": pass},
            })
        };
        let base = run(437, 10_000, true);
        assert_eq!(NESTED.check(&base, &base), 0);
        assert_eq!(NESTED.check(&base, &run(437, 15_000, true)), 0);
        assert_eq!(NESTED.check(&base, &run(437, 15_001, true)), 1);
        assert_eq!(NESTED.check(&base, &run(438, 10_000, false)), 2);
    }
}
