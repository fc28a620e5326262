//! `load_gen` — deterministic multi-tenant server load snapshot for CI.
//!
//! Replays the fixed-seed Zipfian workload of [`speakql_bench::load`]
//! (8 tenants over two schemas and one shared index, 32 concurrent
//! clients, a deterministic overload burst, error-class probes, and a
//! recovery round) against an in-process `speakql-server`, then emits a
//! `SERVER_LOAD_<date>.json` snapshot of latency percentiles, shed counts,
//! cache hit rate, and every pipeline/server counter.
//!
//! ```text
//! load_gen [--out FILE]            write a snapshot (default SERVER_LOAD_<date>.json)
//! load_gen --check BASELINE [--out FILE]
//!                                  also judge it against a committed baseline by
//!                                  the rules in [`speakql_bench::load::GATE`]:
//!                                  traffic and error-class counters exact,
//!                                  wall-clock and steady p99 at most 30% (plus
//!                                  250 ms / 2 ms) above it; exits 1 with a diff
//!                                  table on regression
//! ```
//!
//! Exit status is nonzero when a run-level gate fails (responses diverging
//! from the library path, a shed count other than the expected overflow,
//! a cache hit rate below the floor, or a lost client), with or without
//! `--check`.

use speakql_bench::gate::{take_flag, today_utc};
use speakql_bench::load::{run_load, GATE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, out) = take_flag(&args, "--out");
    let (args, check) = take_flag(&args, "--check");
    if !args.is_empty() {
        eprintln!("usage: load_gen [--out FILE] [--check BASELINE.json]");
        return ExitCode::from(2);
    }
    let out = out.unwrap_or_else(|| format!("SERVER_LOAD_{}.json", today_utc()));
    let (snapshot, pass) = run_load();
    GATE.finish(&snapshot, pass, &out, check.as_deref())
}
