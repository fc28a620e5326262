//! `scale_curve` — index scaling benchmark and CI gate for the segmented
//! zero-copy format.
//!
//! Generates synthetic structure spaces (one dominant trie length) at
//! 50k → 500k → 5M structures and measures, per size:
//!
//! - arena **build** time (the cost zero-copy loading avoids),
//! - serialized image size,
//! - **load** time through both paths: validate-then-borrow (zero-copy)
//!   vs decode-and-rebuild (what a v1 loader does), plus their ratio,
//! - resident-memory deltas for the built arena and the borrowed view,
//! - search latency p50/p95, and with the BDB / INV tradeoffs toggled —
//!   recording where each stops paying.
//!
//! ```text
//! scale_curve [--sizes N,N,...] [--out FILE]     full curve (default 50k,500k)
//! scale_curve --check BASELINE [--out FILE]      CI mode: run the 500k point and
//!                                                gate (a) in-run invariants:
//!                                                zero-copy ≥ 5x faster than
//!                                                rebuild, the loaded index
//!                                                holding the built one's
//!                                                segments and nodes, borrowed
//!                                                search byte-identical to
//!                                                built; (b) the baseline
//!                                                rules in `GATE`
//! ```
//!
//! Counters are exact because the workload is deterministic (the shared
//! [`speakql_bench::synthetic`] space, one search at a time), so `GATE`
//! holds the `index.load.*` and search counters to equality, except the
//! two bulk work counters, which are ratcheted as in `perf_snapshot`
//! (above baseline or more than 10x below it fails). Load wall-clock is
//! the only machine-dependent metric: it fails more than 30% above
//! baseline, and more than 10x below it, since loads that much faster mean
//! the workload changed and the baseline must be regenerated.

use serde_json::{json, Map, Value};
use speakql_bench::experiments::inv::InvertedIndex;
use speakql_bench::gate::{take_flag, Gate, Rule};
use speakql_bench::synthetic::{best_of, queries, structures, DOMINANT_LEN, QUERIES};
use speakql_editdist::Weights;
use speakql_index::{from_bytes_rebuilt, from_shared, to_bytes, SearchConfig, StructureIndex};
use std::process::ExitCode;
use std::time::Instant;

/// Sizes for the full curve (5M is opt-in via --sizes; it needs ~4 GiB).
const DEFAULT_SIZES: [usize; 2] = [50_000, 500_000];
/// The size CI gates on.
const CHECK_SIZE: usize = 500_000;
/// Seed for the query mutations.
const QUERY_SEED: u64 = 0x5CA1E;
/// Required in-run zero-copy vs rebuild load speedup at the check size.
const MIN_LOAD_SPEEDUP: f64 = 5.0;
/// The baseline rules for `--check`, over the check point's counters and
/// zero-copy load time.
const GATE: Gate = Gate {
    bin: "scale_curve",
    counters: &[
        ("editdist.cells_evaluated", Rule::Ratchet { floor: 10 }),
        ("search.nodes_visited", Rule::Ratchet { floor: 10 }),
    ],
    other_counters: Some(Rule::Exact),
    fields: &[(
        "load_zero_copy_ms",
        Rule::Band {
            tol: 0.30,
            grace: 0.0,
            floor: Some(10.0),
        },
    )],
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, out) = take_flag(&args, "--out");
    let (args, check) = take_flag(&args, "--check");
    let (args, sizes) = take_flag(&args, "--sizes");
    if !args.is_empty() {
        eprintln!("usage: scale_curve [--sizes N,N,...] [--check BASELINE.json] [--out FILE]");
        return ExitCode::from(2);
    }
    let sizes: Vec<usize> = match sizes {
        Some(list) => {
            let parsed: Option<Vec<usize>> = list.split(',').map(|s| s.parse().ok()).collect();
            match parsed {
                Some(v) if !v.is_empty() => v,
                _ => {
                    eprintln!("bad --sizes {list:?} (expected comma-separated integers)");
                    return ExitCode::from(2);
                }
            }
        }
        None if check.is_some() => vec![CHECK_SIZE],
        None => DEFAULT_SIZES.to_vec(),
    };
    let out = out.unwrap_or_else(|| "SCALE_CURVE.json".to_string());

    let mut points = Vec::new();
    let mut gates_pass = true;
    for &n in &sizes {
        let (point, ok) = run_size(n);
        gates_pass &= ok;
        points.push(point);
    }

    // The check point's counters are the baseline-gated surface.
    let check_point = points
        .iter()
        .find(|p| p.get("structures").and_then(Value::as_u64) == Some(CHECK_SIZE as u64))
        .or(points.last())
        .cloned()
        .unwrap_or(Value::Null);
    let snapshot = json!({
        "schema": "speakql-scale-curve/v1",
        "check_size": CHECK_SIZE,
        "queries": QUERIES,
        "query_seed": QUERY_SEED,
        "dominant_len": DOMINANT_LEN,
        "counters": check_point.get("counters").cloned().unwrap_or(Value::Null),
        "load_zero_copy_ms": check_point.get("load_zero_copy_ms").cloned().unwrap_or(Value::Null),
        "points": points,
    });
    GATE.finish(&snapshot, gates_pass, &out, check.as_deref())
}

/// Current resident set size in KiB (Linux), or 0 where unavailable.
fn vm_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Percentile of a sorted slice of millisecond samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run one curve point. Returns its JSON and whether every in-run
/// invariant held.
fn run_size(n: usize) -> (Value, bool) {
    eprintln!("[scale_curve] === {n} structures ===");
    let rss0 = vm_rss_kb();
    let structures = structures(n);
    let qs = queries(&structures, QUERY_SEED);

    // Build: the cost a zero-copy load avoids.
    let t = Instant::now();
    let built = StructureIndex::build(structures, Weights::PAPER);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let rss_built_kb = vm_rss_kb().saturating_sub(rss0);
    eprintln!(
        "[scale_curve] build {build_ms:.0} ms, {} nodes, {} segments, rss +{} MiB",
        built.total_nodes(),
        built.segment_count(),
        rss_built_kb / 1024
    );

    let image = match to_bytes(&built) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("[scale_curve] FAIL: serialize: {e}");
            return (json!({"structures": n, "error": e.to_string()}), false);
        }
    };
    let image_bytes = image.len();

    // Zero-copy load: validate-then-borrow, best of 5. That no rebuild
    // happened shows twice: the load holds the built index's segments and
    // nodes (one validated segment per built one), and it runs at least
    // `MIN_LOAD_SPEEDUP` times faster than the rebuild below.
    let rss_before_load = vm_rss_kb();
    let (load_zero_copy_ms, borrowed) = best_of(5, || from_shared(image.clone()));
    let borrowed = match borrowed {
        Ok(ix) => ix,
        Err(e) => {
            eprintln!("[scale_curve] FAIL: zero-copy load: {e}");
            return (json!({"structures": n, "error": e.to_string()}), false);
        }
    };
    let rss_loaded_kb = vm_rss_kb().saturating_sub(rss_before_load);
    let mut pass = true;
    if (borrowed.segment_count(), borrowed.total_nodes())
        != (built.segment_count(), built.total_nodes())
    {
        eprintln!(
            "[scale_curve] FAIL: the zero-copy load holds {} segments and {} nodes, \
             the built index {} and {}",
            borrowed.segment_count(),
            borrowed.total_nodes(),
            built.segment_count(),
            built.total_nodes(),
        );
        pass = false;
    }

    // Rebuild load: decode + full arena build, what a v1 loader does.
    let (rebuild_ms, rebuilt) = best_of(2, || from_bytes_rebuilt(&image));
    let rebuilt = match rebuilt {
        Ok(ix) => ix,
        Err(e) => {
            eprintln!("[scale_curve] FAIL: rebuild load: {e}");
            return (json!({"structures": n, "error": e.to_string()}), false);
        }
    };
    let load_speedup = rebuild_ms / load_zero_copy_ms.max(1e-9);
    eprintln!(
        "[scale_curve] load: zero-copy {load_zero_copy_ms:.2} ms vs rebuild {rebuild_ms:.0} ms \
         ({load_speedup:.1}x)"
    );
    if n >= CHECK_SIZE && load_speedup < MIN_LOAD_SPEEDUP {
        eprintln!(
            "[scale_curve] FAIL: zero-copy load only {load_speedup:.1}x faster than rebuild \
             (need >= {MIN_LOAD_SPEEDUP:.0}x at {n} structures)"
        );
        pass = false;
    }

    // Search: per-query latencies with aggregated deterministic stats.
    let cfg = SearchConfig {
        k: 5,
        ..SearchConfig::default()
    };
    let mut agg = speakql_index::SearchStats::default();
    let mut search_ms = Vec::with_capacity(qs.len());
    let mut built_hits = Vec::with_capacity(qs.len());
    for q in &qs {
        let t = Instant::now();
        let (hits, stats) = built.search_with_stats(q, &cfg);
        search_ms.push(t.elapsed().as_secs_f64() * 1e3);
        built_hits.push(hits);
        agg.nodes_visited += stats.nodes_visited;
        agg.tries_searched += stats.tries_searched;
        agg.tries_pruned += stats.tries_pruned;
        agg.cells_evaluated += stats.cells_evaluated;
        agg.shards_searched += stats.shards_searched;
        agg.shards_pruned += stats.shards_pruned;
    }
    search_ms.sort_by(|a, b| a.total_cmp(b));

    // Borrowed search must be byte-identical to the built arena's.
    for (q, want) in qs.iter().zip(&built_hits) {
        if &borrowed.search(q, &cfg) != want || &rebuilt.search(q, &cfg) != want {
            eprintln!("[scale_curve] FAIL: loaded index search differs from built arena");
            pass = false;
            break;
        }
    }

    // BDB / INV tradeoff timings (reported, not gated): where each stops
    // paying shows up as the ratio crossing 1.
    let no_bdb = SearchConfig { bdb: false, ..cfg };
    let (no_bdb_ms, _) = best_of(1, || {
        qs.iter()
            .map(|q| built.search(q, &no_bdb).len())
            .sum::<usize>()
    });
    let inv = InvertedIndex::build(&built);
    let (inv_ms, _) = best_of(1, || {
        qs.iter()
            .map(|q| inv.search(q, &cfg).0.len())
            .sum::<usize>()
    });
    let search_total: f64 = search_ms.iter().sum();

    eprintln!(
        "[scale_curve] search p50 {:.1} ms p95 {:.1} ms; \
         {} queries: bdb-on {:.0} ms, bdb-off {:.0} ms, inv {:.0} ms",
        percentile(&search_ms, 0.5),
        percentile(&search_ms, 0.95),
        qs.len(),
        search_total,
        no_bdb_ms,
        inv_ms,
    );

    // One load through each path per point, and the segments one zero-copy
    // load validates.
    let mut counters = Map::new();
    counters.insert("index.load.zero_copy".into(), json!(1));
    counters.insert("index.load.rebuild".into(), json!(1));
    counters.insert(
        "index.load.segments_validated".into(),
        json!(built.segment_count() as u64),
    );
    counters.insert("search.nodes_visited".into(), json!(agg.nodes_visited));
    counters.insert(
        "search.tries_searched".into(),
        json!(u64::from(agg.tries_searched)),
    );
    counters.insert(
        "search.tries_pruned_bdb".into(),
        json!(u64::from(agg.tries_pruned)),
    );
    counters.insert(
        "search.shards_searched".into(),
        json!(u64::from(agg.shards_searched)),
    );
    counters.insert(
        "search.shards_pruned_bdb".into(),
        json!(u64::from(agg.shards_pruned)),
    );
    counters.insert(
        "editdist.cells_evaluated".into(),
        json!(agg.cells_evaluated),
    );

    let point = json!({
        "structures": n,
        "trie_nodes": built.total_nodes(),
        "segments": built.segment_count(),
        "image_bytes": image_bytes,
        "build_ms": build_ms,
        "load_zero_copy_ms": load_zero_copy_ms,
        "load_rebuild_ms": rebuild_ms,
        "load_speedup": load_speedup,
        "rss_built_kb": rss_built_kb,
        "rss_loaded_kb": rss_loaded_kb,
        "search_p50_ms": percentile(&search_ms, 0.5),
        "search_p95_ms": percentile(&search_ms, 0.95),
        "search_total_ms": search_total,
        "search_total_ms_bdb_off": no_bdb_ms,
        "search_total_ms_inv": inv_ms,
        "counters": Value::Object(counters),
    });
    (point, pass)
}

#[cfg(test)]
mod tests {
    use super::GATE;
    use serde_json::{json, Map, Value};

    fn baseline() -> Value {
        match serde_json::from_str(include_str!("../../../../results/scale_baseline.json")) {
            Ok(v) => v,
            Err(e) => panic!("results/scale_baseline.json does not parse: {e}"),
        }
    }

    fn load_ms(base: &Value) -> f64 {
        match base.get("load_zero_copy_ms").and_then(Value::as_f64) {
            Some(ms) => ms,
            None => panic!("the baseline has no load_zero_copy_ms"),
        }
    }

    /// The baseline's counters with `counter` (when given) set, and a
    /// zero-copy load time.
    fn run(base: &Value, counter: Option<(&str, u64)>, load_ms: f64) -> Value {
        let mut counters = base
            .get("counters")
            .and_then(Value::as_object)
            .cloned()
            .unwrap_or_default();
        if let Some((name, value)) = counter {
            counters.insert(name.to_string(), json!(value));
        }
        let mut run = Map::new();
        run.insert("counters".to_string(), Value::Object(counters));
        run.insert("load_zero_copy_ms".to_string(), json!(load_ms));
        Value::Object(run)
    }

    #[test]
    fn committed_baseline_passes_against_itself() {
        let base = baseline();
        assert_eq!(GATE.check(&base, &base), 0);
    }

    #[test]
    fn counters_are_exact_except_two_ratcheted_within_ten_x() {
        let base = baseline();
        let load = load_ms(&base);
        let Some(counters) = base.get("counters").and_then(Value::as_object) else {
            panic!("the baseline has no counters");
        };
        assert!(!counters.is_empty());
        for (name, value) in counters.iter() {
            let Some(b) = value.as_u64() else {
                panic!("{name} is not an integer");
            };
            let passes = |c: u64| GATE.check(&base, &run(&base, Some((name, c)), load)) == 0;
            assert!(!passes(b + 1), "{name} one above baseline");
            if ["editdist.cells_evaluated", "search.nodes_visited"].contains(&name.as_str()) {
                let floor = b.div_ceil(10);
                assert!(passes(b - 1), "{name} one below baseline");
                assert!(passes(floor), "{name} 10x below baseline");
                assert!(!passes(floor - 1), "{name} past 10x below baseline");
            } else if b > 0 {
                assert!(!passes(b - 1), "{name} one below baseline");
            }
        }
    }

    #[test]
    fn load_time_fails_past_thirty_percent_above_or_ten_x_below() {
        let base = baseline();
        let b = load_ms(&base);
        let passes = |ms: f64| GATE.check(&base, &run(&base, None, ms)) == 0;
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let limit = b * 1.3;
        assert!(passes(limit));
        assert!(!passes(up(limit)));
        // The smallest load time whose tenfold is not below the baseline.
        let mut floor = b / 10.0;
        while floor * 10.0 < b {
            floor = up(floor);
        }
        while down(floor) * 10.0 >= b {
            floor = down(floor);
        }
        assert!(passes(floor));
        assert!(!passes(down(floor)));
    }
}
