//! `perf_snapshot` — deterministic perf-regression snapshot for CI.
//!
//! Replays a fixed-seed workload (50 000-structure index, 200 ASR
//! transcripts, single-threaded for exact counter reproducibility) through
//! the full correction pipeline with observability enabled, then emits a
//! `BENCH_<date>.json` snapshot of per-stage latency percentiles, work
//! counters, and the paper's §6 accuracy of the transcriptions against
//! their cases' ground-truth SQL.
//!
//! ```text
//! perf_snapshot [--out FILE]              write a snapshot (default BENCH_<date>.json)
//! perf_snapshot --check BASELINE [--out FILE]
//!                                         also judge it against a committed baseline
//!                                         by the rules in `GATE`; exits 1 with a
//!                                         diff table on regression
//! perf_snapshot --zipf [--out FILE]       replay a Zipfian repeated-query workload
//!                                         twice over one shared index — skeleton
//!                                         cache off, then on — and gate on the
//!                                         deterministic cache invariants: identical
//!                                         outputs (no stale hits), hit rate above
//!                                         the floor, and fewer DP cells with the
//!                                         cache warm
//! ```
//!
//! Counter totals are exact because every seed is pinned and both the trie
//! search and the batch queue run on one thread; wall-clock is the only
//! machine-dependent field. So `GATE` holds every counter to equality,
//! except the two *ratcheted* work counters, `editdist.cells_evaluated` and
//! `search.nodes_visited`: they fail above baseline **or** more than 10x
//! below it. The upper side catches regressions; the lower side catches
//! silent drift — a search suddenly doing 10x less work than its committed
//! baseline means the workload or the algorithm changed out from under the
//! baseline, which must be acknowledged by regenerating it. Wall-clock
//! fails more than 30% above baseline and never for being faster. Accuracy — mean WRR and LRR (Table 2) and
//! the share of exact structures (Fig. 8) — is as deterministic as the
//! counters, so its three rates are held to the baseline on either side: a
//! latency change that costs accuracy fails in the same run that measured
//! the latency, and one that moves it must regenerate the baseline. The Zipfian mode gates only on counters and
//! output equality for the same reason — its wall-clock improvement is
//! reported but never failed on.
//!
//! The main replay also checks two conservation laws over its counters:
//! every search settles each segment of the index, and each non-empty
//! length, as searched or pruned, so both sums equal the index's count
//! times `engine.transcriptions` (and the replay makes no nested split,
//! which would search per clause). A broken law fails the run, as a broken
//! `--zipf` invariant does.
//!
//! It then gates what observability costs. Two more engines share the
//! replay's index, one recording and one not, and replay the same
//! transcripts in [`COST_PASSES`] passes, alternating the engines
//! transcript by transcript. Each engine's cost is the sum of its best time
//! per transcript. The run fails when the recording engine's is more than
//! [`MAX_RECORDER_COST`] times the other's. The ratio is printed and
//! written to the snapshot as `recorder_cost`, which no baseline reads.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::{json, Map, Value};
use speakql_asr::{AsrEngine, AsrProfile};
use speakql_bench::gate::{take_flag, today_utc, Gate, Rule};
use speakql_core::{CounterId, PipelineReport, SpanId, SpeakQl, SpeakQlConfig};
use speakql_data::{employees_db, generate_cases, training_vocabulary};
use speakql_db::Database;
use speakql_grammar::{tokenize_sql, GeneratorConfig, StructTokId, Structure};
use speakql_index::StructureIndex;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Structure-space cap: large enough that trie search dominates.
const MAX_STRUCTURES: usize = 50_000;
/// Transcripts replayed through the pipeline.
const NUM_TRANSCRIPTS: usize = 200;
/// Seed for the spoken-SQL case generator.
const CASE_SEED: u64 = 0xBE9C;
/// The baseline rules for `--check`: the bulk work metrics that every
/// search-engine optimization moves are ratcheted, every other counter is
/// exact, and wall-clock has an upper band only.
const GATE: Gate = Gate {
    bin: "perf_snapshot",
    counters: &[
        ("editdist.cells_evaluated", Rule::Ratchet { floor: 10 }),
        ("search.nodes_visited", Rule::Ratchet { floor: 10 }),
    ],
    other_counters: Some(Rule::Exact),
    fields: &[
        (
            "wall_clock_ms",
            Rule::Band {
                tol: 0.30,
                grace: 0.0,
                floor: None,
            },
        ),
        ("accuracy.wrr", ACCURACY),
        ("accuracy.lrr", ACCURACY),
        ("accuracy.structure_exact", ACCURACY),
    ],
};
/// Accuracy is a pure function of the seeded workload and the code, so its
/// rates must equal the baseline's; the slack only absorbs float noise.
const ACCURACY: Rule = Rule::Points { max: 1e-9 };
/// Distinct transcripts in the Zipfian workload.
const ZIPF_DISTINCT: usize = 40;
/// Total draws replayed from the Zipfian rank distribution.
const ZIPF_DRAWS: usize = 400;
/// Zipf exponent (1.0 = classic rank-inverse popularity).
const ZIPF_EXPONENT: f64 = 1.0;
/// Seed for the Zipfian rank draws.
const ZIPF_SEED: u64 = 0x21F5;
/// Skeleton-cache capacity for the warm engine (large enough that the
/// workload's distinct skeletons never evict each other).
const ZIPF_CACHE_CAPACITY: usize = 256;
/// Minimum acceptable skeleton-cache hit rate over the Zipfian replay.
const ZIPF_MIN_HIT_RATE: f64 = 0.5;
/// Timed passes per engine in the recorder-cost check.
const COST_PASSES: usize = 11;
/// Largest accepted cost ratio of the recording engine to the
/// non-recording one. Over eleven runs each on a 2-vCPU VM, the ratio read
/// 0.99–1.03 with the index recording nothing, and 1.11–1.21 when every
/// search also recorded a fanout sample per trie node and a span per
/// walked segment.
const MAX_RECORDER_COST: f64 = 1.07;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let zipf = args.iter().any(|a| a == "--zipf");
    let args: Vec<String> = args.into_iter().filter(|a| a != "--zipf").collect();
    let (args, out) = take_flag(&args, "--out");
    let (args, check) = take_flag(&args, "--check");
    if !args.is_empty() || (zipf && check.is_some()) {
        eprintln!("usage: perf_snapshot [--out FILE] [--check BASELINE.json | --zipf]");
        return ExitCode::from(2);
    }
    if zipf {
        let out = out.unwrap_or_else(|| format!("ZIPF_{}.json", today_utc()));
        let (snapshot, pass) = run_zipf_workload();
        return GATE.finish(&snapshot, pass, &out, None);
    }
    let out = out.unwrap_or_else(|| format!("BENCH_{}.json", today_utc()));
    let (snapshot, pass) = run_workload();
    GATE.finish(&snapshot, pass, &out, check.as_deref())
}

/// Build the fixed-seed workload, run it, and snapshot the recorder.
/// Returns the snapshot and whether the replay's counters kept the search
/// conservation laws ([`broken_laws`]) and the recorder stayed within
/// [`MAX_RECORDER_COST`].
fn run_workload() -> (Value, bool) {
    eprintln!("[perf_snapshot] building {MAX_STRUCTURES}-structure engine ...");
    let gen_cfg = GeneratorConfig {
        max_structures: Some(MAX_STRUCTURES),
        ..GeneratorConfig::paper()
    };
    let db = employees_db();
    let cfg = SpeakQlConfig {
        generator: gen_cfg,
        ..SpeakQlConfig::paper()
    }
    .with_threads(1)
    .with_observability(true);
    let index = Arc::new(StructureIndex::from_grammar(&cfg.generator, cfg.weights));
    let engine = SpeakQl::with_index(&db, Arc::clone(&index), cfg.clone());

    eprintln!("[perf_snapshot] generating {NUM_TRANSCRIPTS} transcripts ...");
    let cases = generate_cases(&db, &GeneratorConfig::small(), NUM_TRANSCRIPTS, CASE_SEED);
    let asr = AsrEngine::new(AsrProfile::acs_trained(), training_vocabulary(&db, &cases));
    let transcripts: Vec<String> = cases
        .iter()
        .map(|c| {
            let mut rng = ChaCha8Rng::seed_from_u64(c.id as u64);
            asr.transcribe_sql(&c.sql, &mut rng)
        })
        .collect();
    let batch: Vec<&str> = transcripts.iter().map(String::as_str).collect();

    eprintln!("[perf_snapshot] replaying workload ...");
    let start = Instant::now();
    let results = engine.transcribe_batch(&batch);
    let wall_clock_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(results.len(), NUM_TRANSCRIPTS);

    let report = engine.report();
    eprint!("{}", report.render_table());
    eprintln!("[perf_snapshot] wall clock: {wall_clock_ms:.1} ms");
    let (segments, lengths) = (index.segment_count(), index.length_count());
    let broken = broken_laws(&report, segments, lengths);
    for law in &broken {
        eprintln!("[perf_snapshot] FAIL: conservation law broken: {law}");
    }
    if broken.is_empty() {
        eprintln!(
            "[perf_snapshot] conservation: shards and tries searched + pruned = \
             {segments} segments and {lengths} lengths per search"
        );
    }

    eprintln!(
        "[perf_snapshot] timing {COST_PASSES} alternating passes with the recorder on and off ..."
    );
    let cost = RecorderCost::measure(&db, index, &cfg, &batch);
    let cost_ok = cost.holds();
    eprintln!(
        "[perf_snapshot] recorder cost: best per transcript {:.2} ms on / {:.2} ms off = {:.3} \
         (at most {MAX_RECORDER_COST:.2})",
        cost.on_ms,
        cost.off_ms,
        cost.ratio()
    );
    if !cost_ok {
        eprintln!(
            "[perf_snapshot] FAIL: recording costs {:.3}x the unrecorded replay, \
             above {MAX_RECORDER_COST:.2}x",
            cost.ratio()
        );
    }

    let mut counters = Map::new();
    for c in &report.counters {
        counters.insert(c.name.to_string(), json!(c.total));
    }
    // Paper §6 accuracy against each case's ground truth; a failed
    // transcription scores 0 on every rate.
    let masked = |sql: &str| -> Vec<StructTokId> { Structure::mask_of(&tokenize_sql(sql)) };
    let (mut wrr, mut lrr, mut exact) = (0.0, 0.0, 0usize);
    for (case, result) in cases.iter().zip(&results) {
        let Some(sql) = result.as_ref().ok().and_then(|t| t.best_sql()) else {
            continue;
        };
        let acc = speakql_metrics::accuracy(&case.sql, sql);
        wrr += acc.wrr;
        lrr += acc.lrr;
        exact += usize::from(masked(&case.sql) == masked(sql));
    }
    let n = NUM_TRANSCRIPTS as f64;
    eprintln!(
        "[perf_snapshot] accuracy: WRR {:.4}, LRR {:.4}, exact structures {exact}/{NUM_TRANSCRIPTS}",
        wrr / n,
        lrr / n
    );

    let mut stages = Map::new();
    for s in &report.stages {
        stages.insert(
            s.name.to_string(),
            json!({
                "count": s.count,
                "sum_micros": s.sum_micros,
                "min_micros": s.min_micros,
                "max_micros": s.max_micros,
                "p50_micros": s.p50_micros,
                "p95_micros": s.p95_micros,
                "p99_micros": s.p99_micros,
            }),
        );
    }
    let snapshot = json!({
        "schema": "speakql-perf-snapshot/v1",
        "workload": {
            "max_structures": MAX_STRUCTURES,
            "transcripts": NUM_TRANSCRIPTS,
            "case_seed": CASE_SEED,
            "threads": 1,
        },
        "wall_clock_ms": wall_clock_ms,
        "accuracy": {
            "wrr": wrr / n,
            "lrr": lrr / n,
            "structure_exact": exact as f64 / n,
        },
        "counters": Value::Object(counters),
        "stages": Value::Object(stages),
        "recorder_cost": {
            "passes": COST_PASSES,
            "best_on_ms": cost.on_ms,
            "best_off_ms": cost.off_ms,
            "ratio": cost.ratio(),
            "max_ratio": MAX_RECORDER_COST,
        },
    });
    (snapshot, broken.is_empty() && cost_ok)
}

/// The same replay through a recording and a non-recording engine: each
/// engine's best time per transcript, summed.
#[derive(Debug, Clone, Copy)]
struct RecorderCost {
    on_ms: f64,
    off_ms: f64,
}

impl RecorderCost {
    /// Replay `batch` [`COST_PASSES`] times through each of two fresh
    /// engines over `index`, built from `cfg` with observability on and
    /// off. The engines alternate transcript by transcript, and which one
    /// goes first alternates pass by pass, so drift in the machine's speed
    /// falls on both; a per-transcript minimum drops the passes an
    /// interruption slowed.
    fn measure(
        db: &Database,
        index: Arc<StructureIndex>,
        cfg: &SpeakQlConfig,
        batch: &[&str],
    ) -> RecorderCost {
        let on = SpeakQl::with_index(db, Arc::clone(&index), cfg.clone().with_observability(true));
        let off = SpeakQl::with_index(db, index, cfg.clone().with_observability(false));
        let mut best = vec![[f64::INFINITY; 2]; batch.len()];
        let time = |engine: &SpeakQl, transcript: &str, best: &mut f64| {
            let start = Instant::now();
            // Only the time matters; the counted replay checked the output.
            let _ = engine.transcribe(transcript);
            *best = best.min(start.elapsed().as_secs_f64() * 1e3);
        };
        for pass in 0..COST_PASSES {
            for (&transcript, [on_best, off_best]) in batch.iter().zip(&mut best) {
                if pass % 2 == 0 {
                    time(&on, transcript, on_best);
                    time(&off, transcript, off_best);
                } else {
                    time(&off, transcript, off_best);
                    time(&on, transcript, on_best);
                }
            }
        }
        RecorderCost {
            on_ms: best.iter().map(|b| b[0]).sum(),
            off_ms: best.iter().map(|b| b[1]).sum(),
        }
    }

    fn ratio(self) -> f64 {
        self.on_ms / self.off_ms
    }

    /// True when recording costs at most [`MAX_RECORDER_COST`].
    fn holds(self) -> bool {
        self.ratio() <= MAX_RECORDER_COST
    }
}

/// The search conservation laws of a replay of `engine.transcriptions`
/// searches over an index of `segments` segments and `lengths` non-empty
/// lengths. Every search settles each segment as searched or pruned, and
/// each length likewise, so
/// `search.shards_searched + search.shards_pruned_bdb = segments × searches`
/// and `search.tries_searched + search.tries_pruned_bdb = lengths × searches`.
/// A nested split would search once per clause, so the replay must make
/// none. Returns one line per broken law.
fn broken_laws(report: &PipelineReport, segments: usize, lengths: usize) -> Vec<String> {
    let searches = report.counter(CounterId::Transcriptions);
    let mut broken = Vec::new();
    let nested = report.counter(CounterId::NestedSplits);
    if nested != 0 {
        broken.push(format!("engine.nested_splits = {nested}, not 0"));
    }
    for (unit, searched, pruned, per_search) in [
        (
            "shards",
            CounterId::SearchShardsSearched,
            CounterId::SearchShardsPruned,
            segments,
        ),
        (
            "tries",
            CounterId::SearchTriesSearched,
            CounterId::SearchTriesPruned,
            lengths,
        ),
    ] {
        let (searched, pruned) = (report.counter(searched), report.counter(pruned));
        let expected = per_search as u64 * searches;
        if searched + pruned != expected {
            broken.push(format!(
                "search.{unit} searched + pruned = {searched} + {pruned}, \
                 not {per_search} × {searches} = {expected}"
            ));
        }
    }
    broken
}

/// Replay the Zipfian repeated-query workload through a cache-off and a
/// cache-on engine sharing one structure index, and gate on the cache's
/// deterministic invariants. Returns the snapshot and whether every gate
/// passed.
fn run_zipf_workload() -> (Value, bool) {
    eprintln!("[perf_snapshot] building shared {MAX_STRUCTURES}-structure index ...");
    let gen_cfg = GeneratorConfig {
        max_structures: Some(MAX_STRUCTURES),
        ..GeneratorConfig::paper()
    };
    let base_cfg = SpeakQlConfig {
        generator: gen_cfg,
        ..SpeakQlConfig::paper()
    }
    .with_threads(1)
    .with_observability(true);
    let db = employees_db();
    let index = Arc::new(StructureIndex::from_grammar(
        &base_cfg.generator,
        base_cfg.weights,
    ));
    let cold = SpeakQl::with_index(&db, index.clone(), base_cfg.clone());
    let warm = SpeakQl::with_index(
        &db,
        index,
        base_cfg.with_cache_capacity(ZIPF_CACHE_CAPACITY),
    );

    eprintln!(
        "[perf_snapshot] sampling {ZIPF_DRAWS} draws over {ZIPF_DISTINCT} distinct transcripts ..."
    );
    let cases = generate_cases(&db, &GeneratorConfig::small(), ZIPF_DISTINCT, CASE_SEED);
    let asr = AsrEngine::new(AsrProfile::acs_trained(), training_vocabulary(&db, &cases));
    let transcripts: Vec<String> = cases
        .iter()
        .map(|c| {
            let mut rng = ChaCha8Rng::seed_from_u64(c.id as u64);
            asr.transcribe_sql(&c.sql, &mut rng)
        })
        .collect();
    // Inverse-CDF sampling over the Zipf rank weights 1/r^s, pinned seed.
    let cumulative: Vec<f64> = transcripts
        .iter()
        .enumerate()
        .scan(0.0, |acc, (r, _)| {
            *acc += 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT);
            Some(*acc)
        })
        .collect();
    let total = cumulative.last().copied().unwrap_or(1.0);
    let mut rng = ChaCha8Rng::seed_from_u64(ZIPF_SEED);
    let workload: Vec<&str> = (0..ZIPF_DRAWS)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..total);
            let rank = cumulative.partition_point(|&c| c <= u);
            transcripts[rank.min(ZIPF_DISTINCT - 1)].as_str()
        })
        .collect();

    eprintln!("[perf_snapshot] replaying with cache off ...");
    let t0 = Instant::now();
    let cold_results = cold.transcribe_batch(&workload);
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!("[perf_snapshot] replaying with cache on ({ZIPF_CACHE_CAPACITY} entries) ...");
    let t1 = Instant::now();
    let warm_results = warm.transcribe_batch(&workload);
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3;

    let cold_report = cold.report();
    let warm_report = warm.report();

    // Gate 1 — stale-hit check: every cached transcription must be
    // byte-identical to its uncached twin (Ok/Err status included).
    let mismatches = cold_results
        .iter()
        .zip(&warm_results)
        .filter(|(c, w)| match (c, w) {
            (Ok(c), Ok(w)) => c.candidates != w.candidates,
            (Err(c), Err(w)) => c != w,
            _ => true,
        })
        .count();
    // Gate 2 — the cache must actually be exercised: hits above the floor.
    let hits = warm_report.counter(CounterId::CacheSkeletonHits);
    let misses = warm_report.counter(CounterId::CacheSkeletonMisses);
    let lookups = hits + misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    // Gate 3 — hits must translate into skipped search work.
    let cold_cells = cold_report.counter(CounterId::EditDistCells);
    let warm_cells = warm_report.counter(CounterId::EditDistCells);

    let cold_hot_us = hot_path_micros(&cold_report);
    let warm_hot_us = hot_path_micros(&warm_report);
    let hot_improvement = if cold_hot_us > 0 {
        1.0 - warm_hot_us as f64 / cold_hot_us as f64
    } else {
        0.0
    };

    eprintln!(
        "[perf_snapshot] zipf: hit rate {:.1}% ({hits}/{lookups}), \
         cells {cold_cells} -> {warm_cells}, \
         search+literal {:.1} ms -> {:.1} ms ({:+.1}%), \
         wall {cold_ms:.1} ms -> {warm_ms:.1} ms",
        hit_rate * 100.0,
        cold_hot_us as f64 / 1e3,
        warm_hot_us as f64 / 1e3,
        -hot_improvement * 100.0,
    );

    let mut pass = true;
    if mismatches > 0 {
        eprintln!(
            "[perf_snapshot] FAIL: {mismatches}/{ZIPF_DRAWS} cached transcriptions \
             differ from the uncached run (stale or corrupt cache hits)"
        );
        pass = false;
    }
    if hits == 0 || hit_rate < ZIPF_MIN_HIT_RATE {
        eprintln!(
            "[perf_snapshot] FAIL: skeleton-cache hit rate {:.1}% below the \
             {:.0}% floor (cache not being exercised)",
            hit_rate * 100.0,
            ZIPF_MIN_HIT_RATE * 100.0
        );
        pass = false;
    }
    if warm_cells >= cold_cells {
        eprintln!(
            "[perf_snapshot] FAIL: warm run evaluated {warm_cells} DP cells, \
             not fewer than the cold run's {cold_cells}"
        );
        pass = false;
    }
    if pass {
        eprintln!(
            "[perf_snapshot] PASS: outputs identical, hit rate and cell savings above floor."
        );
    }

    let snapshot = json!({
        "schema": "speakql-zipf-snapshot/v1",
        "workload": {
            "max_structures": MAX_STRUCTURES,
            "distinct_transcripts": ZIPF_DISTINCT,
            "draws": ZIPF_DRAWS,
            "exponent": ZIPF_EXPONENT,
            "case_seed": CASE_SEED,
            "zipf_seed": ZIPF_SEED,
            "cache_capacity": ZIPF_CACHE_CAPACITY,
            "threads": 1,
        },
        "gates": {
            "output_mismatches": mismatches,
            "hit_rate": hit_rate,
            "min_hit_rate": ZIPF_MIN_HIT_RATE,
            "pass": pass,
        },
        "cold": zipf_run_json(&cold_report, cold_ms, cold_hot_us),
        "warm": zipf_run_json(&warm_report, warm_ms, warm_hot_us),
        "hot_path_improvement": hot_improvement,
    });
    (snapshot, pass)
}

/// Total microseconds spent in the cache-bypassable hot path: structure
/// search plus literal determination.
fn hot_path_micros(report: &PipelineReport) -> u64 {
    [SpanId::Search, SpanId::Literal]
        .iter()
        .filter_map(|&id| report.stage(id))
        .map(|s| s.sum_micros)
        .sum()
}

/// Counters and timings of one Zipfian run as JSON.
fn zipf_run_json(report: &PipelineReport, wall_ms: f64, hot_us: u64) -> Value {
    let mut counters = Map::new();
    for c in &report.counters {
        counters.insert(c.name.to_string(), json!(c.total));
    }
    json!({
        "wall_clock_ms": wall_ms,
        "search_plus_literal_micros": hot_us,
        "counters": Value::Object(counters),
    })
}

#[cfg(test)]
mod tests {
    use super::{broken_laws, RecorderCost, GATE, MAX_RECORDER_COST};
    use serde_json::{json, Map, Value};
    use speakql_core::{CounterId, Recorder};

    #[test]
    fn conservation_laws_hold_and_break() {
        // The committed replay: 200 searches over 21 segments and 17
        // non-empty lengths.
        let replay = |shards: (u64, u64), tries: (u64, u64), nested: u64| {
            let recorder = Recorder::new(true);
            for (id, n) in [
                (CounterId::Transcriptions, 200),
                (CounterId::SearchShardsSearched, shards.0),
                (CounterId::SearchShardsPruned, shards.1),
                (CounterId::SearchTriesSearched, tries.0),
                (CounterId::SearchTriesPruned, tries.1),
                (CounterId::NestedSplits, nested),
            ] {
                recorder.add(id, n);
            }
            broken_laws(&recorder.report(), 21, 17).len()
        };
        for (shards, tries, nested, broken, what) in [
            ((767, 3433), (682, 2718), 0, 0, "the committed replay"),
            ((767, 3432), (682, 2718), 0, 1, "a segment unsettled"),
            ((768, 3433), (682, 2718), 0, 1, "a segment settled twice"),
            ((767, 3433), (683, 2718), 0, 1, "a length settled twice"),
            ((767, 3433), (682, 2717), 0, 1, "a length unsettled"),
            ((767, 3433), (682, 2718), 1, 1, "a nested split"),
            ((0, 0), (0, 0), 0, 2, "no search settled"),
        ] {
            assert_eq!(replay(shards, tries, nested), broken, "{what}");
        }
    }

    #[test]
    fn recorder_cost_fails_only_above_its_ratio() {
        let cost = |on_ms: f64| RecorderCost {
            on_ms,
            off_ms: 40.0,
        };
        assert!(cost(40.0).holds());
        assert!(cost(36.0).holds(), "recording faster than not passes");
        assert!(cost(40.0 * MAX_RECORDER_COST).holds());
        assert!(!cost(40.0 * MAX_RECORDER_COST + 0.01).holds());
        assert!(!cost(f64::INFINITY).holds());
    }

    fn baseline() -> Value {
        match serde_json::from_str(include_str!("../../../../results/bench_baseline.json")) {
            Ok(v) => v,
            Err(e) => panic!("results/bench_baseline.json does not parse: {e}"),
        }
    }

    /// The baseline's counters with `counter` (when given) set, the
    /// baseline's accuracy, and a wall clock when given.
    fn run(base: &Value, counter: Option<(&str, u64)>, wall_ms: Option<f64>) -> Value {
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
        if let Some(accuracy) = base.get("accuracy") {
            run.insert("accuracy".to_string(), accuracy.clone());
        }
        if let Some(ms) = wall_ms {
            run.insert("wall_clock_ms".to_string(), json!(ms));
        }
        Value::Object(run)
    }

    fn wall(base: &Value) -> f64 {
        match base.get("wall_clock_ms").and_then(Value::as_f64) {
            Some(ms) => ms,
            None => panic!("the baseline has no wall_clock_ms"),
        }
    }

    #[test]
    fn committed_baseline_passes_against_itself() {
        let base = baseline();
        assert_eq!(GATE.check(&base, &base), 0);
    }

    #[test]
    fn counters_are_exact_except_two_ratcheted_within_ten_x() {
        let base = baseline();
        let wall = Some(wall(&base));
        let Some(counters) = base.get("counters").and_then(Value::as_object) else {
            panic!("the baseline has no counters");
        };
        assert!(!counters.is_empty());
        for (name, value) in counters.iter() {
            let Some(b) = value.as_u64() else {
                panic!("{name} is not an integer");
            };
            let passes = |c: u64| GATE.check(&base, &run(&base, Some((name, c)), wall)) == 0;
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
    fn wall_clock_fails_only_past_thirty_percent_above_or_missing() {
        let base = baseline();
        let b = wall(&base);
        let limit = b * 1.3;
        let passes = |ms: Option<f64>| GATE.check(&base, &run(&base, None, ms)) == 0;
        assert!(passes(Some(limit)));
        assert!(!passes(Some(f64::from_bits(limit.to_bits() + 1))));
        assert!(passes(Some(b / 100.0)), "faster never fails");
        assert!(!passes(None), "a run without wall_clock_ms fails");
        assert_ne!(GATE.check(&run(&base, None, None), &base), 0);
    }

    #[test]
    fn accuracy_is_held_to_the_baseline_on_either_side() {
        let base = baseline();
        let wall = Some(wall(&base));
        let metrics = ["wrr", "lrr", "structure_exact"];
        let rate = |metric: &str| match base.get("accuracy").and_then(|a| a.get(metric)) {
            Some(v) => v.as_f64().unwrap_or(f64::NAN),
            None => panic!("the baseline has no accuracy.{metric}"),
        };
        for metric in metrics {
            // The baseline's rates with `metric` set to `v`, or left out.
            let passes = |v: Option<f64>| {
                let mut accuracy = Map::new();
                for m in metrics {
                    let value = if m == metric { v } else { Some(rate(m)) };
                    if let Some(value) = value {
                        accuracy.insert(m.to_string(), json!(value));
                    }
                }
                let Value::Object(mut current) = run(&base, None, wall) else {
                    panic!("a run is an object");
                };
                current.insert("accuracy".to_string(), Value::Object(accuracy));
                GATE.check(&base, &Value::Object(current)) == 0
            };
            let b = rate(metric);
            // One of the 200 cases more or less is a failure either way.
            assert!(passes(Some(b)), "{metric} at baseline");
            assert!(!passes(Some(b - 0.005)), "{metric} one case lower");
            assert!(!passes(Some(b + 0.005)), "{metric} one case higher");
            assert!(!passes(None), "a run without accuracy.{metric} fails");
        }
    }
}
