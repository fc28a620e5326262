//! `delta_churn` — incremental index maintenance benchmark and CI gate.
//!
//! Replays the "one table changed" catalog churn against a 500k-structure
//! synthetic space (same shape as `scale_curve`: one dominant trie length,
//! a spread of tail lengths): tombstone 1,000 structures of one tail length
//! and append 1,000 new ones at the same length, then gate what the paper's
//! interactive-service framing needs from index maintenance:
//!
//! - **Incremental beats rebuild**: `apply_delta` wall-clock must be ≥ 10x
//!   faster than a full `StructureIndex::build` over the live structures.
//! - **Apply time is flat in the arena**: the same churn on a space four
//!   times the size, grown only at the untouched dominant length (so the
//!   churned length and its segments are identical), must apply in under
//!   twice the time, best of 7 each. An apply that copies or refolds the
//!   whole arena grows with it.
//! - **Counter-proven segment reuse**: the `DeltaStats` counter-proof must
//!   show exactly one affected length, every segment either rebuilt or
//!   reused, and ≥ 95% of segments reused.
//! - **Equivalence**: the delta'd index and the full rebuild return the
//!   same hits (resolved to token sequences — the rebuild compacts ids) on
//!   a deterministic probe workload.
//! - **Warm cache across churn**: a tenant that kept the old index must
//!   see its shared-cache hit rate move by at most 5 points when another
//!   tenant hot-swaps to the delta'd index — and reloading the old image's
//!   bytes must derive the same generation and keep serving 100% warm (the
//!   content-derived-generation bugfix this workload exists to pin).
//! - **Image round-trip**: the delta'd (tombstoned) index survives
//!   `to_bytes` → `from_shared` with generation and hits intact.
//!
//! ```text
//! delta_churn [--structures N] [--out FILE]   run the workload (default 500k)
//! delta_churn --check BASELINE [--out FILE]   CI mode: also judge the run
//!                                             against the committed baseline
//!                                             by the rules in `GATE`
//! ```
//!
//! Counters are exact (deterministic workload, sequential search), and the
//! warm hit rates may move at most 5 points from the baseline. Apply
//! wall-clock fails more than 30% above baseline, or more than 10x below it
//! (a drift floor: the workload must have changed under the baseline).

use serde_json::{json, Map, Value};
use speakql_bench::gate::{take_flag, Gate, Rule};
use speakql_bench::synthetic::{
    best_of, encode, queries, structures, DOMINANT_LEN, QUERIES, TAIL_LENS,
};
use speakql_core::{CounterId, Recorder, SkeletonCache};
use speakql_editdist::Weights;
use speakql_grammar::{StructTokId, Structure};
use speakql_index::{from_shared, to_bytes, IndexDelta, SearchConfig, StructureIndex};
use std::process::ExitCode;
use std::time::Instant;

/// Structure count CI gates on.
const CHECK_SIZE: usize = 500_000;
/// The churned ("one table") length and its position in [`TAIL_LENS`].
const CHURN_LEN: usize = 14;
const CHURN_LEN_SLOT: usize = 4;
/// Structures removed and added by the churn delta.
const CHURN: usize = 1_000;
/// Seed for the probe-query mutations.
const QUERY_SEED: u64 = 0xC4u64 << 8 | 0x51;
/// Required incremental-vs-rebuild wall-clock speedup.
const MIN_DELTA_SPEEDUP: f64 = 10.0;
/// Size of the flatness check's arena, in multiples of the gated one.
const GROWTH: usize = 4;
/// Largest allowed ratio of the grown arena's apply time to the base's.
const MAX_GROWN_APPLY_RATIO: f64 = 2.0;
/// Required fraction of segments carried over unchanged.
const MIN_REUSE_FRACTION: f64 = 0.95;
/// Maximum warm-hit-rate movement for an untouched tenant, in points.
const MAX_HIT_RATE_DELTA: f64 = 0.05;
/// The baseline rules for `--check`.
const GATE: Gate = {
    const RATE: Rule = Rule::Points {
        max: MAX_HIT_RATE_DELTA,
    };
    Gate {
        bin: "delta_churn",
        counters: &[],
        other_counters: Some(Rule::Exact),
        fields: &[
            ("warm_hit_rate_pre", RATE),
            ("warm_hit_rate_post", RATE),
            ("warm_hit_rate_reload", RATE),
            (
                "apply_delta_ms",
                Rule::Band {
                    tol: 0.30,
                    grace: 0.0,
                    floor: Some(10.0),
                },
            ),
        ],
    }
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, out) = take_flag(&args, "--out");
    let (args, check) = take_flag(&args, "--check");
    let (args, structures) = take_flag(&args, "--structures");
    if !args.is_empty() {
        eprintln!("usage: delta_churn [--structures N] [--check BASELINE.json] [--out FILE]");
        return ExitCode::from(2);
    }
    let n = match structures {
        Some(s) => match s.parse::<usize>() {
            // The churn targets tail-length ids, so the tail must hold them.
            Ok(v) if v / 10 >= TAIL_LENS.len() * CHURN => v,
            _ => {
                eprintln!(
                    "bad --structures {s:?} (need an integer >= {})",
                    10 * TAIL_LENS.len() * CHURN
                );
                return ExitCode::from(2);
            }
        },
        None => CHECK_SIZE,
    };
    let out = out.unwrap_or_else(|| "DELTA_CHURN.json".to_string());

    let (snapshot, pass) = run_churn(n);
    GATE.finish(&snapshot, pass, &out, check.as_deref())
}

/// Resolve hits to `(token sequence, distance)` so indexes with different
/// id numberings (delta'd vs compacted rebuild) can be compared.
fn resolved(
    index: &StructureIndex,
    hits: &[speakql_index::SearchHit],
) -> Vec<(Vec<StructTokId>, u32)> {
    hits.iter()
        .map(|h| (index.structure_tokens(h.structure).to_vec(), h.distance))
        .collect()
}

/// Replay every probe as a cache lookup under `generation`, returning the
/// hit rate of exactly this window (measured through the recorder).
fn replay_hit_rate(
    cache: &SkeletonCache,
    generation: u64,
    cfg: &SearchConfig,
    qs: &[Vec<StructTokId>],
    rec: &Recorder,
) -> f64 {
    let h0 = rec.counter(CounterId::CacheSkeletonHits);
    for q in qs {
        cache.get(generation, cfg, q, rec);
    }
    let hits = rec.counter(CounterId::CacheSkeletonHits) - h0;
    hits as f64 / qs.len() as f64
}

/// The CHURN length-CHURN_LEN structures the churn tombstones (tail slots
/// CHURN_LEN_SLOT mod 8) in a space whose dominant length holds `dom`.
fn churned_ids(dom: usize) -> Vec<u32> {
    (0..CHURN)
        .map(|j| (dom + TAIL_LENS.len() * j + CHURN_LEN_SLOT) as u32)
        .collect()
}

/// The "one table changed" delta: tombstone [`churned_ids`] and append
/// `adds`.
fn churn_delta(dom: usize, adds: &[Structure]) -> IndexDelta {
    IndexDelta::new()
        .remove_structures(churned_ids(dom))
        .add_structures(adds.iter().cloned())
}

/// Best-of-7 apply time of the churn on the loaded image of a space
/// [`GROWTH`] times the size of `structures`, grown only at the dominant
/// length: its tail — the churned length included — is `structures`'.
fn grown_apply_ms(structures: &[Structure], adds: &[Structure]) -> Result<f64, String> {
    let tail = &structures[structures.len() - structures.len() / 10..];
    let dom = GROWTH * structures.len() - tail.len();
    let grown: Vec<Structure> = (0..dom as u64)
        .map(|i| encode(i, DOMINANT_LEN))
        .chain(tail.iter().cloned())
        .collect();
    let image =
        to_bytes(&StructureIndex::build(grown, Weights::PAPER)).map_err(|e| e.to_string())?;
    let base = from_shared(image).map_err(|e| e.to_string())?;
    let delta = churn_delta(dom, adds);
    let (ms, applied) = best_of(7, || base.apply_delta(&delta));
    applied.map_err(|e| e.to_string())?;
    Ok(ms)
}

/// Run the churn workload. Returns the snapshot and whether every in-run
/// gate held.
fn run_churn(n: usize) -> (Value, bool) {
    let mut pass = true;
    let mut gate = |ok: bool, msg: String| {
        if !ok {
            eprintln!("[delta_churn] FAIL: {msg}");
            pass = false;
        }
    };

    eprintln!("[delta_churn] === {n} structures, churn {CHURN}±{CHURN} at length {CHURN_LEN} ===");
    let structures = structures(n);
    let qs = queries(&structures, QUERY_SEED);
    let dom = n - n / 10;

    let t = Instant::now();
    let built = StructureIndex::build(structures.clone(), Weights::PAPER);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    // Deltas apply to the *loaded* index — the shape a deployment actually
    // maintains incrementally (build is offline; serving loads an image).
    let base_image = match to_bytes(&built) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("[delta_churn] FAIL: serialize base: {e}");
            return (json!({"structures": n, "error": e.to_string()}), false);
        }
    };
    let base = match from_shared(base_image.clone()) {
        Ok(ix) => ix,
        Err(e) => {
            eprintln!("[delta_churn] FAIL: load base: {e}");
            return (json!({"structures": n, "error": e.to_string()}), false);
        }
    };
    eprintln!(
        "[delta_churn] base build {build_ms:.0} ms, {} segments",
        base.segment_count()
    );

    // The "one table changed" delta: CHURN new length-CHURN_LEN structures,
    // payloads far above any existing encoding, replace CHURN old ones.
    let adds: Vec<Structure> = (0..CHURN)
        .map(|j| encode(1_000_000 + j as u64, CHURN_LEN))
        .collect();
    let delta = churn_delta(dom, &adds);
    let remove = churned_ids(dom);

    // One apply for the index and its stats, then best-of-7 timing (apply
    // is ~1 ms, so the extra attempts are cheap insurance against a
    // noisy-neighbor minute on the CI runner).
    let (delta_idx, stats) = match base.apply_delta(&delta) {
        Ok(r) => r,
        Err(e) => {
            gate(false, format!("apply_delta: {e}"));
            return (json!({"structures": n, "error": e.to_string()}), false);
        }
    };
    let (apply_ms, _) = best_of(7, || base.apply_delta(&delta));
    let grown_ms = match grown_apply_ms(&structures, &adds) {
        Ok(ms) => ms,
        Err(e) => {
            gate(false, format!("grown-arena apply: {e}"));
            f64::INFINITY
        }
    };
    eprintln!(
        "[delta_churn] apply {apply_ms:.2} ms at {n} structures, {grown_ms:.2} ms at {}",
        GROWTH * n
    );
    gate(
        grown_ms < MAX_GROWN_APPLY_RATIO * apply_ms,
        format!(
            "apply grows with the arena: {grown_ms:.2} ms at {} structures vs {apply_ms:.2} ms \
             at {n} (need < {MAX_GROWN_APPLY_RATIO:.0}x)",
            GROWTH * n
        ),
    );

    // Full rebuild over the live structures: what incremental maintenance
    // replaces. Assembling the live list (and the per-attempt clone
    // `build` consumes) stays outside the clock — a rebuilding deployment
    // would hold the structure list already.
    let mut is_removed = vec![false; n];
    for &id in &remove {
        is_removed[id as usize] = true;
    }
    let mut live: Vec<Structure> = structures
        .iter()
        .enumerate()
        .filter(|(id, _)| !is_removed[*id])
        .map(|(_, s)| s.clone())
        .collect();
    live.extend(adds.iter().cloned());
    let (rebuild_ms, rebuilt) = {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..2 {
            let input = live.clone();
            let t = Instant::now();
            let ix = StructureIndex::build(input, Weights::PAPER);
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
            out = Some(ix);
        }
        let Some(out) = out else {
            unreachable!("two rebuild attempts always run");
        };
        (best, out)
    };
    let speedup = rebuild_ms / apply_ms.max(1e-9);
    eprintln!(
        "[delta_churn] apply {apply_ms:.1} ms vs rebuild {rebuild_ms:.0} ms ({speedup:.1}x); \
         {} rebuilt / {} reused of {} segments",
        stats.segments_rebuilt,
        stats.segments_reused,
        delta_idx.segment_count()
    );
    gate(
        speedup >= MIN_DELTA_SPEEDUP,
        format!(
            "apply_delta only {speedup:.1}x faster than rebuild (need >= {MIN_DELTA_SPEEDUP:.0}x)"
        ),
    );

    // Counter-proof: one affected length, every segment accounted for,
    // reuse fraction at the floor.
    gate(
        stats.lengths_affected == 1,
        format!("{} lengths affected (want 1)", stats.lengths_affected),
    );
    gate(
        stats.structures_removed == CHURN && stats.structures_added == CHURN,
        format!(
            "churn miscounted: -{} +{}",
            stats.structures_removed, stats.structures_added
        ),
    );
    gate(
        stats.segments_rebuilt + stats.segments_reused == delta_idx.segment_count(),
        "segments_rebuilt + segments_reused != segment_count".to_string(),
    );
    let reuse_fraction = stats.segments_reused as f64 / delta_idx.segment_count().max(1) as f64;
    gate(
        reuse_fraction >= MIN_REUSE_FRACTION,
        format!("only {:.1}% of segments reused", reuse_fraction * 100.0),
    );

    // Equivalence: same hits as the full rebuild, resolved to tokens (the
    // rebuild compacts ids; the delta keeps them — by design).
    let cfg = SearchConfig {
        k: 5,
        ..SearchConfig::default()
    };
    for q in &qs {
        if resolved(&delta_idx, &delta_idx.search(q, &cfg))
            != resolved(&rebuilt, &rebuilt.search(q, &cfg))
        {
            gate(
                false,
                "delta'd index hits differ from full rebuild".to_string(),
            );
            break;
        }
    }

    // Image round-trip: tombstones survive persistence with generation and
    // hits (ids included — zero-copy loads preserve the arena) intact.
    let image = match to_bytes(&delta_idx) {
        Ok(b) => b,
        Err(e) => {
            gate(false, format!("serialize delta'd index: {e}"));
            return (json!({"structures": n, "error": e.to_string()}), false);
        }
    };
    match from_shared(image.clone()) {
        Ok(loaded) => {
            gate(
                loaded.generation() == delta_idx.generation(),
                "image round-trip changed the generation".to_string(),
            );
            for q in &qs {
                if loaded.search(q, &cfg) != delta_idx.search(q, &cfg) {
                    gate(false, "image round-trip changed search results".to_string());
                    break;
                }
            }
        }
        Err(e) => gate(false, format!("image round-trip load: {e}")),
    }

    // Warm-cache churn: tenant A stays on the base index, tenant B
    // hot-swaps to the delta'd one. A's hit rate over the shared cache
    // must not move more than 5 points — and reloading A's image bytes
    // must keep hitting the same entries (content-derived generations).
    let cache = SkeletonCache::new(4 * QUERIES.max(1));
    let crec = Recorder::enabled();
    for q in &qs {
        if cache.get(base.generation(), &cfg, q, &crec).is_none() {
            cache.insert(base.generation(), &cfg, q, base.search(q, &cfg), &crec);
        }
    }
    let pre_rate = replay_hit_rate(&cache, base.generation(), &cfg, &qs, &crec);
    // Tenant B's swap: its searches populate the new generation's entries.
    for q in &qs {
        if cache.get(delta_idx.generation(), &cfg, q, &crec).is_none() {
            cache.insert(
                delta_idx.generation(),
                &cfg,
                q,
                delta_idx.search(q, &cfg),
                &crec,
            );
        }
    }
    let post_rate = replay_hit_rate(&cache, base.generation(), &cfg, &qs, &crec);
    gate(
        (post_rate - pre_rate).abs() <= MAX_HIT_RATE_DELTA,
        format!(
            "untouched tenant's warm hit rate moved {:.0} points across the churn",
            (post_rate - pre_rate).abs() * 100.0
        ),
    );
    // The restart path the content-derived generations fixed: same bytes,
    // same generation, same warm entries.
    let reload_rate = match from_shared(base_image.clone()) {
        Ok(reloaded) => {
            gate(
                reloaded.generation() == base.generation(),
                "reload of identical bytes derived a different generation".to_string(),
            );
            replay_hit_rate(&cache, reloaded.generation(), &cfg, &qs, &crec)
        }
        Err(e) => {
            gate(false, format!("reload of base image: {e}"));
            0.0
        }
    };
    gate(
        (reload_rate - pre_rate).abs() <= MAX_HIT_RATE_DELTA,
        format!(
            "reloaded index's warm hit rate moved {:.0} points",
            (reload_rate - pre_rate).abs() * 100.0
        ),
    );
    eprintln!(
        "[delta_churn] warm hit rate: pre {:.0}% / post-churn {:.0}% / post-reload {:.0}%",
        pre_rate * 100.0,
        post_rate * 100.0,
        reload_rate * 100.0
    );

    let mut counters = Map::new();
    counters.insert("index.delta.applied".into(), json!(1));
    counters.insert(
        "index.delta.segments_rebuilt".into(),
        json!(stats.segments_rebuilt as u64),
    );
    counters.insert(
        "index.delta.segments_reused".into(),
        json!(stats.segments_reused as u64),
    );
    counters.insert(
        "cache.skeleton_hits".into(),
        json!(crec.counter(CounterId::CacheSkeletonHits)),
    );
    counters.insert(
        "cache.skeleton_misses".into(),
        json!(crec.counter(CounterId::CacheSkeletonMisses)),
    );
    let snapshot = json!({
        "schema": "speakql-delta-churn/v1",
        "structures": n,
        "churn": CHURN,
        "churn_len": CHURN_LEN,
        "queries": QUERIES,
        "query_seed": QUERY_SEED,
        "segments_total": delta_idx.segment_count(),
        "build_ms": build_ms,
        "rebuild_ms": rebuild_ms,
        "apply_delta_ms": apply_ms,
        "grown_structures": GROWTH * n,
        "apply_delta_ms_grown": grown_ms,
        "delta_speedup": speedup,
        "image_bytes_v5": image.len(),
        "warm_hit_rate_pre": pre_rate,
        "warm_hit_rate_post": post_rate,
        "warm_hit_rate_reload": reload_rate,
        "counters": Value::Object(counters),
    });
    (snapshot, pass)
}

#[cfg(test)]
mod tests {
    use super::GATE;
    use serde_json::{json, Map, Value};

    const RATES: [&str; 3] = [
        "warm_hit_rate_pre",
        "warm_hit_rate_post",
        "warm_hit_rate_reload",
    ];

    fn baseline() -> Value {
        match serde_json::from_str(include_str!("../../../../results/delta_baseline.json")) {
            Ok(v) => v,
            Err(e) => panic!("results/delta_baseline.json does not parse: {e}"),
        }
    }

    fn number(base: &Value, key: &str) -> f64 {
        match base.get(key).and_then(Value::as_f64) {
            Some(x) => x,
            None => panic!("the baseline has no {key}"),
        }
    }

    /// The baseline's gated metrics, with `counter` and `field` (when
    /// given) set.
    fn run(base: &Value, counter: Option<(&str, u64)>, field: Option<(&str, f64)>) -> Value {
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
        for key in RATES.iter().chain(&["apply_delta_ms"]) {
            run.insert(key.to_string(), json!(number(base, key)));
        }
        if let Some((key, value)) = field {
            run.insert(key.to_string(), json!(value));
        }
        Value::Object(run)
    }

    #[test]
    fn committed_baseline_passes_against_itself() {
        let base = baseline();
        assert_eq!(GATE.check(&base, &base), 0);
        assert_eq!(GATE.check(&base, &run(&base, None, None)), 0);
    }

    #[test]
    fn every_counter_is_exact() {
        let base = baseline();
        let Some(counters) = base.get("counters").and_then(Value::as_object) else {
            panic!("the baseline has no counters");
        };
        assert!(!counters.is_empty());
        for (name, value) in counters.iter() {
            let Some(b) = value.as_u64() else {
                panic!("{name} is not an integer");
            };
            let passes = |c: u64| GATE.check(&base, &run(&base, Some((name, c)), None)) == 0;
            assert!(!passes(b + 1), "{name} one above baseline");
            assert!(!passes(b - 1), "{name} one below baseline");
        }
    }

    #[test]
    fn hit_rates_hold_five_points_either_side() {
        let base = baseline();
        for key in RATES {
            let b = number(&base, key);
            let passes = |rate: f64| GATE.check(&base, &run(&base, None, Some((key, rate)))) == 0;
            assert!(
                passes(b - 0.049) && passes(b + 0.049),
                "{key} inside 5 points"
            );
            assert!(
                !passes(b - 0.051) && !passes(b + 0.051),
                "{key} past 5 points"
            );
        }
    }

    #[test]
    fn apply_time_fails_past_thirty_percent_above_or_ten_x_below() {
        let base = baseline();
        let b = number(&base, "apply_delta_ms");
        let passes =
            |ms: f64| GATE.check(&base, &run(&base, None, Some(("apply_delta_ms", ms)))) == 0;
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let limit = b * 1.3;
        assert!(passes(limit));
        assert!(!passes(up(limit)));
        // The smallest apply time whose tenfold is not below the baseline.
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
