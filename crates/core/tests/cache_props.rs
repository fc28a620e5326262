//! Skeleton-cache property tests: an engine with the cross-query cache
//! enabled must be observationally identical to an uncached engine — same
//! candidates, byte for byte — for any transcript, at any engine thread
//! count, with BDB pruning on or off, and under eviction churn.
//!
//! Both engines share one [`StructureIndex`] via [`SpeakQl::with_index`] so
//! the comparison isolates the cache itself.

use proptest::prelude::*;
use speakql_core::{
    Candidate, CounterId, SpeakQl, SpeakQlConfig, SpeakQlError, SpeakQlResult, Transcription,
};
use speakql_db::{Column, Database, Table, TableSchema, Value, ValueType};
use speakql_index::StructureIndex;
use std::sync::{Arc, OnceLock};

/// Word pool the transcript generator draws from: keywords, schema terms,
/// misrecognitions, and literals — enough variety to produce distinct
/// masked skeletons and phonetic votes.
const WORDS: &[&str] = &[
    "select",
    "salary",
    "from",
    "employees",
    "where",
    "first",
    "name",
    "equals",
    "john",
    "greater",
    "than",
    "70000",
    "and",
    "sum",
    "open",
    "parenthesis",
    "close",
    "star",
    "employee",
    "number",
    "in",
    "salaries",
    "sales",
    "employers",
    "wear",
];

fn toy_db() -> Database {
    let mut db = Database::new("toy");
    let mut emp = Table::new(TableSchema::new(
        "Employees",
        vec![
            Column::new("EmployeeNumber", ValueType::Int),
            Column::new("FirstName", ValueType::Text),
            Column::new("Salary", ValueType::Int),
        ],
    ));
    emp.push_row(vec![
        Value::Int(1),
        Value::Text("John".into()),
        Value::Int(70000),
    ]);
    emp.push_row(vec![
        Value::Int(2),
        Value::Text("Perla".into()),
        Value::Int(80000),
    ]);
    db.add_table(emp);
    let mut sal = Table::new(TableSchema::new(
        "Salaries",
        vec![
            Column::new("EmployeeNumber", ValueType::Int),
            Column::new("salary", ValueType::Int),
        ],
    ));
    sal.push_row(vec![Value::Int(1), Value::Int(70000)]);
    db.add_table(sal);
    db
}

/// One structure index shared by every engine in this file, so cached and
/// uncached runs search the exact same arena.
fn shared_index() -> Arc<StructureIndex> {
    static INDEX: OnceLock<Arc<StructureIndex>> = OnceLock::new();
    INDEX
        .get_or_init(|| {
            let cfg = SpeakQlConfig::small();
            Arc::new(StructureIndex::from_grammar(&cfg.generator, cfg.weights))
        })
        .clone()
}

/// Comparable view of a transcription result: the candidate list on
/// success, the typed error otherwise.
fn view(r: &SpeakQlResult<Transcription>) -> Result<&[Candidate], &SpeakQlError> {
    r.as_ref().map(|t| t.candidates.as_slice())
}

fn transcripts_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        proptest::collection::vec(0..WORDS.len(), 1..10)
            .prop_map(|idxs| idxs.iter().map(|&i| WORDS[i]).collect::<Vec<_>>().join(" ")),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every engine thread count in {1, 2, 8} and BDB on/off, a cached
    /// engine returns byte-identical candidates to an uncached one — on the
    /// first (miss) pass, and again on a fully warm second pass where every
    /// skeleton resolves from the cache.
    #[test]
    fn cached_equals_uncached_across_threads_and_bdb(transcripts in transcripts_strategy()) {
        let db = toy_db();
        let batch: Vec<&str> = transcripts
            .iter()
            .chain(transcripts.iter())
            .map(String::as_str)
            .collect();
        for &threads in &[1usize, 2, 8] {
            for &bdb in &[true, false] {
                let mut cfg = SpeakQlConfig::small()
                    .with_threads(threads)
                    .with_observability(true);
                cfg.search.bdb = bdb;
                let uncached = SpeakQl::with_index(&db, shared_index(), cfg.clone());
                let cached =
                    SpeakQl::with_index(&db, shared_index(), cfg.with_cache_capacity(64));

                let expect = uncached.transcribe_batch(&batch);
                let first = cached.transcribe_batch(&batch);
                let warm = cached.transcribe_batch(&batch);
                for ((e, f), w) in expect.iter().zip(&first).zip(&warm) {
                    prop_assert_eq!(view(e), view(f),
                        "cold cache diverged (threads={}, bdb={})", threads, bdb);
                    prop_assert_eq!(view(e), view(w),
                        "warm cache diverged (threads={}, bdb={})", threads, bdb);
                }
                // The warm pass must actually have been served by the cache.
                let hits = cached.report().counter(CounterId::CacheSkeletonHits);
                prop_assert!(hits > 0, "no cache hits (threads={}, bdb={})", threads, bdb);
            }
        }
    }
}

/// A capacity-2 cache thrashed by four distinct skeletons keeps evicting and
/// re-filling, and every answer — hit, miss, or post-eviction recompute —
/// still matches the uncached engine exactly.
#[test]
fn eviction_churn_preserves_results() {
    // Four structurally distinct transcripts: their masked skeletons differ,
    // so cycling them through a 2-entry cache forces continual eviction.
    let queries = [
        "select salary from employees",
        "select salary from employees where first name equals john",
        "select salary from employees where salary greater than 70000 and first name equals john",
        "select sum open parenthesis salary close parenthesis from employees",
    ];
    let db = toy_db();
    let cfg = SpeakQlConfig::small()
        .with_threads(1)
        .with_observability(true);
    let uncached = SpeakQl::with_index(&db, shared_index(), cfg.clone());
    let cached = SpeakQl::with_index(&db, shared_index(), cfg.with_cache_capacity(2));

    for round in 0..3 {
        for q in &queries {
            let e = uncached.transcribe(q);
            let c = cached.transcribe(q);
            assert_eq!(
                view(&e),
                view(&c),
                "round {round}: cached result diverged for {q:?}"
            );
        }
    }

    let report = cached.report();
    let evictions = report.counter(CounterId::CacheSkeletonEvictions);
    let misses = report.counter(CounterId::CacheSkeletonMisses);
    assert!(
        evictions > 0,
        "four skeletons cycling through a 2-entry cache must evict (got {evictions})"
    );
    assert!(
        misses >= queries.len() as u64,
        "each distinct skeleton must miss at least once (got {misses})"
    );
}

/// Regression for the rebuild-the-world invalidation bug: generations used
/// to come from a process-global counter, so an engine over a *byte-identical
/// reload* of the same index image keyed the shared cache differently and
/// started cold. Content-derived generations make the reloaded engine hit
/// the warm entries its predecessor populated.
#[test]
fn reload_of_same_bytes_preserves_cache_hits() {
    let db = toy_db();
    let cfg = SpeakQlConfig::small().with_threads(1);
    let query = "select salary from employees where first name equals john";
    let bytes = speakql_index::to_bytes(&shared_index()).expect("serialize index");

    let cache = Arc::new(speakql_core::SkeletonCache::new(64));
    let recorder = speakql_core::Recorder::enabled();

    let first_load = Arc::new(speakql_index::from_shared(bytes.clone()).expect("load index"));
    let engine = SpeakQl::with_shared_cache(
        &db,
        first_load,
        cache.clone(),
        recorder.clone(),
        cfg.clone(),
    );
    let expect = engine.transcribe(query);
    assert!(
        !cache.is_empty(),
        "first transcription must populate the shared cache"
    );
    let hits_before = recorder.counter(CounterId::CacheSkeletonHits);
    drop(engine);

    // "Restart": a fresh load of the same bytes, a fresh engine, the
    // surviving cache.
    let second_load = Arc::new(speakql_index::from_shared(bytes).expect("reload index"));
    let reloaded = SpeakQl::with_shared_cache(&db, second_load, cache, recorder.clone(), cfg);
    let warm = reloaded.transcribe(query);
    assert_eq!(view(&expect), view(&warm));
    assert!(
        recorder.counter(CounterId::CacheSkeletonHits) > hits_before,
        "reloaded engine must be served by the warm cache, not recompute"
    );
}

/// A delta that tombstones only the last arena slot holds the same live ids
/// in the same segments as its compacted rebuild, so the two share a
/// generation: an engine over the delta replays, through a shared cache,
/// the hits an engine over the rebuild left there, and answers exactly like
/// an engine with no cache.
#[test]
fn tail_tombstoned_delta_replays_its_rebuilds_cache() {
    let db = toy_db();
    let cfg = SpeakQlConfig::small().with_threads(1);
    let base = shared_index();
    let last = base.arena_len() as u32 - 1;
    let delta = speakql_index::IndexDelta::new().remove_structures([last]);
    let (tail, _) = base.apply_delta(&delta).expect("apply delta");
    let live: Vec<_> = (0..last).map(|id| tail.structure(id)).collect();
    let rebuilt = StructureIndex::build(live, tail.weights());
    assert_eq!(tail.generation(), rebuilt.generation());

    let queries = [
        "select salary from employees",
        "select salary from employees where first name equals john",
        "select sum open parenthesis salary close parenthesis from employees",
    ];
    let cache = Arc::new(speakql_core::SkeletonCache::new(64));
    let recorder = speakql_core::Recorder::enabled();
    let warm = SpeakQl::with_shared_cache(
        &db,
        Arc::new(rebuilt),
        cache.clone(),
        recorder.clone(),
        cfg.clone(),
    );
    for q in &queries {
        assert!(warm.transcribe(q).is_ok(), "{q:?}");
    }
    drop(warm);
    let hits_before = recorder.counter(CounterId::CacheSkeletonHits);
    let misses_before = recorder.counter(CounterId::CacheSkeletonMisses);

    let tail = Arc::new(tail);
    let on_tail =
        SpeakQl::with_shared_cache(&db, tail.clone(), cache, recorder.clone(), cfg.clone());
    let cacheless = SpeakQl::with_index(&db, tail, cfg.with_cache_capacity(0));
    for q in &queries {
        assert_eq!(
            view(&on_tail.transcribe(q)),
            view(&cacheless.transcribe(q)),
            "{q:?}"
        );
    }
    assert!(
        recorder.counter(CounterId::CacheSkeletonHits) > hits_before,
        "the delta's engine must be served by the rebuild's warm entries"
    );
    assert_eq!(
        recorder.counter(CounterId::CacheSkeletonMisses),
        misses_before,
        "every lookup of the delta's engine must hit"
    );
}

/// A delta'd index behind a cached engine is observationally identical to a
/// full rebuild over its live structures behind an uncached engine — and the
/// delta'd generation differs from the base's, so the shared cache never
/// serves pre-delta hits against the post-delta arena.
#[test]
fn delta_and_rebuild_engines_agree_with_cache_on_and_off() {
    let db = toy_db();
    let base = shared_index();
    let victims: Vec<u32> = (0..40).map(|i| i * 7).collect();
    let delta = speakql_index::IndexDelta::new().remove_structures(victims.iter().copied());
    let (delta_idx, stats) = base.apply_delta(&delta).expect("apply delta");
    assert!(stats.segments_reused > 0);
    assert_ne!(delta_idx.generation(), base.generation());

    let live: Vec<_> = (0..delta_idx.arena_len() as u32)
        .filter(|&id| !delta_idx.is_removed(id))
        .map(|id| delta_idx.structure(id))
        .collect();
    let rebuilt_idx = StructureIndex::build(live, delta_idx.weights());

    let queries = [
        "select salary from employees",
        "select salary from employees where first name equals john",
        "select sum open parenthesis salary close parenthesis from employees",
    ];
    for cache_capacity in [0usize, 64] {
        let cfg = SpeakQlConfig::small()
            .with_threads(1)
            .with_cache_capacity(cache_capacity);
        let on_delta = SpeakQl::with_index(&db, Arc::new(delta_idx.clone()), cfg.clone());
        let on_rebuilt = SpeakQl::with_index(&db, Arc::new(rebuilt_idx.clone()), cfg);
        for round in 0..2 {
            for q in &queries {
                let d = on_delta.transcribe(q);
                let r = on_rebuilt.transcribe(q);
                assert_eq!(
                    view(&d),
                    view(&r),
                    "round {round}, cache={cache_capacity}: delta'd engine diverged for {q:?}"
                );
            }
        }
    }
}
