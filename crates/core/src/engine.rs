//! The end-to-end SpeakQL engine (paper Fig. 2).
//!
//! `ASR transcription → SplChar handling + masking → structure search →
//! literal determination → ranked SQL candidates`, with clause-level
//! transcription (§5) and the one-level nested-query heuristic (App. F.8).

use crate::cache::SkeletonCache;
use crate::catalog::PhoneticCatalog;
use crate::error::{panic_message, SpeakQlError, SpeakQlResult};
use crate::literal::{FilledLiteral, LiteralConfig, LiteralFinder, WindowEncodings};
use speakql_db::Database;
use speakql_editdist::{Dist, Weights};
use speakql_grammar::{
    generate_clause_structures, process_transcript, tokenize_transcript, ClauseKind,
    GeneratorConfig, ProcessedTranscript, Structure,
};
use speakql_index::{SearchConfig, SearchHit, SearchStats, StructureIndex};
use speakql_observe::{CounterId, PipelineReport, Recorder, SpanId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Fault-injection hook for robustness testing: when set on a
/// [`SpeakQlConfig`], the hook runs against each raw transcript before the
/// pipeline does. A hook that panics simulates a poisoned input — the engine
/// must contain the panic to a per-transcript
/// [`SpeakQlError::WorkerPanic`] instead of unwinding into the caller or
/// aborting a batch. The CI fault-injection harness is the intended user;
/// production configurations leave this unset.
#[derive(Clone)]
pub struct FaultHook(Arc<dyn Fn(&str) + Send + Sync>);

impl FaultHook {
    /// Wrap a closure to run against every transcript before transcription.
    pub fn new(hook: impl Fn(&str) + Send + Sync + 'static) -> FaultHook {
        FaultHook(Arc::new(hook))
    }

    /// Run the hook against one transcript.
    pub fn fire(&self, transcript: &str) {
        (self.0)(transcript)
    }
}

impl std::fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FaultHook(..)")
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SpeakQlConfig {
    /// Structure-space caps for the offline generator (§3.2).
    pub generator: GeneratorConfig,
    /// Search configuration (top-k, BDB/DAP).
    pub search: SearchConfig,
    /// Edit-operation weights (§3.4).
    pub weights: Weights,
    /// Literal-determination window and alternative count (§4).
    pub literal: LiteralConfig,
    /// Worker threads behind [`SpeakQl::transcribe_batch`]: `1` (the
    /// default) transcribes a batch sequentially, `0` means one worker per
    /// available core. This is the engine's only thread knob: every
    /// transcription, batched or not, runs its search and candidate
    /// construction on the thread that called it.
    pub threads: usize,
    /// Record pipeline observability metrics (stage latencies, search and
    /// voting work counters) into the engine's [`Recorder`], retrievable via
    /// [`SpeakQl::report`]. `false` (the default) makes every metric hook a
    /// no-op; the transcriptions produced are identical either way.
    pub observe: bool,
    /// Capacity (in entries) of the cross-query [`SkeletonCache`] memoizing
    /// structure-search results by masked skeleton. `0` (the default)
    /// disables caching entirely — every search walks the index, exactly as
    /// before the cache existed. The cache is shared by [`SpeakQl::transcribe`]
    /// and [`SpeakQl::transcribe_batch`]; clause-level transcription never
    /// consults it (clause indexes hold different structure arenas).
    pub cache_capacity: usize,
    /// Upper bound on transcript length in words. The structure search is
    /// quadratic in transcript length, so a pathologically long input could
    /// monopolize a worker for minutes; anything longer than this cap is
    /// rejected up front with [`SpeakQlError::TranscriptTooLong`]. The
    /// default (1024) is two orders of magnitude above the longest query the
    /// paper's workloads dictate.
    pub max_transcript_words: usize,
    /// Fault-injection hook for robustness testing; `None` (the default) in
    /// any real configuration. See [`FaultHook`].
    pub fault_hook: Option<FaultHook>,
}

impl SpeakQlConfig {
    /// The paper's configuration: full structure space, top-5 candidates,
    /// BDB on, approximations off.
    pub fn paper() -> SpeakQlConfig {
        SpeakQlConfig {
            generator: GeneratorConfig::paper(),
            search: SearchConfig {
                k: 5,
                ..SearchConfig::default()
            },
            weights: Weights::PAPER,
            literal: LiteralConfig::default(),
            threads: 1,
            observe: false,
            cache_capacity: 0,
            max_transcript_words: 1024,
            fault_hook: None,
        }
    }

    /// Medium structure space — same phenomena, CI-friendly latency.
    pub fn medium() -> SpeakQlConfig {
        SpeakQlConfig {
            generator: GeneratorConfig::medium(),
            ..SpeakQlConfig::paper()
        }
    }

    /// Small structure space for unit tests.
    pub fn small() -> SpeakQlConfig {
        SpeakQlConfig {
            generator: GeneratorConfig::small(),
            ..SpeakQlConfig::paper()
        }
    }

    /// This configuration with `threads` engine workers.
    pub fn with_threads(mut self, threads: usize) -> SpeakQlConfig {
        self.threads = threads;
        self
    }

    /// This configuration with metric recording switched on or off.
    pub fn with_observability(mut self, observe: bool) -> SpeakQlConfig {
        self.observe = observe;
        self
    }

    /// This configuration with a skeleton-result cache of `capacity` entries
    /// (`0` disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> SpeakQlConfig {
        self.cache_capacity = capacity;
        self
    }

    /// This configuration with a transcript word cap of `max` words.
    pub fn with_max_transcript_words(mut self, max: usize) -> SpeakQlConfig {
        self.max_transcript_words = max;
        self
    }

    /// This configuration with a [`FaultHook`] installed (robustness tests
    /// only).
    pub fn with_fault_hook(mut self, hook: FaultHook) -> SpeakQlConfig {
        self.fault_hook = Some(hook);
        self
    }

    /// The engine worker count this configuration resolves to (`0` = all
    /// cores).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }
}

impl Default for SpeakQlConfig {
    fn default() -> Self {
        SpeakQlConfig::paper()
    }
}

/// One candidate corrected query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The corrected SQL text.
    pub sql: String,
    /// The structure it was built from.
    pub structure: Structure,
    /// Filled literals, one per placeholder.
    pub literals: Vec<FilledLiteral>,
    /// The structure's weighted edit distance from `MaskOut`.
    pub distance: Dist,
}

/// Per-stage wall-clock breakdown of one transcription (Fig. 2's pipeline
/// stages), all measured on the one thread that ran it: `literal` and
/// `render` sum over the candidates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Transcript tokenization, SplChar handling, and masking (§3.3).
    pub tokenize: Duration,
    /// Structure search over the trie index (§3.4).
    pub search: Duration,
    /// Literal determination for every candidate (§4).
    pub literal: Duration,
    /// SQL rendering for every candidate.
    pub render: Duration,
}

impl StageTimings {
    /// Sum of all stage timings.
    pub fn total(&self) -> Duration {
        self.tokenize + self.search + self.literal + self.render
    }
}

impl std::ops::Add for StageTimings {
    type Output = StageTimings;

    fn add(self, rhs: StageTimings) -> StageTimings {
        StageTimings {
            tokenize: self.tokenize + rhs.tokenize,
            search: self.search + rhs.search,
            literal: self.literal + rhs.literal,
            render: self.render + rhs.render,
        }
    }
}

/// The result of transcribing one spoken query.
#[derive(Debug, Clone)]
pub struct Transcription {
    /// The raw input transcript.
    pub transcript: String,
    /// The processed transcript (after SplChar handling and masking).
    pub processed: ProcessedTranscript,
    /// Ranked candidates, best first. Always non-empty: an engine whose
    /// index is empty returns [`SpeakQlError::EmptyIndex`] instead of a
    /// candidate-less transcription.
    pub candidates: Vec<Candidate>,
    /// End-to-end latency of this transcription.
    pub elapsed: Duration,
    /// Per-stage latency breakdown.
    pub stages: StageTimings,
}

impl Transcription {
    /// The best corrected SQL, if any.
    pub fn best_sql(&self) -> Option<&str> {
        self.candidates.first().map(|c| c.sql.as_str())
    }
}

/// The SpeakQL engine: a structure index plus a phonetic catalog.
pub struct SpeakQl {
    index: Arc<StructureIndex>,
    /// Built from the database's rows, so engines over one database (a
    /// tenant re-registered over a new index) can share it.
    catalog: Arc<PhoneticCatalog>,
    config: SpeakQlConfig,
    /// Lazily built per-clause indexes for clause-level dictation, one slot
    /// per [`ClauseKind`] in declaration order. Each slot initializes once,
    /// so building one kind's index never stalls another kind's lookup.
    clause_indexes: [OnceLock<StructureIndex>; 4],
    /// Pipeline metric registry; a no-op unless [`SpeakQlConfig::observe`].
    recorder: Recorder,
    /// Cross-query skeleton-result cache; `None` unless
    /// [`SpeakQlConfig::cache_capacity`] is non-zero. Only ever consulted for
    /// searches against the main index — clause indexes hold different
    /// structure arenas, so their hits must never share keys with the main
    /// index's.
    skeleton_cache: Option<Arc<SkeletonCache>>,
}

impl SpeakQl {
    /// Build an engine for a database (generates and indexes the structure
    /// space — expensive for the paper-scale configuration; reuse the engine
    /// across queries).
    pub fn new(db: &Database, config: SpeakQlConfig) -> SpeakQl {
        let index = Arc::new(StructureIndex::from_grammar(
            &config.generator,
            config.weights,
        ));
        SpeakQl::with_index(db, index, config)
    }

    /// Build an engine around a structure index persisted at `path`,
    /// loading it through the zero-copy validate-then-borrow path (see
    /// `speakql_index::persist`): no per-node rebuild, O(segments)
    /// validation plus linear checksums. The new engine's recorder counts
    /// the load (`index.load.zero_copy`) and the segments it validated
    /// (`index.load.segments_validated`). Load failures surface as the
    /// typed [`SpeakQlError::IndexLoad`], carrying the persist layer's
    /// stable error class; with no engine built, no recorder holds them.
    pub fn with_persisted_index(
        db: &Database,
        path: impl AsRef<std::path::Path>,
        config: SpeakQlConfig,
    ) -> SpeakQlResult<SpeakQl> {
        let index = speakql_index::load_from_path(path).map_err(|e| SpeakQlError::IndexLoad {
            class: e.class(),
            message: e.to_string(),
        })?;
        let engine = SpeakQl::with_index(db, Arc::new(index), config);
        engine.recorder.incr(CounterId::IndexLoadZeroCopy);
        engine.recorder.add(
            CounterId::IndexLoadSegments,
            engine.index.segment_count() as u64,
        );
        Ok(engine)
    }

    /// Build an engine around a pre-built structure index (lets experiments
    /// share one index across many databases/configs).
    pub fn with_index(db: &Database, index: Arc<StructureIndex>, config: SpeakQlConfig) -> SpeakQl {
        SpeakQl {
            index,
            catalog: Arc::new(PhoneticCatalog::build(db)),
            recorder: Recorder::new(config.observe),
            skeleton_cache: (config.cache_capacity > 0)
                .then(|| Arc::new(SkeletonCache::new(config.cache_capacity))),
            config,
            clause_indexes: Default::default(),
        }
    }

    /// Build an engine around a pre-built structure index *and* an existing
    /// skeleton cache shared with other engines. Entries are keyed by the
    /// index's [`generation`](StructureIndex::generation), so engines over
    /// indexes with equal generations (the same `Arc<StructureIndex>`, a
    /// reload of its image) reuse each other's warm search results, while
    /// engines over indexes that answer differently can never collide.
    ///
    /// The caller also supplies the [`Recorder`], so a fleet of engines can
    /// aggregate metrics into one report (the multi-tenant server does).
    /// [`SpeakQlConfig::cache_capacity`] and [`SpeakQlConfig::observe`] are
    /// ignored here: the shared cache's capacity and the passed recorder's
    /// enabled-ness govern.
    pub fn with_shared_cache(
        db: &Database,
        index: Arc<StructureIndex>,
        cache: Arc<SkeletonCache>,
        recorder: Recorder,
        config: SpeakQlConfig,
    ) -> SpeakQl {
        let catalog = Arc::new(PhoneticCatalog::build(db));
        SpeakQl::with_shared_catalog(catalog, index, cache, recorder, config)
    }

    /// [`SpeakQl::with_shared_cache`] over an already-built phonetic
    /// catalog — another engine's ([`SpeakQl::catalog`]) when the database
    /// is unchanged and only the index moved, which skips rebuilding the
    /// catalog from every row.
    pub fn with_shared_catalog(
        catalog: Arc<PhoneticCatalog>,
        index: Arc<StructureIndex>,
        cache: Arc<SkeletonCache>,
        recorder: Recorder,
        config: SpeakQlConfig,
    ) -> SpeakQl {
        SpeakQl {
            index,
            catalog,
            recorder,
            skeleton_cache: Some(cache),
            config,
            clause_indexes: Default::default(),
        }
    }

    /// The structure index the engine searches.
    pub fn index(&self) -> &StructureIndex {
        &self.index
    }

    /// The phonetic catalog literals are voted from.
    pub fn catalog(&self) -> &Arc<PhoneticCatalog> {
        &self.catalog
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &SpeakQlConfig {
        &self.config
    }

    /// The engine's metric recorder (disabled unless
    /// [`SpeakQlConfig::observe`] was set).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The engine's skeleton-result cache, or `None` when
    /// [`SpeakQlConfig::cache_capacity`] is `0`.
    pub fn skeleton_cache(&self) -> Option<&SkeletonCache> {
        self.skeleton_cache.as_deref()
    }

    /// Snapshot every pipeline counter and stage-latency histogram recorded
    /// so far. All-zero when observability is off.
    pub fn report(&self) -> PipelineReport {
        self.recorder.report()
    }

    /// Transcribe a raw ASR transcript into ranked corrected-SQL candidates.
    /// Applies the nested-query heuristic when the transcript contains a
    /// second SELECT (App. F.8).
    ///
    /// Never panics: malformed input is classified into a typed
    /// [`SpeakQlError`] (empty transcript, transcript over the word cap,
    /// empty index), and any panic a pipeline worker raises is contained at
    /// this boundary and returned as [`SpeakQlError::WorkerPanic`]. Each
    /// error class increments its `engine.errors.*` counter.
    pub fn transcribe(&self, transcript: &str) -> SpeakQlResult<Transcription> {
        self.contain(|| self.transcribe_checked(transcript))
    }

    /// Transcribe many transcripts on a bounded worker pool of
    /// [`SpeakQlConfig::threads`] threads. Output order matches input order,
    /// and each result is identical to the corresponding
    /// [`SpeakQl::transcribe`] call — the queries are independent, so this
    /// is pure inter-query parallelism, and each worker runs whole
    /// transcriptions exactly as [`SpeakQl::transcribe`] does.
    ///
    /// Failure is contained per slot: a transcript that panics a worker (or
    /// fails validation) yields an `Err` in its own output position while
    /// every other slot completes normally — one poisoned transcript can
    /// never abort the batch.
    pub fn transcribe_batch(&self, transcripts: &[&str]) -> Vec<SpeakQlResult<Transcription>> {
        // An empty batch must not spin up (or even size) the worker pool.
        if transcripts.is_empty() {
            return Vec::new();
        }
        let workers = self.config.effective_threads().min(transcripts.len());
        // Queue-wait clock: jobs are submitted all at once, so a job's wait
        // is the time from here until a worker dequeues it.
        let submitted = self.recorder.is_enabled().then(Instant::now);
        let cursor = AtomicUsize::new(0);
        let per_worker: Vec<Vec<(usize, SpeakQlResult<Transcription>)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut done = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(t) = transcripts.get(i) else { break };
                                if let Some(t0) = submitted {
                                    self.recorder
                                        .record_duration(SpanId::BatchQueueWait, t0.elapsed());
                                }
                                self.recorder.incr(CounterId::BatchJobs);
                                // Per-slot containment happens inside
                                // `transcribe`; a poisoned transcript leaves
                                // this loop (and thread) alive.
                                done.push((i, self.transcribe(t)));
                            }
                            done
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    // A worker can only die from a panic escaping the
                    // containment boundary (e.g. inside the recorder). Treat
                    // its lost slots as worker panics below rather than
                    // aborting the surviving ones.
                    .map(|h| h.join().unwrap_or_default())
                    .collect()
            });
        let mut slots: Vec<Option<SpeakQlResult<Transcription>>> =
            (0..transcripts.len()).map(|_| None).collect();
        for (i, t) in per_worker.into_iter().flatten() {
            // panic-safe: `i` is an index into `transcripts` assigned at
            // fan-out, and `slots` has exactly `transcripts.len()` entries.
            slots[i] = Some(t);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    let e = SpeakQlError::WorkerPanic {
                        message: "batch worker terminated before completing this slot".to_string(),
                    };
                    self.recorder.incr(e.counter());
                    Err(e)
                })
            })
            .collect()
    }

    /// Containment boundary shared by every public transcription entry
    /// point: runs `work` under `catch_unwind`, converts an escaped panic to
    /// [`SpeakQlError::WorkerPanic`], and counts every error class.
    fn contain(
        &self,
        work: impl FnOnce() -> SpeakQlResult<Transcription>,
    ) -> SpeakQlResult<Transcription> {
        // AssertUnwindSafe: the engine's shared state is monotone atomics,
        // the skeleton cache's shard mutexes (each critical section is one
        // map operation, and a poisoned shard is recovered) and the
        // clause-index `OnceLock`s (a panicking initializer leaves its slot
        // empty); a contained panic can leave them mid-update only in ways
        // the next call tolerates.
        let result = catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|payload| {
            Err(SpeakQlError::WorkerPanic {
                message: panic_message(payload),
            })
        });
        if let Err(e) = &result {
            self.recorder.incr(e.counter());
        }
        result
    }

    /// Input validation plus the full pipeline; panics raised below here are
    /// contained by [`SpeakQl::contain`].
    fn transcribe_checked(&self, transcript: &str) -> SpeakQlResult<Transcription> {
        if let Some(hook) = &self.config.fault_hook {
            hook.fire(transcript);
        }
        let start = Instant::now();
        let words = tokenize_transcript(transcript);
        self.validate(&words)?;
        if self.index.is_empty() {
            return Err(SpeakQlError::EmptyIndex);
        }
        let t = if let Some(result) = self.try_nested(transcript, &words, start) {
            self.recorder.incr(CounterId::NestedSplits);
            result
        } else {
            let mut t =
                self.transcribe_words(&words, &self.index, self.skeleton_cache.as_deref(), start);
            t.transcript = transcript.to_string();
            t
        };
        self.recorder.incr(CounterId::Transcriptions);
        self.recorder.record_duration(SpanId::Transcribe, t.elapsed);
        Ok(t)
    }

    /// Shared transcript validation: word presence and the length cap.
    fn validate(&self, words: &[String]) -> SpeakQlResult<()> {
        if words.is_empty() {
            return Err(SpeakQlError::EmptyTranscript);
        }
        if words.len() > self.config.max_transcript_words {
            return Err(SpeakQlError::TranscriptTooLong {
                words: words.len(),
                max: self.config.max_transcript_words,
            });
        }
        Ok(())
    }

    /// Clause-level transcription (§5): search only the structures of one
    /// clause kind, e.g. re-dictating just the WHERE clause. Shares
    /// [`SpeakQl::transcribe`]'s error contract: typed errors, contained
    /// panics, never an unwind into the caller.
    pub fn transcribe_clause(
        &self,
        clause: ClauseKind,
        transcript: &str,
    ) -> SpeakQlResult<Transcription> {
        self.contain(|| {
            if let Some(hook) = &self.config.fault_hook {
                hook.fire(transcript);
            }
            let start = Instant::now();
            let words = tokenize_transcript(transcript);
            self.validate(&words)?;
            let index = self.clause_index(clause);
            if index.is_empty() {
                return Err(SpeakQlError::EmptyIndex);
            }
            let mut t = self.transcribe_words(&words, index, None, start);
            t.transcript = transcript.to_string();
            self.recorder.incr(CounterId::Transcriptions);
            self.recorder.record_duration(SpanId::Transcribe, t.elapsed);
            Ok(t)
        })
    }

    fn clause_index(&self, clause: ClauseKind) -> &StructureIndex {
        self.clause_indexes[clause as usize].get_or_init(|| {
            let structures = generate_clause_structures(&self.config.generator, clause);
            StructureIndex::build(structures, self.config.weights)
        })
    }

    /// Core pipeline over pre-tokenized transcript words. `cache` is the
    /// skeleton-result cache to consult for the structure search, or `None`
    /// when the results would not be reusable (clause-level indexes, or
    /// caching disabled).
    fn transcribe_words(
        &self,
        words: &[String],
        index: &StructureIndex,
        cache: Option<&SkeletonCache>,
        start: Instant,
    ) -> Transcription {
        let mut stages = StageTimings::default();

        let t0 = Instant::now();
        let processed = process_transcript(words);
        stages.tokenize = t0.elapsed();

        let search_cfg = &self.config.search;
        let t1 = Instant::now();
        let generation = index.generation();
        let cached =
            cache.and_then(|c| c.get(generation, search_cfg, &processed.masked, &self.recorder));
        let hits = match cached {
            Some(hits) => hits,
            None => {
                let (hits, stats) = index.search_with_stats(&processed.masked, search_cfg);
                record_search(&self.recorder, &stats);
                if let Some(c) = cache {
                    c.insert(
                        generation,
                        search_cfg,
                        &processed.masked,
                        hits.clone(),
                        &self.recorder,
                    );
                }
                hits
            }
        };
        stages.search = t1.elapsed();

        // One window-encoding memo per transcription: the top-k candidates
        // repeatedly enumerate the same transcript windows.
        let encodings = WindowEncodings::new();
        let candidates: Vec<Candidate> = hits
            .into_iter()
            .map(|hit| self.build_candidate(index, &processed, &encodings, hit, &mut stages))
            .collect();

        self.recorder
            .add(CounterId::CandidatesBuilt, candidates.len() as u64);
        self.recorder
            .record_duration(SpanId::Tokenize, stages.tokenize);
        self.recorder.record_duration(SpanId::Search, stages.search);
        self.recorder
            .record_duration(SpanId::Literal, stages.literal);
        self.recorder.record_duration(SpanId::Render, stages.render);

        Transcription {
            transcript: words.join(" "),
            processed,
            candidates,
            elapsed: start.elapsed(),
            stages,
        }
    }

    /// Build one candidate from a search hit: literal determination plus SQL
    /// rendering, with both stages timed into `stages`.
    fn build_candidate(
        &self,
        index: &StructureIndex,
        processed: &ProcessedTranscript,
        encodings: &WindowEncodings,
        hit: SearchHit,
        stages: &mut StageTimings,
    ) -> Candidate {
        let finder = LiteralFinder::new(&self.catalog, self.config.literal)
            .with_recorder(self.recorder.clone())
            .with_encodings(encodings);
        let structure = index.structure(hit.structure);
        let t0 = Instant::now();
        let literals = finder.fill_aligned(
            &processed.words,
            &processed.masked,
            &structure,
            self.config.weights,
        );
        stages.literal += t0.elapsed();
        let t1 = Instant::now();
        let sql = render_candidate(&structure, &literals);
        stages.render += t1.elapsed();
        Candidate {
            sql,
            structure,
            literals,
            distance: hit.distance,
        }
    }

    /// Nested-query heuristic (App. F.8): if a second SELECT appears, split
    /// the transcript there, transcribe inner and outer independently, and
    /// splice the inner SQL into the placeholder the outer assigned to the
    /// subquery span.
    fn try_nested(
        &self,
        transcript: &str,
        words: &[String],
        start: Instant,
    ) -> Option<Transcription> {
        let selects: Vec<usize> = words
            .iter()
            .enumerate()
            .filter(|(_, w)| w.eq_ignore_ascii_case("select"))
            .map(|(i, _)| i)
            .collect();
        if selects.len() < 2 {
            return None;
        }
        let split = selects[1];
        // Guard: a real nested query has a non-trivial inner body and an
        // outer predicate context; two adjacent SELECTs in word soup do not.
        if split < 4 || words.len() - split < 4 {
            return None;
        }
        // The inner query runs to the end, minus a trailing close-paren.
        let mut inner_words: Vec<String> = words[split..].to_vec();
        if matches!(
            inner_words.last().map(String::as_str),
            Some(")") | Some("close")
        ) {
            inner_words.pop();
            if matches!(inner_words.last().map(String::as_str), Some("close")) {
                inner_words.pop();
            }
        }
        // Strip "close parenthesis" / ")" remnants.
        while matches!(
            inner_words.last().map(String::as_str),
            Some("parenthesis") | Some("close") | Some(")")
        ) {
            inner_words.pop();
        }
        // The outer query replaces the subquery span with a sentinel literal
        // inside parentheses.
        let mut outer_words: Vec<String> = words[..split].to_vec();
        // Drop an immediately preceding open-paren (spoken or symbolic) —
        // we re-add it around the sentinel.
        while matches!(
            outer_words.last().map(String::as_str),
            Some("(") | Some("open") | Some("parenthesis")
        ) {
            outer_words.pop();
        }
        const SENTINEL: &str = "subqueryplaceholder";
        outer_words.push("(".to_string());
        outer_words.push(SENTINEL.to_string());
        outer_words.push(")".to_string());

        let cache = self.skeleton_cache.as_deref();
        let inner = self.transcribe_words(&inner_words, &self.index, cache, Instant::now());
        let outer = self.transcribe_words(&outer_words, &self.index, cache, Instant::now());
        let inner_sql = inner.best_sql()?.to_string();

        // Splice: in each outer candidate, the placeholder whose window
        // contains the sentinel becomes the parenthesized inner query.
        let sentinel_pos = outer.processed.words.iter().position(|w| w == SENTINEL)?;
        let candidates: Vec<Candidate> = outer
            .candidates
            .into_iter()
            .map(|mut c| {
                let target = c
                    .literals
                    .iter()
                    .position(|f| f.window.0 <= sentinel_pos && sentinel_pos < f.window.1)
                    .unwrap_or_else(|| c.literals.len().saturating_sub(1));
                // Subqueries are only valid in value position (`IN (...)` or
                // the right side of a comparison); leave other candidates
                // unspliced rather than render invalid SQL.
                let is_value_slot = c
                    .structure
                    .placeholders
                    .get(target)
                    .map(|p| matches!(p.category, speakql_grammar::LitCategory::Value))
                    .unwrap_or(false);
                if !is_value_slot {
                    return c;
                }
                // Wrap in parentheses only if the structure does not already
                // parenthesize this placeholder (e.g. `IN ( x )`).
                let already_parenthesized = c
                    .structure
                    .var_positions()
                    .nth(target)
                    .map(|(tok_pos, _)| {
                        use speakql_grammar::{SplChar, StructTok};
                        let prev = tok_pos.checked_sub(1).map(|p| c.structure.tokens[p].tok());
                        let next = c.structure.tokens.get(tok_pos + 1).map(|t| t.tok());
                        matches!(prev, Some(StructTok::SplChar(SplChar::LParen)))
                            && matches!(next, Some(StructTok::SplChar(SplChar::RParen)))
                    })
                    .unwrap_or(false);
                if let Some(f) = c.literals.get_mut(target) {
                    f.literal = if already_parenthesized {
                        inner_sql.clone()
                    } else {
                        format!("( {inner_sql} )")
                    };
                    f.alternatives.clear();
                }
                c.sql = render_candidate(&c.structure, &c.literals);
                c
            })
            .collect();

        Some(Transcription {
            transcript: transcript.to_string(),
            processed: outer.processed,
            candidates,
            elapsed: start.elapsed(),
            stages: inner.stages + outer.stages,
        })
    }
}

/// Publish one search's work into `recorder`: the index returns its
/// [`SearchStats`], and the engine owns the counters.
fn record_search(recorder: &Recorder, stats: &SearchStats) {
    recorder.add(CounterId::SearchNodesVisited, stats.nodes_visited);
    recorder.add(
        CounterId::SearchTriesSearched,
        u64::from(stats.tries_searched),
    );
    recorder.add(CounterId::SearchTriesPruned, u64::from(stats.tries_pruned));
    recorder.add(CounterId::EditDistCells, stats.cells_evaluated);
    recorder.add(
        CounterId::SearchShardsSearched,
        u64::from(stats.shards_searched),
    );
    recorder.add(
        CounterId::SearchShardsPruned,
        u64::from(stats.shards_pruned),
    );
}

/// Render a structure with filled literals to SQL text.
fn render_candidate(structure: &Structure, literals: &[FilledLiteral]) -> String {
    let lits: Vec<String> = literals.iter().map(|f| f.literal.clone()).collect();
    let tokens = structure.bind(&lits);
    speakql_grammar::render_tokens(&tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_db::{Column, Table, TableSchema, Value, ValueType};

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

    fn engine() -> &'static SpeakQl {
        static E: std::sync::OnceLock<SpeakQl> = std::sync::OnceLock::new();
        E.get_or_init(|| SpeakQl::new(&toy_db(), SpeakQlConfig::small()))
    }

    /// Assert-unwrap a transcription result with a readable failure message.
    fn ok(r: SpeakQlResult<Transcription>) -> Transcription {
        match r {
            Ok(t) => t,
            Err(e) => panic!("transcription failed: {e}"),
        }
    }

    /// Assert-unwrap the best candidate SQL.
    fn best(t: &Transcription) -> &str {
        match t.best_sql() {
            Some(s) => s,
            None => panic!("transcription produced no candidates"),
        }
    }

    #[test]
    fn end_to_end_running_example() {
        // Fig. 2: "select sales from employers wear name equals Jon" →
        // SELECT Salary FROM Employees WHERE FirstName = 'John' (our toy
        // schema's nearest equivalents).
        let t = ok(engine().transcribe("select sales from employers wear first name equals jon"));
        assert_eq!(
            best(&t),
            "SELECT Salary FROM Employees WHERE FirstName = 'John'"
        );
    }

    #[test]
    fn perfect_transcript_roundtrips() {
        let t = ok(engine().transcribe("select salary from salaries"));
        // The toy schema has both Employees.Salary and Salaries.salary; the
        // lexicographic tie-break picks the capitalized one.
        assert_eq!(best(&t), "SELECT Salary FROM Salaries");
        assert_eq!(t.candidates[0].distance, 0);
    }

    #[test]
    fn top_k_candidates_ranked() {
        let t = ok(engine().transcribe("select salary from employees"));
        assert_eq!(t.candidates.len(), 5);
        for w in t.candidates.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn clause_level_where_dictation() {
        let t =
            ok(engine().transcribe_clause(ClauseKind::Where, "where salary greater than 70000"));
        let best = best(&t);
        assert!(best.starts_with("WHERE"), "got {best}");
        assert!(best.contains('>'), "got {best}");
    }

    #[test]
    fn clause_level_select_dictation() {
        let t = ok(engine().transcribe_clause(
            ClauseKind::Select,
            "select sum open parenthesis salary close parenthesis",
        ));
        assert_eq!(best(&t), "SELECT SUM ( Salary )");
    }

    #[test]
    fn concurrent_clause_dictation_matches_sequential() {
        let dictations = [
            (
                ClauseKind::Select,
                "select sum open parenthesis salary close parenthesis",
            ),
            (ClauseKind::From, "from employees natural join salaries"),
            (ClauseKind::Where, "where salary greater than 70000"),
            (ClauseKind::Tail, "order by salary limit five"),
        ];
        let answers = |e: &SpeakQl, kind: ClauseKind, text: &str| -> Vec<(String, Dist)> {
            let t = ok(e.transcribe_clause(kind, text));
            t.candidates
                .iter()
                .map(|c| (c.sql.clone(), c.distance))
                .collect()
        };
        let sequential: Vec<_> = dictations
            .iter()
            .map(|&(kind, text)| answers(engine(), kind, text))
            .collect();
        // A fresh engine, and a barrier so all four dictations start
        // together: each clause index is built while the other kinds' are
        // being built or searched.
        let fresh = &SpeakQl::with_index(
            &toy_db(),
            Arc::clone(&engine().index),
            SpeakQlConfig::small(),
        );
        let start = &std::sync::Barrier::new(dictations.len());
        let concurrent: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = dictations
                .iter()
                .map(|&(kind, text)| {
                    scope.spawn(move || {
                        start.wait();
                        answers(fresh, kind, text)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(a) => a,
                    Err(_) => panic!("a dictation thread panicked"),
                })
                .collect()
        });
        assert_eq!(concurrent, sequential);
        assert!(sequential.iter().all(|a| !a.is_empty()));
    }

    #[test]
    fn nested_query_heuristic() {
        let t = ok(engine().transcribe(
            "select first name from employees where employee number in open parenthesis \
             select employee number from salaries where salary greater than 70000 close parenthesis",
        ));
        let best = best(&t);
        assert!(best.contains("IN ( SELECT"), "got: {best}");
        assert!(best.ends_with(')'), "got: {best}");
        // The inner query must itself be well-formed.
        assert!(best.matches("SELECT").count() == 2, "got: {best}");
    }

    #[test]
    fn empty_transcript_is_a_typed_error() {
        assert!(matches!(
            engine().transcribe(""),
            Err(SpeakQlError::EmptyTranscript)
        ));
        assert!(matches!(
            engine().transcribe("   \t  \n "),
            Err(SpeakQlError::EmptyTranscript)
        ));
        assert!(matches!(
            engine().transcribe_clause(ClauseKind::Where, ""),
            Err(SpeakQlError::EmptyTranscript)
        ));
    }

    #[test]
    fn overlong_transcript_is_rejected_up_front() {
        let engine = SpeakQl::new(
            &toy_db(),
            SpeakQlConfig::small().with_max_transcript_words(8),
        );
        let long = "select salary from employees where first name equals john or salary";
        match engine.transcribe(long) {
            Err(SpeakQlError::TranscriptTooLong { words, max }) => {
                assert_eq!(words, 11);
                assert_eq!(max, 8);
            }
            other => panic!("expected TranscriptTooLong, got {other:?}"),
        }
        // At or below the cap the pipeline runs normally.
        let t = ok(engine.transcribe("select salary from employees"));
        assert!(!t.candidates.is_empty());
    }

    #[test]
    fn latency_is_recorded() {
        let t = ok(engine().transcribe("select salary from salaries"));
        assert!(t.elapsed > Duration::ZERO);
    }

    #[test]
    fn stage_timings_are_recorded() {
        let t =
            ok(engine().transcribe("select salary from employees where first name equals john"));
        assert!(t.stages.search > Duration::ZERO);
        assert!(t.stages.literal > Duration::ZERO);
        assert!(t.stages.total() <= t.elapsed);
    }

    fn par_engine() -> &'static SpeakQl {
        static E: std::sync::OnceLock<SpeakQl> = std::sync::OnceLock::new();
        E.get_or_init(|| SpeakQl::new(&toy_db(), SpeakQlConfig::small().with_threads(4)))
    }

    #[test]
    fn empty_batch_returns_empty_without_worker_pool() {
        // Regression: an empty slice must short-circuit before the pool is
        // even sized, on both the sequential and the parallel engine.
        assert!(engine().transcribe_batch(&[]).is_empty());
        assert!(par_engine().transcribe_batch(&[]).is_empty());
    }

    #[test]
    fn batch_of_one_matches_single_transcribe() {
        let t = "select salary from employees";
        let mut batch = par_engine().transcribe_batch(&[t]);
        assert_eq!(batch.len(), 1);
        let only = ok(batch.remove(0));
        assert_eq!(only.candidates, ok(engine().transcribe(t)).candidates);
    }

    #[test]
    fn poisoned_transcript_fails_its_own_batch_slot_only() {
        // A fault hook that panics on one marker transcript simulates a
        // pipeline worker blowing up mid-batch.
        let engine = SpeakQl::new(
            &toy_db(),
            SpeakQlConfig::small()
                .with_threads(4)
                .with_fault_hook(FaultHook::new(|t| {
                    assert!(!t.contains("poison"), "injected fault");
                })),
        );
        let transcripts = [
            "select salary from employees",
            "select salary from salaries",
            "select poison from employees",
            "select first name from employees",
            "select employee number from salaries",
        ];
        let batch = engine.transcribe_batch(&transcripts);
        assert_eq!(batch.len(), transcripts.len(), "every slot must be filled");
        for (i, slot) in batch.iter().enumerate() {
            if i == 2 {
                match slot {
                    Err(SpeakQlError::WorkerPanic { message }) => {
                        assert!(message.contains("injected fault"), "{message}");
                    }
                    other => panic!("slot 2 should be WorkerPanic, got {other:?}"),
                }
            } else {
                let t = match slot {
                    Ok(t) => t,
                    Err(e) => panic!("slot {i} should succeed, got {e}"),
                };
                assert_eq!(t.transcript, transcripts[i], "input-order output");
                assert!(!t.candidates.is_empty());
            }
        }
    }

    #[test]
    fn contained_panic_is_a_typed_error_on_single_calls() {
        let engine = SpeakQl::new(
            &toy_db(),
            SpeakQlConfig::small().with_fault_hook(FaultHook::new(|_| panic!("kaboom"))),
        );
        match engine.transcribe("select salary from employees") {
            Err(SpeakQlError::WorkerPanic { message }) => assert_eq!(message, "kaboom"),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert!(matches!(
            engine.transcribe_clause(ClauseKind::Where, "where salary greater than 70000"),
            Err(SpeakQlError::WorkerPanic { .. })
        ));
    }

    #[test]
    fn error_counters_classify_failures() {
        let engine = SpeakQl::new(
            &toy_db(),
            SpeakQlConfig::small()
                .with_observability(true)
                .with_max_transcript_words(4),
        );
        let _ = engine.transcribe("");
        let _ = engine.transcribe("   ");
        let _ = engine.transcribe("select salary from employees where salary");
        let report = engine.report();
        assert_eq!(report.counter(CounterId::ErrorsEmptyTranscript), 2);
        assert_eq!(report.counter(CounterId::ErrorsTranscriptTooLong), 1);
        assert_eq!(report.counter(CounterId::ErrorsEmptyIndex), 0);
        assert_eq!(report.counter(CounterId::ErrorsWorkerPanic), 0);
        // Failed calls never count as completed transcriptions.
        assert_eq!(report.counter(CounterId::Transcriptions), 0);
    }

    fn observed_engine() -> &'static SpeakQl {
        static E: std::sync::OnceLock<SpeakQl> = std::sync::OnceLock::new();
        E.get_or_init(|| SpeakQl::new(&toy_db(), SpeakQlConfig::small().with_observability(true)))
    }

    #[test]
    fn observed_engine_produces_identical_output() {
        for t in [
            "select salary from employees",
            "select sales from employers wear first name equals jon",
        ] {
            let plain = ok(engine().transcribe(t));
            let observed = ok(observed_engine().transcribe(t));
            assert_eq!(plain.candidates, observed.candidates, "transcript: {t:?}");
            assert_eq!(plain.processed, observed.processed, "transcript: {t:?}");
        }
        assert!(matches!(
            observed_engine().transcribe(""),
            Err(SpeakQlError::EmptyTranscript)
        ));
    }

    #[test]
    fn report_reflects_pipeline_work() {
        let engine = SpeakQl::new(&toy_db(), SpeakQlConfig::small().with_observability(true));
        assert!(engine.recorder().is_enabled());
        let t = ok(engine.transcribe("select salary from employees where first name equals john"));
        let report = engine.report();
        assert_eq!(report.counter(CounterId::Transcriptions), 1);
        assert!(report.counter(CounterId::VoteComparisons) > 0);
        assert_eq!(report.counter(CounterId::CandidatesBuilt), 5);
        // The cache is off, so this is the one search the engine ran: its
        // six search counters are exactly the stats the index returned.
        let (_, stats) = engine
            .index()
            .search_with_stats(&t.processed.masked, &engine.config().search);
        assert!(stats.nodes_visited > 0 && stats.cells_evaluated > 0);
        let published = [
            CounterId::SearchNodesVisited,
            CounterId::SearchTriesSearched,
            CounterId::SearchTriesPruned,
            CounterId::EditDistCells,
            CounterId::SearchShardsSearched,
            CounterId::SearchShardsPruned,
        ]
        .map(|id| report.counter(id));
        assert_eq!(
            published,
            [
                stats.nodes_visited,
                u64::from(stats.tries_searched),
                u64::from(stats.tries_pruned),
                stats.cells_evaluated,
                u64::from(stats.shards_searched),
                u64::from(stats.shards_pruned),
            ]
        );
        let search = match report.stage(SpanId::Search) {
            Some(s) => s,
            None => panic!("search stage missing from report"),
        };
        assert_eq!(search.count, 1);
        // Batch counters stay untouched outside transcribe_batch.
        assert_eq!(report.counter(CounterId::BatchJobs), 0);
    }

    #[test]
    fn disabled_recorder_reports_all_zero() {
        let report = engine().report();
        assert!(!engine().recorder().is_enabled());
        assert!(report.counters.iter().all(|c| c.total == 0));
        assert!(report.stages.iter().all(|s| s.count == 0));
    }

    #[test]
    fn batch_records_queue_waits() {
        let engine = SpeakQl::new(
            &toy_db(),
            SpeakQlConfig::small()
                .with_threads(4)
                .with_observability(true),
        );
        let transcripts = ["select salary from employees"; 6];
        let batch = engine.transcribe_batch(&transcripts);
        assert!(batch.iter().all(|r| r.is_ok()));
        let report = engine.report();
        assert_eq!(report.counter(CounterId::BatchJobs), 6);
        let waits = match report.stage(SpanId::BatchQueueWait) {
            Some(s) => s,
            None => panic!("queue-wait stage missing from report"),
        };
        assert_eq!(waits.count, 6);
        assert_eq!(report.counter(CounterId::Transcriptions), 6);
    }

    #[test]
    fn batch_output_order_matches_input_order() {
        let transcripts = [
            "select salary from employees",
            "select salary from salaries",
            "select first name from employees where salary greater than 70000",
            "",
            "select sales from employers wear first name equals jon",
            "select employee number from salaries",
            "select sum open parenthesis salary close parenthesis from salaries",
        ];
        let batch = par_engine().transcribe_batch(&transcripts);
        assert_eq!(batch.len(), transcripts.len());
        for (slot, t) in batch.iter().zip(&transcripts) {
            match engine().transcribe(t) {
                Ok(seq) => {
                    let b = match slot {
                        Ok(b) => b,
                        Err(e) => panic!("batch slot for {t:?} failed: {e}"),
                    };
                    assert_eq!(b.transcript, *t, "output order must match input order");
                    assert_eq!(b.candidates, seq.candidates, "transcript: {t:?}");
                }
                // The empty transcript's slot carries the same typed error
                // the sequential call returns.
                Err(seq_err) => assert_eq!(slot.as_ref().err(), Some(&seq_err)),
            }
        }
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;
    use speakql_db::{Column, Table, TableSchema, Value, ValueType};

    fn db() -> Database {
        let mut db = Database::new("cfg");
        let mut t = Table::new(TableSchema::new(
            "Employees",
            vec![
                Column::new("Name", ValueType::Text),
                Column::new("Salary", ValueType::Int),
            ],
        ));
        t.push_row(vec![Value::Text("John".into()), Value::Int(70000)]);
        db.add_table(t);
        db
    }

    fn engine_with(search: SearchConfig) -> SpeakQl {
        SpeakQl::new(
            &db(),
            SpeakQlConfig {
                search,
                ..SpeakQlConfig::small()
            },
        )
    }

    /// Assert-unwrap a transcription result with a readable failure message.
    fn ok(r: SpeakQlResult<Transcription>) -> Transcription {
        match r {
            Ok(t) => t,
            Err(e) => panic!("transcription failed: {e}"),
        }
    }

    #[test]
    fn engine_runs_under_every_search_mode() {
        let transcript = "select salary from employees where name equals john";
        let expected = "SELECT Salary FROM Employees WHERE Name = 'John'";
        for dap in [false, true] {
            let engine = engine_with(SearchConfig {
                k: 3,
                bdb: true,
                dap,
            });
            let t = ok(engine.transcribe(transcript));
            assert_eq!(t.best_sql(), Some(expected), "dap={dap}");
        }
    }

    #[test]
    fn k_controls_candidate_count() {
        for k in [1usize, 2, 5] {
            let engine = engine_with(SearchConfig {
                k,
                ..SearchConfig::default()
            });
            let t = ok(engine.transcribe("select salary from employees"));
            assert_eq!(t.candidates.len(), k);
        }
    }

    #[test]
    fn alternatives_surface_for_ambiguous_literals() {
        let engine = engine_with(SearchConfig::top_k(1));
        // A window containing both attribute sounds: votes split between
        // Name and Salary, so the loser surfaces as a keyboard suggestion.
        let t = ok(engine.transcribe("select salary name from employees"));
        let c = &t.candidates[0];
        let attr = &c.literals[0];
        let mut seen = vec![attr.literal.clone()];
        seen.extend(attr.alternatives.clone());
        assert!(seen.contains(&"Salary".to_string()), "{seen:?}");
        assert!(seen.contains(&"Name".to_string()), "{seen:?}");
    }
}
