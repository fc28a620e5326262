//! # speakql-observe
//!
//! Zero-dependency observability for the SpeakQL pipeline: thread-safe
//! [counters](CounterId) and fixed-bucket latency [histograms](Histogram)
//! (p50/p95/p99) per [span](SpanId), and a serializable [`PipelineReport`]
//! — all behind a cheaply clonable [`Recorder`] handle that is a strict
//! no-op when disabled.
//!
//! The recorder belongs to the layers that own a request: the engine
//! (`speakql-core`) and the server. Nothing below them holds one. The
//! structure index returns its work as values (`SearchStats`, `DeltaStats`,
//! the loaded index's segment count), and the skeleton cache and the literal
//! finder return theirs too. One transcription adds all of it into one
//! [`Tally`], plain integers keyed by [`CounterId`], and the engine
//! publishes a finished transcription once: [`Recorder::absorb`] for its
//! tally, one span sample per stage.
//!
//! ```
//! use speakql_observe::{CounterId, Recorder, SpanId, Tally};
//! use std::time::Duration;
//!
//! let mut work = Tally::default();
//! work.add(CounterId::SearchNodesVisited, 42);
//! work.incr(CounterId::Transcriptions);
//!
//! let rec = Recorder::enabled();
//! rec.absorb(&work);
//! rec.record_duration(SpanId::Search, Duration::from_micros(120));
//! let report = rec.report();
//! assert_eq!(report.counter(CounterId::SearchNodesVisited), 42);
//! assert!(report.to_json().contains("search.nodes_visited"));
//!
//! // Disabled recorders never touch the clock or any atomic.
//! let off = Recorder::disabled();
//! off.absorb(&work);
//! assert_eq!(off.report().counter(CounterId::SearchNodesVisited), 0);
//! ```

#![forbid(unsafe_code)]

pub mod hist;
pub mod recorder;
pub mod report;
pub mod tally;

pub use hist::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use recorder::Recorder;
pub use report::{CounterReport, PipelineReport, StageReport};
pub use tally::Tally;

/// Work counters recorded by the pipeline. Each id names one monotonically
/// increasing total; the set is closed so the registry can be a fixed array
/// of atomics with no allocation or hashing on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CounterId {
    /// Trie nodes whose DP column was computed during structure search.
    SearchNodesVisited,
    /// Token lengths with at least one trie shard walked.
    SearchTriesSearched,
    /// Token lengths none of whose trie shards was walked (BDB's count
    /// bound skipped them all).
    SearchTriesPruned,
    /// Weighted-LCS DP cells evaluated by the trie search workspaces.
    EditDistCells,
    /// Phonetic distance comparisons made by literal voting.
    VoteComparisons,
    /// Candidate strings enumerated for literal voting windows.
    VoteEnumerations,
    /// Candidates constructed (literal determination + rendering).
    CandidatesBuilt,
    /// Full transcriptions completed.
    Transcriptions,
    /// Transcriptions executed through the batch worker pool.
    BatchJobs,
    /// Transcripts split by the nested-query heuristic.
    NestedSplits,
    /// Structure searches answered from the skeleton-result cache.
    CacheSkeletonHits,
    /// Structure searches that missed the skeleton-result cache.
    CacheSkeletonMisses,
    /// Entries evicted from the skeleton-result cache.
    CacheSkeletonEvictions,
    /// Literal votes resolved by an exact Metaphone-key bucket hit.
    PhoneticExactHits,
    /// Placeholder fills answered from the per-transcript fill memo instead
    /// of re-running window enumeration and voting.
    LiteralFillMemoHits,
    /// Transcriptions rejected because the transcript had no words.
    ErrorsEmptyTranscript,
    /// Transcriptions rejected because the transcript exceeded the word cap.
    ErrorsTranscriptTooLong,
    /// Transcriptions rejected because the structure index holds nothing.
    ErrorsEmptyIndex,
    /// Worker panics contained at the engine boundary and returned as
    /// typed errors instead of aborting the process.
    ErrorsWorkerPanic,
    /// Requests shed by server admission control because the bounded queue
    /// was full (graceful overload degradation, never unbounded queueing).
    ErrorsOverloaded,
    /// Requests that exceeded their latency budget (shed from the queue past
    /// their deadline, or completed too late to be useful).
    ErrorsTimeout,
    /// Requests accepted off the wire (or the in-process submit path) by the
    /// server front-end, before admission control.
    ServerRequests,
    /// Server-side retries of transcriptions that failed with a transient
    /// `WorkerPanic`; each retry attempt counts once.
    ServerRetries,
    /// Requests addressed to a tenant the registry does not know.
    ServerUnknownTenant,
    /// Wire-protocol violations (oversized, truncated, or malformed frames)
    /// observed by server connection handlers.
    ServerProtocolErrors,
    /// Trie shards (segment tries) actually walked during search. A length
    /// split into `s` shards contributes up to `s` here but at most one to
    /// [`CounterId::SearchTriesSearched`].
    SearchShardsSearched,
    /// Trie shards skipped by BDB's count bound before walking.
    SearchShardsPruned,
    /// Persisted indexes an engine loaded through the zero-copy
    /// validate-then-borrow path (every production load): no per-node trie
    /// rebuild occurred.
    IndexLoadZeroCopy,
    /// Trie segments bounds/checksum/structure-validated during zero-copy
    /// index loads.
    IndexLoadSegments,
}

/// Number of distinct [`CounterId`]s.
pub const COUNTER_COUNT: usize = CounterId::ALL.len();

impl CounterId {
    /// Every counter, in registry order.
    pub const ALL: [CounterId; 29] = [
        CounterId::SearchNodesVisited,
        CounterId::SearchTriesSearched,
        CounterId::SearchTriesPruned,
        CounterId::EditDistCells,
        CounterId::VoteComparisons,
        CounterId::VoteEnumerations,
        CounterId::CandidatesBuilt,
        CounterId::Transcriptions,
        CounterId::BatchJobs,
        CounterId::NestedSplits,
        CounterId::CacheSkeletonHits,
        CounterId::CacheSkeletonMisses,
        CounterId::CacheSkeletonEvictions,
        CounterId::PhoneticExactHits,
        CounterId::LiteralFillMemoHits,
        CounterId::ErrorsEmptyTranscript,
        CounterId::ErrorsTranscriptTooLong,
        CounterId::ErrorsEmptyIndex,
        CounterId::ErrorsWorkerPanic,
        CounterId::ErrorsOverloaded,
        CounterId::ErrorsTimeout,
        CounterId::ServerRequests,
        CounterId::ServerRetries,
        CounterId::ServerUnknownTenant,
        CounterId::ServerProtocolErrors,
        CounterId::SearchShardsSearched,
        CounterId::SearchShardsPruned,
        CounterId::IndexLoadZeroCopy,
        CounterId::IndexLoadSegments,
    ];

    /// Stable dotted name used in reports and `BENCH_*.json`.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::SearchNodesVisited => "search.nodes_visited",
            CounterId::SearchTriesSearched => "search.tries_searched",
            CounterId::SearchTriesPruned => "search.tries_pruned_bdb",
            CounterId::EditDistCells => "editdist.cells_evaluated",
            CounterId::VoteComparisons => "literal.vote_comparisons",
            CounterId::VoteEnumerations => "literal.strings_enumerated",
            CounterId::CandidatesBuilt => "engine.candidates_built",
            CounterId::Transcriptions => "engine.transcriptions",
            CounterId::BatchJobs => "engine.batch_jobs",
            CounterId::NestedSplits => "engine.nested_splits",
            CounterId::CacheSkeletonHits => "cache.skeleton_hits",
            CounterId::CacheSkeletonMisses => "cache.skeleton_misses",
            CounterId::CacheSkeletonEvictions => "cache.skeleton_evictions",
            CounterId::PhoneticExactHits => "phonetics.exact_hits",
            CounterId::LiteralFillMemoHits => "literal.fill_memo_hits",
            CounterId::ErrorsEmptyTranscript => "engine.errors.empty_transcript",
            CounterId::ErrorsTranscriptTooLong => "engine.errors.transcript_too_long",
            CounterId::ErrorsEmptyIndex => "engine.errors.empty_index",
            CounterId::ErrorsWorkerPanic => "engine.errors.worker_panic",
            CounterId::ErrorsOverloaded => "engine.errors.overloaded",
            CounterId::ErrorsTimeout => "engine.errors.timeout",
            CounterId::ServerRequests => "server.requests",
            CounterId::ServerRetries => "server.retries",
            CounterId::ServerUnknownTenant => "server.unknown_tenant",
            CounterId::ServerProtocolErrors => "server.protocol_errors",
            CounterId::SearchShardsSearched => "search.shards_searched",
            CounterId::SearchShardsPruned => "search.shards_pruned_bdb",
            CounterId::IndexLoadZeroCopy => "index.load.zero_copy",
            CounterId::IndexLoadSegments => "index.load.segments_validated",
        }
    }
}

/// Timed pipeline stages and sub-stages. Each id owns one latency
/// [`Histogram`] in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SpanId {
    /// Transcript tokenization, SplChar handling, and masking (§3.3).
    Tokenize,
    /// Structure search over the trie index (§3.4).
    Search,
    /// Literal determination across all candidates (§4).
    Literal,
    /// SQL rendering across all candidates.
    Render,
    /// End-to-end transcription latency.
    Transcribe,
    /// Time a batch job waited in the queue before a worker picked it up.
    BatchQueueWait,
    /// Time a server request waited in the admission queue before a worker
    /// dequeued it (the backpressure signal under load).
    ServerQueueWait,
    /// Server-side service time of one dequeued request, from dequeue to
    /// the response handed back: budget check, tenant lookup,
    /// transcription and any retries. Queue wait is
    /// [`SpanId::ServerQueueWait`] and is not included.
    ServerHandle,
}

/// Number of distinct [`SpanId`]s.
pub const SPAN_COUNT: usize = SpanId::ALL.len();

impl SpanId {
    /// Every span, in registry order.
    pub const ALL: [SpanId; 8] = [
        SpanId::Tokenize,
        SpanId::Search,
        SpanId::Literal,
        SpanId::Render,
        SpanId::Transcribe,
        SpanId::BatchQueueWait,
        SpanId::ServerQueueWait,
        SpanId::ServerHandle,
    ];

    /// Stable dotted name used in reports and `BENCH_*.json`.
    pub fn name(self) -> &'static str {
        match self {
            SpanId::Tokenize => "stage.tokenize",
            SpanId::Search => "stage.search",
            SpanId::Literal => "stage.literal",
            SpanId::Render => "stage.render",
            SpanId::Transcribe => "stage.transcribe",
            SpanId::BatchQueueWait => "engine.batch_queue_wait",
            SpanId::ServerQueueWait => "server.queue_wait",
            SpanId::ServerHandle => "server.handle",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_distinct() {
        for (i, &a) in CounterId::ALL.iter().enumerate() {
            assert_eq!(a as usize, i, "registry order must match discriminant");
            for b in &CounterId::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn span_names_are_distinct() {
        for (i, &a) in SpanId::ALL.iter().enumerate() {
            assert_eq!(a as usize, i, "registry order must match discriminant");
            for b in &SpanId::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
