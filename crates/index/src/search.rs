//! The SpeakQL Search Engine (paper §3.4, Box 2, App. D).
//!
//! Given `MaskOut`, find the `k` closest ground-truth structures under the
//! weighted LCS edit distance. The search walks the per-length tries with an
//! incremental DP column per node, prunes branches whose column minimum
//! already exceeds the current best, and — with **BDB** — skips whole tries
//! using Proposition 1's bidirectional bounds. The one approximation kept
//! here, **DAP** (diversity-aware pruning), is opt-in. The paper's other
//! accuracy–latency tradeoff, **INV** (inverted keyword index), lost to
//! exact search at every scale measured and lives in the experiment harness
//! (`speakql-bench`'s `experiments::inv`).

use crate::content::WordFold;
use crate::store::{ChunkBuilder, StructStore, Tombstones};
use crate::trie::{Planes, Trie, TrieBuilder, NONE};
use speakql_editdist::{
    lower_bound, weighted_lcs_distance, ColumnWorkspace, Dist, SoaWorkspace, Weights, DIST_INF,
    SOA_LANES,
};
use speakql_grammar::{generate_structures, GeneratorConfig, StructTok, StructTokId, Structure};
use speakql_observe::{CounterId, Recorder, SpanId};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

/// Target structures per trie shard. Each per-length trie is split into
/// `ceil(n / SHARD_TARGET)` shards (capped at [`MAX_SHARDS_PER_LEN`]) over
/// contiguous arena-id blocks, so one dominant length no longer serializes
/// `search_parallel`: the shards are independent work units sharing the
/// atomic branch-and-bound threshold. Sharding is deterministic from the
/// structure sequence alone, so a persisted index round-trips to the
/// byte-identical shard layout.
const SHARD_TARGET: usize = 8192;

/// Upper bound on shards per length; caps the prefix-duplication cost of
/// splitting (each shard re-roots its own copy of shared prefixes).
const MAX_SHARDS_PER_LEN: usize = 64;

/// Number of shards the `n` structures of one length are split into.
fn shard_count(n: usize) -> usize {
    n.div_ceil(SHARD_TARGET).clamp(1, MAX_SHARDS_PER_LEN)
}

/// Seal the shard tries over `ids` — the live structures of length `len`,
/// in arena order — split into [`shard_count`] contiguous blocks. The
/// layout depends only on `ids`, so [`StructureIndex::build`] and the delta
/// path produce identical segments for identical runs. Empty when `ids` is.
pub(crate) fn seal_shards(store: &StructStore, len: usize, ids: &[u32]) -> Vec<Trie> {
    if ids.is_empty() {
        return Vec::new();
    }
    let mut shards: Vec<TrieBuilder> = (0..shard_count(ids.len()))
        .map(|_| TrieBuilder::new(len))
        .collect();
    let block = ids.len().div_ceil(shards.len());
    for (i, &id) in ids.iter().enumerate() {
        shards[i / block].insert(store.tokens(id as usize), id);
    }
    shards.into_iter().map(TrieBuilder::seal).collect()
}

/// The DP column buffers one search worker walks a trie with: either the
/// scalar reference [`ColumnWorkspace`] or the branchless SoA
/// [`SoaWorkspace`]. The variant is chosen once per search (see
/// [`StructureIndex::workspace`]); both kernels produce byte-identical hits
/// and counters, so the choice is pure mechanism.
enum DpCols {
    Scalar(ColumnWorkspace),
    Soa(SoaWorkspace),
}

impl DpCols {
    /// Drain the DP-cell counter of whichever kernel ran.
    fn take_cells(&mut self) -> u64 {
        match self {
            DpCols::Scalar(ws) => ws.take_cells(),
            DpCols::Soa(ws) => ws.take_cells(),
        }
    }
}

/// A search hit: a structure id in the index arena and its distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchHit {
    pub structure: u32,
    pub distance: Dist,
}

/// Which DP kernel the trie walk runs. Both kernels compute the identical
/// weighted-LCS recurrence cell for cell — same hits, same counters — so
/// this knob trades nothing but mechanism: the SoA kernel batches sibling
/// columns into branchless u16 lanes the compiler auto-vectorizes, the
/// scalar kernel is the one-column-at-a-time reference implementation the
/// parity suite certifies it against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum DpKernel {
    /// Use the SoA kernel whenever the query is eligible (weights lower to
    /// u16 and the Proposition 1 ceiling fits a lane), the scalar kernel
    /// otherwise. The default.
    #[default]
    Auto,
    /// Always use the scalar reference kernel.
    Scalar,
}

/// Search configuration. Defaults mirror the paper's "SpeakQL Default":
/// bidirectional bounds on, DAP off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// How many closest structures to return (the paper reports top-1 and
    /// "best of" top-5 results).
    pub k: usize,
    /// Bidirectional Bounds trie skipping (accuracy-preserving).
    pub bdb: bool,
    /// Diversity-Aware Pruning over the prime superset (approximate).
    pub dap: bool,
    /// Worker threads for the trie walk. `1` (the default) is the fully
    /// sequential paper algorithm; `0` means one worker per available core.
    /// Parallel search partitions the per-length tries across workers and
    /// shares the branch-and-bound threshold through an atomic, so results
    /// are byte-identical to the sequential path at any thread count.
    pub threads: usize,
    /// DP kernel selection. Like `threads`, this never changes outputs —
    /// only how fast the columns are computed.
    pub kernel: DpKernel,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            k: 1,
            bdb: true,
            dap: false,
            threads: 1,
            kernel: DpKernel::Auto,
        }
    }
}

impl SearchConfig {
    /// Default configuration returning the k closest structures.
    pub fn top_k(k: usize) -> SearchConfig {
        SearchConfig {
            k,
            ..SearchConfig::default()
        }
    }

    /// This configuration with `threads` search workers.
    pub fn with_threads(self, threads: usize) -> SearchConfig {
        SearchConfig { threads, ..self }
    }

    /// This configuration with an explicit DP kernel.
    pub fn with_kernel(self, kernel: DpKernel) -> SearchConfig {
        SearchConfig { kernel, ..self }
    }

    /// The worker count this configuration resolves to (`0` = all cores).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }
}

/// Counters describing the work one search performed. In sequential mode
/// every field is a pure function of the index content, the query, and the
/// configuration: the same search on the same index always reports the same
/// stats. (Parallel searches prune on a threshold shared between workers,
/// so their counters depend on the schedule.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Trie nodes whose DP column was computed.
    pub nodes_visited: u64,
    /// Tries actually walked.
    pub tries_searched: u32,
    /// Tries skipped by the bidirectional bounds.
    pub tries_pruned: u32,
    /// Weighted-LCS DP cells evaluated by the trie-walk workspaces.
    pub cells_evaluated: u64,
    /// Trie shards actually walked. A length split into `s` shards can
    /// contribute up to `s` here but at most 1 to `tries_searched`.
    pub shards_searched: u32,
    /// Trie shards skipped by the bidirectional bounds.
    pub shards_pruned: u32,
}

impl SearchStats {
    /// Publish this search's work counters into a [`Recorder`].
    fn record_into(&self, recorder: &Recorder) {
        if !recorder.is_enabled() {
            return;
        }
        recorder.add(CounterId::SearchNodesVisited, self.nodes_visited);
        recorder.add(CounterId::SearchTriesSearched, self.tries_searched as u64);
        recorder.add(CounterId::SearchTriesPruned, self.tries_pruned as u64);
        recorder.add(CounterId::EditDistCells, self.cells_evaluated);
        recorder.add(CounterId::SearchShardsSearched, self.shards_searched as u64);
        recorder.add(CounterId::SearchShardsPruned, self.shards_pruned as u64);
    }
}

/// Bounded top-k accumulator ordered by `(distance, structure id)` — the
/// deterministic tie-break that makes trie search and brute-force scan
/// return identical results.
#[derive(Debug, Clone)]
struct TopK {
    k: usize,
    hits: Vec<SearchHit>,
}

impl TopK {
    fn new(k: usize) -> TopK {
        TopK {
            k: k.max(1),
            hits: Vec::with_capacity(k.max(1) + 1),
        }
    }

    fn key(h: &SearchHit) -> (Dist, u32) {
        (h.distance, h.structure)
    }

    fn offer(&mut self, hit: SearchHit) {
        let pos = self
            .hits
            .partition_point(|h| Self::key(h) < Self::key(&hit));
        if pos < self.k {
            self.hits.insert(pos, hit);
            self.hits.truncate(self.k);
        }
    }

    /// The pruning threshold: the k-th best distance so far (`MinEditDist`
    /// in the paper for k = 1).
    fn threshold(&self) -> Dist {
        if self.hits.len() < self.k {
            DIST_INF
        } else {
            self.hits[self.k - 1].distance
        }
    }

    fn into_vec(self) -> Vec<SearchHit> {
        self.hits
    }
}

/// Per-worker search state: the local top-k heap, work counters, and (in
/// parallel mode) the threshold shared across workers.
///
/// The shared atomic holds the minimum of every worker's local k-th-best
/// distance, maintained with `fetch_min`. It is always an *upper bound* on
/// the final global k-th distance — each local threshold is — so pruning
/// against it (branch cut-off and BDB trie skipping) can never drop a true
/// top-k member. That is what keeps parallel search byte-identical to the
/// sequential algorithm. Relaxed ordering suffices: the bound only ever
/// decreases, and a stale read merely prunes less.
struct SearchState<'a> {
    topk: TopK,
    stats: SearchStats,
    shared: Option<&'a AtomicU32>,
}

impl<'a> SearchState<'a> {
    fn new(k: usize, shared: Option<&'a AtomicU32>) -> SearchState<'a> {
        SearchState {
            topk: TopK::new(k),
            stats: SearchStats::default(),
            shared,
        }
    }

    fn offer(&mut self, hit: SearchHit) {
        self.topk.offer(hit);
        if let Some(shared) = self.shared {
            shared.fetch_min(self.topk.threshold(), Ordering::Relaxed);
        }
    }

    /// The tightest pruning bound visible to this worker: its own k-th best,
    /// improved by whatever the other workers have found so far.
    fn threshold(&self) -> Dist {
        let local = self.topk.threshold();
        match self.shared {
            Some(shared) => local.min(shared.load(Ordering::Relaxed)),
            None => local,
        }
    }
}

/// The structure index: arena of generated structures and one trie per
/// token length (split into shards).
#[derive(Debug, Clone)]
pub struct StructureIndex {
    /// The structure arena, as shared immutable chunks (see [`StructStore`]).
    store: StructStore,
    /// `tries[l]` holds the shard tries over the structures of length `l`
    /// (empty for lengths with no structures; index 0 is unused). Shards
    /// partition a length's structures into contiguous arena-id blocks —
    /// disjoint sets, so searching every shard of a length is exactly
    /// searching the length.
    tries: Vec<Vec<Trie>>,
    weights: Weights,
    max_len: usize,
    /// Arena slots removed by a delta. Removed slots keep their arena
    /// window (ids stay stable) but are absent from every trie, so search
    /// can never return them.
    removed: Tombstones,
    /// Number of live (non-tombstoned) structures.
    live: usize,
    /// The arena's range digests (see [`StructStore::refold_ranges`]).
    ranges: Arc<[u64]>,
    /// Content-derived arena generation; see [`StructureIndex::generation`].
    generation: u64,
}

/// Derive the arena generation from content: a word-level FNV-1a fold over
/// the weights, the live max length, the arena length, the arena's range
/// digests, the tombstone words (64 slots each, across the arena width),
/// and each trie segment's [`Trie::content_id`] in segment-table order. Two
/// indexes hash equal iff their observable arenas are identical — same
/// slots, same tombstones, same segment planes — so a byte-identical
/// reload, a clone, or a rebuild over the same content all share one
/// generation, while any delta (which perturbs tombstones, slots, or
/// segments) derives a fresh one. A range digest frames its slots by their
/// lengths and is cut by slot index, so how the arena is split into chunks
/// never shows; a delta refolds only its tail range, and this fold costs
/// O(arena / 64) words.
fn derive_generation(
    ranges: &[u64],
    removed: &Tombstones,
    arena: usize,
    tries: &[Vec<Trie>],
    weights: Weights,
    max_len: usize,
) -> u64 {
    // Domain tag: "SQLXGEN4" — bump if the field framing below changes.
    let mut f = WordFold::new(u64::from_be_bytes(*b"SQLXGEN4"));
    f.word(weights.keyword as u64 | (weights.splchar as u64) << 32);
    f.word(weights.literal as u64 | (max_len as u64) << 32);
    f.word(arena as u64);
    for &digest in ranges {
        f.word(digest);
    }
    for w in 0..arena.div_ceil(64) {
        f.word(removed.word(w));
    }
    f.word(tries.iter().map(Vec::len).sum::<usize>() as u64);
    for (len, shards) in tries.iter().enumerate() {
        for trie in shards {
            f.word(len as u64 | (trie.node_count() as u64) << 32);
            f.word(trie.content_id());
        }
    }
    f.finish()
}

impl StructureIndex {
    /// Build an index over the given structures.
    ///
    /// The arena is appended straight into its flat planes. Each length's
    /// structures are deterministically split into `shard_count` shard
    /// tries over contiguous blocks (in arena order, preserving prefix
    /// sharing within a shard), and each shard is sealed into the persisted
    /// segment layout. The result is exactly the index that
    /// [`crate::from_shared`] loads from [`crate::to_bytes`] of it: same
    /// planes, same segments, same generation, same work counters.
    pub fn build(structures: Vec<Structure>, weights: Weights) -> StructureIndex {
        let max_len = structures.iter().map(Structure::len).max().unwrap_or(0);
        let tokens = structures.iter().map(Structure::len).sum();
        let placeholders = structures.iter().map(|s| s.placeholders.len()).sum();
        let mut chunk = ChunkBuilder::with_capacity(structures.len(), tokens, placeholders);
        let mut by_len: Vec<Vec<u32>> = vec![Vec::new(); max_len + 1];
        for (id, s) in structures.iter().enumerate() {
            by_len[s.len()].push(id as u32);
            chunk.push(&s.tokens, &s.placeholders);
        }
        let store = StructStore::from_chunk(chunk.seal());
        let tries = by_len
            .iter()
            .enumerate()
            .map(|(len, ids)| seal_shards(&store, len, ids))
            .collect();
        let ranges = store.refold_ranges(&[], 0);
        StructureIndex::from_parts(
            store,
            tries,
            weights,
            max_len,
            Tombstones::default(),
            ranges,
        )
    }

    /// Generate structures from the grammar under `cfg` and index them.
    pub fn from_grammar(cfg: &GeneratorConfig, weights: Weights) -> StructureIndex {
        StructureIndex::build(generate_structures(cfg), weights)
    }

    /// Assemble an index from already-validated parts — the build, the
    /// persist loader's zero-copy path (tries borrow a persisted image), and
    /// the delta path (a mix of reused and freshly sealed segments).
    /// The parts must describe the same arena a [`StructureIndex::build`]
    /// over the live structures would produce, up to tombstoned slots, and
    /// `ranges` must be the store's range digests; callers guarantee this by
    /// construction. The generation is derived from the parts' content, so a
    /// reload of the same bytes — or a delta that changes nothing —
    /// assembles to the generation it started with.
    pub(crate) fn from_parts(
        store: StructStore,
        tries: Vec<Vec<Trie>>,
        weights: Weights,
        max_len: usize,
        removed: Tombstones,
        ranges: Arc<[u64]>,
    ) -> StructureIndex {
        let live = store.len() - removed.count();
        let generation =
            derive_generation(&ranges, &removed, store.len(), &tries, weights, max_len);
        StructureIndex {
            store,
            tries,
            weights,
            max_len,
            removed,
            live,
            ranges,
            generation,
        }
    }

    /// The shard tries, outer-indexed by structure length (persist writer,
    /// delta path).
    pub(crate) fn tries(&self) -> &[Vec<Trie>] {
        &self.tries
    }

    /// Longest indexed structure, in tokens.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Number of trie shards (segments) across all lengths.
    pub fn segment_count(&self) -> usize {
        self.tries.iter().map(Vec::len).sum()
    }

    /// Number of live (searchable) structures. Arena slots tombstoned by a
    /// delta are excluded; see [`StructureIndex::arena_len`].
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the index holds no live structures.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of arena slots, including tombstoned ones. Arena ids returned
    /// in [`SearchHit`]s range over `0..arena_len()`; equals
    /// [`StructureIndex::len`] until a delta removes something.
    pub fn arena_len(&self) -> usize {
        self.store.len()
    }

    /// True when arena slot `id` was tombstoned by a delta. Tombstoned
    /// slots keep their arena window (so old ids stay resolvable) but are
    /// absent from every trie.
    pub fn is_removed(&self, id: u32) -> bool {
        self.removed.contains(id as usize)
    }

    /// Tombstoned slots (persist writer and delta path).
    pub(crate) fn removed(&self) -> &Tombstones {
        &self.removed
    }

    /// The arena's range digests (delta path).
    pub(crate) fn ranges(&self) -> &[u64] {
        &self.ranges
    }

    /// The edit-operation weights the index was built with.
    pub fn weights(&self) -> Weights {
        self.weights
    }

    /// Content-derived id of this structure arena. [`SearchHit`]s reference
    /// structures by arena index, which is only meaningful against an arena
    /// with identical content — callers memoizing hits across engines (the
    /// shared skeleton cache) key on this so results can only ever be
    /// replayed against an arena where the ids resolve to the same
    /// structures. The id is a deterministic hash of the arena slots,
    /// tombstone flags, and trie segment planes (see `derive_generation`),
    /// which gives two guarantees the old process-global counter could not:
    ///
    /// - **Stability**: a byte-identical reload, a clone, or a rebuild over
    ///   the same content derives the *same* generation, so warm cache
    ///   entries stay valid across restarts and re-registrations.
    /// - **Safety**: any content change — a delta's tombstones or appends,
    ///   different weights, a different structure space — derives a
    ///   different generation, so stale hits can never be replayed against
    ///   an arena whose ids mean something else.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Owned copy of a structure by arena id (as returned in a
    /// [`SearchHit`]). The arena is held flattened, so there is no resident
    /// `Structure` to borrow — callers that only need the token sequence
    /// should prefer [`StructureIndex::structure_tokens`].
    pub fn structure(&self, id: u32) -> Structure {
        self.store.materialize(id as usize)
    }

    /// Token sequence of a structure by arena id, borrowed from the arena.
    pub fn structure_tokens(&self, id: u32) -> &[StructTokId] {
        self.store.tokens(id as usize)
    }

    /// The structure arena (persist writer).
    pub(crate) fn store(&self) -> &StructStore {
        &self.store
    }

    /// Total trie nodes across all lengths and shards (the `p·k` of the
    /// paper's space complexity discussion).
    pub fn total_nodes(&self) -> usize {
        self.tries.iter().flatten().map(Trie::node_count).sum()
    }

    /// Top-k search (paper Box 2 extended to k results).
    pub fn search(&self, masked: &[StructTokId], cfg: &SearchConfig) -> Vec<SearchHit> {
        self.search_with_stats(masked, cfg).0
    }

    /// Top-k search returning work counters.
    pub fn search_with_stats(
        &self,
        masked: &[StructTokId],
        cfg: &SearchConfig,
    ) -> (Vec<SearchHit>, SearchStats) {
        self.search_observed(masked, cfg, &Recorder::disabled())
    }

    /// Top-k search that additionally publishes work counters and per-trie
    /// walk latencies into `recorder` (a strict no-op when the recorder is
    /// disabled — the hits are byte-identical either way).
    pub fn search_observed(
        &self,
        masked: &[StructTokId],
        cfg: &SearchConfig,
        recorder: &Recorder,
    ) -> (Vec<SearchHit>, SearchStats) {
        let (hits, stats) = self.search_inner(masked, cfg, recorder);
        stats.record_into(recorder);
        (hits, stats)
    }

    /// A fresh DP workspace for one search worker. The SoA kernel runs
    /// whenever `cfg.kernel` allows it and the query fits the u16 lane
    /// envelope; DAP's prime pre-pass re-derives individual sibling columns
    /// out of chunk order, so the approximate DAP mode stays on the scalar
    /// reference kernel. A workspace is allocated per search rather than
    /// pooled: that costs a few microseconds against a search of a
    /// millisecond or more, and keeps every counter independent of what
    /// earlier searches left behind.
    fn workspace(&self, masked: &[StructTokId], cfg: &SearchConfig) -> DpCols {
        if cfg.kernel == DpKernel::Auto && !cfg.dap {
            if let Some(ws) = SoaWorkspace::new(masked, self.weights, self.max_len) {
                return DpCols::Soa(ws);
            }
        }
        DpCols::Scalar(ColumnWorkspace::new(masked, self.weights, self.max_len))
    }

    fn search_inner(
        &self,
        masked: &[StructTokId],
        cfg: &SearchConfig,
        recorder: &Recorder,
    ) -> (Vec<SearchHit>, SearchStats) {
        let mut state = SearchState::new(cfg.k, None);
        if self.store.len() == 0 {
            return (state.topk.into_vec(), state.stats);
        }

        // Bidirectional order: from m downwards, then upwards (App. D.2),
        // restricted to the non-empty tries. Each (length, shard) pair is
        // one independent work unit; a length's shards are consecutive, so
        // the sequential walk still processes whole lengths in the paper's
        // order while the parallel cursor gets shard-granular fan-out.
        let m = masked.len();
        let order: Vec<(usize, usize)> = (1..=m.min(self.max_len))
            .rev()
            .chain((m + 1)..=self.max_len)
            .flat_map(|j| (0..self.tries[j].len()).map(move |s| (j, s)))
            .filter(|&(j, s)| !self.tries[j][s].is_empty())
            .collect();

        let workers = cfg.effective_threads().min(order.len().max(1));
        if workers > 1 {
            return self.search_parallel(masked, cfg, &order, workers, recorder);
        }

        let mut cols = self.workspace(masked, cfg);
        for &(j, s) in &order {
            self.search_shard(j, s, masked, cfg, &mut state, &mut cols, recorder);
        }
        state.stats.cells_evaluated += cols.take_cells();
        (state.topk.into_vec(), state.stats)
    }

    /// Search the `(length, shard)` work units in `order` with `workers`
    /// scoped threads.
    ///
    /// Shards are handed out through an atomic cursor (so a worker stuck in
    /// a large shard does not hold up the rest), each worker keeps its own
    /// [`TopK`] and [`ColumnWorkspace`], and the branch-and-bound threshold
    /// is shared through an [`AtomicU32`] so pruning improves globally as any
    /// worker finds closer structures. Shards hold disjoint structure sets —
    /// a length's shards partition its structures, and per-length tries were
    /// disjoint already — so re-offering every worker's hits into one final
    /// [`TopK`] yields exactly the sequential result: same hits, same
    /// `(distance, structure id)` order. Shard granularity is what gives a
    /// dominant length real fan-out: its [`shard_count`] shards spread
    /// across workers instead of serializing on one. Only the
    /// [`SearchStats`] are schedule-dependent (how much work pruning saved
    /// varies run to run).
    fn search_parallel(
        &self,
        masked: &[StructTokId],
        cfg: &SearchConfig,
        order: &[(usize, usize)],
        workers: usize,
        recorder: &Recorder,
    ) -> (Vec<SearchHit>, SearchStats) {
        let shared = AtomicU32::new(DIST_INF);
        // Warm the shared bound on the calling thread before spawning: the
        // first shard in the bidirectional order is from the length closest
        // to the query, and its hits carry the tightest initial threshold.
        // Without this, workers race into far-length tries the sequential
        // algorithm would have BDB-skipped outright.
        let mut seed = SearchState::new(cfg.k, Some(&shared));
        if let Some(&(j0, s0)) = order.first() {
            let mut cols = self.workspace(masked, cfg);
            self.search_shard(j0, s0, masked, cfg, &mut seed, &mut cols, recorder);
            seed.stats.cells_evaluated += cols.take_cells();
        }
        let cursor = AtomicUsize::new(1);
        let worker_results: Vec<(TopK, SearchStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut state = SearchState::new(cfg.k, Some(&shared));
                        let mut cols = self.workspace(masked, cfg);
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&(j, s)) = order.get(i) else { break };
                            self.search_shard(j, s, masked, cfg, &mut state, &mut cols, recorder);
                        }
                        state.stats.cells_evaluated += cols.take_cells();
                        (state.topk, state.stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                // Re-raise worker panics on the calling thread: the engine's
                // containment boundary converts the unwind into a typed
                // error, so no partial top-k ever escapes a poisoned search.
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

        let mut state = SearchState::new(cfg.k, None);
        for (topk, stats) in std::iter::once((seed.topk, seed.stats)).chain(worker_results) {
            for hit in topk.into_vec() {
                state.topk.offer(hit);
            }
            state.stats.nodes_visited += stats.nodes_visited;
            state.stats.tries_searched += stats.tries_searched;
            state.stats.tries_pruned += stats.tries_pruned;
            state.stats.cells_evaluated += stats.cells_evaluated;
            state.stats.shards_searched += stats.shards_searched;
            state.stats.shards_pruned += stats.shards_pruned;
        }
        (state.topk.into_vec(), state.stats)
    }

    /// Search one trie shard (assumed non-empty), with the BDB skip — the
    /// Proposition 1 bound depends only on the lengths, so it applies to a
    /// shard exactly as it did to the whole per-length trie. Each walked
    /// shard records one `search.trie_walk` latency sample.
    ///
    /// The per-length counters keep their historical meaning by counting
    /// only shard 0's verdict: the shared threshold only ever tightens, so
    /// in the sequential order shard 0 pruned implies every later shard of
    /// that length pruned, making "shard 0's verdict" exactly "the length's
    /// verdict". The shard-granular work is counted separately in
    /// `shards_searched` / `shards_pruned`.
    #[allow(clippy::too_many_arguments)]
    fn search_shard(
        &self,
        j: usize,
        shard: usize,
        masked: &[StructTokId],
        cfg: &SearchConfig,
        state: &mut SearchState<'_>,
        cols: &mut DpCols,
        recorder: &Recorder,
    ) {
        if cfg.bdb && state.threshold() < lower_bound(masked.len(), j, self.weights) {
            if shard == 0 {
                state.stats.tries_pruned += 1;
            }
            state.stats.shards_pruned += 1;
            return;
        }
        if shard == 0 {
            state.stats.tries_searched += 1;
        }
        state.stats.shards_searched += 1;
        let _span = recorder.span(SpanId::TrieWalk);
        self.search_trie(&self.tries[j][shard], j, masked, cfg, state, cols, recorder);
    }

    /// Brute-force reference scan over every live structure; used by tests
    /// to certify that trie search (with or without BDB) is exact.
    pub fn scan(&self, masked: &[StructTokId], k: usize) -> Vec<SearchHit> {
        let mut topk = TopK::new(k);
        for id in 0..self.store.len() {
            if self.removed.contains(id) {
                continue;
            }
            let d = weighted_lcs_distance(masked, self.store.tokens(id), self.weights);
            topk.offer(SearchHit {
                structure: id as u32,
                distance: d,
            });
        }
        topk.into_vec()
    }

    #[allow(clippy::too_many_arguments)]
    fn search_trie(
        &self,
        trie: &Trie,
        target_len: usize,
        masked: &[StructTokId],
        cfg: &SearchConfig,
        state: &mut SearchState<'_>,
        cols: &mut DpCols,
        recorder: &Recorder,
    ) {
        let trie = trie.planes();
        match cols {
            DpCols::Scalar(cols) => TrieWalk {
                index: self,
                trie,
                target_len,
                masked,
                cfg,
                state,
                cols,
                recorder,
            }
            .visit_children(0, 0),
            DpCols::Soa(cols) => SoaTrieWalk {
                trie,
                target_len,
                state,
                cols,
                recorder,
            }
            .visit_children(0, 0, 0),
        }
    }
}

/// One trie walk: the recursion of Box 2's `SearchRecursively` with the
/// query, config, per-worker state, and DP columns bundled together.
struct TrieWalk<'a, 'b, 'c> {
    index: &'a StructureIndex,
    trie: Planes<'a>,
    /// Token length of every structure in this trie (tries are per-length).
    target_len: usize,
    masked: &'a [StructTokId],
    cfg: &'a SearchConfig,
    state: &'b mut SearchState<'c>,
    cols: &'b mut ColumnWorkspace,
    recorder: &'a Recorder,
}

impl TrieWalk<'_, '_, '_> {
    fn visit_children(&mut self, node: u32, depth: usize) {
        let w = self.index.weights;
        // DAP (App. D.3): among sibling children whose tokens are in the
        // prime superset, explore only the one whose column's last row is
        // minimal; other children are unaffected.
        let chosen_prime: Option<u32> = if self.cfg.dap {
            let mut best: Option<(Dist, u32)> = None;
            for child in self.trie.children(node) {
                let tok = self.trie.token(child);
                if !is_prime(tok) {
                    continue;
                }
                let col = self.cols.advance(self.masked, depth, tok, w);
                self.state.stats.nodes_visited += 1;
                // A DP column always has masked.len()+1 rows; an empty one
                // can only mean a workspace bug, and INF makes it inert.
                let last = *col.last().unwrap_or(&DIST_INF);
                if best.is_none_or(|(d, _)| last < d) {
                    best = Some((last, child));
                }
            }
            best.map(|(_, c)| c)
        } else {
            None
        };

        let mut fanout: u64 = 0;
        for child in self.trie.children(node) {
            fanout += 1;
            let tok = self.trie.token(child);
            if self.cfg.dap && is_prime(tok) && Some(child) != chosen_prime {
                continue;
            }
            let col = self.cols.advance(self.masked, depth, tok, w);
            self.state.stats.nodes_visited += 1;
            // As above: a column is structurally non-empty, and INF keeps a
            // hypothetical empty one from producing a hit or a descent.
            let last = *col.last().unwrap_or(&DIST_INF);
            // Banded descend bound: cell `i` still has to reconcile `m − i`
            // source tokens with the `rem` target tokens below this child,
            // which costs at least `w_min · |(m − i) − rem|` (Proposition 1).
            // Adding that completion cost cell-wise tightens Box 2's raw
            // column minimum into a diagonal band while staying an exact
            // lower bound on every descendant's final distance. Must compute
            // the identical value to the SoA kernel's `ChunkStats::bound`.
            let rem = self.target_len - (depth + 1);
            let m = self.masked.len();
            let wmin = w.min_weight();
            let bound = col
                .iter()
                .enumerate()
                .map(|(i, &v)| v + wmin * (m - i).abs_diff(rem) as Dist)
                .min()
                .unwrap_or(DIST_INF);
            let terminal = self.trie.structure(child);
            if terminal != NONE {
                self.state.offer(SearchHit {
                    structure: terminal,
                    distance: last,
                });
            }
            // Box 2 line 46: explore deeper only if the banded bound can
            // still beat the current k-th best ("min(DpCurCol) ≤ MinEditDist").
            if self.trie.first_child(child) != NONE && bound <= self.state.threshold() {
                self.visit_children(child, depth + 1);
            }
        }
        self.recorder.record_value(SpanId::TrieFanout, fanout);
    }
}

/// The chunked trie walk over the branchless SoA kernel.
///
/// Same recursion as [`TrieWalk`], but sibling children are advanced in
/// chunks of up to [`SOA_LANES`]: one [`SoaWorkspace::advance_chunk`] call
/// computes every sibling's DP column simultaneously, so each
/// transcript-token load (and each parent-column cell load) amortizes over
/// the whole chunk instead of being re-fetched per child.
///
/// Traversal order is *identical* to the scalar walk. The scalar loop
/// advances every child's column unconditionally (pruning only gates the
/// descent), so hoisting the column computation to the chunk head changes
/// neither which columns are computed nor the offer/descend sequence — each
/// lane's offer and descend still happen in sibling order, with the
/// threshold exactly as tight as the scalar walk would have it at that
/// point. Hits, `nodes_visited`, and `cells_evaluated` are all
/// byte-identical; the kernel-parity suite enforces this.
struct SoaTrieWalk<'a, 'b, 'c> {
    trie: Planes<'a>,
    /// Token length of every structure in this trie (tries are per-length).
    target_len: usize,
    state: &'b mut SearchState<'c>,
    cols: &'b mut SoaWorkspace,
    recorder: &'a Recorder,
}

impl SoaTrieWalk<'_, '_, '_> {
    /// Visit the children of `node`, whose own DP column lives at lane
    /// `parent_lane` of block `depth` in the workspace. Descending into the
    /// child at lane `c` only ever writes blocks deeper than `depth + 1`, so
    /// the chunk's sibling columns stay intact across recursion.
    fn visit_children(&mut self, node: u32, depth: usize, parent_lane: usize) {
        let rem = self.target_len - (depth + 1);
        let mut fanout: u64 = 0;
        let mut children = self.trie.children(node);
        let mut pending = children.next();
        while let Some(first) = pending {
            pending = children.next();
            // Fanout-1 nodes dominate real tries; route them through the
            // padless single-column kernel with no gather arrays and no
            // ChunkStats round-trip through memory.
            if pending.is_none() && fanout == 0 {
                fanout = 1;
                let tok = self.trie.token(first);
                let (last, bound) = self.cols.advance_single(depth, parent_lane, tok, rem);
                self.visit_one(first, depth, 0, last, bound);
                break;
            }
            let mut ids = [0u32; SOA_LANES];
            let mut toks = [StructTokId(0); SOA_LANES];
            ids[0] = first;
            toks[0] = self.trie.token(first);
            let mut n = 1;
            while let Some(child) = pending {
                ids[n] = child;
                toks[n] = self.trie.token(child);
                n += 1;
                pending = children.next();
                if n == SOA_LANES {
                    break;
                }
            }
            fanout += n as u64;
            if n == 1 {
                let (last, bound) = self.cols.advance_single(depth, parent_lane, toks[0], rem);
                self.visit_one(ids[0], depth, 0, last, bound);
                continue;
            }
            let chunk = self.cols.advance_chunk(depth, parent_lane, &toks[..n], rem);
            for (c, &child) in ids[..n].iter().enumerate() {
                self.visit_one(child, depth, c, chunk.last[c], chunk.bound[c]);
            }
        }
        self.recorder.record_value(SpanId::TrieFanout, fanout);
    }

    /// Offer-and-descend for one freshly advanced child column: exactly the
    /// per-child tail of the scalar walk's loop body.
    #[inline]
    fn visit_one(&mut self, child: u32, depth: usize, lane: usize, last: Dist, bound: Dist) {
        self.state.stats.nodes_visited += 1;
        let terminal = self.trie.structure(child);
        if terminal != NONE {
            self.state.offer(SearchHit {
                structure: terminal,
                distance: last,
            });
        }
        // Box 2 line 46, per lane: descend only while the banded bound can
        // still beat the current k-th best.
        if self.trie.first_child(child) != NONE && bound <= self.state.threshold() {
            self.visit_children(child, depth + 1, lane);
        }
    }
}

fn is_prime(tok: StructTokId) -> bool {
    match tok.tok() {
        StructTok::Keyword(k) => k.in_prime_superset(),
        StructTok::SplChar(c) => c.in_prime_superset(),
        StructTok::Var => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_grammar::{process_transcript_text, Keyword, Placeholder};

    fn kw(k: Keyword) -> StructTok {
        StructTok::Keyword(k)
    }

    fn small_index() -> &'static StructureIndex {
        static IDX: std::sync::OnceLock<StructureIndex> = std::sync::OnceLock::new();
        IDX.get_or_init(|| StructureIndex::from_grammar(&GeneratorConfig::small(), Weights::PAPER))
    }

    #[test]
    fn exact_match_has_zero_distance() {
        let idx = small_index();
        let p = process_transcript_text("select salary from employees where name equals john");
        let hits = idx.search(&p.masked, &SearchConfig::default());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].distance, 0);
        assert_eq!(
            idx.structure(hits[0].structure).render(),
            "SELECT x1 FROM x2 WHERE x3 = x4"
        );
    }

    #[test]
    fn running_example_with_noise_recovers_structure() {
        // §3.1: "select sales from employers wear first name equals Jon"
        // masks to SELECT x FROM x x x x = x; closest structure is the
        // 8-token SELECT x FROM x WHERE x = x.
        let idx = small_index();
        let p = process_transcript_text("select sales from employers wear first name equals Jon");
        let hits = idx.search(&p.masked, &SearchConfig::default());
        assert_eq!(
            idx.structure(hits[0].structure).render(),
            "SELECT x1 FROM x2 WHERE x3 = x4"
        );
    }

    #[test]
    fn trie_search_matches_brute_force() {
        let idx = small_index();
        let probes = [
            "select star from employees",
            "select sum open parenthesis salary close parenthesis from salaries",
            "select a comma b from t where x greater than y and p equals q",
            "select a from t order by b",
            "completely unrelated words only",
            "",
        ];
        for probe in probes {
            let p = process_transcript_text(probe);
            for k in [1usize, 5] {
                let cfg = SearchConfig {
                    k,
                    ..SearchConfig::default()
                };
                let trie_hits = idx.search(&p.masked, &cfg);
                let scan_hits = idx.scan(&p.masked, k);
                assert_eq!(trie_hits, scan_hits, "probe={probe} k={k}");
            }
        }
    }

    #[test]
    fn bdb_is_accuracy_preserving() {
        let idx = small_index();
        let p = process_transcript_text("select a from t where b equals c or d less than e");
        for k in [1usize, 3, 5] {
            let with = idx.search(
                &p.masked,
                &SearchConfig {
                    k,
                    bdb: true,
                    ..Default::default()
                },
            );
            let without = idx.search(
                &p.masked,
                &SearchConfig {
                    k,
                    bdb: false,
                    ..Default::default()
                },
            );
            assert_eq!(with, without);
        }
    }

    #[test]
    fn bdb_prunes_tries() {
        let idx = small_index();
        let p = process_transcript_text("select a from t");
        let (_, stats_bdb) = idx.search_with_stats(
            &p.masked,
            &SearchConfig {
                bdb: true,
                ..Default::default()
            },
        );
        let (_, stats_no) = idx.search_with_stats(
            &p.masked,
            &SearchConfig {
                bdb: false,
                ..Default::default()
            },
        );
        assert!(stats_bdb.tries_pruned > 0);
        assert!(stats_bdb.nodes_visited < stats_no.nodes_visited);
    }

    #[test]
    fn dap_visits_fewer_nodes() {
        let idx = small_index();
        let p = process_transcript_text(
            "select avg open parenthesis salary close parenthesis from salaries where a equals b",
        );
        let (hits_dap, stats_dap) = idx.search_with_stats(
            &p.masked,
            &SearchConfig {
                dap: true,
                ..Default::default()
            },
        );
        let (_, stats_def) = idx.search_with_stats(&p.masked, &SearchConfig::default());
        assert!(stats_dap.nodes_visited <= stats_def.nodes_visited);
        assert!(!hits_dap.is_empty());
    }

    #[test]
    fn figure10_bidirectional_example() {
        // Fig. 10: TransOut = A B A (3 literals); per-length tries containing
        // {A}, {A B, C C}, {A B C, ...}. We emulate with literal-only
        // structures of lengths 1..3 and check the search returns the
        // 2-token structure at distance 1.0 (one delete at W_L).
        let mk =
            |n: usize| Structure::new(vec![StructTok::Var; n], vec![Placeholder::attribute(); n]);
        let idx = StructureIndex::build(vec![mk(1), mk(2), mk(3)], Weights::PAPER);
        let masked = vec![StructTokId::VAR; 3];
        let hits = idx.search(&masked, &SearchConfig::default());
        // All-Var structures: the 3-token one matches exactly.
        assert_eq!(hits[0].distance, 0);
        assert_eq!(idx.structure(hits[0].structure).len(), 3);
    }

    #[test]
    fn top5_is_sorted_and_distinct() {
        let idx = small_index();
        let p = process_transcript_text("select a from t where b equals c");
        let hits = idx.search(&p.masked, &SearchConfig::top_k(5));
        assert_eq!(hits.len(), 5);
        for w in hits.windows(2) {
            assert!(
                (w[0].distance, w[0].structure) < (w[1].distance, w[1].structure),
                "hits must be strictly ordered"
            );
        }
        assert_eq!(hits[0].distance, 0);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = StructureIndex::build(vec![], Weights::PAPER);
        let masked = vec![StructTokId::from_tok(kw(Keyword::Select))];
        assert!(idx.search(&masked, &SearchConfig::default()).is_empty());
    }

    #[test]
    fn generation_is_content_derived() {
        // Same content ⇒ same generation (two independent builds — the old
        // process-global counter gave these distinct ids and cold-started
        // every cache that keyed on them)...
        let a = StructureIndex::from_grammar(&GeneratorConfig::small(), Weights::PAPER);
        let b = StructureIndex::from_grammar(&GeneratorConfig::small(), Weights::PAPER);
        assert_eq!(a.generation(), b.generation());
        // ... while any content difference — structure space or weights —
        // derives a different generation.
        let smaller = StructureIndex::from_grammar(
            &GeneratorConfig {
                max_structures: Some(500),
                ..GeneratorConfig::small()
            },
            Weights::PAPER,
        );
        assert_ne!(a.generation(), smaller.generation());
        let reweighted = StructureIndex::from_grammar(
            &GeneratorConfig::small(),
            Weights {
                keyword: 9,
                ..Weights::PAPER
            },
        );
        assert_ne!(a.generation(), reweighted.generation());
    }

    #[test]
    fn repeated_search_reports_identical_stats() {
        // Sequential stats are a pure function of (index, query, config):
        // the second run of a query on the same index reports exactly the
        // work of the first, on either kernel and under DAP.
        let idx = StructureIndex::from_grammar(
            &GeneratorConfig {
                max_structures: Some(2_000),
                ..GeneratorConfig::small()
            },
            Weights::PAPER,
        );
        let p = process_transcript_text("select sales from employers wear first name equals jon");
        for cfg in [
            SearchConfig::default(),
            SearchConfig::top_k(5).with_kernel(DpKernel::Scalar),
            SearchConfig {
                dap: true,
                ..SearchConfig::default()
            },
        ] {
            let first = idx.search_with_stats(&p.masked, &cfg);
            assert_eq!(idx.search_with_stats(&p.masked, &cfg), first, "{cfg:?}");
        }
    }

    #[test]
    fn clones_share_the_generation() {
        let idx = small_index();
        assert_eq!(idx.clone().generation(), idx.generation());
        assert_eq!(idx.len(), idx.arena_len(), "no tombstones on a build");
        assert!(!idx.is_removed(0));
    }
}
