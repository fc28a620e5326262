//! The SpeakQL Search Engine (paper §3.4, Box 2, App. D).
//!
//! Given `MaskOut`, find the `k` closest ground-truth structures under the
//! weighted LCS edit distance. A search runs on its caller's thread, in one
//! way: it walks trie segments with the branchless structure-of-arrays DP
//! kernel ([`SoaWorkspace`]), advancing each node's sibling columns
//! together, and prunes branches whose banded column bound already exceeds
//! the k-th best. Queries inside the kernel's `u16` envelope
//! ([`SoaWorkspace::fits`]) walk `u16` lanes; the rest walk the same code on
//! `u32` lanes. With **BDB** it orders and skips whole
//! segments by the *count bound*, Proposition 1 made per token type: each
//! segment holds groups of structures with equal token multisets, every
//! group is bounded by `Σₜ wₜ·|c_q(t) − c_s(t)|`, and segments are walked
//! in ascending least bound until that bound exceeds the k-th best distance.
//! The bound pass sums each group's per-class minima in byte lanes and
//! computes each group's bound in the walk's own lane, `u16` or `u32`, with
//! the same result in either. Proposition 1's length bound is the
//! one-dimensional case. The one
//! approximation kept here, **DAP** (diversity-aware pruning), is opt-in
//! and runs on the same walk. The paper's other
//! accuracy–latency tradeoff, **INV** (inverted keyword index), lost to
//! exact search at every scale measured and lives in the experiment harness
//! (`speakql-bench`'s `experiments::inv`).

use crate::content::{BuildFx, WordFold};
use crate::store::{ChunkBuilder, StructStore, Tombstones};
use crate::trie::{token_counts, Planes, TokenCounts, Trie, TrieBuilder, NONE};
use speakql_editdist::{
    lower_bound, weighted_lcs_distance, Dist, Lane, SoaWorkspace, Weights, DIST_INF, SOA_LANES,
};
use speakql_grammar::{
    generate_structures, GeneratorConfig, StructTok, StructTokId, Structure, TokenClass,
    STRUCT_ALPHABET,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

#[cfg(test)]
mod oracle;

/// Target structures per trie shard. Each length's structures are split
/// into about `ceil(n / SHARD_TARGET)` shards (at most
/// [`MAX_SHARDS_PER_LEN`]), cut only between multiset groups. A shard is
/// the grain the count bound prunes at (the search skips a whole shard once
/// its groups' least bound exceeds the k-th best) and the grain a delta
/// reuses (a delta rebuilds only the lengths it touches, and shares every
/// other shard). Sharding is deterministic from the structure sequence
/// alone, so a persisted index round-trips to the byte-identical shard
/// layout.
const SHARD_TARGET: usize = 8192;

/// Upper bound on shards per length; caps the prefix-duplication cost of
/// splitting (each shard re-roots its own copy of shared prefixes).
const MAX_SHARDS_PER_LEN: usize = 64;

/// Number of shards the `n` structures of one length are split into.
fn shard_count(n: usize) -> usize {
    n.div_ceil(SHARD_TARGET).clamp(1, MAX_SHARDS_PER_LEN)
}

/// The live structures of one length, grouped by token multiset: `ids`
/// lists the groups one after another, in ascending order of each group's
/// smallest id and ascending within a group, and `sizes` gives each
/// group's member count. Distinct groups hold distinct multisets.
#[derive(Debug, Default)]
pub(crate) struct Groups {
    pub(crate) ids: Vec<u32>,
    pub(crate) sizes: Vec<u32>,
}

impl Groups {
    /// Group `ids` — live structures of one length, in arena order — by
    /// token multiset, groups in first-seen order.
    pub(crate) fn of(store: &StructStore, ids: &[u32]) -> Groups {
        let mut seen: HashMap<TokenCounts, usize, BuildFx> = HashMap::with_hasher(BuildFx);
        let mut members: Vec<Vec<u32>> = Vec::new();
        for &id in ids {
            let next = members.len();
            let g = *seen
                .entry(token_counts(store.tokens(id as usize)))
                .or_insert(next);
            if g == next {
                members.push(Vec::new());
            }
            members[g].push(id);
        }
        Groups {
            // lossy: a group's members are arena ids, whose count fits u32
            sizes: members.iter().map(|m| m.len() as u32).collect(),
            ids: members.concat(),
        }
    }
}

/// Seal the shard tries over `groups` — the live structures of length
/// `len` — cutting a new shard only between groups, once the current one
/// holds its share of [`shard_count`]. Each shard inserts its groups in
/// order, each under a count-table entry of its own. The layout depends
/// only on the groups, so [`StructureIndex::build`] and the delta path
/// produce identical segments for identical runs. Empty when `groups` is.
pub(crate) fn seal_shards(store: &StructStore, len: usize, groups: &Groups) -> Vec<Trie> {
    let n = groups.ids.len();
    if n == 0 {
        return Vec::new();
    }
    let block = n.div_ceil(shard_count(n));
    let mut shards = Vec::new();
    let mut shard = TrieBuilder::new(len);
    let mut filled = 0usize;
    let mut members = groups.ids.iter();
    for &size in &groups.sizes {
        if filled >= block {
            shards.push(std::mem::replace(&mut shard, TrieBuilder::new(len)).seal());
            filled = 0;
        }
        let mut group = members.by_ref().take(size as usize).peekable();
        if let Some(&&first) = group.peek() {
            shard.open_group(token_counts(store.tokens(first as usize)));
        }
        for &id in group {
            shard.insert(store.tokens(id as usize), id);
        }
        filled += size as usize;
    }
    shards.push(shard.seal());
    shards
}

/// A search hit: a structure id in the index arena and its distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchHit {
    pub structure: u32,
    pub distance: Dist,
}

/// Search configuration. Defaults mirror the paper's "SpeakQL Default":
/// bounds on, DAP off. Every field changes which hits a search returns, so
/// the configuration as a whole keys memoized results (the engine's
/// skeleton cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SearchConfig {
    /// How many closest structures to return (the paper reports top-1 and
    /// "best of" top-5 results).
    pub k: usize,
    /// Bound-ordered segment skipping (accuracy-preserving): walk segments
    /// in ascending count bound and skip those that cannot beat the k-th
    /// best. Off, every non-empty segment is walked in table order.
    pub bdb: bool,
    /// Diversity-Aware Pruning over the prime superset (approximate).
    pub dap: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            k: 1,
            bdb: true,
            dap: false,
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
}

/// Counters describing the work one search performed. Every field is a
/// pure function of the index content, the query, and the configuration:
/// the same search on the same index always reports the same stats, on
/// `u16` or `u32` lanes alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Trie nodes whose DP column was computed.
    pub nodes_visited: u64,
    /// Non-empty lengths with at least one shard walked.
    pub tries_searched: u32,
    /// Non-empty lengths with no shard walked.
    pub tries_pruned: u32,
    /// Weighted-LCS DP cells evaluated by the trie walk's workspace.
    pub cells_evaluated: u64,
    /// Trie shards actually walked. A length split into `s` shards can
    /// contribute up to `s` here but at most 1 to `tries_searched`.
    pub shards_searched: u32,
    /// Non-empty trie shards skipped by the count bound.
    pub shards_pruned: u32,
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

/// One search's state: the top-k so far, the work counters, and the
/// lengths walked.
struct SearchState {
    topk: TopK,
    stats: SearchStats,
    /// `walked[l]`: a segment of length `l` was walked.
    walked: Vec<bool>,
}

impl SearchState {
    fn new(k: usize, lengths: usize) -> SearchState {
        SearchState {
            topk: TopK::new(k),
            stats: SearchStats::default(),
            walked: vec![false; lengths],
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
    /// partition a length's multiset groups — disjoint sets, so searching
    /// every shard of a length is exactly searching the length.
    tries: Vec<Vec<Trie>>,
    weights: Weights,
    max_len: usize,
    /// Arena slots removed by a delta. Removed slots keep their arena
    /// window (ids stay stable) but are absent from every trie, so search
    /// can never return them.
    removed: Tombstones,
    /// Number of live (non-tombstoned) structures.
    live: usize,
    /// Content-derived index generation; see [`StructureIndex::generation`].
    generation: u64,
}

/// Derive the generation from what a search reads (see
/// [`StructureIndex::generation`]): a word-level FNV-1a fold over the
/// weights, then the segment table in order, each segment framed by its
/// length and node count and named by its content id.
fn derive_generation(tries: &[Vec<Trie>], weights: Weights) -> u64 {
    // Domain tag: "SQLXGEN5" — bump if the field framing below changes.
    let mut f = WordFold::new(u64::from_be_bytes(*b"SQLXGEN5"));
    f.word(weights.keyword as u64 | (weights.splchar as u64) << 32);
    f.word(weights.literal as u64);
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
    /// structures are grouped by token multiset (groups in order of their
    /// smallest id, which keeps most of the prefix sharing of arena order),
    /// deterministically split into shard tries between groups, and each
    /// shard is sealed with its count table into the persisted segment
    /// layout. The result is exactly the index that
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
            .map(|(len, ids)| seal_shards(&store, len, &Groups::of(&store, ids)))
            .collect();
        StructureIndex::from_parts(store, tries, weights, max_len, Tombstones::default())
    }

    /// Generate structures from the grammar under `cfg` and index them.
    pub fn from_grammar(cfg: &GeneratorConfig, weights: Weights) -> StructureIndex {
        StructureIndex::build(generate_structures(cfg), weights)
    }

    /// Assemble an index from already-validated parts — the build, the
    /// persist loader's zero-copy path (tries borrow a persisted image), and
    /// the delta path (a mix of reused and freshly sealed segments).
    /// The parts must describe the same arena a [`StructureIndex::build`]
    /// over the live structures would produce, up to tombstoned slots;
    /// callers guarantee this by construction. The generation is derived
    /// from the segments, so a reload of the same bytes — or a delta that
    /// changes nothing — assembles to the generation it started with.
    pub(crate) fn from_parts(
        store: StructStore,
        tries: Vec<Vec<Trie>>,
        weights: Weights,
        max_len: usize,
        removed: Tombstones,
    ) -> StructureIndex {
        let live = store.len() - removed.count();
        let generation = derive_generation(&tries, weights);
        StructureIndex {
            store,
            tries,
            weights,
            max_len,
            removed,
            live,
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

    /// Number of token lengths with a non-empty segment: each search
    /// settles every one of them as searched or pruned
    /// ([`SearchStats::tries_searched`] + [`SearchStats::tries_pruned`]).
    pub fn length_count(&self) -> usize {
        self.tries
            .iter()
            .filter(|shards| shards.iter().any(|t| !t.is_empty()))
            .count()
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

    /// The edit-operation weights the index was built with.
    pub fn weights(&self) -> Weights {
        self.weights
    }

    /// Content-derived id of the searchable index: two indexes with equal
    /// generations return the same [`SearchHit`]s, id for id, and the same
    /// [`SearchStats`], for every query and configuration. Callers that
    /// memoize hits across engines (the shared skeleton cache) or decide
    /// whether an index changed (the server's tenant registry) key on it.
    ///
    /// The generation is a fold over the weights and the segment table
    /// alone: each segment's length, node count and content id, in table
    /// order. A segment's content id is the checksum of its persisted bytes
    /// (count table and node planes), taken when it was sealed. That is
    /// everything a search reads:
    ///
    /// - the weights (the DP workspace and the count bounds);
    /// - the order and lengths of the segment table (the schedule);
    /// - each segment's count table and node planes, terminal arena ids
    ///   included (the bounds and the walk), all under its checksum.
    ///
    /// The longest length only picks `u16` or `u32` lanes, which give equal
    /// hits and equal stats (the kernel-parity suites), and it is the last
    /// length with a segment in any case. Tombstones and the arena's
    /// planes are not folded: a removed slot is absent from every segment,
    /// and a hit names an arena id that each engine materializes from its
    /// own arena. Two indexes with equal generations therefore replay each
    /// other's cached hits exactly.
    ///
    /// - **Stability**: a byte-identical reload, a clone, an empty delta, a
    ///   rebuild over the same structures, and a delta that only appends
    ///   derive the *same* generation, so warm cache entries stay valid
    ///   across restarts and re-registrations. So does a delta whose
    ///   tombstones all lie above its last live id, against the compacted
    ///   rebuild of it: both hold the same live ids in the same segments.
    /// - **Safety**: any change to what a search returns derives a
    ///   different generation: different weights, a different structure
    ///   space, or a delta that adds or removes a live structure (it
    ///   rebuilds a segment of that length), so stale hits can never be
    ///   replayed against an index whose ids mean something else.
    ///
    /// Placeholder records are not in the segments, so two indexes whose
    /// live structures differ only in their placeholders at the same ids
    /// share a generation (the tenant registry would call re-registering
    /// one over the other unchanged). No workspace path produces such a
    /// pair: an [`crate::IndexDelta`] gives every addition a fresh id.
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

    /// Top-k search returning the work it did. The index records nothing
    /// itself: a caller that keeps metrics (the engine) publishes these
    /// [`SearchStats`].
    ///
    /// The lanes are `u16` when the query fits their envelope, `u32`
    /// otherwise. A workspace is allocated per search rather than pooled:
    /// that costs a few microseconds against a search of a millisecond or
    /// more, and keeps every counter independent of what earlier searches
    /// left behind.
    pub fn search_with_stats(
        &self,
        masked: &[StructTokId],
        cfg: &SearchConfig,
    ) -> (Vec<SearchHit>, SearchStats) {
        if self.store.len() == 0 {
            return (Vec::new(), SearchStats::default());
        }
        match SoaWorkspace::new(masked, self.weights, self.max_len) {
            Some(cols) => self.search_on(cols, masked, cfg),
            None => {
                let cols = SoaWorkspace::wide(masked, self.weights, self.max_len);
                self.search_on(cols, masked, cfg)
            }
        }
    }

    /// Walk the schedule's segments on `cols`, in bound order, until the
    /// next segment's bound exceeds the k-th best. The per-length and
    /// pruned counters are settled once the search ends.
    fn search_on<L: Lane>(
        &self,
        mut cols: SoaWorkspace<L>,
        masked: &[StructTokId],
        cfg: &SearchConfig,
    ) -> (Vec<SearchHit>, SearchStats) {
        let mut state = SearchState::new(cfg.k, self.tries.len());
        let mut schedule = Schedule::new(self, masked, cfg.bdb);
        while let Some(unit) = schedule.next_within::<L>(state.topk.threshold()) {
            state.stats.shards_searched += 1;
            state.walked[unit.len] = true;
            SoaTrieWalk {
                trie: self.tries[unit.len][unit.shard].planes(),
                target_len: unit.len,
                dap: cfg.dap,
                state: &mut state,
                cols: &mut cols,
            }
            .visit_children(0, 0, 0);
        }
        state.stats.cells_evaluated += cols.take_cells();
        schedule.settle(state)
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
}

/// One work unit of a search: shard `shard` of length `len`, with the
/// least count bound over its groups (0 when the search runs without BDB).
/// Units order by bound, then length, then shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Unit {
    bound: Dist,
    len: usize,
    shard: usize,
}

/// The query side of the count bound: its length, its weighted length
/// `W(q)` and, for each token type it contains, that type's id, its count
/// (capped at 255, a count plane's largest byte, which leaves every
/// `min(c_q(t), c_s(t))` unchanged) and its class: 0 keyword, 1 special
/// character, 2 literal. Kept as [`Dist`]s and bytes, narrowed to the
/// walk's lane only inside [`QueryCounts::least_bound`].
struct QueryCounts {
    len: usize,
    weight: Dist,
    types: Vec<(usize, u8, usize)>,
}

impl QueryCounts {
    fn new(masked: &[StructTokId], w: Weights) -> QueryCounts {
        let mut counts = [0u8; STRUCT_ALPHABET];
        for t in masked {
            if let Some(c) = counts.get_mut(t.0 as usize) {
                *c = c.saturating_add(1);
            }
        }
        let class = |t: StructTokId| match t.class() {
            TokenClass::Keyword => 0,
            TokenClass::SplChar => 1,
            TokenClass::Literal => 2,
        };
        QueryCounts {
            len: masked.len(),
            weight: masked.iter().map(|&t| w.of(t)).sum(),
            types: (0u8..)
                .zip(counts)
                .filter(|&(_, c)| c > 0)
                .map(|(t, c)| (t as usize, c, class(StructTokId(t))))
                .collect(),
        }
    }

    /// The least count bound over `trie`'s groups, computed in lane `L`:
    /// `W(q) + W(s) − 2·Σ_{t∈q} wₜ·min(c_q(t), c_s(t))`, which is
    /// `Σₜ wₜ·|c_q(t) − c_s(t)|` summed over the query's types alone. The
    /// minima are summed per class, whose types share one weight, in byte
    /// lanes: a class's sum never exceeds the group's length, at most 255.
    /// `shared` is scratch space for those sums, one byte per group and
    /// class. Each group's tail then reads its class sums and the trie's
    /// two class planes as contiguous byte streams and computes, in `L`,
    /// `W(s) = w_K·kw + w_S·spl + w_L·(n − kw − spl)` and the bound above,
    /// every term non-negative.
    ///
    /// The caller picks `L` as the walk's lane: `u16` for every query
    /// inside [`SoaWorkspace::fits`], `u32` past it. The bound is exact in
    /// either, the same number for every group:
    ///
    /// - `fits(m, max_len, w)` requires that the weights lower to `u16`
    ///   and that `(m + max_len)·w_max + (m + max_len)·w_min < 65,535`.
    /// - For any segment of length `n ≤ max_len`, `W(q) ≤ m·w_max` and
    ///   `W(s) ≤ n·w_max`, so `W(q) + W(s) < 65,535`.
    /// - `kw + spl ≤ n` (a validated count table's entries sum to `n`), each
    ///   class sum is at most `n ≤ 255`, and
    ///   `Σ wₜ·min(c_q, c_s) ≤ min(W(q), W(s))`. So every intermediate and
    ///   the result lie in `[0, W(q) + W(s)]`: nothing wraps or underflows.
    /// - On `u32` lanes the same holds with `u32::MAX` for the ceiling,
    ///   which `W(q) + W(s)` stays below as a [`Dist`] already must.
    ///
    /// The unit order, the walk, the hits and every counter are therefore
    /// independent of the lane. A segment longer than 255 tokens keeps the
    /// length bound; an empty count table bounds to [`DIST_INF`].
    fn least_bound<L: Lane>(&self, trie: &Trie, w: Weights, shared: &mut [Vec<u8>; 3]) -> Dist {
        if trie.len > usize::from(u8::MAX) {
            // Count planes hold a byte per type; past that length only the
            // length bound is sound.
            return lower_bound(self.len, trie.len, w);
        }
        let counts = trie.counts();
        if counts.groups() == 0 {
            return DIST_INF;
        }
        for class in shared.iter_mut() {
            class.clear();
            class.resize(counts.groups(), 0);
        }
        for &(t, cq, class) in &self.types {
            for (acc, &c) in shared[class].iter_mut().zip(counts.plane(t)) {
                *acc += c.min(cq);
            }
        }
        let [wk, ws, wl] = [w.keyword, w.splchar, w.literal].map(L::narrow);
        // lossy: len <= 255 here
        let (wq, n, two) = (L::narrow(self.weight), L::from(trie.len as u8), L::from(2));
        let [kw, spl] = trie.class_totals();
        let [kw_shared, spl_shared, lit_shared] = &*shared;
        kw.iter()
            .zip(spl)
            .zip(kw_shared)
            .zip(spl_shared)
            .zip(lit_shared)
            .map(|((((&k, &s), &ks), &ss), &ls)| {
                let (k, s) = (L::from(k), L::from(s));
                let weight = wk * k + ws * s + wl * (n - k - s);
                let acc = wk * L::from(ks) + ws * L::from(ss) + wl * L::from(ls);
                wq + weight - two * acc
            })
            .fold(L::SAT, L::min)
            .widen()
    }
}

/// The order one search walks segments in.
///
/// With BDB, units come out in ascending least count bound until that
/// bound exceeds the caller's threshold, bounded lazily: lengths are taken
/// in ascending Proposition 1 bound, and a length's segments are bounded
/// only once that bound could tie both the best unit not yet handed out and
/// the threshold. Proposition 1 never exceeds a length's count bounds, so
/// the lazy order is exactly the order of bounding everything, while a
/// search never bounds a length it could not walk. Without BDB, every unit
/// has bound 0, so all come out in table order, unbounded.
struct Schedule<'a> {
    index: &'a StructureIndex,
    query: QueryCounts,
    bdb: bool,
    /// Non-empty lengths in the order they are bounded, each with its
    /// Proposition 1 bound.
    lengths: Vec<(Dist, usize)>,
    next_len: usize,
    /// Non-empty segments across all lengths.
    segments: usize,
    ready: BinaryHeap<Reverse<Unit>>,
    shared: [Vec<u8>; 3],
}

impl<'a> Schedule<'a> {
    fn new(index: &'a StructureIndex, masked: &[StructTokId], bdb: bool) -> Schedule<'a> {
        let w = index.weights;
        let mut segments = 0;
        let mut lengths: Vec<(Dist, usize)> = Vec::new();
        for (len, shards) in index.tries.iter().enumerate() {
            let live = shards.iter().filter(|t| !t.is_empty()).count();
            if live > 0 {
                segments += live;
                let p1 = if bdb {
                    lower_bound(masked.len(), len, w)
                } else {
                    0
                };
                lengths.push((p1, len));
            }
        }
        lengths.sort_unstable();
        Schedule {
            index,
            query: QueryCounts::new(masked, w),
            bdb,
            lengths,
            next_len: 0,
            segments,
            ready: BinaryHeap::new(),
            shared: Default::default(),
        }
    }

    /// Close a search: every non-empty shard and length not walked was
    /// pruned, so searched + pruned always accounts for each exactly once.
    fn settle(&self, mut state: SearchState) -> (Vec<SearchHit>, SearchStats) {
        let stats = &mut state.stats;
        // lossy: at most one per length, and lengths are at most 255 on any
        // persistable index
        stats.tries_searched = state.walked.iter().filter(|&&w| w).count() as u32;
        stats.tries_pruned = self.lengths.len() as u32 - stats.tries_searched;
        stats.shards_pruned = self.segments as u32 - stats.shards_searched;
        (state.topk.into_vec(), state.stats)
    }
}

impl Schedule<'_> {
    /// The next unit in schedule order, or `None` once its bound exceeds
    /// `threshold`: the threshold only ever falls, so no later unit could
    /// be walked either. Segments are bounded in the walk's lane `L` (see
    /// [`QueryCounts::least_bound`]).
    fn next_within<L: Lane>(&mut self, threshold: Dist) -> Option<Unit> {
        while let Some(&(p1, len)) = self.lengths.get(self.next_len) {
            let best = self
                .ready
                .peek()
                .map_or(threshold, |Reverse(u)| u.bound.min(threshold));
            if p1 > best {
                break;
            }
            self.next_len += 1;
            for (shard, trie) in self.index.tries[len].iter().enumerate() {
                if trie.is_empty() {
                    continue;
                }
                let bound = if self.bdb {
                    self.query
                        .least_bound::<L>(trie, self.index.weights, &mut self.shared)
                } else {
                    0
                };
                self.ready.push(Reverse(Unit { bound, len, shard }));
            }
        }
        match self.ready.peek() {
            Some(Reverse(unit)) if unit.bound <= threshold => self.ready.pop().map(|Reverse(u)| u),
            _ => None,
        }
    }
}

/// One trie walk: the recursion of Box 2's `SearchRecursively` over the
/// chunked SoA kernel, with the query's DP columns, the search state and
/// the DAP switch bundled together.
///
/// Sibling children are advanced in chunks of up to [`SOA_LANES`]: one
/// [`SoaWorkspace::advance_chunk`] call computes every sibling's DP column
/// simultaneously, so each transcript-token load (and each parent-column
/// cell load) amortizes over the whole chunk instead of being re-fetched
/// per child. Hoisting a chunk's columns to its head changes neither which
/// columns are computed nor the offer/descend sequence: each lane's offer
/// and descend still happen in sibling order, with the threshold exactly as
/// tight as a one-column-at-a-time walk would have it at that point. Hits,
/// `nodes_visited` and `cells_evaluated` therefore equal those of the
/// scalar walk over [`speakql_editdist::advance_column`], which the test
/// oracle keeps and the oracle suite checks on `u16` and `u32` lanes.
struct SoaTrieWalk<'a, 'b, L> {
    trie: Planes<'a>,
    /// Token length of every structure in this trie (tries are per-length).
    target_len: usize,
    /// Diversity-Aware Pruning (App. D.3); see [`SoaTrieWalk::visit_dap`].
    dap: bool,
    state: &'b mut SearchState,
    cols: &'b mut SoaWorkspace<L>,
}

impl<L: Lane> SoaTrieWalk<'_, '_, L> {
    /// Visit the children of `node`, whose own DP column lives at lane
    /// `parent_lane` of block `depth` in the workspace. Descending into the
    /// child at lane `c` only ever writes blocks deeper than `depth + 1`, so
    /// the chunk's sibling columns stay intact across recursion.
    fn visit_children(&mut self, node: u32, depth: usize, parent_lane: usize) {
        let rem = self.target_len - (depth + 1);
        if self.dap {
            self.visit_dap(node, depth, parent_lane, rem);
        } else {
            self.visit_all(self.trie.children(node), depth, parent_lane, rem);
        }
    }

    /// Advance, offer and descend into each of `children` in order.
    fn visit_all(
        &mut self,
        mut children: impl Iterator<Item = u32>,
        depth: usize,
        parent_lane: usize,
        rem: usize,
    ) {
        let mut pending = children.next();
        while let Some(first) = pending {
            pending = children.next();
            // A chunk of one: fanout-1 nodes dominate real tries, and a
            // wider node may leave one child for its last chunk. Route it
            // through the padless single-column kernel with no gather
            // arrays and no ChunkStats round-trip through memory.
            if pending.is_none() {
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
            let chunk = self.cols.advance_chunk(depth, parent_lane, &toks[..n], rem);
            for (c, &child) in ids[..n].iter().enumerate() {
                self.visit_one(child, depth, c, chunk.last[c], chunk.bound[c]);
            }
        }
    }

    /// DAP (App. D.3): among sibling children whose tokens are in the prime
    /// superset, explore only the first one whose column's last cell is
    /// least; other children are unaffected. The prime children are
    /// advanced in chunks once to pick it, then the non-prime children and
    /// the pick are walked in sibling order as without DAP. The pick's
    /// column is thus computed (and counted) twice, which keeps every
    /// counter equal to the one-column-at-a-time walk's.
    fn visit_dap(&mut self, node: u32, depth: usize, parent_lane: usize, rem: usize) {
        let trie = self.trie;
        let mut primes = trie.children(node).filter(|&c| is_prime(trie.token(c)));
        let mut best: Option<(Dist, u32)> = None;
        loop {
            let mut ids = [0u32; SOA_LANES];
            let mut toks = [StructTokId(0); SOA_LANES];
            let mut n = 0;
            for child in primes.by_ref().take(SOA_LANES) {
                ids[n] = child;
                toks[n] = trie.token(child);
                n += 1;
            }
            if n == 0 {
                break;
            }
            self.state.stats.nodes_visited += n as u64;
            let chunk = self.cols.advance_chunk(depth, parent_lane, &toks[..n], rem);
            for (c, &child) in ids[..n].iter().enumerate() {
                if best.is_none_or(|(d, _)| chunk.last[c] < d) {
                    best = Some((chunk.last[c], child));
                }
            }
        }
        let pick = best.map(|(_, c)| c);
        let kept = trie
            .children(node)
            .filter(|&c| Some(c) == pick || !is_prime(trie.token(c)));
        self.visit_all(kept, depth, parent_lane, rem);
    }

    /// Offer-and-descend for one freshly advanced child column.
    #[inline]
    fn visit_one(&mut self, child: u32, depth: usize, lane: usize, last: Dist, bound: Dist) {
        self.state.stats.nodes_visited += 1;
        let terminal = self.trie.structure(child);
        if terminal != NONE {
            self.state.topk.offer(SearchHit {
                structure: terminal,
                distance: last,
            });
        }
        // Box 2 line 46, per lane: descend only while the banded bound can
        // still beat the current k-th best ("min(DpCurCol) ≤ MinEditDist").
        if self.trie.first_child(child) != NONE && bound <= self.state.topk.threshold() {
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

/// The agreement check the loader skips (it checks only the count tables'
/// shape): every segment's count table lists exactly its terminals'
/// arena-token multisets, entry by entry in node order, each entry's
/// keyword and special-character totals match its counts, and no multiset
/// is listed twice within a length.
#[cfg(test)]
pub(crate) fn count_tables_agree(index: &StructureIndex) -> Result<(), String> {
    for (len, shards) in index.tries.iter().enumerate() {
        let mut listed = std::collections::HashSet::new();
        for (shard, trie) in shards.iter().enumerate() {
            let at = format!("length {len} shard {shard}");
            let counts = trie.counts();
            let mut terminals = trie.structure_ids();
            for g in 0..counts.groups() {
                let entry = counts.of(g);
                if !listed.insert(entry) {
                    return Err(format!("{at}: entry {g} lists a multiset twice"));
                }
                let class_total = |class| {
                    (0u8..)
                        .zip(entry)
                        .filter(|&(t, _)| StructTokId(t).class() == class)
                        .map(|(_, c)| c)
                        .sum::<u8>()
                };
                let totals = trie.class_totals().map(|plane| plane.get(g).copied());
                if totals
                    != [TokenClass::Keyword, TokenClass::SplChar].map(|c| Some(class_total(c)))
                {
                    return Err(format!("{at}: entry {g} class totals disagree"));
                }
                for _ in 0..counts.size(g) {
                    let Some(id) = terminals.next() else {
                        return Err(format!("{at}: entry {g} overruns the terminals"));
                    };
                    if token_counts(index.store.tokens(id as usize)) != entry {
                        return Err(format!("{at}: structure {id} is not entry {g}'s multiset"));
                    }
                }
            }
            if terminals.next().is_some() {
                return Err(format!("{at}: terminals outside every entry"));
            }
        }
    }
    Ok(())
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
        // Stats are a pure function of (index, query, config): the second
        // run of a query on the same index reports exactly the work of the
        // first, at k = 1 and 5 and under DAP.
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
            SearchConfig::top_k(5),
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
    fn segment_bounds_are_their_groups_least_count_bound() {
        // The table-driven bound pass computes, per segment, exactly the
        // least `count_lower_bound` over its structures, on `u16` lanes and
        // on `u32` lanes alike: for fixed probes, for drawn queries of 0-40
        // tokens, and for the longest all-`VAR` query the `u16` envelope
        // admits against the index's longest length.
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;

        let idx = small_index();
        assert_eq!(count_tables_agree(idx), Ok(()));
        let w = idx.weights();
        let check = |masked: &[StructTokId]| {
            let at = format!("a {}-token query", masked.len());
            assert!(SoaWorkspace::fits(masked.len(), idx.max_len(), w), "{at}");
            let query = QueryCounts::new(masked, w);
            let mut scratch = Default::default();
            for trie in idx.tries.iter().flatten() {
                let least = trie
                    .structure_ids()
                    .map(|id| {
                        speakql_editdist::count_lower_bound(masked, idx.structure_tokens(id), w)
                    })
                    .min()
                    .unwrap_or(DIST_INF);
                let lanes = [
                    query.least_bound::<u16>(trie, w, &mut scratch),
                    query.least_bound::<u32>(trie, w, &mut scratch),
                ];
                assert_eq!(lanes, [least; 2], "u16 and u32 lanes, {at}");
                assert!(least >= lower_bound(masked.len(), trie.len, w));
            }
        };
        for probe in [
            "select a from t where b equals c",
            "select sum open parenthesis salary close parenthesis from salaries",
            "",
        ] {
            check(&process_transcript_text(probe).masked);
        }
        let drawn = prop::collection::vec((0..STRUCT_ALPHABET as u8).prop_map(StructTokId), 0..41);
        TestRunner::new(ProptestConfig::default(), "segment_bounds").run(|rng| {
            check(&drawn.generate(rng));
            Ok(())
        });
        let longest = (0..)
            .find(|&m| !SoaWorkspace::fits(m + 1, idx.max_len(), w))
            .unwrap_or(0);
        check(&vec![StructTokId::VAR; longest]);
    }

    #[test]
    fn structures_past_a_count_byte_stay_exact() {
        // Count planes hold a byte per type, so a structure of more than
        // 255 tokens is bounded by its length alone, never by saturated
        // counts that would overestimate its distance.
        let vars =
            |n: usize| Structure::new(vec![StructTok::Var; n], vec![Placeholder::attribute(); n]);
        let idx = StructureIndex::build(vec![vars(3), vars(290), vars(300)], Weights::PAPER);
        let masked = vec![StructTokId::VAR; 300];
        for k in [1usize, 2] {
            let hits = idx.search(&masked, &SearchConfig::top_k(k));
            assert_eq!(hits, idx.scan(&masked, k));
            assert_eq!(hits[0].distance, 0);
        }
    }

    #[test]
    fn shards_cut_between_multiset_groups() {
        // Every multiset of a length lives in exactly one shard, listed
        // once; shards follow the groups' smallest-id order.
        let idx = small_index();
        for shards in &idx.tries {
            let firsts: Vec<u32> = shards
                .iter()
                .flat_map(|t| {
                    let counts = t.counts();
                    let ids: Vec<u32> = t.structure_ids().collect();
                    let mut at = 0;
                    (0..counts.groups())
                        .map(|g| {
                            let first = ids[at];
                            at += counts.size(g);
                            first
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            assert!(firsts.windows(2).all(|w| w[0] < w[1]));
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
