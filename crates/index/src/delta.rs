//! Incremental index maintenance: apply a schema/instance change without
//! rebuilding the world.
//!
//! A catalog change (a table added, dropped, or reshaped) perturbs only the
//! structures that mention it — a tiny slice of a million-structure space.
//! [`StructureIndex::apply_delta`] does work proportional to that slice:
//!
//! - removals become *tombstones* in a copy-on-write bitset (the arena slot
//!   keeps its window so every other structure's id — and every cached
//!   [`crate::SearchHit`] for an untouched segment — stays meaningful);
//! - additions become one new arena chunk appended at the tail, and every
//!   existing chunk is shared, not copied (see the `store` module);
//! - only the trie segments of the **affected lengths** (lengths that lost
//!   or gained a structure) are rebuilt, over those lengths' live ids
//!   regrouped from their own segments: a segment's terminals, in node
//!   order, are its groups one after another, so its count table splits
//!   them into groups without hashing a structure, and only the additions
//!   are hashed, to find the group each joins. Every other segment is
//!   carried over as-is: an O(1) refcount bump on its sealed buffer;
//! - the generation refolds the segment table: one length word and one
//!   content id per segment.
//!
//! What a delta costs is therefore the seal of the affected segments plus
//! O(chunks + segments + arena / 64) bookkeeping (the last term is the
//! tombstone copy, paid only when the delta removes something).
//!
//! ## Equivalence to a full rebuild
//!
//! The rebuilt lengths use the exact shard layout [`StructureIndex::build`]
//! computes — live structures grouped by token multiset, groups in order of
//! their smallest live id, cut into shards between groups — which is
//! precisely what a build over the live structures (in the same order)
//! produces. A delta'd index
//! and a full rebuild over its live structures therefore return the same
//! hits (same structures, same distances, same order) and do the same
//! search work; the only difference is id *values* (the rebuild compacts
//! tombstone holes away). A segment's terminals are arena ids, so the two
//! derive the same generation exactly when the rebuild renumbers no live
//! id — no tombstone lies below a live id, as in a delta that only appends
//! or one that removes only the tail. Then they return the same hits id
//! for id; otherwise their cached hit ids are not interchangeable, and
//! their generations differ. The property tests in this module pin the
//! equivalence for one delta and along chains of deltas.

use crate::content::BuildFx;
use crate::search::{seal_shards, Groups, StructureIndex};
use crate::store::{ChunkBuilder, StructStore, Tombstones};
use crate::trie::{token_counts, TokenCounts, Trie};
use speakql_grammar::{StructTokId, Structure};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// A batch of arena edits: structures to tombstone (by arena id) and
/// structures to append. Build one with the fluent methods and hand it to
/// [`StructureIndex::apply_delta`].
///
/// Structures carry no table identity — a "table" at this layer is whatever
/// id set the schema layer above maps to it. [`IndexDelta::remove_matching`]
/// covers the common "drop every structure of table T" shape without the
/// caller materializing the id list by hand.
#[derive(Debug, Clone, Default)]
pub struct IndexDelta {
    add: Vec<Structure>,
    remove: Vec<u32>,
}

impl IndexDelta {
    /// An empty delta (applying it is a no-op that reuses every segment).
    pub fn new() -> IndexDelta {
        IndexDelta::default()
    }

    /// Append `structures` to the arena.
    pub fn add_structures(mut self, structures: impl IntoIterator<Item = Structure>) -> IndexDelta {
        self.add.extend(structures);
        self
    }

    /// Tombstone the structures with these arena ids.
    pub fn remove_structures(mut self, ids: impl IntoIterator<Item = u32>) -> IndexDelta {
        self.remove.extend(ids);
        self
    }

    /// Tombstone every live structure of `index` whose `(id, tokens)` the
    /// predicate selects — the "remove a table" shape, with the table →
    /// structure mapping supplied by the caller.
    pub fn remove_matching(
        self,
        index: &StructureIndex,
        mut pred: impl FnMut(u32, &[StructTokId]) -> bool,
    ) -> IndexDelta {
        let ids: Vec<u32> = (0..index.arena_len() as u32)
            .filter(|&id| !index.is_removed(id) && pred(id, index.structure_tokens(id)))
            .collect();
        self.remove_structures(ids)
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.add.is_empty() && self.remove.is_empty()
    }

    /// Number of structures this delta appends.
    pub fn added(&self) -> usize {
        self.add.len()
    }

    /// Number of arena ids this delta tombstones (before deduplication).
    pub fn removed(&self) -> usize {
        self.remove.len()
    }
}

/// What applying a delta did — the counter-proof that only affected
/// segments were re-generated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Structures appended to the arena.
    pub structures_added: usize,
    /// Arena slots tombstoned (after deduplication).
    pub structures_removed: usize,
    /// Distinct token lengths that lost or gained a structure.
    pub lengths_affected: usize,
    /// Trie segments rebuilt (all of them belong to affected lengths).
    pub segments_rebuilt: usize,
    /// Trie segments carried over unchanged from the input index.
    pub segments_reused: usize,
}

/// Errors applying an [`IndexDelta`]. The input index is never modified —
/// application is copy-on-write — so an error leaves nothing to undo.
#[derive(Debug)]
pub enum DeltaError {
    /// A remove id is out of arena range or already tombstoned.
    UnknownStructure(u32),
    /// An added structure duplicates a live structure's token sequence (or
    /// another addition in the same delta).
    DuplicateStructure,
    /// An added structure is empty or longer than the format's 255-token
    /// limit.
    UnrepresentableLength(usize),
    /// An added structure's Var tokens and placeholder records disagree.
    PlaceholderMismatch,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownStructure(id) => {
                write!(f, "delta removes unknown or already-removed structure {id}")
            }
            DeltaError::DuplicateStructure => {
                f.write_str("delta adds a structure that already exists")
            }
            DeltaError::UnrepresentableLength(n) => {
                write!(f, "delta adds a structure of unrepresentable length {n}")
            }
            DeltaError::PlaceholderMismatch => {
                f.write_str("delta adds a structure whose placeholders do not match its Vars")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

impl StructureIndex {
    /// Apply `delta`, re-generating only the affected lengths' trie
    /// segments; see the [module docs](crate::delta) for the layout and the
    /// equivalence argument. Returns the new index and the
    /// [`DeltaStats`] counter-proof; `self` is untouched (copy-on-write),
    /// so a caller can hot-swap atomically or discard on error.
    pub fn apply_delta(
        &self,
        delta: &IndexDelta,
    ) -> Result<(StructureIndex, DeltaStats), DeltaError> {
        if delta.is_empty() {
            // Nothing changes: the clone shares the arena, every segment,
            // and — because generations are content-derived — the
            // generation, so warm cache entries stay valid.
            let stats = DeltaStats {
                segments_reused: self.segment_count(),
                ..DeltaStats::default()
            };
            return Ok((self.clone(), stats));
        }

        let old_arena = self.arena_len();
        for s in &delta.add {
            let n = s.tokens.len();
            if n == 0 || n > 255 {
                return Err(DeltaError::UnrepresentableLength(n));
            }
            let vars = s.tokens.iter().filter(|t| t.is_var()).count();
            if vars != s.placeholders.len() {
                return Err(DeltaError::PlaceholderMismatch);
            }
        }
        let mut removes: Vec<u32> = delta.remove.clone();
        removes.sort_unstable();
        removes.dedup();
        for &id in &removes {
            if id as usize >= old_arena || self.is_removed(id) {
                return Err(DeltaError::UnknownStructure(id));
            }
        }

        // The widened arena: the base chunks are shared, the additions
        // become one new chunk at the tail. Tombstoned slots keep their
        // windows so ids stay stable and the persisted layout stays
        // uniform; the tombstone bitset is copied only when this delta
        // removes something.
        let new_arena = old_arena + delta.add.len();
        let removed = self
            .removed()
            .with(removes.iter().copied(), new_arena)
            .map_err(DeltaError::UnknownStructure)?;
        let added_toks: usize = delta.add.iter().map(|s| s.tokens.len()).sum();
        let added_phs: usize = delta.add.iter().map(|s| s.placeholders.len()).sum();
        let mut chunk = ChunkBuilder::with_capacity(delta.add.len(), added_toks, added_phs);
        for s in &delta.add {
            chunk.push(&s.tokens, &s.placeholders);
        }
        let store = self.store().appended(chunk.seal());

        // Affected lengths: everything that lost or gained a structure.
        let max_candidate = self
            .max_len()
            .max(delta.add.iter().map(Structure::len).max().unwrap_or(0));
        let mut affected = vec![false; max_candidate + 1];
        for &id in &removes {
            affected[store.token_len(id as usize)] = true;
        }
        for s in &delta.add {
            affected[s.len()] = true;
        }

        // Segments: reuse every unaffected length's shards wholesale,
        // rebuild the affected lengths with the canonical shard layout over
        // their live groups — the old segments' groups minus this delta's
        // tombstones, joined by this delta's additions.
        let mut stats = DeltaStats {
            structures_added: delta.add.len(),
            structures_removed: removes.len(),
            lengths_affected: affected.iter().filter(|&&a| a).count(),
            ..DeltaStats::default()
        };
        let mut tries: Vec<Vec<Trie>> = Vec::with_capacity(max_candidate + 1);
        for (l, &hit) in affected.iter().enumerate() {
            let old = self.tries().get(l).map_or(&[][..], Vec::as_slice);
            if !hit {
                stats.segments_reused += old.len();
                tries.push(old.to_vec());
                continue;
            }
            let added = (old_arena as u32..)
                .zip(&delta.add)
                .filter(|(_, s)| s.len() == l)
                .map(|(id, _)| id);
            let groups = regroup(&store, old, &removed, added)?;
            let shards = seal_shards(&store, l, &groups);
            stats.segments_rebuilt += shards.len();
            tries.push(shards);
        }
        // Lengths that ended empty at the top fall off the tries vector.
        while tries.len() > 1 && tries.last().is_some_and(Vec::is_empty) {
            tries.pop();
        }
        let max_len = tries.len() - 1;

        let next = StructureIndex::from_parts(store, tries, self.weights(), max_len, removed);
        Ok((next, stats))
    }
}

/// One group of a rebuilt length: its smallest live id, its live members
/// from the old segments, and the additions that join it (ranges into
/// [`regroup`]'s two id buffers).
struct Run {
    first: u32,
    old: Range<usize>,
    added: Range<usize>,
}

/// The groups of one affected length after a delta: the old segments'
/// groups (each segment's terminals split by its count table) minus the
/// tombstoned members, each joined by the additions with its token
/// multiset, then the remaining additions grouped by multiset; groups
/// re-sorted by smallest live id. Only the additions are hashed. Fails on an
/// addition that duplicates a live structure or another addition: equal
/// sequences have equal multisets, so only the members of a group that
/// gained additions are compared.
fn regroup(
    store: &StructStore,
    old: &[Trie],
    removed: &Tombstones,
    added: impl Iterator<Item = u32>,
) -> Result<Groups, DeltaError> {
    // The additions, bucketed by multiset in first-seen order; each bucket's
    // ids are contiguous in `adds` once sorted by bucket.
    let mut buckets: HashMap<TokenCounts, usize, BuildFx> = HashMap::with_hasher(BuildFx);
    let mut adds: Vec<(usize, u32)> = added
        .map(|id| {
            let next = buckets.len();
            let counts = token_counts(store.tokens(id as usize));
            (*buckets.entry(counts).or_insert(next), id)
        })
        .collect();
    adds.sort_unstable();
    let mut bucket_ranges: Vec<Option<Range<usize>>> = vec![None; buckets.len()];
    for (i, &(b, _)) in adds.iter().enumerate() {
        bucket_ranges[b].get_or_insert(i..i).end = i + 1;
    }
    let adds: Vec<u32> = adds.into_iter().map(|(_, id)| id).collect();

    let mut live: Vec<u32> = Vec::new();
    let mut runs: Vec<Run> = Vec::new();
    for trie in old {
        let counts = trie.counts();
        let mut terminals = trie.structure_ids();
        for g in 0..counts.groups() {
            let start = live.len();
            live.extend(
                terminals
                    .by_ref()
                    .take(counts.size(g))
                    .filter(|&id| !removed.contains(id as usize)),
            );
            let joined = if buckets.is_empty() {
                None
            } else {
                buckets.get(&counts.of(g)).copied()
            };
            let added = joined.and_then(|b| bucket_ranges[b].take()).unwrap_or(0..0);
            let first = live.get(start).or(adds.get(added.start));
            if let Some(&first) = first {
                runs.push(Run {
                    first,
                    old: start..live.len(),
                    added,
                });
            }
        }
    }
    runs.extend(bucket_ranges.into_iter().flatten().map(|added| Run {
        first: adds[added.start],
        old: 0..0,
        added,
    }));
    runs.sort_unstable_by_key(|r| r.first);
    let mut groups = Groups::default();
    let mut members: Vec<&[StructTokId]> = Vec::new();
    for run in runs {
        let start = groups.ids.len();
        groups.ids.extend_from_slice(&live[run.old.clone()]);
        groups.ids.extend_from_slice(&adds[run.added.clone()]);
        if !run.added.is_empty() {
            members.clear();
            members.extend(
                groups.ids[start..]
                    .iter()
                    .map(|&id| store.tokens(id as usize)),
            );
            members.sort_unstable();
            if members.windows(2).any(|w| w[0] == w[1]) {
                return Err(DeltaError::DuplicateStructure);
            }
        }
        // lossy: a group's members are arena ids, whose count fits u32
        groups.sizes.push((run.old.len() + run.added.len()) as u32);
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{SearchConfig, SearchHit};
    use proptest::prelude::*;
    use speakql_editdist::Weights;
    use speakql_grammar::{GeneratorConfig, STRUCT_ALPHABET};

    fn small_index() -> &'static StructureIndex {
        static IDX: std::sync::OnceLock<StructureIndex> = std::sync::OnceLock::new();
        IDX.get_or_init(|| {
            let cfg = GeneratorConfig {
                max_structures: Some(2_000),
                ..GeneratorConfig::small()
            };
            StructureIndex::from_grammar(&cfg, Weights::PAPER)
        })
    }

    /// A synthetic structure that can never collide with a grammar
    /// structure: it starts with a special character (grammar structures
    /// start with SELECT) and encodes `i` in base-(alphabet−1) over the
    /// non-Var ids, so distinct `(i, len)` give distinct token sequences.
    fn synthetic(i: usize, len: usize) -> Structure {
        let base = (STRUCT_ALPHABET - 1) as u32;
        let mut tokens = vec![StructTokId(20)];
        let mut v = i as u32;
        for _ in 1..len {
            tokens.push(StructTokId(1 + (v % base) as u8));
            v /= base;
        }
        Structure {
            tokens,
            placeholders: Vec::new(),
        }
    }

    /// The segment conservation laws: a search accounts for every
    /// non-empty shard once (walked or pruned by the count bound), and for
    /// every non-empty length once (searched if any of its shards was
    /// walked, pruned otherwise).
    fn accounts_for_every_segment(
        index: &StructureIndex,
        masked: &[StructTokId],
        cfg: &SearchConfig,
    ) -> Result<(), TestCaseError> {
        let shards = index.tries().iter().flatten().filter(|t| !t.is_empty());
        let lengths = index
            .tries()
            .iter()
            .filter(|s| s.iter().any(|t| !t.is_empty()));
        let (shards, lengths) = (shards.count() as u32, lengths.count() as u32);
        let (_, s) = index.search_with_stats(masked, cfg);
        prop_assert_eq!(s.shards_searched + s.shards_pruned, shards);
        prop_assert_eq!(s.tries_searched + s.tries_pruned, lengths);
        Ok(())
    }

    /// Hits compared by structure *content* and distance, not by arena id:
    /// a full rebuild compacts tombstone holes away, renumbering ids while
    /// preserving relative order, so equivalent indexes agree on everything
    /// but the raw id values.
    fn resolved(index: &StructureIndex, hits: &[SearchHit]) -> Vec<(Vec<StructTokId>, u32)> {
        hits.iter()
            .map(|h| (index.structure_tokens(h.structure).to_vec(), h.distance))
            .collect()
    }

    /// True when a compacting rebuild of `index` renumbers a live id: some
    /// tombstone lies below a live id.
    fn rebuild_renumbers(index: &StructureIndex) -> bool {
        let last_live = (0..index.arena_len() as u32).rfind(|&id| !index.is_removed(id));
        last_live.is_some_and(|last| (0..last).any(|id| index.is_removed(id)))
    }

    /// The compacting rebuild of `index`: its live structures, in arena
    /// order, passed to a fresh [`StructureIndex::build`].
    fn rebuild(index: &StructureIndex) -> StructureIndex {
        let live: Vec<Structure> = (0..index.arena_len() as u32)
            .filter(|&id| !index.is_removed(id))
            .map(|id| index.structure(id))
            .collect();
        StructureIndex::build(live, index.weights())
    }

    /// Every segment's node tokens, count-table sizes and terminals' token
    /// sequences in node order: the layout by content, which a delta and
    /// its rebuild share although the rebuild renumbers ids.
    type Layout = Vec<(usize, Vec<StructTokId>, Vec<usize>, Vec<Vec<StructTokId>>)>;

    fn layout(index: &StructureIndex) -> Layout {
        index
            .tries()
            .iter()
            .flatten()
            .map(|t| {
                let nodes = (0..t.node_count() as u32).map(|n| t.node(n).token);
                let counts = t.counts();
                let terminals = t
                    .structure_ids()
                    .map(|id| index.structure_tokens(id).to_vec());
                (
                    t.len,
                    nodes.collect(),
                    (0..counts.groups()).map(|g| counts.size(g)).collect(),
                    terminals.collect(),
                )
            })
            .collect()
    }

    #[test]
    fn removing_a_groups_first_member_reorders_it_like_a_rebuild() -> Result<(), DeltaError> {
        // Groups {SELECT, x, FROM} = {0, 2} and {WHERE, x, FROM} = {1, 3}
        // come in that order; without structure 0 the first group starts
        // at 2, after the second's 1, so a rebuild puts it second.
        use speakql_grammar::{Keyword, StructTok};
        let kw = |k| StructTokId::from_tok(StructTok::Keyword(k));
        let (select, from, where_) = (kw(Keyword::Select), kw(Keyword::From), kw(Keyword::Where));
        let x = StructTokId::VAR;
        let s = |tokens: Vec<StructTokId>| Structure {
            placeholders: vec![speakql_grammar::Placeholder::attribute()],
            tokens,
        };
        let base = StructureIndex::build(
            vec![
                s(vec![select, x, from]),
                s(vec![where_, x, from]),
                s(vec![x, select, from]),
                s(vec![x, where_, from]),
            ],
            Weights::PAPER,
        );
        let (next, _) = base.apply_delta(&IndexDelta::new().remove_structures([0u32]))?;
        let live: Vec<Structure> = (1..4).map(|id| base.structure(id)).collect();
        let rebuilt = StructureIndex::build(live, Weights::PAPER);
        assert_eq!(layout(&next), layout(&rebuilt));
        assert_eq!(layout(&next)[0].3[0], vec![where_, x, from]);
        Ok(())
    }

    /// Tombstoning only the last arena slot renumbers no live id, so the
    /// delta holds its rebuild's segments: same generation, same raw hits.
    /// Tombstoning slot 5 renumbers every later id, and the generation
    /// tells the two apart.
    #[test]
    fn tail_tombstones_share_the_rebuilds_generation() -> Result<(), DeltaError> {
        let base = small_index();
        let last = base.arena_len() as u32 - 1;
        let (tail, _) = base.apply_delta(&IndexDelta::new().remove_structures([last]))?;
        let rebuilt = rebuild(&tail);
        assert!(!rebuild_renumbers(&tail));
        assert_ne!(tail.generation(), base.generation());
        assert_eq!(tail.generation(), rebuilt.generation());
        let cfg = SearchConfig::top_k(5);
        for probe in [last, last - 1, 5, 40] {
            let masked = base.structure_tokens(probe);
            assert_eq!(
                tail.search_with_stats(masked, &cfg),
                rebuilt.search_with_stats(masked, &cfg)
            );
        }

        let (inner, _) = base.apply_delta(&IndexDelta::new().remove_structures([5u32]))?;
        assert!(rebuild_renumbers(&inner));
        assert_ne!(inner.generation(), rebuild(&inner).generation());
        Ok(())
    }

    #[test]
    fn empty_delta_is_identity() -> Result<(), DeltaError> {
        let base = small_index();
        let (next, stats) = base.apply_delta(&IndexDelta::new())?;
        assert_eq!(next.generation(), base.generation());
        assert_eq!(
            stats,
            DeltaStats {
                segments_reused: base.segment_count(),
                ..DeltaStats::default()
            }
        );
        Ok(())
    }

    #[test]
    fn removed_structures_stop_matching() -> Result<(), DeltaError> {
        let base = small_index();
        let probe = base.structure_tokens(7).to_vec();
        let top = base.search(&probe, &SearchConfig::default());
        assert_eq!(top[0].structure, 7);
        assert_eq!(top[0].distance, 0);

        let delta = IndexDelta::new().remove_structures([7u32]);
        let (next, stats) = base.apply_delta(&delta)?;
        assert_eq!(stats.structures_removed, 1);
        assert_eq!(next.len(), base.len() - 1);
        assert_eq!(next.arena_len(), base.arena_len());
        assert!(next.is_removed(7));
        assert_ne!(next.generation(), base.generation());
        let hits = next.search(&probe, &SearchConfig::top_k(5));
        assert!(hits.iter().all(|h| h.structure != 7));
        // And the scan fallback agrees with the trie walk on the delta'd
        // index, tombstones included.
        assert_eq!(hits, next.scan(&probe, 5));
        Ok(())
    }

    #[test]
    fn remove_and_readd_same_tokens_is_allowed() -> Result<(), DeltaError> {
        let base = small_index();
        let resurrected = Structure {
            tokens: base.structure_tokens(3).to_vec(),
            placeholders: base.structure(3).placeholders,
        };
        let delta = IndexDelta::new()
            .remove_structures([3u32])
            .add_structures([resurrected.clone()]);
        let (next, _) = base.apply_delta(&delta)?;
        assert_eq!(next.len(), base.len());
        let hits = next.search(&resurrected.tokens, &SearchConfig::default());
        assert_eq!(hits[0].structure, base.arena_len() as u32);
        assert_eq!(hits[0].distance, 0);
        Ok(())
    }

    #[test]
    fn remove_matching_selects_by_predicate() -> Result<(), DeltaError> {
        let base = small_index();
        let victim = base.structure_tokens(11).to_vec();
        let delta =
            IndexDelta::new().remove_matching(base, |_, tokens| tokens == victim.as_slice());
        assert_eq!(delta.removed(), 1);
        let (next, _) = base.apply_delta(&delta)?;
        assert!(next.is_removed(11));
        Ok(())
    }

    #[test]
    fn delta_errors_are_detected() -> Result<(), DeltaError> {
        let base = small_index();
        let out_of_range = IndexDelta::new().remove_structures([base.arena_len() as u32]);
        assert!(matches!(
            base.apply_delta(&out_of_range),
            Err(DeltaError::UnknownStructure(_))
        ));

        let (once, _) = base.apply_delta(&IndexDelta::new().remove_structures([5u32]))?;
        assert!(matches!(
            once.apply_delta(&IndexDelta::new().remove_structures([5u32])),
            Err(DeltaError::UnknownStructure(5))
        ));

        let dup = IndexDelta::new().add_structures([base.structure(0)]);
        assert!(matches!(
            base.apply_delta(&dup),
            Err(DeltaError::DuplicateStructure)
        ));
        let dup_within = IndexDelta::new().add_structures([synthetic(1, 9), synthetic(1, 9)]);
        assert!(matches!(
            base.apply_delta(&dup_within),
            Err(DeltaError::DuplicateStructure)
        ));

        let empty = IndexDelta::new().add_structures([Structure {
            tokens: Vec::new(),
            placeholders: Vec::new(),
        }]);
        assert!(matches!(
            base.apply_delta(&empty),
            Err(DeltaError::UnrepresentableLength(0))
        ));

        let mismatched = IndexDelta::new().add_structures([Structure {
            tokens: vec![StructTokId::VAR],
            placeholders: Vec::new(),
        }]);
        assert!(matches!(
            base.apply_delta(&mismatched),
            Err(DeltaError::PlaceholderMismatch)
        ));
        Ok(())
    }

    #[test]
    fn stats_account_for_every_segment() -> Result<(), DeltaError> {
        let base = small_index();
        let delta = IndexDelta::new()
            .remove_structures([2u32, 9])
            .add_structures([synthetic(0, 9), synthetic(1, 13)]);
        let (next, stats) = base.apply_delta(&delta)?;
        assert_eq!((stats.structures_removed, stats.structures_added), (2, 2));
        // Every segment of the new index is accounted for exactly once:
        // carried over from an unaffected length or rebuilt for an
        // affected one.
        assert_eq!(
            stats.segments_rebuilt + stats.segments_reused,
            next.segment_count()
        );
        // The reused segments are exactly the base's segments at the
        // lengths the delta did not touch.
        let mut affected: Vec<usize> = [2u32, 9]
            .iter()
            .map(|&id| base.structure_tokens(id).len())
            .chain([9, 13])
            .collect();
        affected.sort_unstable();
        affected.dedup();
        assert_eq!(stats.lengths_affected, affected.len());
        let untouched: usize = (base.tries().iter().enumerate())
            .filter(|(len, _)| !affected.contains(len))
            .map(|(_, shards)| shards.len())
            .sum();
        assert_eq!(stats.segments_reused, untouched);
        Ok(())
    }

    #[test]
    fn delta_roundtrips_through_the_image_preserving_generation(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let base = small_index();
        let bytes = crate::to_bytes(base)?;
        assert_eq!(u16::from_be_bytes([bytes[4], bytes[5]]), 5);
        let loaded = crate::from_shared(bytes)?;
        // Tentpole regression: a byte-identical reload derives the same
        // generation the built index had.
        assert_eq!(loaded.generation(), base.generation());

        let delta = IndexDelta::new()
            .remove_structures([0u32, 13, 17])
            .add_structures([synthetic(0, 9), synthetic(1, 9)]);
        let (next, stats) = loaded.apply_delta(&delta)?;
        assert!(
            stats.segments_reused > 0,
            "untouched lengths must be reused"
        );

        // Serializing the delta'd index exercises the segment replace
        // path: every segment — reused or freshly sealed — is memcpy'd with
        // its stored content id, and the image carries the removed list.
        let bytes2 = crate::to_bytes(&next)?;
        assert_eq!(u16::from_be_bytes([bytes2[4], bytes2[5]]), 5);
        let reloaded = crate::from_shared(bytes2.clone())?;
        assert_eq!(reloaded.generation(), next.generation());
        assert_eq!(reloaded.len(), next.len());
        assert_eq!(reloaded.arena_len(), next.arena_len());

        let probe = base.structure_tokens(40).to_vec();
        let cfg = SearchConfig::top_k(5);
        assert_eq!(
            next.search_with_stats(&probe, &cfg),
            reloaded.search_with_stats(&probe, &cfg)
        );

        // The compacting rebuild path also accepts the image and agrees on
        // content.
        let rebuilt = crate::from_bytes_rebuilt(&bytes2)?;
        assert_eq!(rebuilt.len(), next.len());
        assert_eq!(rebuilt.arena_len(), next.len());
        assert_eq!(
            resolved(&rebuilt, &rebuilt.search(&probe, &cfg)),
            resolved(&next, &next.search(&probe, &cfg))
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `apply_delta` is equivalent to a full rebuild over the live
        /// structures: identical hits (by content and distance, in the
        /// same order) and identical work counters. The two share a
        /// generation exactly when the rebuild renumbers no live id, and
        /// then their hits agree id for id.
        #[test]
        fn apply_delta_equals_full_rebuild(
            remove_raw in prop::collection::vec(0..2_000u32, 0..24),
            n_add in 0usize..24,
            masked in prop::collection::vec(
                (0..STRUCT_ALPHABET as u8).prop_map(StructTokId), 0..20),
            k in 1usize..6,
        ) {
            let base = small_index();
            let remove: std::collections::BTreeSet<u32> = remove_raw.into_iter().collect();
            let adds: Vec<Structure> =
                (0..n_add).map(|i| synthetic(i, 7 + (i % 5))).collect();
            let delta = IndexDelta::new()
                .remove_structures(remove.iter().copied())
                .add_structures(adds.clone());
            let (next, stats) = base
                .apply_delta(&delta)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(stats.structures_removed, remove.len());
            prop_assert_eq!(stats.structures_added, adds.len());
            prop_assert_eq!(next.len(), base.len() - remove.len() + adds.len());

            // The rebuild the delta must be indistinguishable from: live
            // structures in arena order.
            let rebuilt = rebuild(&next);
            prop_assert_eq!(next.len(), rebuilt.len());
            prop_assert_eq!(next.total_nodes(), rebuilt.total_nodes());
            prop_assert_eq!(next.segment_count(), rebuilt.segment_count());
            prop_assert_eq!(layout(&next), layout(&rebuilt));
            // Pure appends and tail removals leave every live id in place,
            // so the delta'd index holds the rebuild's segments: same
            // generation, and warm cache entries stay replayable. Any
            // other removal renumbers a live id the segments name.
            prop_assert_eq!(
                next.generation() == rebuilt.generation(),
                !rebuild_renumbers(&next),
                "the generation must match the rebuild's exactly when no id moves"
            );

            let cfg = SearchConfig::top_k(k);
            let (delta_hits, delta_stats) = next.search_with_stats(&masked, &cfg);
            let (full_hits, full_stats) = rebuilt.search_with_stats(&masked, &cfg);
            prop_assert_eq!(delta_stats, full_stats);
            prop_assert_eq!(
                resolved(&next, &delta_hits),
                resolved(&rebuilt, &full_hits)
            );
            if next.generation() == rebuilt.generation() {
                prop_assert_eq!(delta_hits, full_hits);
            }
        }

        /// A chain of deltas derives the generation its reload derives,
        /// and the reload re-serializes to the same image. The chain
        /// shares its rebuild's generation exactly when the rebuild
        /// renumbers no live id, and then returns the rebuild's raw hits.
        /// Every chain answers like its rebuild, work counters included,
        /// and the chain, its reload and its rebuild each account for
        /// every segment and carry count tables that list exactly their
        /// terminals' multisets.
        #[test]
        fn delta_chains_fold_like_their_reload(
            steps in prop::collection::vec(
                (prop::collection::vec(0..2_300u32, 0..6), 0usize..48),
                1..7,
            ),
            removal_free in any::<bool>(),
            masked in prop::collection::vec(
                (0..STRUCT_ALPHABET as u8).prop_map(StructTokId), 0..20),
            k in 1usize..6,
        ) {
            let fail = |e: &dyn std::fmt::Display| TestCaseError::fail(e.to_string());
            let mut index = small_index().clone();
            let mut added = 0usize;
            for (remove_raw, n_add) in steps {
                let remove: std::collections::BTreeSet<u32> = remove_raw
                    .into_iter()
                    .filter(|&id| {
                        !removal_free
                            && (id as usize) < index.arena_len()
                            && !index.is_removed(id)
                    })
                    .collect();
                let adds = (added..added + n_add).map(|i| synthetic(i, 7 + i % 5));
                added += n_add;
                let delta = IndexDelta::new()
                    .remove_structures(remove)
                    .add_structures(adds);
                index = index.apply_delta(&delta).map_err(|e| fail(&e))?.0;
            }

            let bytes = crate::to_bytes(&index).map_err(|e| fail(&e))?;
            let reloaded = crate::from_shared(bytes.clone()).map_err(|e| fail(&e))?;
            prop_assert_eq!(reloaded.generation(), index.generation());
            prop_assert_eq!(crate::to_bytes(&reloaded).map_err(|e| fail(&e))?, bytes);

            let rebuilt = rebuild(&index);
            prop_assert_eq!(
                index.generation() == rebuilt.generation(),
                !rebuild_renumbers(&index),
                "a chain is its rebuild exactly when no live id moves"
            );
            let cfg = SearchConfig::top_k(k);
            let (hits, stats) = index.search_with_stats(&masked, &cfg);
            let (full_hits, full_stats) = rebuilt.search_with_stats(&masked, &cfg);
            prop_assert_eq!(stats, full_stats);
            prop_assert_eq!(resolved(&index, &hits), resolved(&rebuilt, &full_hits));
            if index.generation() == rebuilt.generation() {
                prop_assert_eq!(hits, full_hits);
            }
            for each in [&index, &reloaded, &rebuilt] {
                accounts_for_every_segment(each, &masked, &cfg)?;
                crate::search::count_tables_agree(each).map_err(|e| fail(&e))?;
            }
        }

        /// Applying a delta and persisting round-trips: the reloaded image
        /// has the same generation, and empty deltas are generation-
        /// preserving fixed points.
        #[test]
        fn delta_persistence_preserves_generation(
            remove_raw in prop::collection::vec(0..2_000u32, 1..16),
            n_add in 0usize..8,
        ) {
            let base = small_index();
            let remove: std::collections::BTreeSet<u32> = remove_raw.into_iter().collect();
            let delta = IndexDelta::new()
                .remove_structures(remove.iter().copied())
                .add_structures((0..n_add).map(|i| synthetic(i, 9)));
            let (next, _) = base
                .apply_delta(&delta)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let bytes = crate::to_bytes(&next).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let reloaded =
                crate::from_shared(bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(reloaded.generation(), next.generation());
            let (again, _) = reloaded
                .apply_delta(&IndexDelta::new())
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(again.generation(), next.generation());
        }
    }
}
