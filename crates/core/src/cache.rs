//! Cross-query skeleton-result cache.
//!
//! Spoken query workloads repeat themselves: analysts re-dictate the same
//! query shapes with different literals, and the masking stage collapses all
//! of them onto a small set of `MaskOut` skeletons. Structure search depends
//! only on that skeleton (plus the search configuration, every field of
//! which shapes the hits), so its top-k hits can be memoized across
//! transcriptions: two transcripts
//! with the same masked token sequence get byte-identical [`SearchHit`]s
//! without walking a single trie.
//!
//! The cache is sharded for concurrency (batch workers hit it from many
//! threads) and bounded by an LRU policy per shard. Shard selection uses
//! FNV-1a — a fixed, platform-independent hash — so hit/miss/eviction
//! counts are reproducible run to run, which the CI perf-snapshot gate
//! relies on.
//!
//! Invalidation is structural: hits reference structures by arena id, which
//! is only meaningful for an index that returns the same hits, so every key
//! carries the [`generation`](speakql_index::StructureIndex::generation) of
//! the index the search ran against. The generation is derived from exactly
//! what a search reads (the weights and the trie segments, whose terminals
//! are the arena ids), so equal generations mean equal hits, id for id, and
//! invalidation is exactly as fine-grained as the answers themselves:
//!
//! - Reloading the same persisted image — or rebuilding the identical
//!   structure space — derives the same generation, so warm entries survive
//!   process restarts and tenant re-registrations instead of going cold
//!   behind a fresh counter value. So does a delta that only appends, or
//!   one that tombstones only slots above its last live id, against its
//!   compacted rebuild: neither moves a live id.
//! - Any change to what a search returns (an
//!   [`IndexDelta`](speakql_index::IndexDelta) that renumbers or removes a
//!   live structure, different weights, a different structure space)
//!   derives a different generation, so stale hits can never be replayed
//!   against ids that now mean something else.
//!
//! Each engine materializes a replayed hit from its own arena. A cache
//! shared across engines — the multi-tenant server hands one
//! `Arc<SkeletonCache>` to every engine — therefore lets tenants on equal
//! indexes reuse each other's warm results (however each copy was built or
//! loaded), while tenants on different indexes can never collide because
//! their generations differ.

use speakql_grammar::StructTokId;
use speakql_index::{SearchConfig, SearchHit};
use speakql_observe::{CounterId, Recorder};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Upper bound on shard count; more shards than this buys no contention
/// relief at the batch sizes the engine runs.
const MAX_SHARDS: usize = 8;

/// Cache key: the masked skeleton, the search configuration, and the
/// generation of the index the hits came from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    generation: u64,
    cfg: SearchConfig,
    masked: Vec<StructTokId>,
}

/// One memoized search result with its LRU recency stamp.
#[derive(Debug)]
struct Entry {
    hits: Vec<SearchHit>,
    tick: u64,
}

/// One lock-protected shard: a bounded map with LRU eviction. Shard
/// capacities are small (the whole cache divides its capacity across
/// shards), so the O(shard len) eviction scan is cheaper than maintaining an
/// intrusive list under the same lock.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<Key, Entry>,
    clock: u64,
}

impl Shard {
    fn get(&mut self, key: &Key) -> Option<Vec<SearchHit>> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entries.get_mut(key)?;
        entry.tick = clock;
        Some(entry.hits.clone())
    }

    fn insert(&mut self, capacity: usize, key: Key, hits: Vec<SearchHit>) -> u64 {
        self.clock += 1;
        let mut evicted = 0;
        // Overwrites refresh in place and never evict.
        if !self.entries.contains_key(&key) {
            while self.entries.len() >= capacity {
                let Some(lru) = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.tick)
                    .map(|(k, _)| k.clone())
                else {
                    break;
                };
                self.entries.remove(&lru);
                evicted += 1;
            }
        }
        self.entries.insert(
            key,
            Entry {
                hits,
                tick: self.clock,
            },
        );
        evicted
    }
}

/// Lock `shard`. Each critical section is one map operation, which leaves
/// the shard valid even if it panics, so a poisoned lock is recovered
/// rather than propagated.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sharded, thread-safe LRU cache from masked skeletons to top-k
/// [`SearchHit`] vectors. See the module docs for the invalidation story.
#[derive(Debug)]
pub struct SkeletonCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry bound; total capacity is `shard_capacity × shards`
    /// (the configured capacity rounded up to a multiple of the shard
    /// count).
    shard_capacity: usize,
}

impl SkeletonCache {
    /// A cache bounded by roughly `capacity` entries (rounded up to a
    /// multiple of the shard count). `capacity` must be at least 1 —
    /// capacity 0 means "no cache", which callers express by not building
    /// one (see [`SpeakQlConfig::cache_capacity`](crate::SpeakQlConfig)).
    pub fn new(capacity: usize) -> SkeletonCache {
        let capacity = capacity.max(1);
        let shards = capacity.min(MAX_SHARDS);
        SkeletonCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity.div_ceil(shards),
        }
    }

    /// Number of entries currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).entries.len()).sum()
    }

    /// True when no search result is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up the memoized hits for `masked` under `cfg` against the index
    /// arena identified by `generation`, bumping the LRU stamp and the
    /// hit/miss counters.
    pub fn get(
        &self,
        generation: u64,
        cfg: &SearchConfig,
        masked: &[StructTokId],
        recorder: &Recorder,
    ) -> Option<Vec<SearchHit>> {
        let key = Key {
            generation,
            cfg: *cfg,
            masked: masked.to_vec(),
        };
        let hit = self.shard(&key).get(&key);
        recorder.incr(if hit.is_some() {
            CounterId::CacheSkeletonHits
        } else {
            CounterId::CacheSkeletonMisses
        });
        hit
    }

    /// Memoize `hits` for `masked` under `cfg` against the index arena
    /// identified by `generation`, evicting the shard's least-recently-used
    /// entries if it is full (counted in `cache.skeleton_evictions`).
    pub fn insert(
        &self,
        generation: u64,
        cfg: &SearchConfig,
        masked: &[StructTokId],
        hits: Vec<SearchHit>,
        recorder: &Recorder,
    ) {
        let key = Key {
            generation,
            cfg: *cfg,
            masked: masked.to_vec(),
        };
        let evicted = self.shard(&key).insert(self.shard_capacity, key, hits);
        recorder.add(CounterId::CacheSkeletonEvictions, evicted);
    }

    /// The shard holding `key`, locked.
    fn shard(&self, key: &Key) -> MutexGuard<'_, Shard> {
        // panic-safe: shard_of reduces modulo shards.len(), so the index
        // is always in bounds.
        lock(&self.shards[self.shard_of(key)])
    }

    /// Deterministic shard selection: FNV-1a over the key's stable byte
    /// encoding. `std`'s default hasher is randomly seeded per process,
    /// which would make eviction (and thus the CI-compared counters) vary
    /// run to run.
    fn shard_of(&self, key: &Key) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for b in key.generation.to_le_bytes() {
            eat(b);
        }
        for b in key.cfg.k.to_le_bytes() {
            eat(b);
        }
        eat(key.cfg.bdb as u8);
        eat(key.cfg.dap as u8);
        for t in &key.masked {
            eat(t.0);
        }
        (h % self.shards.len() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(structure: u32) -> SearchHit {
        SearchHit {
            structure,
            distance: 0,
        }
    }

    fn skeleton(n: usize) -> Vec<StructTokId> {
        (0..n).map(|i| StructTokId((i % 7) as u8)).collect()
    }

    #[test]
    fn get_returns_what_insert_stored() {
        let cache = SkeletonCache::new(16);
        let cfg = SearchConfig::top_k(5);
        let rec = Recorder::disabled();
        assert!(cache.get(7, &cfg, &skeleton(4), &rec).is_none());
        cache.insert(7, &cfg, &skeleton(4), vec![hit(1), hit(2)], &rec);
        assert_eq!(
            cache.get(7, &cfg, &skeleton(4), &rec),
            Some(vec![hit(1), hit(2)])
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_configs_do_not_collide() {
        let cache = SkeletonCache::new(16);
        let rec = Recorder::disabled();
        let top1 = SearchConfig::top_k(1);
        let top5 = SearchConfig::top_k(5);
        cache.insert(7, &top1, &skeleton(4), vec![hit(1)], &rec);
        assert!(cache.get(7, &top5, &skeleton(4), &rec).is_none());
        let dap = SearchConfig {
            dap: true,
            ..SearchConfig::top_k(1)
        };
        assert!(cache.get(7, &dap, &skeleton(4), &rec).is_none());
        assert_eq!(cache.get(7, &top1, &skeleton(4), &rec), Some(vec![hit(1)]));
    }

    #[test]
    fn distinct_generations_do_not_collide() {
        // The same skeleton under the same config belongs to two different
        // arenas: each generation sees only its own entry.
        let cache = SkeletonCache::new(16);
        let cfg = SearchConfig::top_k(3);
        let rec = Recorder::disabled();
        cache.insert(1, &cfg, &skeleton(5), vec![hit(10)], &rec);
        cache.insert(2, &cfg, &skeleton(5), vec![hit(20)], &rec);
        assert_eq!(cache.get(1, &cfg, &skeleton(5), &rec), Some(vec![hit(10)]));
        assert_eq!(cache.get(2, &cfg, &skeleton(5), &rec), Some(vec![hit(20)]));
        assert!(cache.get(3, &cfg, &skeleton(5), &rec).is_none());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        // Capacity 2 → 2 shards × 1 entry. Drive one shard with three keys
        // and check the count of survivors; whichever keys collide, total
        // occupancy can never exceed 2 and evictions must be reported.
        let cache = SkeletonCache::new(2);
        let cfg = SearchConfig::top_k(1);
        let rec = Recorder::new(true);
        for n in 1..=6 {
            cache.insert(7, &cfg, &skeleton(n), vec![hit(n as u32)], &rec);
        }
        assert!(cache.len() <= 2);
        assert!(rec.counter(CounterId::CacheSkeletonEvictions) >= 4);
    }

    #[test]
    fn recency_protects_hot_entries() {
        // A single-shard cache of capacity 2: touching A keeps it resident
        // while B is evicted to admit C.
        let cache = SkeletonCache::new(1);
        assert_eq!(cache.shards.len(), 1);
        let cache = SkeletonCache {
            shards: vec![Mutex::new(Shard::default())],
            shard_capacity: 2,
        };
        let cfg = SearchConfig::top_k(1);
        let rec = Recorder::disabled();
        cache.insert(7, &cfg, &skeleton(1), vec![hit(1)], &rec); // A
        cache.insert(7, &cfg, &skeleton(2), vec![hit(2)], &rec); // B
        assert!(cache.get(7, &cfg, &skeleton(1), &rec).is_some()); // touch A
        cache.insert(7, &cfg, &skeleton(3), vec![hit(3)], &rec); // C evicts B
        assert!(cache.get(7, &cfg, &skeleton(1), &rec).is_some());
        assert!(cache.get(7, &cfg, &skeleton(2), &rec).is_none());
        assert!(cache.get(7, &cfg, &skeleton(3), &rec).is_some());
    }

    #[test]
    fn counters_track_hits_misses_and_evictions() {
        let cache = SkeletonCache::new(2);
        let cfg = SearchConfig::top_k(1);
        let rec = Recorder::new(true);
        cache.get(7, &cfg, &skeleton(1), &rec); // miss
        cache.insert(7, &cfg, &skeleton(1), vec![hit(1)], &rec);
        cache.get(7, &cfg, &skeleton(1), &rec); // hit
        assert_eq!(rec.counter(CounterId::CacheSkeletonHits), 1);
        assert_eq!(rec.counter(CounterId::CacheSkeletonMisses), 1);
    }

    #[test]
    fn concurrent_access_is_safe_and_bounded() {
        let cache = SkeletonCache::new(8);
        let cfg = SearchConfig::top_k(3);
        let rec = Recorder::new(true);
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let cache = &cache;
                let cfg = &cfg;
                let rec = rec.clone();
                s.spawn(move || {
                    for i in 0..64u32 {
                        let sk = skeleton(((w * 64 + i) % 13) as usize + 1);
                        if cache.get(7, cfg, &sk, &rec).is_none() {
                            cache.insert(7, cfg, &sk, vec![hit(i)], &rec);
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 8 + MAX_SHARDS); // capacity, rounded up per shard
        let total =
            rec.counter(CounterId::CacheSkeletonHits) + rec.counter(CounterId::CacheSkeletonMisses);
        assert_eq!(total, 4 * 64);
    }
}
