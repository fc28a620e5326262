//! # speakql-index
//!
//! The indexing and search substrate of SpeakQL-rs Structure Determination
//! (paper §3.3–§3.4 and App. D):
//!
//! - [`Trie`]: compact tries over generated structures of one length, each
//!   carrying a count table of its token-multiset groups,
//! - [`StructureIndex`]: the arena (shared immutable chunks) + each
//!   length's tries, split into shards between multiset groups,
//! - [`StructureIndex::search`]: weighted-edit-distance trie search with
//!   branch pruning, **BDB** generalized to token types (segments walked in
//!   ascending count bound and skipped once it exceeds the k-th best), and
//!   the opt-in **DAP** accuracy–latency tradeoff,
//! - [`IndexDelta`]: incremental maintenance whose cost follows the change,
//!   not the arena.
//!
//! The crate is a pure library: it keeps no metrics. Search, load and delta
//! return their work as values — [`SearchStats`], [`DeltaStats`] and the
//! loaded index's [`StructureIndex::segment_count`] — and the caller that
//! owns a recorder (the engine in `speakql-core`) publishes them.

#![forbid(unsafe_code)]

pub(crate) mod content;
pub mod delta;
pub mod persist;
pub mod search;
pub(crate) mod store;
pub mod trie;

pub use delta::{DeltaError, DeltaStats, IndexDelta};
pub use persist::{
    from_bytes, from_bytes_rebuilt, from_shared, load_from_path, save_to_path, to_bytes,
    PersistError,
};
pub use search::{SearchConfig, SearchHit, SearchStats, StructureIndex};
pub use trie::Trie;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use speakql_editdist::Weights;
    use speakql_grammar::{GeneratorConfig, StructTokId, STRUCT_ALPHABET};

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Trie search with default config (BDB on) is exact: identical to a
        /// brute-force scan over the whole structure space, for arbitrary
        /// masked inputs, including ties.
        #[test]
        fn search_equals_scan(
            masked in prop::collection::vec((0..STRUCT_ALPHABET as u8).prop_map(StructTokId), 0..20),
            k in 1usize..6,
        ) {
            let idx = small_index();
            let cfg = SearchConfig { k, ..SearchConfig::default() };
            prop_assert_eq!(idx.search(&masked, &cfg), idx.scan(&masked, k));
        }

        /// BDB never changes results, only work done.
        #[test]
        fn bdb_preserves_results(
            masked in prop::collection::vec((0..STRUCT_ALPHABET as u8).prop_map(StructTokId), 0..20),
        ) {
            let idx = small_index();
            let with = idx.search(&masked, &SearchConfig { bdb: true, ..Default::default() });
            let without = idx.search(&masked, &SearchConfig { bdb: false, ..Default::default() });
            prop_assert_eq!(with, without);
        }
    }
}
