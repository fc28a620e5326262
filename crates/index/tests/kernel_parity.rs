//! Lane parity: the trie walk runs one SoA kernel on `u16` lanes while a
//! query fits the envelope (`SoaWorkspace::fits`) and on `u32` lanes past
//! it. Both widths must be observationally identical — same hits, same work
//! counters — and exact against the scalar recurrence, for any query, under
//! every configuration.
//!
//! The public API reaches the `u32` lanes by scaling the weights: every
//! weight ×[`SCALE`] puts every query past the envelope. The search is
//! linear in the weights (DP cells, Proposition 1 bounds and count bounds
//! alike), so the scaled index must return the same structures at
//! `SCALE`× the distances, with identical counters. The walk against the
//! test-only scalar trie walk is checked inside the crate, by
//! `search::oracle::tests`.
//!
//! CI's release parity job runs this suite with the proptest case count
//! raised via `PROPTEST_CASES`.

use proptest::prelude::*;
use speakql_editdist::{weighted_lcs_distance, Dist, SoaWorkspace, Weights};
use speakql_grammar::{GeneratorConfig, StructTokId, STRUCT_ALPHABET};
use speakql_index::{SearchConfig, SearchHit, SearchStats, StructureIndex};
use std::sync::OnceLock;

/// Weight multiplier of the `u32`-lane index: large enough that no weight
/// fits a `u16` lane, small enough that no distance nears `DIST_INF`.
const SCALE: Dist = 10_000;

/// The small grammar under the paper's weights: every query of
/// [`arb_masked`] fits the `u16` envelope.
fn narrow_index() -> &'static StructureIndex {
    static IDX: OnceLock<StructureIndex> = OnceLock::new();
    IDX.get_or_init(|| StructureIndex::from_grammar(&GeneratorConfig::small(), Weights::PAPER))
}

/// The same structures under the paper's weights ×[`SCALE`]: every query
/// walks `u32` lanes.
fn wide_index() -> &'static StructureIndex {
    static IDX: OnceLock<StructureIndex> = OnceLock::new();
    IDX.get_or_init(|| {
        let w = Weights::PAPER;
        let scaled = Weights {
            keyword: w.keyword * SCALE,
            splchar: w.splchar * SCALE,
            literal: w.literal * SCALE,
        };
        StructureIndex::from_grammar(&GeneratorConfig::small(), scaled)
    })
}

fn arb_masked() -> impl Strategy<Value = Vec<StructTokId>> {
    prop::collection::vec((0..STRUCT_ALPHABET as u8).prop_map(StructTokId), 0..16)
}

/// Proptest case count: `PROPTEST_CASES` when set (CI's release parity job
/// raises it), a debug-friendly default otherwise. Each case already runs a
/// dozen full searches, so the default stays modest.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

/// One search on each lane width, the `u32` side's distances scaled back.
/// Panics if `masked` does not land on the lanes each index is meant to
/// exercise, or a scaled distance is not a multiple of [`SCALE`].
fn both_lanes(
    masked: &[StructTokId],
    cfg: &SearchConfig,
) -> ((Vec<SearchHit>, SearchStats), (Vec<SearchHit>, SearchStats)) {
    let (narrow, wide) = (narrow_index(), wide_index());
    assert!(SoaWorkspace::fits(
        masked.len(),
        narrow.max_len(),
        narrow.weights()
    ));
    assert!(!SoaWorkspace::fits(
        masked.len(),
        wide.max_len(),
        wide.weights()
    ));
    let (wide_hits, wide_stats) = wide.search_with_stats(masked, cfg);
    let unscaled = wide_hits
        .into_iter()
        .map(|h| {
            assert_eq!(h.distance % SCALE, 0, "{h:?}");
            SearchHit {
                distance: h.distance / SCALE,
                ..h
            }
        })
        .collect();
    (
        narrow.search_with_stats(masked, cfg),
        (unscaled, wide_stats),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]
    /// Sequential search: every hit's distance is the scalar recurrence's
    /// (`weighted_lcs_distance` over the structure's tokens), and the two
    /// lane widths agree on hits AND every work counter. Both advance
    /// exactly the same columns in the same order, so `nodes_visited`,
    /// `cells_evaluated` and the segment counters are equal, not merely
    /// close.
    #[test]
    fn scalar_and_soa_agree_exactly_sequential(masked in arb_masked()) {
        let idx = narrow_index();
        for k in [1usize, 5] {
            for bdb in [true, false] {
                let cfg = SearchConfig { k, bdb, ..SearchConfig::default() };
                let (narrow, wide) = both_lanes(&masked, &cfg);
                for hit in &narrow.0 {
                    let tokens = idx.structure_tokens(hit.structure);
                    prop_assert_eq!(
                        hit.distance,
                        weighted_lcs_distance(&masked, tokens, idx.weights()),
                        "scalar distance (k={}, bdb={})", k, bdb
                    );
                }
                prop_assert_eq!(&narrow.0, &wide.0, "hits (k={}, bdb={})", k, bdb);
                prop_assert_eq!(narrow.1, wide.1, "stats (k={}, bdb={})", k, bdb);
            }
        }
    }

    /// Both lane widths remain exact against the brute-force scan.
    #[test]
    fn both_kernels_match_brute_force(masked in arb_masked()) {
        for idx in [narrow_index(), wide_index()] {
            let hits = idx.search(&masked, &SearchConfig::top_k(5));
            prop_assert_eq!(&hits, &idx.scan(&masked, 5), "weights={:?}", idx.weights());
        }
    }

    /// DAP runs on either lane width; the width must not change DAP's
    /// (approximate) answers or its work counters either.
    #[test]
    fn dap_is_kernel_invariant(masked in arb_masked()) {
        for k in [1usize, 5] {
            let dap = SearchConfig { k, dap: true, ..SearchConfig::default() };
            let (narrow, wide) = both_lanes(&masked, &dap);
            prop_assert_eq!(narrow, wide, "k={}", k);
        }
    }
}
