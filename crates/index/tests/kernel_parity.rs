//! Scalar-vs-SoA kernel parity: the branchless structure-of-arrays DP
//! kernel must be observationally identical to the scalar reference — same
//! hits, same work counters — for any query, at any thread count, under
//! every accuracy-preserving configuration.
//!
//! This suite is the contract the `kernel-parity` CI job enforces in release
//! mode (where autovectorization actually fires), with the proptest case
//! count raised via `PROPTEST_CASES`.

use proptest::prelude::*;
use speakql_editdist::Weights;
use speakql_grammar::{GeneratorConfig, StructTokId, STRUCT_ALPHABET};
use speakql_index::{DpKernel, SearchConfig, StructureIndex};
use std::sync::OnceLock;

fn small_index() -> &'static StructureIndex {
    static IDX: OnceLock<StructureIndex> = OnceLock::new();
    IDX.get_or_init(|| StructureIndex::from_grammar(&GeneratorConfig::small(), Weights::PAPER))
}

fn arb_masked() -> impl Strategy<Value = Vec<StructTokId>> {
    prop::collection::vec((0..STRUCT_ALPHABET as u8).prop_map(StructTokId), 0..16)
}

/// Proptest case count: `PROPTEST_CASES` when set (the kernel-parity CI job
/// raises it), a debug-friendly default otherwise. Each case already runs a
/// dozen full searches, so the default stays modest.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]
    /// Sequential search: hits AND every work counter match between the
    /// kernels. Both kernels advance exactly the same columns in the same
    /// order, so `nodes_visited`, `cells_evaluated`, and the BDB trie
    /// counters are equal, not merely close.
    #[test]
    fn scalar_and_soa_agree_exactly_sequential(masked in arb_masked()) {
        let idx = small_index();
        for k in [1usize, 5] {
            for bdb in [true, false] {
                let base = SearchConfig { k, bdb, ..SearchConfig::default() };
                let (scalar_hits, scalar_stats) = idx.search_with_stats(
                    &masked, &base.with_kernel(DpKernel::Scalar));
                let (soa_hits, soa_stats) = idx.search_with_stats(
                    &masked, &base.with_kernel(DpKernel::Auto));
                prop_assert_eq!(&scalar_hits, &soa_hits, "hits (k={}, bdb={})", k, bdb);
                prop_assert_eq!(scalar_stats, soa_stats, "stats (k={}, bdb={})", k, bdb);
            }
        }
    }

    /// Parallel search: hits stay byte-identical across kernels at every
    /// thread count (counters are schedule-dependent in parallel mode, so
    /// only the results are compared).
    #[test]
    fn kernels_agree_across_thread_counts(masked in arb_masked()) {
        let idx = small_index();
        let reference = idx.search(
            &masked,
            &SearchConfig::top_k(5).with_kernel(DpKernel::Scalar),
        );
        for threads in [1usize, 2, 8] {
            for kernel in [DpKernel::Scalar, DpKernel::Auto] {
                let cfg = SearchConfig::top_k(5)
                    .with_threads(threads)
                    .with_kernel(kernel);
                let hits = idx.search(&masked, &cfg);
                prop_assert_eq!(
                    &hits, &reference,
                    "threads={} kernel={:?}", threads, kernel
                );
            }
        }
    }

    /// Both kernels remain exact against the brute-force scan.
    #[test]
    fn both_kernels_match_brute_force(masked in arb_masked()) {
        let idx = small_index();
        let scan = idx.scan(&masked, 5);
        for kernel in [DpKernel::Scalar, DpKernel::Auto] {
            let hits = idx.search(&masked, &SearchConfig::top_k(5).with_kernel(kernel));
            prop_assert_eq!(&hits, &scan, "kernel={:?}", kernel);
        }
    }

    /// DAP runs on the scalar kernel regardless of the requested one; the
    /// kernel knob must not change DAP's (approximate) answers either.
    #[test]
    fn dap_is_kernel_invariant(masked in arb_masked()) {
        let idx = small_index();
        let dap = SearchConfig { dap: true, ..SearchConfig::default() };
        let (scalar_hits, scalar_stats) =
            idx.search_with_stats(&masked, &dap.with_kernel(DpKernel::Scalar));
        let (soa_hits, soa_stats) =
            idx.search_with_stats(&masked, &dap.with_kernel(DpKernel::Auto));
        prop_assert_eq!(scalar_hits, soa_hits);
        prop_assert_eq!(scalar_stats, soa_stats);
    }
}

/// A query outside the u16 lane envelope (Proposition 1 ceiling above
/// `u16::MAX`) silently falls back to the scalar kernel under `Auto` — same
/// hits, no panic, no saturation artifacts.
#[test]
fn oversized_query_falls_back_to_scalar() {
    let idx = small_index();
    let masked = vec![StructTokId::VAR; 6000];
    let base = SearchConfig::default();
    let (scalar_hits, scalar_stats) =
        idx.search_with_stats(&masked, &base.with_kernel(DpKernel::Scalar));
    let (soa_hits, soa_stats) = idx.search_with_stats(&masked, &base.with_kernel(DpKernel::Auto));
    assert_eq!(scalar_hits, soa_hits);
    assert_eq!(scalar_stats, soa_stats);
    assert!(!soa_hits.is_empty());
}
