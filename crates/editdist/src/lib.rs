//! # speakql-editdist
//!
//! Edit-distance machinery for SpeakQL-rs:
//!
//! - [`Weights`]: the class-dependent operation weights of paper §3.4, in
//!   exact fixed-point arithmetic;
//! - [`weighted_lcs_distance`] / [`advance_column`]: the token-level
//!   weighted LCS dynamic program of Algorithm 1 and its incremental
//!   column form;
//! - [`SoaWorkspace`]: the same recurrence over up to [`SOA_LANES`]
//!   sibling columns at once, on `u16` or `u32` [`Lane`]s — the trie
//!   search's DP kernel;
//! - [`lower_bound`] / [`upper_bound`]: Proposition 1's bidirectional
//!   bounds, and [`count_lower_bound`], the lower bound made per token type;
//! - [`token_edit_distance`] (the paper's TED metric, §6.2),
//!   [`levenshtein`], and [`char_lcs_distance`] for literal/phonetic
//!   comparison.

#![forbid(unsafe_code)]

pub mod bounds;
pub mod lcs;
pub mod soa;
pub mod weights;

pub use bounds::{count_lower_bound, lower_bound, upper_bound};
pub use lcs::{
    advance_column, base_column, char_lcs_distance, levenshtein, token_edit_distance,
    weighted_lcs_distance, weighted_lcs_distance_bounded,
};
pub use soa::{ChunkStats, Lane, SoaWorkspace, SOA_LANES};
pub use weights::{dist_to_f64, dist_to_string, Dist, LaneWeights, Weights, DIST_INF};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use speakql_grammar::{StructTokId, STRUCT_ALPHABET};

    fn arb_toks(max_len: usize) -> impl Strategy<Value = Vec<StructTokId>> {
        prop::collection::vec((0..STRUCT_ALPHABET as u8).prop_map(StructTokId), 0..max_len)
    }

    proptest! {
        /// Proposition 1 holds for arbitrary token sequences.
        #[test]
        fn proposition1(a in arb_toks(24), b in arb_toks(24)) {
            let w = Weights::PAPER;
            let d = weighted_lcs_distance(&a, &b, w);
            prop_assert!(d >= lower_bound(a.len(), b.len(), w));
            prop_assert!(d <= upper_bound(a.len(), b.len(), w));
        }

        /// The count bound sits between Proposition 1's length bound and the
        /// distance, under the paper's and under uniform weights.
        #[test]
        fn count_bound_is_admissible(a in arb_toks(24), b in arb_toks(24)) {
            for w in [Weights::PAPER, Weights::UNIFORM] {
                let count = count_lower_bound(&a, &b, w);
                prop_assert!(lower_bound(a.len(), b.len(), w) <= count);
                prop_assert!(count <= weighted_lcs_distance(&a, &b, w));
            }
        }

        /// Identity of indiscernibles (one direction): d(a, a) = 0.
        #[test]
        fn identity(a in arb_toks(24)) {
            prop_assert_eq!(weighted_lcs_distance(&a, &a, Weights::PAPER), 0);
        }

        /// Symmetry: with class weights, inserting in one direction is
        /// deleting in the other at the same cost.
        #[test]
        fn symmetry(a in arb_toks(16), b in arb_toks(16)) {
            let w = Weights::PAPER;
            prop_assert_eq!(
                weighted_lcs_distance(&a, &b, w),
                weighted_lcs_distance(&b, &a, w)
            );
        }

        /// Triangle inequality: weighted LCS distance is a metric.
        #[test]
        fn triangle(a in arb_toks(10), b in arb_toks(10), c in arb_toks(10)) {
            let w = Weights::PAPER;
            let ab = weighted_lcs_distance(&a, &b, w);
            let bc = weighted_lcs_distance(&b, &c, w);
            let ac = weighted_lcs_distance(&a, &c, w);
            prop_assert!(ac <= ab + bc);
        }

        /// Uniform weights reduce to 10 × unweighted TED.
        #[test]
        fn uniform_is_ted(a in arb_toks(16), b in arb_toks(16)) {
            prop_assert_eq!(
                weighted_lcs_distance(&a, &b, Weights::UNIFORM) as usize,
                10 * token_edit_distance(&a, &b)
            );
        }

        /// Incremental columns agree with the full-matrix distance.
        #[test]
        fn incremental_matches_batch(a in arb_toks(16), b in arb_toks(16)) {
            let w = Weights::PAPER;
            let mut prev = base_column(&a, w);
            let mut cur = Vec::new();
            for &t in &b {
                advance_column(&a, &prev, t, w, &mut cur);
                std::mem::swap(&mut prev, &mut cur);
            }
            prop_assert_eq!(prev[a.len()], weighted_lcs_distance(&a, &b, w));
        }

        /// Levenshtein never exceeds char-LCS distance.
        #[test]
        fn lev_le_lcs(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            prop_assert!(levenshtein(&a, &b) <= char_lcs_distance(&a, &b));
        }
    }
}
