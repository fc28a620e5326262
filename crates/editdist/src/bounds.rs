//! Bidirectional edit-distance bounds (paper Proposition 1).
//!
//! Given two query structures with `m` and `n` tokens, their weighted LCS
//! edit distance `d` satisfies `|m − n| · W_L ≤ d ≤ (m + n) · W_K`. The
//! lower bound is the best case (`|m − n|` deletions at minimum weight);
//! the upper bound is the worst case (`m` deletes plus `n` inserts at
//! maximum weight).
//!
//! [`count_lower_bound`] is the same argument made per token type (count
//! filtering, Gravano et al., VLDB 2001): with only insertions and
//! deletions, every surplus occurrence of a token on either side must be
//! inserted or deleted, so `d ≥ Σₜ wₜ · |c_a(t) − c_b(t)|`. It is never
//! below the length bound. The search engine bounds groups of structures
//! with equal token multisets this way to order and skip trie segments
//! (App. D.2's BDB, generalized to token types).

use crate::weights::{Dist, Weights};
use speakql_grammar::{StructTokId, STRUCT_ALPHABET};

/// Lower bound of Proposition 1: `|m − n| · min_weight`.
pub fn lower_bound(m: usize, n: usize, w: Weights) -> Dist {
    (m.abs_diff(n) as Dist) * w.min_weight()
}

/// Count lower bound: `Σₜ wₜ · |c_a(t) − c_b(t)|` over the token types of
/// the structure alphabet, where `c_x(t)` counts `t` in `x`.
pub fn count_lower_bound(a: &[StructTokId], b: &[StructTokId], w: Weights) -> Dist {
    let mut surplus = [0i64; STRUCT_ALPHABET];
    for t in a {
        surplus[t.0 as usize] += 1;
    }
    for t in b {
        surplus[t.0 as usize] -= 1;
    }
    surplus
        .iter()
        .enumerate()
        // lossy: t < STRUCT_ALPHABET, which fits a token id
        .map(|(t, &s)| w.of(StructTokId(t as u8)) * s.unsigned_abs() as Dist)
        .sum()
}

/// Upper bound of Proposition 1: `(m + n) · max_weight`.
pub fn upper_bound(m: usize, n: usize, w: Weights) -> Dist {
    ((m + n) as Dist) * w.max_weight()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcs::weighted_lcs_distance;
    use speakql_grammar::{Keyword, StructTok, StructTokId};

    #[test]
    fn figure10_bounds_table() {
        // Fig. 10: TransOut of length n=3, candidate lengths m with bounds
        // [|m−n|·1.0, (m+n)·1.2]:
        let w = Weights::PAPER;
        assert_eq!(lower_bound(1, 3, w), 20); // 2.0
        assert_eq!(upper_bound(1, 3, w), 48); // 4.8
        assert_eq!(lower_bound(2, 3, w), 10); // 1.0
        assert_eq!(upper_bound(2, 3, w), 60); // 6.0
        assert_eq!(lower_bound(3, 3, w), 0); // 0.0
        assert_eq!(upper_bound(3, 3, w), 72); // 7.2
        assert_eq!(lower_bound(50, 3, w), 470); // 47.0
        assert_eq!(upper_bound(50, 3, w), 636); // 63.6
    }

    #[test]
    fn bounds_sandwich_actual_distance() {
        use speakql_grammar::{generate_structures, GeneratorConfig};
        let w = Weights::PAPER;
        let structs = generate_structures(&GeneratorConfig {
            max_structures: Some(200),
            ..GeneratorConfig::small()
        });
        let probe: Vec<StructTokId> = vec![
            StructTokId::from_tok(StructTok::Keyword(Keyword::Select)),
            StructTokId::VAR,
            StructTokId::from_tok(StructTok::Keyword(Keyword::From)),
            StructTokId::VAR,
            StructTokId::VAR,
        ];
        for s in &structs {
            let d = weighted_lcs_distance(&probe, &s.tokens, w);
            assert!(d >= lower_bound(probe.len(), s.len(), w));
            assert!(d <= upper_bound(probe.len(), s.len(), w));
        }
    }
}
