//! Weighted longest-common-subsequence edit distance (paper §3.4, Alg. 1).
//!
//! Only insertions and deletions are allowed, at the token level; deleting a
//! source token costs that token's class weight, inserting a target token
//! costs the target token's class weight. With uniform weights this reduces
//! to the classic LCS distance `m + n − 2·LCS`.

use crate::weights::{Dist, Weights};
use speakql_grammar::StructTokId;

/// Weighted LCS edit distance between a source (`MaskOut`) and a target
/// (ground-truth structure), full-matrix dynamic program.
pub fn weighted_lcs_distance(source: &[StructTokId], target: &[StructTokId], w: Weights) -> Dist {
    let mut prev: Vec<Dist> = base_column(source, w);
    let mut cur: Vec<Dist> = vec![0; source.len() + 1];
    for &b in target {
        advance_column(source, &prev, b, w, &mut cur);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[source.len()]
}

/// The DP column for the empty target: cumulative deletion cost of the
/// source prefix (`dp(i, 0)`; first column of Fig. 9).
pub fn base_column(source: &[StructTokId], w: Weights) -> Vec<Dist> {
    let mut col = Vec::with_capacity(source.len() + 1);
    let mut acc = 0;
    col.push(0);
    for &a in source {
        acc += w.of(a);
        col.push(acc);
    }
    col
}

/// Extend the DP by one target token: given the column for target prefix
/// `b1..bj-1`, compute the column for `b1..bj`. This is the inner loop of
/// the paper's `SearchRecursively` (Box 2 lines 28–41): the reference the
/// trie search's [`SoaWorkspace`](crate::SoaWorkspace) computes cell for
/// cell, and the column kernel of the index's test oracle.
pub fn advance_column(
    source: &[StructTokId],
    prev: &[Dist],
    b: StructTokId,
    w: Weights,
    out: &mut Vec<Dist>,
) {
    debug_assert_eq!(prev.len(), source.len() + 1);
    out.clear();
    out.push(prev[0] + w.of(b));
    for (i, &a) in source.iter().enumerate() {
        let v = if a == b {
            prev[i]
        } else {
            let delete = out[i] + w.of(a); // consume a source token
            let insert = prev[i + 1] + w.of(b); // consume the target token
            delete.min(insert)
        };
        out.push(v);
    }
}

/// Weighted LCS distance with early abandoning: returns `None` as soon as
/// every cell of a DP column exceeds `bound` (the distance is then certainly
/// greater than `bound`). Used by the INV posting-list scan.
pub fn weighted_lcs_distance_bounded(
    source: &[StructTokId],
    target: &[StructTokId],
    w: Weights,
    bound: Dist,
) -> Option<Dist> {
    let mut prev: Vec<Dist> = base_column(source, w);
    let mut cur: Vec<Dist> = vec![0; source.len() + 1];
    for &b in target {
        advance_column(source, &prev, b, w, &mut cur);
        if cur.iter().all(|&d| d > bound) {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = prev[source.len()];
    (d <= bound).then_some(d)
}

/// Unweighted token edit distance with insert/delete only — the paper's
/// **Token Edit Distance (TED)** accuracy metric (§6.2). Generic over any
/// comparable token type; returns the *count* of operations (not tenths).
pub fn token_edit_distance<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    // n + m − 2·LCS, computed with a rolling row.
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return n + m;
    }
    let mut prev = vec![0usize; m + 1];
    let mut cur = vec![0usize; m + 1];
    for ai in a {
        for (j, bj) in b.iter().enumerate() {
            cur[j + 1] = if ai == bj {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    n + m - 2 * prev[m]
}

/// Character-level Levenshtein distance (insert/delete/substitute), used for
/// comparing phonetic representations in Literal Determination (§4.3).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() || b.is_empty() {
        return a.len() + b.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Character-level LCS (insert/delete only) distance between strings.
pub fn char_lcs_distance(a: &str, b: &str) -> usize {
    let av: Vec<char> = a.chars().collect();
    let bv: Vec<char> = b.chars().collect();
    token_edit_distance(&av, &bv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_grammar::{Keyword, SplChar, StructTok, StructTokId};

    fn kw(k: Keyword) -> StructTokId {
        StructTokId::from_tok(StructTok::Keyword(k))
    }
    fn sc(c: SplChar) -> StructTokId {
        StructTokId::from_tok(StructTok::SplChar(c))
    }
    fn var() -> StructTokId {
        StructTokId::VAR
    }

    /// The exact memo of paper Fig. 9: MaskOut `SELECT x x FROM x` against
    /// ground truth `SELECT * FROM x`; final distance 3.1.
    #[test]
    fn figure9_memo() {
        let source = vec![kw(Keyword::Select), var(), var(), kw(Keyword::From), var()];
        let target = vec![
            kw(Keyword::Select),
            sc(SplChar::Star),
            kw(Keyword::From),
            var(),
        ];
        let w = Weights::PAPER;

        assert_eq!(base_column(&source, w), vec![0, 12, 22, 32, 44, 54]);

        let mut col1 = Vec::new();
        advance_column(&source, &base_column(&source, w), target[0], w, &mut col1);
        assert_eq!(col1, vec![12, 0, 10, 20, 32, 42]);

        let mut col2 = Vec::new();
        advance_column(&source, &col1, target[1], w, &mut col2);
        assert_eq!(col2, vec![23, 11, 21, 31, 43, 53]);

        let mut col3 = Vec::new();
        advance_column(&source, &col2, target[2], w, &mut col3);
        assert_eq!(col3, vec![35, 23, 33, 43, 31, 41]);

        let mut col4 = Vec::new();
        advance_column(&source, &col3, target[3], w, &mut col4);
        assert_eq!(col4, vec![45, 33, 23, 33, 41, 31]);

        assert_eq!(weighted_lcs_distance(&source, &target, w), 31);
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let s = vec![kw(Keyword::Select), var(), kw(Keyword::From), var()];
        assert_eq!(weighted_lcs_distance(&s, &s, Weights::PAPER), 0);
    }

    #[test]
    fn empty_vs_sequence_costs_full_weight() {
        let s = vec![kw(Keyword::Select), var()];
        assert_eq!(weighted_lcs_distance(&s, &[], Weights::PAPER), 22);
        assert_eq!(weighted_lcs_distance(&[], &s, Weights::PAPER), 22);
    }

    #[test]
    fn weighted_distance_is_symmetric() {
        // Insert/delete duality: d(a,b) = d(b,a) because inserting b_j in one
        // direction is deleting it in the other, with the same class weight.
        let a = vec![kw(Keyword::Select), var(), var(), kw(Keyword::From), var()];
        let b = vec![
            kw(Keyword::Select),
            sc(SplChar::Star),
            kw(Keyword::From),
            var(),
        ];
        assert_eq!(
            weighted_lcs_distance(&a, &b, Weights::PAPER),
            weighted_lcs_distance(&b, &a, Weights::PAPER)
        );
    }

    #[test]
    fn uniform_weights_match_unweighted_ted() {
        let a = vec![kw(Keyword::Select), var(), var(), kw(Keyword::From), var()];
        let b = vec![
            kw(Keyword::Select),
            sc(SplChar::Star),
            kw(Keyword::From),
            var(),
        ];
        let d = weighted_lcs_distance(&a, &b, Weights::UNIFORM);
        assert_eq!(d as usize, 10 * token_edit_distance(&a, &b));
    }

    #[test]
    fn ted_basic() {
        assert_eq!(token_edit_distance(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(token_edit_distance(&[1, 2, 3], &[1, 3]), 1);
        assert_eq!(token_edit_distance(&[1, 2, 3], &[4, 5, 6]), 6);
        assert_eq!(token_edit_distance::<u8>(&[], &[]), 0);
    }

    #[test]
    fn levenshtein_basic() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        // Paper App. E.2 Example 1: phonetic reps FRMTT (FROMDATE) vs
        // TTT (TODATE) vs TT (DATE): d(TT,TTT)=1 beats d(FRMTT,·).
        assert_eq!(levenshtein("FRMTT", "TTT"), 3);
        assert_eq!(levenshtein("TT", "TTT"), 1);
    }

    #[test]
    fn char_lcs_vs_levenshtein() {
        // LCS distance ≥ Levenshtein (substitution = 1 op vs 2).
        assert_eq!(char_lcs_distance("abc", "axc"), 2);
        assert_eq!(levenshtein("abc", "axc"), 1);
    }
}
