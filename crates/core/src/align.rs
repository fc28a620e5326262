//! Alignment of `MaskOut` against the chosen structure.
//!
//! The Search Engine already computes the weighted LCS DP between the masked
//! transcript and the winning structure; tracing it back yields, for every
//! placeholder variable, the transcript position it aligned to. Literal
//! Determination uses these anchors to make the paper's window boundary
//! ("RightNonLiteral", Box 3 line 8) precise when several placeholders share
//! one run of non-dictionary tokens.
//!
//! Ties in the traceback prefer insert/delete moves over matches, which
//! pushes every match as early in the transcript as possible — consecutive
//! placeholders then claim disjoint, left-to-right windows.

use speakql_editdist::{Dist, Weights};
use speakql_grammar::{StructTokId, Structure};

/// For each placeholder of `structure` (in order), the masked-transcript
/// index its `Var` token matched, or `None` if the variable was inserted
/// (no transcript token aligns to it).
///
/// Crate-internal: this is a pipeline stage consumed by literal
/// determination, not API surface — all of its DP indexing is
/// bounds-proven only against inputs the engine itself constructs.
pub(crate) fn align_vars(
    masked: &[StructTokId],
    structure: &Structure,
    weights: Weights,
) -> Vec<Option<usize>> {
    let a = masked;
    let b = &structure.tokens;
    let (n, m) = (a.len(), b.len());
    let wa: Vec<Dist> = a.iter().map(|&t| weights.of(t)).collect();
    let wb: Vec<Dist> = b.iter().map(|&t| weights.of(t)).collect();

    // Full DP matrix (≤ 50×50 — trivial), row-major in one buffer: cell
    // `(i, j)` sits at `i * w + j`.
    let w = m + 1;
    let mut dp = vec![0 as Dist; (n + 1) * w];
    for i in 1..=n {
        dp[i * w] = dp[(i - 1) * w] + wa[i - 1];
    }
    for j in 1..=m {
        dp[j] = dp[j - 1] + wb[j - 1];
    }
    for i in 1..=n {
        for j in 1..=m {
            let mut best = Dist::MAX;
            if a[i - 1] == b[j - 1] {
                best = dp[(i - 1) * w + j - 1];
            }
            best = best
                .min(dp[(i - 1) * w + j] + wa[i - 1])
                .min(dp[i * w + j - 1] + wb[j - 1]);
            dp[i * w + j] = best;
        }
    }

    // Traceback, preferring delete (consume transcript) then insert over a
    // match whenever cost-equal, so matches land as early as possible.
    let mut match_of_target: Vec<Option<usize>> = vec![None; m];
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        if i > 0 && dp[i * w + j] == dp[(i - 1) * w + j] + wa[i - 1] {
            i -= 1;
            continue;
        }
        if j > 0 && dp[i * w + j] == dp[i * w + j - 1] + wb[j - 1] {
            j -= 1;
            continue;
        }
        debug_assert!(i > 0 && j > 0 && a[i - 1] == b[j - 1]);
        match_of_target[j - 1] = Some(i - 1);
        i -= 1;
        j -= 1;
    }

    // Project onto the placeholder list.
    structure
        .var_positions()
        .map(|(tok_pos, _)| match_of_target[tok_pos])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_grammar::{process_transcript_text, Keyword, Placeholder, SplChar, StructTok};

    fn running_structure() -> Structure {
        Structure::new(
            vec![
                StructTok::Keyword(Keyword::Select),
                StructTok::Var,
                StructTok::Keyword(Keyword::From),
                StructTok::Var,
                StructTok::Keyword(Keyword::Where),
                StructTok::Var,
                StructTok::SplChar(SplChar::Eq),
                StructTok::Var,
            ],
            vec![
                Placeholder::attribute(),
                Placeholder::table(),
                Placeholder::attribute(),
                Placeholder::value(Some(2)),
            ],
        )
    }

    #[test]
    fn exact_transcript_aligns_one_to_one() {
        let p = process_transcript_text("select salary from employees where name equals john");
        let anchors = align_vars(&p.masked, &running_structure(), Weights::PAPER);
        assert_eq!(anchors, vec![Some(1), Some(3), Some(5), Some(7)]);
    }

    /// The §2 running example: "wear" and extra literal words pollute the
    /// transcript; earliest-match anchoring still separates x2 from x3.
    #[test]
    fn noisy_transcript_anchors_earliest() {
        let p = process_transcript_text("select sales from employers wear first name equals jon");
        // masked: SELECT x FROM x x x x = x
        let anchors = align_vars(&p.masked, &running_structure(), Weights::PAPER);
        assert_eq!(anchors[0], Some(1)); // sales
        assert_eq!(anchors[1], Some(3)); // employers
        assert_eq!(anchors[2], Some(4)); // wear (earliest possible for x3)
        assert_eq!(anchors[3], Some(8)); // jon
    }

    #[test]
    fn inserted_vars_have_no_anchor() {
        // Transcript shorter than the structure: the trailing vars of the
        // structure get no anchors.
        let p = process_transcript_text("select salary from");
        let anchors = align_vars(&p.masked, &running_structure(), Weights::PAPER);
        assert_eq!(anchors[0], Some(1));
        assert_eq!(anchors[1], None);
        assert_eq!(anchors[2], None);
        assert_eq!(anchors[3], None);
    }

    #[test]
    fn empty_transcript() {
        let anchors = align_vars(&[], &running_structure(), Weights::PAPER);
        assert_eq!(anchors, vec![None; 4]);
    }
}
