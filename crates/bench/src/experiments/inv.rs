//! INV (App. D.3): the inverted keyword index, the accuracy–latency
//! tradeoff the paper offers for a slow default search. A query that
//! mentions a keyword other than SELECT/FROM/WHERE is compared only against
//! the structures whose token sequence contains the rarest such keyword;
//! any other query falls back to the index's trie search.
//!
//! Measured here, INV loses to exact search at every scale (Fig. 15,
//! `scale_curve`'s `search_total_ms_inv`), so it is an experiment, not a
//! serving path: the posting lists are built from the live arena once per
//! index, before any timed query.

use speakql_editdist::{lower_bound, weighted_lcs_distance, weighted_lcs_distance_bounded};
use speakql_editdist::{Dist, DIST_INF};
use speakql_grammar::{Keyword, StructTok, StructTokId, ALL_KEYWORDS};
use speakql_index::{SearchConfig, SearchHit, SearchStats, StructureIndex};

/// The work one INV query did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvWork {
    /// Structures compared exhaustively off the rarest keyword's list.
    Scanned(u64),
    /// The query had no rare keyword; the trie search did this work.
    Fallback(SearchStats),
}

impl InvWork {
    /// Comparable work: structures compared, or trie nodes visited.
    pub fn units(&self) -> u64 {
        match self {
            InvWork::Scanned(n) => *n,
            InvWork::Fallback(stats) => stats.nodes_visited,
        }
    }
}

/// An index with INV's posting lists: every live arena id, in arena order,
/// under each rare keyword its structure mentions.
pub struct InvertedIndex<'a> {
    index: &'a StructureIndex,
    lists: Vec<Vec<u32>>,
}

impl<'a> InvertedIndex<'a> {
    /// Build the posting lists of `index`'s live structures.
    pub fn build(index: &'a StructureIndex) -> InvertedIndex<'a> {
        let mut lists = vec![Vec::new(); ALL_KEYWORDS.len()];
        for id in (0..index.arena_len() as u32).filter(|&id| !index.is_removed(id)) {
            let mut seen = [false; ALL_KEYWORDS.len()];
            for k in index.structure_tokens(id).iter().copied().filter_map(rare) {
                if !seen[k.index()] {
                    seen[k.index()] = true;
                    lists[k.index()].push(id);
                }
            }
        }
        InvertedIndex { index, lists }
    }

    /// The posting list of the rarest keyword in `masked` that any live
    /// structure mentions, if there is one.
    fn rarest(&self, masked: &[StructTokId]) -> Option<&[u32]> {
        masked
            .iter()
            .copied()
            .filter_map(rare)
            .map(|k| self.lists[k.index()].as_slice())
            .filter(|list| !list.is_empty())
            .reduce(|best, list| if list.len() < best.len() { list } else { best })
    }

    /// Top-`cfg.k` search over the rarest keyword's posting list, or the
    /// index's own search under `cfg` when `masked` has no rare keyword.
    pub fn search(&self, masked: &[StructTokId], cfg: &SearchConfig) -> (Vec<SearchHit>, InvWork) {
        let Some(postings) = self.rarest(masked) else {
            let (hits, stats) = self.index.search_with_stats(masked, cfg);
            return (hits, InvWork::Fallback(stats));
        };
        let w = self.index.weights();
        let len = |id: u32| self.index.structure_tokens(id).len();
        // Arena ids are sorted by structure length as built (deltas append
        // at the tail, so the order is only approximately maintained after
        // churn). Scan outward from the candidates closest in length to the
        // query: they carry the smallest Proposition 1 lower bounds, which
        // tightens the early-abandon threshold immediately.
        let m = masked.len();
        let pivot = postings.partition_point(|&id| len(id) < m);
        let (mut lo, mut hi) = (pivot, pivot);
        let mut top = TopK::new(cfg.k);
        let mut scanned = 0u64;
        loop {
            // Pick whichever side is closer in length to the query.
            let lo_gap = lo
                .checked_sub(1)
                .map_or(usize::MAX, |i| m.abs_diff(len(postings[i])));
            let hi_gap = postings
                .get(hi)
                .map_or(usize::MAX, |&id| m.abs_diff(len(id)));
            if lo_gap == usize::MAX && hi_gap == usize::MAX {
                break;
            }
            let id = if hi_gap <= lo_gap {
                hi += 1;
                postings[hi - 1]
            } else {
                lo -= 1;
                postings[lo]
            };
            let target = self.index.structure_tokens(id);
            let bound = top.threshold();
            // Proposition 1: once even the length-gap lower bound exceeds
            // the k-th best distance, no remaining structure (all further in
            // length) can qualify.
            if bound < lower_bound(m, target.len(), w) {
                break;
            }
            scanned += 1;
            let d = if bound == DIST_INF {
                Some(weighted_lcs_distance(masked, target, w))
            } else {
                weighted_lcs_distance_bounded(masked, target, w, bound)
            };
            if let Some(distance) = d {
                top.offer(SearchHit {
                    structure: id,
                    distance,
                });
            }
        }
        (top.hits, InvWork::Scanned(scanned))
    }
}

/// The keyword `t` stands for, unless it is SELECT/FROM/WHERE: those appear
/// in nearly every structure, so their lists would be useless for INV.
fn rare(t: StructTokId) -> Option<Keyword> {
    match t.tok() {
        StructTok::Keyword(k) if !matches!(k, Keyword::Select | Keyword::From | Keyword::Where) => {
            Some(k)
        }
        _ => None,
    }
}

/// The `k` best hits so far, in `(distance, structure id)` order — the
/// index's own tie-break.
struct TopK {
    k: usize,
    hits: Vec<SearchHit>,
}

impl TopK {
    fn new(k: usize) -> TopK {
        TopK {
            k: k.max(1),
            hits: Vec::new(),
        }
    }

    fn offer(&mut self, hit: SearchHit) {
        let key = |h: &SearchHit| (h.distance, h.structure);
        let pos = self.hits.partition_point(|h| key(h) < key(&hit));
        if pos < self.k {
            self.hits.insert(pos, hit);
            self.hits.truncate(self.k);
        }
    }

    /// The k-th best distance so far, the early-abandon bound.
    fn threshold(&self) -> Dist {
        if self.hits.len() < self.k {
            DIST_INF
        } else {
            self.hits[self.k - 1].distance
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_editdist::Weights;
    use speakql_grammar::{process_transcript_text, GeneratorConfig};

    fn small_index() -> &'static StructureIndex {
        static IDX: std::sync::OnceLock<StructureIndex> = std::sync::OnceLock::new();
        IDX.get_or_init(|| StructureIndex::from_grammar(&GeneratorConfig::small(), Weights::PAPER))
    }

    #[test]
    fn inv_scans_posting_lists() {
        let inv = InvertedIndex::build(small_index());
        let p = process_transcript_text("select a from t where b between c and d");
        let (hits, work) = inv.search(&p.masked, &SearchConfig::default());
        assert!(matches!(work, InvWork::Scanned(n) if n > 0), "{work:?}");
        // BETWEEN structures are rare, and the probe matches one exactly.
        assert_eq!(hits[0].distance, 0);
    }

    #[test]
    fn inv_falls_back_without_rare_keywords() {
        let idx = small_index();
        let inv = InvertedIndex::build(idx);
        let p = process_transcript_text("select a from t");
        let cfg = SearchConfig::default();
        let (hits, work) = inv.search(&p.masked, &cfg);
        let (trie_hits, stats) = idx.search_with_stats(&p.masked, &cfg);
        assert!(stats.tries_searched > 0);
        assert_eq!((hits, work), (trie_hits, InvWork::Fallback(stats)));
    }

    /// The outward scan with Proposition 1's break and the bounded DP
    /// returns exactly the `(distance, id)` top-k of its posting list.
    #[test]
    fn inv_is_exact_over_its_posting_list() {
        let idx = small_index();
        let inv = InvertedIndex::build(idx);
        let probes = [
            "select a from t where b between c and d",
            "select a from t order by b",
            "select sum open parenthesis salary close parenthesis from salaries group by x",
            "select a comma b from t where x greater than y and p equals q",
            "select a from t where b in open parenthesis c close parenthesis limit",
        ];
        for probe in probes {
            let p = process_transcript_text(probe);
            let Some(list) = inv.rarest(&p.masked) else {
                panic!("{probe} mentions no rare keyword");
            };
            for k in [1usize, 5] {
                let mut brute: Vec<SearchHit> = list
                    .iter()
                    .map(|&id| SearchHit {
                        structure: id,
                        distance: weighted_lcs_distance(
                            &p.masked,
                            idx.structure_tokens(id),
                            idx.weights(),
                        ),
                    })
                    .collect();
                brute.sort_by_key(|h| (h.distance, h.structure));
                brute.truncate(k);
                let (hits, _) = inv.search(&p.masked, &SearchConfig::top_k(k));
                assert_eq!(hits, brute, "probe={probe} k={k}");
            }
        }
    }
}
