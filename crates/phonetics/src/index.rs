//! Phonetic index over a set of literals.
//!
//! Literal Determination (paper §4) compares *phonetic representations*:
//! the set `B` of candidate literals for a placeholder is retrieved from a
//! pre-computed phonetic dictionary of the queried database's table names,
//! attribute names, and string attribute values.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A literal and its pre-computed phonetic key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhoneticEntry {
    /// The literal exactly as it should appear in the corrected SQL
    /// (canonical casing, quotes for string values).
    pub literal: String,
    /// Its Metaphone-based key.
    pub key: String,
}

impl PhoneticEntry {
    /// Key a literal with the paper's Metaphone algorithm.
    pub fn new(literal: impl Into<String>) -> PhoneticEntry {
        PhoneticEntry::with_algorithm(literal, crate::soundex::PhoneticAlgorithm::Metaphone)
    }

    /// Key a literal with an explicit phonetic algorithm.
    pub fn with_algorithm(
        literal: impl Into<String>,
        algo: crate::soundex::PhoneticAlgorithm,
    ) -> PhoneticEntry {
        let literal = literal.into();
        let key = algo.key(&literal);
        PhoneticEntry { literal, key }
    }
}

/// The outcome of one [`PhoneticIndex::nearest`] vote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NearestVote {
    /// Indices of every entry at the minimal distance, ascending.
    pub winners: Vec<usize>,
    /// The minimal Levenshtein distance found.
    pub distance: usize,
    /// Distance comparisons performed (one per entry on the scan path, one
    /// bucket probe on the exact path).
    pub comparisons: u64,
    /// True when the vote was answered by the exact-key bucket in O(1)
    /// instead of the nearest scan. The winners are identical either way; an
    /// exact key match has distance 0, which no scan result can beat.
    pub exact: bool,
}

/// An immutable, deterministic phonetic index: entries sorted by literal so
/// vote ties can be "resolved in lexicographical order" (paper §4.3).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhoneticIndex {
    entries: Vec<PhoneticEntry>,
    /// Exact-match fast path: phonetic key → indices of every entry with
    /// that key, ascending (i.e. lexicographic by literal, matching the scan
    /// path's tie order). Derived from `entries`, rebuilt on construction.
    buckets: HashMap<String, Vec<usize>>,
}

impl PhoneticIndex {
    /// Build from literal strings; duplicates are removed.
    pub fn build<I, S>(literals: I) -> PhoneticIndex
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PhoneticIndex::build_with(literals, crate::soundex::PhoneticAlgorithm::Metaphone)
    }

    /// Build with an explicit phonetic algorithm (ablations).
    pub fn build_with<I, S>(literals: I, algo: crate::soundex::PhoneticAlgorithm) -> PhoneticIndex
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut entries: Vec<PhoneticEntry> = literals
            .into_iter()
            .map(|l| PhoneticEntry::with_algorithm(l, algo))
            .collect();
        entries.sort_by(|a, b| a.literal.cmp(&b.literal));
        entries.dedup_by(|a, b| a.literal == b.literal);
        PhoneticIndex::from_entries(entries)
    }

    /// Assemble an index from sorted, deduplicated entries, deriving the
    /// exact-key buckets.
    fn from_entries(entries: Vec<PhoneticEntry>) -> PhoneticIndex {
        // The nearest scan reads a key's bytes as its chars.
        assert!(
            entries
                .iter()
                .all(|e| e.key.bytes().all(|b| b.is_ascii_alphanumeric())),
            "every PhoneticAlgorithm keys a literal with ASCII alphanumerics"
        );
        let mut buckets: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, e) in entries.iter().enumerate() {
            buckets.entry(e.key.clone()).or_default().push(i);
        }
        PhoneticIndex { entries, buckets }
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[PhoneticEntry] {
        &self.entries
    }

    /// Number of distinct literals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index holds no literals.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Find the entries phonetically closest to `key` under character-level
    /// Levenshtein distance — one vote of the literal-determination scheme
    /// (paper §4.3). Returns every tied-closest entry index (ascending, i.e.
    /// lexicographic by literal) so the caller can distribute the vote, plus
    /// the number of distance comparisons performed, which the observability
    /// layer accumulates as `literal.vote_comparisons`. Returns `None` on an
    /// empty index.
    ///
    /// A key that misses the exact-key bucket is compared with every entry
    /// by a bit-parallel Levenshtein kernel: its match masks are built once
    /// per vote, and each entry then costs a few word operations per key
    /// byte (one 64-bit word per 64 query chars).
    pub fn nearest(&self, key: &str) -> Option<NearestVote> {
        if self.entries.is_empty() {
            return None;
        }
        // Exact-key fast path: a bucket hit means distance 0, which nothing
        // on the scan path can beat, and the bucket holds every entry with
        // that key in ascending order — exactly the scan path's tied-winner
        // set. One hash probe replaces `len()` Levenshtein computations.
        if let Some(bucket) = self.buckets.get(key) {
            return Some(NearestVote {
                winners: bucket.clone(),
                distance: 0,
                comparisons: 1,
                exact: true,
            });
        }
        let mut best = usize::MAX;
        let mut winners: Vec<usize> = Vec::new();
        let mut pattern = BitPattern::new(key);
        for (i, e) in self.entries.iter().enumerate() {
            // The length gap is a lower bound on the distance: an entry it
            // puts past `best` can never join the winner set, so skipping it
            // leaves winners and ties as the unbounded scan has them.
            if pattern.len.abs_diff(e.key.len()) > best {
                continue;
            }
            let d = pattern.distance(e.key.as_bytes());
            if d < best {
                best = d;
                winners.clear();
                winners.push(i);
            } else if d == best {
                winners.push(i);
            }
        }
        Some(NearestVote {
            winners,
            distance: best,
            comparisons: self.entries.len() as u64,
            exact: false,
        })
    }

    /// Merge several indexes (e.g. all value domains of a table).
    pub fn merged<'a, I: IntoIterator<Item = &'a PhoneticIndex>>(parts: I) -> PhoneticIndex {
        let mut entries: Vec<PhoneticEntry> = parts
            .into_iter()
            .flat_map(|p| p.entries.iter().cloned())
            .collect();
        entries.sort_by(|a, b| a.literal.cmp(&b.literal));
        entries.dedup_by(|a, b| a.literal == b.literal);
        PhoneticIndex::from_entries(entries)
    }
}

/// Match masks cover the ASCII range: every phonetic key is ASCII
/// alphanumeric (asserted in [`PhoneticIndex::from_entries`]), so a key's
/// bytes are its chars.
const ASCII: usize = 128;

/// Myers' bit-vector Levenshtein distance (J. ACM 46(3), 1999) in Hyyrö's
/// global-distance form (2001), with one fixed query as the pattern. A text
/// column's vertical deltas `D[i][j] - D[i-1][j]` are kept as two bit
/// vectors (`+1` and `-1` rows), and one text byte advances the whole
/// column in a few word operations. Patterns past 64 chars are blocked over
/// several words, each block handing the horizontal delta leaving its top
/// row to the block above.
struct BitPattern {
    /// Pattern length in chars.
    len: usize,
    /// 64-bit words per column.
    words: usize,
    /// `peq[byte * words + w]`: bit `i` is set where pattern char `64w + i`
    /// equals `byte`. A non-ASCII pattern char sets no bit, since it matches
    /// no key byte; a key byte past the ASCII range is out of bounds.
    peq: Vec<u64>,
    /// Per-block `(+1, -1)` vertical-delta vectors of a blocked pattern (a
    /// one-word column lives in registers instead).
    blocks: Vec<(u64, u64)>,
}

impl BitPattern {
    fn new(pattern: &str) -> BitPattern {
        let len = pattern.chars().count();
        let words = len.div_ceil(64).max(1);
        let mut peq = vec![0u64; ASCII * words];
        for (i, c) in pattern.chars().enumerate() {
            if c.is_ascii() {
                peq[c as usize * words + i / 64] |= 1 << (i % 64);
            }
        }
        BitPattern {
            len,
            words,
            peq,
            blocks: vec![(0, 0); words],
        }
    }

    /// Levenshtein distance between the pattern and the ASCII key `text`.
    fn distance(&mut self, text: &[u8]) -> usize {
        let Some(last_row) = self.len.checked_sub(1) else {
            return text.len();
        };
        // Column 0 is `D[i][0] = i`: every vertical delta is +1. The score
        // follows the pattern's last row, `D[len][j]`.
        let top = 1u64 << (last_row % 64);
        let mut score = self.len;
        if self.words == 1 {
            let (mut vp, mut vn) = (!0u64, 0u64);
            for &b in text {
                let h = advance(&mut vp, &mut vn, self.peq[usize::from(b)], 1, top);
                score = score.wrapping_add_signed(h);
            }
            return score;
        }
        self.blocks.fill((!0, 0));
        for &b in text {
            let eq = &self.peq[usize::from(b) * self.words..][..self.words];
            // Row 0 is `D[0][j] = j`: the delta entering the first block is +1.
            let mut h = 1;
            for (w, ((vp, vn), &eq)) in self.blocks.iter_mut().zip(eq).enumerate() {
                let top = if w + 1 == self.words { top } else { 1 << 63 };
                h = advance(vp, vn, eq, h, top);
            }
            score = score.wrapping_add_signed(h);
        }
        score
    }
}

/// Advance one 64-row block of a column by one text byte with match mask
/// `eq`, given the horizontal delta `hin` (-1, 0 or +1) entering its lowest
/// row. Returns the horizontal delta leaving row `top`. Rows above the
/// pattern's last row in its last block hold no pattern char; a row depends
/// only on the rows below it, so they never disturb the real ones.
#[inline(always)]
fn advance(vp: &mut u64, vn: &mut u64, eq: u64, hin: isize, top: u64) -> isize {
    let hin_neg = u64::from(hin < 0);
    let xv = eq | *vn;
    let eq = eq | hin_neg;
    let xh = ((eq & *vp).wrapping_add(*vp) ^ *vp) | eq;
    let ph = *vn | !(xh | *vp);
    let mh = *vp & xh;
    // `ph` and `mh` are disjoint, so at most one term is set.
    let hout = isize::from(ph & top != 0) - isize::from(mh & top != 0);
    let ph = (ph << 1) | u64::from(hin > 0);
    let mh = (mh << 1) | hin_neg;
    *vp = mh | !(xv | ph);
    *vn = ph & xv;
    hout
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soundex::PhoneticAlgorithm;
    use proptest::prelude::*;

    #[test]
    fn builds_sorted_deduped() {
        let idx = PhoneticIndex::build(["Salaries", "Employees", "Salaries"]);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.entries()[0].literal, "Employees");
        assert_eq!(idx.entries()[0].key, "EMPLYS");
        assert_eq!(idx.entries()[1].key, "SLRS");
    }

    #[test]
    fn merged_indexes() {
        let a = PhoneticIndex::build(["x", "y"]);
        let b = PhoneticIndex::build(["y", "z"]);
        let m = PhoneticIndex::merged([&a, &b]);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn empty_index() {
        let idx = PhoneticIndex::build(Vec::<String>::new());
        assert!(idx.is_empty());
        assert_eq!(idx.nearest("SLRS"), None);
    }

    #[test]
    fn nearest_counts_comparisons_and_reports_ties() {
        let idx = PhoneticIndex::build(["FROMDATE", "TODATE"]);
        // "TT" (phonetic key of "date") ties FROMDATE (FRMTT) nowhere: TODATE
        // (TTT) is strictly closer.
        let Some(vote) = idx.nearest("TT") else {
            panic!("index is non-empty");
        };
        assert_eq!(vote.comparisons, 2);
        assert_eq!(
            vote.winners
                .iter()
                .map(|&i| idx.entries()[i].literal.as_str())
                .collect::<Vec<_>>(),
            ["TODATE"]
        );
        // An equidistant key splits its vote across both entries, ascending.
        let Some(tie) = idx.nearest("FRMTT PADDED TO BE FAR") else {
            panic!("index is non-empty");
        };
        assert!(tie.winners.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn exact_key_fast_path_matches_scan_result() {
        // Every entry's own key must resolve through the bucket fast path to
        // exactly the winner set a linear scan would produce: all entries
        // sharing that key, ascending.
        let idx = PhoneticIndex::build(["Salaries", "Employees", "FirstName", "FromDate"]);
        for e in idx.entries() {
            let Some(vote) = idx.nearest(&e.key) else {
                panic!("index is non-empty");
            };
            assert!(vote.exact, "key {} should hit the bucket", e.key);
            assert_eq!(vote.distance, 0);
            assert_eq!(vote.comparisons, 1);
            let expected: Vec<usize> = idx
                .entries()
                .iter()
                .enumerate()
                .filter(|(_, x)| x.key == e.key)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(vote.winners, expected);
        }
    }

    #[test]
    fn non_exact_key_falls_back_to_scan() {
        let idx = PhoneticIndex::build(["FROMDATE", "TODATE"]);
        let Some(vote) = idx.nearest("XQZ") else {
            panic!("index is non-empty");
        };
        assert!(!vote.exact);
        assert_eq!(vote.comparisons, 2);
        assert!(vote.distance > 0);
    }

    /// Every phonetic algorithm, for the invariant properties below.
    const ALGORITHMS: [PhoneticAlgorithm; 4] = [
        PhoneticAlgorithm::Metaphone,
        PhoneticAlgorithm::Soundex,
        PhoneticAlgorithm::Nysiis,
        PhoneticAlgorithm::Identity,
    ];

    /// The invariants the scan and the vote tally rely on: literals strictly
    /// ascending (so unique), every key ASCII alphanumeric, and the buckets
    /// regrouping the entries exactly, each ascending.
    fn assert_invariants(idx: &PhoneticIndex) {
        assert!(idx
            .entries()
            .windows(2)
            .all(|w| w[0].literal < w[1].literal));
        for e in idx.entries() {
            assert!(
                e.key.bytes().all(|b| b.is_ascii_alphanumeric()),
                "key {:?} of {:?}",
                e.key,
                e.literal
            );
        }
        let mut regrouped: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, e) in idx.entries().iter().enumerate() {
            regrouped.entry(e.key.clone()).or_default().push(i);
        }
        assert_eq!(idx.buckets, regrouped);
    }

    /// The winners and distance of a naive scan under the reference
    /// Levenshtein distance.
    fn naive_nearest(idx: &PhoneticIndex, key: &str) -> (Vec<usize>, usize) {
        let mut best = usize::MAX;
        let mut winners: Vec<usize> = Vec::new();
        for (i, e) in idx.entries().iter().enumerate() {
            let d = speakql_editdist::levenshtein(key, &e.key);
            if d < best {
                best = d;
                winners.clear();
                winners.push(i);
            } else if d == best {
                winners.push(i);
            }
        }
        (winners, best)
    }

    #[test]
    fn kernel_handles_block_edges() {
        for (len, text) in [(64, 64), (64, 65), (65, 64), (128, 1), (129, 200)] {
            let pattern: String = "AB".chars().cycle().take(len).collect();
            let key: String = "BA".chars().cycle().take(text).collect();
            let d = BitPattern::new(&pattern).distance(key.as_bytes());
            assert_eq!(
                d,
                speakql_editdist::levenshtein(&pattern, &key),
                "{len}x{text}"
            );
        }
    }

    proptest! {
        /// The bit-parallel kernel equals the reference Levenshtein distance
        /// for empty, one-word (1–64 chars) and blocked (65–200 chars)
        /// patterns, non-ASCII pattern chars included; one pattern is
        /// reused across texts, as a vote reuses it across entries.
        #[test]
        fn kernel_matches_reference(
            pattern in prop_oneof![
                Just(String::new()),
                "[ABKST0é]{1,64}",
                "[ABKST0é]{65,200}",
            ],
            texts in proptest::collection::vec("[ABKST0]{0,199}", 1..4),
        ) {
            let mut bits = BitPattern::new(&pattern);
            for text in &texts {
                let d = speakql_editdist::levenshtein(&pattern, text);
                prop_assert_eq!(bits.distance(text.as_bytes()), d);
            }
        }

        /// `nearest`, with its length-gap bound, equals a naive unbounded
        /// scan: the same winners, tie set and distance, on the bucket path
        /// and the scan path alike.
        #[test]
        fn bounded_scan_matches_naive_scan(
            key in prop_oneof!["[ABKST0]{0,12}", "[A-Z0-9é]{60,90}"],
            lits in proptest::collection::vec("[ABKSTaeiou0-9]{1,10}", 1..20),
        ) {
            let idx = PhoneticIndex::build(lits);
            let Some(vote) = idx.nearest(&key) else {
                panic!("index is non-empty");
            };
            let (winners, best) = naive_nearest(&idx, &key);
            prop_assert_eq!(vote.distance, best);
            prop_assert_eq!(vote.winners, winners);
            prop_assert_eq!(vote.exact, best == 0);
            let comparisons = if vote.exact { 1 } else { idx.len() as u64 };
            prop_assert_eq!(vote.comparisons, comparisons);
        }

        /// `build_with` under every algorithm, and `merged`, keep the
        /// index's invariants on arbitrary Unicode literals with duplicates.
        #[test]
        fn build_and_merge_keep_invariants(
            lits in proptest::collection::vec("[ -~À-ÿΑ-ωא-ת一-丟😀-😏]{0,12}", 0..24),
            split in 0usize..24,
        ) {
            let mut doubled = lits.clone();
            doubled.extend(lits.iter().take(split).cloned());
            let (left, right) = doubled.split_at(split.min(doubled.len()));
            for algo in ALGORITHMS {
                let whole = PhoneticIndex::build_with(doubled.iter().cloned(), algo);
                assert_invariants(&whole);
                let a = PhoneticIndex::build_with(left.iter().cloned(), algo);
                let b = PhoneticIndex::build_with(right.iter().cloned(), algo);
                let merged = PhoneticIndex::merged([&a, &b]);
                assert_invariants(&merged);
                prop_assert_eq!(&merged, &whole);
            }
        }
    }

    #[test]
    fn merged_index_rebuilds_buckets() {
        let a = PhoneticIndex::build(["Salaries"]);
        let b = PhoneticIndex::build(["Employees"]);
        let m = PhoneticIndex::merged([&a, &b]);
        for e in m.entries() {
            let Some(vote) = m.nearest(&e.key) else {
                panic!("index is non-empty");
            };
            assert!(vote.exact);
        }
    }
}
