//! The scalar test oracle for the trie walk: Box 2's `SearchRecursively`
//! one DP column at a time over [`advance_column`], with DAP, driven by the
//! production [`Schedule`] bounding segments in `u32`, as wide as [`Dist`].
//! The SoA walk, which bounds in its own lane, must equal it on hits and
//! on all six [`SearchStats`] fields, on `u16` lanes and on `u32` lanes
//! alike.

use super::*;
use proptest::prelude::*;
use speakql_editdist::{advance_column, base_column};
use speakql_grammar::STRUCT_ALPHABET;
use std::sync::OnceLock;

impl StructureIndex {
    /// Top-k search through the oracle walk.
    fn oracle_search(
        &self,
        masked: &[StructTokId],
        cfg: &SearchConfig,
    ) -> (Vec<SearchHit>, SearchStats) {
        if self.store.len() == 0 {
            return (Vec::new(), SearchStats::default());
        }
        let mut state = SearchState::new(cfg.k, self.tries.len());
        let mut schedule = Schedule::new(self, masked, cfg.bdb);
        let mut cols = vec![Vec::new(); self.max_len + 1];
        cols[0] = base_column(masked, self.weights);
        while let Some(unit) = schedule.next_within::<u32>(state.topk.threshold()) {
            state.stats.shards_searched += 1;
            state.walked[unit.len] = true;
            TrieWalk {
                trie: self.tries[unit.len][unit.shard].planes(),
                target_len: unit.len,
                masked,
                w: self.weights,
                dap: cfg.dap,
                state: &mut state,
                cols: &mut cols,
            }
            .visit_children(0, 0);
        }
        schedule.settle(state)
    }

    /// The production search, forced onto `u32` lanes whatever the query.
    fn search_wide(
        &self,
        masked: &[StructTokId],
        cfg: &SearchConfig,
    ) -> (Vec<SearchHit>, SearchStats) {
        if self.store.len() == 0 {
            return (Vec::new(), SearchStats::default());
        }
        let cols = SoaWorkspace::wide(masked, self.weights, self.max_len);
        self.search_on(cols, masked, cfg)
    }
}

/// One oracle trie walk: one column per child, in sibling order.
struct TrieWalk<'a, 'b> {
    trie: Planes<'a>,
    /// Token length of every structure in this trie (tries are per-length).
    target_len: usize,
    masked: &'a [StructTokId],
    w: Weights,
    dap: bool,
    state: &'b mut SearchState,
    /// `cols[d]`: the DP column of the depth-`d` node on the current path.
    cols: &'b mut [Vec<Dist>],
}

impl TrieWalk<'_, '_> {
    /// The column of `node`'s child at `depth + 1` with edge token `tok`,
    /// counting one node and its cells.
    fn advance(&mut self, depth: usize, tok: StructTokId) -> &[Dist] {
        self.state.stats.nodes_visited += 1;
        self.state.stats.cells_evaluated += self.masked.len() as u64 + 1;
        let (prev, cur) = self.cols.split_at_mut(depth + 1);
        advance_column(self.masked, &prev[depth], tok, self.w, &mut cur[0]);
        &cur[0]
    }

    fn visit_children(&mut self, node: u32, depth: usize) {
        // DAP (App. D.3): among sibling children whose tokens are in the
        // prime superset, explore only the one whose column's last row is
        // minimal; other children are unaffected.
        let chosen_prime: Option<u32> = if self.dap {
            let mut best: Option<(Dist, u32)> = None;
            for child in self.trie.children(node) {
                let tok = self.trie.token(child);
                if !is_prime(tok) {
                    continue;
                }
                let last = *self.advance(depth, tok).last().unwrap_or(&DIST_INF);
                if best.is_none_or(|(d, _)| last < d) {
                    best = Some((last, child));
                }
            }
            best.map(|(_, c)| c)
        } else {
            None
        };

        for child in self.trie.children(node) {
            let tok = self.trie.token(child);
            if self.dap && is_prime(tok) && Some(child) != chosen_prime {
                continue;
            }
            let (m, rem, wmin) = (
                self.masked.len(),
                self.target_len - (depth + 1),
                self.w.min_weight(),
            );
            let col = self.advance(depth, tok);
            // A column always has masked.len()+1 rows; INF keeps a
            // hypothetical empty one from producing a hit or a descent.
            let last = *col.last().unwrap_or(&DIST_INF);
            // Banded descend bound: cell `i` still has to reconcile `m − i`
            // source tokens with the `rem` target tokens below this child,
            // which costs at least `w_min · |(m − i) − rem|` (Proposition 1).
            let bound = col
                .iter()
                .enumerate()
                .map(|(i, &v)| v + wmin * (m - i).abs_diff(rem) as Dist)
                .min()
                .unwrap_or(DIST_INF);
            let terminal = self.trie.structure(child);
            if terminal != NONE {
                self.state.topk.offer(SearchHit {
                    structure: terminal,
                    distance: last,
                });
            }
            // Box 2 line 46: explore deeper only if the banded bound can
            // still beat the current k-th best ("min(DpCurCol) ≤ MinEditDist").
            if self.trie.first_child(child) != NONE && bound <= self.state.topk.threshold() {
                self.visit_children(child, depth + 1);
            }
        }
    }
}

mod tests {
    use super::*;

    fn small_index() -> &'static StructureIndex {
        static IDX: OnceLock<StructureIndex> = OnceLock::new();
        IDX.get_or_init(|| StructureIndex::from_grammar(&GeneratorConfig::small(), Weights::PAPER))
    }

    fn arb_masked() -> impl Strategy<Value = Vec<StructTokId>> {
        prop::collection::vec((0..STRUCT_ALPHABET as u8).prop_map(StructTokId), 0..16)
    }

    /// Proptest case count: `PROPTEST_CASES` when set (CI's release parity
    /// job raises it), a debug-friendly default otherwise. Each case runs
    /// sixteen searches and eight oracle walks.
    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(24)
    }

    /// Every configuration the suite compares: k ∈ {1, 5} × BDB × DAP.
    fn configs() -> impl Iterator<Item = SearchConfig> {
        [1usize, 5].into_iter().flat_map(|k| {
            [(true, false), (false, false), (true, true), (false, true)]
                .into_iter()
                .map(move |(bdb, dap)| SearchConfig { k, bdb, dap })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// The SoA walk on `u16` lanes equals the oracle: same hits, same
        /// six work counters.
        #[test]
        fn oracle_equals_u16_walk(masked in arb_masked()) {
            let idx = small_index();
            prop_assert!(SoaWorkspace::fits(masked.len(), idx.max_len(), idx.weights()));
            for cfg in configs() {
                let oracle = idx.oracle_search(&masked, &cfg);
                let walk = idx.search_with_stats(&masked, &cfg);
                prop_assert_eq!(&walk, &oracle, "{:?}", cfg);
            }
        }

        /// The same walk forced onto `u32` lanes equals the oracle too.
        #[test]
        fn oracle_equals_u32_walk(masked in arb_masked()) {
            let idx = small_index();
            for cfg in configs() {
                let oracle = idx.oracle_search(&masked, &cfg);
                let walk = idx.search_wide(&masked, &cfg);
                prop_assert_eq!(&walk, &oracle, "{:?}", cfg);
            }
        }
    }

    /// A query past the `u16` envelope (its Proposition 1 ceiling exceeds
    /// `u16::MAX`) walks `u32` lanes: exact against the brute-force scan,
    /// and equal to the oracle, work counters included.
    #[test]
    fn oracle_and_scan_equal_a_past_the_envelope_query() {
        let idx = StructureIndex::from_grammar(
            &GeneratorConfig {
                max_structures: Some(2_000),
                ..GeneratorConfig::small()
            },
            Weights::PAPER,
        );
        let masked = vec![StructTokId::VAR; 3000];
        assert!(!SoaWorkspace::fits(
            masked.len(),
            idx.max_len(),
            idx.weights()
        ));
        let cfg = SearchConfig::top_k(5);
        let (hits, stats) = idx.search_with_stats(&masked, &cfg);
        assert_eq!(hits.len(), 5);
        assert_eq!(hits, idx.scan(&masked, cfg.k));
        assert_eq!((hits, stats), idx.oracle_search(&masked, &cfg));
    }
}
