//! Branchless structure-of-arrays DP kernel: the trie search's one way to
//! compute a DP column.
//!
//! [`advance_column`](crate::advance_column) extends one column per trie
//! child, paying per cell for a three-way branch chain and a
//! `tok() → class() → match` weight lookup, then re-scans the column for its
//! minimum. This module computes the same recurrence around two
//! observations:
//!
//! 1. **Sibling columns are independent.** Every child of a trie node
//!    extends the *same* parent column, just with a different edge token.
//!    Computing up to [`SOA_LANES`] sibling columns simultaneously turns the
//!    row recurrence into element-wise lane arithmetic the compiler can
//!    auto-vectorize, and amortizes each parent-column load (and each
//!    source-token load) across the whole chunk.
//! 2. **The fixed-point weights fit `u16` lanes.** The paper's weights are
//!    exact in tenths (`W_K=1.2, W_S=1.1, W_L=1.0` → `12/11/10`), and every
//!    reachable DP cell is bounded by Proposition 1's upper bound
//!    `(m + n)·W_K` — comfortably inside `u16` for any realistic transcript.
//!    Narrow lanes double the SIMD width and halve memory traffic.
//!
//! The per-cell branch `if a == b { prev[i] } else { min(delete, insert) }`
//! becomes select-style arithmetic: because a matching token pair shares one
//! class weight, `prev[i] ≤ min(delete, insert)` whenever `a == b` (adjacent
//! DP cells differ by at most the differing token's weight), so the match
//! case can join the `min` as a masked candidate instead of a branch:
//!
//! ```text
//! keep = (a == b) ? prev[i] : SAT          // bitwise select, no branch
//! out[i+1] = min(keep, out[i] + w(a), prev[i+1] + w(b))
//! ```
//!
//! which is exactly the scalar recurrence, cell for cell: same distances,
//! same winners, same counter totals.
//!
//! The workspace is generic over its [`Lane`] type. [`SoaWorkspace::new`]
//! builds `u16` lanes for every query [`SoaWorkspace::fits`] admits (the
//! weights lower to `u16` and Proposition 1's ceiling stays below the
//! sentinel); [`SoaWorkspace::wide`] builds `u32` lanes, as wide as
//! [`Dist`] itself, for the rest, whose cells are the very `u32`s
//! `advance_column` computes.

use crate::bounds::upper_bound;
use crate::weights::{Dist, LaneWeights, Weights};
use speakql_grammar::StructTokId;
use std::ops::{Add, BitAnd, BitOr, Mul, Not, Sub};

/// Sibling columns computed per [`SoaWorkspace::advance_chunk`] call. Eight
/// `u16` lanes fill one 128-bit vector register — the widest unit portable
/// baseline x86-64 and aarch64 both autovectorize without feature gates.
pub const SOA_LANES: usize = 8;

/// The cell type of an [`SoaWorkspace`]: `u16` on the serving path, `u32`
/// past its envelope. Both run the same recurrence; only the lane width
/// differs. The index's count-bound pass computes its per-group tail in the
/// same lane as the walk, hence `Sub`, `Mul` and the widening from a count
/// byte.
pub trait Lane:
    Copy
    + Ord
    + Default
    + From<u8>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + Not<Output = Self>
{
    /// All ones: the select's "no candidate", never produced as a real cell
    /// value (for `u16`, [`SoaWorkspace::fits`] keeps every reachable cell
    /// strictly below it; for `u32`, only a `min` ever sees it).
    const SAT: Self;
    /// `d` in a lane, truncated: exact whenever `d` fits the lane.
    fn narrow(d: Dist) -> Self;
    /// All ones when `eq` holds, zero otherwise: the select's mask.
    fn mask(eq: bool) -> Self;
    /// The lane widened back to a distance.
    fn widen(self) -> Dist;
}

impl Lane for u16 {
    const SAT: u16 = u16::MAX;

    #[inline]
    fn narrow(d: Dist) -> u16 {
        // lossy: exact for every value the u16 envelope admits
        d as u16
    }

    #[inline]
    fn mask(eq: bool) -> u16 {
        u16::from(eq).wrapping_neg()
    }

    #[inline]
    fn widen(self) -> Dist {
        Dist::from(self)
    }
}

impl Lane for u32 {
    const SAT: u32 = u32::MAX;

    #[inline]
    fn narrow(d: Dist) -> u32 {
        d
    }

    #[inline]
    fn mask(eq: bool) -> u32 {
        u32::from(eq).wrapping_neg()
    }

    #[inline]
    fn widen(self) -> Dist {
        self
    }
}

/// Per-lane results of one chunk advance: the final row (a candidate's
/// distance when the child terminates a structure) and the banded descend
/// bound (the descend-or-prune test of Box 2 line 46, tightened by
/// Proposition 1), both fused into the DP pass instead of re-scanning
/// columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkStats {
    /// `last[c]`: the last cell of sibling `c`'s column.
    pub last: [Dist; SOA_LANES],
    /// `bound[c]`: sibling `c`'s banded descend bound — a true lower bound
    /// on the final distance of every structure below that child (see
    /// [`SoaWorkspace::advance_chunk`]).
    pub bound: [Dist; SOA_LANES],
}

/// A depth-indexed arena of structure-of-arrays DP column blocks, one per
/// trie depth on the current root-to-node path.
///
/// Block `d` holds up to [`SOA_LANES`] interleaved columns for trie depth
/// `d`, flattened row-major (`block[row * SOA_LANES + lane]`) so the lane
/// loop is contiguous. A child's column never moves: descending into the
/// child at lane `c` simply reads block `d` strided at lane `c` as the
/// parent column for block `d + 1`.
#[derive(Debug, Clone)]
pub struct SoaWorkspace<L = u16> {
    /// Widened source tokens, one lane per transcript token, so the lane
    /// compare needs no per-cell narrowing.
    src_tok: Vec<L>,
    /// Precomputed per-source-token weights (the delete cost of row `i`).
    src_w: Vec<L>,
    /// Per-token-id insert weights.
    lane_w: LaneWeights<L>,
    /// All depth blocks, flattened: `blocks[d * block_len ..][row * SOA_LANES + lane]`.
    blocks: Vec<L>,
    /// Per-remaining-depth Proposition 1 completion costs:
    /// `lb[rem * rows + i] = w_min · |(m − i) − rem|`, the cheapest way to
    /// finish matching the `m − i` unconsumed source tokens against `rem`
    /// unconsumed target tokens. Added cell-wise to form the banded descend
    /// bound.
    lb: Vec<L>,
    /// Rows per column: `source.len() + 1`.
    rows: usize,
    /// Depths currently allocated (block count).
    depths: usize,
    /// DP cells evaluated since the last [`SoaWorkspace::take_cells`].
    cells: u64,
}

impl SoaWorkspace {
    /// Whether `u16` lanes can represent every reachable DP cell for a
    /// `source_len`-token query against targets up to `max_depth` tokens:
    /// the weights must lower to `u16`, and Proposition 1's cell ceiling
    /// *plus* the largest banded completion cost (at most the same ceiling
    /// again) must stay strictly below the `SAT` sentinel, so the fused
    /// `cell + lb` bound accumulation cannot wrap either.
    pub fn fits(source_len: usize, max_depth: usize, w: Weights) -> bool {
        LaneWeights::<u16>::lower(w).is_some()
            && upper_bound(source_len, max_depth, w)
                .checked_add((source_len + max_depth) as Dist * w.min_weight())
                .is_some_and(|ceiling| ceiling < Dist::from(u16::SAT))
    }

    /// `u16` workspace for matching `source` against targets of length at
    /// most `max_depth`; `None` when the query is outside the envelope
    /// [`SoaWorkspace::fits`] checks (the caller then uses
    /// [`SoaWorkspace::wide`]).
    pub fn new(source: &[StructTokId], w: Weights, max_depth: usize) -> Option<SoaWorkspace> {
        SoaWorkspace::fits(source.len(), max_depth, w)
            .then(|| SoaWorkspace::with_lanes(source, w, max_depth))
    }
}

impl SoaWorkspace<u32> {
    /// `u32` workspace for matching `source` against targets of length at
    /// most `max_depth`: any query, any weights. Its cells are the `u32`s
    /// [`advance_column`](crate::advance_column) computes, so it is exact
    /// wherever that recurrence is.
    pub fn wide(source: &[StructTokId], w: Weights, max_depth: usize) -> SoaWorkspace<u32> {
        SoaWorkspace::with_lanes(source, w, max_depth)
    }
}

impl<L: Lane> SoaWorkspace<L> {
    /// The workspace in `L` lanes. Every weight, base-column cell and
    /// completion cost is computed as a [`Dist`] and narrowed, which is
    /// exact for `u32` always and for `u16` inside [`SoaWorkspace::fits`].
    fn with_lanes(source: &[StructTokId], w: Weights, max_depth: usize) -> SoaWorkspace<L> {
        let lane_w = LaneWeights::narrow(w);
        let src_w: Vec<L> = source.iter().map(|t| lane_w.by_tok[t.0 as usize]).collect();
        let rows = source.len() + 1;
        let depths = max_depth + 1;
        let mut blocks = vec![L::default(); depths * rows * SOA_LANES];
        // Depth-0 block, lane 0: the base column (cumulative deletion cost
        // of the source prefix), exactly `base_column` in lanes.
        let mut acc: Dist = 0;
        for (i, &t) in source.iter().enumerate() {
            acc += w.of(t);
            blocks[(i + 1) * SOA_LANES] = L::narrow(acc);
        }
        // Banded completion costs, one row-shaped slice per remaining target
        // depth.
        let m = source.len();
        let wmin = w.min_weight();
        let mut lb = Vec::with_capacity(depths * rows);
        for rem in 0..depths {
            for i in 0..rows {
                lb.push(L::narrow(wmin * (m - i).abs_diff(rem) as Dist));
            }
        }
        SoaWorkspace {
            src_tok: source.iter().map(|t| L::narrow(Dist::from(t.0))).collect(),
            src_w,
            lane_w,
            blocks,
            lb,
            rows,
            depths,
            cells: 0,
        }
    }

    #[inline]
    fn block_len(&self) -> usize {
        self.rows * SOA_LANES
    }

    /// Extend the parent column (block `depth`, lane `parent_lane`) by one
    /// trie edge per sibling in `tokens`, writing up to [`SOA_LANES`]
    /// columns into block `depth + 1` and returning each column's last cell
    /// and banded descend bound. Lanes beyond `tokens.len()` hold garbage
    /// and are excluded from the cell count.
    ///
    /// `rem` is the number of target tokens left *below* the children (the
    /// trie's structure length minus `depth + 1`). The bound fuses
    /// Proposition 1 into the column minimum: every descendant's final
    /// distance is at least
    /// `min_i (cell[i] + w_min · |(m − i) − rem|)`,
    /// because finishing from row `i` must still reconcile `m − i` source
    /// tokens with `rem` target tokens. With `rem` large this collapses to a
    /// diagonal band around the column — far tighter than the raw minimum —
    /// while staying exact, so pruning on it never drops a true top-k hit.
    ///
    /// Cell for cell this computes the scalar recurrence of
    /// [`advance_column`](crate::advance_column); see the module docs for
    /// why the masked-select form is exact.
    pub fn advance_chunk(
        &mut self,
        depth: usize,
        parent_lane: usize,
        tokens: &[StructTokId],
        rem: usize,
    ) -> ChunkStats {
        debug_assert!(!tokens.is_empty() && tokens.len() <= SOA_LANES);
        debug_assert!(depth + 1 < self.depths);
        debug_assert!(parent_lane < SOA_LANES);
        debug_assert!(rem < self.depths);

        // Single-child nodes dominate real tries (the measured mean fanout
        // on the paper workload is ~1.5), and padding them out to the full
        // lane width would waste most of the chunk's arithmetic. They get a
        // dedicated branchless scalar pass instead; the lane loop below
        // handles genuinely wide nodes, where it amortizes.
        if tokens.len() == 1 {
            let (last, bound) = self.advance_single(depth, parent_lane, tokens[0], rem);
            let mut stats = ChunkStats {
                last: [0; SOA_LANES],
                bound: [0; SOA_LANES],
            };
            stats.last[0] = last;
            stats.bound[0] = bound;
            return stats;
        }

        // Per-lane edge tokens and insert weights; unused lanes repeat lane
        // 0 so the whole chunk stays branch-free (their cells are computed
        // but never read or counted).
        let mut tok = [L::default(); SOA_LANES];
        let mut wb = [L::default(); SOA_LANES];
        for c in 0..SOA_LANES {
            let t = tokens[c.min(tokens.len() - 1)];
            tok[c] = L::narrow(Dist::from(t.0));
            wb[c] = self.lane_w.by_tok[t.0 as usize];
        }

        let lb = &self.lb[rem * self.rows..][..self.rows];
        let block_len = self.block_len();
        let (head, tail) = self.blocks.split_at_mut((depth + 1) * block_len);
        let prev = &head[depth * block_len..];
        let cur = &mut tail[..block_len];

        // Row 0: pure insertion cost of the target prefix.
        let prev0 = prev[parent_lane];
        let lb0 = lb[0];
        let mut bound_acc = [L::SAT; SOA_LANES];
        for c in 0..SOA_LANES {
            let v = prev0 + wb[c];
            cur[c] = v;
            bound_acc[c] = v + lb0;
        }

        // Rows 1..=m: the branchless recurrence. The delete candidate chains
        // serially down the rows, but the lane dimension is element-wise —
        // exactly the shape the autovectorizer turns into SIMD.
        for i in 0..self.rows - 1 {
            let a = self.src_tok[i];
            let wa = self.src_w[i];
            let lbi = lb[i + 1];
            let prev_i = prev[i * SOA_LANES + parent_lane];
            let prev_i1 = prev[(i + 1) * SOA_LANES + parent_lane];
            let (done, rest) = cur.split_at_mut((i + 1) * SOA_LANES);
            let above = &done[i * SOA_LANES..];
            let out = &mut rest[..SOA_LANES];
            for c in 0..SOA_LANES {
                // Bitwise select: all-ones mask when the tokens match.
                let mask = L::mask(tok[c] == a);
                let keep = (prev_i & mask) | (L::SAT & !mask);
                let ins = prev_i1 + wb[c];
                let del = above[c] + wa;
                let v = keep.min(ins).min(del);
                out[c] = v;
                bound_acc[c] = bound_acc[c].min(v + lbi);
            }
        }

        self.cells += (tokens.len() * self.rows) as u64;

        let mut stats = ChunkStats {
            last: [0; SOA_LANES],
            bound: [0; SOA_LANES],
        };
        let last_row = &cur[(self.rows - 1) * SOA_LANES..];
        for c in 0..SOA_LANES {
            stats.last[c] = last_row[c].widen();
            stats.bound[c] = bound_acc[c].widen();
        }
        stats
    }

    /// Single-sibling specialization of [`SoaWorkspace::advance_chunk`]:
    /// the same branchless recurrence with no lane padding, carrying the
    /// delete chain and the trailing `prev` cell in registers and returning
    /// `(last, bound)` directly instead of a padded [`ChunkStats`]. The
    /// child's column is written into lane 0 of block `depth + 1`, matching
    /// where the chunk loop would have put sibling 0.
    pub fn advance_single(
        &mut self,
        depth: usize,
        parent_lane: usize,
        token: StructTokId,
        rem: usize,
    ) -> (Dist, Dist) {
        debug_assert!(depth + 1 < self.depths);
        debug_assert!(rem < self.depths);
        assert!(parent_lane < SOA_LANES);
        let t = L::narrow(Dist::from(token.0));
        let wb = self.lane_w.by_tok[token.0 as usize];

        let lb = &self.lb[rem * self.rows..][..self.rows];
        let block_len = self.block_len();
        let (head, tail) = self.blocks.split_at_mut((depth + 1) * block_len);
        let prev = &head[depth * block_len..];
        let cur = &mut tail[..block_len];

        // Iterator form so every row access is bounds-check-free: `prev` and
        // `cur` are exactly `rows` chunks of SOA_LANES, and the source slices
        // hold exactly `rows - 1` tokens.
        let mut prev_rows = prev.chunks_exact(SOA_LANES);
        let mut out_rows = cur.chunks_exact_mut(SOA_LANES);
        let mut prev_i = prev_rows.next().map_or(L::SAT, |r| r[parent_lane]);
        let mut v = prev_i + wb;
        if let Some(r) = out_rows.next() {
            r[0] = v;
        }
        let (&lb0, lb_rest) = lb.split_first().unwrap_or((&v, &[]));
        let mut bound_acc = v + lb0;
        for ((pr, or), ((&a, &wa), &lbi)) in prev_rows.zip(out_rows).zip(
            self.src_tok
                .iter()
                .zip(self.src_w.iter())
                .zip(lb_rest.iter()),
        ) {
            let prev_i1 = pr[parent_lane];
            let mask = L::mask(t == a);
            let keep = (prev_i & mask) | (L::SAT & !mask);
            let nv = keep.min(prev_i1 + wb).min(v + wa);
            or[0] = nv;
            bound_acc = bound_acc.min(nv + lbi);
            v = nv;
            prev_i = prev_i1;
        }

        self.cells += self.rows as u64;
        (v.widen(), bound_acc.widen())
    }

    /// Read and reset the DP-cell counter (one `source.len() + 1`-cell
    /// column per live lane per [`SoaWorkspace::advance_chunk`]).
    pub fn take_cells(&mut self) -> u64 {
        std::mem::take(&mut self.cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcs::{advance_column, base_column};
    use proptest::prelude::*;
    use speakql_grammar::{StructTokId, STRUCT_ALPHABET};

    fn arb_toks(min: usize, max: usize) -> impl Strategy<Value = Vec<StructTokId>> {
        prop::collection::vec((0..STRUCT_ALPHABET as u8).prop_map(StructTokId), min..max)
    }

    /// Reference: scalar columns for `source` against every prefix of a
    /// sibling chunk's shared parent path `path`, then one scalar advance
    /// per sibling token.
    fn scalar_chunk(
        source: &[StructTokId],
        path: &[StructTokId],
        siblings: &[StructTokId],
        w: Weights,
    ) -> Vec<Vec<Dist>> {
        let mut col = base_column(source, w);
        let mut next = Vec::new();
        for &t in path {
            advance_column(source, &col, t, w, &mut next);
            std::mem::swap(&mut col, &mut next);
        }
        siblings
            .iter()
            .map(|&t| {
                let mut out = Vec::new();
                advance_column(source, &col, t, w, &mut out);
                out
            })
            .collect()
    }

    /// The banded descend bound the kernel must report for a column, per
    /// the definition in [`SoaWorkspace::advance_chunk`].
    fn banded_min(source_len: usize, col: &[Dist], rem: usize, w: Weights) -> Dist {
        col.iter()
            .enumerate()
            .map(|(i, &v)| v + w.min_weight() * (source_len - i).abs_diff(rem) as Dist)
            .min()
            .unwrap_or(0)
    }

    proptest! {
        /// Chunk advances along a random root path agree with the scalar
        /// kernel lane by lane: same last cell, same banded bound, same
        /// cell count.
        #[test]
        fn chunk_matches_scalar(
            source in arb_toks(0, 20),
            path in arb_toks(0, 8),
            siblings in arb_toks(1, SOA_LANES + 1),
        ) {
            let w = Weights::PAPER;
            let max_depth = path.len() + 1;
            let mut ws = match SoaWorkspace::new(&source, w, max_depth) {
                Some(ws) => ws,
                None => return Err(TestCaseError::fail("small query must fit u16")),
            };
            // Walk the path one single-token chunk at a time (lane 0 is the
            // child each step descends into); the siblings form the final
            // target tokens, so `rem` counts down to 0.
            for (d, &t) in path.iter().enumerate() {
                ws.advance_chunk(d, 0, &[t], path.len() - d);
            }
            let stats = ws.advance_chunk(path.len(), 0, &siblings, 0);
            let expect = scalar_chunk(&source, &path, &siblings, w);
            for (c, col) in expect.iter().enumerate() {
                prop_assert_eq!(
                    stats.last[c],
                    col[source.len()],
                    "lane {} last", c
                );
                prop_assert_eq!(
                    stats.bound[c],
                    banded_min(source.len(), col, 0, w),
                    "lane {} bound", c
                );
            }
            let expected_cells =
                ((path.len() + siblings.len()) * (source.len() + 1)) as u64;
            prop_assert_eq!(ws.take_cells(), expected_cells);
        }

        /// The banded bound is admissible: it never exceeds the true final
        /// distance of *any* completion of the prefix, for any remaining
        /// length — pruning on it cannot drop a reachable structure.
        #[test]
        fn band_bound_is_admissible(
            source in arb_toks(0, 14),
            prefix in arb_toks(1, 6),
            suffix in arb_toks(0, 6),
        ) {
            let w = Weights::PAPER;
            let rem = suffix.len();
            let target_len = prefix.len() + rem;
            let mut ws = match SoaWorkspace::new(&source, w, target_len) {
                Some(ws) => ws,
                None => return Err(TestCaseError::fail("small query must fit u16")),
            };
            let mut bound = 0;
            for (d, &t) in prefix.iter().enumerate() {
                let stats = ws.advance_chunk(d, 0, &[t], target_len - (d + 1));
                bound = stats.bound[0];
            }
            let full: Vec<StructTokId> =
                prefix.iter().chain(suffix.iter()).copied().collect();
            let d = crate::lcs::weighted_lcs_distance(&source, &full, w);
            prop_assert!(
                bound <= d,
                "bound {} exceeds true distance {}", bound, d
            );
        }

        /// Proposition 1's bounds bracket every SoA distance, exactly as
        /// they bracket the scalar recurrence's.
        #[test]
        fn bounds_bracket_soa_outputs(
            source in arb_toks(0, 16),
            target in arb_toks(1, 12),
        ) {
            let w = Weights::PAPER;
            let mut ws = match SoaWorkspace::new(&source, w, target.len()) {
                Some(ws) => ws,
                None => return Err(TestCaseError::fail("small query must fit u16")),
            };
            let mut last = ChunkStats { last: [0; SOA_LANES], bound: [0; SOA_LANES] };
            for (d, &t) in target.iter().enumerate() {
                last = ws.advance_chunk(d, 0, &[t], target.len() - (d + 1));
            }
            let d = last.last[0];
            prop_assert!(d >= crate::bounds::lower_bound(source.len(), target.len(), w));
            prop_assert!(d <= crate::bounds::upper_bound(source.len(), target.len(), w));
            prop_assert_eq!(
                d,
                crate::lcs::weighted_lcs_distance(&source, &target, w)
            );
        }
    }

    proptest! {
        /// `u16` and `u32` lanes compute the same columns: along a random
        /// root path that descends through a random lane of each sibling
        /// chunk, every chunk advance returns identical `ChunkStats`, and
        /// both workspaces count identical cells.
        #[test]
        fn u16_and_u32_lanes_agree(
            source in arb_toks(0, 20),
            steps in prop::collection::vec((arb_toks(1, SOA_LANES + 1), 0..SOA_LANES), 1..8),
        ) {
            let w = Weights::PAPER;
            let mut narrow = match SoaWorkspace::new(&source, w, steps.len()) {
                Some(ws) => ws,
                None => return Err(TestCaseError::fail("small query must fit u16")),
            };
            let mut wide = SoaWorkspace::wide(&source, w, steps.len());
            let mut lane = 0;
            for (d, (siblings, pick)) in steps.iter().enumerate() {
                let rem = steps.len() - (d + 1);
                prop_assert_eq!(
                    narrow.advance_chunk(d, lane, siblings, rem),
                    wide.advance_chunk(d, lane, siblings, rem),
                    "depth {}", d
                );
                lane = pick % siblings.len();
            }
            prop_assert_eq!(narrow.take_cells(), wide.take_cells());
        }

        /// `u32` lanes hold weights no `u16` lane can: with a keyword
        /// weight past `u16::MAX`, every lane still equals the scalar
        /// recurrence's last cell and banded bound.
        #[test]
        fn wide_lanes_match_scalar_past_u16_weights(
            source in arb_toks(0, 16),
            path in arb_toks(0, 6),
            siblings in arb_toks(1, SOA_LANES + 1),
        ) {
            let w = Weights { keyword: 70_000, ..Weights::PAPER };
            prop_assert!(SoaWorkspace::new(&source, w, path.len() + 1).is_none());
            let mut ws = SoaWorkspace::wide(&source, w, path.len() + 1);
            for (d, &t) in path.iter().enumerate() {
                ws.advance_chunk(d, 0, &[t], path.len() - d);
            }
            let stats = ws.advance_chunk(path.len(), 0, &siblings, 0);
            for (c, col) in scalar_chunk(&source, &path, &siblings, w).iter().enumerate() {
                prop_assert_eq!(stats.last[c], col[source.len()], "lane {} last", c);
                prop_assert_eq!(
                    stats.bound[c],
                    banded_min(source.len(), col, 0, w),
                    "lane {} bound", c
                );
            }
        }
    }

    #[test]
    fn oversized_query_is_rejected() {
        // A query whose Proposition 1 ceiling overflows u16 must not build.
        let long = vec![StructTokId::VAR; 7000];
        assert!(!SoaWorkspace::fits(long.len(), 50, Weights::PAPER));
        assert!(SoaWorkspace::new(&long, Weights::PAPER, 50).is_none());
        // The paper envelope (1024-word cap, 50-token structures) fits.
        assert!(SoaWorkspace::fits(1024, 64, Weights::PAPER));
    }

    #[test]
    fn unlowereable_weights_are_rejected() {
        let w = Weights {
            keyword: u16::MAX as Dist + 1,
            ..Weights::PAPER
        };
        assert!(!SoaWorkspace::fits(4, 4, w));
    }
}
