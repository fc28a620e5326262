//! Class-dependent token weights (paper §3.4).
//!
//! The paper observes that ASR recognizes Keywords far more reliably than
//! Literals, with SplChars in between, and therefore weighs edit operations
//! by token class: `W_K = 1.2 > W_S = 1.1 > W_L = 1.0`. "The exact weight
//! values are not that important; it is the ordering that matters."
//!
//! Weights are stored in **fixed-point tenths** (`12/11/10`) so that every
//! distance comparison is exact integer arithmetic — deterministic across
//! platforms and free of float-comparison hazards in the search engine.

use crate::soa::Lane;
use serde::{Deserialize, Serialize};
use speakql_grammar::{StructTokId, TokenClass, STRUCT_ALPHABET};

/// Fixed-point distance value, in tenths (`31` means `3.1`).
pub type Dist = u32;

/// A distance larger than any achievable one; used as the initial
/// `MinEditDist` in the search.
pub const DIST_INF: Dist = u32::MAX / 4;

/// Edit-operation weights per token class, in tenths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Weights {
    pub keyword: Dist,
    pub splchar: Dist,
    pub literal: Dist,
}

impl Weights {
    /// The paper's weights: `W_K = 1.2, W_S = 1.1, W_L = 1.0`.
    pub const PAPER: Weights = Weights {
        keyword: 12,
        splchar: 11,
        literal: 10,
    };

    /// Uniform weights (classic unweighted LCS distance), useful for
    /// ablations and for the TED accuracy metric.
    pub const UNIFORM: Weights = Weights {
        keyword: 10,
        splchar: 10,
        literal: 10,
    };

    /// Weight of a token class.
    pub fn of_class(self, class: TokenClass) -> Dist {
        match class {
            TokenClass::Keyword => self.keyword,
            TokenClass::SplChar => self.splchar,
            TokenClass::Literal => self.literal,
        }
    }

    /// Weight of an interned structure token.
    pub fn of(self, tok: StructTokId) -> Dist {
        self.of_class(tok.class())
    }

    /// The maximum of the three weights (`W_K` for the paper's ordering);
    /// used by the Proposition 1 upper bound.
    pub fn max_weight(self) -> Dist {
        self.keyword.max(self.splchar).max(self.literal)
    }

    /// The minimum of the three weights (`W_L` for the paper's ordering);
    /// used by the Proposition 1 lower bound.
    pub fn min_weight(self) -> Dist {
        self.keyword.min(self.splchar).min(self.literal)
    }
}

impl Default for Weights {
    fn default() -> Self {
        Weights::PAPER
    }
}

/// [`Weights`] lowered to a per-token-id lookup table of [`Lane`]s — the
/// representation the structure-of-arrays DP kernel consumes.
///
/// The paper's weights are exact in tenths (`12/11/10`), so they fit a `u16`
/// lane with enormous headroom; the table is indexed by the dense
/// [`StructTokId`] so the kernel's inner loop replaces the
/// `tok() → class() → match` chain with a single array load. Lowering is
/// checked: a weight that cannot round-trip through the lane exactly (for
/// `u16`, only possible for pathological ablation configurations) yields
/// `None`, and the search runs on `u32` lanes instead, which hold every
/// weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneWeights<L = u16> {
    /// `by_tok[id]` is the class weight of [`StructTokId`] `id`, in tenths.
    pub by_tok: [L; STRUCT_ALPHABET],
}

impl<L: Lane> LaneWeights<L> {
    /// Narrow `w` into the lane table, truncating: exact whenever every
    /// class weight fits the lane (always, for `u32`).
    pub(crate) fn narrow(w: Weights) -> LaneWeights<L> {
        LaneWeights {
            by_tok: std::array::from_fn(|id| L::narrow(w.of(StructTokId(id as u8)))),
        }
    }

    /// Lower `w` into the lane table; `None` if any class weight
    /// overflows the lane (the round-trip would be lossy).
    pub fn lower(w: Weights) -> Option<LaneWeights<L>> {
        let lanes = LaneWeights::narrow(w);
        (0..STRUCT_ALPHABET as u8)
            .all(|id| lanes.of(StructTokId(id)) == w.of(StructTokId(id)))
            .then_some(lanes)
    }

    /// Weight of an interned structure token, widened back to [`Dist`].
    /// Exact inverse of [`LaneWeights::lower`] for every representable
    /// weight configuration.
    pub fn of(&self, tok: StructTokId) -> Dist {
        self.by_tok[tok.0 as usize].widen()
    }
}

/// Render a fixed-point distance as its decimal form, e.g. `31 -> "3.1"`.
pub fn dist_to_string(d: Dist) -> String {
    format!("{}.{}", d / 10, d % 10)
}

/// Convert a fixed-point distance to an `f64` (for reporting only — all
/// comparisons inside the engine stay in fixed point).
pub fn dist_to_f64(d: Dist) -> f64 {
    d as f64 / 10.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_grammar::{Keyword, SplChar, StructTok};

    #[test]
    fn paper_ordering_holds() {
        let w = Weights::PAPER;
        assert!(w.keyword > w.splchar && w.splchar > w.literal);
        assert_eq!(w.max_weight(), 12);
        assert_eq!(w.min_weight(), 10);
    }

    #[test]
    fn class_weights() {
        let w = Weights::PAPER;
        assert_eq!(
            w.of(StructTokId::from_tok(StructTok::Keyword(Keyword::Select))),
            12
        );
        assert_eq!(
            w.of(StructTokId::from_tok(StructTok::SplChar(SplChar::Eq))),
            11
        );
        assert_eq!(w.of(StructTokId::VAR), 10);
    }

    #[test]
    fn rendering() {
        assert_eq!(dist_to_string(31), "3.1");
        assert_eq!(dist_to_string(0), "0.0");
        assert!((dist_to_f64(31) - 3.1).abs() < 1e-9);
    }

    /// Every token class round-trips exactly through the u16 lane table:
    /// `LaneWeights::of ∘ lower ≡ Weights::of` for every alphabet id, under
    /// both shipped weight configurations.
    #[test]
    fn lane_weights_round_trip_exactly() {
        for w in [Weights::PAPER, Weights::UNIFORM] {
            let lanes = match LaneWeights::<u16>::lower(w) {
                Some(l) => l,
                None => panic!("in-range weights must lower"),
            };
            for id in 0..STRUCT_ALPHABET as u8 {
                let tok = StructTokId(id);
                assert_eq!(lanes.of(tok), w.of(tok), "token id {id}");
                assert_eq!(lanes.of(tok), w.of_class(tok.class()), "token id {id}");
            }
        }
    }

    /// Round-trip holds for every class at the u16 boundary, and lowering
    /// refuses weights that would truncate.
    #[test]
    fn lane_weights_boundary_and_overflow() {
        let max_fit = Weights {
            keyword: u16::MAX as Dist,
            splchar: 1,
            literal: 0,
        };
        let lanes = match LaneWeights::<u16>::lower(max_fit) {
            Some(l) => l,
            None => panic!("u16::MAX still fits a lane"),
        };
        assert_eq!(
            lanes.of(StructTokId::from_tok(StructTok::Keyword(Keyword::Select))),
            u16::MAX as Dist
        );
        assert_eq!(lanes.of(StructTokId::VAR), 0);
        for overflowing in [
            Weights {
                keyword: u16::MAX as Dist + 1,
                ..Weights::PAPER
            },
            Weights {
                splchar: Dist::MAX,
                ..Weights::PAPER
            },
            Weights {
                literal: u16::MAX as Dist + 1,
                ..Weights::PAPER
            },
        ] {
            assert_eq!(
                LaneWeights::<u16>::lower(overflowing),
                None,
                "{overflowing:?}"
            );
        }
    }
}
