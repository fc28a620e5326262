//! The Structure Generator (paper §3.2).
//!
//! This offline component uses the production rules of the grammar (Box 1)
//! recursively to enumerate ground-truth SQL structures. The paper restricts
//! strings to a maximum of 50 tokens, producing "roughly 1.6M" structures;
//! unrestricted enumeration of Box 1 is super-exponential, so — like the
//! paper — we bound the recursion with per-clause caps exposed in
//! [`GeneratorConfig`] plus an overall structure-count cap applied in
//! increasing length order.
//!
//! Two grammar extensions beyond the literal Box 1 text are required by the
//! paper's own workload (Table 6) and are documented in DESIGN.md:
//!
//! 1. `NATURAL JOIN` connectors in the FROM clause (Q2, Q4, Q7, Q10, Q11 all
//!    use it; `NATURAL JOIN` is in `KeywordDict` but missing from Box 1).
//! 2. Standalone `GROUP BY` / `ORDER BY` / `LIMIT` tails without a WHERE
//!    clause (Q6, Q11).

use crate::structure::{Placeholder, StructTok, Structure};
use crate::token::{Keyword, SplChar};
use rand::Rng;

/// The paper's Box 1 production rules, for reference and documentation.
pub const BOX1_GRAMMAR: &str = r#"
Q   -> S F | S F W
S   -> SEL LST | SEL L C | SEL SEL_OP BP L EP | SEL SEL_OP BP L EP C
     | SEL CNT BP ST EP | SEL CNT BP ST EP C
C   -> COM L | C COM L | COM SEL_OP BP L EP | C COM SEL_OP BP L EP
CF  -> COM L | CF COM L
F   -> FRO L | FRO L CF
W   -> WHE WD | WHE AGG
WD  -> EXP | EXP AN WD | EXP OR WD
EXP -> L OP L | WDD OP L | WDD OP WDD | L OP WDD
WDD -> L DO L
AGG -> WD CLS L | WD CLS WDD | WD LMT L | L BTW L AN L
     | L NT BTW L AN L | L IN BP L EP | L IN BP L CS EP
CS  -> COM L | CS COM L
CLS -> ODB1 ODB2 | GRP1 ODB2
LST -> L | ST
"#;

/// Caps bounding the recursive enumeration (and random sampling) of the CFG.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Maximum tokens per structure (paper: 50).
    pub max_tokens: usize,
    /// Maximum items in the SELECT list.
    pub max_select_items: usize,
    /// Maximum tables in the FROM clause.
    pub max_tables: usize,
    /// Maximum predicates in a WHERE conjunction/disjunction chain.
    pub max_predicates: usize,
    /// Maximum values in an `IN ( ... )` list.
    pub max_in_list: usize,
    /// Keep at most this many structures, preferring shorter ones
    /// (deterministic: sorted by `(len, tokens)`). `None` keeps everything.
    pub max_structures: Option<usize>,
}

impl GeneratorConfig {
    /// Configuration matching the paper's scale: ≲1.6 M structures of at
    /// most 50 tokens.
    pub fn paper() -> Self {
        GeneratorConfig {
            max_tokens: 50,
            max_select_items: 3,
            max_tables: 3,
            max_predicates: 2,
            max_in_list: 5,
            max_structures: Some(1_600_000),
        }
    }

    /// A medium-scale configuration for experiments on commodity CI
    /// hardware; preserves all structural phenomena at ~1/8 the size.
    pub fn medium() -> Self {
        GeneratorConfig {
            max_structures: Some(200_000),
            ..GeneratorConfig::paper()
        }
    }

    /// A small configuration for unit tests.
    pub fn small() -> Self {
        GeneratorConfig {
            max_tokens: 30,
            max_select_items: 2,
            max_tables: 2,
            max_predicates: 2,
            max_in_list: 3,
            max_structures: Some(20_000),
        }
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig::paper()
    }
}

/// Which clause a structure fragment belongs to; used for clause-level
/// dictation (paper §5: users may dictate only the SELECT or WHERE clause).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClauseKind {
    Select,
    From,
    Where,
    /// Standalone GROUP BY / ORDER BY / LIMIT tail.
    Tail,
}

/// A partially-built structure: tokens plus placeholder metadata with
/// *fragment-relative* governor indices.
#[derive(Debug, Clone, Default)]
struct Frag {
    toks: Vec<StructTok>,
    phs: Vec<Placeholder>,
}

impl Frag {
    fn new() -> Frag {
        Frag::default()
    }

    fn kw(mut self, k: Keyword) -> Frag {
        self.toks.push(StructTok::Keyword(k));
        self
    }

    fn sc(mut self, c: SplChar) -> Frag {
        self.toks.push(StructTok::SplChar(c));
        self
    }

    fn var(mut self, ph: Placeholder) -> Frag {
        self.toks.push(StructTok::Var);
        self.phs.push(ph);
        self
    }

    /// Append `other`, shifting its governor indices.
    fn append(&mut self, other: &Frag) {
        let off = self.phs.len() as u16;
        self.toks.extend_from_slice(&other.toks);
        self.phs.extend(other.phs.iter().map(|p| Placeholder {
            category: p.category,
            governor: p.governor.map(|g| g + off),
        }));
    }

    fn concat(&self, other: &Frag) -> Frag {
        let mut out = self.clone();
        out.append(other);
        out
    }

    fn len(&self) -> usize {
        self.toks.len()
    }

    fn into_structure(self) -> Structure {
        Structure::new(self.toks, self.phs)
    }
}

/// `L` as an attribute reference.
fn attr_frag() -> Frag {
    Frag::new().var(Placeholder::attribute())
}

/// `WDD -> L DO L` : a dotted `table.attribute` reference.
fn wdd_frag() -> Frag {
    Frag::new()
        .var(Placeholder::table())
        .sc(SplChar::Dot)
        .var(Placeholder::attribute())
}

const COMPARISON_OPS: [SplChar; 3] = [SplChar::Eq, SplChar::Lt, SplChar::Gt];
const AGG_OPS: [Keyword; 5] = [
    Keyword::Avg,
    Keyword::Sum,
    Keyword::Max,
    Keyword::Min,
    Keyword::Count,
];

/// All SELECT-item variants: `L`, `SEL_OP ( L )`, `COUNT ( * )`.
fn select_item_variants() -> Vec<Frag> {
    let mut items = vec![attr_frag()];
    for op in AGG_OPS {
        items.push(
            Frag::new()
                .kw(op)
                .sc(SplChar::LParen)
                .var(Placeholder::attribute())
                .sc(SplChar::RParen),
        );
    }
    items.push(
        Frag::new()
            .kw(Keyword::Count)
            .sc(SplChar::LParen)
            .sc(SplChar::Star)
            .sc(SplChar::RParen),
    );
    items
}

/// All SELECT-clause variants up to `max_select_items` items, plus `SELECT *`.
fn select_variants(cfg: &GeneratorConfig) -> Vec<Frag> {
    let items = select_item_variants();
    let sel = Frag::new().kw(Keyword::Select);
    let mut out = vec![sel.clone().sc(SplChar::Star)];
    // lists[n] = all comma-joined lists of exactly n items
    let mut current: Vec<Frag> = items.clone();
    for n in 1..=cfg.max_select_items {
        for list in &current {
            out.push(sel.concat(list));
        }
        if n == cfg.max_select_items {
            break;
        }
        let mut next = Vec::with_capacity(current.len() * items.len());
        for list in &current {
            for item in &items {
                let mut f = list.clone();
                f.toks.push(StructTok::SplChar(SplChar::Comma));
                f.append(item);
                next.push(f);
            }
        }
        current = next;
    }
    out
}

/// All FROM-clause variants: 1..=max_tables tables joined by `,` or
/// `NATURAL JOIN` (grammar extension 1).
fn from_variants(cfg: &GeneratorConfig) -> Vec<Frag> {
    let table = Frag::new().var(Placeholder::table());
    let mut out = Vec::new();
    let mut current = vec![Frag::new().kw(Keyword::From).concat(&table)];
    for n in 1..=cfg.max_tables {
        out.extend(current.iter().cloned());
        if n == cfg.max_tables {
            break;
        }
        let mut next = Vec::with_capacity(current.len() * 2);
        for f in &current {
            let mut comma = f.clone();
            comma.toks.push(StructTok::SplChar(SplChar::Comma));
            comma.append(&table);
            next.push(comma);
            let mut nj = f.clone();
            nj.toks.push(StructTok::Keyword(Keyword::Natural));
            nj.toks.push(StructTok::Keyword(Keyword::Join));
            nj.append(&table);
            next.push(nj);
        }
        current = next;
    }
    out
}

/// All `EXP` variants: `{L, WDD} OP {L(value), WDD}` with `OP ∈ {=, <, >}`.
fn exp_variants() -> Vec<Frag> {
    let mut out = Vec::new();
    for lhs_dotted in [false, true] {
        for op in COMPARISON_OPS {
            for rhs_dotted in [false, true] {
                let lhs = if lhs_dotted { wdd_frag() } else { attr_frag() };
                // The governing attribute is the last placeholder of the lhs.
                // The index is EXP-relative; `append` shifts it when the EXP
                // is embedded in a larger fragment.
                let gov = (lhs.phs.len() - 1) as u16;
                let mut f = lhs.sc(op);
                if rhs_dotted {
                    f.append(&wdd_frag());
                } else {
                    f = f.var(Placeholder::value(Some(gov)));
                }
                out.push(f);
            }
        }
    }
    out
}

/// All `WD` variants: 1..=max_predicates EXPs joined by AND/OR.
fn wd_variants(cfg: &GeneratorConfig) -> Vec<Frag> {
    let exps = exp_variants();
    let mut out = Vec::new();
    let mut current = exps.clone();
    for n in 1..=cfg.max_predicates {
        out.extend(current.iter().cloned());
        if n == cfg.max_predicates {
            break;
        }
        let mut next = Vec::with_capacity(current.len() * 2 * exps.len());
        for f in &current {
            for conn in [Keyword::And, Keyword::Or] {
                for e in &exps {
                    let mut g = f.clone();
                    g.toks.push(StructTok::Keyword(conn));
                    g.append(e);
                    next.push(g);
                }
            }
        }
        current = next;
    }
    out
}

/// The `CLS` targets: `ORDER BY {L|WDD}` and `GROUP BY {L|WDD}`.
fn cls_variants() -> Vec<Frag> {
    let mut out = Vec::new();
    for (k1, k2) in [(Keyword::Order, Keyword::By), (Keyword::Group, Keyword::By)] {
        for target in [attr_frag(), wdd_frag()] {
            out.push(Frag::new().kw(k1).kw(k2).concat(&target));
        }
    }
    out
}

/// `LIMIT n`.
fn limit_frag() -> Frag {
    Frag::new().kw(Keyword::Limit).var(Placeholder::number())
}

/// `BETWEEN` / `NOT BETWEEN` / `IN ( ... )` forms (within `AGG`).
fn range_variants(cfg: &GeneratorConfig) -> Vec<Frag> {
    let mut out = Vec::new();
    for negate in [false, true] {
        let mut f = attr_frag();
        if negate {
            f.toks.push(StructTok::Keyword(Keyword::Not));
        }
        f.toks.push(StructTok::Keyword(Keyword::Between));
        f = f.var(Placeholder::value(Some(0)));
        f.toks.push(StructTok::Keyword(Keyword::And));
        f = f.var(Placeholder::value(Some(0)));
        out.push(f);
    }
    for n in 1..=cfg.max_in_list {
        let mut f = attr_frag().kw(Keyword::In).sc(SplChar::LParen);
        for i in 0..n {
            if i > 0 {
                f.toks.push(StructTok::SplChar(SplChar::Comma));
            }
            f = f.var(Placeholder::value(Some(0)));
        }
        f.toks.push(StructTok::SplChar(SplChar::RParen));
        out.push(f);
    }
    out
}

/// All WHERE-clause variants: `WHERE (WD | AGG)`.
fn where_variants(cfg: &GeneratorConfig) -> Vec<Frag> {
    let whe = Frag::new().kw(Keyword::Where);
    let wds = wd_variants(cfg);
    let clss = cls_variants();
    let mut out = Vec::new();
    for wd in &wds {
        out.push(whe.concat(wd));
        for cls in &clss {
            out.push(whe.concat(wd).concat(cls));
        }
        out.push(whe.concat(wd).concat(&limit_frag()));
    }
    for r in range_variants(cfg) {
        out.push(whe.concat(&r));
    }
    out
}

/// Standalone tails (grammar extension 2): `ORDER BY …`, `GROUP BY …`,
/// `LIMIT n` without a WHERE clause.
fn tail_variants() -> Vec<Frag> {
    let mut out = cls_variants();
    out.push(limit_frag());
    out
}

/// Enumerate all ground-truth structures under `cfg` (paper §3.2).
///
/// Deterministic: the result is sorted by `(token length, token sequence)`
/// and truncated to `cfg.max_structures` preferring shorter structures, like
/// the paper's 50-token cutoff prefers the compact core of the language.
pub fn generate_structures(cfg: &GeneratorConfig) -> Vec<Structure> {
    let selects = select_variants(cfg);
    let froms = from_variants(cfg);
    let wheres = where_variants(cfg);
    let tails = tail_variants();

    let mut out: Vec<Structure> = Vec::new();
    for s in &selects {
        for f in &froms {
            let base = s.concat(f);
            if base.len() <= cfg.max_tokens {
                out.push(base.clone().into_structure());
            }
            for w in &wheres {
                if base.len() + w.len() <= cfg.max_tokens {
                    out.push(base.concat(w).into_structure());
                }
            }
            for t in &tails {
                if base.len() + t.len() <= cfg.max_tokens {
                    out.push(base.concat(t).into_structure());
                }
            }
        }
    }
    out.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.tokens.cmp(&b.tokens)));
    if let Some(cap) = cfg.max_structures {
        out.truncate(cap);
    }
    out
}

/// Enumerate per-clause structures for clause-level dictation (paper §5).
pub fn generate_clause_structures(cfg: &GeneratorConfig, clause: ClauseKind) -> Vec<Structure> {
    let frags = match clause {
        ClauseKind::Select => select_variants(cfg),
        ClauseKind::From => from_variants(cfg),
        ClauseKind::Where => where_variants(cfg),
        ClauseKind::Tail => tail_variants(),
    };
    let mut out: Vec<Structure> = frags
        .into_iter()
        .filter(|f| f.len() <= cfg.max_tokens)
        .map(Frag::into_structure)
        .collect();
    out.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.tokens.cmp(&b.tokens)));
    out
}

/// Random derivation of a single structure, used by the paper's dataset
/// generation procedure (§6.1 step 2). Sampling respects the same caps as
/// enumeration, so sampled structures lie in the enumerated space (up to the
/// `max_structures` truncation).
pub fn sample_structure<R: Rng + ?Sized>(cfg: &GeneratorConfig, rng: &mut R) -> Structure {
    // Rejection-sample: derivations are cheap, and retrying keeps samples
    // inside the enumeration's token cap. Tiny caps (< 30) may be
    // unsatisfiable by any derivation, so give up after 64 attempts and
    // return the shortest candidate seen.
    let mut best = sample_structure_once(cfg, rng);
    for _ in 1..64 {
        if best.tokens.len() <= cfg.max_tokens {
            return best;
        }
        let s = sample_structure_once(cfg, rng);
        if s.tokens.len() < best.tokens.len() {
            best = s;
        }
    }
    best
}

fn sample_structure_once<R: Rng + ?Sized>(cfg: &GeneratorConfig, rng: &mut R) -> Structure {
    let items = select_item_variants();
    // SELECT clause
    let mut q = Frag::new().kw(Keyword::Select);
    if rng.gen_bool(0.08) {
        q = q.sc(SplChar::Star);
    } else {
        let n_items =
            weighted_choice(rng, &[(1usize, 55), (2, 30), (3, 15)]).min(cfg.max_select_items);
        for i in 0..n_items {
            if i > 0 {
                q.toks.push(StructTok::SplChar(SplChar::Comma));
            }
            let item = &items[rng.gen_range(0..items.len())];
            q.append(item);
        }
    }
    // FROM clause
    q.toks.push(StructTok::Keyword(Keyword::From));
    let n_tables = weighted_choice(rng, &[(1usize, 50), (2, 35), (3, 15)]).min(cfg.max_tables);
    for i in 0..n_tables {
        if i > 0 {
            if rng.gen_bool(0.6) {
                q.toks.push(StructTok::Keyword(Keyword::Natural));
                q.toks.push(StructTok::Keyword(Keyword::Join));
            } else {
                q.toks.push(StructTok::SplChar(SplChar::Comma));
            }
        }
        q = q.var(Placeholder::table());
    }
    // WHERE clause / tails
    if rng.gen_bool(0.75) {
        q.toks.push(StructTok::Keyword(Keyword::Where));
        let pick: f64 = rng.gen();
        if pick < 0.05 {
            // BETWEEN / NOT BETWEEN
            let negate = rng.gen_bool(0.3);
            let gov = q.phs.len() as u16;
            q = q.var(Placeholder::attribute());
            if negate {
                q.toks.push(StructTok::Keyword(Keyword::Not));
            }
            q.toks.push(StructTok::Keyword(Keyword::Between));
            q = q.var(Placeholder::value(Some(gov)));
            q.toks.push(StructTok::Keyword(Keyword::And));
            q = q.var(Placeholder::value(Some(gov)));
        } else if pick < 0.13 {
            // IN list
            let gov = q.phs.len() as u16;
            q = q
                .var(Placeholder::attribute())
                .kw(Keyword::In)
                .sc(SplChar::LParen);
            let n = rng.gen_range(1..=cfg.max_in_list);
            for i in 0..n {
                if i > 0 {
                    q.toks.push(StructTok::SplChar(SplChar::Comma));
                }
                q = q.var(Placeholder::value(Some(gov)));
            }
            q = q.sc(SplChar::RParen);
        } else {
            // predicate chain
            let n_preds = weighted_choice(rng, &[(1usize, 70), (2, 30)]).min(cfg.max_predicates);
            for i in 0..n_preds {
                if i > 0 {
                    let conn = if rng.gen_bool(0.6) {
                        Keyword::And
                    } else {
                        Keyword::Or
                    };
                    q.toks.push(StructTok::Keyword(conn));
                }
                q.append(&sample_exp(rng));
            }
            // optional CLS / LIMIT tail
            let tail: f64 = rng.gen();
            if tail < 0.12 {
                q = append_cls(q, rng, Keyword::Order);
            } else if tail < 0.24 {
                q = append_cls(q, rng, Keyword::Group);
            } else if tail < 0.30 {
                q = q.kw(Keyword::Limit).var(Placeholder::number());
            }
        }
    } else if rng.gen_bool(0.3) {
        let tail: f64 = rng.gen();
        if tail < 0.4 {
            q = append_cls(q, rng, Keyword::Order);
        } else if tail < 0.8 {
            q = append_cls(q, rng, Keyword::Group);
        } else {
            q = q.kw(Keyword::Limit).var(Placeholder::number());
        }
    }
    q.into_structure()
}

fn sample_exp<R: Rng + ?Sized>(rng: &mut R) -> Frag {
    let exps = exp_variants();
    // Weight plain `attr OP value` higher, matching typical queries.
    let idx = if rng.gen_bool(0.6) {
        // lhs plain, rhs value: variants 0..3 step by rhs_dotted=false
        let op = rng.gen_range(0..3usize);
        op * 2 // (lhs plain block: indices 0,2,4 are rhs plain)
    } else {
        rng.gen_range(0..exps.len())
    };
    exps[idx].clone()
}

fn append_cls<R: Rng + ?Sized>(mut q: Frag, rng: &mut R, kind: Keyword) -> Frag {
    q.toks.push(StructTok::Keyword(kind));
    q.toks.push(StructTok::Keyword(Keyword::By));
    if rng.gen_bool(0.8) {
        q.var(Placeholder::attribute())
    } else {
        q.append(&wdd_frag());
        q
    }
}

fn weighted_choice<R: Rng + ?Sized, T: Copy>(rng: &mut R, choices: &[(T, u32)]) -> T {
    let total: u32 = choices.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen_range(0..total);
    for (value, w) in choices {
        if pick < *w {
            return *value;
        }
        pick -= w;
    }
    choices[choices.len() - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{LitCategory, StructTokId};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn exp_variant_count_matches_grammar() {
        // 2 lhs forms × 3 ops × 2 rhs forms = 12 (paper grammar line 8)
        assert_eq!(exp_variants().len(), 12);
    }

    #[test]
    fn small_generation_is_deterministic_and_sorted() {
        let cfg = GeneratorConfig::small();
        let a = generate_structures(&cfg);
        let b = generate_structures(&cfg);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
        assert!(!a.is_empty());
    }

    #[test]
    fn running_example_structure_is_generated() {
        let cfg = GeneratorConfig::small();
        let structures = generate_structures(&cfg);
        let want = "SELECT x1 FROM x2 WHERE x3 = x4";
        assert!(
            structures.iter().any(|s| s.render() == want),
            "running example must be in the structure space"
        );
    }

    #[test]
    fn select_star_is_generated() {
        let cfg = GeneratorConfig::small();
        let structures = generate_structures(&cfg);
        assert!(structures.iter().any(|s| s.render() == "SELECT * FROM x1"));
    }

    #[test]
    fn natural_join_structures_exist() {
        let cfg = GeneratorConfig::small();
        let structures = generate_structures(&cfg);
        assert!(structures
            .iter()
            .any(|s| s.render() == "SELECT x1 FROM x2 NATURAL JOIN x3"));
    }

    #[test]
    fn standalone_group_by_exists() {
        // Table 6 Q6 requires GROUP BY without WHERE.
        let cfg = GeneratorConfig::small();
        let structures = generate_structures(&cfg);
        assert!(structures
            .iter()
            .any(|s| s.render() == "SELECT x1 FROM x2 GROUP BY x3"));
    }

    #[test]
    fn placeholder_categories_of_running_example() {
        let cfg = GeneratorConfig::small();
        let structures = generate_structures(&cfg);
        let Some(s) = structures
            .iter()
            .find(|s| s.render() == "SELECT x1 FROM x2 WHERE x3 = x4")
        else {
            panic!("the running example is in the small space");
        };
        let cats: Vec<char> = s.placeholders.iter().map(|p| p.category.code()).collect();
        assert_eq!(cats, vec!['A', 'T', 'A', 'V']);
        // The value x4 is governed by the attribute x3 (index 2).
        assert_eq!(s.placeholders[3].governor, Some(2));
    }

    #[test]
    fn respects_token_cap() {
        let cfg = GeneratorConfig {
            max_tokens: 8,
            ..GeneratorConfig::small()
        };
        for s in generate_structures(&cfg) {
            assert!(s.len() <= 8);
        }
    }

    #[test]
    fn respects_structure_cap() {
        let cfg = GeneratorConfig {
            max_structures: Some(100),
            ..GeneratorConfig::small()
        };
        assert_eq!(generate_structures(&cfg).len(), 100);
    }

    #[test]
    fn no_duplicate_structures() {
        let cfg = GeneratorConfig::small();
        let structures = generate_structures(&cfg);
        let mut seen = std::collections::HashSet::new();
        for s in &structures {
            assert!(seen.insert(s.tokens.clone()), "duplicate: {}", s.render());
        }
    }

    #[test]
    fn sampled_structures_are_well_formed() {
        let cfg = GeneratorConfig::paper();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..500 {
            let s = sample_structure(&cfg, &mut rng);
            assert!(s.len() <= cfg.max_tokens);
            assert!(s.tokens[0] == StructTokId::from_tok(StructTok::Keyword(Keyword::Select)));
            // Every governor points at an earlier attribute placeholder.
            for p in &s.placeholders {
                if let Some(g) = p.governor {
                    assert_eq!(s.placeholders[g as usize].category, LitCategory::Attribute);
                }
            }
        }
    }

    #[test]
    fn clause_structures_nonempty() {
        let cfg = GeneratorConfig::small();
        for kind in [
            ClauseKind::Select,
            ClauseKind::From,
            ClauseKind::Where,
            ClauseKind::Tail,
        ] {
            assert!(!generate_clause_structures(&cfg, kind).is_empty());
        }
    }
}
