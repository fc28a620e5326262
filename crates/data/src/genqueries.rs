//! The paper's dataset-generation procedure (§6.1):
//!
//! 1. sample a random structure from the SQL subset's CFG,
//! 2. identify each placeholder's category (done by the generator itself),
//! 3. bind table names, then attribute names, then attribute values, drawn
//!    from the target database,
//! 4. repeat until the requested number of queries is produced.
//!
//! The procedure applies to any schema where table names, attribute names,
//! and attribute values are pluggable — exactly the paper's claim.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use speakql_db::{Database, Value};
use speakql_grammar::{
    sample_structure, GeneratorConfig, LitCategory, SplChar, StructTok, Structure,
};

/// One generated spoken-SQL case: ground truth text, structure, literals.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCase {
    pub id: usize,
    /// Canonical ground-truth SQL text (space-separated tokens).
    pub sql: String,
    /// The ground-truth masked structure.
    pub structure: Structure,
    /// The bound literal strings, one per placeholder, rendered as they
    /// appear in `sql` (values quoted).
    pub literals: Vec<String>,
}

/// Bind literals into a structure using the database catalog. Returns `None`
/// if the structure cannot be sensibly bound (e.g. a table placeholder but
/// the database is empty).
pub fn bind_structure<R: Rng + ?Sized>(
    db: &Database,
    s: &Structure,
    rng: &mut R,
) -> Option<Vec<String>> {
    let tables = db.table_names();
    if tables.is_empty() {
        return None;
    }
    let n_ph = s.var_count();
    let mut literals: Vec<Option<String>> = vec![None; n_ph];

    // Classify table placeholders: a Var followed by `.` is the table of a
    // dotted reference; other Table placeholders are FROM entries.
    let positions: Vec<(usize, usize)> = s.var_positions().collect();
    let dotted: Vec<bool> = positions
        .iter()
        .map(|&(pos, _)| {
            matches!(
                s.tokens.get(pos + 1).map(|t| t.tok()),
                Some(StructTok::SplChar(SplChar::Dot))
            )
        })
        .collect();

    // --- 1. FROM tables -----------------------------------------------------
    let mut from_tables: Vec<String> = Vec::new();
    for (ph_idx, ph) in s.placeholders.iter().enumerate() {
        if ph.category == LitCategory::Table && !dotted[ph_idx] {
            let pick = if from_tables.is_empty() {
                tables[rng.gen_range(0..tables.len())].clone()
            } else {
                // Prefer a table sharing a column with an already-bound one
                // (natural joins are then non-degenerate).
                let prev = &from_tables[from_tables.len() - 1];
                let shared: Vec<String> = db
                    .attributes_of(prev)
                    .iter()
                    .flat_map(|a| db.tables_with_attribute(a))
                    .filter(|t| !from_tables.contains(t))
                    .collect();
                if !shared.is_empty() {
                    shared[rng.gen_range(0..shared.len())].clone()
                } else {
                    tables[rng.gen_range(0..tables.len())].clone()
                }
            };
            from_tables.push(pick.clone());
            literals[ph_idx] = Some(pick);
        }
    }
    if from_tables.is_empty() {
        // A structure with no FROM table cannot come from our grammar.
        return None;
    }

    // Attribute pool: columns of the FROM tables.
    let mut attr_pool: Vec<(String, String)> = Vec::new(); // (table, column)
    for t in &from_tables {
        for a in db.attributes_of(t) {
            attr_pool.push((t.clone(), a));
        }
    }
    if attr_pool.is_empty() {
        return None;
    }

    // --- 2. dotted tables + attributes --------------------------------------
    // Walk dotted pairs: Table placeholder then (after the Dot) an Attribute
    // placeholder; bind both coherently from the pool.
    for (ph_idx, ph) in s.placeholders.iter().enumerate() {
        if ph.category == LitCategory::Table && dotted[ph_idx] {
            let (t, a) = attr_pool[rng.gen_range(0..attr_pool.len())].clone();
            literals[ph_idx] = Some(t);
            // The very next placeholder is the attribute of this reference.
            if let Some(slot) = literals.get_mut(ph_idx + 1) {
                *slot = Some(a);
            }
        }
    }
    for (ph_idx, ph) in s.placeholders.iter().enumerate() {
        if ph.category == LitCategory::Attribute && literals[ph_idx].is_none() {
            let (_, a) = &attr_pool[rng.gen_range(0..attr_pool.len())];
            literals[ph_idx] = Some(a.clone());
        }
    }

    // --- 3. values ------------------------------------------------------------
    for (ph_idx, ph) in s.placeholders.iter().enumerate() {
        match ph.category {
            LitCategory::Number => {
                literals[ph_idx] = Some(rng.gen_range(1..=100u32).to_string());
            }
            LitCategory::Value => {
                let governed_attr = ph
                    .governor
                    .and_then(|g| literals.get(g as usize).cloned().flatten());
                let candidates: Vec<Value> = governed_attr
                    .as_deref()
                    .map(|a| db.attribute_values(a))
                    .unwrap_or_default();
                let v = if candidates.is_empty() {
                    Value::Int(rng.gen_range(1..100_000i64))
                } else {
                    candidates[rng.gen_range(0..candidates.len())].clone()
                };
                literals[ph_idx] = Some(v.render_sql());
            }
            _ => {}
        }
    }

    literals.into_iter().collect()
}

/// Generate `n` query cases from `db` under the grammar caps, deterministic
/// in `seed`.
pub fn generate_cases(db: &Database, cfg: &GeneratorConfig, n: usize, seed: u64) -> Vec<QueryCase> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut cases = Vec::with_capacity(n);
    while cases.len() < n {
        let s = sample_structure(cfg, &mut rng);
        if let Some(literals) = bind_structure(db, &s, &mut rng) {
            let tokens = s.bind(&literals);
            let sql = speakql_grammar::render_tokens(&tokens);
            cases.push(QueryCase {
                id: cases.len(),
                sql,
                structure: s,
                literals,
            });
        }
    }
    cases
}

/// Generate one-level nested queries (paper App. F.8 / Fig. 18):
/// `SELECT a1 FROM t1 WHERE k IN ( SELECT k FROM t2 WHERE a2 = v )`, with
/// `k` a column shared by both tables so the nesting is semantically
/// meaningful.
pub fn generate_nested_cases(db: &Database, n: usize, seed: u64) -> Vec<QueryCase> {
    use speakql_grammar::{Keyword, Placeholder, StructTok};
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let tables = db.table_names();
    let mut attempts = 0usize;
    while out.len() < n && attempts < n * 100 {
        attempts += 1;
        let t1 = tables[rng.gen_range(0..tables.len())].clone();
        // A table sharing a column with t1.
        let shared: Vec<(String, String)> = db
            .attributes_of(&t1)
            .into_iter()
            .flat_map(|a| {
                db.tables_with_attribute(&a)
                    .into_iter()
                    .filter(|t2| !t2.eq_ignore_ascii_case(&t1))
                    .map(move |t2| (t2, a.clone()))
            })
            .collect();
        if shared.is_empty() {
            continue;
        }
        let (t2, k) = shared[rng.gen_range(0..shared.len())].clone();
        let a1_pool = db.attributes_of(&t1);
        let a1 = a1_pool[rng.gen_range(0..a1_pool.len())].clone();
        let a2_pool: Vec<String> = db
            .attributes_of(&t2)
            .into_iter()
            .filter(|a| !db.attribute_values(a).is_empty())
            .collect();
        if a2_pool.is_empty() {
            continue;
        }
        let a2 = a2_pool[rng.gen_range(0..a2_pool.len())].clone();
        let domain = db.attribute_values(&a2);
        let v = domain[rng.gen_range(0..domain.len())].render_sql();

        let tokens = vec![
            StructTok::Keyword(Keyword::Select),
            StructTok::Var,
            StructTok::Keyword(Keyword::From),
            StructTok::Var,
            StructTok::Keyword(Keyword::Where),
            StructTok::Var,
            StructTok::Keyword(Keyword::In),
            StructTok::SplChar(speakql_grammar::SplChar::LParen),
            StructTok::Keyword(Keyword::Select),
            StructTok::Var,
            StructTok::Keyword(Keyword::From),
            StructTok::Var,
            StructTok::Keyword(Keyword::Where),
            StructTok::Var,
            StructTok::SplChar(speakql_grammar::SplChar::Eq),
            StructTok::Var,
            StructTok::SplChar(speakql_grammar::SplChar::RParen),
        ];
        let placeholders = vec![
            Placeholder::attribute(),
            Placeholder::table(),
            Placeholder::attribute(),
            Placeholder::attribute(),
            Placeholder::table(),
            Placeholder::attribute(),
            Placeholder::value(Some(5)),
        ];
        let structure = Structure::new(tokens, placeholders);
        let literals = vec![a1, t1, k.clone(), k, t2, a2, v];
        let sql = speakql_grammar::render_tokens(&structure.bind(&literals));
        out.push(QueryCase {
            id: out.len(),
            sql,
            structure,
            literals,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::employees::employees_db;
    use crate::yelp::yelp_db;
    use speakql_grammar::{process_transcript_text, Structure as GStructure};

    #[test]
    fn nested_cases_parse_execute_and_remask() {
        let db = employees_db();
        let cases = generate_nested_cases(&db, 15, 3);
        assert_eq!(cases.len(), 15);
        for c in &cases {
            let toks = speakql_grammar::tokenize_sql(&c.sql);
            assert_eq!(GStructure::mask_of(&toks), c.structure.tokens, "{}", c.sql);
            speakql_db::execute_sql(&db, &c.sql).unwrap_or_else(|e| panic!("{}: {e}", c.sql));
        }
    }

    #[test]
    fn generates_requested_count_deterministically() {
        let db = employees_db();
        let cfg = GeneratorConfig::paper();
        let a = generate_cases(&db, &cfg, 25, 42);
        let b = generate_cases(&db, &cfg, 25, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 25);
    }

    #[test]
    fn cases_remask_to_their_structure() {
        // The ground-truth SQL, re-tokenized and masked, must reproduce the
        // ground-truth structure exactly (masking inverts binding).
        let db = employees_db();
        let cases = generate_cases(&db, &GeneratorConfig::paper(), 50, 7);
        for c in &cases {
            let p = process_transcript_text(&c.sql);
            // Quoted values containing spaces ('Senior Engineer') split into
            // several transcript words; compare through the SQL tokenizer
            // instead, which preserves quoted literals.
            let toks = speakql_grammar::tokenize_sql(&c.sql);
            assert_eq!(
                GStructure::mask_of(&toks),
                c.structure.tokens,
                "mask mismatch for {}",
                c.sql
            );
            drop(p);
        }
    }

    #[test]
    fn bound_tables_exist_in_db() {
        let db = yelp_db();
        let cases = generate_cases(&db, &GeneratorConfig::paper(), 30, 9);
        for c in &cases {
            for (ph, lit) in c.structure.placeholders.iter().zip(&c.literals) {
                if ph.category == LitCategory::Table {
                    assert!(db.table(lit).is_some(), "unknown table {lit} in {}", c.sql);
                }
            }
        }
    }

    #[test]
    fn values_come_from_governed_attribute_domain() {
        let db = employees_db();
        let cases = generate_cases(&db, &GeneratorConfig::paper(), 60, 11);
        let mut checked = 0;
        for c in &cases {
            for (ph, lit) in c.structure.placeholders.iter().zip(&c.literals) {
                if ph.category == LitCategory::Value {
                    if let Some(gov) = ph.governor {
                        let attr = &c.literals[gov as usize];
                        let domain = db.attribute_values(attr);
                        if !domain.is_empty() {
                            let Some(v) = Value::parse_literal(lit) else {
                                panic!("{lit} does not parse as a value");
                            };
                            assert!(domain.contains(&v), "{lit} not in domain of {attr}");
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 0, "no governed values exercised");
    }
}
