//! Synthetic NL/SQL pair workloads in the style of WikiSQL and Spider
//! (substitutes for the human-annotated datasets; see DESIGN.md §5).
//!
//! - **WikiSQL-style**: single table, at most one aggregate, equality/
//!   comparison conditions *with* values — execution accuracy applies.
//! - **Spider-style**: multi-table joins, aggregates, GROUP BY — and, like
//!   the Spider task, no condition values (component-match accuracy only).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use speakql_db::{Database, Value, ValueType};

/// One NL/SQL pair.
#[derive(Debug, Clone, PartialEq)]
pub struct NlSqlPair {
    pub id: usize,
    /// Typed natural-language question.
    pub nl: String,
    /// Gold SQL.
    pub sql: String,
}

/// Aggregate surface forms the NL templates use.
const AGG_WORDS: [(&str, &str); 5] = [
    ("average", "AVG"),
    ("total", "SUM"),
    ("highest", "MAX"),
    ("lowest", "MIN"),
    ("number of", "COUNT"),
];

/// Split a CamelCase identifier into a spoken phrase ("FirstName" → "first
/// name").
pub fn phrase_of(ident: &str) -> String {
    speakql_asr::identifier_words(ident)
        .into_iter()
        .collect::<Vec<_>>()
        .join(" ")
}

/// Generate a WikiSQL-style workload over single tables of `db`.
pub fn wikisql_pairs(db: &Database, n: usize, seed: u64) -> Vec<NlSqlPair> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let tables: Vec<&speakql_db::Table> = db.tables.iter().filter(|t| !t.rows.is_empty()).collect();
    while out.len() < n {
        let table = tables[rng.gen_range(0..tables.len())];
        let cols = &table.schema.columns;
        // Condition column/value.
        let cond_idx = rng.gen_range(0..cols.len());
        let cond_col = &cols[cond_idx];
        let domain = table.distinct_values(cond_idx);
        if domain.is_empty() {
            continue;
        }
        let cond_val = domain[rng.gen_range(0..domain.len())].clone();
        // Projection: aggregate over a numeric column, or a plain column.
        let numeric: Vec<&speakql_db::Column> = cols
            .iter()
            .filter(|c| matches!(c.ty, ValueType::Int | ValueType::Float))
            .collect();
        let use_agg = !numeric.is_empty() && rng.gen_bool(0.5);
        let (select_sql, select_phrase, agg_word) = if use_agg {
            let target = numeric[rng.gen_range(0..numeric.len())];
            let (word, func) = AGG_WORDS[rng.gen_range(0..AGG_WORDS.len())];
            (
                format!("{} ( {} )", func, target.name),
                phrase_of(&target.name),
                Some(word),
            )
        } else {
            let target = &cols[rng.gen_range(0..cols.len())];
            (target.name.clone(), phrase_of(&target.name), None)
        };

        let table_phrase = phrase_of(&table.schema.name);
        let cond_phrase = phrase_of(&cond_col.name);
        let val_text = cond_val.render_bare();
        let sql = format!(
            "SELECT {select_sql} FROM {} WHERE {} = {}",
            table.schema.name,
            cond_col.name,
            cond_val.render_sql()
        );

        // Template families; the last one is deliberately "rare phrasing"
        // outside the slot-filler's anchor set.
        let template: f64 = rng.gen();
        let agg_prefix = agg_word.map(|w| format!("{w} ")).unwrap_or_default();
        let nl = if template < 0.35 {
            format!("what is the {agg_prefix}{select_phrase} of {table_phrase} where {cond_phrase} is {val_text}")
        } else if template < 0.6 {
            format!("show me the {agg_prefix}{select_phrase} from {table_phrase} whose {cond_phrase} equals {val_text}")
        } else if template < 0.8 {
            format!("find the {agg_prefix}{select_phrase} for {table_phrase} with {cond_phrase} {val_text}")
        } else if template < 0.88 {
            format!("list the {agg_prefix}{select_phrase} of {table_phrase} where {cond_phrase} is {val_text}")
        } else {
            // Rare phrasing (≈12%).
            format!("could you pull up whichever {select_phrase} the {table_phrase} records carry whenever their {cond_phrase} happens to read {val_text}")
        };
        out.push(NlSqlPair {
            id: out.len(),
            nl,
            sql,
        });
    }
    out
}

/// Generate a Spider-style workload: joins + aggregates + GROUP BY, no
/// condition values.
pub fn spider_pairs(db: &Database, n: usize, seed: u64) -> Vec<NlSqlPair> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Pick two join-compatible tables.
        let t1 = &db.tables[rng.gen_range(0..db.tables.len())];
        let shared: Vec<&speakql_db::Table> = db
            .tables
            .iter()
            .filter(|t2| {
                t2.schema.name != t1.schema.name
                    && t2
                        .schema
                        .columns
                        .iter()
                        .any(|c| t1.schema.column_index(&c.name).is_some())
            })
            .collect();
        if shared.is_empty() {
            continue;
        }
        let t2 = shared[rng.gen_range(0..shared.len())];

        let numeric: Vec<String> = [t1, t2]
            .iter()
            .flat_map(|t| t.schema.columns.iter())
            .filter(|c| matches!(c.ty, ValueType::Int | ValueType::Float))
            .map(|c| c.name.clone())
            .collect();
        let textual: Vec<String> = [t1, t2]
            .iter()
            .flat_map(|t| t.schema.columns.iter())
            .filter(|c| c.ty == ValueType::Text)
            .map(|c| c.name.clone())
            .collect();
        let (Some(agg_col), Some(group_col)) = (
            numeric
                .first()
                .map(|_| numeric[rng.gen_range(0..numeric.len())].clone()),
            textual
                .first()
                .map(|_| textual[rng.gen_range(0..textual.len())].clone()),
        ) else {
            continue;
        };
        let (agg_word, agg_func) = AGG_WORDS[rng.gen_range(0..AGG_WORDS.len())];

        let sql = format!(
            "SELECT {group_col} , {agg_func} ( {agg_col} ) FROM {} NATURAL JOIN {} GROUP BY {group_col}",
            t1.schema.name, t2.schema.name
        );
        let template: f64 = rng.gen();
        let nl = if template < 0.5 {
            format!(
                "what is the {} and {} {} for each {} of the {} joined with {}",
                phrase_of(&group_col),
                agg_word,
                phrase_of(&agg_col),
                phrase_of(&group_col),
                phrase_of(&t1.schema.name),
                phrase_of(&t2.schema.name),
            )
        } else if template < 0.85 {
            format!(
                "for each {} show the {} {} across {} and {}",
                phrase_of(&group_col),
                agg_word,
                phrase_of(&agg_col),
                phrase_of(&t1.schema.name),
                phrase_of(&t2.schema.name),
            )
        } else {
            format!(
                "break the {} {} down by {} over the combined {} {} data",
                agg_word,
                phrase_of(&agg_col),
                phrase_of(&group_col),
                phrase_of(&t1.schema.name),
                phrase_of(&t2.schema.name),
            )
        };
        out.push(NlSqlPair {
            id: out.len(),
            nl,
            sql,
        });
    }
    out
}

/// Ground a rendered bare value back into a SQL literal for a column.
pub fn value_to_sql(v: &Value) -> String {
    v.render_sql()
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_data::employees_db;
    use speakql_db::{execute_sql, parse_query};

    #[test]
    fn wikisql_pairs_are_executable() {
        let db = employees_db();
        for p in wikisql_pairs(&db, 30, 1) {
            let r = execute_sql(&db, &p.sql).unwrap_or_else(|e| panic!("{}: {e}", p.sql));
            drop(r);
            assert!(!p.nl.is_empty());
        }
    }

    #[test]
    fn spider_pairs_parse_and_execute() {
        let db = employees_db();
        for p in spider_pairs(&db, 20, 2) {
            parse_query(&p.sql).unwrap_or_else(|e| panic!("{}: {e}", p.sql));
            execute_sql(&db, &p.sql).unwrap_or_else(|e| panic!("{}: {e}", p.sql));
        }
    }

    #[test]
    fn deterministic() {
        let db = employees_db();
        assert_eq!(wikisql_pairs(&db, 10, 3), wikisql_pairs(&db, 10, 3));
        assert_eq!(spider_pairs(&db, 10, 3), spider_pairs(&db, 10, 3));
    }

    #[test]
    fn phrase_splitting() {
        assert_eq!(phrase_of("FirstName"), "first name");
        assert_eq!(phrase_of("salary"), "salary");
    }
}
