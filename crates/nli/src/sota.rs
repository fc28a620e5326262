//! A "SOTA-like" slot-filling semantic parser (stands in for SQLova /
//! IRNet; see DESIGN.md §5). It knows the anchor phrases of the common NL
//! template families and grounds the extracted slot phrases onto the schema
//! — high accuracy on typed input, but its anchors are exactly what ASR
//! noise corrupts, which is the degradation mechanism Table 5 reports.

use crate::matchers::{detect_agg, match_column, match_table, match_value};
use speakql_db::Database;

const PREFIXES: [&str; 4] = ["what is the ", "show me the ", "find the ", "list the "];
const OF_SEPS: [&str; 3] = [" of ", " from ", " for "];
const COND_SEPS: [&str; 3] = [" where ", " whose ", " with "];
const OP_SEPS: [&str; 2] = [" is ", " equals "];

/// Predict SQL for a WikiSQL-style question.
pub fn predict_wikisql(db: &Database, nl: &str) -> Option<String> {
    let lower = nl.to_lowercase();
    // Anchor 1: the question prefix.
    let rest = PREFIXES.iter().find_map(|p| lower.strip_prefix(p))?;
    // Anchor 2: the projection/table separator.
    let (select_phrase, rest) = split_once_any(rest, &OF_SEPS)?;
    // Anchor 3: the condition introduction.
    let (table_phrase, cond) = split_once_any(rest, &COND_SEPS)?;

    let (agg, col_phrase) = detect_agg(select_phrase);
    let table = match_table(db, table_phrase)?;
    let select_col = match_column(db, Some(&table), &col_phrase)?;

    // Condition: column phrase then value, split on an operator word (or
    // the last whitespace for the "with {col} {val}" family).
    let (cond_col_phrase, val_text) = split_once_any(cond, &OP_SEPS).or_else(|| {
        // The "with {col} {val}" family has no operator word: try
        // progressively longer column phrases from the left.
        let words: Vec<&str> = cond.split_whitespace().collect();
        for split in (1..words.len()).rev() {
            let col_try = words[..split].join(" ");
            if match_column(db, Some(&table), &col_try).is_some() {
                return Some((col_try_static(cond, split), val_text_static(cond, split)));
            }
        }
        None
    })?;
    let cond_col = match_column(db, Some(&table), cond_col_phrase)?;
    let value = match_value(db, &cond_col, val_text.trim())?;

    let select_sql = match agg {
        Some(f) => format!("{f} ( {select_col} )"),
        None => select_col,
    };
    Some(format!(
        "SELECT {select_sql} FROM {table} WHERE {cond_col} = {}",
        value.render_sql()
    ))
}

// Helpers returning subslices of `cond` for the greedy fallback above.
fn col_try_static(cond: &str, split: usize) -> &str {
    let mut count = 0;
    for (i, c) in cond.char_indices() {
        if c == ' ' {
            count += 1;
            if count == split {
                return &cond[..i];
            }
        }
    }
    cond
}

fn val_text_static(cond: &str, split: usize) -> &str {
    let mut count = 0;
    for (i, c) in cond.char_indices() {
        if c == ' ' {
            count += 1;
            if count == split {
                return &cond[i + 1..];
            }
        }
    }
    ""
}

/// Predict SQL for a Spider-style question.
pub fn predict_spider(db: &Database, nl: &str) -> Option<String> {
    let lower = nl.to_lowercase();
    // Family A: "what is the {g} and {agg} {c} for each {g} of the {t1} joined with {t2}"
    if let Some(rest) = lower.strip_prefix("what is the ") {
        let (_, rest) = split_once_any(rest, &[" and "])?;
        let (agg_part, rest) = split_once_any(rest, &[" for each "])?;
        let (group_phrase, rest) = split_once_any(rest, &[" of the "])?;
        let (t1_phrase, t2_phrase) = split_once_any(rest, &[" joined with "])?;
        return build_spider(db, agg_part, group_phrase, t1_phrase, t2_phrase);
    }
    // Family B: "for each {g} show the {agg} {c} across {t1} and {t2}"
    if let Some(rest) = lower.strip_prefix("for each ") {
        let (group_phrase, rest) = split_once_any(rest, &[" show the "])?;
        let (agg_part, rest) = split_once_any(rest, &[" across "])?;
        let (t1_phrase, t2_phrase) = split_once_any(rest, &[" and "])?;
        return build_spider(db, agg_part, group_phrase, t1_phrase, t2_phrase);
    }
    None
}

fn build_spider(
    db: &Database,
    agg_part: &str,
    group_phrase: &str,
    t1_phrase: &str,
    t2_phrase: &str,
) -> Option<String> {
    let (agg, col_phrase) = detect_agg(agg_part);
    let agg = agg?;
    let t1 = match_table(db, t1_phrase)?;
    let t2 = match_table(db, t2_phrase.trim_end_matches(" data"))?;
    let group_col = match_column(db, None, group_phrase)?;
    let agg_col = match_column(db, Some(&t1), &col_phrase)
        .or_else(|| match_column(db, Some(&t2), &col_phrase))?;
    Some(format!(
        "SELECT {group_col} , {agg} ( {agg_col} ) FROM {t1} NATURAL JOIN {t2} GROUP BY {group_col}"
    ))
}

fn split_once_any<'a>(text: &'a str, seps: &[&str]) -> Option<(&'a str, &'a str)> {
    let mut best: Option<(usize, &str)> = None;
    for sep in seps {
        if let Some(pos) = text.find(sep) {
            if best.is_none_or(|(p, _)| pos < p) {
                best = Some((pos, sep));
            }
        }
    }
    best.map(|(pos, sep)| (&text[..pos], &text[pos + sep.len()..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_data::employees_db;

    #[test]
    fn parses_common_wikisql_template() {
        let db = employees_db();
        let sql = predict_wikisql(
            &db,
            "what is the average salary of salaries where from date is 1993-01-20",
        );
        assert_eq!(
            sql.as_deref(),
            Some("SELECT AVG ( salary ) FROM Salaries WHERE FromDate = '1993-01-20'")
        );
    }

    #[test]
    fn parses_whose_template() {
        let db = employees_db();
        let sql = predict_wikisql(
            &db,
            "show me the last name from employees whose gender equals M",
        );
        assert_eq!(
            sql.as_deref(),
            Some("SELECT LastName FROM Employees WHERE Gender = 'M'")
        );
    }

    #[test]
    fn fails_on_rare_phrasing() {
        let db = employees_db();
        assert!(predict_wikisql(
            &db,
            "could you pull up whichever last name the employees records carry whenever their gender happens to read M",
        )
        .is_none());
    }

    #[test]
    fn fails_when_anchor_corrupted() {
        let db = employees_db();
        // "where" corrupted to "wear" by ASR: anchor lost.
        assert!(predict_wikisql(
            &db,
            "what is the average salary of salaries wear from date is 1993-01-20",
        )
        .is_none());
    }

    #[test]
    fn parses_spider_family_a() {
        let db = employees_db();
        let sql = predict_spider(
            &db,
            "what is the gender and average salary for each gender of the employees joined with salaries",
        );
        assert_eq!(
            sql.as_deref(),
            Some("SELECT Gender , AVG ( salary ) FROM Employees NATURAL JOIN Salaries GROUP BY Gender")
        );
    }

    #[test]
    fn parses_spider_family_b() {
        let db = employees_db();
        let sql = predict_spider(
            &db,
            "for each title show the highest salary across titles and salaries",
        );
        assert!(sql.is_some());
    }
}
