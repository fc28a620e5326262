//! A NaLIR-like baseline: rule-based NL→SQL via keyword matching and schema
//! linking, evaluated non-interactively (as the paper evaluates NaLIR,
//! App. F.9). Deliberately brittle — the real system relies on user
//! interactions to resolve ambiguity, which are disabled for fairness.

use crate::matchers::{match_column, match_table, squash};
use speakql_db::{Database, Value};

/// Predict SQL for an NL question; `None` when the rules cannot ground the
/// question at all.
pub fn predict(db: &Database, nl: &str) -> Option<String> {
    let lower = nl.to_lowercase();
    let words: Vec<&str> = lower
        .split_whitespace()
        .map(|w| w.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '-'))
        .filter(|w| !w.is_empty())
        .collect();
    if words.is_empty() {
        return None;
    }

    // 1. Find the table: best n-gram (≤ 2 words) matching a table name.
    let mut table: Option<String> = None;
    for i in 0..words.len() {
        for len in (1..=2).rev() {
            if i + len <= words.len() {
                if let Some(t) = match_table(db, &words[i..i + len].join(" ")) {
                    table = Some(t);
                    break;
                }
            }
        }
        if table.is_some() {
            break;
        }
    }
    let table = table?;

    // 2. Aggregate: NaLIR's lexicon knows only a couple of aggregate
    // synonyms — a deliberate brittleness of the rule-based baseline.
    let joined = words.join(" ");
    let agg = if joined.contains("average ") {
        Some("AVG")
    } else if joined.contains("number of ") {
        Some("COUNT")
    } else {
        None
    };
    let mut select_col: Option<String> = None;
    let mut select_pos = 0usize;
    'outer: for i in 0..words.len() {
        for len in (1..=3).rev() {
            if i + len <= words.len() {
                if let Some(c) = match_column(db, Some(&table), &words[i..i + len].join(" ")) {
                    select_col = Some(c);
                    select_pos = i + len;
                    break 'outer;
                }
            }
        }
    }
    let select_col = select_col?;

    // 3. Condition: requires an explicit "where" marker (questions phrased
    // with "whose"/"with" lose their condition — rule-based brittleness),
    // then a column match and a *single-token, exactly matching* value.
    let where_pos = words.iter().position(|w| *w == "where");
    let mut cond: Option<(String, String)> = None;
    let cond_start = match where_pos {
        Some(p) => p + 1,
        None => words.len(),
    };
    'cond: for i in cond_start.max(select_pos)..words.len() {
        for len in (1..=3).rev() {
            if i + len <= words.len() {
                if let Some(c) = match_column(db, Some(&table), &words[i..i + len].join(" ")) {
                    // Candidate value: single tokens only, matched exactly
                    // against the column's domain (no fuzziness).
                    for vtext in words.iter().skip(i + len) {
                        if squash(vtext).is_empty() || is_filler(vtext) {
                            continue;
                        }
                        if let Some(v) = exact_value(db, &c, vtext) {
                            cond = Some((c.clone(), v.render_sql()));
                            break 'cond;
                        }
                    }
                }
            }
        }
    }

    let select_sql = match agg {
        Some(f) => format!("{f} ( {select_col} )"),
        None => select_col,
    };
    let mut sql = format!("SELECT {select_sql} FROM {table}");
    if let Some((c, v)) = cond {
        sql.push_str(&format!(" WHERE {c} = {v}"));
    }
    Some(sql)
}

/// Exact (case-insensitive) domain lookup; numbers and dates parse
/// literally, but no fuzzy matching.
fn exact_value(db: &Database, column: &str, text: &str) -> Option<Value> {
    db.attribute_values(column)
        .into_iter()
        .find(|v| v.render_bare().eq_ignore_ascii_case(text))
        .or_else(|| Value::parse_literal(text))
}

fn is_filler(text: &str) -> bool {
    matches!(
        text,
        "is" | "the"
            | "of"
            | "a"
            | "an"
            | "to"
            | "for"
            | "with"
            | "where"
            | "whose"
            | "equals"
            | "happens"
            | "read"
            | "records"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_data::employees_db;

    #[test]
    fn grounds_a_simple_question() {
        let db = employees_db();
        let Some(sql) = predict(
            &db,
            "what is the average salary of salaries where from date is 1993-01-20",
        ) else {
            panic!("the question grounds to SQL");
        };
        assert!(sql.contains("FROM Salaries"), "{sql}");
        assert!(sql.contains("AVG"), "{sql}");
    }

    #[test]
    fn fails_without_groundable_table() {
        let db = employees_db();
        assert!(predict(&db, "how is the weather today").is_none());
    }

    #[test]
    fn brittle_on_rare_phrasing() {
        // It may produce *something*, but usually not the gold query — the
        // point of the baseline. Just assert it does not panic.
        let db = employees_db();
        let _ = predict(
            &db,
            "could you pull up whichever last name the employees records carry whenever their gender happens to read M",
        );
    }
}
