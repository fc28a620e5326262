//! Schema linking: fuzzy grounding of NL phrases onto tables, columns, and
//! values. Shared by both NLI baselines.

use speakql_db::{Database, Value};
use speakql_editdist::levenshtein;

/// Normalize a phrase to a compact comparable form ("first name" → "firstname").
pub fn squash(phrase: &str) -> String {
    phrase
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_lowercase()
}

fn fuzzy_eq(a: &str, b: &str) -> bool {
    let (a, b) = (squash(a), squash(b));
    if a.is_empty() || b.is_empty() {
        return false;
    }
    let d = levenshtein(&a, &b);
    d == 0 || (d <= 1 && a.len() >= 4) || (d <= 2 && a.len() >= 8)
}

/// Ground a phrase onto a table name.
pub fn match_table(db: &Database, phrase: &str) -> Option<String> {
    db.table_names().into_iter().find(|t| fuzzy_eq(t, phrase))
}

/// Ground a phrase onto a column name (optionally within one table).
pub fn match_column(db: &Database, table: Option<&str>, phrase: &str) -> Option<String> {
    let cols: Vec<String> = match table {
        Some(t) => db.attributes_of(t),
        None => db.attribute_names(),
    };
    cols.into_iter().find(|c| fuzzy_eq(c, phrase))
}

/// Ground a textual value onto a column's domain; falls back to parsing
/// numbers/dates literally.
pub fn match_value(db: &Database, column: &str, text: &str) -> Option<Value> {
    let domain = db.attribute_values(column);
    // Exact bare match first.
    if let Some(v) = domain
        .iter()
        .find(|v| v.render_bare().eq_ignore_ascii_case(text))
    {
        return Some(v.clone());
    }
    // Fuzzy on text values.
    if let Some(v) = domain
        .iter()
        .find(|v| matches!(v, Value::Text(_)) && fuzzy_eq(&v.render_bare(), text))
    {
        return Some(v.clone());
    }
    Value::parse_literal(text).or_else(|| Value::parse_literal(&format!("'{text}'")))
}

/// Aggregate synonym table shared by workload generation and the baselines.
pub const AGG_SYNONYMS: [(&str, &str); 8] = [
    ("average", "AVG"),
    ("mean", "AVG"),
    ("total", "SUM"),
    ("sum", "SUM"),
    ("highest", "MAX"),
    ("maximum", "MAX"),
    ("lowest", "MIN"),
    ("minimum", "MIN"),
];

/// Detect a leading aggregate word; returns (func, rest-of-phrase).
pub fn detect_agg(phrase: &str) -> (Option<&'static str>, String) {
    let p = phrase.trim();
    if let Some(rest) = p.strip_prefix("number of ") {
        return (Some("COUNT"), rest.to_string());
    }
    for (word, func) in AGG_SYNONYMS {
        if let Some(rest) = p.strip_prefix(&format!("{word} ")) {
            return (Some(func), rest.to_string());
        }
    }
    (None, p.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_data::employees_db;

    #[test]
    fn squash_and_fuzzy() {
        assert_eq!(squash("First Name"), "firstname");
        assert!(fuzzy_eq("FirstName", "first name"));
        assert!(fuzzy_eq("Salaries", "salaries"));
        assert!(!fuzzy_eq("Salaries", "titles"));
    }

    #[test]
    fn grounding_on_employees() {
        let db = employees_db();
        assert_eq!(match_table(&db, "employees"), Some("Employees".into()));
        assert_eq!(
            match_column(&db, None, "first name"),
            Some("FirstName".into())
        );
        assert_eq!(
            match_column(&db, Some("Salaries"), "salary"),
            Some("salary".into())
        );
        assert!(match_table(&db, "businesses").is_none());
    }

    #[test]
    fn value_grounding() {
        let db = employees_db();
        assert_eq!(
            match_value(&db, "FirstName", "karsten"),
            Some(Value::Text("Karsten".into()))
        );
        assert_eq!(match_value(&db, "salary", "70000"), Some(Value::Int(70000)));
        assert!(matches!(
            match_value(&db, "HireDate", "1996-05-10"),
            Some(Value::Date(_))
        ));
    }

    #[test]
    fn agg_detection() {
        assert_eq!(detect_agg("average salary").0, Some("AVG"));
        assert_eq!(detect_agg("number of titles").0, Some("COUNT"));
        assert_eq!(detect_agg("first name").0, None);
    }
}
