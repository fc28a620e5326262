//! Typed values for the in-memory relational engine.
//!
//! The SpeakQL workloads need four types: integers, floats, text, and dates
//! (dates are a first-class concern in the paper — they are verbalized,
//! mis-transcribed, and literal-determined specially).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A calendar date. A tiny purpose-built type (no chrono dependency): the
/// engine needs ordering, parsing of `YYYY-MM-DD`, and rendering only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Date {
    pub year: i32,
    pub month: u8,
    pub day: u8,
}

impl Date {
    /// Construct a date, validating month and day ranges (days-per-month
    /// checked, with leap years).
    pub fn new(year: i32, month: u8, day: u8) -> Option<Date> {
        if !(1..=12).contains(&month) || day == 0 {
            return None;
        }
        if day > days_in_month(year, month) {
            return None;
        }
        Some(Date { year, month, day })
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<Date> {
        let mut parts = s.split('-');
        let year: i32 = parts.next()?.parse().ok()?;
        let month: u8 = parts.next()?.parse().ok()?;
        let day: u8 = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Date::new(year, month, day)
    }
}

pub(crate) fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            let leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
            if leap {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueType {
    Int,
    Float,
    Text,
    Date,
}

/// A typed value. `Null` arises from aggregates over empty groups.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Text(String),
    Date(Date),
}

impl Value {
    /// The value's type; `None` for `Null`.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Text(_) => Some(ValueType::Text),
            Value::Date(_) => Some(ValueType::Date),
        }
    }

    /// Numeric view for aggregation and cross-type comparison.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Parse a SQL literal token into a value: quoted strings become `Text`
    /// (or `Date` if the content is a date), bare numbers become
    /// `Int`/`Float`, bare dates become `Date`.
    pub fn parse_literal(tok: &str) -> Option<Value> {
        if let Some(stripped) = tok.strip_prefix('\'').and_then(|s| s.strip_suffix('\'')) {
            if let Some(d) = Date::parse(stripped) {
                return Some(Value::Date(d));
            }
            return Some(Value::Text(stripped.to_string()));
        }
        if let Some(d) = Date::parse(tok) {
            return Some(Value::Date(d));
        }
        if let Ok(i) = tok.parse::<i64>() {
            return Some(Value::Int(i));
        }
        if let Ok(f) = tok.parse::<f64>() {
            return Some(Value::Float(f));
        }
        None
    }

    /// Render as a SQL literal (text and dates quoted).
    pub fn render_sql(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_float(*f),
            Value::Text(s) => format!("'{s}'"),
            Value::Date(d) => format!("'{d}'"),
        }
    }

    /// The bare (unquoted) rendering, used when building phonetic indexes.
    pub fn render_bare(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_float(*f),
            Value::Text(s) => s.clone(),
            Value::Date(d) => d.to_string(),
        }
    }
}

fn format_float(f: f64) -> String {
    if f.fract() == 0.0 && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: numerics compare numerically across Int/Float; distinct
    /// types order by a fixed type rank (Null < numeric < Text < Date) so
    /// sorting heterogeneous columns is deterministic.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                3u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl Value {
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Text(_) => 2,
            Value::Date(_) => 3,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_bare())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_parse_and_display() {
        let d = Date {
            year: 1993,
            month: 1,
            day: 20,
        };
        assert_eq!(Date::parse("1993-01-20"), Some(d));
        assert_eq!(d.to_string(), "1993-01-20");
        assert!(Date::parse("1993-13-01").is_none());
        assert!(Date::parse("1993-02-30").is_none());
        assert!(Date::parse("not-a-date").is_none());
        assert!(Date::parse("1993-01").is_none());
    }

    #[test]
    fn leap_years() {
        assert!(Date::parse("2000-02-29").is_some());
        assert!(Date::parse("1900-02-29").is_none());
        assert!(Date::parse("2004-02-29").is_some());
    }

    #[test]
    fn literal_parsing() {
        assert_eq!(
            Value::parse_literal("'d002'"),
            Some(Value::Text("d002".into()))
        );
        assert_eq!(
            Value::parse_literal("'1993-01-20'"),
            Some(Value::Date(Date {
                year: 1993,
                month: 1,
                day: 20
            }))
        );
        assert_eq!(Value::parse_literal("70000"), Some(Value::Int(70000)));
        assert_eq!(Value::parse_literal("3.5"), Some(Value::Float(3.5)));
        assert_eq!(Value::parse_literal("Engineer"), None);
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn int_float_equal_values_hash_alike() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(2)), h(&Value::Float(2.0)));
    }

    #[test]
    fn render_roundtrip() {
        for v in [
            Value::Int(42),
            Value::Float(3.5),
            Value::Text("Engineer".into()),
            Value::Date(Date {
                year: 2001,
                month: 10,
                day: 9,
            }),
        ] {
            assert_eq!(Value::parse_literal(&v.render_sql()), Some(v.clone()));
        }
    }

    #[test]
    fn ordering_is_total() {
        let vals = [
            Value::Null,
            Value::Int(1),
            Value::Float(1.5),
            Value::Text("a".into()),
            Value::Date(Date {
                year: 2020,
                month: 1,
                day: 1,
            }),
        ];
        let mut sorted = vals.to_vec();
        sorted.sort();
        assert_eq!(sorted.len(), 5);
    }
}
