//! The phonetic catalog: pre-computed phonetic representations of the
//! queried database's table names, attribute names, and attribute values
//! (paper Fig. 2, "Database Metadata").

use speakql_db::Database;
use speakql_grammar::LitCategory;
use speakql_phonetics::{PhoneticAlgorithm, PhoneticIndex};
use std::collections::HashMap;

/// One candidate set `B` (paper §4.1) with what literal voting needs to know
/// about it, decided once when the catalog is built.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    index: PhoneticIndex,
    has_dates: bool,
}

impl CandidateSet {
    fn new(index: PhoneticIndex) -> CandidateSet {
        let has_dates = index
            .entries()
            .iter()
            .any(|e| crate::literal::is_date_literal(&e.literal));
        CandidateSet { index, has_dates }
    }

    /// The candidate literals and their phonetic keys.
    pub fn index(&self) -> &PhoneticIndex {
        &self.index
    }

    /// True when some candidate is a date, so a fragmented spoken date is
    /// reassembled before voting.
    pub fn has_dates(&self) -> bool {
        self.has_dates
    }
}

/// Pre-computed phonetic indexes over one database.
#[derive(Debug, Clone)]
pub struct PhoneticCatalog {
    tables: CandidateSet,
    attributes: CandidateSet,
    /// Values per attribute name (lower-cased key). Entries hold the
    /// canonical SQL rendering (quoted text/dates) so assignments drop
    /// straight into the corrected query.
    values_by_attr: HashMap<String, CandidateSet>,
    all_values: CandidateSet,
    algorithm: PhoneticAlgorithm,
}

impl PhoneticCatalog {
    /// Build the catalog for a database with the paper's Metaphone keys.
    pub fn build(db: &Database) -> PhoneticCatalog {
        PhoneticCatalog::build_with(db, PhoneticAlgorithm::Metaphone)
    }

    /// Build with an explicit phonetic algorithm (ablations).
    pub fn build_with(db: &Database, algorithm: PhoneticAlgorithm) -> PhoneticCatalog {
        let tables = PhoneticIndex::build_with(db.table_names(), algorithm);
        let attributes = PhoneticIndex::build_with(db.attribute_names(), algorithm);
        let mut values_by_attr: HashMap<String, CandidateSet> = HashMap::new();
        for attr in db.attribute_names() {
            let rendered: Vec<String> = db
                .attribute_values(&attr)
                .iter()
                .map(|v| v.render_sql())
                .collect();
            values_by_attr.insert(
                attr.to_lowercase(),
                CandidateSet::new(PhoneticIndex::build_with(rendered, algorithm)),
            );
        }
        let all_values = PhoneticIndex::merged(values_by_attr.values().map(CandidateSet::index));
        PhoneticCatalog {
            tables: CandidateSet::new(tables),
            attributes: CandidateSet::new(attributes),
            values_by_attr,
            all_values: CandidateSet::new(all_values),
            algorithm,
        }
    }

    /// The phonetic algorithm the catalog was keyed with.
    pub fn algorithm(&self) -> PhoneticAlgorithm {
        self.algorithm
    }

    /// Phonetic index over table names.
    pub fn tables(&self) -> &PhoneticIndex {
        &self.tables.index
    }

    /// Phonetic index over attribute (column) names.
    pub fn attributes(&self) -> &PhoneticIndex {
        &self.attributes.index
    }

    /// Values of one attribute (case-insensitive); `None` if unknown.
    pub fn values_of(&self, attr: &str) -> Option<&PhoneticIndex> {
        self.values_by_attr
            .get(&attr.to_lowercase())
            .map(CandidateSet::index)
    }

    /// Phonetic index over every string value of every table.
    pub fn all_values(&self) -> &PhoneticIndex {
        &self.all_values.index
    }

    /// Retrieve the candidate set `B` for a placeholder (paper §4.1):
    /// its category plus — for values — the governing attribute.
    pub fn candidates(&self, category: LitCategory, governed_attr: Option<&str>) -> &CandidateSet {
        match category {
            LitCategory::Table => &self.tables,
            LitCategory::Attribute => &self.attributes,
            LitCategory::Number => &self.all_values,
            LitCategory::Value => governed_attr
                .and_then(|a| self.values_by_attr.get(&a.to_lowercase()))
                .filter(|set| !set.index.is_empty())
                .unwrap_or(&self.all_values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_db::{Column, Table, TableSchema, Value, ValueType};

    fn toy() -> Database {
        let mut db = Database::new("toy");
        let mut t = Table::new(TableSchema::new(
            "Employees",
            vec![
                Column::new("FirstName", ValueType::Text),
                Column::new("Salary", ValueType::Int),
            ],
        ));
        t.push_row(vec![Value::Text("John".into()), Value::Int(70000)]);
        t.push_row(vec![Value::Text("Perla".into()), Value::Int(80000)]);
        db.add_table(t);
        db
    }

    #[test]
    fn catalog_has_paper_keys() {
        let cat = PhoneticCatalog::build(&toy());
        assert_eq!(cat.tables().entries()[0].key, "EMPLYS");
        assert!(cat.attributes().entries().iter().any(|e| e.key == "FRSTNM"));
    }

    #[test]
    fn value_entries_are_sql_rendered() {
        let cat = PhoneticCatalog::build(&toy());
        let Some(vals) = cat.values_of("firstname") else {
            panic!("FirstName has values");
        };
        assert!(vals.entries().iter().any(|e| e.literal == "'John'"));
        let Some(sal) = cat.values_of("Salary") else {
            panic!("Salary has values");
        };
        assert!(sal.entries().iter().any(|e| e.literal == "70000"));
    }

    #[test]
    fn candidates_fall_back_to_all_values() {
        let cat = PhoneticCatalog::build(&toy());
        let b = cat.candidates(speakql_grammar::LitCategory::Value, Some("NoSuchAttr"));
        assert_eq!(b.index().len(), cat.all_values().len());
        let b = cat.candidates(speakql_grammar::LitCategory::Value, Some("FirstName"));
        assert_eq!(b.index().len(), 2);
    }
}
