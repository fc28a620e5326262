//! Schemas, tables, and the database catalog.
//!
//! Besides storing rows, the catalog is SpeakQL's source of *database
//! metadata*: table names, attribute names, and string attribute values,
//! which Literal Determination indexes phonetically (paper Fig. 2).

use crate::value::{Value, ValueType};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    pub name: String,
    pub ty: ValueType,
}

impl Column {
    /// Define a column.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Column {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// A table schema: name plus ordered columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<Column>,
}

impl TableSchema {
    /// Define a table schema.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> TableSchema {
        TableSchema {
            name: name.into(),
            columns,
        }
    }

    /// Case-insensitive column lookup.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }
}

/// A table: schema plus rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    pub schema: TableSchema,
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// Create an empty table with this schema.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Append a row; panics if arity mismatches (construction-time bug).
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(
            row.len(),
            self.schema.columns.len(),
            "row arity must match schema of {}",
            self.schema.name
        );
        self.rows.push(row);
    }

    /// Distinct values of one column, sorted.
    pub fn distinct_values(&self, col: usize) -> Vec<Value> {
        let mut set: BTreeSet<Value> = BTreeSet::new();
        for row in &self.rows {
            if !matches!(row[col], Value::Null) {
                set.insert(row[col].clone());
            }
        }
        set.into_iter().collect()
    }
}

/// A database: a set of named tables.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Database {
    pub name: String,
    pub tables: Vec<Table>,
}

impl Database {
    /// Create an empty database.
    pub fn new(name: impl Into<String>) -> Database {
        Database {
            name: name.into(),
            tables: Vec::new(),
        }
    }

    /// Add `table`; panics on a duplicate table name (schema bug).
    pub fn add_table(&mut self, table: Table) {
        assert!(
            self.table(&table.schema.name).is_none(),
            "duplicate table {}",
            table.schema.name
        );
        self.tables.push(table);
    }

    /// Case-insensitive table lookup.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables
            .iter()
            .find(|t| t.schema.name.eq_ignore_ascii_case(name))
    }

    /// Case-insensitive mutable table lookup.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables
            .iter_mut()
            .find(|t| t.schema.name.eq_ignore_ascii_case(name))
    }

    /// All table names, in declaration order (canonical casing).
    pub fn table_names(&self) -> Vec<String> {
        self.tables.iter().map(|t| t.schema.name.clone()).collect()
    }

    /// All attribute names across all tables, deduplicated, sorted.
    pub fn attribute_names(&self) -> Vec<String> {
        let mut set: BTreeSet<String> = BTreeSet::new();
        for t in &self.tables {
            for c in &t.schema.columns {
                set.insert(c.name.clone());
            }
        }
        set.into_iter().collect()
    }

    /// Attribute names of one table.
    pub fn attributes_of(&self, table: &str) -> Vec<String> {
        self.table(table)
            .map(|t| t.schema.columns.iter().map(|c| c.name.clone()).collect())
            .unwrap_or_default()
    }

    /// Tables containing an attribute with this name.
    pub fn tables_with_attribute(&self, attr: &str) -> Vec<String> {
        self.tables
            .iter()
            .filter(|t| t.schema.column_index(attr).is_some())
            .map(|t| t.schema.name.clone())
            .collect()
    }

    /// Distinct values of a named attribute across every table that has it.
    pub fn attribute_values(&self, attr: &str) -> Vec<Value> {
        let mut set: BTreeSet<Value> = BTreeSet::new();
        for t in &self.tables {
            if let Some(idx) = t.schema.column_index(attr) {
                for v in t.distinct_values(idx) {
                    set.insert(v);
                }
            }
        }
        set.into_iter().collect()
    }

    /// All **string** attribute values in the database — the paper indexes
    /// "attribute values (only strings, excluding numbers or dates)"
    /// phonetically (§4).
    pub fn string_attribute_values(&self) -> Vec<String> {
        let mut set: BTreeSet<String> = BTreeSet::new();
        for t in &self.tables {
            for (ci, c) in t.schema.columns.iter().enumerate() {
                if c.ty == ValueType::Text {
                    for v in t.distinct_values(ci) {
                        if let Value::Text(s) = v {
                            set.insert(s);
                        }
                    }
                }
            }
        }
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_db() -> Database {
        let mut db = Database::new("toy");
        let mut emp = Table::new(TableSchema::new(
            "Employees",
            vec![
                Column::new("EmployeeNumber", ValueType::Int),
                Column::new("FirstName", ValueType::Text),
            ],
        ));
        emp.push_row(vec![Value::Int(1), Value::Text("Karsten".into())]);
        emp.push_row(vec![Value::Int(2), Value::Text("Goh".into())]);
        emp.push_row(vec![Value::Int(3), Value::Text("Karsten".into())]);
        db.add_table(emp);
        let mut sal = Table::new(TableSchema::new(
            "Salaries",
            vec![
                Column::new("EmployeeNumber", ValueType::Int),
                Column::new("Salary", ValueType::Int),
            ],
        ));
        sal.push_row(vec![Value::Int(1), Value::Int(70000)]);
        db.add_table(sal);
        db
    }

    #[test]
    fn case_insensitive_lookup() {
        let db = toy_db();
        assert!(db.table("employees").is_some());
        assert!(db.table("EMPLOYEES").is_some());
        assert!(db.table("nope").is_none());
        let Some(t) = db.table("Employees") else {
            panic!("Employees is in the toy database");
        };
        assert_eq!(t.schema.column_index("firstname"), Some(1));
    }

    #[test]
    fn catalog_listings() {
        let db = toy_db();
        assert_eq!(db.table_names(), vec!["Employees", "Salaries"]);
        assert_eq!(
            db.attribute_names(),
            vec!["EmployeeNumber", "FirstName", "Salary"]
        );
        assert_eq!(db.tables_with_attribute("EmployeeNumber").len(), 2);
    }

    #[test]
    fn string_values_only() {
        let db = toy_db();
        assert_eq!(db.string_attribute_values(), vec!["Goh", "Karsten"]);
    }

    #[test]
    fn distinct_values_sorted_dedup() {
        let db = toy_db();
        let Some(t) = db.table("Employees") else {
            panic!("Employees is in the toy database");
        };
        assert_eq!(
            t.distinct_values(1),
            vec![Value::Text("Goh".into()), Value::Text("Karsten".into())]
        );
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(TableSchema::new(
            "T",
            vec![Column::new("a", ValueType::Int)],
        ));
        t.push_row(vec![Value::Int(1), Value::Int(2)]);
    }
}
