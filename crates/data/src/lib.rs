//! # speakql-data
//!
//! Workload substrate for SpeakQL-rs: deterministic synthetic instances of
//! the two schemas the paper evaluates on (MySQL Employees, Yelp), the
//! scalable spoken-SQL dataset-generation procedure of §6.1, and the Table 6
//! user-study query set.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod employees;
pub mod genqueries;
pub mod user_study;
pub mod yelp;

pub use dataset::{
    training_vocabulary, SpokenSqlDataset, EMPLOYEES_TEST_SIZE, TRAIN_SIZE, YELP_TEST_SIZE,
};
pub use employees::employees_db;
pub use genqueries::{bind_structure, generate_cases, generate_nested_cases, QueryCase};
pub use user_study::{StudyQuery, STUDY_QUERIES};
pub use yelp::yelp_db;

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_db::{Date, Value};

    #[test]
    fn every_date_in_both_databases_is_valid() {
        for db in [employees_db(), yelp_db()] {
            let mut dates = 0;
            for value in db.tables.iter().flat_map(|t| t.rows.iter().flatten()) {
                if let Value::Date(d) = value {
                    assert_eq!(Date::new(d.year, d.month, d.day), Some(*d), "{}", db.name);
                    dates += 1;
                }
            }
            assert!(dates > 0, "{} has no dates", db.name);
        }
    }
}
