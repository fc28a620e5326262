//! # speakql-core
//!
//! The SpeakQL engine — the paper's primary contribution. Composes the
//! substrates into the end-to-end pipeline of Fig. 2:
//!
//! ```text
//! ASR transcript ──> SplChar handling + literal masking   (speakql-grammar)
//!                ──> weighted trie search over structures (speakql-index)
//!                ──> phonetic literal voting               (this crate, §4)
//!                ──> ranked corrected-SQL candidates
//! ```
//!
//! Plus clause-level transcription for the multimodal interface (§5) and the
//! one-level nested-query heuristic (App. F.8).

#![forbid(unsafe_code)]

mod align;
pub mod cache;
pub mod catalog;
pub mod engine;
pub mod error;
pub mod literal;
pub mod streaming;

pub use cache::SkeletonCache;
pub use catalog::PhoneticCatalog;
pub use engine::{Candidate, FaultHook, SpeakQl, SpeakQlConfig, StageTimings, Transcription};
pub use error::{SpeakQlError, SpeakQlResult};
pub use literal::{
    enumerate_strings, parse_number_words, FilledLiteral, LiteralFinder, ALTERNATIVES, WINDOW_SIZE,
};
pub use streaming::StreamingTranscriber;
// Re-exported so downstream crates can drive observability without a direct
// speakql-observe dependency.
pub use speakql_observe::{CounterId, PipelineReport, Recorder, SpanId, StageReport, Tally};

#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::prelude::*;
    use speakql_db::{Column, Database, Table, TableSchema, Value, ValueType};

    fn engine() -> &'static SpeakQl {
        static E: std::sync::OnceLock<SpeakQl> = std::sync::OnceLock::new();
        E.get_or_init(|| {
            let mut db = Database::new("fuzz");
            let mut t = Table::new(TableSchema::new(
                "T",
                vec![
                    Column::new("A", ValueType::Text),
                    Column::new("B", ValueType::Int),
                ],
            ));
            t.push_row(vec![Value::Text("v".into()), Value::Int(1)]);
            db.add_table(t);
            let cfg = SpeakQlConfig {
                generator: speakql_grammar::GeneratorConfig {
                    max_structures: Some(3_000),
                    ..speakql_grammar::GeneratorConfig::small()
                },
                ..SpeakQlConfig::small()
            };
            SpeakQl::new(&db, cfg)
        })
    }

    fn arb_transcript() -> impl Strategy<Value = String> {
        let word = prop_oneof![
            Just("select".to_string()),
            Just("from".to_string()),
            Just("where".to_string()),
            Just("equals".to_string()),
            Just("less".to_string()),
            Just("than".to_string()),
            Just("open".to_string()),
            Just("parenthesis".to_string()),
            Just("comma".to_string()),
            Just("and".to_string()),
            "[a-z]{1,8}",
            "[0-9]{1,6}",
            Just("(".to_string()),
            Just(")".to_string()),
            Just("=".to_string()),
        ];
        prop::collection::vec(word, 0..22).prop_map(|ws| ws.join(" "))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The engine never panics on arbitrary transcript soup: word-bearing
        /// input always yields candidates, empty input yields the typed
        /// empty-transcript error, and every candidate parses as valid SQL
        /// of the subset.
        #[test]
        fn engine_total_on_arbitrary_transcripts(t in arb_transcript()) {
            match engine().transcribe(&t) {
                Ok(result) => {
                    prop_assert!(!result.candidates.is_empty());
                    for c in &result.candidates {
                        prop_assert!(
                            speakql_db::parse_query(&c.sql).is_ok(),
                            "unparsable candidate for '{}': {}",
                            t,
                            c.sql
                        );
                    }
                }
                Err(e) => {
                    prop_assert_eq!(e, SpeakQlError::EmptyTranscript);
                    prop_assert!(t.split_whitespace().next().is_none());
                }
            }
        }

        /// Candidate SQL token length equals its structure length (every
        /// placeholder bound exactly once).
        #[test]
        fn candidates_fully_bound(t in arb_transcript()) {
            if let Ok(result) = engine().transcribe(&t) {
                for c in &result.candidates {
                    prop_assert_eq!(c.literals.len(), c.structure.var_count());
                }
            }
        }
    }
}
