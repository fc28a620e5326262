//! End-to-end kernel parity: a SpeakQL engine running the branchless SoA DP
//! kernel must produce byte-identical transcriptions to one running the
//! scalar reference kernel — same candidates, same SQL, same alternatives —
//! for any transcript, at any thread count, with the skeleton cache on or
//! off. The kernel knob is pure mechanism; nothing downstream may observe
//! it.

use proptest::prelude::*;
use speakql_core::{Candidate, SpeakQl, SpeakQlConfig, SpeakQlError, SpeakQlResult, Transcription};
use speakql_db::{Column, Database, Table, TableSchema, Value, ValueType};
use speakql_index::{DpKernel, StructureIndex};
use std::sync::{Arc, OnceLock};

const WORDS: &[&str] = &[
    "select",
    "salary",
    "from",
    "employees",
    "where",
    "first",
    "name",
    "equals",
    "john",
    "greater",
    "than",
    "70000",
    "and",
    "sum",
    "open",
    "parenthesis",
    "close",
    "star",
    "sales",
    "employers",
    "wear",
];

fn toy_db() -> Database {
    let mut db = Database::new("toy");
    let mut emp = Table::new(TableSchema::new(
        "Employees",
        vec![
            Column::new("FirstName", ValueType::Text),
            Column::new("Salary", ValueType::Int),
        ],
    ));
    emp.push_row(vec![Value::Text("John".into()), Value::Int(70000)]);
    emp.push_row(vec![Value::Text("Perla".into()), Value::Int(80000)]);
    db.add_table(emp);
    db
}

/// One structure index shared by every engine in this file, so the kernels
/// search the exact same arena (and exercise the shared workspace pools).
fn shared_index() -> Arc<StructureIndex> {
    static INDEX: OnceLock<Arc<StructureIndex>> = OnceLock::new();
    INDEX
        .get_or_init(|| {
            let cfg = SpeakQlConfig::small();
            Arc::new(StructureIndex::from_grammar(&cfg.generator, cfg.weights))
        })
        .clone()
}

fn view(r: &SpeakQlResult<Transcription>) -> Result<&[Candidate], &SpeakQlError> {
    r.as_ref().map(|t| t.candidates.as_slice())
}

fn transcripts_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        proptest::collection::vec(0..WORDS.len(), 1..10)
            .prop_map(|idxs| idxs.iter().map(|&i| WORDS[i]).collect::<Vec<_>>().join(" ")),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Scalar vs SoA engines agree byte-for-byte across threads {1, 2, 8} ×
    /// cache {off, on}, including a warm second pass where the cached engine
    /// answers from memoized skeletons the *other* kernel could have filled.
    #[test]
    fn soa_engine_equals_scalar_engine(transcripts in transcripts_strategy()) {
        let db = toy_db();
        let batch: Vec<&str> = transcripts
            .iter()
            .chain(transcripts.iter())
            .map(String::as_str)
            .collect();
        for &threads in &[1usize, 2, 8] {
            for &cache in &[0usize, 64] {
                let mut scalar_cfg = SpeakQlConfig::small()
                    .with_threads(threads)
                    .with_cache_capacity(cache);
                scalar_cfg.search.kernel = DpKernel::Scalar;
                let mut soa_cfg = scalar_cfg.clone();
                soa_cfg.search.kernel = DpKernel::Auto;

                let scalar = SpeakQl::with_index(&db, shared_index(), scalar_cfg);
                let soa = SpeakQl::with_index(&db, shared_index(), soa_cfg);

                let expect = scalar.transcribe_batch(&batch);
                let cold = soa.transcribe_batch(&batch);
                let warm = soa.transcribe_batch(&batch);
                for ((e, c), w) in expect.iter().zip(&cold).zip(&warm) {
                    prop_assert_eq!(view(e), view(c),
                        "cold diverged (threads={}, cache={})", threads, cache);
                    prop_assert_eq!(view(e), view(w),
                        "warm diverged (threads={}, cache={})", threads, cache);
                }
            }
        }
    }
}
