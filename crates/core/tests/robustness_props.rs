//! Robustness property tests (PR 5): for *any* transcript — printable
//! ASCII, arbitrary Unicode, pathological whitespace — the engine returns
//! `Ok` or a typed `Err` and never panics, and the classification is
//! identical across thread counts {1, 2, 8} and with the skeleton cache on
//! or off. Ordinary text must never surface as a contained worker panic:
//! `WorkerPanic` is reserved for genuine pipeline faults.

use proptest::prelude::*;
use speakql_core::{SpeakQl, SpeakQlConfig, SpeakQlError, SpeakQlResult, Transcription};
use speakql_db::{Column, Database, Table, TableSchema, Value, ValueType};
use speakql_editdist::Weights;
use speakql_index::StructureIndex;
use std::sync::{Arc, OnceLock};

fn toy_db() -> Database {
    let mut db = Database::new("robust");
    let mut emp = Table::new(TableSchema::new(
        "Employees",
        vec![
            Column::new("FirstName", ValueType::Text),
            Column::new("Salary", ValueType::Int),
        ],
    ));
    emp.push_row(vec![Value::Text("John".into()), Value::Int(70000)]);
    emp.push_row(vec![Value::Text("Perla".into()), Value::Int(82000)]);
    db.add_table(emp);
    db
}

/// Engines for every (threads, cache) combination under test, sharing one
/// index so construction cost is paid once per process.
fn engines() -> &'static Vec<SpeakQl> {
    static E: OnceLock<Vec<SpeakQl>> = OnceLock::new();
    E.get_or_init(|| {
        let db = toy_db();
        let base = SpeakQlConfig::small().with_max_transcript_words(64);
        let index = Arc::new(StructureIndex::from_grammar(
            &base.generator,
            Weights::PAPER,
        ));
        let mut engines = Vec::new();
        for threads in [1usize, 2, 8] {
            for cache in [0usize, 32] {
                engines.push(SpeakQl::with_index(
                    &db,
                    Arc::clone(&index),
                    base.clone()
                        .with_threads(threads)
                        .with_cache_capacity(cache),
                ));
            }
        }
        engines
    })
}

/// Outcome fingerprint: the best SQL on success, the error class on failure.
fn outcome(r: &SpeakQlResult<Transcription>) -> Result<Option<String>, &'static str> {
    match r {
        Ok(t) => Ok(t.best_sql().map(str::to_string)),
        Err(e) => Err(e.class()),
    }
}

/// The typed-error contract for ordinary (non-injected) input: a result is
/// acceptable iff it is `Ok` or a *classified validation* error — never a
/// contained panic.
fn assert_contract(transcript: &str, r: &SpeakQlResult<Transcription>) {
    match r {
        Ok(t) => assert!(
            !t.candidates.is_empty(),
            "Ok with zero candidates for {transcript:?}"
        ),
        Err(SpeakQlError::EmptyTranscript) => assert!(
            transcript.split_whitespace().next().is_none(),
            "EmptyTranscript for wordy input {transcript:?}"
        ),
        Err(SpeakQlError::TranscriptTooLong { words, max }) => {
            assert_eq!(*words, transcript.split_whitespace().count());
            assert!(words > max, "TooLong under the cap for {transcript:?}");
        }
        Err(e) => panic!("unexpected error class {} for {transcript:?}", e.class()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Printable-ASCII transcripts: every engine configuration agrees on
    /// the outcome, and the outcome honors the typed-error contract.
    #[test]
    fn ascii_transcripts_classify_identically_everywhere(
        transcript in "[ -~]{0,120}",
    ) {
        let engines = engines();
        let reference = engines[0].transcribe(&transcript);
        assert_contract(&transcript, &reference);
        for engine in &engines[1..] {
            let r = engine.transcribe(&transcript);
            prop_assert_eq!(
                outcome(&reference),
                outcome(&r),
                "divergent outcome for {:?}",
                transcript
            );
        }
    }

    /// Arbitrary Unicode (multibyte, combining marks, astral planes) never
    /// panics and never misclassifies as a worker panic.
    #[test]
    fn unicode_transcripts_never_panic(transcript in "\\PC{0,40}") {
        for engine in engines() {
            assert_contract(&transcript, &engine.transcribe(&transcript));
        }
    }

    /// Word-count validation is exact at the cap boundary for adversarial
    /// whitespace mixes.
    #[test]
    fn word_cap_is_exact_under_weird_whitespace(
        words in prop::collection::vec("[a-z]{1,6}", 0..80),
        seps in prop::collection::vec(prop_oneof![
            Just(" "), Just("\t"), Just("\n"), Just("\u{00a0}"), Just("  ")
        ], 0..80),
    ) {
        let mut transcript = String::new();
        for (i, w) in words.iter().enumerate() {
            transcript.push_str(w);
            transcript.push_str(seps.get(i).copied().unwrap_or(" "));
        }
        let r = engines()[0].transcribe(&transcript);
        if words.is_empty() {
            prop_assert!(matches!(r, Err(SpeakQlError::EmptyTranscript)));
        } else if words.len() > 64 {
            prop_assert!(
                matches!(&r, Err(SpeakQlError::TranscriptTooLong { words: w, max: 64 }) if *w == words.len())
            );
        } else {
            prop_assert!(r.is_ok(), "unexpected error for {} words", words.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batch containment under property inputs: a batch of arbitrary ASCII
    /// transcripts returns one slot per input, in order, each slot matching
    /// the sequential outcome.
    #[test]
    fn batch_slots_match_sequential_outcomes(
        transcripts in prop::collection::vec("[ -~]{0,60}", 1..12),
    ) {
        let engines = engines();
        let parallel = &engines[engines.len() - 1]; // 8 threads, cache on
        let refs: Vec<&str> = transcripts.iter().map(String::as_str).collect();
        let batch = parallel.transcribe_batch(&refs);
        prop_assert_eq!(batch.len(), refs.len());
        for (t, slot) in refs.iter().zip(&batch) {
            let sequential = engines[0].transcribe(t);
            prop_assert_eq!(
                outcome(&sequential),
                outcome(slot),
                "batch slot diverged for {:?}",
                t
            );
        }
    }
}
