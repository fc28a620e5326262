//! Observability must be a pure observer: an engine with the recorder
//! enabled and an identically configured engine with it disabled must
//! produce byte-identical transcriptions, work tallies included, on any
//! input, while only the enabled engine accumulates counters, and it
//! accumulates exactly the tallies it returned.

use proptest::prelude::*;
use speakql_core::{CounterId, SpanId, SpeakQl, SpeakQlConfig};
use speakql_db::{Column, Database, Table, TableSchema, Value, ValueType};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// A pair of engines differing only in the `observe` flag.
fn engines() -> &'static (SpeakQl, SpeakQl) {
    static E: OnceLock<(SpeakQl, SpeakQl)> = OnceLock::new();
    E.get_or_init(|| {
        let mut db = Database::new("obs");
        let mut t = Table::new(TableSchema::new(
            "Employees",
            vec![
                Column::new("Name", ValueType::Text),
                Column::new("Salary", ValueType::Int),
            ],
        ));
        t.push_row(vec![Value::Text("jon".into()), Value::Int(70_000)]);
        t.push_row(vec![Value::Text("ana".into()), Value::Int(82_000)]);
        db.add_table(t);
        let cfg = SpeakQlConfig {
            generator: speakql_grammar::GeneratorConfig {
                max_structures: Some(3_000),
                ..speakql_grammar::GeneratorConfig::small()
            },
            ..SpeakQlConfig::small()
        };
        let plain = SpeakQl::new(&db, cfg.clone().with_observability(false));
        let observed = SpeakQl::new(&db, cfg.with_observability(true));
        (plain, observed)
    })
}

/// Held while a test transcribes on the shared observed engine and reads
/// its report, so one test's transcriptions never land between another's
/// before and after snapshots.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn arb_transcript() -> impl Strategy<Value = String> {
    let word = prop_oneof![
        Just("select".to_string()),
        Just("from".to_string()),
        Just("where".to_string()),
        Just("equals".to_string()),
        Just("salary".to_string()),
        Just("employees".to_string()),
        Just("name".to_string()),
        Just("jon".to_string()),
        Just("comma".to_string()),
        Just("open".to_string()),
        Just("parenthesis".to_string()),
        "[a-z]{1,8}",
        "[0-9]{1,5}",
    ];
    prop::collection::vec(word, 0..18).prop_map(|ws| ws.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Recorder-enabled and recorder-disabled engines are observationally
    /// equivalent: same candidates, same SQL, same distances, same literals,
    /// in the same order, and the same work tally. The enabled engine's
    /// counters grow by exactly that tally (or, for an error, by one on its
    /// class's counter).
    #[test]
    fn observability_never_changes_output(t in arb_transcript()) {
        let (plain, observed) = engines();
        let _serial = serial();
        let before = observed.report();
        let (a, b) = (plain.transcribe(&t), observed.transcribe(&t));
        let after = observed.report();
        let grew = |id: CounterId| after.counter(id) - before.counter(id);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.best_sql(), b.best_sql(), "best_sql diverged on '{}'", &t);
                prop_assert_eq!(a.candidates.len(), b.candidates.len());
                for (ca, cb) in a.candidates.iter().zip(&b.candidates) {
                    prop_assert_eq!(&ca.sql, &cb.sql);
                    prop_assert_eq!(ca.distance, cb.distance);
                    prop_assert_eq!(&ca.literals, &cb.literals);
                }
                prop_assert_eq!(a.work, b.work, "work diverged on '{}'", &t);
                for id in CounterId::ALL {
                    prop_assert_eq!(grew(id), b.work.get(id), "{} on '{}'", id.name(), &t);
                }
            }
            // Error classification must be observation-independent too.
            (Err(ea), Err(eb)) => {
                prop_assert_eq!(&ea, &eb, "error class diverged on '{}'", &t);
                for id in CounterId::ALL {
                    let expected = u64::from(id == eb.counter());
                    prop_assert_eq!(grew(id), expected, "{} on '{}'", id.name(), &t);
                }
            }
            (a, b) => prop_assert!(false, "ok/err diverged on '{}': {:?} vs {:?}", &t, a, b),
        }
    }
}

#[test]
fn only_the_enabled_engine_accumulates_metrics() {
    let (plain, observed) = engines();
    let _serial = serial();
    assert!(plain.transcribe("select salary from employees").is_ok());
    assert!(observed.transcribe("select salary from employees").is_ok());

    let disabled = plain.report();
    for c in &disabled.counters {
        assert_eq!(c.total, 0, "disabled recorder counted {}", c.name);
    }
    for s in &disabled.stages {
        assert_eq!(s.count, 0, "disabled recorder timed {}", s.name);
    }

    let enabled = observed.report();
    assert!(enabled.counter(CounterId::Transcriptions) >= 1);
    assert!(enabled.counter(CounterId::SearchNodesVisited) > 0);
    assert!(enabled.stage(SpanId::Search).unwrap().count >= 1);
}
