//! Answer checks and accuracy scoring.
//!
//! Every read is compared byte for byte with the library path: a fresh,
//! cache-less [`SpeakQl`] engine over the database and index the tenant had
//! committed when the read was sent. Writers bump a tenant's version around
//! each registration ([`Versions`]), so a read knows the range of versions
//! its engine could have come from: a read in flight across a swap may match
//! either side, every other read has exactly one expected answer.

use speakql_core::SpeakQl;
use speakql_grammar::{tokenize_sql, StructTokId, Structure};
use speakql_server::Response;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

/// What the library path answers for `transcript`.
pub fn reference(engine: &SpeakQl, transcript: &str) -> Response {
    match engine.transcribe(transcript) {
        Ok(t) => Response::Ok {
            sql: t.best_sql().unwrap_or_default().to_string(),
        },
        Err(e) => Response::Err {
            class: e.class().to_string(),
            message: e.to_string(),
        },
    }
}

/// Per-tenant committed and pending version numbers.
///
/// A writer calls [`Versions::begin`] before registering version `v` and
/// [`Versions::commit`] after the registration returned. A reader loads
/// the committed version before sending and the pending version after the
/// answer arrives: the engine that answered was registered no earlier than
/// the first and no later than the second.
pub struct Versions {
    committed: Vec<AtomicU32>,
    pending: Vec<AtomicU32>,
}

impl Versions {
    /// Every tenant at version 0.
    pub fn new(tenants: usize) -> Versions {
        Versions {
            committed: (0..tenants).map(|_| AtomicU32::new(0)).collect(),
            pending: (0..tenants).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Announce the next version of `tenant`, returning its number.
    // ordering: SeqCst on both counters, so a reader that observes a
    // version also observes every registration ordered before it.
    pub fn begin(&self, tenant: usize) -> u32 {
        self.pending[tenant].fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Mark version `v` of `tenant` as registered.
    pub fn commit(&self, tenant: usize, v: u32) {
        self.committed[tenant].store(v, Ordering::SeqCst);
    }

    /// Lowest version a read sent now can be answered from.
    pub fn before_send(&self, tenant: usize) -> u32 {
        self.committed[tenant].load(Ordering::SeqCst)
    }

    /// Highest version a read answered by now can have been answered from.
    pub fn after_receive(&self, tenant: usize) -> u32 {
        self.pending[tenant].load(Ordering::SeqCst)
    }
}

/// Reference answers per (tenant, version), by transcript.
#[derive(Default)]
pub struct Expected {
    answers: HashMap<(usize, u32), HashMap<String, Response>>,
}

impl Expected {
    /// Record the reference answers of `tenant` at `version` for
    /// `transcripts`, computed on `engine`.
    pub fn compute<'a>(
        &mut self,
        tenant: usize,
        version: u32,
        engine: &SpeakQl,
        transcripts: impl IntoIterator<Item = &'a str>,
    ) {
        let slot = self.answers.entry((tenant, version)).or_default();
        for t in transcripts {
            if !slot.contains_key(t) {
                slot.insert(t.to_string(), reference(engine, t));
            }
        }
    }

    /// Record one already computed reference answer.
    pub fn insert(&mut self, tenant: usize, version: u32, transcript: &str, answer: Response) {
        self.answers
            .entry((tenant, version))
            .or_default()
            .insert(transcript.to_string(), answer);
    }

    /// The reference answer of `tenant` at `version`, if computed.
    pub fn get(&self, tenant: usize, version: u32, transcript: &str) -> Option<&Response> {
        self.answers.get(&(tenant, version))?.get(transcript)
    }

    /// Check one read sent at committed version `lo` and answered by
    /// pending version `hi`.
    pub fn check(
        &self,
        tenant: usize,
        lo: u32,
        hi: u32,
        transcript: &str,
        answer: &Response,
    ) -> Verdict {
        let mut known = false;
        for v in lo..=hi {
            if let Some(expected) = self.get(tenant, v, transcript) {
                known = true;
                if expected == answer {
                    return Verdict::Ok;
                }
            }
        }
        match (known, answer) {
            (false, _) => Verdict::NoReference,
            (true, Response::Err { .. }) => Verdict::Error,
            (true, Response::Ok { .. }) => Verdict::Wrong,
        }
    }
}

/// Outcome of one read check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Byte-identical to an admissible reference.
    Ok,
    /// A different SQL answer.
    Wrong,
    /// A typed error where the reference answered.
    Error,
    /// No reference was computed for the admissible versions (a
    /// benchmark bug; counted as a failure so it cannot pass silently).
    NoReference,
}

/// Failure counts by class.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Failures {
    /// Probe reads for a catalog update answered from the old catalog.
    pub stale_catalog: u64,
    /// Other reads answered with different SQL.
    pub wrong: u64,
    /// Reads answered with a typed error.
    pub error: u64,
    /// Reads with no reference answer.
    pub no_reference: u64,
}

impl Failures {
    /// Count a read; `stale` marks a catalog-update probe answered as the
    /// tenant's original catalog answers it.
    pub fn count(&mut self, verdict: Verdict, stale: bool) {
        match verdict {
            Verdict::Ok => {}
            Verdict::Wrong if stale => self.stale_catalog += 1,
            Verdict::Wrong => self.wrong += 1,
            Verdict::Error => self.error += 1,
            Verdict::NoReference => self.no_reference += 1,
        }
    }

    /// All failures.
    pub fn total(&self) -> u64 {
        self.stale_catalog + self.wrong + self.error + self.no_reference
    }
}

/// The masked structure of a SQL text (literals replaced by placeholders).
pub fn structure_of(sql: &str) -> Vec<StructTokId> {
    Structure::mask_of(&tokenize_sql(sql))
}

/// Paper §6.2 scores of one answer against its ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Word recall rate.
    pub wrr: f64,
    /// Literal recall rate.
    pub lrr: f64,
    /// 1 when the answer's structure equals the ground truth's (TED 0).
    pub structure_exact: f64,
}

/// Score `answer` against the ground-truth SQL `truth`.
pub fn score(truth: &str, answer: &Response) -> Score {
    match answer {
        Response::Ok { sql } => {
            let acc = speakql_metrics::accuracy(truth, sql);
            // TED 0 between token sequences means they are equal.
            let exact = structure_of(truth) == structure_of(sql);
            Score {
                wrr: acc.wrr,
                lrr: acc.lrr,
                structure_exact: if exact { 1.0 } else { 0.0 },
            }
        }
        Response::Err { .. } => Score {
            wrr: 0.0,
            lrr: 0.0,
            structure_exact: 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::engine_config;
    use crate::inputs::{databases, employees_with_rows, probes};
    use speakql_editdist::Weights;
    use speakql_grammar::GeneratorConfig;
    use speakql_index::{IndexDelta, StructureIndex};
    use std::sync::Arc;

    fn small_index() -> Arc<StructureIndex> {
        let cfg = GeneratorConfig {
            max_structures: Some(20_000),
            ..GeneratorConfig::small()
        };
        Arc::new(StructureIndex::from_grammar(&cfg, Weights::PAPER))
    }

    fn ok(sql: &str) -> Response {
        Response::Ok { sql: sql.into() }
    }

    #[test]
    fn versions_bracket_reads_across_a_swap() {
        let v = Versions::new(2);
        assert_eq!((v.before_send(0), v.after_receive(0)), (0, 0));
        let next = v.begin(0);
        // A read sent now may be answered by version 0 or 1 ...
        assert_eq!((v.before_send(0), v.after_receive(0)), (0, 1));
        v.commit(0, next);
        // ... and once the swap is committed, only by version 1.
        assert_eq!((v.before_send(0), v.after_receive(0)), (1, 1));
        assert_eq!((v.before_send(1), v.after_receive(1)), (0, 0));
    }

    #[test]
    fn a_read_straddling_a_swap_may_match_either_version() {
        let mut e = Expected::default();
        e.insert(0, 0, "q", ok("OLD"));
        e.insert(0, 1, "q", ok("NEW"));
        assert_eq!(e.check(0, 0, 1, "q", &ok("OLD")), Verdict::Ok);
        assert_eq!(e.check(0, 0, 1, "q", &ok("NEW")), Verdict::Ok);
        assert_eq!(e.check(0, 1, 1, "q", &ok("OLD")), Verdict::Wrong);
        assert_eq!(e.check(0, 0, 0, "q", &ok("NEW")), Verdict::Wrong);
        assert_eq!(e.check(0, 2, 2, "q", &ok("NEW")), Verdict::NoReference);
        let err = Response::Err {
            class: "overloaded".into(),
            message: String::new(),
        };
        assert_eq!(e.check(0, 1, 1, "q", &err), Verdict::Error);
    }

    /// The catalog-update versions expect the new row, and the stale answer
    /// a registry that ignored the update would give is classed as such.
    #[test]
    fn catalog_versions_expect_the_new_row() {
        let index = small_index();
        let base = databases()[0].clone();
        let probe = &probes(0)[0].transcript;
        let before = SpeakQl::with_index(&base, Arc::clone(&index), engine_config());
        let after = SpeakQl::with_index(
            &employees_with_rows(&base, 1),
            Arc::clone(&index),
            engine_config(),
        );
        let mut e = Expected::default();
        e.compute(0, 0, &before, [probe.as_str()]);
        e.compute(0, 1, &after, [probe.as_str()]);
        let fresh = e.get(0, 1, probe).cloned().expect("computed");
        let stale = e.get(0, 0, probe).cloned().expect("computed");
        assert!(matches!(&fresh, Response::Ok { sql } if sql.contains("'Zebulon'")));
        assert_ne!(fresh, stale);
        assert_eq!(e.check(0, 1, 1, probe, &fresh), Verdict::Ok);
        let verdict = e.check(0, 1, 1, probe, &stale);
        assert_eq!(verdict, Verdict::Wrong);
        let mut failures = Failures::default();
        failures.count(verdict, e.get(0, 0, probe) == Some(&stale));
        failures.count(Verdict::Error, false);
        assert_eq!(
            (failures.stale_catalog, failures.error, failures.total()),
            (1, 1, 2)
        );
    }

    /// An index delta that removes a transcript's best structure changes
    /// its expected answer, and the versions keep old and new apart.
    #[test]
    fn delta_versions_track_the_removed_structure() {
        let index = small_index();
        let db = databases()[0].clone();
        let text = "select first name from employees where last name equals facello";
        let v0 = SpeakQl::with_index(&db, Arc::clone(&index), engine_config());
        let best = v0.transcribe(text).expect("transcribes").candidates[0].clone();
        let id = (0..index.arena_len() as u32)
            .find(|&id| index.structure_tokens(id) == best.structure.tokens.as_slice())
            .expect("best structure is in the index");
        let (next, _) = index
            .apply_delta(&IndexDelta::new().remove_structures([id]))
            .expect("delta applies");
        let v1 = SpeakQl::with_index(&db, Arc::new(next), engine_config());
        let mut e = Expected::default();
        e.compute(0, 0, &v0, [text]);
        e.compute(0, 1, &v1, [text]);
        let (old, new) = (e.get(0, 0, text).cloned(), e.get(0, 1, text).cloned());
        assert_ne!(old, new);
        assert_eq!(old, Some(reference(&v0, text)));
        assert_eq!(
            e.check(0, 1, 1, text, &old.expect("computed")),
            Verdict::Wrong
        );
    }

    #[test]
    fn scores_follow_the_paper_metrics() {
        let truth = "SELECT FirstName FROM Employees WHERE LastName = 'Facello'";
        let same = score(truth, &ok(truth));
        assert_eq!((same.wrr, same.lrr, same.structure_exact), (1.0, 1.0, 1.0));
        let literal_off = score(
            truth,
            &ok("SELECT FirstName FROM Employees WHERE LastName = 'Simmel'"),
        );
        assert_eq!(literal_off.structure_exact, 1.0);
        assert!(literal_off.lrr < 1.0);
        let structure_off = score(truth, &ok("SELECT FirstName FROM Employees"));
        assert_eq!(structure_off.structure_exact, 0.0);
    }
}
