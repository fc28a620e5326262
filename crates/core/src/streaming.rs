//! Streaming transcription: the interactive display updates live while the
//! user is still speaking (paper §5 — the query renders on screen as it is
//! dictated; modern ASR APIs deliver partial hypotheses word by word).
//!
//! [`StreamingTranscriber`] maintains the best correction for the words
//! received so far. Re-searching on every word is affordable because the
//! structure search runs in well under a millisecond, and every successful
//! refresh replaces the rendering with the new transcription.
//!
//! Errors never interrupt a dictation: when a refresh fails (e.g. the
//! growing hypothesis exceeds the word cap), the previous rendering stays on
//! screen and the typed error is parked in [`StreamingTranscriber::last_error`]
//! until a later refresh succeeds.

use crate::engine::{SpeakQl, Transcription};
use crate::error::SpeakQlError;

/// Incremental transcription session over one utterance.
pub struct StreamingTranscriber<'a> {
    engine: &'a SpeakQl,
    words: Vec<String>,
    last: Option<Transcription>,
    /// The error from the most recent refresh, if it failed.
    error: Option<SpeakQlError>,
    /// Count of re-searches performed (for instrumentation).
    updates: usize,
}

impl<'a> StreamingTranscriber<'a> {
    /// Start an empty dictation session against `engine`.
    pub fn new(engine: &'a SpeakQl) -> StreamingTranscriber<'a> {
        StreamingTranscriber {
            engine,
            words: Vec::new(),
            last: None,
            error: None,
            updates: 0,
        }
    }

    /// Feed the next recognized word; returns the refreshed best SQL.
    pub fn push_word(&mut self, word: &str) -> Option<&str> {
        self.words.push(word.to_string());
        self.refresh();
        self.best_sql()
    }

    /// Feed several words at once (a partial-hypothesis chunk).
    pub fn push_words<I: IntoIterator<Item = S>, S: Into<String>>(
        &mut self,
        words: I,
    ) -> Option<&str> {
        for w in words {
            self.words.push(w.into());
        }
        self.refresh();
        self.best_sql()
    }

    /// Replace the whole hypothesis (ASR partials are revisable).
    pub fn set_hypothesis(&mut self, transcript: &str) {
        self.words = transcript
            .split_whitespace()
            .map(|w| w.to_string())
            .collect();
        self.refresh();
    }

    /// The words received so far.
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// Current best corrected SQL.
    pub fn best_sql(&self) -> Option<&str> {
        self.last.as_ref().and_then(|t| t.best_sql())
    }

    /// Current full transcription state.
    pub fn current(&self) -> Option<&Transcription> {
        self.last.as_ref()
    }

    /// The error from the most recent refresh, or `None` when it succeeded.
    /// A failed refresh keeps the previous [`Self::best_sql`] on display.
    pub fn last_error(&self) -> Option<&SpeakQlError> {
        self.error.as_ref()
    }

    /// Number of engine re-searches performed so far.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Finalize the utterance, returning the last transcription.
    pub fn finish(mut self) -> Option<Transcription> {
        if self.last.is_none() && !self.words.is_empty() {
            self.refresh();
        }
        self.last
    }

    fn refresh(&mut self) {
        if self.words.is_empty() {
            self.last = None;
            self.error = None;
            return;
        }
        let transcript = self.words.join(" ");
        self.updates += 1;
        match self.engine.transcribe(&transcript) {
            Ok(next) => {
                self.last = Some(next);
                self.error = None;
            }
            // A failed refresh must not blank the display mid-dictation:
            // keep the last good rendering and surface the typed error.
            Err(e) => self.error = Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SpeakQlConfig;
    use speakql_db::{Column, Database, Table, TableSchema, Value, ValueType};

    fn engine() -> &'static SpeakQl {
        static E: std::sync::OnceLock<SpeakQl> = std::sync::OnceLock::new();
        E.get_or_init(|| {
            let mut db = Database::new("s");
            let mut t = Table::new(TableSchema::new(
                "Employees",
                vec![
                    Column::new("Name", ValueType::Text),
                    Column::new("Salary", ValueType::Int),
                ],
            ));
            t.push_row(vec![Value::Text("John".into()), Value::Int(70000)]);
            db.add_table(t);
            SpeakQl::new(&db, SpeakQlConfig::small())
        })
    }

    /// Assert-unwrap an optional SQL rendering.
    fn sql(s: Option<&str>) -> &str {
        match s {
            Some(s) => s,
            None => panic!("no rendering available"),
        }
    }

    #[test]
    fn grows_toward_the_full_query() {
        let mut s = StreamingTranscriber::new(engine());
        s.push_words(["select", "salary"]);
        let early = sql(s.best_sql()).to_string();
        assert!(early.starts_with("SELECT"), "{early}");
        s.push_words(["from", "employees", "where", "name", "equals", "john"]);
        assert_eq!(
            sql(s.best_sql()),
            "SELECT Salary FROM Employees WHERE Name = 'John'"
        );
        assert_eq!(s.updates(), 2);
    }

    #[test]
    fn hypothesis_revision_replaces_words() {
        let mut s = StreamingTranscriber::new(engine());
        s.push_word("select");
        s.set_hypothesis("select salary from employees");
        assert_eq!(s.words().len(), 4);
        assert_eq!(sql(s.best_sql()), "SELECT Salary FROM Employees");
    }

    #[test]
    fn word_at_a_time_matches_batch() {
        let transcript = "select salary from employees";
        let mut s = StreamingTranscriber::new(engine());
        for w in transcript.split_whitespace() {
            s.push_word(w);
        }
        let streamed = match s.finish() {
            Some(t) => t,
            None => panic!("stream produced no transcription"),
        };
        let batch = match engine().transcribe(transcript) {
            Ok(t) => t,
            Err(e) => panic!("transcription failed: {e}"),
        };
        assert_eq!(streamed.best_sql(), batch.best_sql());
    }

    #[test]
    fn empty_stream() {
        let s = StreamingTranscriber::new(engine());
        assert!(s.best_sql().is_none());
        assert!(s.finish().is_none());
    }

    #[test]
    fn failed_refresh_keeps_previous_rendering() {
        let mut db = Database::new("cap");
        let mut t = Table::new(TableSchema::new(
            "Employees",
            vec![Column::new("Salary", ValueType::Int)],
        ));
        t.push_row(vec![Value::Int(1)]);
        db.add_table(t);
        let engine = SpeakQl::new(&db, SpeakQlConfig::small().with_max_transcript_words(4));
        let mut s = StreamingTranscriber::new(&engine);
        s.push_words(["select", "salary", "from", "employees"]);
        let good = sql(s.best_sql()).to_string();
        assert!(s.last_error().is_none());
        // The fifth word pushes the hypothesis over the cap: the display
        // keeps the last good rendering and the error is surfaced.
        s.push_word("overflow");
        assert_eq!(sql(s.best_sql()), good);
        assert!(matches!(
            s.last_error(),
            Some(SpeakQlError::TranscriptTooLong { words: 5, max: 4 })
        ));
    }
}
