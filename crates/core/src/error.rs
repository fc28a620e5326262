//! Typed errors for the SpeakQL pipeline.
//!
//! SpeakQL exists to survive *error-ridden* input (the paper's whole
//! premise), so the engine itself must never answer garbage with a process
//! abort: every failure a transcript can provoke is classified into a
//! [`SpeakQlError`] and returned in that transcript's own result slot.
//! Worker panics are contained at the engine boundary
//! ([`SpeakQl::transcribe`](crate::SpeakQl::transcribe) and friends) and
//! surface as [`SpeakQlError::WorkerPanic`]; in a batch, one poisoned
//! transcript yields one `Err` while every other slot completes normally.
//!
//! Each error class has a dedicated `engine.errors.*` counter
//! ([`CounterId`]) so error rates are observable in production reports and
//! gated by the fault-injection CI harness.

use speakql_observe::CounterId;

/// Everything that can go wrong while transcribing one spoken query.
///
/// The classification is deterministic: the same transcript against the same
/// engine configuration always produces the same variant (worker panics
/// included — a panicking input panics on every replay, not just under
/// unlucky scheduling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpeakQlError {
    /// The transcript contained no words at all (empty or whitespace-only).
    /// There is nothing to search against, so no candidate list — not even a
    /// guessed one — would be meaningful.
    EmptyTranscript,
    /// The transcript exceeded
    /// [`SpeakQlConfig::max_transcript_words`](crate::SpeakQlConfig::max_transcript_words).
    /// The DP search is quadratic in transcript length, so a pathological
    /// input must be rejected up front rather than allowed to monopolize a
    /// worker.
    TranscriptTooLong {
        /// Words in the offending transcript.
        words: usize,
        /// The configured cap it exceeded.
        max: usize,
    },
    /// The structure index holds no structures, so no search can produce a
    /// candidate.
    EmptyIndex,
    /// A pipeline worker panicked; the panic was contained at the engine
    /// boundary and converted into this error instead of unwinding into the
    /// caller (or aborting a whole batch).
    WorkerPanic {
        /// The panic payload's message, when it was a string.
        message: String,
    },
    /// The server's admission queue was full, so the request was shed
    /// instead of queued unboundedly. Overload must degrade into explicit,
    /// fast rejections: an unbounded queue turns a traffic spike into
    /// unbounded tail latency for everyone.
    Overloaded {
        /// Requests already waiting when this one was rejected.
        queued: usize,
        /// The admission queue's configured bound.
        capacity: usize,
    },
    /// The request exceeded its latency budget before a worker could finish
    /// it (typically: it aged out while waiting in the admission queue).
    Timeout {
        /// How long the request had been waiting, in milliseconds.
        waited_ms: u64,
        /// The configured per-request budget, in milliseconds.
        budget_ms: u64,
    },
}

impl SpeakQlError {
    /// Stable machine-readable class name (the suffix of the corresponding
    /// `engine.errors.*` counter).
    pub fn class(&self) -> &'static str {
        match self {
            SpeakQlError::EmptyTranscript => "empty_transcript",
            SpeakQlError::TranscriptTooLong { .. } => "transcript_too_long",
            SpeakQlError::EmptyIndex => "empty_index",
            SpeakQlError::WorkerPanic { .. } => "worker_panic",
            SpeakQlError::Overloaded { .. } => "overloaded",
            SpeakQlError::Timeout { .. } => "timeout",
        }
    }

    /// The observability counter incremented when this error is returned.
    pub fn counter(&self) -> CounterId {
        match self {
            SpeakQlError::EmptyTranscript => CounterId::ErrorsEmptyTranscript,
            SpeakQlError::TranscriptTooLong { .. } => CounterId::ErrorsTranscriptTooLong,
            SpeakQlError::EmptyIndex => CounterId::ErrorsEmptyIndex,
            SpeakQlError::WorkerPanic { .. } => CounterId::ErrorsWorkerPanic,
            SpeakQlError::Overloaded { .. } => CounterId::ErrorsOverloaded,
            SpeakQlError::Timeout { .. } => CounterId::ErrorsTimeout,
        }
    }
}

impl std::fmt::Display for SpeakQlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpeakQlError::EmptyTranscript => {
                write!(f, "transcript contains no words")
            }
            SpeakQlError::TranscriptTooLong { words, max } => {
                write!(
                    f,
                    "transcript has {words} words, exceeding the cap of {max}"
                )
            }
            SpeakQlError::EmptyIndex => {
                write!(f, "structure index is empty; no candidates can exist")
            }
            SpeakQlError::WorkerPanic { message } => {
                write!(f, "pipeline worker panicked: {message}")
            }
            SpeakQlError::Overloaded { queued, capacity } => {
                write!(
                    f,
                    "server overloaded: {queued} requests queued at capacity {capacity}"
                )
            }
            SpeakQlError::Timeout {
                waited_ms,
                budget_ms,
            } => {
                write!(
                    f,
                    "request timed out after {waited_ms}ms (budget {budget_ms}ms)"
                )
            }
        }
    }
}

impl std::error::Error for SpeakQlError {}

/// Extract a human-readable message from a `catch_unwind` payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Result alias for the fallible engine entry points.
pub type SpeakQlResult<T> = Result<T, SpeakQlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SpeakQlError::TranscriptTooLong {
            words: 9000,
            max: 1024,
        };
        let msg = e.to_string();
        assert!(msg.contains("9000") && msg.contains("1024"), "{msg}");
        assert_eq!(e.class(), "transcript_too_long");
    }

    #[test]
    fn classes_and_counters_are_distinct() {
        let errors = [
            SpeakQlError::EmptyTranscript,
            SpeakQlError::TranscriptTooLong { words: 2, max: 1 },
            SpeakQlError::EmptyIndex,
            SpeakQlError::WorkerPanic {
                message: "boom".into(),
            },
            SpeakQlError::Overloaded {
                queued: 8,
                capacity: 8,
            },
            SpeakQlError::Timeout {
                waited_ms: 120,
                budget_ms: 100,
            },
        ];
        for (i, a) in errors.iter().enumerate() {
            for b in &errors[i + 1..] {
                assert_ne!(a.class(), b.class());
                assert_ne!(a.counter(), b.counter());
            }
        }
    }

    #[test]
    fn panic_messages_unwrap_common_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("literal str")).expect_err("must panic");
        assert_eq!(panic_message(caught), "literal str");
        let caught =
            std::panic::catch_unwind(|| panic!("formatted {}", 7)).expect_err("must panic");
        assert_eq!(panic_message(caught), "formatted 7");
    }
}
