//! # speakql-analyze
//!
//! Offline static analysis for the SpeakQL workspace. Three engines:
//!
//! 1. **Source lints** ([`lints`]) — a hand-rolled, string/char/comment-aware
//!    Rust lexer ([`lexer`]) drives lints L001–L004 and L009 over every
//!    first-party crate, plus vendored-source integrity (L005, [`vendor`]).
//! 2. **Observability coverage** (L008, [`coverage`]) — a lightweight
//!    symbol layer ([`symbols`]) over the lexer checks that every declared
//!    counter has an increment site and every error variant is counted.
//! 3. **Grammar verifier** ([`grammar_check`]) — cross-checks the Box 1
//!    production rules against the Keyword/SplChar dictionaries, the Earley
//!    recognizer, and the Structure Generator's placeholder typing.
//!
//! All run in CI via `cargo run -p speakql-analyze -- --check`, where any
//! finding fails; see the README's "Static analysis" section for the lint
//! catalog.

#![forbid(unsafe_code)]

pub mod coverage;
pub mod grammar_check;
pub mod lexer;
pub mod lints;
pub mod symbols;
pub mod vendor;
pub mod workspace;

pub use lexer::{lex, LexedFile, LexedLine};
pub use lints::{lint_source, selection_for, Finding, LintSelection};
pub use workspace::{discover_sources, SourceFile};
