//! # speakql-bench
//!
//! Experiment harness for SpeakQL-rs: shared context (dataset, index,
//! engines, ASR profiles) and per-case evaluation plumbing. The
//! `experiments` binary regenerates every table and figure of the paper.

#![forbid(unsafe_code)]

pub mod context;
pub mod experiments;
pub mod fault;
pub mod gate;
pub mod load;
pub mod report;
pub mod runs;
pub mod suite;
pub mod synthetic;

pub use context::{Context, Scale};
pub use runs::{run_case, run_split, CaseRun};
pub use suite::Suite;
