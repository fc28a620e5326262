//! Roundtrip test pinning the coverage lint's textual extraction against the
//! real `speakql-observe` crate: the numbers of `CounterId` and `SpanId`
//! variants the lint parses out of `crates/observe/src/lib.rs` must equal
//! `CounterId::ALL.len()` and `SpanId::ALL.len()` as compiled, and the
//! workspace at HEAD must be fully covered (every counter incremented and
//! every span recorded somewhere, every error variant mapped, no undeclared
//! references).

use speakql_analyze::coverage::{check_coverage, CoverageFile};
use speakql_analyze::{discover_sources, lex, LexedFile};
use speakql_observe::{CounterId, SpanId};

#[test]
fn coverage_extraction_matches_compiled_counter_id() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|e| panic!("workspace root must resolve: {e}"));
    let sources = discover_sources(&root)
        .unwrap_or_else(|e| panic!("workspace source discovery must succeed: {e}"));
    let lexed: Vec<(String, LexedFile)> = sources
        .iter()
        .filter(|f| f.in_src)
        .map(|f| (f.rel_path.clone(), lex(&f.content)))
        .collect();
    let files: Vec<CoverageFile> = lexed
        .iter()
        .map(|(rel, lx)| CoverageFile {
            rel_path: rel,
            lexed: lx,
        })
        .collect();
    let (findings, summary) = check_coverage(&files);

    // The lint's textual parse of the taxonomy must agree with the compiled
    // crate — if a variant is added to `CounterId` without the lint seeing
    // it (or vice versa), this pins the drift.
    assert_eq!(
        summary.counters,
        CounterId::ALL.len(),
        "coverage lint parsed {} CounterId variants, but CounterId::ALL has {}",
        summary.counters,
        CounterId::ALL.len()
    );

    assert_eq!(
        summary.spans,
        SpanId::ALL.len(),
        "coverage lint parsed {} SpanId variants, but SpanId::ALL has {}",
        summary.spans,
        SpanId::ALL.len()
    );

    // At HEAD the workspace is fully covered: this is the L008 acceptance
    // bar, enforced here as well as by `--check` in CI.
    assert_eq!(
        summary.covered, summary.counters,
        "every counter must have an increment site"
    );
    assert_eq!(
        summary.spans_covered, summary.spans,
        "every span must have a record_duration site"
    );
    assert!(
        summary.error_variants > 0,
        "SpeakQlError taxonomy must be discovered"
    );
    assert!(
        findings.is_empty(),
        "workspace must be L008-clean at HEAD: {findings:#?}"
    );
}
