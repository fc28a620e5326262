//! Property tests for the semantic lints (L008, L009): panic, indexing and
//! counter needles inside string literals, comments, and doc comments must
//! be invisible to the analysis, while the same needles in genuine code
//! always fire.

use proptest::prelude::*;
use speakql_analyze::coverage::{check_coverage, CoverageFile, OBSERVE_PATH};
use speakql_analyze::{lex, lint_source, LintSelection};

/// Filler that cannot itself introduce a lint needle or terminate the
/// surrounding literal/comment (no `.`, `(`, `)`, `"`, `!`, `[`, `*`, `/`).
fn filler() -> impl Strategy<Value = String> {
    "[ a-zA-Z0-9_;:=+-]{0,24}"
}

fn l009_only() -> LintSelection {
    LintSelection {
        l001: false,
        l002: false,
        l003: false,
        l004: false,
        l009: true,
    }
}

const OBSERVE_SRC: &str = "pub enum CounterId {\n    Hits,\n    Misses,\n}\n\
     impl CounterId {\n    pub const ALL: [CounterId; 2] = [\n        CounterId::Hits,\n        \
     CounterId::Misses,\n    ];\n}\n";

/// Coverage findings when `user_src` is scanned against a two-counter
/// taxonomy that is itself fully covered by `base_src`.
fn coverage_findings(user_src: &str) -> Vec<speakql_analyze::Finding> {
    let observe = lex(OBSERVE_SRC);
    let base = lex(
        "fn base(r: &Recorder) {\n    r.incr(CounterId::Hits);\n    \
         r.incr(CounterId::Misses);\n}\n",
    );
    let user = lex(user_src);
    let files = [
        (OBSERVE_PATH, &observe),
        ("crates/x/src/base.rs", &base),
        ("crates/x/src/user.rs", &user),
    ];
    let files: Vec<CoverageFile> = files
        .iter()
        .map(|(p, l)| CoverageFile {
            rel_path: p,
            lexed: l,
        })
        .collect();
    check_coverage(&files).0
}

proptest! {
    // ---- L009: panics in `pub` API functions ----

    #[test]
    fn panic_in_string_never_fires_l009(pre in filler(), post in filler()) {
        let source = format!(
            "pub fn api() -> &'static str {{\n    \"{pre}panic!({post}\"\n}}\n"
        );
        let findings = lint_source("crates/core/src/fake.rs", &source, l009_only());
        prop_assert!(findings.is_empty(), "source:\n{source}\nfindings: {findings:?}");
    }

    #[test]
    fn panic_in_comment_or_doc_never_fires_l009(pre in filler(), post in filler()) {
        let source = format!(
            "/// {pre} may panic!( on bad input {post}\npub fn api() {{\n    \
             // {pre} unreachable!( here {post}\n    let x = 1;\n}}\n"
        );
        let findings = lint_source("crates/core/src/fake.rs", &source, l009_only());
        prop_assert!(findings.is_empty(), "source:\n{source}\nfindings: {findings:?}");
    }

    #[test]
    fn indexing_in_string_never_fires_l009(pre in filler(), post in filler()) {
        let source = format!(
            "pub fn api() -> &'static str {{\n    \"{pre}xs[0]{post}\"\n}}\n"
        );
        let findings = lint_source("crates/core/src/fake.rs", &source, l009_only());
        prop_assert!(findings.is_empty(), "source:\n{source}\nfindings: {findings:?}");
    }

    #[test]
    fn panic_in_pub_fn_code_always_fires(pre in filler()) {
        // Control: a genuine panic at the API boundary is always caught.
        let source = format!(
            "pub fn api() {{\n    let s = \"{pre}\";\n    panic!(\"boom\");\n}}\n"
        );
        let findings = lint_source("crates/core/src/fake.rs", &source, l009_only());
        prop_assert_eq!(findings.len(), 1, "source:\n{}", source);
        prop_assert_eq!(findings[0].lint, "L009");
    }

    // ---- L008: counter references in strings/comments are invisible ----

    #[test]
    fn counter_ref_in_string_is_invisible(pre in filler(), post in filler()) {
        let user = format!(
            "fn f() -> &'static str {{\n    \"{pre}CounterId::Ghost{post}\"\n}}\n"
        );
        let findings = coverage_findings(&user);
        prop_assert!(findings.is_empty(), "source:\n{user}\nfindings: {findings:?}");
    }

    #[test]
    fn counter_ref_in_comment_is_invisible(pre in filler(), post in filler()) {
        let user = format!(
            "fn f() {{\n    // {pre} CounterId::Ghost {post}\n    let x = 1;\n}}\n"
        );
        let findings = coverage_findings(&user);
        prop_assert!(findings.is_empty(), "source:\n{user}\nfindings: {findings:?}");
    }

    #[test]
    fn undeclared_counter_in_code_always_fires(pre in filler()) {
        // Control: a genuine undeclared reference is always caught.
        let user = format!(
            "fn f(r: &Recorder) {{\n    let s = \"{pre}\";\n    r.incr(CounterId::Ghost);\n}}\n"
        );
        let findings = coverage_findings(&user);
        prop_assert_eq!(findings.len(), 1, "source:\n{}", user);
        prop_assert!(findings[0].message.contains("Ghost"));
    }
}
