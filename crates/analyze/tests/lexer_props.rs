//! Property tests for the lint lexer: `.unwrap()`-looking text inside string
//! literals or comments must never reach the code view, so L001 cannot fire
//! on it.

use proptest::prelude::*;
use speakql_analyze::{lint_source, LintSelection};

/// Only the unwrap/expect lint, so the properties are not polluted by
/// doc-coverage findings on the synthesised items.
fn l001_only() -> LintSelection {
    LintSelection {
        l001: true,
        l002: false,
        l003: false,
        l004: false,
        l009: false,
    }
}

fn count_l001(source: &str) -> usize {
    lint_source("crates/fake/src/lib.rs", source, l001_only()).len()
}

/// Filler that cannot itself introduce `.unwrap()`/`.expect(` or terminate
/// the surrounding literal/comment.
fn filler() -> impl Strategy<Value = String> {
    "[ a-zA-Z0-9_;:=+-]{0,24}"
}

proptest! {
    #[test]
    fn unwrap_in_string_literal_never_fires(pre in filler(), post in filler()) {
        let source = format!("pub fn f() -> &'static str {{\n    \"{pre}.unwrap(){post}\"\n}}\n");
        prop_assert_eq!(count_l001(&source), 0, "source:\n{}", source);
    }

    #[test]
    fn expect_in_raw_string_never_fires(pre in filler(), post in filler()) {
        let source = format!("pub fn f() -> &'static str {{\n    r#\"{pre}.expect({post}\"#\n}}\n");
        prop_assert_eq!(count_l001(&source), 0, "source:\n{}", source);
    }

    #[test]
    fn unwrap_in_line_comment_never_fires(pre in filler(), post in filler()) {
        let source = format!("pub fn f() {{\n    // {pre}.unwrap(){post}\n}}\n");
        prop_assert_eq!(count_l001(&source), 0, "source:\n{}", source);
    }

    #[test]
    fn unwrap_in_block_comment_never_fires(pre in filler(), post in filler()) {
        let source = format!("pub fn f() {{\n    /* {pre}\n       .unwrap() {post}\n    */\n}}\n");
        prop_assert_eq!(count_l001(&source), 0, "source:\n{}", source);
    }

    #[test]
    fn unwrap_in_code_always_fires(pre in filler()) {
        // Control: the same needle in genuine code is always caught.
        let source = format!("pub fn f() {{\n    let _ = {pre};\n    x.unwrap();\n}}\n");
        prop_assert_eq!(count_l001(&source), 1, "source:\n{}", source);
    }

    #[test]
    fn mixed_string_and_code_counts_only_code(n_strings in 1usize..4) {
        let mut source = String::from("pub fn f() {\n");
        for i in 0..n_strings {
            source.push_str(&format!("    let s{i} = \".unwrap()\";\n"));
        }
        source.push_str("    real.unwrap();\n}\n");
        prop_assert_eq!(count_l001(&source), 1, "source:\n{}", source);
    }
}
