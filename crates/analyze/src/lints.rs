//! Per-file source lints over the lexed code view.
//!
//! | Lint | Fires on |
//! |------|----------|
//! | L001 | `.unwrap()` / `.expect(` anywhere under a crate's `src/`, test modules included |
//! | L002 | atomic `Ordering::*` without a nearby `// ordering:` comment, outside the whitelist |
//! | L003 | lossy `as` numeric narrowing in the configured serialization hot-spots |
//! | L004 | missing `///` docs on public items of library sources |
//! | L009 | panics and unchecked indexing inside `pub` functions of core/server |
//!
//! (L005, the vendored-dependency integrity check, is driven from `main`;
//! L008, counter/error taxonomy drift, is a whole-workspace pass in
//! [`crate::coverage`].)
//!
//! All lints match against the lexer's code view ([`crate::lexer`]), so text
//! inside string literals and comments can never fire.

use crate::lexer::{lex, LexedFile};
use crate::symbols::{functions, line_owners};
use crate::workspace::SourceFile;

/// A single lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The lint code, e.g. `L001`.
    pub lint: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}",
            self.lint, self.path, self.line, self.message
        )
    }
}

/// Which lints apply to a given file.
#[derive(Debug, Clone, Copy)]
pub struct LintSelection {
    /// Run L001 (unwrap/expect).
    pub l001: bool,
    /// Run L002 (atomic ordering justification).
    pub l002: bool,
    /// Run L003 (lossy numeric narrowing).
    pub l003: bool,
    /// Run L004 (missing docs on public items).
    pub l004: bool,
    /// Run L009 (panic paths inside `pub` API functions).
    pub l009: bool,
}

impl LintSelection {
    /// Every lint enabled — used for `--file` mode and lint fixtures.
    pub fn all() -> LintSelection {
        LintSelection {
            l001: true,
            l002: true,
            l003: true,
            l004: true,
            l009: true,
        }
    }
}

/// Files whose atomic `Ordering` uses are exempt from L002: the lock-free
/// observability layer and the two engine hot paths, where orderings are
/// pervasive and reviewed as a unit.
const L002_WHITELIST_PREFIXES: [&str; 3] = [
    "crates/observe/",
    "crates/index/src/search.rs",
    "crates/core/src/engine.rs",
];

/// Files where lossy `as` narrowing is linted (L003): the binary
/// serialization paths, where a silently truncated length corrupts data at
/// rest.
const L003_FILES: [&str; 2] = ["crates/db/src/parser.rs", "crates/index/src/persist.rs"];

/// Decide which lints apply to a workspace file, per the policy above.
pub fn selection_for(file: &SourceFile) -> LintSelection {
    let p = file.rel_path.as_str();
    LintSelection {
        // All of src/, #[cfg(test)] modules and binaries included;
        // integration tests and benches are exempt (panicking on bad
        // fixtures is their job).
        l001: file.in_src,
        l002: file.in_src && !L002_WHITELIST_PREFIXES.iter().any(|w| p.starts_with(w)),
        l003: L003_FILES.contains(&p),
        // Docs are a library contract: skip binary entry points and
        // test modules (handled per-line via the lexer's test-mod marking).
        l004: file.in_src && !file.is_binary_entry,
        // Panic-freedom is an API contract of the two crates external
        // callers embed.
        l009: file.in_src
            && (p.starts_with("crates/core/src/") || p.starts_with("crates/server/src/")),
    }
}

/// Lint one source file. `rel_path` is used only for reporting.
pub fn lint_source(rel_path: &str, source: &str, sel: LintSelection) -> Vec<Finding> {
    let lexed = lex(source);
    let mut findings = Vec::new();
    if sel.l001 {
        l001_unwrap(rel_path, &lexed, &mut findings);
    }
    if sel.l002 {
        l002_ordering(rel_path, &lexed, &mut findings);
    }
    if sel.l003 {
        l003_lossy_cast(rel_path, &lexed, &mut findings);
    }
    if sel.l004 {
        l004_missing_docs(rel_path, &lexed, &mut findings);
    }
    if sel.l009 {
        l009_api_panics(rel_path, &lexed, &mut findings);
    }
    findings
}

/// L001: `.unwrap()` / `.expect(` — panics are not error handling.
fn l001_unwrap(path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    for line in &lexed.lines {
        for needle in [".unwrap()", ".expect("] {
            for _ in line.code.matches(needle) {
                out.push(Finding {
                    lint: "L001",
                    path: path.to_string(),
                    line: line.number,
                    message: format!("`{needle}` panics on failure; propagate the error instead"),
                });
            }
        }
    }
}

/// How many preceding lines an `// ordering:` / `// lossy:` justification
/// comment may sit above the code it justifies.
const JUSTIFICATION_WINDOW: usize = 3;

/// True if the comment on `lines[idx]` or one of the `JUSTIFICATION_WINDOW`
/// lines above it contains `marker` (case-insensitive).
fn justified(lexed: &LexedFile, idx: usize, marker: &str) -> bool {
    let lo = idx.saturating_sub(JUSTIFICATION_WINDOW);
    lexed.lines[lo..=idx]
        .iter()
        .any(|l| l.comment.to_ascii_lowercase().contains(marker))
}

/// L002: atomic memory orderings must carry a `// ordering:` justification —
/// `Relaxed` vs `Acquire` is a correctness decision, not a default.
fn l002_ordering(path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    const ORDERINGS: [&str; 5] = [
        "Ordering::Relaxed",
        "Ordering::Acquire",
        "Ordering::Release",
        "Ordering::AcqRel",
        "Ordering::SeqCst",
    ];
    for (idx, line) in lexed.lines.iter().enumerate() {
        let hits: usize = ORDERINGS.iter().map(|o| line.code.matches(o).count()).sum();
        if hits > 0 && !justified(lexed, idx, "ordering:") {
            out.push(Finding {
                lint: "L002",
                path: path.to_string(),
                line: line.number,
                message: "atomic Ordering without a `// ordering:` justification comment"
                    .to_string(),
            });
        }
    }
}

/// Narrowing targets for L003. Widening casts (`as u64`, `as usize`, `as
/// f64`) are exempt: they cannot lose integer precision from this codebase's
/// source types.
const NARROW_TARGETS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// L003: `x as u8`-style narrowing silently truncates; serialization paths
/// must use checked conversions (`u8::try_from`).
fn l003_lossy_cast(path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    for (idx, line) in lexed.lines.iter().enumerate() {
        let words = code_words(&line.code);
        for pair in words.windows(2) {
            if pair[0] == "as"
                && NARROW_TARGETS.contains(&pair[1])
                && !justified(lexed, idx, "lossy:")
            {
                out.push(Finding {
                    lint: "L003",
                    path: path.to_string(),
                    line: line.number,
                    message: format!(
                        "lossy `as {}` narrowing; use `{}::try_from` or add a `// lossy:` justification",
                        pair[1], pair[1]
                    ),
                });
            }
        }
    }
}

/// Split a code view into identifier-shaped words.
fn code_words(code: &str) -> Vec<&str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// Item-introducing keywords for L004.
const ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "mod", "static", "const", "union",
];

/// L004: public items of library sources need `///` docs.
fn l004_missing_docs(path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    for (idx, line) in lexed.lines.iter().enumerate() {
        if line.in_test_mod {
            continue;
        }
        let code = line.code.trim_start();
        // `pub ` only: pub(crate)/pub(super) items are not API surface.
        let Some(rest) = code.strip_prefix("pub ") else {
            continue;
        };
        let words = code_words(rest);
        // Skip qualifiers to find the item keyword; `pub use` re-exports
        // inherit docs from their target.
        let mut item = None;
        for (i, w) in words.iter().enumerate().take(4) {
            if *w == "use" {
                break;
            }
            let qualifier = ["unsafe", "async", "extern"].contains(w)
                || (*w == "const" && words.get(i + 1) == Some(&"fn"));
            if qualifier {
                continue;
            }
            if ITEM_KEYWORDS.contains(w) {
                item = Some(*w);
            }
            break;
        }
        let Some(item) = item else { continue };
        // `pub mod foo;` is an out-of-line module: its docs are the `//!`
        // block inside the module file, invisible from here.
        if item == "mod" && code.trim_end().ends_with(';') {
            continue;
        }
        if !has_doc_above(lexed, idx) {
            let name = words
                .iter()
                .skip_while(|w| **w != item)
                .nth(1)
                .unwrap_or(&"?");
            out.push(Finding {
                lint: "L004",
                path: path.to_string(),
                line: line.number,
                message: format!("public {item} `{name}` is missing `///` docs"),
            });
        }
    }
}

/// Panic macros that abort a request when reached.
const L009_MACROS: [&str; 4] = ["panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// L009: `pub` functions are the API boundary of core/server — a panic
/// there escapes into the embedding caller. Flags panic-family macros and
/// unchecked indexing/slicing (`x[i]`, `&s[a..b]`) inside `pub fn` bodies.
/// A bounds argument proven elsewhere is waived with a nearby
/// `// panic-safe:` comment.
fn l009_api_panics(path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    let fns = functions(lexed);
    let owners = line_owners(lexed, &fns);
    for (idx, line) in lexed.lines.iter().enumerate() {
        if line.in_test_mod {
            continue;
        }
        let Some(owner) = owners[idx] else { continue };
        let f = &fns[owner];
        if !f.is_pub || f.in_test_mod {
            continue;
        }
        if justified(lexed, idx, "panic-safe:") {
            continue;
        }
        for needle in L009_MACROS {
            for _ in line.code.matches(needle) {
                out.push(Finding {
                    lint: "L009",
                    path: path.to_string(),
                    line: line.number,
                    message: format!(
                        "`{}` inside public API fn `{}`; return a typed error or add a \
                         `// panic-safe:` justification",
                        needle.trim_end_matches('('),
                        f.name
                    ),
                });
            }
        }
        // Indexing: a `[` whose previous non-space character ends an
        // expression (identifier, `]`, or `)`). Attribute `#[`, macro
        // `vec![`, and type positions `&[u8]` / `: [u8; N]` all fail that
        // test and never fire.
        let chars: Vec<char> = line.code.chars().collect();
        for (i, c) in chars.iter().enumerate() {
            if *c != '[' {
                continue;
            }
            let prev = chars[..i].iter().rev().find(|p| !p.is_whitespace());
            let indexes_expr =
                prev.is_some_and(|p| p.is_alphanumeric() || *p == '_' || *p == ']' || *p == ')');
            if indexes_expr {
                out.push(Finding {
                    lint: "L009",
                    path: path.to_string(),
                    line: line.number,
                    message: format!(
                        "unchecked indexing inside public API fn `{}`; use `.get(..)` or add a \
                         `// panic-safe:` justification",
                        f.name
                    ),
                });
            }
        }
    }
}

/// Walk upward from the item line over attributes, blank lines, and plain
/// comments; true if a doc comment is found before other code.
fn has_doc_above(lexed: &LexedFile, item_idx: usize) -> bool {
    for line in lexed.lines[..item_idx].iter().rev() {
        if line.is_doc_comment {
            return true;
        }
        let code = line.code.trim();
        let is_attr = code.starts_with("#[") || code.ends_with(")]");
        if !code.is_empty() && !is_attr {
            return false;
        }
        if code.is_empty() && line.comment.is_empty() {
            // blank line: docs do not attach across them in practice
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        lint_source("test.rs", src, LintSelection::all())
    }

    fn codes(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn l001_fires_on_code_not_strings() {
        let f = lint("fn f() { x.unwrap(); y.expect(\"boom\"); }");
        assert_eq!(codes(&f), ["L001", "L001"]);
        let f = lint("fn f() { log(\"call .unwrap() and .expect( here\"); } // .unwrap()");
        assert!(f.is_empty());
    }

    #[test]
    fn l001_counts_multiple_per_line() {
        let f = lint("fn f() { a.unwrap().b().unwrap(); }");
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn l001_fires_inside_test_modules() {
        use crate::workspace::SourceFile;
        let content = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                       x.unwrap();\n    }\n}\n";
        let file = SourceFile {
            rel_path: "crates/db/src/value.rs".to_string(),
            crate_name: "db".to_string(),
            in_src: true,
            is_binary_entry: false,
            content: content.to_string(),
        };
        let f = lint_source(&file.rel_path, &file.content, selection_for(&file));
        assert_eq!(codes(&f), ["L001"]);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn l002_requires_justification() {
        let f = lint("fn f() { x.load(Ordering::Relaxed); }");
        assert_eq!(codes(&f), ["L002"]);
        let f = lint("// ordering: counter, no synchronization needed\nfn f() { x.load(Ordering::Relaxed); }");
        assert!(f.is_empty());
        let f = lint("fn f() { x.load(Ordering::Relaxed); } // ordering: relaxed counter");
        assert!(f.is_empty());
    }

    #[test]
    fn l002_ignores_cmp_ordering() {
        let f = lint("fn f() -> Ordering { Ordering::Less.then(Ordering::Equal) }");
        assert!(f.is_empty());
    }

    #[test]
    fn l003_narrowing_only() {
        let f = lint("fn f(n: usize) { g(n as u8); h(n as u64); k(n as usize); }");
        assert_eq!(codes(&f), ["L003"]);
        let f = lint("// lossy: length capped at 16 above\nfn f(n: usize) { g(n as u8); }");
        assert!(f.is_empty());
    }

    #[test]
    fn l003_word_boundaries() {
        // `assert` / identifiers containing "as" must not match
        let f = lint("fn f() { assert_eq!(u8_count, basic_u32); }");
        assert!(f.is_empty());
    }

    #[test]
    fn l004_missing_and_present_docs() {
        let f = lint("pub fn undocumented() {}\n");
        assert_eq!(codes(&f), ["L004"]);
        let f = lint("/// Documented.\npub fn documented() {}\n");
        assert!(f.is_empty());
        // attributes between docs and item are fine
        let f = lint("/// Docs.\n#[derive(Debug)]\npub struct S;\n");
        assert!(f.is_empty());
    }

    #[test]
    fn l004_skips_non_api_surface() {
        assert!(lint("pub(crate) fn internal() {}\n").is_empty());
        assert!(lint("pub use crate::foo::Bar;\n").is_empty());
        assert!(lint("fn private() {}\n").is_empty());
        assert!(lint("#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n").is_empty());
    }

    #[test]
    fn l004_qualified_items() {
        let f = lint("pub const fn fast() {}\n");
        assert_eq!(codes(&f), ["L004"]);
        let f = lint("pub async fn fetch() {}\n");
        assert_eq!(codes(&f), ["L004"]);
        let f = lint("pub const MAX: usize = 4;\n");
        assert_eq!(codes(&f), ["L004"]);
    }

    #[test]
    fn l009_panics_in_pub_fns_only() {
        let f = lint("/// Doc.\npub fn api(i: usize) {\n    panic!(\"boom\");\n}\n");
        assert_eq!(codes(&f), ["L009"]);
        let f = lint("fn private(i: usize) {\n    panic!(\"boom\");\n}\n");
        assert!(f.is_empty());
        let f = lint(
            "/// Doc.\npub fn api() {\n    // panic-safe: input validated above\n    \
             unreachable!();\n}\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn l009_indexing_heuristic() {
        let f = lint("/// Doc.\npub fn api(v: &[u8], i: usize) -> u8 {\n    v[i]\n}\n");
        assert_eq!(codes(&f), ["L009"]);
        // Slicing is indexing too.
        let f = lint("/// Doc.\npub fn api(s: &str) -> &str {\n    &s[1..]\n}\n");
        assert_eq!(codes(&f), ["L009"]);
        // Types, attributes, macros, and literals are not.
        let f = lint(
            "/// Doc.\npub fn api(v: &[u8]) -> Vec<u8> {\n    #[allow(unused)]\n    \
             let x: [u8; 2] = [0, 1];\n    vec![1, 2]\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn l009_skips_test_modules() {
        let f = lint(
            "#[cfg(test)]\nmod tests {\n    pub fn t(v: &[u8]) -> u8 {\n        v[0]\n    }\n}\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn selection_policy() {
        use crate::workspace::SourceFile;
        let mk = |rel: &str, in_src: bool, is_bin: bool| SourceFile {
            rel_path: rel.to_string(),
            crate_name: "x".to_string(),
            in_src,
            is_binary_entry: is_bin,
            content: String::new(),
        };
        let lib = selection_for(&mk("crates/db/src/exec.rs", true, false));
        assert!(lib.l001 && lib.l002 && lib.l004 && !lib.l003);
        assert!(!lib.l009);
        let core = selection_for(&mk("crates/core/src/engine.rs", true, false));
        assert!(core.l009);
        let srv = selection_for(&mk("crates/server/src/server.rs", true, false));
        assert!(srv.l009);
        let persist = selection_for(&mk("crates/index/src/persist.rs", true, false));
        assert!(persist.l003);
        let obs = selection_for(&mk("crates/observe/src/hist.rs", true, false));
        assert!(!obs.l002 && obs.l001);
        let itest = selection_for(&mk("crates/db/tests/x.rs", false, false));
        assert!(!itest.l001 && !itest.l004);
        let main = selection_for(&mk("crates/cli/src/main.rs", true, true));
        assert!(main.l001 && !main.l004);
    }
}
