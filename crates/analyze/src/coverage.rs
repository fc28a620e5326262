//! L008: observability-taxonomy coverage.
//!
//! The error/counter taxonomy is the contract between the engine and its
//! operators: every failure class must be countable, and every counter must
//! actually be incremented somewhere or its reported zero is a lie. Nothing
//! in the compiler enforces that — a counter added to `CounterId` with no
//! increment site, or an error variant that never reaches `class()` /
//! `counter()`, compiles clean and silently breaks dashboards. This lint
//! closes the loop:
//!
//! 1. every `CounterId` variant appears in `CounterId::ALL` and vice versa;
//! 2. every counter has at least one *increment site* in non-test workspace
//!    code — a `CounterId::X` reference preceded (within the same
//!    ~120-character window) by `incr(` or `.add(`, or standing directly
//!    after a match-arm `=>` (the `SpeakQlError::counter()` mapping, whose
//!    result feeds a generic increment);
//! 3. every `SpeakQlError` variant is mapped by both `class()` and
//!    `counter()`;
//! 4. no scanned reference names a `CounterId` variant that is not declared.
//!
//! Spans get rules 1, 2 and 4 too: every `SpanId` variant appears in
//! `SpanId::ALL` and vice versa, and every span has at least one
//! *recording site* — a `SpanId::X` reference preceded, in the same
//! window, by `record_duration(`, the one way to record a span. A span
//! with none reports an empty histogram forever.
//!
//! All parsing runs on the lexer's code view, so counter and span names
//! inside strings, comments, and doc examples never count as sites.

use crate::lexer::LexedFile;
use crate::lints::Finding;
use crate::symbols::functions;
use std::collections::BTreeSet;

/// Where the counter taxonomy is declared.
pub const OBSERVE_PATH: &str = "crates/observe/src/lib.rs";
/// Where the error taxonomy is declared.
pub const ERROR_PATH: &str = "crates/core/src/error.rs";

/// How far back (in flattened code characters) an `incr(`/`.add(` opener
/// may sit from the `CounterId::X` it covers. Wide enough for a multi-line
/// `incr(if hit { CounterId::A } else { CounterId::B })`, narrow enough
/// that an increment in one statement cannot vouch for a reference several
/// statements later.
const SITE_WINDOW: usize = 120;

/// One file offered to the coverage scan.
pub struct CoverageFile<'a> {
    /// Workspace-relative path.
    pub rel_path: &'a str,
    /// The lexed content.
    pub lexed: &'a LexedFile,
}

/// Summary of the taxonomy extracted at HEAD (reported in EXPERIMENTS.md).
#[derive(Debug, Clone, Default)]
pub struct CoverageSummary {
    /// Declared `CounterId` variants.
    pub counters: usize,
    /// Counters with at least one increment site.
    pub covered: usize,
    /// Declared `SpanId` variants.
    pub spans: usize,
    /// Spans with at least one recording site.
    pub spans_covered: usize,
    /// Declared `SpeakQlError` variants.
    pub error_variants: usize,
}

/// One registry the lint checks: an enum with an `ALL` array, and what
/// makes a reference to one of its variants a site that records it.
struct Taxonomy {
    /// The enum's name.
    name: &'static str,
    /// What a variant is, in messages.
    noun: &'static str,
    /// Openers that make a reference a site when they sit within
    /// [`SITE_WINDOW`] before it.
    openers: &'static [&'static str],
    /// Whether a reference standing directly after a match-arm `=>` is a
    /// site (a mapping whose result feeds a generic increment).
    arm_is_site: bool,
    /// The finding for a variant without a site.
    unrecorded: &'static str,
}

const COUNTERS: Taxonomy = Taxonomy {
    name: "CounterId",
    noun: "counter",
    openers: &["incr(", ".add("],
    arm_is_site: true,
    unrecorded: "has no increment site anywhere in the workspace \
                 (its reported value can only ever be zero)",
};

const SPANS: Taxonomy = Taxonomy {
    name: "SpanId",
    noun: "span",
    openers: &["record_duration("],
    arm_is_site: false,
    unrecorded: "has no record_duration site anywhere in the workspace \
                 (its reported histogram can only ever be empty)",
};

/// Run the full coverage check over the given files. `files` should be the
/// `src/` (non-test-harness) portion of the workspace, *including* the
/// taxonomy files themselves.
pub fn check_coverage(files: &[CoverageFile<'_>]) -> (Vec<Finding>, CoverageSummary) {
    let mut findings = Vec::new();
    let mut summary = CoverageSummary::default();

    let Some(observe) = files.iter().find(|f| f.rel_path == OBSERVE_PATH) else {
        // No taxonomy in scope (fixture runs): nothing to verify.
        return (findings, summary);
    };
    (summary.counters, summary.covered) = check_taxonomy(&COUNTERS, observe, files, &mut findings);
    (summary.spans, summary.spans_covered) = check_taxonomy(&SPANS, observe, files, &mut findings);

    // 3. Error variants must map through class() and counter().
    if let Some(error_file) = files.iter().find(|f| f.rel_path == ERROR_PATH) {
        let error_variants = enum_variants(error_file.lexed, "SpeakQlError");
        summary.error_variants = error_variants.len();
        for method in ["class", "counter"] {
            let mapped = refs_in_fn(error_file.lexed, method, "SpeakQlError");
            for (name, line) in &error_variants {
                if !mapped.contains(name.as_str()) {
                    findings.push(Finding {
                        lint: "L008",
                        path: ERROR_PATH.to_string(),
                        line: *line,
                        message: format!(
                            "error variant `{name}` is not mapped by SpeakQlError::{method}()"
                        ),
                    });
                }
            }
        }
    }

    (findings, summary)
}

/// Rules 1, 2 and 4 for one taxonomy declared in `observe`: its variants
/// against its `ALL` array, and a site per variant in `files`. Returns how
/// many variants are declared and how many have a site.
fn check_taxonomy(
    tax: &Taxonomy,
    observe: &CoverageFile<'_>,
    files: &[CoverageFile<'_>],
    findings: &mut Vec<Finding>,
) -> (usize, usize) {
    let (name, noun) = (tax.name, tax.noun);
    let mut finding = |path: &str, line: usize, message: String| {
        findings.push(Finding {
            lint: "L008",
            path: path.to_string(),
            line,
            message,
        });
    };

    // 1. Enum variants vs the ALL registry array.
    let variants = enum_variants(observe.lexed, name);
    let all_entries = all_array_entries(observe.lexed, name);
    let variant_names: BTreeSet<&str> = variants.iter().map(|(n, _)| n.as_str()).collect();
    let all_set: BTreeSet<&str> = all_entries.iter().map(|(n, _)| n.as_str()).collect();
    for (variant, line) in &variants {
        if !all_set.contains(variant.as_str()) {
            finding(
                OBSERVE_PATH,
                *line,
                format!("{noun} `{variant}` is declared but missing from {name}::ALL"),
            );
        }
    }
    for (entry, line) in &all_entries {
        if !variant_names.contains(entry.as_str()) {
            finding(
                OBSERVE_PATH,
                *line,
                format!("{name}::ALL lists `{entry}`, which is not a declared variant"),
            );
        }
    }

    // 2 & 4. Scan for references and classify recording sites.
    let mut sites: BTreeSet<String> = BTreeSet::new();
    for file in files {
        if file.rel_path.starts_with("crates/observe/") {
            continue; // the registry itself names every variant; not usage
        }
        for reference in variant_refs(file.lexed, tax) {
            if !variant_names.contains(reference.name.as_str()) {
                finding(
                    file.rel_path,
                    reference.line,
                    format!(
                        "reference to undeclared {noun} `{name}::{}`",
                        reference.name
                    ),
                );
                continue;
            }
            if reference.is_site {
                sites.insert(reference.name);
            }
        }
    }
    for (variant, line) in &variants {
        if !sites.contains(variant) {
            let unrecorded = tax.unrecorded;
            finding(
                OBSERVE_PATH,
                *line,
                format!("{noun} `{variant}` {unrecorded}"),
            );
        }
    }
    (variants.len(), sites.len())
}

/// Extract the variants of `enum <name>` as `(ident, line)`, using brace
/// depth to separate variants (depth 1) from their fields (depth 2+).
fn enum_variants(lexed: &LexedFile, name: &str) -> Vec<(String, usize)> {
    let header = format!("enum {name}");
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut inside = false;
    for line in &lexed.lines {
        if !inside {
            if line.code.contains(&header) {
                inside = true;
                depth = 0;
            } else {
                continue;
            }
        }
        let at_variant_depth = depth == 1;
        if at_variant_depth {
            let word: String = line
                .code
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if word.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                out.push((word, line.number));
            }
        }
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    if inside && depth == 0 {
                        return out;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Extract the `Enum::Variant` entries of `const ALL: [Enum; N] = [...]`.
fn all_array_entries(lexed: &LexedFile, enum_name: &str) -> Vec<(String, usize)> {
    let header = format!("const ALL: [{enum_name}");
    let prefix = format!("{enum_name}::");
    let mut out = Vec::new();
    let mut inside = false;
    for line in &lexed.lines {
        if !inside {
            if line.code.contains(&header) {
                inside = true;
            } else {
                continue;
            }
        }
        for name in idents_after(&line.code, &prefix) {
            out.push((name, line.number));
        }
        if line.code.contains("];") {
            return out;
        }
    }
    out
}

/// All `prefix`-qualified identifiers on one code line.
fn idents_after(code: &str, prefix: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut search = 0usize;
    while let Some(rel) = code[search..].find(prefix) {
        let start = search + rel + prefix.len();
        let name: String = code[start..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            out.push(name);
        }
        search = start;
    }
    out
}

/// References collected inside the body of `fn <fn_name>` (used for the
/// `class()`/`counter()` mapping checks).
fn refs_in_fn(lexed: &LexedFile, fn_name: &str, enum_name: &str) -> BTreeSet<String> {
    let prefix = format!("{enum_name}::");
    let mut out = BTreeSet::new();
    for f in functions(lexed) {
        if f.name != fn_name || f.in_test_mod {
            continue;
        }
        for line in &lexed.lines[f.start - 1..f.end.min(lexed.lines.len())] {
            for name in idents_after(&line.code, &prefix) {
                out.insert(name);
            }
        }
    }
    out
}

/// One `Enum::X` reference found in scanned code.
struct VariantRef {
    name: String,
    line: usize,
    is_site: bool,
}

/// Scan a file's non-test code for references to `tax`'s variants,
/// classifying each as a recording site or a mere mention. `ALL`-style
/// screaming-case associated items are not variant references and are
/// skipped.
fn variant_refs(lexed: &LexedFile, tax: &Taxonomy) -> Vec<VariantRef> {
    // Flatten the code view so backward windows cross line boundaries
    // (multi-line `incr(...)` argument lists).
    let mut flat = String::new();
    let mut line_starts: Vec<(usize, usize)> = Vec::new(); // (offset, line number)
    for line in &lexed.lines {
        if line.in_test_mod {
            // Keep line accounting but contribute no code: sites in test
            // modules prove nothing about production coverage.
            line_starts.push((flat.len(), line.number));
            flat.push('\n');
            continue;
        }
        line_starts.push((flat.len(), line.number));
        flat.push_str(&line.code);
        flat.push('\n');
    }

    let mut out = Vec::new();
    let prefix = format!("{}::", tax.name);
    let mut search = 0usize;
    while let Some(rel) = flat[search..].find(&prefix) {
        let pos = search + rel;
        let start = pos + prefix.len();
        let name: String = flat[start..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        search = start;
        if name.is_empty() {
            continue;
        }
        // Variant names are CamelCase; SCREAMING_CASE (`ALL`) and lowercase
        // (`name`, via fully-qualified call syntax) are associated items.
        let camel = name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            && name.chars().any(|c| c.is_ascii_lowercase());
        if !camel {
            continue;
        }
        let window = &flat[pos.saturating_sub(SITE_WINDOW)..pos];
        let is_site = tax.openers.iter().any(|opener| window.contains(opener))
            || (tax.arm_is_site && window.trim_end().ends_with("=>"));
        let line = line_starts
            .iter()
            .rev()
            .find(|(off, _)| *off <= pos)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        out.push(VariantRef {
            name,
            line,
            is_site,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const OBSERVE_SRC: &str = "pub enum CounterId {\n    /// Doc.\n    Hits,\n    Misses,\n}\n\
         impl CounterId {\n    pub const ALL: [CounterId; 2] = [\n        CounterId::Hits,\n        \
         CounterId::Misses,\n    ];\n}\n";

    /// [`OBSERVE_SRC`] with two spans.
    fn observe_with_spans() -> LexedFile {
        lex(&format!(
            "{OBSERVE_SRC}pub enum SpanId {{\n    Walk,\n    Wait,\n}}\nimpl SpanId {{\n    \
             pub const ALL: [SpanId; 2] = [\n        SpanId::Walk,\n        SpanId::Wait,\n    \
             ];\n}}\n"
        ))
    }

    fn check(files: &[(&str, &LexedFile)]) -> (Vec<Finding>, CoverageSummary) {
        let files: Vec<CoverageFile> = files
            .iter()
            .map(|(p, l)| CoverageFile {
                rel_path: p,
                lexed: l,
            })
            .collect();
        check_coverage(&files)
    }

    #[test]
    fn covered_counters_are_clean() {
        let observe = observe_with_spans();
        let user = lex("fn f(r: &Recorder) {\n    r.incr(CounterId::Hits);\n    \
             r.add(CounterId::Misses, 2);\n    r.record_duration(SpanId::Walk, d);\n    \
             r.record_duration(\n        SpanId::Wait,\n        d,\n    );\n}\n");
        let (findings, summary) =
            check(&[(OBSERVE_PATH, &observe), ("crates/x/src/lib.rs", &user)]);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!((summary.counters, summary.covered), (2, 2));
        assert_eq!((summary.spans, summary.spans_covered), (2, 2));
    }

    #[test]
    fn uncovered_counter_is_flagged() {
        let observe = observe_with_spans();
        // `Wait` is read from a report but never recorded.
        let user = lex(
            "fn g(report: &Report) {\n    report.stage(SpanId::Wait);\n}\n\
             fn f(r: &Recorder) {\n    r.incr(CounterId::Hits);\n    \
             r.record_duration(SpanId::Walk, d);\n}\n",
        );
        let (findings, summary) =
            check(&[(OBSERVE_PATH, &observe), ("crates/x/src/lib.rs", &user)]);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("Misses"), "{findings:?}");
        assert!(findings[0].message.contains("no increment site"));
        assert!(findings[1].message.contains("span `Wait`"), "{findings:?}");
        assert!(findings[1].message.contains("no record_duration site"));
        assert_eq!((summary.spans, summary.spans_covered), (2, 1));
    }

    #[test]
    fn match_arm_mapping_counts_as_a_site() {
        let observe = lex(OBSERVE_SRC);
        let user = lex("fn counter(e: &E) -> CounterId {\n    match e {\n        \
             E::A => CounterId::Hits,\n        E::B => CounterId::Misses,\n    }\n}\n");
        let (findings, _) = check(&[(OBSERVE_PATH, &observe), ("crates/x/src/lib.rs", &user)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn pattern_match_is_not_a_site() {
        let observe = lex(OBSERVE_SRC);
        let user = lex(
            "fn f(r: &Recorder, c: CounterId) {\n    r.incr(CounterId::Hits);\n    \
             r.incr(CounterId::Misses);\n    match c {\n        CounterId::Hits => {}\n        \
             _ => {}\n    }\n}\n",
        );
        let (findings, _) = check(&[(OBSERVE_PATH, &observe), ("crates/x/src/lib.rs", &user)]);
        // The pattern use is a reference but not an increment; coverage is
        // already satisfied by the two incr calls.
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn undeclared_counter_reference_is_flagged() {
        let observe = lex(OBSERVE_SRC);
        let user = lex("fn f(r: &Recorder) {\n    r.incr(CounterId::Hits);\n    \
             r.incr(CounterId::Misses);\n    r.incr(CounterId::Ghost);\n}\n");
        let (findings, _) = check(&[(OBSERVE_PATH, &observe), ("crates/x/src/lib.rs", &user)]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("Ghost"));
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn all_array_drift_is_flagged_both_ways() {
        let observe = lex(
            "pub enum CounterId {\n    Hits,\n    Misses,\n}\nimpl CounterId {\n    \
             pub const ALL: [CounterId; 2] = [\n        CounterId::Hits,\n        \
             CounterId::Stale,\n    ];\n}\npub enum SpanId {\n    Walk,\n    Wait,\n}\n\
             impl SpanId {\n    pub const ALL: [SpanId; 2] = [\n        SpanId::Walk,\n        \
             SpanId::Gone,\n    ];\n}\n",
        );
        let user = lex("fn f(r: &Recorder) {\n    r.incr(CounterId::Hits);\n    \
             r.incr(CounterId::Misses);\n    r.record_duration(SpanId::Walk, d);\n    \
             r.record_duration(SpanId::Wait, d);\n}\n");
        let (findings, _) = check(&[(OBSERVE_PATH, &observe), ("crates/x/src/lib.rs", &user)]);
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        for drift in [
            "counter `Misses` is declared but missing from CounterId::ALL",
            "CounterId::ALL lists `Stale`, which is not a declared variant",
            "span `Wait` is declared but missing from SpanId::ALL",
            "SpanId::ALL lists `Gone`, which is not a declared variant",
        ] {
            assert!(msgs.contains(&drift), "{drift:?} not in {msgs:?}");
        }
        assert_eq!(msgs.len(), 4, "{msgs:?}");
    }

    #[test]
    fn counter_names_in_strings_and_comments_are_invisible() {
        let observe = lex(OBSERVE_SRC);
        let user = lex("fn f(r: &Recorder) {\n    r.incr(CounterId::Hits);\n    \
             r.incr(CounterId::Misses);\n    // r.incr(CounterId::Ghost);\n    \
             let s = \"CounterId::Phantom\";\n}\n");
        let (findings, _) = check(&[(OBSERVE_PATH, &observe), ("crates/x/src/lib.rs", &user)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn test_module_sites_do_not_count() {
        let observe = lex(OBSERVE_SRC);
        let user = lex("fn f(r: &Recorder) {\n    r.incr(CounterId::Hits);\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t(r: &Recorder) {\n        \
             r.incr(CounterId::Misses);\n    }\n}\n");
        let (findings, _) = check(&[(OBSERVE_PATH, &observe), ("crates/x/src/lib.rs", &user)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("Misses"));
    }

    #[test]
    fn error_variant_mapping_is_checked() {
        let observe = lex(OBSERVE_SRC);
        let error = lex(
            "pub enum SpeakQlError {\n    Empty,\n    TooLong { n: usize },\n}\n\
             impl SpeakQlError {\n    pub fn class(&self) -> &'static str {\n        \
             match self {\n            SpeakQlError::Empty => \"empty\",\n            \
             SpeakQlError::TooLong { .. } => \"too_long\",\n        }\n    }\n    \
             pub fn counter(&self) -> CounterId {\n        match self {\n            \
             SpeakQlError::Empty => CounterId::Hits,\n            \
             SpeakQlError::TooLong { .. } => CounterId::Misses,\n        }\n    }\n}\n",
        );
        let (findings, summary) = check(&[(OBSERVE_PATH, &observe), (ERROR_PATH, &error)]);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(summary.error_variants, 2);
    }

    #[test]
    fn unmapped_error_variant_is_flagged() {
        let observe = lex(OBSERVE_SRC);
        let error = lex("pub enum SpeakQlError {\n    Empty,\n    Ghost,\n}\n\
             impl SpeakQlError {\n    pub fn class(&self) -> &'static str {\n        \
             match self {\n            SpeakQlError::Empty => \"empty\",\n            \
             _ => \"other\",\n        }\n    }\n    \
             pub fn counter(&self) -> CounterId {\n        match self {\n            \
             SpeakQlError::Empty => CounterId::Hits,\n            \
             SpeakQlError::Ghost => CounterId::Misses,\n        }\n    }\n}\n");
        let (findings, _) = check(&[(OBSERVE_PATH, &observe), (ERROR_PATH, &error)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("Ghost"));
        assert!(findings[0].message.contains("class()"));
    }
}
