//! A lightweight symbol layer over the lexed code view.
//!
//! L009 (API-boundary panic-freedom) needs to know *which function* a line
//! belongs to and whether that function is `pub`, and L008 (observability
//! coverage) reads the bodies of `SpeakQlError::class()`/`counter()`. This
//! module extracts exactly that: function items with their body spans and
//! visibility, by tracking brace depth over the lexer's string/comment-free
//! code view.
//!
//! It is deliberately not a parser: closures, `impl` blocks, and generics
//! are invisible to it. All it guarantees is that every body line of a
//! `fn` item maps to the innermost `fn` that contains it — which is all
//! those two lints consume.

use crate::lexer::LexedFile;

/// One extracted `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name (the identifier after `fn`).
    pub name: String,
    /// True for plain `pub fn` (not `pub(crate)`/`pub(super)`, which are
    /// not API surface).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub start: usize,
    /// 1-based line of the closing brace of the body (inclusive).
    pub end: usize,
    /// True if the function lives inside a `#[cfg(test)]` module.
    pub in_test_mod: bool,
}

/// A function currently open on the extraction stack.
struct OpenFn {
    item: FnItem,
    /// Brace depth just *before* the body's `{` was consumed; the body
    /// closes when depth returns to this value.
    open_depth: i64,
}

/// A `fn` signature seen but whose body `{` has not been reached yet.
struct PendingFn {
    item: FnItem,
}

/// Extract every `fn` item with a body from a lexed file, in source order.
pub fn functions(lexed: &LexedFile) -> Vec<FnItem> {
    let mut out: Vec<FnItem> = Vec::new();
    let mut stack: Vec<OpenFn> = Vec::new();
    let mut pending: Option<PendingFn> = None;
    let mut depth: i64 = 0;

    for line in &lexed.lines {
        if pending.is_none() {
            if let Some(item) = fn_signature(&line.code, line.number, line.in_test_mod) {
                pending = Some(PendingFn { item });
            }
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    if let Some(p) = pending.take() {
                        stack.push(OpenFn {
                            item: p.item,
                            open_depth: depth,
                        });
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(open) = stack.last() {
                        if depth <= open.open_depth {
                            let Some(mut open) = stack.pop() else {
                                break;
                            };
                            open.item.end = line.number;
                            out.push(open.item);
                        }
                    }
                }
                ';' => {
                    // A `;` before any `{` means the signature had no body
                    // (trait method declaration): forget it.
                    pending = None;
                }
                _ => {}
            }
        }
    }
    // Unterminated functions (truncated input) close at EOF.
    let last_line = lexed.lines.last().map(|l| l.number).unwrap_or(0);
    for mut open in stack.into_iter().rev() {
        open.item.end = last_line;
        out.push(open.item);
    }
    out.sort_by_key(|f| f.start);
    out
}

/// For each 0-based line index, the index into `fns` of the innermost
/// function containing that line, if any.
pub fn line_owners(lexed: &LexedFile, fns: &[FnItem]) -> Vec<Option<usize>> {
    let n = lexed.lines.len();
    let mut owners: Vec<Option<usize>> = vec![None; n];
    // Functions are sorted by start; later (inner) functions overwrite
    // earlier (outer) ones over their narrower span.
    for (i, f) in fns.iter().enumerate() {
        for owner in owners
            .iter_mut()
            .take(f.end.min(n))
            .skip(f.start.saturating_sub(1))
        {
            *owner = Some(i);
        }
    }
    owners
}

/// Parse a `fn` signature from one code line: returns the item if the line
/// introduces a named function.
fn fn_signature(code: &str, number: usize, in_test_mod: bool) -> Option<FnItem> {
    let words: Vec<&str> = code
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect();
    let fn_pos = words.iter().position(|w| *w == "fn")?;
    let name = words.get(fn_pos + 1)?;
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    // Visibility: only a plain leading `pub` counts; `pub(crate)` shows up
    // in the raw code as `pub(`, which the trimmed prefix check rejects.
    let trimmed = code.trim_start();
    let is_pub = trimmed.starts_with("pub ")
        && words.first() == Some(&"pub")
        && !trimmed.starts_with("pub (")
        && !trimmed.starts_with("pub(");
    Some(FnItem {
        name: name.to_string(),
        is_pub,
        start: number,
        end: number,
        in_test_mod,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn extract(src: &str) -> Vec<FnItem> {
        functions(&lex(src))
    }

    #[test]
    fn extracts_pub_and_private() {
        let fns = extract("pub fn api() {\n    body();\n}\nfn helper() {}\n");
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "api");
        assert!(fns[0].is_pub);
        assert_eq!((fns[0].start, fns[0].end), (1, 3));
        assert_eq!(fns[1].name, "helper");
        assert!(!fns[1].is_pub);
    }

    #[test]
    fn pub_crate_is_not_pub() {
        let fns = extract("pub(crate) fn internal() {}\npub fn outward() {}\n");
        assert!(!fns[0].is_pub);
        assert!(fns[1].is_pub);
    }

    #[test]
    fn multi_line_signature() {
        let fns =
            extract("pub fn long(\n    a: usize,\n    b: usize,\n) -> usize {\n    a + b\n}\n");
        assert_eq!(fns.len(), 1);
        assert_eq!((fns[0].start, fns[0].end), (1, 6));
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let fns = extract("trait T {\n    fn decl(&self);\n    fn with_body(&self) {}\n}\n");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "with_body");
    }

    #[test]
    fn nested_fn_is_innermost_owner() {
        let src = "pub fn outer() {\n    fn inner() {\n        x();\n    }\n    y();\n}\n";
        let lexed = lex(src);
        let fns = functions(&lexed);
        let owners = line_owners(&lexed, &fns);
        let name_of = |idx: usize| {
            let Some(owner) = owners[idx] else {
                panic!("line {idx} must be owned by a fn");
            };
            fns[owner].name.as_str()
        };
        assert_eq!(name_of(2), "inner"); // line 3: x();
        assert_eq!(name_of(4), "outer"); // line 5: y();
    }

    #[test]
    fn fn_in_string_or_comment_is_ignored() {
        let fns = extract("// fn ghost() {}\nconst S: &str = \"fn ghost2() {\";\nfn real() {}\n");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn test_mod_functions_are_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let fns = extract(src);
        assert!(!fns[0].in_test_mod);
        assert!(fns[1].in_test_mod);
    }
}
