//! The `speakql-analyze` CLI.
//!
//! Modes:
//!
//! - `--check` (default): run the source lints (L001–L004, L009), the
//!   observability-coverage pass (L008), vendored-source integrity (L005)
//!   and the grammar verifier. Any finding fails; exit 0 only if nothing
//!   fires.
//! - `--file <path>...`: lint specific files with every source lint
//!   enabled — used by the negative-fixture tests.
//! - `--update-vendor-manifest`: re-baseline the vendor integrity manifest.
//!
//! `--root <dir>` analyzes another checkout, and `--github` additionally
//! emits GitHub Actions workflow commands (`::error file=..`) so findings
//! annotate the PR diff inline when run from CI.
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage or I/O error.

#![forbid(unsafe_code)]

use speakql_analyze::{
    coverage, discover_sources, grammar_check, lex, lint_source, selection_for, vendor, Finding,
    LintSelection,
};
use std::path::{Path, PathBuf};

/// Relative path of the vendor integrity manifest.
const VENDOR_MANIFEST: &str = "results/vendor_manifest.txt";

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

#[derive(Debug, Default)]
struct Options {
    update_vendor_manifest: bool,
    github: bool,
    files: Vec<String>,
    root: Option<PathBuf>,
}

fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            // The default mode; accepted so CI can spell it out.
            "--check" => {}
            "--update-vendor-manifest" => opts.update_vendor_manifest = true,
            "--github" => opts.github = true,
            "--file" => {
                let path = it.next().ok_or("--file requires a path")?;
                opts.files.push(path);
            }
            "--root" => {
                let path = it.next().ok_or("--root requires a path")?;
                opts.root = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                println!(
                    "speakql-analyze [--check] [--file <path>...] [--root <dir>]\n\
                     \x20               [--update-vendor-manifest] [--github]"
                );
                return Err(String::new());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

/// Resolve the workspace root: `--root`, else the compiled-in manifest
/// location (works under `cargo run` from anywhere), else the cwd.
fn workspace_root(opts: &Options) -> PathBuf {
    if let Some(root) = &opts.root {
        return root.clone();
    }
    let compiled = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if compiled.join("crates").is_dir() {
        return compiled;
    }
    PathBuf::from(".")
}

fn run(args: Vec<String>) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(msg) if msg.is_empty() => return 0, // --help
        Err(msg) => {
            eprintln!("error: {msg}");
            return 2;
        }
    };
    let root = workspace_root(&opts);
    let result = if !opts.files.is_empty() {
        lint_explicit_files(&opts.files)
    } else if opts.update_vendor_manifest {
        update_vendor_manifest(&root)
    } else {
        check(&root, opts.github)
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            2
        }
    }
}

/// `--file` mode: every source lint on each file. Exit 1 if anything fires.
fn lint_explicit_files(files: &[String]) -> Result<i32, String> {
    let mut total = 0usize;
    for path in files {
        let content =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut findings = lint_source(path, &content, LintSelection::all());
        sort_findings(&mut findings);
        for f in &findings {
            println!("{f}");
        }
        total += findings.len();
    }
    println!(
        "speakql-analyze: {total} finding(s) in {} file(s)",
        files.len()
    );
    Ok(if total == 0 { 0 } else { 1 })
}

/// Run the workspace lints plus the coverage pass, returning all findings
/// sorted by (lint, path, line) for deterministic output.
fn workspace_findings(root: &Path) -> Result<(Vec<Finding>, coverage::CoverageSummary), String> {
    let sources = discover_sources(root).map_err(|e| format!("source discovery: {e}"))?;
    let mut findings = Vec::new();
    for file in &sources {
        let sel = selection_for(file);
        findings.extend(lint_source(&file.rel_path, &file.content, sel));
    }

    // L008: taxonomy coverage is a whole-workspace property over the
    // library sources, so it cannot be a per-file lint pass.
    let lexed: Vec<(&str, speakql_analyze::LexedFile)> = sources
        .iter()
        .filter(|f| f.in_src)
        .map(|f| (f.rel_path.as_str(), lex(&f.content)))
        .collect();
    let cov_files: Vec<coverage::CoverageFile> = lexed
        .iter()
        .map(|(rel, lx)| coverage::CoverageFile {
            rel_path: rel,
            lexed: lx,
        })
        .collect();
    let (cov_findings, summary) = coverage::check_coverage(&cov_files);
    findings.extend(cov_findings);

    sort_findings(&mut findings);
    Ok((findings, summary))
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.lint, &a.path, a.line, &a.message).cmp(&(b.lint, &b.path, b.line, &b.message))
    });
}

/// Default `--check` mode.
fn check(root: &Path, github: bool) -> Result<i32, String> {
    let mut failures = 0usize;
    let mut annotations: Vec<String> = Vec::new();

    // Source lints and the coverage pass.
    let (findings, coverage) = workspace_findings(root)?;
    for f in &findings {
        eprintln!("{f}");
        annotations.push(github_annotation(f));
    }
    failures += findings.len();

    // Vendored-source integrity (L005).
    let hashes = vendor::hash_vendor_tree(root).map_err(|e| format!("vendor scan: {e}"))?;
    let manifest_path = root.join(VENDOR_MANIFEST);
    match std::fs::read_to_string(&manifest_path) {
        Ok(text) => {
            let manifest = vendor::parse_manifest(&text)?;
            let drift = vendor::diff(&hashes, &manifest);
            for d in &drift {
                eprintln!("L005: {d}");
                annotations.push(format!(
                    "::error title=L005 vendor integrity::{}",
                    github_escape(&d.to_string())
                ));
            }
            failures += drift.len();
        }
        Err(e) => {
            eprintln!(
                "L005: cannot read {} ({e}); baseline with --update-vendor-manifest",
                manifest_path.display()
            );
            failures += 1;
        }
    }

    // Grammar/dictionary verifier.
    let report = grammar_check::verify();
    for f in &report.findings {
        eprintln!("grammar: {f}");
        annotations.push(format!(
            "::error title=grammar verifier::{}",
            github_escape(f)
        ));
    }
    failures += report.findings.len();
    println!(
        "grammar verifier: {} rules, {} nonterminals, {} structures and {} placeholders \
         cross-validated, {} finding(s)",
        report.rules,
        report.nonterminals,
        report.structures_checked,
        report.placeholders_checked,
        report.findings.len()
    );

    if github {
        for a in &annotations {
            println!("{a}");
        }
    }
    println!(
        "counters covered: {}/{}; spans covered: {}/{}; error variants: {}",
        coverage.covered,
        coverage.counters,
        coverage.spans_covered,
        coverage.spans,
        coverage.error_variants
    );
    println!(
        "speakql-analyze: {} lint finding(s), {} failure(s)",
        findings.len(),
        failures
    );
    Ok(if failures == 0 { 0 } else { 1 })
}

/// `--update-vendor-manifest`: re-baseline vendor integrity.
fn update_vendor_manifest(root: &Path) -> Result<i32, String> {
    let hashes = vendor::hash_vendor_tree(root).map_err(|e| format!("vendor scan: {e}"))?;
    let manifest_path = root.join(VENDOR_MANIFEST);
    std::fs::write(&manifest_path, vendor::render_manifest(&hashes))
        .map_err(|e| format!("write {}: {e}", manifest_path.display()))?;
    println!(
        "wrote {} ({} file(s))",
        manifest_path.display(),
        hashes.len()
    );
    Ok(0)
}

/// One GitHub Actions workflow command annotating a finding's source line.
fn github_annotation(f: &Finding) -> String {
    format!(
        "::error file={path},line={line},title={lint}::{msg}",
        path = f.path,
        line = f.line,
        lint = f.lint,
        msg = github_escape(&f.message)
    )
}

/// Escape the message part of a workflow command (GitHub's own encoding).
fn github_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}
