//! End-to-end checks of the `speakql-analyze` binary against the negative
//! fixtures: each fixture must trip exactly its lint, and the clean control
//! must pass with exit code 0.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn analyze_file(name: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_speakql-analyze"))
        .arg("--file")
        .arg(fixture(name))
        .output()
        .expect("spawn speakql-analyze")
}

/// Asserts the fixture exits non-zero and reports `lint` (and only `lint`).
fn assert_fires(name: &str, lint: &str) {
    let out = analyze_file(name);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{name} should exit 1, stdout:\n{stdout}"
    );
    assert!(
        stdout.contains(lint),
        "{name} should report {lint}, stdout:\n{stdout}"
    );
    for other in ["L001", "L002", "L003", "L004", "L008", "L009"] {
        if other != lint {
            assert!(
                !stdout.contains(other),
                "{name} should only report {lint}, but also fired {other}:\n{stdout}"
            );
        }
    }
}

#[test]
fn l001_fixture_fires() {
    assert_fires("l001_unwrap.rs", "L001");
}

#[test]
fn l002_fixture_fires() {
    assert_fires("l002_ordering.rs", "L002");
}

#[test]
fn l003_fixture_fires() {
    assert_fires("l003_cast.rs", "L003");
}

#[test]
fn l004_fixture_fires() {
    assert_fires("l004_docs.rs", "L004");
}

#[test]
fn l009_fixture_fires() {
    assert_fires("l009_panics.rs", "L009");
}

#[test]
fn clean_fixture_passes() {
    let out = analyze_file("clean.rs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean.rs should exit 0, stdout:\n{stdout}"
    );
}

#[test]
fn missing_file_is_usage_error() {
    let out = analyze_file("does_not_exist.rs");
    assert_eq!(out.status.code(), Some(2));
}
