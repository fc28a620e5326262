//! CLI-layer fault injection: adversarial inputs driven through the real
//! `speakql` binary must exit with clean status codes and typed error
//! messages — never a panic (no "panicked at" on stderr, no abort signal).

use std::process::{Command, Output};

fn speakql(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_speakql"))
        .args(args)
        .env("SPEAKQL_SCALE", "small")
        .output()
        .expect("spawn speakql binary")
}

fn assert_no_panic(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked at"),
        "{what}: binary panicked:\n{stderr}"
    );
    assert!(
        out.status.code().is_some(),
        "{what}: killed by signal (status {:?})",
        out.status
    );
}

#[test]
fn overlong_transcript_is_a_clean_failure_exit() {
    let words: Vec<String> = vec!["select".to_string(); 2_000];
    let mut args = vec!["transcribe"];
    args.extend(words.iter().map(String::as_str));
    let out = speakql(&args);
    assert_no_panic(&out, "overlong transcribe");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "missing typed error:\n{stderr}");
    assert!(stderr.contains("2000"), "error should name the word count");
}

#[test]
fn non_ascii_transcript_succeeds() {
    let out = speakql(&["transcribe", "sélect", "salary", "frôm", "employées"]);
    assert_no_panic(&out, "non-ascii transcribe");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("corrected :"), "no correction:\n{stdout}");
}

#[test]
fn batch_with_poisoned_line_reports_per_slot_errors() {
    let dir = std::env::temp_dir().join("speakql-fault-cli");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("batch.txt");
    let overlong = vec!["select"; 1_100].join(" ");
    std::fs::write(
        &path,
        format!("select salary from employees\n{overlong}\nselect name from employees\n"),
    )
    .expect("write batch file");

    let out = speakql(&["transcribe", "--batch", path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).ok();
    assert_no_panic(&out, "poisoned batch");
    // Batch mode keeps going past failed slots and exits successfully.
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout.lines().filter(|l| l.contains('\t')).collect();
    assert_eq!(rows.len(), 3, "one TSV row per input line:\n{stdout}");
    assert!(
        rows[1].contains("<error: transcript_too_long>"),
        "poisoned slot must carry its error class:\n{stdout}"
    );
    assert!(rows[0].contains("SELECT"), "good slot corrected:\n{stdout}");
    assert!(rows[2].contains("SELECT"), "good slot corrected:\n{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("1 transcript(s) failed"),
        "failure tally missing:\n{stderr}"
    );
}

#[test]
fn malformed_numeric_flags_are_usage_errors() {
    let dir = std::env::temp_dir().join("speakql-fault-cli");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("threads.txt");
    std::fs::write(&path, "select salary from employees\n").expect("write batch file");
    let batch = path.to_str().expect("utf-8 path");
    let cases = [
        (
            vec!["transcribe", "--batch", batch, "--threads", "abc"],
            "--threads",
            "\"abc\"",
        ),
        (
            vec![
                "speak", "SELECT", "salary", "FROM", "Salaries", "--seed", "x",
            ],
            "--seed",
            "\"x\"",
        ),
    ];
    let outs: Vec<Output> = cases.iter().map(|(args, ..)| speakql(args)).collect();
    std::fs::remove_file(&path).ok();
    for ((args, flag, value), out) in cases.iter().zip(&outs) {
        assert_no_panic(out, flag);
        let stderr = String::from_utf8_lossy(&out.stderr);
        // A usage error, reported before any index is built or any
        // transcript is read, not a silent fallback to the default.
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "error must name the flag and value:\n{stderr}"
        );
        assert!(
            stderr.contains("usage: speakql"),
            "no usage line:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn corrupted_index_file_is_a_typed_error() {
    let dir = std::env::temp_dir().join("speakql-fault-cli");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("corrupt.sqlx");
    std::fs::write(&path, b"SQLXgarbage-not-an-index").expect("write corrupt index");

    let out = speakql(&["index-info", path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).ok();
    assert_no_panic(&out, "corrupt index-info");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "missing typed error:\n{stderr}");
}

#[test]
fn index_info_describes_the_live_structures_of_a_tombstoned_image() {
    use speakql_editdist::Weights;
    use speakql_grammar::GeneratorConfig;
    use speakql_index::{save_to_path, IndexDelta, StructureIndex};

    let base = StructureIndex::from_grammar(
        &GeneratorConfig {
            max_structures: Some(2_000),
            ..GeneratorConfig::small()
        },
        Weights::PAPER,
    );
    let shortest = (0..base.arena_len() as u32)
        .map(|id| base.structure_tokens(id).len())
        .min()
        .expect("a non-empty index");
    // Tombstone every structure of the shortest length.
    let delta = IndexDelta::new().remove_matching(&base, |_, tokens| tokens.len() == shortest);
    assert!(delta.removed() > 0);
    let (index, _) = base.apply_delta(&delta).expect("apply delta");
    let live: Vec<usize> = (0..index.arena_len() as u32)
        .filter(|&id| !index.is_removed(id))
        .map(|id| index.structure_tokens(id).len())
        .collect();
    let (min, max) = (
        live.iter().min().expect("live structures remain"),
        live.iter().max().expect("live structures remain"),
    );
    assert!(*min > shortest);

    let dir = std::env::temp_dir().join("speakql-fault-cli");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("tombstoned.sqlx");
    save_to_path(&index, &path).expect("save index");
    let out = speakql(&["index-info", path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).ok();
    assert_no_panic(&out, "tombstoned index-info");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("structures : {}\n", index.len())),
        "{stdout}"
    );
    assert!(
        stdout.contains(&format!("lengths    : min {min}, max {max}\n")),
        "{stdout}"
    );
}
