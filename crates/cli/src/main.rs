//! `speakql` — command-line front end for SpeakQL-rs.
//!
//! ```text
//! speakql transcribe "select sales from employers wear name equals jon"
//! speakql speak "SELECT AVG ( salary ) FROM Salaries" --seed 7
//! speakql dataset 20
//! speakql index-build /tmp/structures.sqlx --scale medium
//! speakql schema
//! ```
//!
//! All subcommands run against the built-in Employees database; this tool is
//! the scriptable counterpart of the `interactive_repl` example.

#![forbid(unsafe_code)]

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use speakql_asr::{AsrEngine, AsrProfile};
use speakql_core::{SpeakQl, SpeakQlConfig};
use speakql_data::{employees_db, generate_cases, training_vocabulary};
use speakql_grammar::GeneratorConfig;
use speakql_server::{Server, ServerConfig, TenantRegistry};
use std::process::ExitCode;

const USAGE: &str = "\
speakql — speech-driven SQL correction (SpeakQL-rs)

USAGE:
  speakql transcribe <transcript...> [--cache N] [--index-cache FILE] [--report FILE]
                                            correct an ASR transcript and execute it
  speakql transcribe --batch <file> [--threads N] [--cache N] [--index-cache FILE] [--report FILE]
                                            correct one transcript per line of <file>
                                            on N worker threads (0 = all cores;
                                            --threads matters only with --batch:
                                            one transcript always runs on one thread);
                                            emits TSV of (transcript, corrected SQL).
                                            --cache N enables the cross-query
                                            skeleton-result cache with N entries
                                            (0 = off, the default).
                                            --index-cache FILE loads the structure
                                            index zero-copy from FILE if it exists,
                                            else builds it and persists it there
                                            for the next run.
                                            --report writes a JSON pipeline
                                            observability report (stage latency
                                            percentiles + work counters) to FILE
  speakql speak <sql...> [--seed N]         verbalize SQL, simulate noisy ASR, correct it
  speakql dataset <n> [--seed N] [--transcripts]
                                            print n generated spoken-SQL cases;
                                            with --transcripts, emit TSV of
                                            (sql, spoken words, ASR transcript)
  speakql index-build <path> [--scale S]    build and persist the structure index
                                            (S = small | medium | paper)
  speakql index-info <path>                 inspect a persisted structure index
  speakql serve [--addr A] [--workers N] [--queue N] [--timeout-ms N] [--cache N]
                                            run the multi-tenant correction server
                                            (tenants: employees, yelp) on A
                                            (default 127.0.0.1:5717) with N workers
                                            (default 4), an N-slot admission queue
                                            (default 64), an N ms per-request budget
                                            (default 30000), and an N-entry shared
                                            skeleton cache (default 1024)
  speakql schema                            print the Employees schema

The engine scale defaults to 'small' for instant startup; set
SPEAKQL_SCALE=medium|paper for the larger structure spaces.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "transcribe" => cmd_transcribe(&args[1..]),
        "speak" => cmd_speak(&args[1..]),
        "dataset" => cmd_dataset(&args[1..]),
        "index-build" => cmd_index_build(&args[1..]),
        "index-info" => cmd_index_info(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "schema" => cmd_schema(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn scale_config() -> GeneratorConfig {
    match std::env::var("SPEAKQL_SCALE").as_deref() {
        Ok("paper") => GeneratorConfig::paper(),
        Ok("medium") => GeneratorConfig::medium(),
        _ => GeneratorConfig::small(),
    }
}

/// Split off a `--flag value` pair from free-form args.
fn take_flag(args: &[String], flag: &str) -> (Vec<String>, Option<String>) {
    let mut rest = Vec::new();
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag && i + 1 < args.len() {
            value = Some(args[i + 1].clone());
            i += 2;
        } else {
            rest.push(args[i].clone());
            i += 1;
        }
    }
    (rest, value)
}

/// Per-command usage lines, printed after a usage error.
const TRANSCRIBE_USAGE: &str = "usage: speakql transcribe <transcript...> [--cache N] [--index-cache FILE] [--report FILE] (or --batch <file> [--threads N] with the same flags)";
const SPEAK_USAGE: &str = "usage: speakql speak <sql...> [--seed N]";
const DATASET_USAGE: &str = "usage: speakql dataset <n> [--seed N] [--transcripts]";
const SERVE_USAGE: &str =
    "usage: speakql serve [--addr A] [--workers N] [--queue N] [--timeout-ms N] [--cache N]";

/// The value of numeric argument `name`, or `default` when it is absent.
/// A value that does not parse is a usage error: it is reported with
/// `usage`, and `None` tells the command to exit 2 before doing any work.
fn numeric<T: std::str::FromStr>(
    name: &str,
    value: Option<&str>,
    default: T,
    usage: &str,
) -> Option<T> {
    match value {
        None => Some(default),
        Some(v) => {
            let parsed = v.parse().ok();
            if parsed.is_none() {
                eprintln!("error: {name} expects a non-negative integer, got {v:?}\n{usage}");
            }
            parsed
        }
    }
}

fn engine() -> SpeakQl {
    engine_with(1, false, 0)
}

fn engine_with(threads: usize, observe: bool, cache: usize) -> SpeakQl {
    engine_with_index_cache(threads, observe, cache, None)
}

/// Build the CLI engine, optionally through a persisted index cache: when
/// `index_cache` names an existing file it is loaded through the zero-copy
/// validate-then-borrow path (no structure regeneration, no trie rebuild);
/// otherwise the engine generates the structure space and persists the
/// index there for the next invocation. A cache that fails to load is
/// reported with its typed error class and rebuilt in place.
fn engine_with_index_cache(
    threads: usize,
    observe: bool,
    cache: usize,
    index_cache: Option<&str>,
) -> SpeakQl {
    let db = employees_db();
    let config = SpeakQlConfig {
        generator: scale_config(),
        ..SpeakQlConfig::paper()
    }
    .with_threads(threads)
    .with_observability(observe)
    .with_cache_capacity(cache);
    if let Some(path) = index_cache {
        if std::path::Path::new(path).exists() {
            eprintln!("[speakql] loading index cache {path} ...");
            match SpeakQl::with_persisted_index(&db, path, config.clone()) {
                Ok(engine) => return engine,
                Err(e) => {
                    eprintln!("[speakql] index cache unusable ({}): {e}", e.class());
                    eprintln!("[speakql] rebuilding and replacing {path}");
                }
            }
        }
    }
    eprintln!("[speakql] building engine ...");
    let engine = SpeakQl::new(&db, config);
    if let Some(path) = index_cache {
        match speakql_index::save_to_path(engine.index(), path) {
            Ok(()) => eprintln!("[speakql] index cache written to {path}"),
            Err(e) => eprintln!("[speakql] could not write index cache {path}: {e}"),
        }
    }
    engine
}

/// Write the engine's observability report as JSON to `path`.
fn write_report(engine: &SpeakQl, path: &str) -> bool {
    match std::fs::write(path, engine.report().to_json()) {
        Ok(()) => {
            eprintln!("[speakql] observability report written to {path}");
            true
        }
        Err(e) => {
            eprintln!("error writing report to {path}: {e}");
            false
        }
    }
}

fn show_result(result: &speakql_core::SpeakQlResult<speakql_core::Transcription>) -> ExitCode {
    // A typed pipeline error (empty transcript, over-long input, contained
    // worker fault) is a clean failure exit, never a panic.
    let result = match result {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(best) = result.best_sql() else {
        eprintln!("no candidates");
        return ExitCode::FAILURE;
    };
    println!("corrected : {best}");
    for (i, c) in result.candidates.iter().enumerate().skip(1).take(2) {
        println!("  alt #{i}  : {}", c.sql);
    }
    let db = employees_db();
    match speakql_db::execute_sql(&db, best) {
        Ok(rows) => {
            let shown = rows.rows.len().min(10);
            let preview = speakql_db::QueryResult {
                columns: rows.columns.clone(),
                rows: rows.rows[..shown].to_vec(),
            };
            println!("{}", preview.render_table());
            if rows.rows.len() > shown {
                println!("... {} more row(s)", rows.rows.len() - shown);
            }
        }
        Err(e) => eprintln!("(query does not execute on Employees: {e})"),
    }
    ExitCode::SUCCESS
}

fn cmd_transcribe(args: &[String]) -> ExitCode {
    let (rest, threads) = take_flag(args, "--threads");
    let (rest, batch) = take_flag(&rest, "--batch");
    let (rest, cache) = take_flag(&rest, "--cache");
    let (rest, report) = take_flag(&rest, "--report");
    let (rest, index_cache) = take_flag(&rest, "--index-cache");
    let Some(threads) = numeric("--threads", threads.as_deref(), 1, TRANSCRIBE_USAGE) else {
        return ExitCode::from(2);
    };
    let Some(cache) = numeric("--cache", cache.as_deref(), 0, TRANSCRIBE_USAGE) else {
        return ExitCode::from(2);
    };
    if let Some(path) = batch {
        return cmd_transcribe_batch(
            &path,
            threads,
            cache,
            report.as_deref(),
            index_cache.as_deref(),
        );
    }
    if rest.is_empty() {
        eprintln!("{TRANSCRIBE_USAGE}");
        return ExitCode::from(2);
    }
    let transcript = rest.join(" ");
    let engine = engine_with_index_cache(threads, report.is_some(), cache, index_cache.as_deref());
    let result = engine.transcribe(&transcript);
    println!("heard     : {transcript}");
    let code = show_result(&result);
    if let Some(path) = report {
        if !write_report(&engine, &path) {
            return ExitCode::FAILURE;
        }
    }
    code
}

/// Batch mode: one transcript per line, corrected on the engine's worker
/// pool, output order matching input order.
fn cmd_transcribe_batch(
    path: &str,
    threads: usize,
    cache: usize,
    report: Option<&str>,
    index_cache: Option<&str>,
) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    if lines.is_empty() {
        eprintln!("no transcripts in {path}");
        return ExitCode::FAILURE;
    }
    let engine = engine_with_index_cache(threads, report.is_some(), cache, index_cache);
    let start = std::time::Instant::now();
    let results = engine.transcribe_batch(&lines);
    let elapsed = start.elapsed();
    let mut errors = 0usize;
    for (transcript, result) in lines.iter().zip(&results) {
        match result {
            Ok(t) => println!("{}\t{}", transcript, t.best_sql().unwrap_or("")),
            // Per-slot containment: a failed transcript reports its error
            // class in its own output row and the batch keeps going.
            Err(e) => {
                errors += 1;
                println!("{}\t<error: {}>", transcript, e.class());
            }
        }
    }
    if errors > 0 {
        eprintln!("[speakql] {errors} transcript(s) failed");
    }
    eprintln!(
        "[speakql] {} transcript(s) in {:.3}s on {} thread(s)",
        lines.len(),
        elapsed.as_secs_f64(),
        engine.config().effective_threads()
    );
    if let Some(path) = report {
        if !write_report(&engine, path) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn cmd_speak(args: &[String]) -> ExitCode {
    let (rest, seed) = take_flag(args, "--seed");
    let Some(seed) = numeric("--seed", seed.as_deref(), 42u64, SPEAK_USAGE) else {
        return ExitCode::from(2);
    };
    if rest.is_empty() {
        eprintln!("{SPEAK_USAGE}");
        return ExitCode::from(2);
    }
    let sql = rest.join(" ");
    let db = employees_db();
    let train = generate_cases(&db, &scale_config(), 100, 0xA11CE);
    let asr = AsrEngine::new(AsrProfile::acs_trained(), training_vocabulary(&db, &train));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let transcript = asr.transcribe_sql(&sql, &mut rng);
    println!("spoken    : {sql}");
    println!("ASR heard : {transcript}");
    let engine = engine();
    show_result(&engine.transcribe(&transcript))
}

fn cmd_dataset(args: &[String]) -> ExitCode {
    let (rest, seed) = take_flag(args, "--seed");
    let with_transcripts = rest.iter().any(|a| a == "--transcripts");
    let n = rest.iter().find(|a| !a.starts_with("--"));
    let Some(n) = numeric("<n>", n.map(String::as_str), 10usize, DATASET_USAGE) else {
        return ExitCode::from(2);
    };
    let Some(seed) = numeric("--seed", seed.as_deref(), 0xA11CEu64, DATASET_USAGE) else {
        return ExitCode::from(2);
    };
    let db = employees_db();
    let cases = generate_cases(&db, &scale_config(), n, seed);
    if !with_transcripts {
        for case in cases {
            println!("{}", case.sql);
        }
        return ExitCode::SUCCESS;
    }
    // The paper publishes its spoken-SQL dataset; this is our equivalent:
    // ground-truth SQL, the verbalized (spoken) form, and one sampled noisy
    // transcription, tab-separated.
    let train = generate_cases(&db, &scale_config(), 100, 0xA11CE);
    let asr = AsrEngine::new(AsrProfile::acs_trained(), training_vocabulary(&db, &train));
    println!("sql\tspoken\ttranscript");
    for case in cases {
        let spoken = speakql_asr::spoken_words(&speakql_asr::verbalize_sql(&case.sql)).join(" ");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ case.id as u64);
        let transcript = asr.transcribe_sql(&case.sql, &mut rng);
        println!("{}\t{}\t{}", case.sql, spoken, transcript);
    }
    ExitCode::SUCCESS
}

fn cmd_index_build(args: &[String]) -> ExitCode {
    let (rest, scale) = take_flag(args, "--scale");
    let Some(path) = rest.first() else {
        eprintln!("usage: speakql index-build <path> [--scale small|medium|paper]");
        return ExitCode::from(2);
    };
    let cfg = match scale.as_deref() {
        Some("paper") => GeneratorConfig::paper(),
        Some("medium") => GeneratorConfig::medium(),
        _ => GeneratorConfig::small(),
    };
    eprintln!("[speakql] generating structures ...");
    let index = speakql_index::StructureIndex::from_grammar(&cfg, speakql_editdist::Weights::PAPER);
    eprintln!(
        "[speakql] {} structures, {} trie nodes",
        index.len(),
        index.total_nodes()
    );
    match speakql_index::save_to_path(&index, path) {
        Ok(()) => {
            println!("wrote {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_index_info(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: speakql index-info <path>");
        return ExitCode::from(2);
    };
    match speakql_index::load_from_path(path) {
        Ok(index) => {
            println!("structures : {}", index.len());
            println!("trie nodes : {}", index.total_nodes());
            println!("segments   : {}", index.segment_count());
            let w = index.weights();
            println!(
                "weights    : keyword {:.1}, splchar {:.1}, literal {:.1}",
                w.keyword as f64 / 10.0,
                w.splchar as f64 / 10.0,
                w.literal as f64 / 10.0
            );
            // Arena ids run over tombstoned slots too; only live ones count.
            let lens: Vec<usize> = (0..index.arena_len() as u32)
                .filter(|&id| !index.is_removed(id))
                .map(|id| index.structure_tokens(id).len())
                .collect();
            println!(
                "lengths    : min {}, max {}",
                lens.iter().min().unwrap_or(&0),
                lens.iter().max().unwrap_or(&0)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the multi-tenant server: the `employees` and `yelp` tenants over one
/// shared structure index (so same-schema queries warm each other's
/// skeleton cache), bounded admission, per-request budgets, and the framed
/// TCP protocol of `speakql-server`. Blocks until killed.
fn cmd_serve(args: &[String]) -> ExitCode {
    let (rest, addr) = take_flag(args, "--addr");
    let (rest, workers) = take_flag(&rest, "--workers");
    let (rest, queue) = take_flag(&rest, "--queue");
    let (rest, timeout_ms) = take_flag(&rest, "--timeout-ms");
    let (rest, cache) = take_flag(&rest, "--cache");
    if !rest.is_empty() {
        eprintln!("{SERVE_USAGE}");
        return ExitCode::from(2);
    }
    let addr = addr.unwrap_or_else(|| "127.0.0.1:5717".to_string());
    let Some(workers) = numeric("--workers", workers.as_deref(), 4usize, SERVE_USAGE) else {
        return ExitCode::from(2);
    };
    let Some(queue) = numeric("--queue", queue.as_deref(), 64usize, SERVE_USAGE) else {
        return ExitCode::from(2);
    };
    let Some(timeout_ms) = numeric(
        "--timeout-ms",
        timeout_ms.as_deref(),
        30_000u64,
        SERVE_USAGE,
    ) else {
        return ExitCode::from(2);
    };
    let Some(cache) = numeric("--cache", cache.as_deref(), 1024usize, SERVE_USAGE) else {
        return ExitCode::from(2);
    };

    eprintln!("[speakql] building shared structure index ...");
    let config = SpeakQlConfig {
        generator: scale_config(),
        ..SpeakQlConfig::paper()
    }
    .with_threads(1);
    let index = std::sync::Arc::new(speakql_index::StructureIndex::from_grammar(
        &config.generator,
        speakql_editdist::Weights::PAPER,
    ));
    let registry = TenantRegistry::new(cache, true);
    registry.register(
        "employees",
        &employees_db(),
        std::sync::Arc::clone(&index),
        config.clone(),
    );
    registry.register("yelp", &speakql_data::yelp_db(), index, config);

    let started = Server::serve(
        registry,
        ServerConfig {
            workers,
            queue_capacity: queue,
            request_budget: std::time::Duration::from_millis(timeout_ms),
            max_retries: 2,
            io_timeout: std::time::Duration::from_secs(10),
        },
    );
    let mut server = match started {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error spawning worker threads: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = match server.listen(&addr) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error binding {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for tenant in server.registry().tenant_names() {
        eprintln!("[speakql] tenant registered: {tenant}");
    }
    eprintln!(
        "[speakql] serving on {bound} ({workers} workers, {queue}-slot queue, \
         {timeout_ms} ms budget); protocol: 4-byte BE length-prefixed frames, \
         request = \"tenant\\ntranscript\""
    );
    // Serve until killed: the acceptor and workers own all the activity.
    loop {
        std::thread::park();
    }
}

fn cmd_schema() -> ExitCode {
    let db = employees_db();
    for t in &db.tables {
        let cols: Vec<String> = t
            .schema
            .columns
            .iter()
            .map(|c| format!("{} {:?}", c.name, c.ty))
            .collect();
        println!(
            "{} ({})  [{} rows]",
            t.schema.name,
            cols.join(", "),
            t.rows.len()
        );
    }
    ExitCode::SUCCESS
}
