//! Fault-injection harness: replay an adversarial transcript corpus through
//! every layer of the pipeline (engine, batch pool, clause dictation,
//! streaming) plus the index-persistence decoder, asserting that nothing
//! panics, that every failure is classified into a deterministic
//! [`SpeakQlError`] class, and that the `engine.errors.*` counters record
//! each class.
//!
//! The same runner backs the `fault_injection` CI binary and the
//! `fault_injection` integration test.

use crate::load::reference_response;
use speakql_core::{
    CounterId, FaultHook, SpeakQl, SpeakQlConfig, SpeakQlError, StreamingTranscriber,
};
use speakql_db::{Column, Database, Table, TableSchema, Value, ValueType};
use speakql_grammar::{ClauseKind, Keyword, StructTok, StructTokId};
use speakql_index::StructureIndex;
use speakql_server::{
    decode_response, encode_request, encode_response, read_frame, write_frame, Request, Response,
    Server, ServerConfig, TenantRegistry, CLASS_UNKNOWN_TENANT,
};
use std::io::Write;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Transcript marker the poisoned-batch fault hook panics on.
pub const POISON_MARKER: &str = "__speakql_poison__";

/// What a corpus case must produce at the engine boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// `Ok` with a non-empty candidate list.
    Candidates,
    /// `Err` whose [`SpeakQlError::class`] equals this name.
    ErrorClass(&'static str),
}

/// One adversarial transcript plus its required classification.
pub struct FaultCase {
    /// Corpus-stable case name.
    pub name: &'static str,
    /// The transcript replayed through each layer.
    pub transcript: String,
    /// Required outcome at the engine boundary.
    pub expected: Expected,
}

/// The adversarial corpus from the PR 5 issue: empty, whitespace-only,
/// non-ASCII/multibyte, pathologically long, keyword-free, and SplChar-only
/// transcripts (poisoned and corrupted-index cases are driven separately).
pub fn adversarial_corpus() -> Vec<FaultCase> {
    vec![
        FaultCase {
            name: "empty",
            transcript: String::new(),
            expected: Expected::ErrorClass("empty_transcript"),
        },
        FaultCase {
            name: "whitespace_only",
            transcript: " \t \n\u{00a0} ".to_string(),
            expected: Expected::ErrorClass("empty_transcript"),
        },
        FaultCase {
            name: "non_ascii_multibyte",
            transcript: "sëlect sàlary frôm 従業員 🦀 naïve Zoe\u{0308}".to_string(),
            expected: Expected::Candidates,
        },
        FaultCase {
            name: "pathologically_long",
            transcript: vec!["select"; 2_000].join(" "),
            expected: Expected::ErrorClass("transcript_too_long"),
        },
        FaultCase {
            name: "keyword_free",
            transcript: "banana umbrella quixotic marmalade zephyr".to_string(),
            expected: Expected::Candidates,
        },
        FaultCase {
            name: "splchar_only",
            transcript: "( ) , = . ( )".to_string(),
            expected: Expected::Candidates,
        },
    ]
}

/// One layer's verdict on one case.
pub struct CaseOutcome {
    /// Corpus case name (or synthetic harness case).
    pub case: String,
    /// Pipeline layer the case was replayed through.
    pub layer: &'static str,
    /// Observed classification (`candidates`, an error class, or `panic`).
    pub observed: String,
    /// Whether the observation matched the expectation.
    pub pass: bool,
}

/// Everything the harness measured.
pub struct FaultReport {
    /// Per-case, per-layer outcomes.
    pub outcomes: Vec<CaseOutcome>,
}

impl FaultReport {
    /// True when every outcome passed.
    pub fn all_passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.pass)
    }

    /// Outcomes that failed.
    pub fn failures(&self) -> impl Iterator<Item = &CaseOutcome> {
        self.outcomes.iter().filter(|o| !o.pass)
    }

    /// Render the outcome table, one line per case × layer.
    pub fn render_table(&self) -> String {
        let mut out =
            String::from("case                    layer      observed                 pass\n");
        for o in &self.outcomes {
            out.push_str(&format!(
                "{:<23} {:<10} {:<24} {}\n",
                o.case,
                o.layer,
                o.observed,
                if o.pass { "ok" } else { "FAIL" }
            ));
        }
        out
    }
}

fn harness_db() -> Database {
    let mut db = Database::new("fault");
    let mut t = Table::new(TableSchema::new(
        "Employees",
        vec![
            Column::new("Name", ValueType::Text),
            Column::new("Salary", ValueType::Int),
        ],
    ));
    t.push_row(vec![Value::Text("John".into()), Value::Int(70000)]);
    t.push_row(vec![Value::Text("Perla".into()), Value::Int(82000)]);
    db.add_table(t);
    db
}

/// The harness engine: small structure space, observability on, a modest
/// word cap so the pathological case trips it, and a fault hook that
/// panics on [`POISON_MARKER`].
fn harness_engine(threads: usize) -> SpeakQl {
    SpeakQl::new(
        &harness_db(),
        SpeakQlConfig::small()
            .with_threads(threads)
            .with_observability(true)
            .with_max_transcript_words(1024)
            .with_fault_hook(FaultHook::new(|t| {
                assert!(!t.contains(POISON_MARKER), "injected fault");
            })),
    )
}

/// Classify one engine-boundary result for the outcome table.
fn classify(r: &Result<speakql_core::Transcription, SpeakQlError>) -> String {
    match r {
        Ok(t) if !t.candidates.is_empty() => "candidates".to_string(),
        Ok(_) => "ok_but_no_candidates".to_string(),
        Err(e) => e.class().to_string(),
    }
}

fn expected_label(e: Expected) -> String {
    match e {
        Expected::Candidates => "candidates".to_string(),
        Expected::ErrorClass(c) => c.to_string(),
    }
}

/// Run `work` trapping any escaped panic as the string `panic`, so a
/// containment regression shows up as a table failure instead of killing
/// the harness.
fn trap(work: impl FnOnce() -> String) -> String {
    catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|_| "panic".to_string())
}

/// Replay the corpus through every layer and run the synthetic cases
/// (poisoned batch slot, empty index, corrupted persisted bytes).
pub fn run_fault_injection() -> FaultReport {
    let mut outcomes = Vec::new();
    let engine = harness_engine(1);
    let corpus = adversarial_corpus();

    // --- Engine layer: classification must match and be deterministic. ---
    for case in &corpus {
        let want = expected_label(case.expected);
        let first = trap(|| classify(&engine.transcribe(&case.transcript)));
        let second = trap(|| classify(&engine.transcribe(&case.transcript)));
        outcomes.push(CaseOutcome {
            case: case.name.to_string(),
            layer: "engine",
            pass: first == want && second == want,
            observed: if first == second {
                first
            } else {
                format!("{first}/{second}")
            },
        });
    }

    // --- Clause layer: same corpus against the WHERE-clause index. The
    // clause index is never empty and clause search is total over word
    // soup, so expectations carry over unchanged. ---
    for case in &corpus {
        let want = expected_label(case.expected);
        let got = trap(|| classify(&engine.transcribe_clause(ClauseKind::Where, &case.transcript)));
        outcomes.push(CaseOutcome {
            case: case.name.to_string(),
            layer: "clause",
            pass: got == want,
            observed: got,
        });
    }

    // --- Streaming layer: a refresh that fails must keep the session
    // alive (no panic) and park the error; word-free hypotheses reset the
    // display instead of erroring. ---
    for case in &corpus {
        let got = trap(|| {
            let mut s = StreamingTranscriber::new(&engine);
            s.set_hypothesis(&case.transcript);
            match (s.current(), s.last_error()) {
                (_, Some(e)) => e.class().to_string(),
                (Some(t), None) if !t.candidates.is_empty() => "candidates".to_string(),
                (Some(_), None) => "ok_but_no_candidates".to_string(),
                (None, None) => "reset".to_string(),
            }
        });
        let want = match case.expected {
            Expected::Candidates => "candidates".to_string(),
            // The streaming display treats a word-free hypothesis as a
            // reset, not an error; other error classes surface as parked
            // typed errors.
            Expected::ErrorClass("empty_transcript") => "reset".to_string(),
            Expected::ErrorClass(c) => c.to_string(),
        };
        outcomes.push(CaseOutcome {
            case: case.name.to_string(),
            layer: "streaming",
            pass: got == want,
            observed: got,
        });
    }

    // --- Batch layer: the whole corpus plus one poisoned transcript in a
    // single parallel batch. Every slot must fill in input order, the
    // poisoned slot (and only it) as a worker panic. ---
    {
        let par = harness_engine(4);
        let poisoned = format!("select {POISON_MARKER} from employees");
        let mut transcripts: Vec<&str> = corpus.iter().map(|c| c.transcript.as_str()).collect();
        let poison_slot = transcripts.len() / 2;
        transcripts.insert(poison_slot, &poisoned);
        let got = trap(|| {
            let results = par.transcribe_batch(&transcripts);
            if results.len() != transcripts.len() {
                return format!("{} of {} slots", results.len(), transcripts.len());
            }
            let panics = results
                .iter()
                .filter(|r| matches!(r, Err(SpeakQlError::WorkerPanic { .. })))
                .count();
            if panics != 1 || !matches!(results[poison_slot], Err(SpeakQlError::WorkerPanic { .. }))
            {
                return format!("{panics} worker panics (slot mismatch)");
            }
            // Every non-poisoned slot must classify exactly as the
            // sequential engine classifies the same transcript.
            for (i, case) in corpus.iter().enumerate() {
                let slot = if i < poison_slot { i } else { i + 1 };
                if classify(&results[slot]) != expected_label(case.expected) {
                    return format!("slot {slot} ({}) misclassified", case.name);
                }
            }
            "one_poisoned_slot".to_string()
        });
        outcomes.push(CaseOutcome {
            case: "poisoned_batch".to_string(),
            layer: "batch",
            pass: got == "one_poisoned_slot",
            observed: got,
        });
    }

    // --- Error counters: the engine-layer replays above must have counted
    // every class they produced (two engine passes + one clause pass). ---
    {
        let report = engine.report();
        let checks = [
            // 2 cases × (2 engine passes + 1 clause pass); the streaming
            // layer resets on word-free hypotheses without calling the
            // engine, so it contributes nothing here.
            (CounterId::ErrorsEmptyTranscript, 6u64),
            // 1 case × (2 engine + 1 clause + 1 streaming refresh).
            (CounterId::ErrorsTranscriptTooLong, 4),
        ];
        for (counter, want) in checks {
            let got = report.counter(counter);
            outcomes.push(CaseOutcome {
                case: counter.name().to_string(),
                layer: "counters",
                pass: got == want,
                observed: format!("{got} (want {want})"),
            });
        }
        let solo = harness_engine(1);
        let got = trap(|| classify(&solo.transcribe(&format!("a {POISON_MARKER}"))));
        let counted = solo.report().counter(CounterId::ErrorsWorkerPanic);
        outcomes.push(CaseOutcome {
            case: "engine.errors.worker_panic".to_string(),
            layer: "counters",
            pass: got == "worker_panic" && counted == 1,
            observed: format!("{got} ({counted} counted)"),
        });
    }

    // --- Empty index: an engine with zero structures returns a typed
    // error, not a panic and not an empty candidate list. ---
    {
        let empty = SpeakQl::with_index(
            &harness_db(),
            std::sync::Arc::new(StructureIndex::build(
                Vec::new(),
                speakql_editdist::Weights::PAPER,
            )),
            SpeakQlConfig::small().with_observability(true),
        );
        let got = trap(|| classify(&empty.transcribe("select salary from employees")));
        let counted = empty.report().counter(CounterId::ErrorsEmptyIndex) == 1;
        outcomes.push(CaseOutcome {
            case: "empty_index".to_string(),
            layer: "engine",
            pass: got == "empty_index" && counted,
            observed: got,
        });
    }

    // --- Persistence layer: truncated and bit-flipped index bytes must
    // decode to an error, never a panic. ---
    outcomes.extend(run_corrupted_index_cases());

    // --- Delta persistence: corruptions specific to the segment
    // replace/append path (stale segment table, stale reseal, tombstone
    // list lies) and resealed lies in the structure planes must map to
    // typed errors too. ---
    outcomes.extend(run_delta_corruption_cases());

    // --- Server layer: hostile clients and concurrent faults against a
    // running multi-tenant server. ---
    outcomes.extend(run_server_fault_cases());

    FaultReport { outcomes }
}

/// The engine configuration of the fault server's tenant: poisoned
/// transcripts panic via the fault hook.
fn fault_tenant_config() -> SpeakQlConfig {
    SpeakQlConfig::small()
        .with_threads(1)
        .with_max_transcript_words(1024)
        .with_fault_hook(FaultHook::new(|t| {
            assert!(!t.contains(POISON_MARKER), "injected fault");
        }))
}

/// A one-tenant server over the harness schema (tenant `"fault"`, poisoned
/// transcripts panic via the fault hook), bound to an ephemeral loopback
/// port.
fn fault_server(workers: usize, io_timeout: Duration) -> (Server, Option<std::net::SocketAddr>) {
    let cfg = fault_tenant_config();
    let index = Arc::new(StructureIndex::from_grammar(&cfg.generator, cfg.weights));
    let registry = TenantRegistry::new(64, true);
    registry.register("fault", &harness_db(), index, cfg);
    let mut server = Server::serve(
        registry,
        ServerConfig {
            workers,
            queue_capacity: 32,
            request_budget: Duration::from_secs(60),
            max_retries: 2,
            io_timeout,
        },
    )
    .unwrap_or_else(|e| panic!("fault harness: cannot spawn worker threads: {e}"));
    let addr = server.listen("127.0.0.1:0").ok();
    (server, addr)
}

/// Send one framed request and decode the framed response (None on any
/// transport failure — the caller folds that into the case verdict).
fn server_request(addr: std::net::SocketAddr, tenant: &str, transcript: &str) -> Option<Response> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    let req = Request {
        tenant: tenant.to_string(),
        transcript: transcript.to_string(),
    };
    write_frame(&mut stream, &encode_request(&req)).ok()?;
    let payload = read_frame(&mut stream).ok()??;
    decode_response(&payload).ok()
}

/// The response payload the library path produces for `transcript` — what
/// the server must send back byte for byte.
fn library_payload(engine: &SpeakQl, transcript: &str) -> Vec<u8> {
    encode_response(&reference_response(engine, transcript))
}

/// One encoded request frame for the fault tenant.
fn request_frame(transcript: &str) -> Vec<u8> {
    let req = Request {
        tenant: "fault".to_string(),
        transcript: transcript.to_string(),
    };
    let mut wire = Vec::new();
    // Writing into a `Vec` cannot fail.
    let _ = write_frame(&mut wire, &encode_request(&req));
    wire
}

/// Wait (bounded) for a server counter to reach `want` — hostile-client
/// cases race the handler thread's bookkeeping.
fn await_counter(server: &Server, id: CounterId, want: u64) -> u64 {
    for _ in 0..500 {
        let got = server.recorder().counter(id);
        if got >= want {
            return got;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    server.recorder().counter(id)
}

/// Hostile clients and concurrent faults against a live server: a
/// slow-loris client must be disconnected by the io timeout, a mid-request
/// disconnect must not wedge the handler, a poisoned request in a busy
/// pool must fail alone, a tenant whose persisted index bytes are
/// corrupted must be rejected at load time while the healthy fleet keeps
/// serving, and frames that do not arrive one per segment (two in one
/// write, one dribbled a byte at a time) must be answered as if they had.
fn run_server_fault_cases() -> Vec<CaseOutcome> {
    let healthy = "select salary from employees";
    let mut outcomes = Vec::new();
    let library = SpeakQl::new(&harness_db(), fault_tenant_config());

    // --- Slow loris: a client that sends two bytes of a length prefix and
    // stalls is disconnected once `io_timeout` fires (we observe the
    // server-side close as a clean EOF), counted as a protocol error, and
    // the server keeps serving fresh connections. ---
    {
        let (server, addr) = fault_server(2, Duration::from_millis(150));
        let got = trap(|| {
            let Some(addr) = addr else {
                return "bind failed".to_string();
            };
            let Ok(mut stream) = TcpStream::connect(addr) else {
                return "connect failed".to_string();
            };
            if stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .is_err()
                || stream.write_all(&[0, 0]).is_err()
            {
                return "stall setup failed".to_string();
            }
            // The server must hang up on us, not the other way round.
            if !matches!(read_frame(&mut stream), Ok(None)) {
                return "server did not drop the stalled client".to_string();
            }
            let counted = await_counter(&server, CounterId::ServerProtocolErrors, 1);
            let served = matches!(
                server_request(addr, "fault", healthy),
                Some(Response::Ok { ref sql }) if !sql.is_empty()
            );
            if counted == 1 && served {
                "dropped_then_served".to_string()
            } else {
                format!("counted {counted}, fresh connection served: {served}")
            }
        });
        server.shutdown();
        outcomes.push(CaseOutcome {
            case: "slow_loris".to_string(),
            layer: "server",
            pass: got == "dropped_then_served",
            observed: got,
        });
    }

    // --- Mid-request disconnect: a client that dies halfway through a
    // frame is counted (truncated read) and never wedges the handler. ---
    {
        let (server, addr) = fault_server(2, Duration::from_secs(5));
        let got = trap(|| {
            let Some(addr) = addr else {
                return "bind failed".to_string();
            };
            let wire = request_frame(healthy);
            match TcpStream::connect(addr) {
                Ok(mut stream) => {
                    if stream.write_all(&wire[..wire.len() / 2]).is_err() {
                        return "partial write failed".to_string();
                    }
                    drop(stream);
                }
                Err(_) => return "connect failed".to_string(),
            }
            let counted = await_counter(&server, CounterId::ServerProtocolErrors, 1);
            let served = matches!(
                server_request(addr, "fault", healthy),
                Some(Response::Ok { ref sql }) if !sql.is_empty()
            );
            if counted == 1 && served {
                "counted_then_served".to_string()
            } else {
                format!("counted {counted}, fresh connection served: {served}")
            }
        });
        server.shutdown();
        outcomes.push(CaseOutcome {
            case: "mid_request_disconnect".to_string(),
            layer: "server",
            pass: got == "counted_then_served",
            observed: got,
        });
    }

    // --- Poisoned request in a busy pool: one poisoned transcript among
    // concurrent healthy ones exhausts its retries and fails alone; every
    // healthy request still answers identically. ---
    {
        let (server, _) = fault_server(2, Duration::from_secs(5));
        let got = trap(|| {
            let handle = server.handle();
            let poisoned = format!("select {POISON_MARKER} from employees");
            let mut pending = Vec::new();
            for i in 0..9 {
                let transcript = if i == 4 { poisoned.as_str() } else { healthy };
                pending.push((i, handle.submit("fault", transcript)));
            }
            let mut healthy_sqls = Vec::new();
            let mut poisoned_class = String::new();
            for (i, rx) in pending {
                match rx.recv() {
                    Ok(Response::Ok { sql }) if i != 4 => healthy_sqls.push(sql),
                    Ok(Response::Err { class, .. }) if i == 4 => poisoned_class = class,
                    Ok(_) => return format!("slot {i} misclassified"),
                    Err(_) => return format!("slot {i} got no answer"),
                }
            }
            let retries = server.recorder().counter(CounterId::ServerRetries);
            if poisoned_class != "worker_panic" {
                return format!("poisoned slot classified {poisoned_class:?}");
            }
            if retries != 2 {
                return format!("{retries} retries (want 2)");
            }
            if healthy_sqls.len() != 8
                || healthy_sqls
                    .iter()
                    .any(|s| s.is_empty() || s != &healthy_sqls[0])
            {
                return "healthy slots diverged".to_string();
            }
            "one_poisoned_slot".to_string()
        });
        server.shutdown();
        outcomes.push(CaseOutcome {
            case: "poisoned_busy_pool".to_string(),
            layer: "server",
            pass: got == "one_poisoned_slot",
            observed: got,
        });
    }

    // --- Corrupted tenant index: bit-flipped persisted bytes are rejected
    // by the decoder, so the tenant never registers; the rest of the fleet
    // keeps serving and requests for the missing tenant get the typed
    // unknown-tenant class. ---
    {
        let (server, addr) = fault_server(2, Duration::from_secs(5));
        let got = trap(|| {
            let cfg = SpeakQlConfig::small();
            let index = StructureIndex::from_grammar(&cfg.generator, cfg.weights);
            let mut bytes = match speakql_index::to_bytes(&index) {
                Ok(b) => b.to_vec(),
                Err(e) => return format!("serialize failed: {e}"),
            };
            bytes[1] ^= 0x80;
            if speakql_index::from_bytes(&bytes).is_ok() {
                return "corrupted bytes decoded".to_string();
            }
            let Some(addr) = addr else {
                return "bind failed".to_string();
            };
            let rejected = matches!(
                server_request(addr, "corrupt", healthy),
                Some(Response::Err { ref class, .. }) if class == CLASS_UNKNOWN_TENANT
            );
            let served = matches!(
                server_request(addr, "fault", healthy),
                Some(Response::Ok { ref sql }) if !sql.is_empty()
            );
            if rejected && served {
                "rejected_at_load_time".to_string()
            } else {
                format!("unknown-tenant answered: {rejected}, healthy served: {served}")
            }
        });
        server.shutdown();
        outcomes.push(CaseOutcome {
            case: "corrupted_index_tenant".to_string(),
            layer: "server",
            pass: got == "rejected_at_load_time",
            observed: got,
        });
    }

    // --- Pipelined frames: two request frames in one write on one
    // connection. The server reads them off the stream one at a time and
    // answers both, in order, each byte-identical to the library path. ---
    {
        let (server, addr) = fault_server(2, Duration::from_secs(5));
        let got = trap(|| {
            let Some(addr) = addr else {
                return "bind failed".to_string();
            };
            let second = "select name from employees where salary equals 82000";
            let want = [
                library_payload(&library, healthy),
                library_payload(&library, second),
            ];
            if want[0] == want[1] {
                return "both transcripts answer alike; order unobservable".to_string();
            }
            let mut wire = request_frame(healthy);
            wire.extend(request_frame(second));
            let Ok(mut stream) = TcpStream::connect(addr) else {
                return "connect failed".to_string();
            };
            if stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .is_err()
                || stream.write_all(&wire).is_err()
            {
                return "pipelined write failed".to_string();
            }
            for (i, want) in want.iter().enumerate() {
                match read_frame(&mut stream) {
                    Ok(Some(payload)) if &payload == want => {}
                    Ok(Some(_)) => return format!("response {i} differs from the library path"),
                    _ => return format!("response {i} missing"),
                }
            }
            "two_in_order".to_string()
        });
        server.shutdown();
        outcomes.push(CaseOutcome {
            case: "pipelined_frames".to_string(),
            layer: "server",
            pass: got == "two_in_order",
            observed: got,
        });
    }

    // --- Dribbled frame: one request written a byte at a time, each gap
    // well under `io_timeout` but the whole frame slower than it. The io
    // timeout bounds a stall, not a frame, so the request is answered
    // normally and no protocol error is counted. ---
    {
        let io_timeout = Duration::from_millis(250);
        let (server, addr) = fault_server(2, io_timeout);
        let got = trap(|| {
            let Some(addr) = addr else {
                return "bind failed".to_string();
            };
            let Ok(mut stream) = TcpStream::connect(addr) else {
                return "connect failed".to_string();
            };
            // Nagle off, so each byte leaves as its own segment.
            if stream.set_nodelay(true).is_err()
                || stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .is_err()
            {
                return "socket setup failed".to_string();
            }
            for byte in request_frame(healthy) {
                if stream.write_all(&[byte]).is_err() {
                    return "dribbled write failed".to_string();
                }
                std::thread::sleep(io_timeout / 25);
            }
            let answered = matches!(
                read_frame(&mut stream),
                Ok(Some(payload)) if payload == library_payload(&library, healthy)
            );
            let counted = server.recorder().counter(CounterId::ServerProtocolErrors);
            if answered && counted == 0 {
                "answered_uncounted".to_string()
            } else {
                format!("answered like the library path: {answered}, protocol errors {counted}")
            }
        });
        server.shutdown();
        outcomes.push(CaseOutcome {
            case: "dribbled_frame".to_string(),
            layer: "server",
            pass: got == "answered_uncounted",
            observed: got,
        });
    }

    outcomes
}

/// Serialize a small index, then replay truncations, bit-flips, and
/// checksum corruption through the decoder. Every corruption must yield a
/// typed `PersistError` whose stable `class()` is in the case's expected
/// set — never a panic, never a successful decode.
fn run_corrupted_index_cases() -> Vec<CaseOutcome> {
    let cfg = SpeakQlConfig::small();
    let index = StructureIndex::from_grammar(&cfg.generator, cfg.weights);
    let bytes = match speakql_index::to_bytes(&index) {
        Ok(b) => b,
        Err(e) => {
            return vec![CaseOutcome {
                case: "serialize_index".to_string(),
                layer: "persist",
                pass: false,
                observed: format!("serialize failed: {e}"),
            }]
        }
    };

    let mut outcomes = Vec::new();
    // Each case pins the typed error class(es) the corruption must map to;
    // an unexpected class is as much a failure as a decode or a panic.
    let mut check = |case: String, data: Vec<u8>, classes: &[&str]| {
        let got = trap(|| match speakql_index::from_bytes(&data) {
            Ok(_) => "decoded".to_string(),
            Err(e) => format!("err:{}", e.class()),
        });
        let pass = classes.iter().any(|c| got == format!("err:{c}"));
        outcomes.push(CaseOutcome {
            case,
            layer: "persist",
            pass,
            observed: got,
        });
    };

    let n = bytes.len();
    // Truncations: before the magic, inside it, inside the header, mid
    // block A, and one byte short. Anything cut before the 4-byte magic
    // reads as not-an-index; past it, as a structural truncation.
    for (cut, classes) in [
        (0usize, &["bad_magic"] as &[&str]),
        (3, &["bad_magic"]),
        (9, &["corrupt"]),
        (n / 2, &["corrupt", "bad_checksum"]),
        (n - 1, &["corrupt"]),
    ] {
        check(
            format!("truncated_at_{cut}"),
            bytes[..cut].to_vec(),
            classes,
        );
    }
    // Segment-boundary truncations: cut exactly at the final segment's
    // checksum (so every plane is intact but the seal is gone) and four
    // bytes into its structure plane.
    check(
        "truncated_segment_checksum".to_string(),
        bytes[..n - 8].to_vec(),
        &["corrupt"],
    );
    check(
        "truncated_segment_plane".to_string(),
        bytes[..n - 12].to_vec(),
        &["corrupt"],
    );
    // Bit flips in the magic, the version, and the structure-count field.
    for (name, pos, classes) in [
        ("magic", 1usize, &["bad_magic"] as &[&str]),
        ("version", 5, &["bad_version"]),
        ("count", 18, &["corrupt"]),
    ] {
        let mut data = bytes.to_vec();
        data[pos] ^= 0x80;
        check(format!("bitflip_{name}"), data, classes);
    }
    // Body flips now land under a checksum: a flipped structure-plane byte
    // (offset 40 is inside block A) must fail the block checksum, and a
    // flipped byte in the trie node planes must fail its segment checksum.
    let mut data = bytes.to_vec();
    data[40] ^= 0x80;
    check("checksum_flip_block_a".to_string(), data, &["bad_checksum"]);
    let mut data = bytes.to_vec();
    data[n - 20] ^= 0x80;
    check("checksum_flip_segment".to_string(), data, &["bad_checksum"]);
    // Flipping the recorded checksum itself (the file's final 8 bytes)
    // must be caught the same way as flipping the sealed data.
    let mut data = bytes.to_vec();
    data[n - 1] ^= 0x01;
    check(
        "checksum_flip_recorded".to_string(),
        data,
        &["bad_checksum"],
    );
    // Garbage of plausible length.
    check("garbage".to_string(), vec![0xAB; 256], &["bad_magic"]);

    // Engine boundary: loading a corrupted persisted index through
    // `SpeakQl::with_persisted_index` surfaces the typed `IndexLoad` error
    // carrying the persist layer's class, instead of panicking or yielding
    // an engine over garbage.
    {
        let got = trap(|| {
            let dir = std::env::temp_dir().join("speakql-fault-index");
            if std::fs::create_dir_all(&dir).is_err() {
                return "tempdir failed".to_string();
            }
            let path = dir.join("corrupt.sqlx");
            let mut data = bytes.to_vec();
            data[n - 20] ^= 0x80;
            if std::fs::write(&path, &data).is_err() {
                return "write failed".to_string();
            }
            let out = match SpeakQl::with_persisted_index(
                &harness_db(),
                &path,
                SpeakQlConfig::small().with_observability(true),
            ) {
                Ok(_) => "engine built over corrupt index".to_string(),
                Err(SpeakQlError::IndexLoad { class, .. }) => format!("index_load:{class}"),
                Err(e) => format!("wrong error: {}", e.class()),
            };
            std::fs::remove_file(&path).ok();
            out
        });
        outcomes.push(CaseOutcome {
            case: "engine_index_load".to_string(),
            layer: "engine",
            pass: got == "index_load:bad_checksum",
            observed: got,
        });
    }
    outcomes
}

/// FNV-1a-64 over little-endian u64 words with the byte length premixed — a
/// harness-local reimplementation of the persist layer's block checksum.
/// Having it here lets the corruption cases *reseal* block A after lying in
/// a sealed field, proving the decoder's structural validation catches what
/// the checksum alone cannot.
fn fnv_checksum64(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET ^ (data.len() as u64).wrapping_mul(PRIME);
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        if let &[a, b, c0, d, e, f, g, i] = c {
            h ^= u64::from_le_bytes([a, b, c0, d, e, f, g, i]);
            h = h.wrapping_mul(PRIME);
        }
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Byte offsets of interest inside a version-5 image, recovered by walking
/// the format the same way the decoder does.
struct V5Layout {
    /// Byte range of the token plane (one byte per token, arena order).
    tok_plane: std::ops::Range<usize>,
    /// Offset of the placeholder plane (3-byte records, category first).
    ph_plane_at: usize,
    /// Offset of the removed-count word.
    removed_count_at: usize,
    /// Number of removed ids.
    removed_count: usize,
    /// Offset of the first removed id (after the removed-count word).
    removed_ids_at: usize,
    /// Offset of the block A checksum (u64 LE).
    block_a_checksum_at: usize,
    /// Offset of the segment table.
    seg_table_at: usize,
    /// Every segment, in table order.
    segments: Vec<SegmentAt>,
}

/// One segment of a version-5 image.
struct SegmentAt {
    /// Trie length and node count, as its table entry records them.
    len: usize,
    nodes: usize,
    /// Offset of its count table (the group sizes, then the count planes).
    at: usize,
    /// Count-table entries.
    groups: usize,
    /// Offset of its node planes, which run to its checksum.
    planes_at: usize,
    /// Offset of its checksum (u64 LE).
    checksum_at: usize,
}

impl V5Layout {
    /// The final segment (every image the harness writes has one).
    fn last(&self) -> &SegmentAt {
        &self.segments[self.segments.len() - 1]
    }
}

fn read_u32_le(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize
}

fn v5_layout(bytes: &[u8]) -> Option<V5Layout> {
    const HEADER_LEN: usize = 32;
    const ALPHABET: usize = speakql_grammar::STRUCT_ALPHABET;
    if bytes.len() < HEADER_LEN || u16::from_be_bytes([bytes[4], bytes[5]]) != 5 {
        return None;
    }
    let be = |o: usize| {
        u32::from_be_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]]) as usize
    };
    let (count, seg_count) = (be(18), be(26));
    let mut pos = HEADER_LEN;
    // Token offsets + plane (padded to 4).
    let tok_total = read_u32_le(bytes, pos + count * 4);
    let tok_plane = pos + (count + 1) * 4..pos + (count + 1) * 4 + tok_total;
    pos = tok_plane.end;
    pos += (4 - pos % 4) % 4;
    // Placeholder offsets + 3-byte records (padded to 4).
    let ph_total = read_u32_le(bytes, pos + count * 4);
    let ph_plane_at = pos + (count + 1) * 4;
    pos = ph_plane_at + ph_total * 3;
    pos += (4 - pos % 4) % 4;
    // Removed list: count word then the ids.
    let removed_count_at = pos;
    let removed_count = read_u32_le(bytes, pos);
    let removed_ids_at = pos + 4;
    pos += 4 + removed_count * 4;
    let block_a_checksum_at = pos;
    pos += 8;
    let seg_table_at = pos;
    pos += seg_count * 12;
    // Walk the segment table: each segment is its count table, then its
    // node planes, then its checksum.
    let mut segments = Vec::with_capacity(seg_count);
    for seg in 0..seg_count {
        let entry = seg_table_at + seg * 12;
        let (len, nodes, groups) = (
            read_u32_le(bytes, entry),
            read_u32_le(bytes, entry + 4),
            read_u32_le(bytes, entry + 8),
        );
        let planes_at = pos + groups * (4 + ALPHABET);
        let checksum_at = planes_at + nodes + (4 - nodes % 4) % 4 + nodes * 12;
        segments.push(SegmentAt {
            len,
            nodes,
            at: pos,
            groups,
            planes_at,
            checksum_at,
        });
        pos = checksum_at + 8;
    }
    (pos == bytes.len() && !segments.is_empty()).then_some(V5Layout {
        tok_plane,
        ph_plane_at,
        removed_count_at,
        removed_count,
        removed_ids_at,
        block_a_checksum_at,
        seg_table_at,
        segments,
    })
}

/// The version-4 image of the index `v5` holds: the same header and block
/// A with the version field set to 4, segment-table entries without their
/// group count, and each segment's node planes without the count table in
/// front, resealed — what the version-4 writer stored for the same
/// segments.
fn v4_image(v5: &[u8], layout: &V5Layout) -> Vec<u8> {
    let mut out = v5[..layout.seg_table_at].to_vec();
    out[4..6].copy_from_slice(&4u16.to_be_bytes());
    for seg in &layout.segments {
        for word in [seg.len, seg.nodes] {
            // lossy: both came out of u32 table words
            out.extend_from_slice(&(word as u32).to_le_bytes());
        }
    }
    for seg in &layout.segments {
        let planes = &v5[seg.planes_at..seg.checksum_at];
        out.extend_from_slice(planes);
        out.extend_from_slice(&fnv_checksum64(planes).to_le_bytes());
    }
    out
}

/// The version-3 image of the index a version-4 image `v4` holds (block A
/// laid out as in `layout`): the same bytes, with the version field set to
/// 3 and the 19 INV posting lists the version-3 writer kept in block A (an
/// offset table of 20 u32 LE, then the live ids under each keyword other
/// than SELECT/FROM/WHERE, in arena order) between the placeholder plane
/// and the removed list, and block A resealed.
fn v3_image(v4: &[u8], layout: &V5Layout, index: &StructureIndex) -> Vec<u8> {
    const HEADER_LEN: usize = 32;
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); 19];
    for id in (0..index.arena_len() as u32).filter(|&id| !index.is_removed(id)) {
        let mut seen = [false; 19];
        for t in index.structure_tokens(id) {
            if let StructTok::Keyword(k) = t.tok() {
                let rare = !matches!(k, Keyword::Select | Keyword::From | Keyword::Where);
                if rare && !std::mem::replace(&mut seen[k.index()], true) {
                    lists[k.index()].push(id);
                }
            }
        }
    }
    let mut out = v4[..layout.removed_count_at].to_vec();
    out[4..6].copy_from_slice(&3u16.to_be_bytes());
    let mut at = 0u32;
    for list in &lists {
        out.extend_from_slice(&at.to_le_bytes());
        at += list.len() as u32;
    }
    out.extend_from_slice(&at.to_le_bytes());
    for id in lists.iter().flatten() {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out.extend_from_slice(&v4[layout.removed_count_at..layout.block_a_checksum_at]);
    let ck = fnv_checksum64(&out[HEADER_LEN..]);
    out.extend_from_slice(&ck.to_le_bytes());
    out.extend_from_slice(&v4[layout.block_a_checksum_at + 8..]);
    out
}

/// Corruptions specific to images a delta produced — a stale segment table
/// left behind by a replace, planes changed under a reused (stale) reseal,
/// truncation exactly at a replaced segment's boundary, removed-id lists
/// that lie — and lies in block A's structure content. Every lie in block A
/// is resealed so only structural validation can catch it.
fn run_delta_corruption_cases() -> Vec<CaseOutcome> {
    const HEADER_LEN: usize = 32;
    let mut outcomes = Vec::new();
    let fail = |case: &str, observed: String| CaseOutcome {
        case: case.to_string(),
        layer: "persist",
        pass: false,
        observed,
    };

    // A delta'd index with tombstones: its image carries a removed list.
    let cfg = SpeakQlConfig::small();
    let base = StructureIndex::from_grammar(&cfg.generator, cfg.weights);
    let delta = speakql_index::IndexDelta::new().remove_structures([5u32, 10]);
    let delta_idx = match base.apply_delta(&delta) {
        Ok((idx, _)) => idx,
        Err(e) => return vec![fail("delta_image", format!("apply_delta failed: {e}"))],
    };
    let bytes = match speakql_index::to_bytes(&delta_idx) {
        Ok(b) => b.to_vec(),
        Err(e) => return vec![fail("delta_image", format!("serialize failed: {e}"))],
    };
    let Some(layout) = v5_layout(&bytes).filter(|l| l.removed_count >= 2) else {
        return vec![fail(
            "delta_image",
            "not a parseable v5 image with two removed ids".to_string(),
        )];
    };
    if speakql_index::from_bytes(&bytes).is_err() {
        return vec![fail(
            "delta_image",
            "pristine v5 image rejected".to_string(),
        )];
    }

    let mut check = |case: String, data: Vec<u8>, classes: &[&str]| {
        let got = trap(|| match speakql_index::from_bytes(&data) {
            Ok(_) => "decoded".to_string(),
            Err(e) => format!("err:{}", e.class()),
        });
        let pass = classes.iter().any(|c| got == format!("err:{c}"));
        outcomes.push(CaseOutcome {
            case,
            layer: "persist",
            pass,
            observed: got,
        });
    };
    let reseal_block_a = |data: &mut [u8]| {
        let ck = fnv_checksum64(&data[HEADER_LEN..layout.block_a_checksum_at]);
        data[layout.block_a_checksum_at..layout.block_a_checksum_at + 8]
            .copy_from_slice(&ck.to_le_bytes());
    };

    // A replace that rewrote a segment's planes but left the old table
    // entry: the claimed node count no longer matches the planes, so plane
    // parsing shears and either a checksum or a structural check trips.
    let mut data = bytes.clone();
    let nc_at = layout.seg_table_at + 4;
    let nc = read_u32_le(&data, nc_at) as u32;
    data[nc_at..nc_at + 4].copy_from_slice(&(nc + 1).to_le_bytes());
    check(
        "delta_stale_segment_table".to_string(),
        data,
        &["bad_checksum", "corrupt"],
    );

    // A replace that changed a segment's planes but reused the old content
    // id as the seal (the buggy-reseal failure mode the memcpy fast path
    // could have): the recorded checksum is stale and must not verify.
    let mut data = bytes.clone();
    data[layout.last().at] ^= 0x01;
    check("delta_reseal_mismatch".to_string(), data, &["bad_checksum"]);

    // An append interrupted exactly at a replaced segment's boundary: the
    // table still claims the final segment, the payload stops before it.
    check(
        "delta_truncated_at_segment_boundary".to_string(),
        bytes[..layout.last().at].to_vec(),
        &["corrupt"],
    );

    // The count table sits under its segment's checksum: a flipped count
    // byte must fail it ...
    let last = layout.last();
    let first_count_at = last.at + 4 * last.groups;
    let mut data = bytes.clone();
    data[first_count_at] ^= 0x01;
    check(
        "checksum_flip_count_table".to_string(),
        data,
        &["bad_checksum"],
    );

    // ... and a resealed entry whose counts no longer sum to the segment's
    // length must fail the loader's shape check, since the search would
    // otherwise bound that group by a multiset it does not hold.
    let mut data = bytes.clone();
    data[first_count_at] = data[first_count_at].wrapping_add(1);
    let ck = fnv_checksum64(&data[last.at..last.checksum_at]);
    data[last.checksum_at..last.checksum_at + 8].copy_from_slice(&ck.to_le_bytes());
    check("count_table_sum_mismatch".to_string(), data, &["corrupt"]);

    // A removed id past the arena, with block A *resealed* so the checksum
    // is clean: only the decoder's range check can reject it.
    let mut data = bytes.clone();
    let huge = u32::MAX - 1;
    data[layout.removed_ids_at..layout.removed_ids_at + 4].copy_from_slice(&huge.to_le_bytes());
    reseal_block_a(&mut data);
    check(
        "delta_removed_id_out_of_range".to_string(),
        data,
        &["corrupt"],
    );

    // A removed list pointing at a *live* structure (resealed): the real
    // tombstone now terminates nowhere while the lied-about id is still in
    // the tries — structural validation must catch one of the two.
    let mut data = bytes.clone();
    data[layout.removed_ids_at..layout.removed_ids_at + 4].copy_from_slice(&6u32.to_le_bytes());
    reseal_block_a(&mut data);
    check(
        "delta_resurrected_structure".to_string(),
        data,
        &["corrupt"],
    );

    // Structure content the decoder checks plane by plane (resealed): a
    // token id outside the structure alphabet ...
    let mut data = bytes.clone();
    data[layout.tok_plane.start] = u8::MAX;
    reseal_block_a(&mut data);
    check("block_a_bad_token_id".to_string(), data, &["corrupt"]);

    // ... a placeholder record with an unknown category code ...
    let mut data = bytes.clone();
    data[layout.ph_plane_at] = 0x7f;
    reseal_block_a(&mut data);
    check("block_a_bad_category_code".to_string(), data, &["corrupt"]);

    // ... and a Var token turned into a keyword, so its structure's Var
    // count no longer matches its placeholder count. (An arena without a
    // Var would leave the image pristine, and the case would fail as
    // decoded.)
    let mut data = bytes.clone();
    let select = StructTokId::from_tok(StructTok::Keyword(Keyword::Select));
    if let Some(t) = data[layout.tok_plane.clone()]
        .iter_mut()
        .find(|t| **t == StructTokId::VAR.0)
    {
        *t = select.0;
    }
    reseal_block_a(&mut data);
    check(
        "block_a_placeholder_count_mismatch".to_string(),
        data,
        &["corrupt"],
    );

    // Well-formed images of the previous format versions — the same index
    // without count tables, as the version-4 writer stored it, and with its
    // INV posting plane as well, as the version-3 writer stored it — are
    // refused by version, not misread as version-5 segments or block A.
    let v4 = v4_image(&bytes, &layout);
    check(
        "v3_image_bad_version".to_string(),
        v3_image(&v4, &layout, &delta_idx),
        &["bad_version"],
    );
    check("v4_image_bad_version".to_string(), v4, &["bad_version"]);

    outcomes
}
