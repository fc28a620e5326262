//! Multi-tenant server load harness: deterministic Zipfian many-tenant
//! traffic replayed against an in-process [`Server`], gated in CI.
//!
//! The workload runs four phases over one running server:
//!
//! 1. **Steady**: [`CLIENTS`] concurrent client threads each replay
//!    [`STEADY_PER_CLIENT`] requests, picking a tenant and a transcript by
//!    fixed-seed Zipfian draws. Every response is checked byte-for-byte
//!    against the library-path reference (a plain [`SpeakQl`] engine over
//!    the same index and schema).
//! 2. **Probes**: one request per error class (unknown tenant, empty
//!    transcript, over-long transcript, poisoned transcript that exhausts
//!    the retry budget) plus a TCP connection exercising the wire path and
//!    two protocol violations — so every `engine.errors.*` / `server.*`
//!    counter lands on an exact, baseline-comparable value.
//! 3. **Overload**: the worker pool is frozen, `capacity + extra` requests
//!    are offered, and *exactly* `extra` must shed with `Overloaded`; the
//!    pool is then released and every admitted request must still answer
//!    correctly.
//! 4. **Recovery**: a second, smaller steady round proving the server
//!    serves normally after the burst (zero additional sheds).
//!
//! Everything that can be pinned is pinned (seeds, queue capacity, worker
//! count, single-threaded tenant engines), so the error-class and traffic
//! counters in the emitted snapshot are exact across runs; only wall-clock
//! and latency percentiles are machine-dependent, and [`GATE`] gives those
//! an upper band while holding the counter set to equality. Skeleton-cache
//! hits race benignly under concurrency (two clients can miss the same key
//! at once), so cache and search-work counters are reported but gated only
//! by the [`MIN_HIT_RATE`] floor.

use crate::fault::POISON_MARKER;
use crate::gate::{Gate, Rule};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::{json, Map, Value};
use speakql_asr::{AsrEngine, AsrProfile};
use speakql_core::{CounterId, FaultHook, SpeakQl, SpeakQlConfig};
use speakql_data::{employees_db, generate_cases, training_vocabulary, yelp_db};
use speakql_db::Database;
use speakql_grammar::GeneratorConfig;
use speakql_index::StructureIndex;
use speakql_server::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, Server,
    ServerConfig, ServerHandle, TenantRegistry, CLASS_PROTOCOL, CLASS_UNKNOWN_TENANT, MAX_FRAME,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registered tenants (half on the Employees schema, half on Yelp, all over
/// one shared structure index so the cross-engine cache can warm).
pub const TENANTS: usize = 8;
/// Concurrent client threads in the steady phase.
pub const CLIENTS: usize = 32;
/// Requests each steady-phase client replays.
pub const STEADY_PER_CLIENT: usize = 10;
/// Distinct transcripts per schema the Zipf draws range over.
pub const DISTINCT_PER_SCHEMA: usize = 24;
/// Structure-space cap for the shared index (kept small enough that the
/// load job stays fast; the perf job covers the big-index regime).
pub const MAX_STRUCTURES: usize = 20_000;
/// Server worker threads.
pub const WORKERS: usize = 4;
/// Admission-queue bound. Must be at least [`CLIENTS`] so the steady phase
/// (one in-flight request per client) can never shed.
pub const QUEUE_CAPACITY: usize = 48;
/// Requests offered *beyond* the queue capacity while the workers are held:
/// exactly this many must shed.
pub const OVERLOAD_EXTRA: usize = 32;
/// Client threads in the post-overload recovery round.
pub const RECOVERY_CLIENTS: usize = 8;
/// Requests each recovery client replays.
pub const RECOVERY_PER_CLIENT: usize = 4;
/// Minimum acceptable skeleton-cache hit rate across the whole run.
pub const MIN_HIT_RATE: f64 = 0.5;
/// The baseline rules for `load_gen --check`. The traffic and error-class
/// totals are exact: the pinned seeds and the deterministic overload make
/// them reproducible. Cache counters race benignly under concurrent clients
/// (two can miss one key at once), so they are shown but gated only by the
/// run's [`MIN_HIT_RATE`] floor, and other counters are not compared.
/// Timings fail only above their band, with absolute grace so fast runs do
/// not flake, and the run's own gates must have passed.
pub const GATE: Gate = Gate {
    bin: "load_gen",
    counters: &[
        ("server.requests", Rule::Exact),
        ("server.retries", Rule::Exact),
        ("server.unknown_tenant", Rule::Exact),
        ("server.protocol_errors", Rule::Exact),
        ("engine.errors.overloaded", Rule::Exact),
        ("engine.errors.timeout", Rule::Exact),
        ("engine.errors.empty_transcript", Rule::Exact),
        ("engine.errors.transcript_too_long", Rule::Exact),
        ("engine.errors.empty_index", Rule::Exact),
        ("engine.errors.worker_panic", Rule::Exact),
        ("engine.transcriptions", Rule::Exact),
        ("engine.candidates_built", Rule::Exact),
        ("engine.batch_jobs", Rule::Exact),
        ("engine.nested_splits", Rule::Exact),
        ("cache.skeleton_hits", Rule::Info),
        ("cache.skeleton_misses", Rule::Info),
    ],
    other_counters: None,
    fields: &[
        (
            "wall_clock_ms",
            Rule::Band {
                tol: 0.30,
                grace: 250.0,
                floor: None,
            },
        ),
        (
            "latency.steady_p99_micros",
            Rule::Band {
                tol: 0.30,
                grace: 2_000.0,
                floor: None,
            },
        ),
        ("gates.pass", Rule::True),
    ],
};

/// Seed for the spoken-SQL case generator (Employees pool; the Yelp pool
/// derives from it).
const CASE_SEED: u64 = 0xBE9C;
/// Base seed for the per-client Zipf draw streams.
const CLIENT_SEED: u64 = 0x10AD;
/// Zipf exponent (1.0 = classic rank-inverse popularity).
const ZIPF_EXPONENT: f64 = 1.0;
/// Per-request budget: generous, so the steady phase never times out and
/// `engine.errors.timeout` stays exactly zero.
const REQUEST_BUDGET: Duration = Duration::from_secs(60);

/// Inverse-CDF sampler over the Zipf rank weights `1/r^s`.
struct Zipf {
    cumulative: Vec<f64>,
    total: f64,
}

impl Zipf {
    fn new(n: usize, exponent: f64) -> Zipf {
        let cumulative: Vec<f64> = (0..n)
            .scan(0.0, |acc, r| {
                *acc += 1.0 / ((r + 1) as f64).powf(exponent);
                Some(*acc)
            })
            .collect();
        let total = cumulative.last().copied().unwrap_or(1.0);
        Zipf { cumulative, total }
    }

    fn draw(&self, rng: &mut ChaCha8Rng) -> usize {
        let u: f64 = rng.gen_range(0.0..self.total);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len().saturating_sub(1))
    }
}

/// ASR-noise transcripts for `db`: the same fixed-seed pipeline the perf
/// snapshot uses (generated SQL, then a seeded simulated ASR pass).
fn transcript_pool(db: &Database, seed: u64) -> Vec<String> {
    let cases = generate_cases(db, &GeneratorConfig::small(), DISTINCT_PER_SCHEMA, seed);
    let asr = AsrEngine::new(AsrProfile::acs_trained(), training_vocabulary(db, &cases));
    cases
        .iter()
        .map(|c| {
            let mut rng = ChaCha8Rng::seed_from_u64(c.id as u64);
            asr.transcribe_sql(&c.sql, &mut rng)
        })
        .collect()
}

/// The per-tenant engine configuration: paper weights over the capped
/// structure space, single-threaded (the server's worker pool is the
/// parallelism) so per-request counters are deterministic.
fn tenant_config() -> SpeakQlConfig {
    SpeakQlConfig {
        generator: GeneratorConfig {
            max_structures: Some(MAX_STRUCTURES),
            ..GeneratorConfig::paper()
        },
        ..SpeakQlConfig::paper()
    }
    .with_threads(1)
    .with_max_transcript_words(1024)
}

/// What the library path answers for `transcript`: the exact [`Response`]
/// the server must produce for the same input.
pub(crate) fn reference_response(engine: &SpeakQl, transcript: &str) -> Response {
    match engine.transcribe(transcript) {
        Ok(t) => Response::Ok {
            sql: t
                .candidates
                .first()
                .map(|c| c.sql.clone())
                .unwrap_or_default(),
        },
        Err(e) => Response::Err {
            class: e.class().to_string(),
            message: e.to_string(),
        },
    }
}

/// Send one framed request over `stream` and decode the framed response.
fn tcp_request(stream: &mut TcpStream, tenant: &str, transcript: &str) -> Option<Response> {
    let req = Request {
        tenant: tenant.to_string(),
        transcript: transcript.to_string(),
    };
    write_frame(stream, &encode_request(&req)).ok()?;
    let payload = read_frame(stream).ok()??;
    decode_response(&payload).ok()
}

/// `pct`-th percentile of an unsorted latency sample, in the sample's unit.
fn percentile(samples: &mut [u64], pct: usize) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[(samples.len() - 1) * pct / 100]
}

/// Elapsed time as whole microseconds, saturating.
fn micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// One steady-style round: `clients` threads, each replaying `per_client`
/// Zipf-drawn requests and checking every response against the reference.
/// Returns the latency sample; mismatches and client panics land in the
/// shared counters.
#[allow(clippy::too_many_arguments)]
fn run_round(
    handle: &ServerHandle,
    tenants: &[(String, usize)],
    pools: &[Vec<String>; 2],
    expected: &[Vec<Response>; 2],
    clients: usize,
    per_client: usize,
    seed_base: u64,
    mismatches: &AtomicUsize,
    client_panics: &mut usize,
) -> Vec<u64> {
    let tenant_zipf = Zipf::new(tenants.len(), ZIPF_EXPONENT);
    let text_zipf = Zipf::new(DISTINCT_PER_SCHEMA, ZIPF_EXPONENT);
    let mut latencies = Vec::with_capacity(clients * per_client);
    std::thread::scope(|scope| {
        let joins: Vec<_> = (0..clients)
            .map(|client| {
                let handle = handle.clone();
                let tenant_zipf = &tenant_zipf;
                let text_zipf = &text_zipf;
                scope.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed_base + client as u64);
                    let mut lat = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let (name, schema) = &tenants[tenant_zipf.draw(&mut rng)];
                        let q = text_zipf.draw(&mut rng);
                        let t0 = Instant::now();
                        let resp = handle.request(name, &pools[*schema][q]);
                        lat.push(micros(t0));
                        if resp != expected[*schema][q] {
                            // ordering: plain event count, no ordering needed.
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    lat
                })
            })
            .collect();
        for join in joins {
            match join.join() {
                Ok(lat) => latencies.extend(lat),
                Err(_) => *client_panics += 1,
            }
        }
    });
    latencies
}

/// Build the fleet, replay all four phases, and snapshot the shared
/// recorder. Returns the snapshot JSON and whether every run-level gate
/// (byte-identical outputs, exact shed count, hit-rate floor, zero client
/// panics) passed.
pub fn run_load() -> (Value, bool) {
    eprintln!("[load_gen] building shared {MAX_STRUCTURES}-structure index ...");
    let config = tenant_config();
    let index = Arc::new(StructureIndex::from_grammar(
        &config.generator,
        config.weights,
    ));
    let dbs = [employees_db(), yelp_db()];

    eprintln!("[load_gen] generating {DISTINCT_PER_SCHEMA} transcripts per schema ...");
    let pools = [
        transcript_pool(&dbs[0], CASE_SEED),
        transcript_pool(&dbs[1], CASE_SEED ^ 0x5EED),
    ];

    eprintln!("[load_gen] precomputing library-path reference responses ...");
    let references = [
        SpeakQl::with_index(&dbs[0], Arc::clone(&index), config.clone()),
        SpeakQl::with_index(&dbs[1], Arc::clone(&index), config.clone()),
    ];
    let expected = [
        pools[0]
            .iter()
            .map(|t| reference_response(&references[0], t))
            .collect::<Vec<_>>(),
        pools[1]
            .iter()
            .map(|t| reference_response(&references[1], t))
            .collect::<Vec<_>>(),
    ];

    // Tenants interleave schemas so the Zipf head exercises both: the
    // first tenant additionally carries the fault hook that turns the
    // poisoned probe into a (retried, then surfaced) worker panic.
    let registry = TenantRegistry::new(1024, true);
    let mut tenants: Vec<(String, usize)> = Vec::with_capacity(TENANTS);
    for i in 0..TENANTS {
        let schema = i % 2;
        let name = format!("{}-{}", ["employees", "yelp"][schema], i / 2);
        let mut cfg = config.clone();
        if i == 0 {
            cfg = cfg.with_fault_hook(FaultHook::new(|t| {
                assert!(!t.contains(POISON_MARKER), "injected fault");
            }));
        }
        registry.register(&name, &dbs[schema], Arc::clone(&index), cfg);
        tenants.push((name, schema));
    }

    let started = Server::serve(
        registry,
        ServerConfig {
            workers: WORKERS,
            queue_capacity: QUEUE_CAPACITY,
            request_budget: REQUEST_BUDGET,
            max_retries: 2,
            io_timeout: Duration::from_secs(10),
        },
    );
    let mut server = match started {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[load_gen] FAIL: cannot spawn worker threads: {e}");
            return (
                json!({"schema": "speakql-server-load/v1", "error": e.to_string()}),
                false,
            );
        }
    };
    let addr = match server.listen("127.0.0.1:0") {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[load_gen] FAIL: cannot bind a loopback socket: {e}");
            return (
                json!({"schema": "speakql-server-load/v1", "error": e.to_string()}),
                false,
            );
        }
    };
    let handle = server.handle();
    let mismatches = AtomicUsize::new(0);
    let mut client_panics = 0usize;
    let mut probe_failures: Vec<&'static str> = Vec::new();

    // --- Phase 1: steady Zipfian traffic. ---
    eprintln!("[load_gen] steady phase: {CLIENTS} clients x {STEADY_PER_CLIENT} requests ...");
    let wall_start = Instant::now();
    let mut steady_lat = run_round(
        &handle,
        &tenants,
        &pools,
        &expected,
        CLIENTS,
        STEADY_PER_CLIENT,
        CLIENT_SEED,
        &mismatches,
        &mut client_panics,
    );

    // --- Phase 2: error-class and wire-path probes (serial, so every
    // counter moves by an exact amount). ---
    eprintln!("[load_gen] probe phase: error classes and the TCP path ...");
    let mut probe = |name: &'static str, ok: bool| {
        if !ok {
            probe_failures.push(name);
        }
    };
    let class_of = |r: &Response| match r {
        Response::Ok { .. } => String::new(),
        Response::Err { class, .. } => class.clone(),
    };
    probe(
        "unknown_tenant",
        class_of(&handle.request("nobody", &pools[0][0])) == CLASS_UNKNOWN_TENANT,
    );
    probe(
        "empty_transcript",
        class_of(&handle.request(&tenants[0].0, " \t ")) == "empty_transcript",
    );
    probe(
        "transcript_too_long",
        class_of(&handle.request(&tenants[0].0, &vec!["select"; 2_000].join(" ")))
            == "transcript_too_long",
    );
    let poisoned = format!("select {POISON_MARKER} from employees");
    probe(
        "worker_panic_after_retries",
        class_of(&handle.request(&tenants[0].0, &poisoned)) == "worker_panic",
    );
    match TcpStream::connect(addr) {
        Ok(mut stream) => {
            // A well-formed framed request must answer byte-identically to
            // the library path, same as the in-process handle.
            probe(
                "tcp_roundtrip",
                tcp_request(&mut stream, &tenants[0].0, &pools[0][0]).as_ref()
                    == Some(&expected[0][0]),
            );
            // A decodable frame with no tenant separator: typed protocol
            // error, connection stays serviceable.
            let malformed = write_frame(&mut stream, b"no-separator-here")
                .ok()
                .and_then(|_| read_frame(&mut stream).ok().flatten())
                .and_then(|p| decode_response(&p).ok());
            probe(
                "malformed_frame",
                malformed.as_ref().map(class_of) == Some(CLASS_PROTOCOL.to_string()),
            );
            // An oversized length prefix: typed protocol error, then the
            // server hangs up.
            let hostile = u32::try_from(MAX_FRAME + 1)
                .unwrap_or(u32::MAX)
                .to_be_bytes();
            let oversized = stream
                .write_all(&hostile)
                .ok()
                .and_then(|_| read_frame(&mut stream).ok().flatten())
                .and_then(|p| decode_response(&p).ok());
            probe(
                "oversized_frame",
                oversized.as_ref().map(class_of) == Some(CLASS_PROTOCOL.to_string()),
            );
        }
        Err(_) => probe("tcp_roundtrip", false),
    }

    // --- Phase 3: deterministic overload. Freeze the workers, offer
    // capacity + extra, and exactly `extra` must shed. ---
    eprintln!(
        "[load_gen] overload phase: offering {} requests into a {QUEUE_CAPACITY}-slot queue ...",
        QUEUE_CAPACITY + OVERLOAD_EXTRA
    );
    server.hold_workers(true);
    let pending: Vec<_> = (0..QUEUE_CAPACITY + OVERLOAD_EXTRA)
        .map(|i| {
            let q = i % DISTINCT_PER_SCHEMA;
            (q, handle.submit(&tenants[1].0, &pools[1][q]))
        })
        .collect();
    server.hold_workers(false);
    let mut shed = 0usize;
    for (q, rx) in pending {
        match rx.recv() {
            Ok(Response::Err { ref class, .. }) if class == "overloaded" => shed += 1,
            Ok(resp) => {
                if resp != expected[1][q] {
                    // ordering: plain event count, no ordering needed.
                    mismatches.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => client_panics += 1,
        }
    }

    // --- Phase 4: recovery round — normal service after the burst. ---
    eprintln!("[load_gen] recovery phase: {RECOVERY_CLIENTS} clients x {RECOVERY_PER_CLIENT} requests ...");
    let mut recovery_lat = run_round(
        &handle,
        &tenants,
        &pools,
        &expected,
        RECOVERY_CLIENTS,
        RECOVERY_PER_CLIENT,
        CLIENT_SEED + 1_000,
        &mismatches,
        &mut client_panics,
    );
    let wall_clock_ms = wall_start.elapsed().as_secs_f64() * 1e3;

    let report = server.recorder().report();
    server.shutdown();

    let hits = report.counter(CounterId::CacheSkeletonHits);
    let misses = report.counter(CounterId::CacheSkeletonMisses);
    let lookups = hits + misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    // ordering: reading after every client thread joined; Relaxed suffices.
    let output_mismatches = mismatches.load(Ordering::Relaxed);
    let steady_p50 = percentile(&mut steady_lat, 50);
    let steady_p99 = percentile(&mut steady_lat, 99);
    let recovery_p99 = percentile(&mut recovery_lat, 99);

    let mut pass = true;
    if output_mismatches > 0 {
        eprintln!("[load_gen] FAIL: {output_mismatches} responses differ from the library path");
        pass = false;
    }
    if !probe_failures.is_empty() {
        eprintln!("[load_gen] FAIL: probes misclassified: {probe_failures:?}");
        pass = false;
    }
    if shed != OVERLOAD_EXTRA {
        eprintln!(
            "[load_gen] FAIL: {shed} requests shed under overload, expected exactly {OVERLOAD_EXTRA}"
        );
        pass = false;
    }
    if hits == 0 || hit_rate < MIN_HIT_RATE {
        eprintln!(
            "[load_gen] FAIL: skeleton-cache hit rate {:.1}% below the {:.0}% floor",
            hit_rate * 100.0,
            MIN_HIT_RATE * 100.0
        );
        pass = false;
    }
    if client_panics > 0 {
        eprintln!("[load_gen] FAIL: {client_panics} client(s) died without an answer");
        pass = false;
    }
    if pass {
        eprintln!(
            "[load_gen] PASS: outputs identical, shed exactly {OVERLOAD_EXTRA}, \
             hit rate {:.1}%, p50/p99 {steady_p50}/{steady_p99} us, wall {wall_clock_ms:.1} ms",
            hit_rate * 100.0
        );
    }

    let mut counters = Map::new();
    for c in &report.counters {
        counters.insert(c.name.to_string(), json!(c.total));
    }
    let mut stages = Map::new();
    for s in &report.stages {
        stages.insert(
            s.name.to_string(),
            json!({
                "count": s.count,
                "sum_micros": s.sum_micros,
                "p50_micros": s.p50_micros,
                "p99_micros": s.p99_micros,
            }),
        );
    }
    let snapshot = json!({
        "schema": "speakql-server-load/v1",
        "workload": {
            "tenants": TENANTS,
            "clients": CLIENTS,
            "steady_per_client": STEADY_PER_CLIENT,
            "distinct_per_schema": DISTINCT_PER_SCHEMA,
            "max_structures": MAX_STRUCTURES,
            "workers": WORKERS,
            "queue_capacity": QUEUE_CAPACITY,
            "overload_extra": OVERLOAD_EXTRA,
            "recovery_clients": RECOVERY_CLIENTS,
            "recovery_per_client": RECOVERY_PER_CLIENT,
            "zipf_exponent": ZIPF_EXPONENT,
            "case_seed": CASE_SEED,
            "client_seed": CLIENT_SEED,
            "engine_threads": 1,
        },
        "wall_clock_ms": wall_clock_ms,
        "latency": {
            "steady_p50_micros": steady_p50,
            "steady_p99_micros": steady_p99,
            "recovery_p99_micros": recovery_p99,
        },
        "gates": {
            "output_mismatches": output_mismatches,
            "probe_failures": probe_failures,
            "shed": shed,
            "expected_shed": OVERLOAD_EXTRA,
            "hit_rate": hit_rate,
            "min_hit_rate": MIN_HIT_RATE,
            "client_panics": client_panics,
            "pass": pass,
        },
        "counters": Value::Object(counters),
        "stages": Value::Object(stages),
    });
    (snapshot, pass)
}

#[cfg(test)]
mod tests {
    use super::GATE;
    use crate::gate::field;
    use serde_json::{json, Map, Value};

    /// The counters the baseline holds to equality.
    const EXACT: [&str; 14] = [
        "server.requests",
        "server.retries",
        "server.unknown_tenant",
        "server.protocol_errors",
        "engine.errors.overloaded",
        "engine.errors.timeout",
        "engine.errors.empty_transcript",
        "engine.errors.transcript_too_long",
        "engine.errors.empty_index",
        "engine.errors.worker_panic",
        "engine.transcriptions",
        "engine.candidates_built",
        "engine.batch_jobs",
        "engine.nested_splits",
    ];

    fn baseline() -> Value {
        match serde_json::from_str(include_str!("../../../results/server_baseline.json")) {
            Ok(v) => v,
            Err(e) => panic!("results/server_baseline.json does not parse: {e}"),
        }
    }

    fn number(v: &Value, path: &str) -> f64 {
        match field(v, path).and_then(Value::as_f64) {
            Some(x) => x,
            None => panic!("the baseline has no {path}"),
        }
    }

    /// A run over the baseline's counters (with `counter` set, when given)
    /// and the given wall clock, steady p99 and run verdict.
    fn run(base: &Value, counter: Option<(&str, u64)>, wall: f64, p99: f64, pass: bool) -> Value {
        let mut counters = base
            .get("counters")
            .and_then(Value::as_object)
            .cloned()
            .unwrap_or_default();
        if let Some((name, value)) = counter {
            counters.insert(name.to_string(), json!(value));
        }
        let mut run = Map::new();
        run.insert("counters".to_string(), Value::Object(counters));
        run.insert("wall_clock_ms".to_string(), json!(wall));
        run.insert("latency".to_string(), json!({ "steady_p99_micros": p99 }));
        run.insert("gates".to_string(), json!({ "pass": pass }));
        Value::Object(run)
    }

    #[test]
    fn committed_baseline_passes_against_itself() {
        let base = baseline();
        assert_eq!(GATE.check(&base, &base), 0);
    }

    #[test]
    fn only_the_fourteen_traffic_and_error_counters_are_exact() {
        let base = baseline();
        let wall = number(&base, "wall_clock_ms");
        let p99 = number(&base, "latency.steady_p99_micros");
        let Some(counters) = base.get("counters").and_then(Value::as_object) else {
            panic!("the baseline has no counters");
        };
        for name in EXACT {
            assert!(counters.get(name).is_some(), "{name} is in the baseline");
        }
        for (name, value) in counters.iter() {
            let Some(b) = value.as_u64() else {
                panic!("{name} is not an integer");
            };
            let passes =
                |c: u64| GATE.check(&base, &run(&base, Some((name, c)), wall, p99, true)) == 0;
            let exact = EXACT.contains(&name.as_str());
            assert_eq!(passes(b + 1), !exact, "{name} one above baseline");
            assert_eq!(
                passes(b.saturating_sub(1)),
                !exact || b == 0,
                "{name} one below"
            );
        }
    }

    #[test]
    fn timings_fail_only_past_thirty_percent_plus_grace() {
        let base = baseline();
        let wall = number(&base, "wall_clock_ms");
        let p99 = number(&base, "latency.steady_p99_micros");
        let passes = |w: f64, p: f64| GATE.check(&base, &run(&base, None, w, p, true)) == 0;
        let above = |x: f64| f64::from_bits(x.to_bits() + 1);
        let wall_limit = wall * 1.3 + 250.0;
        let p99_limit = p99 * 1.3 + 2_000.0;
        assert!(passes(wall_limit, p99_limit));
        assert!(!passes(above(wall_limit), p99));
        assert!(!passes(wall, above(p99_limit)));
        assert!(passes(0.0, 0.0), "faster never fails");
    }

    #[test]
    fn the_run_verdict_must_pass() {
        let base = baseline();
        let wall = number(&base, "wall_clock_ms");
        let p99 = number(&base, "latency.steady_p99_micros");
        assert_eq!(GATE.check(&base, &run(&base, None, wall, p99, false)), 1);
    }
}
