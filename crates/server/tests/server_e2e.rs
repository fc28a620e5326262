//! End-to-end server tests: real TCP connections against a running
//! multi-tenant server, plus the deterministic admission/retry/timeout
//! behaviors the CI load gate relies on.

use speakql_core::{FaultHook, SpeakQl, SpeakQlConfig};
use speakql_data::{employees_db, yelp_db};
use speakql_db::{Date, Value};
use speakql_grammar::GeneratorConfig;
use speakql_index::StructureIndex;
use speakql_observe::{CounterId, SpanId};
use speakql_server::{
    decode_response, encode_request, read_frame, write_frame, Registration, Request, Response,
    Server, ServerConfig, TenantRegistry, CLASS_PROTOCOL, CLASS_UNKNOWN_TENANT,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn small_config() -> SpeakQlConfig {
    SpeakQlConfig::small().with_threads(1)
}

/// One shared small index for the whole test binary (index builds dominate
/// test time otherwise).
fn shared_index() -> Arc<StructureIndex> {
    static INDEX: OnceLock<Arc<StructureIndex>> = OnceLock::new();
    Arc::clone(INDEX.get_or_init(|| {
        let cfg = small_config();
        Arc::new(StructureIndex::from_grammar(&cfg.generator, cfg.weights))
    }))
}

/// A registry with two same-index tenants (employees, yelp) sharing one
/// skeleton cache.
fn two_tenant_registry() -> TenantRegistry {
    let registry = TenantRegistry::new(256, true);
    registry.register("employees", &employees_db(), shared_index(), small_config());
    registry.register("yelp", &yelp_db(), shared_index(), small_config());
    registry
}

/// Drive one request/response over a client TCP connection.
fn tcp_request(stream: &mut TcpStream, tenant: &str, transcript: &str) -> Response {
    let req = Request {
        tenant: tenant.to_string(),
        transcript: transcript.to_string(),
    };
    write_frame(stream, &encode_request(&req)).expect("request frame writes");
    let payload = read_frame(stream)
        .expect("response frame reads")
        .expect("server must answer");
    decode_response(&payload).expect("response decodes")
}

const TRANSCRIPT: &str = "select salary from employees where first name equals john";

#[test]
fn tcp_roundtrip_matches_the_library_path() {
    let registry = two_tenant_registry();
    let mut server = Server::serve(registry, ServerConfig::default()).expect("spawn workers");
    let addr = server.listen("127.0.0.1:0").expect("bind localhost");

    // Reference: the plain library path over the same index, cache off.
    let reference = SpeakQl::with_index(&employees_db(), shared_index(), small_config());
    let expected = reference
        .transcribe(TRANSCRIPT)
        .expect("library path transcribes")
        .candidates
        .first()
        .map(|c| c.sql.clone())
        .expect("candidates are non-empty");

    let mut conn = TcpStream::connect(addr).expect("connect");
    match tcp_request(&mut conn, "employees", TRANSCRIPT) {
        Response::Ok { sql } => assert_eq!(sql, expected, "server SQL differs from library path"),
        other => panic!("expected Ok, got {other:?}"),
    }
    // Errors take the same wire path: an empty transcript maps to its class.
    match tcp_request(&mut conn, "employees", "   ") {
        Response::Err { class, .. } => assert_eq!(class, "empty_transcript"),
        other => panic!("expected Err, got {other:?}"),
    }
    match tcp_request(&mut conn, "nobody", TRANSCRIPT) {
        Response::Err { class, .. } => assert_eq!(class, CLASS_UNKNOWN_TENANT),
        other => panic!("expected Err, got {other:?}"),
    }
    drop(conn);
    assert_eq!(server.recorder().counter(CounterId::ServerUnknownTenant), 1);
    server.shutdown();
}

#[test]
fn nagle_on_client_round_trips_do_not_wait_for_delayed_acks() {
    // The client leaves Nagle's algorithm on, as a plain socket client
    // would. A frame sent in two segments, or a response segment held for
    // the client's delayed ACK, costs ~40 ms per round trip; one segment
    // per frame each way costs well under a millisecond. Unknown-tenant
    // requests are answered without engine work, so the median measures
    // the wire.
    let registry = two_tenant_registry();
    let mut server = Server::serve(registry, ServerConfig::default()).expect("spawn workers");
    let addr = server.listen("127.0.0.1:0").expect("bind localhost");
    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut round_trips: Vec<Duration> = (0..64)
        .map(|_| {
            let t0 = Instant::now();
            let response = tcp_request(&mut conn, "nobody", TRANSCRIPT);
            assert!(
                matches!(response, Response::Err { ref class, .. } if class == CLASS_UNKNOWN_TENANT),
                "{response:?}"
            );
            t0.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median round trip {median:?} is at the delayed-ACK stall floor"
    );
    drop(conn);
    server.shutdown();
}

#[test]
fn server_handle_span_excludes_queue_wait() {
    let registry = two_tenant_registry();
    let server = Server::serve(registry, ServerConfig::default()).expect("spawn workers");
    server.hold_workers(true);
    let rx = server.handle().submit("nobody", TRANSCRIPT);
    std::thread::sleep(Duration::from_millis(200));
    server.hold_workers(false);
    let response = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("held request is answered after release");
    assert!(
        matches!(response, Response::Err { ref class, .. } if class == CLASS_UNKNOWN_TENANT),
        "{response:?}"
    );
    // The worker records its span after it hands the response back, so
    // shutdown (which joins the workers) orders the read after the record.
    let recorder = server.recorder().clone();
    server.shutdown();
    let report = recorder.report();
    let sum = |id| report.stage(id).map_or(0, |s| s.sum_micros);
    let (waited, handled) = (sum(SpanId::ServerQueueWait), sum(SpanId::ServerHandle));
    assert!(waited >= 200_000, "queue wait {waited} µs");
    assert!(
        handled < 50_000,
        "service time {handled} µs counts queue wait"
    );
}

#[test]
fn held_workers_shed_exactly_the_overflow() {
    let registry = two_tenant_registry();
    let config = ServerConfig {
        workers: 2,
        queue_capacity: 4,
        ..ServerConfig::default()
    };
    let server = Server::serve(registry, config).expect("spawn workers");
    let handle = server.handle();

    // Freeze the drain side, then offer capacity + 3 requests: exactly 3
    // must shed, no matter how threads interleave.
    server.hold_workers(true);
    let receivers: Vec<_> = (0..7)
        .map(|_| handle.submit("employees", TRANSCRIPT))
        .collect();
    let shed_now = receivers
        .iter()
        .filter(|rx| {
            matches!(
                rx.try_recv(),
                Ok(Response::Err { ref class, .. }) if class == "overloaded"
            )
        })
        .count();
    assert_eq!(shed_now, 3, "exactly offered - capacity requests shed");
    assert_eq!(server.recorder().counter(CounterId::ErrorsOverloaded), 3);
    assert_eq!(server.recorder().counter(CounterId::ServerRequests), 7);

    // Release: the 4 queued requests must all complete successfully.
    server.hold_workers(false);
    let completed = receivers
        .into_iter()
        .filter(|rx| {
            matches!(
                rx.recv_timeout(Duration::from_secs(30)),
                Ok(Response::Ok { .. })
            )
        })
        .count();
    assert_eq!(
        completed, 4,
        "every admitted request completes after release"
    );
    server.shutdown();
}

#[test]
fn zero_budget_times_out_deterministically() {
    let registry = two_tenant_registry();
    let config = ServerConfig {
        workers: 1,
        request_budget: Duration::ZERO,
        ..ServerConfig::default()
    };
    let server = Server::serve(registry, config).expect("spawn workers");
    let response = server.handle().request("employees", TRANSCRIPT);
    match response {
        Response::Err { class, .. } => assert_eq!(class, "timeout"),
        other => panic!("expected timeout, got {other:?}"),
    }
    assert_eq!(server.recorder().counter(CounterId::ErrorsTimeout), 1);
    server.shutdown();
}

#[test]
fn transient_worker_panic_is_retried_to_success() {
    // The hook panics on the first two sightings of the poisoned marker,
    // then lets it through: the server's two retries must convert a
    // transient fault into a normal response.
    let sightings = Arc::new(AtomicUsize::new(0));
    let hook_sightings = Arc::clone(&sightings);
    let hook = FaultHook::new(move |transcript: &str| {
        if transcript.contains("flaky") {
            // ordering: the counter is a test tally, not a synchronization
            // point — Relaxed is enough.
            let n = hook_sightings.fetch_add(1, Ordering::Relaxed);
            if n < 2 {
                panic!("injected transient fault #{n}");
            }
        }
    });
    let registry = TenantRegistry::new(64, true);
    registry.register(
        "employees",
        &employees_db(),
        shared_index(),
        small_config().with_fault_hook(hook),
    );
    let server = Server::serve(registry, ServerConfig::default()).expect("spawn workers");

    let response = server
        .handle()
        .request("employees", "flaky select salary from employees");
    assert!(
        matches!(response, Response::Ok { .. }),
        "transient fault must be retried to success, got {response:?}"
    );
    assert_eq!(server.recorder().counter(CounterId::ServerRetries), 2);
    assert_eq!(sightings.load(Ordering::Relaxed), 3);
    server.shutdown();
}

#[test]
fn permanent_worker_panic_exhausts_retries_then_reports() {
    let hook = FaultHook::new(|transcript: &str| {
        if transcript.contains("poison") {
            panic!("injected permanent fault");
        }
    });
    let registry = TenantRegistry::new(64, true);
    registry.register(
        "employees",
        &employees_db(),
        shared_index(),
        small_config().with_fault_hook(hook),
    );
    let server = Server::serve(registry, ServerConfig::default()).expect("spawn workers");

    let response = server.handle().request("employees", "poison select salary");
    match response {
        Response::Err { class, .. } => assert_eq!(class, "worker_panic"),
        other => panic!("expected worker_panic, got {other:?}"),
    }
    // Two retries were burned; a healthy request still works afterwards.
    assert_eq!(server.recorder().counter(CounterId::ServerRetries), 2);
    let healthy = server.handle().request("employees", TRANSCRIPT);
    assert!(matches!(healthy, Response::Ok { .. }));
    server.shutdown();
}

#[test]
fn same_index_tenants_share_warm_cache_entries_across_engines() {
    let registry = two_tenant_registry();
    let server = Server::serve(registry, ServerConfig::default()).expect("spawn workers");
    let handle = server.handle();

    // Warm through the employees tenant ...
    let first = handle.request("employees", TRANSCRIPT);
    assert!(matches!(first, Response::Ok { .. }));
    let hits_before = server.recorder().counter(CounterId::CacheSkeletonHits);
    // ... and the yelp tenant (same index arena, different engine + schema)
    // must hit the shared entry for the same masked skeleton.
    let second = handle.request("yelp", TRANSCRIPT);
    assert!(matches!(second, Response::Ok { .. }));
    let hits_after = server.recorder().counter(CounterId::CacheSkeletonHits);
    assert!(
        hits_after > hits_before,
        "cross-engine lookup must hit the shared skeleton cache \
         ({hits_before} -> {hits_after})"
    );
    server.shutdown();
}

#[test]
fn different_arena_tenants_never_reuse_each_others_hits() {
    // A tenant over a *different structure space* (here: a truncated
    // generation cap, so the arena genuinely differs) must miss even for an
    // identical transcript. Generations are content-derived, so it takes
    // different content — not merely a separate build — to separate
    // tenants.
    let registry = TenantRegistry::new(256, true);
    registry.register("employees", &employees_db(), shared_index(), small_config());
    let other_cfg = small_config();
    let other_index = Arc::new(StructureIndex::from_grammar(
        &GeneratorConfig {
            max_structures: Some(1_000),
            ..GeneratorConfig::small()
        },
        other_cfg.weights,
    ));
    assert_ne!(other_index.generation(), shared_index().generation());
    registry.register("employees-staging", &employees_db(), other_index, other_cfg);
    let server = Server::serve(registry, ServerConfig::default()).expect("spawn workers");
    let handle = server.handle();

    assert!(matches!(
        handle.request("employees", TRANSCRIPT),
        Response::Ok { .. }
    ));
    let hits_before = server.recorder().counter(CounterId::CacheSkeletonHits);
    let misses_before = server.recorder().counter(CounterId::CacheSkeletonMisses);
    assert!(matches!(
        handle.request("employees-staging", TRANSCRIPT),
        Response::Ok { .. }
    ));
    let hits_after = server.recorder().counter(CounterId::CacheSkeletonHits);
    let misses_after = server.recorder().counter(CounterId::CacheSkeletonMisses);
    assert_eq!(hits_after, hits_before, "different generation must not hit");
    assert!(misses_after > misses_before);
    server.shutdown();
}

#[test]
fn re_registering_unchanged_index_is_a_noop_that_stays_warm() {
    // Restart/reconcile semantics: reloading the same persisted bytes
    // derives the same content generation, so re-registering the tenant
    // over the reloaded index must keep the existing engine (and its warm
    // cache entries) instead of swapping in a cold one.
    let registry = TenantRegistry::new(256, true);
    registry.register("employees", &employees_db(), shared_index(), small_config());
    let before = registry.engine("employees").expect("registered");

    let bytes = speakql_index::to_bytes(&shared_index()).expect("serialize");
    let reloaded = Arc::new(speakql_index::from_shared(bytes).expect("reload"));
    assert_eq!(reloaded.generation(), shared_index().generation());
    assert_eq!(
        registry.register("employees", &employees_db(), reloaded, small_config()),
        Registration::Unchanged
    );
    let after = registry.engine("employees").expect("still registered");
    assert!(
        Arc::ptr_eq(&before, &after),
        "unchanged re-registration must keep the exact engine instance"
    );

    // And the warm path works end to end across the no-op re-registration.
    let server = Server::serve(registry, ServerConfig::default()).expect("spawn workers");
    let handle = server.handle();
    assert!(matches!(
        handle.request("employees", TRANSCRIPT),
        Response::Ok { .. }
    ));
    let hits_before = server.recorder().counter(CounterId::CacheSkeletonHits);
    assert!(matches!(
        handle.request("employees", TRANSCRIPT),
        Response::Ok { .. }
    ));
    assert!(server.recorder().counter(CounterId::CacheSkeletonHits) > hits_before);
    server.shutdown();
}

#[test]
fn re_registering_with_a_grown_database_swaps_the_engine() {
    // A catalog update over an unchanged index: the index generation
    // matches, but the engine's phonetic catalog is built from the rows, so
    // keeping the old engine would answer the new row's value from the old
    // catalog.
    let registry = TenantRegistry::new(256, true);
    let base = employees_db();
    registry.register("employees", &base, shared_index(), small_config());
    let mut grown = base.clone();
    let date = |y, m, d| Value::Date(Date::new(y, m, d).expect("valid date"));
    grown
        .table_mut("Employees")
        .expect("Employees table")
        .push_row(vec![
            Value::Int(90_001),
            date(1970, 1, 1),
            Value::Text("Zebulon".into()),
            Value::Text("Halvorsen".into()),
            Value::Text("F".into()),
            date(1999, 9, 9),
        ]);
    let probe = "select last name from employees where first name equals zebulon";
    let server = Server::serve(registry, ServerConfig::default()).expect("spawn workers");
    let handle = server.handle();
    let Response::Ok { sql: before } = handle.request("employees", probe) else {
        panic!("probe must transcribe");
    };
    assert!(!before.contains("Zebulon"), "{before}");

    assert_eq!(
        server
            .registry()
            .register("employees", &grown, shared_index(), small_config()),
        Registration::Swapped
    );
    let Response::Ok { sql: after } = handle.request("employees", probe) else {
        panic!("probe must transcribe");
    };
    assert!(after.contains("'Zebulon'"), "{after}");
    // Registering the same database again is the no-op.
    assert_eq!(
        server
            .registry()
            .register("employees", &grown, shared_index(), small_config()),
        Registration::Unchanged
    );
    server.shutdown();
}

#[test]
fn index_only_swap_shares_the_phonetic_catalog() {
    // An index delta over an unchanged database swaps the engine but keeps
    // its phonetic catalog: the catalog is built from the rows, and the
    // rows did not move.
    let registry = TenantRegistry::new(64, false);
    let db = employees_db();
    registry.register("employees", &db, shared_index(), small_config());
    let before = registry.engine("employees").expect("registered");
    let delta = speakql_index::IndexDelta::new().remove_structures([1u32]);
    let (next, _) = shared_index().apply_delta(&delta).expect("apply delta");
    let next = Arc::new(next);
    assert_eq!(
        registry.register("employees", &db, Arc::clone(&next), small_config()),
        Registration::Swapped
    );
    let after = registry.engine("employees").expect("still registered");
    assert!(
        !Arc::ptr_eq(&before, &after),
        "a new generation swaps the engine"
    );
    assert!(
        Arc::ptr_eq(before.catalog(), after.catalog()),
        "an index-only swap must share the catalog"
    );

    // A changed database builds its own catalog, even over the same index.
    let mut grown = db.clone();
    let date = |y, m, d| Value::Date(Date::new(y, m, d).expect("valid date"));
    grown
        .table_mut("Employees")
        .expect("Employees table")
        .push_row(vec![
            Value::Int(90_002),
            date(1971, 2, 2),
            Value::Text("Ottoline".into()),
            Value::Text("Brandvold".into()),
            Value::Text("F".into()),
            date(2001, 1, 1),
        ]);
    assert_eq!(
        registry.register("employees", &grown, next, small_config()),
        Registration::Swapped
    );
    let regrown = registry.engine("employees").expect("still registered");
    assert!(!Arc::ptr_eq(after.catalog(), regrown.catalog()));
}

#[test]
fn hot_swap_keeps_untouched_tenants_warm() {
    // Swapping one tenant to a delta'd index must not cost any other
    // tenant its warm shared-cache entries.
    let registry = TenantRegistry::new(256, true);
    registry.register("employees", &employees_db(), shared_index(), small_config());
    registry.register("yelp", &yelp_db(), shared_index(), small_config());
    let server = Server::serve(registry, ServerConfig::default()).expect("spawn workers");
    let handle = server.handle();

    // Warm the employees tenant.
    assert!(matches!(
        handle.request("employees", TRANSCRIPT),
        Response::Ok { .. }
    ));

    // Hot-swap yelp to an index with a handful of structures tombstoned.
    let delta = speakql_index::IndexDelta::new().remove_structures([0u32, 3, 5]);
    let (delta_idx, stats) = shared_index().apply_delta(&delta).expect("apply delta");
    assert!(stats.segments_reused > 0);
    assert_ne!(delta_idx.generation(), shared_index().generation());
    assert_eq!(
        server
            .registry()
            .register("yelp", &yelp_db(), Arc::new(delta_idx), small_config()),
        Registration::Swapped
    );

    // Yelp serves the new arena (first request misses: new generation) ...
    let misses_before = server.recorder().counter(CounterId::CacheSkeletonMisses);
    assert!(matches!(
        handle.request("yelp", TRANSCRIPT),
        Response::Ok { .. }
    ));
    assert!(server.recorder().counter(CounterId::CacheSkeletonMisses) > misses_before);

    // ... while employees' warm entry survived the swap untouched.
    let hits_before = server.recorder().counter(CounterId::CacheSkeletonHits);
    assert!(matches!(
        handle.request("employees", TRANSCRIPT),
        Response::Ok { .. }
    ));
    assert!(
        server.recorder().counter(CounterId::CacheSkeletonHits) > hits_before,
        "hot-swapping one tenant must not cold-start the others"
    );
    server.shutdown();
}

#[test]
fn malformed_and_oversized_frames_get_typed_errors_not_panics() {
    let registry = two_tenant_registry();
    let mut server = Server::serve(registry, ServerConfig::default()).expect("spawn workers");
    let addr = server.listen("127.0.0.1:0").expect("bind localhost");

    // A frame whose payload is missing the tenant separator: the stream is
    // still synchronized, so the server answers and keeps serving.
    let mut conn = TcpStream::connect(addr).expect("connect");
    write_frame(&mut conn, b"no-separator-here").expect("frame writes");
    let payload = read_frame(&mut conn).expect("reads").expect("answered");
    match decode_response(&payload).expect("decodes") {
        Response::Err { class, .. } => assert_eq!(class, CLASS_PROTOCOL),
        other => panic!("expected protocol error, got {other:?}"),
    }
    // Same connection still serves valid requests afterwards.
    assert!(matches!(
        tcp_request(&mut conn, "employees", TRANSCRIPT),
        Response::Ok { .. }
    ));

    // An oversized declared length: answered once, then disconnected.
    let mut conn2 = TcpStream::connect(addr).expect("connect");
    conn2
        .write_all(&u32::MAX.to_be_bytes())
        .expect("prefix writes");
    conn2.flush().expect("flushes");
    let payload = read_frame(&mut conn2).expect("reads").expect("answered");
    match decode_response(&payload).expect("decodes") {
        Response::Err { class, .. } => assert_eq!(class, CLASS_PROTOCOL),
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert!(
        server.recorder().counter(CounterId::ServerProtocolErrors) >= 2,
        "both violations must be counted"
    );
    // The server survives both: a fresh connection transcribes normally.
    let mut conn3 = TcpStream::connect(addr).expect("connect");
    assert!(matches!(
        tcp_request(&mut conn3, "employees", TRANSCRIPT),
        Response::Ok { .. }
    ));
    server.shutdown();
}

#[test]
fn concurrent_tcp_clients_all_get_correct_answers() {
    let registry = two_tenant_registry();
    let mut server = Server::serve(
        registry,
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .expect("spawn workers");
    let addr = server.listen("127.0.0.1:0").expect("bind localhost");

    let reference = SpeakQl::with_index(&employees_db(), shared_index(), small_config());
    let expected = reference
        .transcribe(TRANSCRIPT)
        .expect("library path transcribes")
        .candidates
        .first()
        .map(|c| c.sql.clone())
        .expect("candidates are non-empty");

    let clients: Vec<_> = (0..8)
        .map(|_| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("connect");
                for _ in 0..4 {
                    match tcp_request(&mut conn, "employees", TRANSCRIPT) {
                        Response::Ok { sql } => assert_eq!(sql, expected),
                        other => panic!("expected Ok, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client threads must not panic");
    }
    assert_eq!(server.recorder().counter(CounterId::ServerRequests), 32);
    server.shutdown();
}
