//! The untraced run (end-to-end metrics) and the traced run (per-layer
//! metrics and tracing overhead).

use crate::fleet::{self, engine_config, Library, Served};
use crate::inputs::{employees_with_rows, ReadStream, TENANTS};
use crate::run::{
    self, Ask, Inputs, Phase, Workload, WriteRecord, Writer, CATALOG_TENANT, CHURN_WRITES,
    DELTA_TENANT, SETUPS, WARM_DELTAS,
};
use crate::stats::{mean, median, ms, percentile, ratio};
use crate::trace::{LayerTable, Tracer};
use crate::verify::{score, Expected, Failures, Score, Versions};
use speakql_core::{CounterId, PipelineReport, SpeakQl, StageTimings};
use speakql_grammar::{process_transcript, tokenize_transcript};
use speakql_index::SearchStats;
use speakql_server::{Registration, Response};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A metric's declared name and unit.
pub struct Declared {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn d(name: &'static str, unit: &'static str) -> Declared {
    Declared { name, unit }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Declared] = &[
    d("setup_s", "s"),
    d("latency_p50_ms", "ms"),
    d("latency_p99_ms", "ms"),
    d("throughput_qps", "1/s"),
    d("ok_share", "ratio"),
    d("wrr", "ratio"),
    d("lrr", "ratio"),
    d("structure_exact", "ratio"),
    d("write_p50_ms", "ms"),
    d("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[Declared] = &[
    d("server.wire_ms_p50", "ms"),
    d("server.wire_ms_p95", "ms"),
    d("server.wire_share", "ratio"),
    d("server.queue_ms_p50", "ms"),
    d("server.queue_ms_p95", "ms"),
    d("server.shed", "count"),
    d("server.timeouts", "count"),
    d("server.registry_lookup_us", "us"),
    d("server.register_ms", "ms"),
    d("server.registrations_swapped", "count"),
    d("server.registrations_unchanged", "count"),
    d("core.cache_hit_ratio", "ratio"),
    d("core.cache_evictions", "count"),
    d("grammar.process_transcript_us", "us"),
    d("index.search_ms_p50", "ms"),
    d("index.search_ms_p95", "ms"),
    d("index.nodes_visited", "count"),
    d("index.shard_prune_ratio", "ratio"),
    d("editdist.cells_evaluated", "count"),
    d("editdist.cells_per_us", "1/us"),
    d("core.stage.literal_ms", "ms"),
    d("literal.vote_comparisons", "count"),
    d("phonetics.exact_hit_ratio", "ratio"),
    d("literal.fill_memo_hit_ratio", "ratio"),
    d("core.transcribe_ms_p50", "ms"),
    d("core.transcribe_ms_p95", "ms"),
    d("core.share.tokenize", "ratio"),
    d("core.share.search", "ratio"),
    d("core.share.literal", "ratio"),
    d("core.share.render", "ratio"),
    d("core.catalog_build_ms", "ms"),
    d("index.delta_apply_ms", "ms"),
    d("index.delta_segments_reused_ratio", "ratio"),
    d("index.load_ms", "ms"),
    d("index.image_mb", "MB"),
    d("trace.overhead_ratio", "ratio"),
    d("trace.residual_share", "ratio"),
];

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric with its declared unit.
    pub fn new(name: &'static str, value: f64) -> Metric {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .map_or("?", |d| d.unit);
        Metric { name, value, unit }
    }
}

/// What a run prints.
pub struct Outcome {
    /// No read failed except the stale-catalog class (see `README.md`).
    pub correct: bool,
    /// Reads sent.
    pub attempted: u64,
    /// Reads that failed, stale-catalog probes excepted.
    pub failed: u64,
    /// Metrics in declaration order.
    pub metrics: Vec<Metric>,
    /// Human-readable report.
    pub report: String,
}

/// A set-up fleet of either kind.
enum Fleet {
    Served(Served),
    Library(Library),
}

impl Fleet {
    fn shutdown(self) {
        if let Fleet::Served(s) = self {
            s.shutdown();
        }
    }
}

/// One workload driven through set-up, warm-up and its timed phase.
struct Driven {
    fleet: Fleet,
    phase: Phase,
    expected: Expected,
    setups: Vec<f64>,
    peak_mb: f64,
    /// Churn: the delta tenant's current index and catalog updates made.
    churned: Option<(Arc<speakql_index::StructureIndex>, usize)>,
}

/// How one timed phase is run.
struct Plan {
    /// Length of the timed phase, s.
    seconds: f64,
    /// Set-ups before it (untraced only; a traced phase sets up once).
    setups: usize,
    /// Start a TCP listener even where the workload needs none.
    listen: bool,
    /// Writes churn makes during the phase.
    churn_writes: usize,
}

/// Set up, warm up and run `workload` as `plan` says. With a tracer, the
/// set-up calls, every read and every write are spans.
fn drive(
    workload: Workload,
    image: &Path,
    inputs: &mut Inputs,
    plan: &Plan,
    mut tracer: Option<&mut Tracer>,
) -> std::io::Result<Driven> {
    let Plan {
        seconds,
        setups,
        churn_writes,
        ..
    } = *plan;
    let epoch = tracer.as_ref().map(|_| Instant::now());
    match workload {
        Workload::Dictation | Workload::Churn => {
            let listen = plan.listen || workload == Workload::Dictation;
            let (served, setup_times) = if let Some(t) = tracer.as_deref_mut() {
                let started = Instant::now();
                let served = fleet::serve(image, &inputs.dbs, listen, true, Some(t))?;
                (served, vec![started.elapsed().as_secs_f64()])
            } else {
                fleet::timed_setups(
                    setups,
                    || fleet::serve(image, &inputs.dbs, listen, false, None),
                    Served::shutdown,
                )?
            };
            let mut expected = run::pool_references(inputs, &served.index);
            run::warm_cache(&served.server.handle(), inputs, &[0, 1, 2, 3]);
            if workload == Workload::Dictation {
                let streams = run::warm_connections(&served, inputs)?;
                // Traced counters cover the timed phase only.
                served.server.recorder().reset();
                let phase = run::dictation_phase(streams, inputs, seconds, epoch);
                let peak_mb = fleet::peak_rss_mb();
                return Ok(Driven {
                    fleet: Fleet::Served(served),
                    phase,
                    expected,
                    setups: setup_times,
                    peak_mb,
                    churned: None,
                });
            }
            let versions = Versions::new(TENANTS.len());
            let shared = Mutex::new(std::mem::take(&mut expected));
            let (phase, churned) = {
                let mut writer = Writer::new(&served, inputs, &versions, Some(&shared), None);
                for _ in 0..WARM_DELTAS {
                    writer.index_write(false)?;
                }
                run::warm_cache(&served.server.handle(), inputs, &[DELTA_TENANT]);
                writer.tracer = epoch.map(Tracer::new);
                served.server.recorder().reset();
                let mut phase = run::churn_phase(
                    &served.server.handle(),
                    &mut writer,
                    inputs,
                    &versions,
                    seconds,
                    churn_writes,
                    epoch,
                )?;
                if let (Some(t), Some(w)) = (tracer.as_deref_mut(), writer.tracer.take()) {
                    t.absorb(w);
                }
                if let (Some(t), Some(p)) = (tracer.as_deref_mut(), phase.tracer.take()) {
                    t.absorb(p);
                }
                (phase, (writer.current(), writer.updates()))
            };
            let peak_mb = fleet::peak_rss_mb();
            Ok(Driven {
                fleet: Fleet::Served(served),
                phase,
                expected: shared.into_inner().expect("reference lock"),
                setups: setup_times,
                peak_mb,
                churned: Some(churned),
            })
        }
        Workload::Batch => {
            let (library, setup_times) = if let Some(t) = tracer {
                let started = Instant::now();
                let library = fleet::library(image, &inputs.dbs, true, Some(t))?;
                (library, vec![started.elapsed().as_secs_f64()])
            } else {
                fleet::timed_setups(
                    setups,
                    || fleet::library(image, &inputs.dbs, false, None),
                    drop,
                )?
            };
            let stream = Mutex::new(inputs.batch.take().expect("batch inputs"));
            let from = run::warm_batch(&library.engines, &stream, seconds);
            for engine in &library.engines {
                engine.recorder().reset();
            }
            let phase =
                run::batch_phase(&library.engines, &stream, from, usize::MAX, seconds, epoch);
            inputs.batch = Some(stream.into_inner().expect("batch stream lock"));
            let peak_mb = fleet::peak_rss_mb();
            let expected = run::batch_references(inputs, &library.index, &phase.reads);
            Ok(Driven {
                fleet: Fleet::Library(library),
                phase,
                expected,
                setups: setup_times,
                peak_mb,
                churned: None,
            })
        }
    }
}

/// Reads checked against their references and scored.
struct Checked {
    attempted: u64,
    ok: u64,
    failures: Failures,
    latencies: Vec<f64>,
    score: Score,
}

fn check(inputs: &Inputs, phase: &Phase, expected: &Expected) -> Checked {
    let mut failures = Failures::default();
    let mut ok = 0u64;
    let mut memo: HashMap<(Ask, String), Score> = HashMap::new();
    let mut sums = [0.0f64; 3];
    for read in &phase.reads {
        let text = inputs.transcript(read.ask);
        let verdict = expected.check(read.tenant, read.lo, read.hi, text, &read.answer);
        if verdict == crate::verify::Verdict::Ok {
            ok += 1;
        }
        // A probe answered as the tenant's original catalog (version 0)
        // answers it is the registry defect churn exposes.
        let stale = matches!(read.ask, Ask::Probe(..))
            && expected.get(read.tenant, 0, text) == Some(&read.answer);
        failures.count(verdict, stale);
        let key = match &read.answer {
            Response::Ok { sql } => sql.clone(),
            Response::Err { class, .. } => format!("\u{0}{class}"),
        };
        let s = *memo
            .entry((read.ask, key))
            .or_insert_with(|| score(inputs.truth(read.ask), &read.answer));
        sums[0] += s.wrr;
        sums[1] += s.lrr;
        sums[2] += s.structure_exact;
    }
    let n = phase.reads.len().max(1) as f64;
    Checked {
        attempted: phase.reads.len() as u64,
        ok,
        failures,
        latencies: phase.reads.iter().map(|r| r.ms).collect(),
        score: Score {
            wrr: sums[0] / n,
            lrr: sums[1] / n,
            structure_exact: sums[2] / n,
        },
    }
}

fn need(value: Option<f64>, what: &str, samples: usize) -> std::io::Result<f64> {
    value.ok_or_else(|| {
        std::io::Error::other(format!(
            "{what} is not supported by {samples} samples: fewer than {} lie beyond it; raise --seconds",
            crate::stats::MIN_BEYOND
        ))
    })
}

fn render_metrics(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(out, "  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    out
}

fn render_failures(f: &Failures) -> String {
    format!(
        "failures by class: stale_catalog {} (probes answered from the old catalog: the registry ignores a new database at an unchanged index generation), wrong {}, error {}, no_reference {}\n",
        f.stale_catalog, f.wrong, f.error, f.no_reference
    )
}

/// Median `update_ms` of the timed index writes.
fn write_p50(writes: &[WriteRecord]) -> f64 {
    let updates: Vec<f64> = writes
        .iter()
        .filter(|w| w.index && w.timed)
        .map(WriteRecord::update_ms)
        .collect();
    median(&updates)
}

/// The untraced run: every end-to-end metric.
pub fn untraced(workload: Workload, seed: u64, seconds: f64) -> std::io::Result<Outcome> {
    let image = fleet::ensure_image()?;
    let mut inputs = Inputs::generate(workload, seed);
    let plan = Plan {
        seconds,
        setups: SETUPS,
        listen: false,
        churn_writes: CHURN_WRITES,
    };
    let driven = drive(workload, &image, &mut inputs, &plan, None)?;
    let checked = check(&inputs, &driven.phase, &driven.expected);
    let writes = match (&driven.fleet, workload) {
        (_, Workload::Churn) => driven.phase.writes.clone(),
        (Fleet::Served(served), _) => run::idle_writes(served, &inputs, None)?.0,
        (Fleet::Library(library), _) => {
            let served =
                fleet::serve_index(Arc::clone(&library.index), &inputs.dbs, false, false, None)?;
            let writes = run::idle_writes(&served, &inputs, None)?.0;
            served.shutdown();
            writes
        }
    };
    driven.fleet.shutdown();
    let n = checked.latencies.len();
    let p50 = need(percentile(&checked.latencies, 50.0), "latency p50", n)?;
    let p99 = need(percentile(&checked.latencies, 99.0), "latency p99", n)?;
    let metrics = vec![
        Metric::new("setup_s", median(&driven.setups)),
        Metric::new("latency_p50_ms", p50),
        Metric::new("latency_p99_ms", p99),
        Metric::new(
            "throughput_qps",
            ratio(checked.ok as f64, driven.phase.elapsed_s),
        ),
        Metric::new(
            "ok_share",
            ratio(checked.ok as f64, checked.attempted as f64),
        ),
        Metric::new("wrr", checked.score.wrr),
        Metric::new("lrr", checked.score.lrr),
        Metric::new("structure_exact", checked.score.structure_exact),
        Metric::new("write_p50_ms", write_p50(&writes)),
        Metric::new("peak_rss_mb", driven.peak_mb),
    ];
    let failed = checked.failures.total() - checked.failures.stale_catalog;
    let mut report = format!(
        "servebench {} seed={seed} seconds={seconds}: {} reads in {:.2} s, {} answered as the library path does\n",
        workload.name(),
        checked.attempted, driven.phase.elapsed_s, checked.ok
    );
    report += &render_failures(&checked.failures);
    let _ = writeln!(
        report,
        "set-ups (s): {:?}; index updates timed: {}",
        driven.setups,
        writes.iter().filter(|w| w.index && w.timed).count()
    );
    report += &render_metrics(&metrics);
    Ok(Outcome {
        correct: failed == 0,
        attempted: checked.attempted,
        failed,
        metrics,
        report,
    })
}

/// Measurements from the layered replay.
#[derive(Default)]
struct Replay {
    wire: Vec<f64>,
    queue: Vec<f64>,
    lookup_us: Vec<f64>,
    path_ms: Vec<f64>,
    literal_ms: Vec<f64>,
    stages: StageTimings,
    process_us: Vec<f64>,
    search_ms: Vec<f64>,
    search: Vec<SearchStats>,
    tcp_ms: f64,
    fills: u64,
    reports: Vec<PipelineReport>,
    mismatches: u64,
}

/// Lay `stages` end to end from `start` as children of `parent`.
fn stage_spans(
    tracer: &mut Tracer,
    parent: usize,
    req: u64,
    start: Instant,
    stages: &StageTimings,
) -> [usize; 4] {
    let mut at = start;
    let mut ids = [0; 4];
    for (i, (name, d)) in [
        ("core.tokenize", stages.tokenize),
        ("core.search", stages.search),
        ("core.literal", stages.literal),
        ("core.render", stages.render),
    ]
    .into_iter()
    .enumerate()
    {
        ids[i] = tracer.record_for(name, Some(parent), req, at, d);
        at += d;
    }
    ids
}

/// Replay `sample` through successively narrower surfaces: the in-process
/// handle, the registry lookup and the tenant's engine, then a cache-less
/// library engine, `process_transcript` and `search_with_stats`; and over
/// TCP paired with the handle, for the wire. Dictation interleaves the TCP
/// call with the rest, as its reads do; the others send the TCP pairs in a
/// second pass, so the idle gaps TCP leaves never reach their handle calls.
/// Every sample is first sent once untimed, so the served surfaces all see
/// a warm cache; the library engine and the raw search never have one.
fn replay(
    workload: Workload,
    served: &Served,
    library: &[SpeakQl],
    inputs: &Inputs,
    sample: &[(usize, Ask)],
    tracer: &mut Tracer,
) -> std::io::Result<Replay> {
    let addr = served
        .addr
        .ok_or_else(|| std::io::Error::other("traced runs need a listener"))?;
    let mut stream = run::connect(addr)?;
    let handle = served.server.handle();
    let registry = served.server.registry();
    let interleaved = workload == Workload::Dictation;
    let mut out = Replay::default();
    let cfg = engine_config().search;
    let failed = |e: speakql_core::SpeakQlError| std::io::Error::other(e.to_string());
    let mut tcp_pair = |tracer: &mut Tracer, out: &mut Replay, req: u64, name: &str, text: &str| {
        let (via_tcp, tcp) = tracer.time("client.tcp", None, req, || {
            run::tcp_call(&mut stream, name, text)
        });
        let (via_handle, h) = tracer.time("server.handle", Some(tcp), req, || {
            handle.request(name, text)
        });
        let spans = tracer.spans();
        out.wire.push(spans[tcp].ms() - spans[h].ms());
        out.tcp_ms += spans[tcp].ms();
        (via_tcp, via_handle, h)
    };
    for (i, &(t, ask)) in sample.iter().enumerate() {
        let req = i as u64 + 1;
        let (name, text) = (TENANTS[t], inputs.transcript(ask));
        let _ = handle.request(name, text);
        let (via_tcp, via_handle, h) = if interleaved {
            let (tcp, handle_answer, h) = tcp_pair(tracer, &mut out, req, name, text);
            (Some(tcp), handle_answer, h)
        } else {
            let (a, h) = tracer.time("server.handle", None, req, || handle.request(name, text));
            (None, a, h)
        };
        let (engine, lookup) = tracer.time("server.registry_lookup", Some(h), req, || {
            registry.engine(name)
        });
        let engine = engine.ok_or_else(|| std::io::Error::other("tenant vanished"))?;
        let started = Instant::now();
        let served_t = engine.transcribe(text);
        let x = tracer.record("core.transcribe", Some(h), req, started, Instant::now());
        let served_t = served_t.map_err(failed)?;
        stage_spans(tracer, x, req, started, &served_t.stages);

        let started = Instant::now();
        let lib_t = library[t].transcribe(text);
        let u = tracer.record(
            "core.transcribe_uncached",
            None,
            req,
            started,
            Instant::now(),
        );
        let lib_t = lib_t.map_err(failed)?;
        let [tok, search, _, _] = stage_spans(tracer, u, req, started, &lib_t.stages);
        let words = tokenize_transcript(text);
        let (processed, p) = tracer.time("grammar.process_transcript", Some(tok), req, || {
            process_transcript(&words)
        });
        let index = library[t].index();
        let ((_, stats), s) = tracer.time("index.search", Some(search), req, || {
            index.search_with_stats(&processed.masked, &cfg)
        });

        let answer = Response::Ok {
            sql: served_t.best_sql().unwrap_or_default().to_string(),
        };
        let tcp_ok = via_tcp.is_none_or(|r| r.ok().as_ref() == Some(&answer));
        if !(tcp_ok && via_handle == answer && lib_t.best_sql() == served_t.best_sql()) {
            out.mismatches += 1;
        }
        let spans = tracer.spans();
        let dur = |k: usize| spans[k].ms();
        out.queue.push(dur(h) - dur(lookup) - dur(x));
        out.lookup_us.push(dur(lookup) * 1e3);
        out.process_us.push(dur(p) * 1e3);
        out.search_ms.push(dur(s));
        out.search.push(stats);
        let path = if workload == Workload::Batch {
            &lib_t
        } else {
            &served_t
        };
        out.path_ms.push(ms(path.elapsed));
        out.literal_ms.push(ms(path.stages.literal));
        out.stages = out.stages + path.stages;
    }
    if !interleaved {
        for (i, &(t, ask)) in sample.iter().enumerate() {
            let (name, text) = (TENANTS[t], inputs.transcript(ask));
            let (via_tcp, via_handle, _) =
                tcp_pair(tracer, &mut out, (sample.len() + i) as u64 + 1, name, text);
            if via_tcp.ok().as_ref() != Some(&via_handle) {
                out.mismatches += 1;
            }
        }
    }
    Ok(out)
}

/// Literal-voting counters of the sample, from observed library engines
/// (untimed: observation slows the engine it watches).
fn literal_counters(
    library: &[SpeakQl],
    inputs: &Inputs,
    sample: &[(usize, Ask)],
) -> (Vec<PipelineReport>, u64) {
    let mut fills = 0;
    for &(t, ask) in sample {
        if let Ok(tr) = library[t].transcribe(inputs.transcript(ask)) {
            fills += tr
                .candidates
                .iter()
                .map(|c| c.literals.len() as u64)
                .sum::<u64>();
        }
    }
    (reports(library), fills)
}

/// Counter reports of a set of engines.
fn reports(engines: &[SpeakQl]) -> Vec<PipelineReport> {
    engines.iter().map(SpeakQl::report).collect()
}

/// A counter summed over reports.
fn total(reports: &[PipelineReport], id: CounterId) -> f64 {
    reports.iter().map(|r| r.counter(id) as f64).sum()
}

/// The sample the layered replay uses: the first reads of the workload's
/// stream (batch: cases after those the timed phase took).
fn replay_sample(workload: Workload, inputs: &mut Inputs, n: usize) -> Vec<(usize, Ask)> {
    match workload {
        Workload::Batch => {
            let stream = inputs.batch.as_mut().expect("batch inputs");
            let from = stream.cases().len();
            stream.fill(from + n);
            (from..from + n)
                .map(|i| (run::batch_tenant(i, &stream.cases()[i]), Ask::Batch(i)))
                .collect()
        }
        _ => ReadStream::new(inputs.seed, 0)
            .take(n)
            .map(|(t, q)| (t, Ask::Pool(t % 2, q)))
            .collect(),
    }
}

/// Requests the layered replay sends.
const REPLAY_SAMPLE: usize = 240;

/// Library engines over what each tenant of `driven` serves.
fn tenant_engines(driven: &Driven, inputs: &Inputs, observe: bool) -> Vec<SpeakQl> {
    let base = match &driven.fleet {
        Fleet::Served(s) => &s.index,
        Fleet::Library(l) => &l.index,
    };
    (0..TENANTS.len())
        .map(|t| {
            let (index, db) = match &driven.churned {
                Some((current, _)) if t == DELTA_TENANT => (current, inputs.dbs[0].clone()),
                Some((_, updates)) if t == CATALOG_TENANT => {
                    (base, employees_with_rows(&inputs.dbs[0], *updates))
                }
                _ => (base, inputs.dbs[t % 2].clone()),
            };
            SpeakQl::with_index(
                &db,
                Arc::clone(index),
                engine_config().with_observability(observe),
            )
        })
        .collect()
}

/// The traced run. The workload first runs untraced for half the time and
/// its fleet then serves the layered replay; a second, observed fleet runs
/// it traced for the other half (set-up calls, reads and writes as spans,
/// the program's own counters on). The difference between the two halves'
/// latency is the tracing overhead.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> std::io::Result<Outcome> {
    let image = fleet::ensure_image()?;
    let mut inputs = Inputs::generate(workload, seed);
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);

    let mut plan = Plan {
        seconds: seconds / 2.0,
        setups: 1,
        listen: true,
        churn_writes: CHURN_WRITES / 2,
    };
    let plain = drive(workload, &image, &mut inputs, &plan, None)?;
    let plain_checked = check(&inputs, &plain.phase, &plain.expected);
    let sample = replay_sample(workload, &mut inputs, REPLAY_SAMPLE);
    let r = {
        let extra = match &plain.fleet {
            Fleet::Served(_) => None,
            Fleet::Library(l) => Some(fleet::serve_index(
                Arc::clone(&l.index),
                &inputs.dbs,
                true,
                false,
                None,
            )?),
        };
        let served = match (&plain.fleet, &extra) {
            (Fleet::Served(s), _) => s,
            (_, Some(s)) => s,
            _ => unreachable!("a library fleet always gets a served one"),
        };
        let mut r = replay(
            workload,
            served,
            &tenant_engines(&plain, &inputs, false),
            &inputs,
            &sample,
            &mut tracer,
        )?;
        (r.reports, r.fills) =
            literal_counters(&tenant_engines(&plain, &inputs, true), &inputs, &sample);
        if let Some(s) = extra {
            s.shutdown();
        }
        r
    };
    plain.fleet.shutdown();

    plan.listen = false;
    let mut driven = drive(workload, &image, &mut inputs, &plan, Some(&mut tracer))?;
    let checked = check(&inputs, &driven.phase, &driven.expected);
    if let Some(t) = driven.phase.tracer.take() {
        tracer.absorb(t);
    }
    let phase_reports = match &driven.fleet {
        Fleet::Served(s) => vec![s.server.recorder().report()],
        Fleet::Library(l) => reports(&l.engines),
    };
    let writes = match &driven.fleet {
        _ if workload == Workload::Churn => driven.phase.writes.clone(),
        Fleet::Served(served) => traced_idle_writes(served, &inputs, &mut tracer, epoch)?,
        Fleet::Library(l) => {
            let served = fleet::serve_index(Arc::clone(&l.index), &inputs.dbs, false, true, None)?;
            let writes = traced_idle_writes(&served, &inputs, &mut tracer, epoch)?;
            served.shutdown();
            writes
        }
    };
    driven.fleet.shutdown();

    let (root, residual) = match workload {
        Workload::Dictation => ("client.tcp", "core.transcribe"),
        Workload::Churn => ("server.handle", "core.transcribe"),
        Workload::Batch => ("core.transcribe_uncached", "core.transcribe_uncached"),
    };
    let table = LayerTable::build(&tracer, root);
    let p50_plain = percentile(&plain_checked.latencies, 50.0).unwrap_or(0.0);
    let p50_traced = percentile(&checked.latencies, 50.0).unwrap_or(0.0);
    let overhead = ratio(p50_traced, p50_plain);
    let metrics = per_layer(
        &r,
        &phase_reports,
        &tracer,
        &writes,
        &image,
        &table,
        residual,
        overhead,
    );

    let name = workload.name();
    let spans_path = fleet::data_dir()?.join(format!("spans-{name}-{seed}.jsonl"));
    std::fs::write(&spans_path, tracer.to_json_lines())?;

    let mut failures = plain_checked.failures.clone();
    failures.stale_catalog += checked.failures.stale_catalog;
    failures.wrong += checked.failures.wrong + r.mismatches;
    failures.error += checked.failures.error;
    failures.no_reference += checked.failures.no_reference;
    let attempted = plain_checked.attempted + checked.attempted + sample.len() as u64;
    let failed = failures.total() - failures.stale_catalog;
    let mut report = format!(
        "servebench {name} seed={seed} traced: {attempted} reads, spans in {}\n",
        spans_path.display()
    );
    report += &render_failures(&failures);
    let _ = writeln!(
        report,
        "tracing overhead: latency p50 {p50_traced:.4} ms traced vs {p50_plain:.4} ms untraced ({:+.1}%)",
        100.0 * (overhead - 1.0)
    );
    let _ = writeln!(
        report,
        "per-layer table over {} replayed requests (self of client.tcp = wire; self of server.handle = admission and handoff; self of {residual} = unattributed):",
        sample.len()
    );
    report += &table.render(residual);
    report += &render_metrics(&metrics);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        report,
    })
}

fn traced_idle_writes(
    served: &Served,
    inputs: &Inputs,
    tracer: &mut Tracer,
    epoch: Instant,
) -> std::io::Result<Vec<WriteRecord>> {
    let (writes, spans) = run::idle_writes(served, inputs, Some(Tracer::new(epoch)))?;
    if let Some(spans) = spans {
        tracer.absorb(spans);
    }
    Ok(writes)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    r: &Replay,
    phase: &[PipelineReport],
    tracer: &Tracer,
    writes: &[WriteRecord],
    image: &Path,
    table: &LayerTable,
    residual: &str,
    overhead: f64,
) -> Vec<Metric> {
    let p = |v: &[f64], pct: f64| percentile(v, pct).unwrap_or(0.0);
    let hits = total(phase, CounterId::CacheSkeletonHits);
    let misses = total(phase, CounterId::CacheSkeletonMisses);
    let searched: f64 = r.search.iter().map(|s| s.shards_searched as f64).sum();
    let pruned: f64 = r.search.iter().map(|s| s.shards_pruned as f64).sum();
    let cells: f64 = r.search.iter().map(|s| s.cells_evaluated as f64).sum();
    let nodes: Vec<f64> = r.search.iter().map(|s| s.nodes_visited as f64).collect();
    let stage_total = r.stages.total().as_secs_f64();
    let share = |d: std::time::Duration| ratio(d.as_secs_f64(), stage_total);
    let index_writes: Vec<&WriteRecord> = writes.iter().filter(|w| w.index && w.timed).collect();
    let reused: f64 = index_writes
        .iter()
        .filter_map(|w| w.stats)
        .map(|s| s.segments_reused as f64)
        .sum();
    let rebuilt: f64 = index_writes
        .iter()
        .filter_map(|w| w.stats)
        .map(|s| s.segments_rebuilt as f64)
        .sum();
    let outcomes =
        |o: Registration| writes.iter().filter(|w| w.timed && w.outcome == o).count() as f64;
    let transcriptions = total(&r.reports, CounterId::Transcriptions);
    let wire_total: f64 = r.wire.iter().sum();
    let image_mb = std::fs::metadata(image).map_or(0.0, |m| m.len() as f64 / (1 << 20) as f64);
    vec![
        Metric::new("server.wire_ms_p50", p(&r.wire, 50.0)),
        Metric::new("server.wire_ms_p95", p(&r.wire, 95.0)),
        Metric::new("server.wire_share", ratio(wire_total, r.tcp_ms)),
        Metric::new("server.queue_ms_p50", p(&r.queue, 50.0)),
        Metric::new("server.queue_ms_p95", p(&r.queue, 95.0)),
        Metric::new("server.shed", total(phase, CounterId::ErrorsOverloaded)),
        Metric::new("server.timeouts", total(phase, CounterId::ErrorsTimeout)),
        Metric::new("server.registry_lookup_us", p(&r.lookup_us, 50.0)),
        Metric::new(
            "server.register_ms",
            median(&tracer.durations("server.register")),
        ),
        Metric::new(
            "server.registrations_swapped",
            outcomes(Registration::Swapped),
        ),
        Metric::new(
            "server.registrations_unchanged",
            outcomes(Registration::Unchanged),
        ),
        Metric::new("core.cache_hit_ratio", ratio(hits, hits + misses)),
        Metric::new(
            "core.cache_evictions",
            total(phase, CounterId::CacheSkeletonEvictions),
        ),
        Metric::new("grammar.process_transcript_us", p(&r.process_us, 50.0)),
        Metric::new("index.search_ms_p50", p(&r.search_ms, 50.0)),
        Metric::new("index.search_ms_p95", p(&r.search_ms, 95.0)),
        Metric::new("index.nodes_visited", mean(&nodes)),
        Metric::new("index.shard_prune_ratio", ratio(pruned, searched + pruned)),
        Metric::new(
            "editdist.cells_evaluated",
            ratio(cells, r.search.len() as f64),
        ),
        Metric::new(
            "editdist.cells_per_us",
            ratio(cells, r.search_ms.iter().sum::<f64>() * 1e3),
        ),
        Metric::new("core.stage.literal_ms", p(&r.literal_ms, 50.0)),
        Metric::new(
            "literal.vote_comparisons",
            ratio(
                total(&r.reports, CounterId::VoteComparisons),
                transcriptions,
            ),
        ),
        Metric::new(
            "phonetics.exact_hit_ratio",
            ratio(
                total(&r.reports, CounterId::PhoneticExactHits),
                total(&r.reports, CounterId::VoteEnumerations),
            ),
        ),
        Metric::new(
            "literal.fill_memo_hit_ratio",
            ratio(
                total(&r.reports, CounterId::LiteralFillMemoHits),
                r.fills as f64,
            ),
        ),
        Metric::new("core.transcribe_ms_p50", p(&r.path_ms, 50.0)),
        Metric::new("core.transcribe_ms_p95", p(&r.path_ms, 95.0)),
        Metric::new("core.share.tokenize", share(r.stages.tokenize)),
        Metric::new("core.share.search", share(r.stages.search)),
        Metric::new("core.share.literal", share(r.stages.literal)),
        Metric::new("core.share.render", share(r.stages.render)),
        Metric::new(
            "core.catalog_build_ms",
            median(&tracer.durations("core.catalog_build")),
        ),
        Metric::new(
            "index.delta_apply_ms",
            median(&index_writes.iter().map(|w| w.apply_ms).collect::<Vec<_>>()),
        ),
        Metric::new(
            "index.delta_segments_reused_ratio",
            ratio(reused, reused + rebuilt),
        ),
        Metric::new("index.load_ms", median(&tracer.durations("index.load"))),
        Metric::new("index.image_mb", image_mb),
        Metric::new("trace.overhead_ratio", overhead),
        Metric::new(
            "trace.residual_share",
            ratio(table.self_ms(residual), table.wall_ms),
        ),
    ]
}
