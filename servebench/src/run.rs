//! The three workloads: set-up, warm-up, the timed closed loop, and the
//! writes churn runs beside its reads.

use crate::fleet::{self, engine_config, Served};
use crate::inputs::{
    employees_with_rows, mix, probes, BatchStream, Case, CaseSource, Probe, ReadStream, TENANTS,
};
use crate::stats::ms;
use crate::trace::{timed, Tracer};
use crate::verify::{Expected, Versions};
use speakql_core::{PhoneticCatalog, SpeakQl};
use speakql_db::Database;
use speakql_grammar::Structure;
use speakql_index::{DeltaStats, IndexDelta, StructureIndex};
use speakql_server::{
    decode_response, encode_request, read_frame, write_frame, Registration, Request, Response,
    ServerHandle, TenantRegistry,
};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two TCP connections, Zipf reads over a warm shared cache.
    Dictation,
    /// Two library callers, distinct transcripts, no cache.
    Batch,
    /// One in-process reader beside one writer.
    Churn,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Dictation, Workload::Batch, Workload::Churn];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dictation => "dictation",
            Workload::Batch => "batch",
            Workload::Churn => "churn",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Closed-loop callers (connections or threads) in dictation and batch.
pub const CALLERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// TCP reads per connection before timing starts.
const TCP_WARM_READS: usize = 8;
/// Batch reads per caller before timing starts.
const BATCH_WARM_READS: usize = 64;
/// Index updates run before timing (the first few run slower).
pub const WARM_DELTAS: usize = 2;
/// Writes the churn writer makes in a timed phase, alternating an index
/// delta and a catalog update. With 12, the reads slowed by a concurrent
/// `apply_delta` were about 1% of all reads, so the p99 fell between them
/// and the rest and jumped between 1.7 and 2.4 ms from run to run; 24 puts
/// it inside the slowed reads, where the write cost is meant to show.
pub const CHURN_WRITES: usize = 24;
/// Index updates timed after the read phase on dictation and batch.
pub const IDLE_DELTAS: usize = 4;
/// Reads the churn reader keeps in flight, one per server worker. With one
/// in flight every read waits for an idle vCPU to wake twice (worker, then
/// reader); on a 2-vCPU VM that put the run-to-run spread (quartile
/// distance over median, ten runs) of throughput at 0.25 and of p99 at 0.41.
const CHURN_WINDOW: usize = 2;
/// Structure lengths the index deltas cycle through: at paper scale each
/// holds 1.9k–12k structures in one or two of the 214 trie segments.
const DELTA_LENGTHS: [usize; 5] = [16, 17, 18, 19, 20];
/// Structures one index delta tombstones.
const DELTA_SIZE: usize = 1000;
/// Tenant the index deltas hot-swap (Employees).
pub const DELTA_TENANT: usize = 0;
/// Tenant the catalog updates re-register (the other Employees tenant).
pub const CATALOG_TENANT: usize = 2;

/// What one read asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ask {
    /// Pool transcript `q` of schema `s`.
    Pool(usize, usize),
    /// Batch stream case `i`.
    Batch(usize),
    /// Probe `k` of catalog update `u`.
    Probe(usize, usize),
}

/// One read: what was asked, the versions it may be answered from, its
/// latency and the answer.
#[derive(Debug, Clone)]
pub struct Read {
    /// Tenant index into [`TENANTS`].
    pub tenant: usize,
    /// What was asked.
    pub ask: Ask,
    /// Committed version when sent.
    pub lo: u32,
    /// Pending version when answered.
    pub hi: u32,
    /// Client-side latency, ms.
    pub ms: f64,
    /// The answer.
    pub answer: Response,
}

/// The inputs of one run.
pub struct Inputs {
    /// The tenants' databases by schema.
    pub dbs: [Database; 2],
    /// Dictation and churn pools by schema.
    pub pools: [Vec<Case>; 2],
    /// The batch stream (batch only).
    pub batch: Option<BatchStream>,
    /// Probe reads by catalog update.
    pub probes: Vec<Vec<Probe>>,
    /// The run's seed.
    pub seed: u64,
}

impl Inputs {
    /// Generate the inputs for `workload` under `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let dbs = crate::inputs::databases();
        let sources = [CaseSource::new(0, &dbs[0]), CaseSource::new(1, &dbs[1])];
        let pools = crate::inputs::pools(&sources);
        let batch = (workload == Workload::Batch).then(|| BatchStream::new(sources, seed));
        Inputs {
            dbs,
            pools,
            batch,
            probes: (0..CHURN_WRITES).map(probes).collect(),
            seed,
        }
    }

    /// The transcript sent for `ask`.
    pub fn transcript(&self, ask: Ask) -> &str {
        match ask {
            Ask::Pool(s, q) => &self.pools[s][q].transcript,
            Ask::Batch(i) => &self.batch_cases()[i].transcript,
            Ask::Probe(u, k) => &self.probes[u][k].transcript,
        }
    }

    /// The ground-truth SQL of `ask`.
    pub fn truth(&self, ask: Ask) -> &str {
        match ask {
            Ask::Pool(s, q) => &self.pools[s][q].sql,
            Ask::Batch(i) => &self.batch_cases()[i].sql,
            Ask::Probe(u, k) => &self.probes[u][k].sql,
        }
    }

    fn batch_cases(&self) -> &[Case] {
        self.batch.as_ref().map_or(&[], |b| b.cases())
    }
}

/// One write the run made.
#[derive(Debug, Clone)]
pub struct WriteRecord {
    /// True for an index delta, false for a catalog update.
    pub index: bool,
    /// `apply_delta`, ms (0 for catalog updates).
    pub apply_ms: f64,
    /// `register`, ms.
    pub register_ms: f64,
    /// What `register` did.
    pub outcome: Registration,
    /// The delta's counter proof.
    pub stats: Option<DeltaStats>,
    /// Whether the write ran in a timed phase.
    pub timed: bool,
}

impl WriteRecord {
    /// An index update as `write_p50_ms` defines it.
    pub fn update_ms(&self) -> f64 {
        self.apply_ms + self.register_ms
    }
}

/// Answer one framed request over `stream`.
pub fn tcp_call(
    stream: &mut TcpStream,
    tenant: &str,
    transcript: &str,
) -> std::io::Result<Response> {
    let request = Request {
        tenant: tenant.to_string(),
        transcript: transcript.to_string(),
    };
    write_frame(stream, &encode_request(&request))?;
    let payload = read_frame(stream)
        .map_err(|e| std::io::Error::other(e.to_string()))?
        .ok_or_else(|| std::io::Error::other("server closed the connection"))?;
    decode_response(&payload).map_err(|e| std::io::Error::other(e.to_string()))
}

/// A connected client socket with Nagle's algorithm off: the protocol
/// writes a frame as two `write_all` calls, which would otherwise stall on
/// the server's delayed ACK.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn transport_error(e: &std::io::Error) -> Response {
    Response::Err {
        class: "transport".into(),
        message: e.to_string(),
    }
}

/// Reference answers of every pool transcript at version 0 for every
/// tenant, on library engines over the base index.
pub fn pool_references(inputs: &Inputs, index: &Arc<StructureIndex>) -> Expected {
    let mut expected = Expected::default();
    for s in 0..2 {
        let engine = SpeakQl::with_index(&inputs.dbs[s], Arc::clone(index), engine_config());
        for t in (0..TENANTS.len()).filter(|t| t % 2 == s) {
            expected.compute(
                t,
                0,
                &engine,
                inputs.pools[s].iter().map(|c| c.transcript.as_str()),
            );
        }
    }
    expected
}

/// Send every pool transcript to every tenant once, filling the shared
/// skeleton cache.
pub fn warm_cache(handle: &ServerHandle, inputs: &Inputs, tenants: &[usize]) {
    for &t in tenants {
        for case in &inputs.pools[t % 2] {
            let _ = handle.request(TENANTS[t], &case.transcript);
        }
    }
}

/// Result of one timed phase.
pub struct Phase {
    /// Every read, in completion order per caller.
    pub reads: Vec<Read>,
    /// Start of timing to the last answer, s.
    pub elapsed_s: f64,
    /// Writes made during the phase (churn).
    pub writes: Vec<WriteRecord>,
    /// Per-read spans when traced.
    pub tracer: Option<Tracer>,
}

/// Dictation's timed phase: `CALLERS` connections, each a closed loop of
/// Zipf reads until `seconds` have passed.
pub fn dictation_phase(
    streams: Vec<TcpStream>,
    inputs: &Inputs,
    seconds: f64,
    epoch: Option<Instant>,
) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_caller: Vec<(Vec<Read>, Instant, Option<Tracer>)> = std::thread::scope(|scope| {
        let joins: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, mut stream)| {
                scope.spawn(move || {
                    let mut tracer = epoch.map(Tracer::new);
                    let mut reads = Vec::new();
                    let mut draws = ReadStream::new(inputs.seed, c as u64);
                    let mut last = start;
                    while Instant::now() < deadline {
                        let Some((t, q)) = draws.next() else { break };
                        let ask = Ask::Pool(t % 2, q);
                        let sent = Instant::now();
                        let result = tcp_call(&mut stream, TENANTS[t], inputs.transcript(ask));
                        last = Instant::now();
                        if let Some(tr) = tracer.as_mut() {
                            tr.record(
                                "read",
                                None,
                                (c as u64) << 32 | reads.len() as u64,
                                sent,
                                last,
                            );
                        }
                        let failed = result.is_err();
                        let answer = result.unwrap_or_else(|e| transport_error(&e));
                        reads.push(Read {
                            tenant: t,
                            ask,
                            lo: 0,
                            hi: 0,
                            ms: ms(last - sent),
                            answer,
                        });
                        if failed {
                            break;
                        }
                    }
                    (reads, last, tracer)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("a dictation caller panicked"))
            .collect()
    });
    collect(start, per_caller)
}

fn collect(start: Instant, per_caller: Vec<(Vec<Read>, Instant, Option<Tracer>)>) -> Phase {
    let mut reads = Vec::new();
    let mut end = start;
    let mut tracer: Option<Tracer> = None;
    for (r, last, tr) in per_caller {
        reads.extend(r);
        end = end.max(last);
        if let Some(tr) = tr {
            match tracer.as_mut() {
                Some(all) => all.absorb(tr),
                None => tracer = Some(tr),
            }
        }
    }
    Phase {
        reads,
        elapsed_s: (end - start).as_secs_f64(),
        writes: Vec::new(),
        tracer,
    }
}

/// The batch tenant of stream case `i`: its schema's first or second
/// tenant, alternating.
pub fn batch_tenant(i: usize, case: &Case) -> usize {
    case.schema + 2 * ((i >> 1) & 1)
}

/// Batch reads: `CALLERS` threads take stream cases from `from` on until
/// `seconds` have passed or `limit` cases were taken. A caller that runs
/// past the generated cases extends the stream (untimed, and rare: the
/// warm-up sizes the stream for the whole phase).
pub fn batch_phase(
    engines: &[SpeakQl],
    stream: &Mutex<BatchStream>,
    from: usize,
    limit: usize,
    seconds: f64,
    epoch: Option<Instant>,
) -> Phase {
    let cursor = AtomicUsize::new(from);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_caller: Vec<(Vec<Read>, Instant, Option<Tracer>)> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..CALLERS)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut tracer = epoch.map(Tracer::new);
                    let mut reads = Vec::new();
                    let mut last = start;
                    while Instant::now() < deadline {
                        // ordering: the cursor only hands out indices.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= limit {
                            break;
                        }
                        let case = {
                            let mut s = stream.lock().expect("batch stream lock");
                            s.fill(i + 1);
                            s.cases()[i].clone()
                        };
                        let t = batch_tenant(i, &case);
                        let sent = Instant::now();
                        let answer = crate::verify::reference(&engines[t], &case.transcript);
                        last = Instant::now();
                        if let Some(tr) = tracer.as_mut() {
                            tr.record("read", None, i as u64, sent, last);
                        }
                        reads.push(Read {
                            tenant: t,
                            ask: Ask::Batch(i),
                            lo: 0,
                            hi: 0,
                            ms: ms(last - sent),
                            answer,
                        });
                    }
                    (reads, last, tracer)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("a batch caller panicked"))
            .collect()
    });
    collect(start, per_caller)
}

/// The churn writer: index deltas hot-swap [`DELTA_TENANT`] onto a new
/// index, catalog updates re-register [`CATALOG_TENANT`] over new rows.
pub struct Writer<'a> {
    registry: &'a TenantRegistry,
    handle: ServerHandle,
    inputs: &'a Inputs,
    base: Arc<StructureIndex>,
    current: Arc<StructureIndex>,
    readd: Vec<Structure>,
    deltas: usize,
    updates: usize,
    versions: &'a Versions,
    expected: Option<&'a Mutex<Expected>>,
    /// Writes made so far.
    pub records: Vec<WriteRecord>,
    /// Probe reads sent after catalog updates.
    pub probe_reads: Vec<Read>,
    /// Write spans when traced.
    pub tracer: Option<Tracer>,
}

impl<'a> Writer<'a> {
    /// The delta tenant's current index.
    pub fn current(&self) -> Arc<StructureIndex> {
        Arc::clone(&self.current)
    }

    /// Catalog updates made so far.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// A writer over `served`'s registry starting from the base index. With
    /// `expected`, each new version's reference answers are recorded.
    pub fn new(
        served: &'a Served,
        inputs: &'a Inputs,
        versions: &'a Versions,
        expected: Option<&'a Mutex<Expected>>,
        tracer: Option<Tracer>,
    ) -> Writer<'a> {
        Writer {
            registry: served.server.registry(),
            handle: served.server.handle(),
            inputs,
            base: Arc::clone(&served.index),
            current: Arc::clone(&served.index),
            readd: Vec::new(),
            deltas: 0,
            updates: 0,
            versions,
            expected,
            records: Vec::new(),
            probe_reads: Vec::new(),
            tracer,
        }
    }

    /// One index delta: tombstone [`DELTA_SIZE`] structures of the next
    /// length in the cycle, re-add the previous delta's, hot-swap the
    /// tenant.
    pub fn index_write(&mut self, timed_phase: bool) -> std::io::Result<()> {
        let length = DELTA_LENGTHS[self.deltas % DELTA_LENGTHS.len()];
        let cur = Arc::clone(&self.current);
        let live: Vec<u32> = (0..cur.arena_len() as u32)
            .filter(|&id| !cur.is_removed(id) && cur.structure_tokens(id).len() == length)
            .collect();
        let take = DELTA_SIZE.min(live.len());
        let offset = (mix(self.inputs.seed, self.deltas as u64) as usize) % live.len().max(1);
        let chosen: Vec<u32> = (0..take).map(|j| live[(offset + j) % live.len()]).collect();
        let removed: Vec<Structure> = chosen.iter().map(|&id| cur.structure(id)).collect();
        let delta = IndexDelta::new()
            .remove_structures(chosen)
            .add_structures(std::mem::take(&mut self.readd));
        let mut tracer = self.tracer.as_mut();
        let (applied, apply_ms) =
            timed(&mut tracer, "index.apply_delta", || cur.apply_delta(&delta));
        let (next, stats) = applied.map_err(std::io::Error::other)?;
        let next = Arc::new(next);
        let db = &self.inputs.dbs[0];
        let v = self.versions.begin(DELTA_TENANT);
        let (outcome, register_ms) = timed(&mut tracer, "server.register", || {
            self.registry.register(
                TENANTS[DELTA_TENANT],
                db,
                Arc::clone(&next),
                engine_config(),
            )
        });
        self.versions.commit(DELTA_TENANT, v);
        self.records.push(WriteRecord {
            index: true,
            apply_ms,
            register_ms,
            outcome,
            stats: Some(stats),
            timed: timed_phase,
        });
        if let Some(expected) = self.expected {
            let engine = SpeakQl::with_index(db, Arc::clone(&next), engine_config());
            let pool = self.inputs.pools[0].iter().map(|c| c.transcript.as_str());
            expected
                .lock()
                .expect("reference lock")
                .compute(DELTA_TENANT, v, &engine, pool);
        }
        self.readd = removed;
        self.current = next;
        self.deltas += 1;
        Ok(())
    }

    /// One catalog update: add a row to [`CATALOG_TENANT`]'s database,
    /// re-register it over its unchanged index, and send the update's
    /// probe reads.
    pub fn catalog_write(&mut self, timed_phase: bool) {
        let u = self.updates;
        let db = employees_with_rows(&self.inputs.dbs[0], u + 1);
        let mut tracer = self.tracer.as_mut();
        timed(&mut tracer, "core.catalog_build", || {
            PhoneticCatalog::build(&db)
        });
        let v = self.versions.begin(CATALOG_TENANT);
        let (outcome, register_ms) = timed(&mut tracer, "server.register", || {
            self.registry.register(
                TENANTS[CATALOG_TENANT],
                &db,
                Arc::clone(&self.base),
                engine_config(),
            )
        });
        self.versions.commit(CATALOG_TENANT, v);
        self.records.push(WriteRecord {
            index: false,
            apply_ms: 0.0,
            register_ms,
            outcome,
            stats: None,
            timed: timed_phase,
        });
        if let Some(expected) = self.expected {
            let engine = SpeakQl::with_index(&db, Arc::clone(&self.base), engine_config());
            let original =
                SpeakQl::with_index(&self.inputs.dbs[0], Arc::clone(&self.base), engine_config());
            let probes = || self.inputs.probes[u].iter().map(|p| p.transcript.as_str());
            let texts = self.inputs.pools[0]
                .iter()
                .map(|c| c.transcript.as_str())
                .chain(probes());
            let mut e = expected.lock().expect("reference lock");
            e.compute(CATALOG_TENANT, v, &engine, texts);
            // What the original catalog answers, to tell a stale answer
            // from any other wrong one.
            e.compute(CATALOG_TENANT, 0, &original, probes());
            let moved = self.inputs.pools[0].iter().any(|c| {
                e.get(CATALOG_TENANT, v, &c.transcript) != e.get(CATALOG_TENANT, 0, &c.transcript)
            });
            if moved {
                eprintln!("[servebench] warning: catalog update {u} changes a pool answer");
            }
        }
        for (k, probe) in self.inputs.probes[u].iter().enumerate() {
            let lo = self.versions.before_send(CATALOG_TENANT);
            let sent = Instant::now();
            let answer = self
                .handle
                .request(TENANTS[CATALOG_TENANT], &probe.transcript);
            let took = ms(sent.elapsed());
            let hi = self.versions.after_receive(CATALOG_TENANT);
            self.probe_reads.push(Read {
                tenant: CATALOG_TENANT,
                ask: Ask::Probe(u, k),
                lo,
                hi,
                ms: took,
                answer,
            });
        }
        self.updates += 1;
    }
}

/// Churn's timed phase: one reader through the in-process handle, a closed
/// loop with [`CHURN_WINDOW`] reads in flight, while the writer makes
/// `writes` writes at evenly spaced times. A read's latency runs from its
/// submission until the reader takes its answer.
pub fn churn_phase(
    handle: &ServerHandle,
    writer: &mut Writer<'_>,
    inputs: &Inputs,
    versions: &Versions,
    seconds: f64,
    writes: usize,
    epoch: Option<Instant>,
) -> std::io::Result<Phase> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let first_record = writer.records.len();
    let first_probe = writer.probe_reads.len();
    let (reader, written) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut tracer = epoch.map(Tracer::new);
            let mut reads = Vec::new();
            let mut draws = ReadStream::new(inputs.seed, 0);
            let mut last = start;
            let mut in_flight = VecDeque::with_capacity(CHURN_WINDOW);
            loop {
                while in_flight.len() < CHURN_WINDOW && Instant::now() < deadline {
                    let Some((t, q)) = draws.next() else { break };
                    let ask = Ask::Pool(t % 2, q);
                    let lo = versions.before_send(t);
                    let sent = Instant::now();
                    let answer = handle.submit(TENANTS[t], inputs.transcript(ask));
                    in_flight.push_back((t, ask, lo, sent, answer));
                }
                let Some((t, ask, lo, sent, answer)) = in_flight.pop_front() else {
                    break;
                };
                let answer = answer.recv().unwrap_or_else(|_| Response::Err {
                    class: "internal".to_string(),
                    message: "server dropped the request without responding".to_string(),
                });
                last = Instant::now();
                let hi = versions.after_receive(t);
                if let Some(tr) = tracer.as_mut() {
                    tr.record("read", None, reads.len() as u64, sent, last);
                }
                reads.push(Read {
                    tenant: t,
                    ask,
                    lo,
                    hi,
                    ms: ms(last - sent),
                    answer,
                });
            }
            (reads, last, tracer)
        });
        let mut written = Ok(());
        for i in 0..writes {
            let due =
                start + Duration::from_secs_f64(seconds * (i + 1) as f64 / (writes + 1) as f64);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            if i % 2 == 0 {
                written = writer.index_write(true);
                if written.is_err() {
                    break;
                }
            } else {
                writer.catalog_write(true);
            }
        }
        (reader.join().expect("the churn reader panicked"), written)
    });
    written?;
    let mut phase = collect(start, vec![reader]);
    phase.reads.extend(writer.probe_reads.drain(first_probe..));
    phase.writes = writer.records[first_record..].to_vec();
    Ok(phase)
}

/// Library engines answering the reference for batch reads, shared with
/// nothing the callers used.
pub fn batch_references(inputs: &Inputs, index: &Arc<StructureIndex>, reads: &[Read]) -> Expected {
    let engines = fleet::engines(index, &inputs.dbs, false);
    let cursor = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, String, Response)>> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..CALLERS)
            .map(|_| {
                let (cursor, engines) = (&cursor, &engines);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // ordering: the cursor only hands out indices.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(read) = reads.get(i) else { break };
                        let text = inputs.transcript(read.ask);
                        let answer = crate::verify::reference(&engines[read.tenant], text);
                        out.push((read.tenant, text.to_string(), answer));
                    }
                    out
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("a reference worker panicked"))
            .collect()
    });
    let mut expected = Expected::default();
    for (tenant, text, answer) in parts.into_iter().flatten() {
        expected.insert(tenant, 0, &text, answer);
    }
    expected
}

/// Open and warm dictation's connections.
pub fn warm_connections(served: &Served, inputs: &Inputs) -> std::io::Result<Vec<TcpStream>> {
    let addr = served
        .addr
        .ok_or_else(|| std::io::Error::other("dictation needs a listener"))?;
    let mut streams = Vec::with_capacity(CALLERS);
    for c in 0..CALLERS {
        let mut stream = connect(addr)?;
        let mut draws = ReadStream::new(mix(inputs.seed, 0x3A3A), c as u64);
        for _ in 0..TCP_WARM_READS {
            let (t, q) = draws.next().unwrap_or((0, 0));
            tcp_call(&mut stream, TENANTS[t], &inputs.pools[t % 2][q].transcript)?;
        }
        streams.push(stream);
    }
    Ok(streams)
}

/// Warm the batch engines on the first stream cases and extend the stream
/// to cover a timed phase of `seconds` at 1.25 times the warm-up rate.
/// Returns the first timed index.
pub fn warm_batch(engines: &[SpeakQl], stream: &Mutex<BatchStream>, seconds: f64) -> usize {
    let warm = CALLERS * BATCH_WARM_READS;
    let started = Instant::now();
    batch_phase(engines, stream, 0, warm, 3600.0, None);
    let per_read = started.elapsed().as_secs_f64() / warm as f64;
    let needed = warm + (1.25 * seconds / per_read.max(1e-6)) as usize;
    stream.lock().expect("batch stream lock").fill(needed);
    warm
}

/// Index updates on an otherwise idle registry, for `write_p50_ms` on the
/// read-only workloads: `WARM_DELTAS` untimed, then `IDLE_DELTAS` timed.
pub fn idle_writes(
    served: &Served,
    inputs: &Inputs,
    tracer: Option<Tracer>,
) -> std::io::Result<(Vec<WriteRecord>, Option<Tracer>)> {
    let versions = Versions::new(TENANTS.len());
    let mut writer = Writer::new(served, inputs, &versions, None, None);
    for _ in 0..WARM_DELTAS {
        writer.index_write(false)?;
    }
    writer.tracer = tracer;
    for _ in 0..IDLE_DELTAS {
        writer.index_write(true)?;
    }
    Ok((writer.records, writer.tracer))
}
