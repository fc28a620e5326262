//! The multi-tenant server: worker pool, TCP front-end, and in-process
//! submission handle.
//!
//! Every request — whether it arrived over TCP or through a
//! [`ServerHandle`] — takes the same path:
//!
//! ```text
//! submit → admission queue (bounded; full ⇒ shed with Overloaded)
//!        → worker dequeues (waited ≥ budget ⇒ Timeout, engine never runs)
//!        → tenant lookup (unknown ⇒ unknown_tenant)
//!        → engine.transcribe (WorkerPanic ⇒ bounded retry with
//!          deterministic jittered backoff, then give up)
//!        → response
//! ```
//!
//! Overload therefore degrades into *fast typed rejections* at the front
//! door, never into unbounded queueing; requests that aged out in the queue
//! are answered without spending engine time; and transient worker panics
//! get a second chance without letting a poisoned transcript spin forever.
//!
//! Shedding, timeouts, retries, and protocol violations are all counted in
//! the registry's shared [`Recorder`] (`engine.errors.overloaded`,
//! `engine.errors.timeout`, `server.*`), so a server report is one place to
//! read the health of the whole fleet.

use crate::admission::AdmissionQueue;
use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, FrameError, Request, Response,
};
use crate::registry::TenantRegistry;
use speakql_core::{Recorder, SpeakQl, SpeakQlError};
use speakql_observe::{CounterId, SpanId};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Error class reported for requests naming an unregistered tenant.
pub const CLASS_UNKNOWN_TENANT: &str = "unknown_tenant";
/// Error class reported for frames that violate the wire protocol.
pub const CLASS_PROTOCOL: &str = "protocol";

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Admission-queue bound; requests beyond it are shed.
    pub queue_capacity: usize,
    /// Per-request latency budget. A request that has already waited at
    /// least this long when a worker dequeues it is answered with
    /// `Timeout` instead of being executed (a zero budget therefore times
    /// every request out — used by deterministic tests).
    pub request_budget: Duration,
    /// Retry attempts (beyond the first try) for transcriptions failing
    /// with the transient `WorkerPanic` class.
    pub max_retries: usize,
    /// Read/write timeout on client connections; a stalled client
    /// (slow-loris) is disconnected after this long, it cannot pin a
    /// connection thread forever.
    pub io_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            request_budget: Duration::from_secs(30),
            max_retries: 2,
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// One admitted request, waiting for a worker.
struct Job {
    tenant: String,
    transcript: String,
    respond: mpsc::Sender<Response>,
}

/// State shared by the acceptor, connection handlers, workers, and handles.
struct Shared {
    registry: TenantRegistry,
    queue: AdmissionQueue<Job>,
    recorder: Recorder,
    config: ServerConfig,
    shutting_down: AtomicBool,
}

/// A running server: worker pool plus (optionally) a TCP acceptor.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    addr: Option<SocketAddr>,
}

/// A cheaply clonable in-process client for a running [`Server`]. Requests
/// submitted here take exactly the path TCP requests take (admission,
/// budget, retries), minus the wire framing.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl Server {
    /// Start the worker pool over `registry`. No TCP socket is bound until
    /// [`Server::listen`]; in-process clients can submit immediately via
    /// [`Server::handle`].
    ///
    /// Fails only when the OS refuses to spawn a worker thread (resource
    /// exhaustion at startup); already-spawned workers are shut down
    /// cleanly before the error is returned.
    pub fn serve(registry: TenantRegistry, config: ServerConfig) -> std::io::Result<Server> {
        let recorder = registry.recorder().clone();
        let shared = Arc::new(Shared {
            registry,
            queue: AdmissionQueue::new(config.queue_capacity),
            recorder,
            config,
            shutting_down: AtomicBool::new(false),
        });
        let mut workers = Vec::with_capacity(shared.config.workers.max(1));
        for i in 0..shared.config.workers.max(1) {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("speakql-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Unwind the partial pool: close the (empty) queue so
                    // the spawned workers exit their loops, then join them.
                    shared.queue.close();
                    for w in workers {
                        let _ = w.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Server {
            shared,
            workers,
            acceptor: None,
            addr: None,
        })
    }

    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting connections,
    /// one handler thread per connection. Returns the bound address.
    pub fn listen(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let acceptor = std::thread::Builder::new()
            .name("speakql-acceptor".to_string())
            .spawn(move || accept_loop(&shared, &listener))?;
        self.acceptor = Some(acceptor);
        self.addr = Some(local);
        Ok(local)
    }

    /// The bound TCP address, once [`Server::listen`] has been called.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// An in-process submission handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The shared metrics recorder (server counters + every tenant engine).
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
    }

    /// The tenant registry this server fronts.
    pub fn registry(&self) -> &TenantRegistry {
        &self.shared.registry
    }

    /// Freeze (`true`) or release (`false`) the worker pool's dequeue side.
    /// While held, admitted requests pile up in the queue — so an overload
    /// test can offer `capacity + n` requests and observe *exactly* `n`
    /// sheds, independent of scheduling. Production servers never call
    /// this.
    pub fn hold_workers(&self, held: bool) {
        self.shared.queue.hold(held);
    }

    /// Stop accepting, answer every still-queued request with an
    /// `Overloaded` rejection, and join all threads.
    pub fn shutdown(mut self) {
        // ordering: the flag only gates the accept loop's exit; no memory
        // is published through it, so Relaxed suffices.
        self.shared.shutting_down.store(true, Ordering::Relaxed);
        self.shared.queue.close();
        for job in self.shared.queue.drain() {
            let err = SpeakQlError::Overloaded {
                queued: 0,
                capacity: self.shared.config.queue_capacity,
            };
            self.shared.recorder.incr(err.counter());
            let _ = job.respond.send(Response::Err {
                class: err.class().to_string(),
                message: "server shutting down".to_string(),
            });
        }
        if let Some(addr) = self.addr {
            // Unblock the acceptor's blocking `accept` with one last
            // connection; it re-checks the flag and exits.
            drop(TcpStream::connect(addr));
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl ServerHandle {
    /// Submit a request and block until its response.
    pub fn request(&self, tenant: &str, transcript: &str) -> Response {
        let rx = self.submit(tenant, transcript);
        rx.recv().unwrap_or_else(|_| Response::Err {
            class: "internal".to_string(),
            message: "server dropped the request without responding".to_string(),
        })
    }

    /// Submit a request without blocking; the response (including an
    /// immediate shed) arrives on the returned channel.
    pub fn submit(&self, tenant: &str, transcript: &str) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        submit_job(
            &self.shared,
            Job {
                tenant: tenant.to_string(),
                transcript: transcript.to_string(),
                respond: tx,
            },
        );
        rx
    }
}

/// Count and enqueue one request, answering immediately on shed.
fn submit_job(shared: &Shared, job: Job) {
    shared.recorder.incr(CounterId::ServerRequests);
    if let Err(shed) = shared.queue.offer(job) {
        let err = SpeakQlError::Overloaded {
            queued: shed.queued,
            capacity: shed.capacity,
        };
        shared.recorder.incr(err.counter());
        let _ = shed.job.respond.send(Response::Err {
            class: err.class().to_string(),
            message: err.to_string(),
        });
    }
}

/// Worker: drain the queue until the server closes it.
fn worker_loop(shared: &Shared) {
    while let Some((job, waited)) = shared.queue.take() {
        shared
            .recorder
            .record_duration(SpanId::ServerQueueWait, waited);
        let t0 = Instant::now();
        let response = execute(shared, &job, waited);
        let _ = job.respond.send(response);
        shared
            .recorder
            .record_duration(SpanId::ServerHandle, t0.elapsed());
    }
}

/// Run one dequeued request: budget check, tenant lookup, transcription
/// with bounded retry.
fn execute(shared: &Shared, job: &Job, waited: Duration) -> Response {
    let budget = shared.config.request_budget;
    if waited >= budget {
        let err = SpeakQlError::Timeout {
            waited_ms: waited.as_millis().min(u64::MAX as u128) as u64,
            budget_ms: budget.as_millis().min(u64::MAX as u128) as u64,
        };
        shared.recorder.incr(err.counter());
        return Response::Err {
            class: err.class().to_string(),
            message: err.to_string(),
        };
    }
    // The Arc clone pins the engine for this request even if the tenant is
    // hot-swapped while it is in flight.
    let Some(engine) = shared.registry.engine(&job.tenant) else {
        shared.recorder.incr(CounterId::ServerUnknownTenant);
        return Response::Err {
            class: CLASS_UNKNOWN_TENANT.to_string(),
            message: format!("no tenant named {:?} is registered", job.tenant),
        };
    };
    transcribe_with_retry(shared, &engine, &job.transcript)
}

/// Transcribe, retrying `WorkerPanic` up to `max_retries` times with
/// deterministic jittered backoff. Only panics are retried: every other
/// error class is deterministic for a given transcript, so retrying it
/// would burn a worker to produce the same answer.
fn transcribe_with_retry(shared: &Shared, engine: &SpeakQl, transcript: &str) -> Response {
    let mut attempt = 0;
    loop {
        match engine.transcribe(transcript) {
            Ok(t) => {
                let sql = t
                    .candidates
                    .first()
                    .map(|c| c.sql.clone())
                    .unwrap_or_default();
                return Response::Ok { sql };
            }
            Err(SpeakQlError::WorkerPanic { .. }) if attempt < shared.config.max_retries => {
                attempt += 1;
                shared.recorder.incr(CounterId::ServerRetries);
                std::thread::sleep(backoff(transcript, attempt));
            }
            Err(err) => {
                return Response::Err {
                    class: err.class().to_string(),
                    message: err.to_string(),
                };
            }
        }
    }
}

/// Exponential backoff with *deterministic* jitter: the jitter is an FNV-1a
/// hash of `(transcript, attempt)` rather than a clock or RNG draw, so
/// replaying a workload replays its exact sleep schedule (the CI load gate
/// compares wall-clock against a baseline).
fn backoff(transcript: &str, attempt: usize) -> Duration {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in transcript.bytes().chain(attempt.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let base_us = 500u64 << attempt.min(6);
    Duration::from_micros(base_us + h % 500)
}

/// Accept loop: one handler thread per connection, until shutdown.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut id = 0u64;
    for stream in listener.incoming() {
        // ordering: see `Server::shutdown` — flag-only, Relaxed suffices.
        if shared.shutting_down.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        id += 1;
        let spawned = std::thread::Builder::new()
            .name(format!("speakql-conn-{id}"))
            .spawn(move || handle_connection(&shared, stream));
        // Spawn failure (thread exhaustion) drops the connection; the
        // accept loop itself must survive.
        drop(spawned);
    }
}

/// Serve one connection: read a frame, answer it, repeat. Frame-level
/// violations are counted and, where the stream is still synchronized,
/// answered; otherwise the connection is dropped.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    // Nagle off: a response segment never waits for the client's delayed
    // ACK of the previous one, including the tail of a response longer
    // than one MSS.
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        match read_frame(&mut reader) {
            Ok(None) => break,
            Ok(Some(payload)) => match decode_request(&payload) {
                Ok(req) => {
                    if !respond(shared, &mut writer, req) {
                        break;
                    }
                }
                Err(e) => {
                    // The frame boundary itself was intact, so the stream
                    // is still synchronized: answer and keep serving.
                    shared.recorder.incr(CounterId::ServerProtocolErrors);
                    let resp = Response::Err {
                        class: CLASS_PROTOCOL.to_string(),
                        message: e.to_string(),
                    };
                    if write_frame(&mut writer, &encode_response(&resp)).is_err() {
                        break;
                    }
                }
            },
            Err(FrameError::Oversized { declared }) => {
                // We cannot cheaply skip `declared` bytes, so answer once
                // and drop the connection.
                shared.recorder.incr(CounterId::ServerProtocolErrors);
                let resp = Response::Err {
                    class: CLASS_PROTOCOL.to_string(),
                    message: FrameError::Oversized { declared }.to_string(),
                };
                let _ = write_frame(&mut writer, &encode_response(&resp));
                break;
            }
            Err(FrameError::Truncated) | Err(FrameError::Io(_)) => {
                // Mid-frame disconnects and stalled clients (the read
                // timeout fired) both land here: count and drop.
                shared.recorder.incr(CounterId::ServerProtocolErrors);
                break;
            }
        }
    }
}

/// Submit one decoded request and write its response; false when the client
/// is gone.
fn respond(shared: &Shared, writer: &mut TcpStream, req: Request) -> bool {
    let (tx, rx) = mpsc::channel();
    submit_job(
        shared,
        Job {
            tenant: req.tenant,
            transcript: req.transcript,
            respond: tx,
        },
    );
    let response = rx.recv().unwrap_or_else(|_| Response::Err {
        class: "internal".to_string(),
        message: "server dropped the request without responding".to_string(),
    });
    write_frame(writer, &encode_response(&response)).is_ok()
}
