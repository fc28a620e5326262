//! # speakql-server
//!
//! A multi-tenant TCP front-end for the SpeakQL engine. The paper frames
//! SpeakQL as an interactive querying *service* — many users dictating SQL
//! concurrently against shared schemas — and this crate is that serving
//! layer: a long-lived process fronting a fleet of per-tenant engines with
//! the properties an online service needs under load:
//!
//! - **Bounded admission** ([`AdmissionQueue`]): a full queue sheds with a
//!   typed `Overloaded` error instead of queueing unboundedly, so a burst
//!   degrades into fast rejections rather than unbounded tail latency.
//! - **Per-request budgets**: a request that aged out waiting in the queue
//!   is answered with `Timeout` before any engine time is spent on it.
//! - **Cross-engine cache sharing** ([`TenantRegistry`]): every tenant
//!   engine shares one skeleton cache keyed by the content-derived index
//!   generation, so tenants on the same schema warm each other's structure
//!   searches while indexes that answer differently can never collide.
//! - **Warm hot-swap**: a tenant can be re-registered over a new index
//!   (e.g. after an incremental `IndexDelta`) without dropping any other
//!   tenant's warm cache entries; re-registering the generation a tenant
//!   already serves is a no-op that keeps its engine warm.
//! - **Bounded retry**: transient `WorkerPanic` failures are retried (with
//!   deterministic jittered backoff) before being surfaced.
//! - **A panic-free wire protocol** ([`protocol`]): length-prefixed frames
//!   whose every malformed variant decodes to a typed error.
//!
//! Everything is observable through one shared
//! [`Recorder`](speakql_core::Recorder) — server counters (`server.*`,
//! `engine.errors.overloaded`, `engine.errors.timeout`) and every tenant's
//! pipeline metrics aggregate into a single report, which the
//! `load_gen` harness in `speakql-bench` snapshots and gates in CI.
//!
//! ```no_run
//! use speakql_server::{Server, ServerConfig, TenantRegistry};
//!
//! # fn index() -> std::sync::Arc<speakql_index::StructureIndex> { unimplemented!() }
//! # fn db() -> speakql_db::Database { unimplemented!() }
//! let registry = TenantRegistry::new(1024, true);
//! registry.register("employees", &db(), index(), Default::default());
//! let mut server = Server::serve(registry, ServerConfig::default()).expect("spawn workers");
//! let addr = server.listen("127.0.0.1:0").expect("bind");
//! println!("serving on {addr}");
//! ```

#![forbid(unsafe_code)]

pub mod admission;
pub mod protocol;
pub mod registry;
pub mod server;

pub use admission::{AdmissionQueue, Shed};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    FrameError, ProtocolError, Request, Response, MAX_FRAME,
};
pub use registry::{Registration, TenantRegistry};
pub use server::{Server, ServerConfig, ServerHandle, CLASS_PROTOCOL, CLASS_UNKNOWN_TENANT};
