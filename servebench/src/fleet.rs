//! The system under test, as a user deploys it: the paper-scale structure
//! image built once per build of the code, then loaded zero-copy behind a
//! four-tenant registry, a worker pool and (for dictation) a TCP listener.

use crate::inputs::TENANTS;
use crate::trace::{timed, Tracer};
use speakql_core::{PhoneticCatalog, SpeakQl, SpeakQlConfig};
use speakql_db::Database;
use speakql_editdist::Weights;
use speakql_grammar::GeneratorConfig;
use speakql_index::{load_from_path, save_to_path, StructureIndex};
use speakql_server::{Server, ServerConfig, TenantRegistry};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server worker threads.
pub const WORKERS: usize = 2;
/// Shared skeleton-cache capacity (`speakql serve`'s default).
pub const CACHE_CAPACITY: usize = 1024;

/// Engine configuration every tenant and library engine uses: the library
/// defaults (paper weights, top-5, no private cache) with one engine thread.
pub fn engine_config() -> SpeakQlConfig {
    SpeakQlConfig::paper().with_threads(1)
}

/// Server configuration: two workers and budgets generous enough that no
/// closed-loop read is ever shed or timed out.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        queue_capacity: 64,
        request_budget: Duration::from_secs(30),
        max_retries: 2,
        io_timeout: Duration::from_secs(30),
    }
}

/// Directory for the image and span files: beside the benchmark's build
/// output, so it lives in the checkout and is never shared between builds
/// of different code.
pub fn data_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| std::io::Error::other("executable has no build directory"))?;
    let dir = target.join("servebench-data");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// FNV-1a over the running executable: images are keyed by the code that
/// built them, so a rebuilt benchmark never loads a stale image.
fn exe_fingerprint() -> std::io::Result<u64> {
    let mut file = std::fs::File::open(std::env::current_exe()?)?;
    let mut buf = vec![0u8; 1 << 20];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(h);
        }
        for chunk in buf[..n].chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h ^= u64::from_le_bytes(word);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The paper-scale image for this build, building it first if needed
/// (see [`build_image`]). Building is never timed.
pub fn ensure_image() -> std::io::Result<PathBuf> {
    let dir = data_dir()?;
    let path = dir.join(format!("paper-{:016x}.sqlx", exe_fingerprint()?));
    if path.exists() {
        return Ok(path);
    }
    for entry in std::fs::read_dir(&dir)? {
        let old = entry?.path();
        if old.extension().is_some_and(|e| e == "sqlx") {
            std::fs::remove_file(old)?;
        }
    }
    // A child process builds it, so the build's memory never shows in this
    // process's peak RSS.
    eprintln!("[servebench] building the paper-scale structure image (untimed) ...");
    let partial = path.with_extension("partial");
    let status = std::process::Command::new(std::env::current_exe()?)
        .arg(BUILD_IMAGE_FLAG)
        .arg(&partial)
        .status()?;
    if !status.success() {
        return Err(std::io::Error::other(format!(
            "image build failed: {status}"
        )));
    }
    std::fs::rename(&partial, &path)?;
    Ok(path)
}

/// Argument that makes the executable build the image at the path that
/// follows and exit.
pub const BUILD_IMAGE_FLAG: &str = "--build-image";

/// Build the paper-scale image with the calls `speakql index-build --scale
/// paper` makes, and save it at `path`.
pub fn build_image(path: &Path) -> std::io::Result<()> {
    let started = Instant::now();
    let index = StructureIndex::from_grammar(&GeneratorConfig::paper(), Weights::PAPER);
    save_to_path(&index, path).map_err(std::io::Error::other)?;
    eprintln!(
        "[servebench] {} structures in {} segments, built in {:.1} s",
        index.len(),
        index.segment_count(),
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Load the image through the zero-copy path.
pub fn load(image: &Path) -> std::io::Result<Arc<StructureIndex>> {
    load_from_path(image)
        .map(Arc::new)
        .map_err(std::io::Error::other)
}

/// A running server over the four tenants.
pub struct Served {
    /// The server; shut down by [`Served::shutdown`].
    pub server: Server,
    /// The base index every tenant starts on.
    pub index: Arc<StructureIndex>,
    /// TCP address when a listener was started.
    pub addr: Option<std::net::SocketAddr>,
}

impl Served {
    /// Stop the listener and workers and join them.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Set up the served fleet: load the image, register the four tenants
/// (each registration builds that tenant's phonetic catalog), start the
/// workers and, with `listen`, the TCP listener. `observe` switches the
/// registry's shared recorder on; a tracer records a span per call.
pub fn serve(
    image: &Path,
    dbs: &[Database; 2],
    listen: bool,
    observe: bool,
    mut tracer: Option<&mut Tracer>,
) -> std::io::Result<Served> {
    let (index, _) = timed(&mut tracer, "index.load", || load(image));
    serve_index(index?, dbs, listen, observe, tracer)
}

/// [`serve`] over an index already loaded.
pub fn serve_index(
    index: Arc<StructureIndex>,
    dbs: &[Database; 2],
    listen: bool,
    observe: bool,
    mut tracer: Option<&mut Tracer>,
) -> std::io::Result<Served> {
    let registry = TenantRegistry::new(CACHE_CAPACITY, observe);
    for (t, name) in TENANTS.iter().enumerate() {
        if tracer.is_some() {
            // Traced set-ups also time the catalog build a registration
            // performs, as its own call.
            timed(&mut tracer, "core.catalog_build", || {
                PhoneticCatalog::build(&dbs[t % 2])
            });
        }
        timed(&mut tracer, "server.register", || {
            registry.register(name, &dbs[t % 2], Arc::clone(&index), engine_config())
        });
    }
    let (server, _) = timed(&mut tracer, "server.serve", || {
        Server::serve(registry, server_config())
    });
    let mut server = server?;
    let addr = if listen {
        Some(
            timed(&mut tracer, "server.listen", || {
                server.listen("127.0.0.1:0")
            })
            .0?,
        )
    } else {
        None
    };
    Ok(Served {
        server,
        index,
        addr,
    })
}

/// The library fleet batch callers use: one engine per tenant over the
/// shared index, built with the library defaults (no skeleton cache).
pub struct Library {
    /// The shared index.
    pub index: Arc<StructureIndex>,
    /// One engine per tenant.
    pub engines: Vec<SpeakQl>,
}

/// Engines for every tenant over `index`.
pub fn engines(index: &Arc<StructureIndex>, dbs: &[Database; 2], observe: bool) -> Vec<SpeakQl> {
    (0..TENANTS.len())
        .map(|t| {
            SpeakQl::with_index(
                &dbs[t % 2],
                Arc::clone(index),
                engine_config().with_observability(observe),
            )
        })
        .collect()
}

/// Set up the library fleet: load the image and build the engines.
pub fn library(
    image: &Path,
    dbs: &[Database; 2],
    observe: bool,
    mut tracer: Option<&mut Tracer>,
) -> std::io::Result<Library> {
    let (index, _) = timed(&mut tracer, "index.load", || load(image));
    let index = index?;
    if tracer.is_some() {
        // As in `serve_index`: the catalog build each engine performs,
        // timed as its own call.
        for db in dbs {
            timed(&mut tracer, "core.catalog_build", || {
                PhoneticCatalog::build(db)
            });
        }
    }
    let (engines, _) = timed(&mut tracer, "core.engine_build", || {
        engines(&index, dbs, observe)
    });
    Ok(Library { index, engines })
}

/// Run `setup` `times` times, tearing down all but the last, and return
/// that one with every set-up duration. A teardown completes before the
/// next set-up starts, so peak memory reflects one fleet.
pub fn timed_setups<T>(
    times: usize,
    mut setup: impl FnMut() -> std::io::Result<T>,
    mut teardown: impl FnMut(T),
) -> std::io::Result<(T, Vec<f64>)> {
    let mut durations = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let started = Instant::now();
        last = Some(setup()?);
        durations.push(started.elapsed().as_secs_f64());
    }
    let fleet = last.ok_or_else(|| std::io::Error::other("no set-up ran"))?;
    Ok((fleet, durations))
}

/// Peak resident set (VmHWM) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
