//! The TCP accept loop, worker pool, and request routing.
//!
//! Thread shape: the caller's thread runs `accept()`; a fixed pool of
//! connection workers drains a bounded connection queue; one executor
//! thread drains the [`Batcher`]. Everything is a scoped `std::thread` —
//! no runtime, no globals — and shuts down cleanly when a `POST /shutdown`
//! flips the run flag and nudges the accept loop awake with a loopback
//! connection.
//!
//! Routes:
//!
//! | route                      | behavior                                   |
//! |----------------------------|--------------------------------------------|
//! | `GET /healthz`             | liveness probe                             |
//! | `GET /metrics`             | plain-text counters and histograms         |
//! | `POST /predict?window=W`   | cascade text body → `prediction <id> <ŷ>`  |
//! | `POST /predict_next?k=K`   | cascade text body → `next <id> <u> <p> …`  |
//! |                            | (next-user checkpoints only; infected      |
//! |                            | users are masked out of the ranking)       |
//! | `POST /observe?window=W`   | append events to a live cascade, keep its  |
//! |                            | current spectral basis resident            |
//! | `POST /reload`             | re-read the checkpoint, bump the version   |
//! | `POST /snapshot`           | persist the spectral cache to disk now     |
//! | `POST /shutdown`           | graceful stop (also saves a snapshot)      |
//!
//! Predictions are formatted with `{:?}` so the decimal text round-trips
//! to the exact `f32` the model produced — served output is bit-identical
//! to a direct `predict_log` call on the same checkpoint.

use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cascn::resolve_threads;
use cascn_cascades::stream::{parse_cascades, parse_observe_body, StreamLimits};

use crate::batch::{Batcher, EnqueueError, JobKind, PredictJob, PredictOutput, ResponseSlot};
use crate::cache::BasisCache;
use crate::http::{read_request, write_response, write_shed, ParseError, Request};
use crate::live::{LiveRegistry, ObserveError};
use crate::metrics::ServeMetrics;
use crate::persist;
use crate::registry::ModelRegistry;
use crate::router::ShutdownSignal;
use crate::sync::{lock_recover, wait_recover};

/// Everything tunable about a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8077` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Connection workers. `0` (auto) = one per core but at least 4: a
    /// worker holds its socket for the life of a keep-alive connection,
    /// and the floor keeps one chatty client from starving the rest on
    /// small machines. Workers block on I/O; the forward pass runs on the
    /// batch executor, so extra workers cost memory, not compute.
    pub workers: usize,
    /// Intra-batch forward-pass fan-out (`0` = all cores).
    pub threads: usize,
    /// Max cascades coalesced into one executed batch.
    pub max_batch: usize,
    /// Max cascades queued before requests shed with 503.
    pub max_queue: usize,
    /// Max `Content-Length` accepted on `POST /predict`.
    pub max_body_bytes: usize,
    /// Spectral-cache capacity in entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Window used when a predict request has no `?window=` param.
    pub default_window: f64,
    /// Socket read timeout, bounding how long a worker can sit in a
    /// blocking read. An idle keep-alive peer or a trickling (slowloris)
    /// sender is answered with `408` and disconnected when it elapses —
    /// so slow clients cannot pin the whole worker pool, and shutdown
    /// never waits longer than this for workers parked on silent
    /// connections. `None` disables the timeout.
    pub read_timeout: Option<Duration>,
    /// Per-request cascade/event caps enforced by the streaming parser.
    pub limits: StreamLimits,
    /// Spectral-cache snapshot file. When set, the server warm-starts
    /// from it at bind (rejecting corrupt or foreign snapshots as clean
    /// cold starts), saves to it on `POST /snapshot` and at shutdown, and
    /// — with `snapshot_interval` — on a cadence. `None` disables
    /// persistence.
    pub snapshot_path: Option<PathBuf>,
    /// Cadence of the background snapshot saver. `None` = save only on
    /// demand and at shutdown.
    pub snapshot_interval: Option<Duration>,
    /// Live-cascade registry capacity for `POST /observe` (`0` disables
    /// streaming ingestion).
    pub live_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            threads: 0,
            max_batch: 64,
            max_queue: 256,
            max_body_bytes: 1 << 20,
            cache_capacity: 1024,
            default_window: 25.0,
            read_timeout: Some(Duration::from_secs(5)),
            limits: StreamLimits::default(),
            snapshot_path: None,
            snapshot_interval: None,
            live_capacity: 256,
        }
    }
}

/// Bounded handoff of accepted sockets to the worker pool. Shared with
/// the router front-end, which has the same accept/worker shape.
pub(crate) struct ConnQueue {
    queue: Mutex<(VecDeque<TcpStream>, bool)>,
    cv: Condvar,
    bound: usize,
}

impl ConnQueue {
    pub(crate) fn new(bound: usize) -> Self {
        Self {
            queue: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
            bound: bound.max(1),
        }
    }

    /// Hands the stream back when the queue is full (the caller sheds).
    pub(crate) fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = lock_recover(&self.queue);
        if q.1 || q.0.len() >= self.bound {
            return Err(stream);
        }
        q.0.push_back(stream);
        self.cv.notify_one();
        Ok(())
    }

    pub(crate) fn pop(&self) -> Option<TcpStream> {
        let mut q = lock_recover(&self.queue);
        loop {
            if let Some(s) = q.0.pop_front() {
                return Some(s);
            }
            if q.1 {
                return None;
            }
            q = wait_recover(&self.cv, q);
        }
    }

    pub(crate) fn close(&self) {
        let mut q = lock_recover(&self.queue);
        q.1 = true;
        self.cv.notify_all();
    }
}

/// A bound-but-not-yet-running server. Splitting bind from run lets the
/// caller learn the ephemeral port before serving starts.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServerConfig,
    registry: Arc<ModelRegistry>,
    pub metrics: Arc<ServeMetrics>,
    pub cache: Arc<BasisCache>,
    pub live: Arc<LiveRegistry>,
    batcher: Arc<Batcher>,
    snapshot: Option<SnapshotCtx>,
}

/// Where and under which basis fingerprint this server persists its
/// spectral cache.
struct SnapshotCtx {
    path: PathBuf,
    fp: u64,
}

impl SnapshotCtx {
    /// Exports the cache and the live registry and writes them atomically.
    /// Returns the number of cache entries saved; every outcome is counted
    /// on `metrics`.
    fn save(
        &self,
        cache: &BasisCache,
        live: &LiveRegistry,
        metrics: &ServeMetrics,
    ) -> Result<usize, String> {
        let entries = cache.export();
        let live_entries = live.export();
        match persist::save_snapshot(&self.path, &entries, &live_entries, self.fp) {
            Ok(()) => {
                metrics.snapshot_saves_ok.fetch_add(1, Ordering::Relaxed);
                Ok(entries.len())
            }
            Err(e) => {
                metrics.snapshot_saves_failed.fetch_add(1, Ordering::Relaxed);
                Err(format!("saving snapshot {}: {e}", self.path.display()))
            }
        }
    }
}

impl Server {
    /// Binds the listen socket. The model is already loaded (the registry
    /// rejects corrupt checkpoints before any socket exists). When
    /// snapshot persistence is configured, the spectral cache warm-starts
    /// here — before the first request — and any unreadable snapshot is a
    /// logged cold start, never a startup failure.
    pub fn bind(config: ServerConfig, registry: ModelRegistry) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let batcher = Arc::new(Batcher::new(config.max_batch, config.max_queue));
        let cache = Arc::new(BasisCache::new(config.cache_capacity));
        let live = Arc::new(LiveRegistry::new(config.live_capacity));
        let metrics = Arc::new(ServeMetrics::new());
        let snapshot = config.snapshot_path.clone().map(|path| SnapshotCtx {
            fp: persist::basis_fingerprint(registry.config()),
            path,
        });
        if let Some(snap) = &snapshot {
            match persist::load_snapshot(&snap.path, snap.fp) {
                Ok(Some((entries, live_entries))) => {
                    let n = cache.seed(entries);
                    let l = live.seed(live_entries, registry.config());
                    metrics.snapshot_load_warm.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "snapshot: warm start, {n} entries + {l} live cascades from {}",
                        snap.path.display()
                    );
                }
                Ok(None) => {
                    metrics.snapshot_load_cold_missing.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    metrics.snapshot_load_cold_rejected.fetch_add(1, Ordering::Relaxed);
                    eprintln!("snapshot: cold start, {} rejected: {e}", snap.path.display());
                }
            }
        }
        Ok(Self {
            listener,
            local_addr,
            cache,
            live,
            metrics,
            batcher,
            registry: Arc::new(registry),
            snapshot,
            config,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves until a `POST /shutdown` arrives. Blocks the calling thread;
    /// workers and the batch executor run as scoped threads inside.
    pub fn run(self) -> io::Result<()> {
        let workers = if self.config.workers == 0 {
            resolve_threads(0).max(4)
        } else {
            self.config.workers
        };
        let running = AtomicBool::new(true);
        let conns = ConnQueue::new(workers * 2);
        let stop = ShutdownSignal::new();
        let Self {
            listener,
            local_addr,
            config,
            registry,
            metrics,
            cache,
            live,
            batcher,
            snapshot,
        } = self;

        std::thread::scope(|s| {
            s.spawn(|| batcher.run_executor(&registry, &cache, &metrics, config.threads));
            if let (Some(snap), Some(interval)) = (&snapshot, config.snapshot_interval) {
                // Periodic saver: bounds how much warmth a crash can lose
                // to one interval. The latch makes shutdown immediate.
                let (stop, cache, live, metrics) = (&stop, &cache, &live, &metrics);
                s.spawn(move || loop {
                    if stop.wait(interval) {
                        return;
                    }
                    if let Err(e) = snap.save(cache, live, metrics) {
                        eprintln!("snapshot: {e}");
                    }
                });
            }
            for _ in 0..workers {
                s.spawn(|| {
                    while let Some(stream) = conns.pop() {
                        let ctx = HandlerCtx {
                            config: &config,
                            registry: &registry,
                            metrics: &metrics,
                            cache: &cache,
                            live: &live,
                            batcher: &batcher,
                            running: &running,
                            snapshot: snapshot.as_ref(),
                            local_addr,
                        };
                        handle_connection(stream, &ctx);
                    }
                });
            }

            for stream in listener.incoming() {
                if !running.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Bound every blocking read so slow or silent peers can
                // neither pin a worker forever nor stall shutdown.
                let _ = stream.set_read_timeout(config.read_timeout);
                if let Err(rejected) = conns.push(stream) {
                    // Connection queue full: shed at the door.
                    metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
                    let mut w = io::BufWriter::new(rejected);
                    let _ = write_shed(&mut w, "overloaded: connection queue full\n", false);
                }
            }
            conns.close();
            batcher.close();
            stop.raise();
            // Final save: a graceful shutdown leaves the warmest possible
            // snapshot for the next start.
            if let Some(snap) = &snapshot {
                if let Err(e) = snap.save(&cache, &live, &metrics) {
                    eprintln!("snapshot: {e}");
                }
            }
        });
        Ok(())
    }
}

/// Shared references a connection handler needs.
struct HandlerCtx<'a> {
    config: &'a ServerConfig,
    registry: &'a ModelRegistry,
    metrics: &'a ServeMetrics,
    cache: &'a BasisCache,
    live: &'a LiveRegistry,
    batcher: &'a Batcher,
    running: &'a AtomicBool,
    snapshot: Option<&'a SnapshotCtx>,
    local_addr: SocketAddr,
}

/// Serves requests on one connection until close or parse failure.
fn handle_connection(stream: TcpStream, ctx: &HandlerCtx<'_>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = io::BufWriter::new(stream);
    loop {
        let request = match read_request(&mut reader, ctx.config.max_body_bytes) {
            Ok(r) => r,
            Err(ParseError::TimedOut) => {
                // Idle keep-alive peer or a trickling sender: answer 408
                // best-effort and free the worker. Counted apart from
                // client errors — an expired keep-alive is routine.
                ctx.metrics.connections_timed_out.fetch_add(1, Ordering::Relaxed);
                let _ = write_response(&mut writer, 408, "Request Timeout", &[], "read timed out\n", false);
                return;
            }
            Err(err) => {
                if let Some((status, reason)) = err.status() {
                    ctx.metrics.requests_client_error.fetch_add(1, Ordering::Relaxed);
                    let _ = write_response(&mut writer, status, reason, &[], &format!("{err}\n"), false);
                }
                return;
            }
        };
        let keep_alive = request.keep_alive;
        let shutdown = request.method == "POST" && request.path == "/shutdown";
        if !respond(&request, ctx, &mut writer) {
            return;
        }
        if shutdown {
            initiate_shutdown(ctx);
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

/// Routes one request. Returns `false` when the connection must close.
fn respond(req: &Request, ctx: &HandlerCtx<'_>, writer: &mut impl io::Write) -> bool {
    let keep = req.keep_alive;
    let m = ctx.metrics;
    let ok = |w: &mut dyn io::Write, body: &str, m: &ServeMetrics| {
        m.requests_ok.fetch_add(1, Ordering::Relaxed);
        write_response(w, 200, "OK", &[], body, keep).is_ok()
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ok(writer, "ok\n", m),
        ("GET", "/metrics") => {
            let body = m.render(&ctx.cache.stats(), &ctx.live.stats(), ctx.registry.version());
            ok(writer, &body, m)
        }
        ("POST", "/reload") => match ctx.registry.reload() {
            Ok(version) => {
                m.reloads_ok.fetch_add(1, Ordering::Relaxed);
                ok(writer, &format!("reloaded version {version}\n"), m)
            }
            Err(e) => {
                m.reloads_failed.fetch_add(1, Ordering::Relaxed);
                m.requests_client_error.fetch_add(1, Ordering::Relaxed);
                write_response(writer, 500, "Internal Server Error", &[], &format!("reload failed: {e}\n"), keep)
                    .is_ok()
            }
        },
        ("POST", "/snapshot") => match ctx.snapshot {
            None => {
                m.requests_client_error.fetch_add(1, Ordering::Relaxed);
                write_response(writer, 400, "Bad Request", &[], "snapshot persistence not configured (start with --snapshot PATH)\n", keep)
                    .is_ok()
            }
            Some(snap) => match snap.save(ctx.cache, ctx.live, m) {
                Ok(n) => ok(writer, &format!("snapshot saved: {n} entries\n"), m),
                Err(e) => {
                    write_response(writer, 500, "Internal Server Error", &[], &format!("{e}\n"), keep)
                        .is_ok()
                }
            },
        },
        ("POST", "/shutdown") => ok(writer, "shutting down\n", m),
        ("POST", "/predict") => respond_predict(req, ctx, writer),
        ("POST", "/predict_next") => respond_predict_next(req, ctx, writer),
        ("POST", "/observe") => respond_observe(req, ctx, writer),
        _ => {
            m.requests_client_error.fetch_add(1, Ordering::Relaxed);
            write_response(
                writer,
                404,
                "Not Found",
                &[],
                &format!("no route for {} {}\n", req.method, req.path),
                keep,
            )
            .is_ok()
        }
    }
}

/// `POST /predict`: parse → enqueue → wait for the batch → answer.
fn respond_predict(req: &Request, ctx: &HandlerCtx<'_>, writer: &mut impl io::Write) -> bool {
    let started = Instant::now();
    let keep = req.keep_alive;
    let m = ctx.metrics;
    let fail = |w: &mut dyn io::Write, body: String, m: &ServeMetrics| {
        m.requests_client_error.fetch_add(1, Ordering::Relaxed);
        write_response(w, 400, "Bad Request", &[], &body, keep).is_ok()
    };

    let window = match req.query_param("window") {
        None => ctx.config.default_window,
        Some(raw) => match raw.parse::<f64>() {
            Ok(w) if w.is_finite() && w > 0.0 => w,
            _ => return fail(writer, format!("invalid window `{raw}`\n"), m),
        },
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return fail(writer, "request body is not utf-8\n".into(), m);
    };
    let cascades = match parse_cascades(text, ctx.config.limits) {
        Ok(c) => c,
        Err(e) => return fail(writer, format!("invalid cascade payload: {e}\n"), m),
    };
    if cascades.is_empty() {
        m.requests_ok.fetch_add(1, Ordering::Relaxed);
        return write_response(writer, 200, "OK", &[], "", keep).is_ok();
    }

    let ids: Vec<u64> = cascades.iter().map(|c| c.id).collect();
    let slot = ResponseSlot::new();
    let job = PredictJob { cascades, window, kind: JobKind::SizeLog, slot: Arc::clone(&slot) };
    if let Err(e) = ctx.batcher.enqueue(job) {
        m.requests_shed.fetch_add(1, Ordering::Relaxed);
        let body = match e {
            EnqueueError::Overloaded { queued, limit } => {
                format!("overloaded: {queued} cascades queued (limit {limit})\n")
            }
            EnqueueError::Closed => "server shutting down\n".to_string(),
        };
        return write_shed(writer, &body, keep).is_ok();
    }
    match slot.wait() {
        Ok(preds) => {
            let mut body = String::with_capacity(preds.len() * 32);
            for (id, out) in ids.iter().zip(&preds) {
                // `{:?}` prints the shortest decimal that round-trips to
                // the exact f32 — the parity contract with predict_log.
                if let PredictOutput::Log(p) = out {
                    body.push_str(&format!("prediction {id} {p:?}\n"));
                }
            }
            m.requests_ok.fetch_add(1, Ordering::Relaxed);
            let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            m.predict_latency_us.record(us);
            write_response(writer, 200, "OK", &[], &body, keep).is_ok()
        }
        Err(reason) => {
            write_response(writer, 503, "Service Unavailable", &[], &format!("{reason}\n"), keep).is_ok()
        }
    }
}

/// `POST /predict_next`: like `/predict`, but ranks the top-`k` next
/// adopters per cascade through the same batcher and spectral cache.
/// Response: one `next <id> <user> <prob> [<user> <prob> …]` line per
/// cascade, probabilities formatted with `{:?}` so served output is
/// bit-identical to a direct `predict_next` call on the same checkpoint.
/// Requires a next-user checkpoint; on a size-regression model the route
/// answers `409 Conflict`.
fn respond_predict_next(req: &Request, ctx: &HandlerCtx<'_>, writer: &mut impl io::Write) -> bool {
    let started = Instant::now();
    let keep = req.keep_alive;
    let m = ctx.metrics;
    let fail = |w: &mut dyn io::Write, body: String, m: &ServeMetrics| {
        m.requests_client_error.fetch_add(1, Ordering::Relaxed);
        write_response(w, 400, "Bad Request", &[], &body, keep).is_ok()
    };

    if ctx.registry.config().task != cascn::TaskKind::NextUser {
        m.requests_client_error.fetch_add(1, Ordering::Relaxed);
        return write_response(
            writer,
            409,
            "Conflict",
            &[],
            "model serves size regression, not next-user (start with --task next-user)\n",
            keep,
        )
        .is_ok();
    }
    let window = match req.query_param("window") {
        None => ctx.config.default_window,
        Some(raw) => match raw.parse::<f64>() {
            Ok(w) if w.is_finite() && w > 0.0 => w,
            _ => return fail(writer, format!("invalid window `{raw}`\n"), m),
        },
    };
    let k = match req.query_param("k") {
        None => 10usize,
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) if k >= 1 => k,
            _ => return fail(writer, format!("invalid k `{raw}`\n"), m),
        },
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return fail(writer, "request body is not utf-8\n".into(), m);
    };
    let cascades = match parse_cascades(text, ctx.config.limits) {
        Ok(c) => c,
        Err(e) => return fail(writer, format!("invalid cascade payload: {e}\n"), m),
    };
    if cascades.is_empty() {
        m.requests_ok.fetch_add(1, Ordering::Relaxed);
        return write_response(writer, 200, "OK", &[], "", keep).is_ok();
    }

    let ids: Vec<u64> = cascades.iter().map(|c| c.id).collect();
    let slot = ResponseSlot::new();
    let job = PredictJob { cascades, window, kind: JobKind::NextUser { k }, slot: Arc::clone(&slot) };
    if let Err(e) = ctx.batcher.enqueue(job) {
        m.requests_shed.fetch_add(1, Ordering::Relaxed);
        let body = match e {
            EnqueueError::Overloaded { queued, limit } => {
                format!("overloaded: {queued} cascades queued (limit {limit})\n")
            }
            EnqueueError::Closed => "server shutting down\n".to_string(),
        };
        return write_shed(writer, &body, keep).is_ok();
    }
    match slot.wait() {
        Ok(outs) => {
            let mut body = String::with_capacity(outs.len() * 16 * k);
            for (id, out) in ids.iter().zip(&outs) {
                if let PredictOutput::TopK(ranked) = out {
                    body.push_str(&format!("next {id}"));
                    for (user, p) in ranked {
                        body.push_str(&format!(" {user} {p:?}"));
                    }
                    body.push('\n');
                }
            }
            m.requests_ok.fetch_add(1, Ordering::Relaxed);
            let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            m.predict_next_latency_us.record(us);
            write_response(writer, 200, "OK", &[], &body, keep).is_ok()
        }
        Err(reason) => {
            write_response(writer, 503, "Service Unavailable", &[], &format!("{reason}\n"), keep).is_ok()
        }
    }
}

/// `POST /observe`: append adoption events to a server-resident cascade.
///
/// The body is a single-cascade suffix (see [`parse_observe_body`]); the
/// registry keeps the cascade's current spectral basis, so the follow-up
/// `/predict` for the same content hits the basis cache instead of paying
/// a cold preprocessing pass.
fn respond_observe(req: &Request, ctx: &HandlerCtx<'_>, writer: &mut impl io::Write) -> bool {
    let started = Instant::now();
    let keep = req.keep_alive;
    let m = ctx.metrics;
    let fail = |w: &mut dyn io::Write, body: String, m: &ServeMetrics| {
        m.requests_client_error.fetch_add(1, Ordering::Relaxed);
        write_response(w, 400, "Bad Request", &[], &body, keep).is_ok()
    };

    let window = match req.query_param("window") {
        None => ctx.config.default_window,
        Some(raw) => match raw.parse::<f64>() {
            Ok(w) if w.is_finite() && w > 0.0 => w,
            _ => return fail(writer, format!("invalid window `{raw}`\n"), m),
        },
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return fail(writer, "request body is not utf-8\n".into(), m);
    };
    let body = match parse_observe_body(text, ctx.config.limits) {
        Ok(b) => b,
        Err(e) => return fail(writer, format!("invalid observe payload: {e}\n"), m),
    };
    match ctx.live.observe(&body, window, ctx.registry.config()) {
        Ok(out) => {
            // Seed the basis cache so an immediate `/predict` carrying the
            // same full cascade content reuses the live cascade's basis.
            ctx.cache.put(&out.cascade, out.window, out.basis);
            m.observe_events.fetch_add(out.appended as u64, Ordering::Relaxed);
            if out.refreshed > 0 {
                m.observe_refreshes.fetch_add(out.refreshed as u64, Ordering::Relaxed);
            }
            m.requests_ok.fetch_add(1, Ordering::Relaxed);
            let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            m.observe_latency_us.record(us);
            let reply = format!(
                "observed {} size {} nodes {} appended {} refreshed {} created {}\n",
                body.id,
                out.cascade.final_size(),
                out.num_nodes,
                out.appended,
                out.refreshed,
                out.created,
            );
            write_response(writer, 200, "OK", &[], &reply, keep).is_ok()
        }
        Err(ObserveError::Disabled) => {
            // Shed like an overloaded `/predict`: streaming is off, the
            // client should fall back to one-shot prediction.
            m.requests_shed.fetch_add(1, Ordering::Relaxed);
            let body = "streaming ingestion disabled (start with --live-capacity N)\n";
            write_shed(writer, body, keep).is_ok()
        }
        Err(e) => fail(writer, format!("observe rejected: {e}\n"), m),
    }
}

/// Flips the run flag and pokes the accept loop awake.
fn initiate_shutdown(ctx: &HandlerCtx<'_>) {
    ctx.running.store(false, Ordering::SeqCst);
    // The accept loop is blocked in `accept()`; a throwaway loopback
    // connection gets it to re-check the flag. Errors are irrelevant —
    // if connect fails the listener is already gone.
    let _ = TcpStream::connect(ctx.local_addr);
}
