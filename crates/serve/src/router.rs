//! The failover router: the front door of a multi-replica serving tier.
//!
//! A `cascn-router` sits in front of N `cascn-serve` replicas and gives
//! clients one address that survives any single replica's death:
//!
//! - **Placement** — `POST /predict` bodies are parsed with the same
//!   streaming validator the replicas use, and each cascade's content
//!   fingerprint ([`crate::cache::cascade_key`]) is folded into one
//!   request fingerprint. Replicas are ranked by rendezvous (highest
//!   random weight) hashing over that fingerprint, so identical payloads
//!   always land on the same replica — maximizing its spectral-cache
//!   affinity — while losing a replica only remaps the keys it owned.
//!   `POST /observe` routes by cascade *identity* (id + start time) rather
//!   than content, so every append in a cascade's lifetime reaches the one
//!   replica holding its live state; appends are not
//!   idempotent, so observe never fails over to a different replica.
//! - **Failover** — a connect or read failure against the chosen replica
//!   is retried against the next replica in rendezvous order, with
//!   jittered exponential backoff between attempts, a bounded attempt
//!   budget, and one overall per-request deadline. A backend `503`
//!   (overload shed) also fails over, but does not count against the
//!   replica's health.
//! - **Circuit breaker** — a replica that fails `failure_threshold`
//!   consecutive times is **ejected**: it receives no traffic until a
//!   background `/healthz` probe succeeds, which moves it to **half-open**
//!   (trial traffic allowed); the next success promotes it to healthy,
//!   the next failure re-ejects it.
//! - **Graceful degradation** — when *no* replica is routable the router
//!   answers `503` with `Retry-After` instead of hanging or crashing; it
//!   keeps probing and recovers the moment any replica comes back.
//!
//! Correctness contract: the router never rewrites a prediction. It
//! relays the backend's bytes, so a routed response is bit-identical to
//! asking that replica directly — and every replica is bit-identical to
//! `predict_log` by the existing serving contract.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cascn::resolve_threads;
use cascn_cascades::stream::{parse_cascades, parse_observe_body, StreamLimits};

use crate::cache::cascade_key;
use crate::http::{
    read_request, read_response, write_response, write_shed, ParseError, Request, Response,
};
use crate::metrics::RouterMetrics;
use crate::server::ConnQueue;
use crate::sync::{lock_recover, wait_timeout_recover};

/// Replica lifecycle as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Process not running (crashed and awaiting supervisor restart).
    Down,
    /// Spawned (or registered) but not yet probed healthy.
    Starting,
    /// Circuit open: too many consecutive failures; no traffic until a
    /// probe succeeds.
    Ejected,
    /// Circuit half-open: one probe succeeded after ejection; trial
    /// traffic allowed, the next outcome decides.
    HalfOpen,
    /// Probed healthy and serving.
    Healthy,
}

/// Point-in-time view of one replica, for metrics and logs.
#[derive(Debug, Clone)]
pub struct ReplicaView {
    pub index: usize,
    pub state: ReplicaState,
    pub addr: Option<String>,
    pub restarts: u64,
}

struct Slot {
    addr: Option<String>,
    state: ReplicaState,
    consecutive_failures: u32,
    restarts: u64,
}

/// The shared routing table: one slot per replica, written by the
/// supervisor (addresses, restarts) and the prober/forwarder (states).
pub struct ReplicaSet {
    slots: Vec<Mutex<Slot>>,
    failure_threshold: u32,
}

impl ReplicaSet {
    /// `n` empty slots (supervisor mode: addresses arrive as replicas
    /// report their ephemeral ports).
    pub fn new(n: usize, failure_threshold: u32) -> Self {
        Self {
            slots: (0..n)
                .map(|_| {
                    Mutex::new(Slot {
                        addr: None,
                        state: ReplicaState::Down,
                        consecutive_failures: 0,
                        restarts: 0,
                    })
                })
                .collect(),
            failure_threshold: failure_threshold.max(1),
        }
    }

    /// Slots pre-filled with externally managed backend addresses.
    pub fn with_backends(addrs: &[String], failure_threshold: u32) -> Self {
        let set = Self::new(addrs.len(), failure_threshold);
        for (i, a) in addrs.iter().enumerate() {
            set.set_addr(i, a.clone());
        }
        set
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn lock(&self, i: usize) -> std::sync::MutexGuard<'_, Slot> {
        lock_recover(&self.slots[i])
    }

    /// Publishes a (re)started replica's address; it enters `Starting`
    /// and is promoted by the next successful probe.
    pub fn set_addr(&self, i: usize, addr: String) {
        let mut s = self.lock(i);
        s.addr = Some(addr);
        s.state = ReplicaState::Starting;
        s.consecutive_failures = 0;
    }

    /// Marks a replica's process dead; its address is dropped so no
    /// forwarder or probe can race against the stale port.
    pub fn mark_down(&self, i: usize) {
        let mut s = self.lock(i);
        s.addr = None;
        s.state = ReplicaState::Down;
    }

    /// Counts a supervisor restart of replica `i`.
    pub fn bump_restarts(&self, i: usize) {
        self.lock(i).restarts += 1;
    }

    pub fn addr(&self, i: usize) -> Option<String> {
        self.lock(i).addr.clone()
    }

    pub fn state(&self, i: usize) -> ReplicaState {
        self.lock(i).state
    }

    /// The address of replica `i` if it may receive traffic right now
    /// (healthy, half-open, or still unprobed-but-started).
    pub fn routable(&self, i: usize) -> Option<String> {
        let s = self.lock(i);
        match s.state {
            ReplicaState::Healthy | ReplicaState::HalfOpen | ReplicaState::Starting => s.addr.clone(),
            ReplicaState::Down | ReplicaState::Ejected => None,
        }
    }

    /// A forwarded request to `i` succeeded: reset the failure streak and
    /// close the circuit.
    pub fn record_success(&self, i: usize) {
        let mut s = self.lock(i);
        s.consecutive_failures = 0;
        if matches!(s.state, ReplicaState::HalfOpen | ReplicaState::Starting) {
            s.state = ReplicaState::Healthy;
        }
    }

    /// A forwarded request to `i` failed at the transport level. After
    /// `failure_threshold` consecutive failures the replica is ejected.
    pub fn record_failure(&self, i: usize) {
        let mut s = self.lock(i);
        s.consecutive_failures = s.consecutive_failures.saturating_add(1);
        match s.state {
            ReplicaState::HalfOpen => s.state = ReplicaState::Ejected,
            ReplicaState::Healthy | ReplicaState::Starting => {
                if s.consecutive_failures >= self.failure_threshold {
                    s.state = ReplicaState::Ejected;
                }
            }
            ReplicaState::Down | ReplicaState::Ejected => {}
        }
    }

    /// Applies one health-probe outcome to the circuit breaker.
    pub fn probe_result(&self, i: usize, ok: bool) {
        let mut s = self.lock(i);
        if ok {
            s.consecutive_failures = 0;
            s.state = match s.state {
                ReplicaState::Ejected => ReplicaState::HalfOpen,
                ReplicaState::Down => s.state,
                _ => ReplicaState::Healthy,
            };
        } else if s.addr.is_some() {
            s.consecutive_failures = s.consecutive_failures.saturating_add(1);
            if matches!(s.state, ReplicaState::HalfOpen)
                || (matches!(s.state, ReplicaState::Healthy | ReplicaState::Starting)
                    && s.consecutive_failures >= self.failure_threshold)
            {
                s.state = ReplicaState::Ejected;
            }
        }
    }

    /// Replicas currently allowed to take traffic.
    pub fn live_count(&self) -> usize {
        (0..self.len()).filter(|&i| self.routable(i).is_some()).count()
    }

    pub fn views(&self) -> Vec<ReplicaView> {
        (0..self.len())
            .map(|i| {
                let s = self.lock(i);
                ReplicaView {
                    index: i,
                    state: s.state,
                    addr: s.addr.clone(),
                    restarts: s.restarts,
                }
            })
            .collect()
    }
}

/// Everything tunable about a router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`:0` picks an ephemeral port).
    pub addr: String,
    /// Connection workers (`0` = one per core, floor 4).
    pub workers: usize,
    /// Max `Content-Length` accepted on `POST /predict`.
    pub max_body_bytes: usize,
    /// Client-socket read timeout (slowloris defense, same as the
    /// replicas').
    pub read_timeout: Option<Duration>,
    /// Total wall-clock budget for one routed request, across every
    /// attempt and backoff sleep.
    pub deadline: Duration,
    /// Max backend attempts per request (first try + retries).
    pub max_attempts: usize,
    /// Base of the jittered exponential backoff between attempts.
    pub backoff_base: Duration,
    /// Cap on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Per-attempt TCP connect budget.
    pub connect_timeout: Duration,
    /// Cadence of the background `/healthz` prober.
    pub probe_interval: Duration,
    /// Per-probe connect+read budget.
    pub probe_timeout: Duration,
    /// Consecutive transport failures before a replica is ejected.
    pub failure_threshold: u32,
    /// Per-request cascade/event caps (must match the replicas' so the
    /// router never forwards what a replica would reject).
    pub limits: StreamLimits,
    /// Seed of the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            max_body_bytes: 1 << 20,
            read_timeout: Some(Duration::from_secs(5)),
            deadline: Duration::from_secs(2),
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            connect_timeout: Duration::from_millis(250),
            probe_interval: Duration::from_millis(250),
            probe_timeout: Duration::from_millis(500),
            failure_threshold: 3,
            limits: StreamLimits::default(),
            seed: 42,
        }
    }
}

/// Rendezvous (highest-random-weight) score of `(fingerprint, replica)`.
/// Deterministic, stateless, and minimally disruptive: removing a replica
/// remaps only the keys it owned.
fn rendezvous_score(fp: u64, replica: usize) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&fp.to_le_bytes());
    bytes[8..].copy_from_slice(&(replica as u64).to_le_bytes());
    cascn::fnv1a64(&bytes)
}

/// Content fingerprint of a whole predict payload: the FNV fold of every
/// cascade's [`cascade_key`], so placement follows cascade content exactly
/// as the replicas' spectral caches do.
pub fn payload_fingerprint(keys: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for k in keys {
        for b in k.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Replica indices in rendezvous order for `fp` — the failover sequence.
pub fn route_order(fp: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse((rendezvous_score(fp, i), i)));
    order
}

/// Cap on a backend response body the router reads. The largest
/// legitimate replica answer is a `/predict` reply: at most 48 bytes per
/// cascade, for a request that spends at least 24 bytes per cascade — about
/// 2 MiB at the default 1 MiB request cap. 16 MiB leaves room for raised
/// request caps while bounding what a misbehaving replica can make a
/// router worker allocate.
pub const MAX_BACKEND_BODY_BYTES: usize = 16 << 20;

/// Why one backend attempt produced no relayable response.
enum AttemptError {
    /// TCP connect/read/write failure — counts against replica health.
    Transport(String),
    /// The backend shed with 503 — fail over, but the replica is healthy.
    Shed(Response),
}

/// A bound-but-not-yet-running router.
pub struct Router {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: RouterConfig,
    replicas: Arc<ReplicaSet>,
    pub metrics: Arc<RouterMetrics>,
    /// Draw counter of the deterministic backoff jitter stream.
    jitter: AtomicU64,
}

impl Router {
    pub fn bind(config: RouterConfig, replicas: Arc<ReplicaSet>) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Self {
            listener,
            local_addr,
            jitter: AtomicU64::new(config.seed | 1),
            config,
            replicas,
            metrics: Arc::new(RouterMetrics::new()),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub fn replicas(&self) -> Arc<ReplicaSet> {
        Arc::clone(&self.replicas)
    }

    /// Serves until a `POST /shutdown` arrives. Runs the accept loop on
    /// the calling thread, a worker pool, and the background prober.
    pub fn run(self) -> io::Result<()> {
        let workers = if self.config.workers == 0 {
            resolve_threads(0).max(4)
        } else {
            self.config.workers
        };
        let running = AtomicBool::new(true);
        let stop = ShutdownSignal::new();
        let conns = ConnQueue::new(workers * 2);
        let Self {
            listener,
            local_addr,
            config,
            replicas,
            metrics,
            jitter,
        } = self;

        std::thread::scope(|s| {
            s.spawn(|| {
                probe_loop(&config, &replicas, &metrics, &stop);
            });
            for _ in 0..workers {
                s.spawn(|| {
                    while let Some(stream) = conns.pop() {
                        let ctx = RouterCtx {
                            config: &config,
                            replicas: &replicas,
                            metrics: &metrics,
                            running: &running,
                            stop: &stop,
                            jitter: &jitter,
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
                let _ = stream.set_read_timeout(config.read_timeout);
                if let Err(rejected) = conns.push(stream) {
                    metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
                    let mut w = io::BufWriter::new(rejected);
                    let _ = write_shed(&mut w, "overloaded: connection queue full\n", false);
                }
            }
            conns.close();
            stop.raise();
        });
        Ok(())
    }
}

/// A latch that sleeping loops (the prober, backoff waits, the
/// supervisor's restart delays) wait against, so shutdown interrupts the
/// sleep instead of waiting out the interval.
pub(crate) struct ShutdownSignal {
    state: Mutex<bool>,
    cv: Condvar,
}

impl ShutdownSignal {
    pub(crate) fn new() -> Self {
        Self { state: Mutex::new(false), cv: Condvar::new() }
    }

    pub(crate) fn raise(&self) {
        let mut flag = lock_recover(&self.state);
        *flag = true;
        self.cv.notify_all();
    }

    /// Sleeps up to `d`; returns true when shutdown was raised.
    pub(crate) fn wait(&self, d: Duration) -> bool {
        let mut flag = lock_recover(&self.state);
        let deadline = Instant::now() + d;
        while !*flag {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _timed_out) = wait_timeout_recover(&self.cv, flag, deadline - now);
            flag = next;
        }
        true
    }
}

/// The background health prober: every `probe_interval`, `GET /healthz`
/// against each replica with an address, feeding the circuit breaker.
fn probe_loop(
    config: &RouterConfig,
    replicas: &ReplicaSet,
    metrics: &RouterMetrics,
    stop: &ShutdownSignal,
) {
    loop {
        for i in 0..replicas.len() {
            let Some(addr) = replicas.addr(i) else { continue };
            let ok = probe_healthz(&addr, config.probe_timeout);
            if ok {
                metrics.probes_ok.fetch_add(1, Ordering::Relaxed);
            } else {
                metrics.probes_failed.fetch_add(1, Ordering::Relaxed);
            }
            replicas.probe_result(i, ok);
        }
        if stop.wait(config.probe_interval) {
            return;
        }
    }
}

/// One `GET /healthz` probe: any complete `200` response counts.
fn probe_healthz(addr: &str, timeout: Duration) -> bool {
    match send_backend(addr, "GET", "/healthz", "", timeout, timeout) {
        Ok(resp) => resp.status == 200,
        Err(_) => false,
    }
}

fn resolve_addr(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::other(format!("{addr}: no socket address")))
}

/// One complete backend exchange on a fresh connection: connect (bounded),
/// send, read the full response (bounded).
fn send_backend(
    addr: &str,
    method: &str,
    target: &str,
    body: &str,
    connect_timeout: Duration,
    read_timeout: Duration,
) -> Result<Response, String> {
    let sockaddr = resolve_addr(addr).map_err(|e| format!("resolve {addr}: {e}"))?;
    let stream = TcpStream::connect_timeout(&sockaddr, connect_timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(read_timeout.max(Duration::from_millis(1))));
    let mut reader = BufReader::new(stream);
    let raw = format!(
        "{method} {target} HTTP/1.1\r\nHost: cascn-router\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    reader
        .get_mut()
        .write_all(raw.as_bytes())
        .map_err(|e| format!("send {addr}: {e}"))?;
    read_response(&mut reader, MAX_BACKEND_BODY_BYTES).map_err(|e| format!("read {addr}: {e}"))
}

/// Shared references a router connection handler needs.
struct RouterCtx<'a> {
    config: &'a RouterConfig,
    replicas: &'a ReplicaSet,
    metrics: &'a RouterMetrics,
    running: &'a AtomicBool,
    stop: &'a ShutdownSignal,
    jitter: &'a AtomicU64,
    local_addr: SocketAddr,
}

impl RouterCtx<'_> {
    /// Deterministic jitter in `[0, cap]` — splitmix64 of a seeded draw
    /// counter, no wall clock, no OS randomness. The counter bump is the
    /// only shared-state touch, so concurrent handlers cannot lose a
    /// draw the way a load/xorshift/store sequence could; relaxed
    /// ordering is fine for the same reason it is for a metrics counter.
    fn jitter(&self, cap: Duration) -> Duration {
        let n = self.jitter.fetch_add(1, Ordering::Relaxed);
        let mut x = n.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let cap_us = cap.as_micros().min(u128::from(u64::MAX)) as u64;
        if cap_us == 0 {
            Duration::ZERO
        } else {
            Duration::from_micros(x % (cap_us + 1))
        }
    }
}

fn handle_connection(stream: TcpStream, ctx: &RouterCtx<'_>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = io::BufWriter::new(stream);
    loop {
        let request = match read_request(&mut reader, ctx.config.max_body_bytes) {
            Ok(r) => r,
            Err(ParseError::TimedOut) => {
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
            ctx.running.store(false, Ordering::SeqCst);
            ctx.stop.raise();
            let _ = TcpStream::connect(ctx.local_addr);
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

fn respond(req: &Request, ctx: &RouterCtx<'_>, writer: &mut impl io::Write) -> bool {
    let keep = req.keep_alive;
    let m = ctx.metrics;
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            if ctx.replicas.live_count() > 0 {
                m.requests_ok.fetch_add(1, Ordering::Relaxed);
                write_response(writer, 200, "OK", &[], "ok\n", keep).is_ok()
            } else {
                m.no_backend.fetch_add(1, Ordering::Relaxed);
                write_shed(writer, "no live replicas\n", keep).is_ok()
            }
        }
        ("GET", "/metrics") => {
            m.requests_ok.fetch_add(1, Ordering::Relaxed);
            let body = m.render(&ctx.replicas.views());
            write_response(writer, 200, "OK", &[], &body, keep).is_ok()
        }
        ("POST", "/predict") => route_predict(req, ctx, writer),
        ("POST", "/observe") => route_observe(req, ctx, writer),
        // Fleet-wide fan-out: reload / snapshot every replica that has an
        // address, reporting per-replica outcomes.
        ("POST", "/reload") | ("POST", "/snapshot") => fan_out(req.path.as_str(), ctx, writer, keep),
        ("POST", "/shutdown") => {
            m.requests_ok.fetch_add(1, Ordering::Relaxed);
            write_response(writer, 200, "OK", &[], "shutting down\n", keep).is_ok()
        }
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

/// Forwards `path` to every replica with an address; `200` only when all
/// of them succeeded.
fn fan_out(path: &str, ctx: &RouterCtx<'_>, writer: &mut impl io::Write, keep: bool) -> bool {
    let mut lines = String::new();
    let mut failures = 0usize;
    let mut targeted = 0usize;
    for i in 0..ctx.replicas.len() {
        let Some(addr) = ctx.replicas.addr(i) else {
            lines.push_str(&format!("replica {i}: down\n"));
            continue;
        };
        targeted += 1;
        match send_backend(&addr, "POST", path, "", ctx.config.connect_timeout, ctx.config.deadline) {
            Ok(resp) if resp.status == 200 => {
                lines.push_str(&format!("replica {i}: {}", body_line(&resp)));
            }
            Ok(resp) => {
                failures += 1;
                lines.push_str(&format!("replica {i}: status {} {}", resp.status, body_line(&resp)));
            }
            Err(e) => {
                failures += 1;
                lines.push_str(&format!("replica {i}: {e}\n"));
            }
        }
    }
    if failures == 0 && targeted > 0 {
        ctx.metrics.requests_ok.fetch_add(1, Ordering::Relaxed);
        write_response(writer, 200, "OK", &[], &lines, keep).is_ok()
    } else {
        ctx.metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
        write_response(writer, 502, "Bad Gateway", &[], &lines, keep).is_ok()
    }
}

/// A backend body as text, newline-terminated.
fn body_line(resp: &Response) -> String {
    let s = String::from_utf8_lossy(&resp.body);
    if s.ends_with('\n') {
        s.into_owned()
    } else {
        format!("{s}\n")
    }
}

/// The placement fingerprint for a live cascade: identity only (id plus
/// start-time bits), never content, so a cascade keeps routing to the same
/// replica as it grows event by event.
pub fn observe_fingerprint(id: u64, start_time: f64) -> u64 {
    payload_fingerprint([id, start_time.to_bits()])
}

/// `POST /observe`: identity fingerprint → rendezvous owner → one attempt.
///
/// Unlike `/predict` there is no failover walk: an append applied by one
/// replica and retried against another would fork the live cascade (the
/// second replica either rejects the suffix or rebuilds divergent state),
/// and a transport error after the bytes left gives no way to know whether
/// the first replica applied them. So the router relays the owner's answer
/// — or its failure — verbatim, and lets the client decide.
fn route_observe(req: &Request, ctx: &RouterCtx<'_>, writer: &mut impl io::Write) -> bool {
    let started = Instant::now();
    let keep = req.keep_alive;
    let m = ctx.metrics;

    let Ok(text) = std::str::from_utf8(&req.body) else {
        m.requests_client_error.fetch_add(1, Ordering::Relaxed);
        return write_response(writer, 400, "Bad Request", &[], "request body is not utf-8\n", keep)
            .is_ok();
    };
    // Same validator, same limits as the replicas: anything a replica
    // would 400, the router 400s without burning a backend attempt.
    let body = match parse_observe_body(text, ctx.config.limits) {
        Ok(b) => b,
        Err(e) => {
            m.requests_client_error.fetch_add(1, Ordering::Relaxed);
            return write_response(
                writer,
                400,
                "Bad Request",
                &[],
                &format!("invalid observe payload: {e}\n"),
                keep,
            )
            .is_ok();
        }
    };

    let fp = observe_fingerprint(body.id, body.start_time);
    let order = route_order(fp, ctx.replicas.len());
    let target = if req.query.is_empty() {
        "/observe".to_string()
    } else {
        format!("/observe?{}", req.query)
    };
    let Some((idx, addr)) = order.iter().find_map(|&i| ctx.replicas.routable(i).map(|a| (i, a)))
    else {
        m.no_backend.fetch_add(1, Ordering::Relaxed);
        return write_shed(writer, "no live replicas\n", keep).is_ok();
    };

    match send_backend(&addr, "POST", &target, text, ctx.config.connect_timeout, ctx.config.deadline)
    {
        Ok(resp) => {
            ctx.replicas.record_success(idx);
            if resp.status == 200 {
                m.requests_ok.fetch_add(1, Ordering::Relaxed);
                let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                m.route_latency_us.record(us);
            } else {
                m.requests_client_error.fetch_add(1, Ordering::Relaxed);
            }
            relay(writer, &resp, keep)
        }
        Err(e) => {
            ctx.replicas.record_failure(idx);
            m.requests_shed.fetch_add(1, Ordering::Relaxed);
            write_response(
                writer,
                502,
                "Bad Gateway",
                &[],
                &format!("observe owner replica {idx} unreachable: {e}\n"),
                keep,
            )
            .is_ok()
        }
    }
}

/// `POST /predict`: fingerprint → rendezvous order → bounded, deadlined,
/// backoff-separated attempts down the failover sequence.
fn route_predict(req: &Request, ctx: &RouterCtx<'_>, writer: &mut impl io::Write) -> bool {
    let started = Instant::now();
    let keep = req.keep_alive;
    let m = ctx.metrics;

    let Ok(text) = std::str::from_utf8(&req.body) else {
        m.requests_client_error.fetch_add(1, Ordering::Relaxed);
        return write_response(writer, 400, "Bad Request", &[], "request body is not utf-8\n", keep)
            .is_ok();
    };
    // Same validator, same limits as the replicas: anything a replica
    // would 400, the router 400s without burning a backend attempt.
    let cascades = match parse_cascades(text, ctx.config.limits) {
        Ok(c) => c,
        Err(e) => {
            m.requests_client_error.fetch_add(1, Ordering::Relaxed);
            return write_response(
                writer,
                400,
                "Bad Request",
                &[],
                &format!("invalid cascade payload: {e}\n"),
                keep,
            )
            .is_ok();
        }
    };
    if cascades.is_empty() {
        m.requests_ok.fetch_add(1, Ordering::Relaxed);
        return write_response(writer, 200, "OK", &[], "", keep).is_ok();
    }

    let fp = payload_fingerprint(cascades.iter().map(cascade_key));
    let order = route_order(fp, ctx.replicas.len());
    let target = if req.query.is_empty() {
        "/predict".to_string()
    } else {
        format!("/predict?{}", req.query)
    };
    let deadline = started + ctx.config.deadline;

    let mut owner: Option<usize> = None;
    let mut last_shed: Option<Response> = None;
    let mut last_transport: Option<String> = None;
    let mut saw_backend = false;
    for attempt in 0..ctx.config.max_attempts.max(1) {
        // Re-resolve the candidate each attempt: the prober may have
        // ejected or recovered replicas while we were backing off.
        let candidates: Vec<(usize, String)> = order
            .iter()
            .filter_map(|&i| ctx.replicas.routable(i).map(|a| (i, a)))
            .collect();
        if candidates.is_empty() {
            break;
        }
        let (idx, addr) = candidates[attempt % candidates.len()].clone();
        if owner.is_none() {
            owner = Some(idx);
        }
        saw_backend = true;
        if attempt > 0 {
            m.retries.fetch_add(1, Ordering::Relaxed);
        }

        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let remaining = deadline - now;
        let connect_budget = ctx.config.connect_timeout.min(remaining);
        // Split what's left of the deadline across the attempts still
        // available, so a backend that accepts and then stalls cannot eat
        // the whole budget on attempt one and leave failover no time.
        let attempts_left = (ctx.config.max_attempts.max(1) - attempt).max(1) as u32;
        let read_budget = remaining / attempts_left;
        let outcome = match send_backend(&addr, "POST", &target, text, connect_budget, read_budget) {
            Ok(resp) if resp.status == 503 => Err(AttemptError::Shed(resp)),
            Ok(resp) => Ok(resp),
            Err(e) => Err(AttemptError::Transport(e)),
        };
        match outcome {
            Ok(resp) => {
                ctx.replicas.record_success(idx);
                if owner != Some(idx) {
                    m.failovers.fetch_add(1, Ordering::Relaxed);
                }
                if resp.status == 200 {
                    m.requests_ok.fetch_add(1, Ordering::Relaxed);
                    let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    m.route_latency_us.record(us);
                } else {
                    m.requests_client_error.fetch_add(1, Ordering::Relaxed);
                }
                return relay(writer, &resp, keep);
            }
            Err(AttemptError::Shed(resp)) => {
                // Overload is not ill health: the replica stays closed in
                // the breaker, but the request tries its next choice.
                ctx.replicas.record_success(idx);
                last_shed = Some(resp);
            }
            Err(AttemptError::Transport(e)) => {
                ctx.replicas.record_failure(idx);
                last_transport = Some(e);
            }
        }
        // Jittered exponential backoff before the next attempt, clipped
        // to both the per-sleep cap and the remaining deadline.
        if attempt + 1 < ctx.config.max_attempts {
            let exp = ctx
                .config
                .backoff_base
                .saturating_mul(1u32 << attempt.min(16) as u32)
                .min(ctx.config.backoff_cap);
            let sleep = (exp + ctx.jitter(ctx.config.backoff_base)).min(ctx.config.backoff_cap);
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if ctx.stop.wait(sleep.min(deadline - now)) {
                break;
            }
        }
    }

    // Nothing relayable: degrade gracefully with 503 + Retry-After. A
    // backend shed response is preferred over a synthetic body so the
    // client sees the most informative reason.
    m.requests_shed.fetch_add(1, Ordering::Relaxed);
    if !saw_backend {
        m.no_backend.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(shed) = last_shed {
        return relay(writer, &shed, keep);
    }
    let body = if !saw_backend {
        "no live replicas\n".to_string()
    } else if let Some(e) = last_transport {
        format!("no replica answered within the retry/deadline budget (last error: {e})\n")
    } else {
        "no replica answered within the retry/deadline budget\n".to_string()
    };
    write_shed(writer, &body, keep).is_ok()
}

/// Relays a backend response to the client (status, reason, `Retry-After`,
/// body); a body that is not UTF-8 is relayed lossily.
fn relay(writer: &mut impl io::Write, resp: &Response, keep: bool) -> bool {
    let extra: Vec<(&str, &str)> = match &resp.retry_after {
        Some(v) => vec![("Retry-After", v.as_str())],
        None => Vec::new(),
    };
    let reason = if resp.reason.is_empty() { "Unknown" } else { &resp.reason };
    let body = String::from_utf8_lossy(&resp.body);
    write_response(writer, resp.status, reason, &extra, &body, keep).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_order_is_deterministic_and_minimally_disruptive() {
        let fp = 0xdead_beef_u64;
        let with3 = route_order(fp, 3);
        assert_eq!(with3, route_order(fp, 3), "same inputs, same order");
        assert_eq!(with3.len(), 3);
        // Dropping the non-owner replicas never changes an owner that
        // survives: the relative order of 0 and 1 with n=2 matches their
        // relative order with n=3.
        let with2 = route_order(fp, 2);
        let pos = |v: &[usize], x: usize| v.iter().position(|&i| i == x).unwrap();
        assert_eq!(
            pos(&with3, 0) < pos(&with3, 1),
            pos(&with2, 0) < pos(&with2, 1),
            "rendezvous keeps surviving replicas' relative ranks"
        );
    }

    #[test]
    fn payload_fingerprint_tracks_content() {
        assert_eq!(payload_fingerprint([1, 2]), payload_fingerprint([1, 2]));
        assert_ne!(payload_fingerprint([1, 2]), payload_fingerprint([2, 1]));
        assert_ne!(payload_fingerprint([1]), payload_fingerprint([1, 1]));
    }

    #[test]
    fn observe_affinity_is_identity_not_content() {
        // The same cascade keeps its rendezvous owner as it grows: the
        // fingerprint depends only on (id, start time), never on events.
        let fp = observe_fingerprint(42, 1.5);
        assert_eq!(fp, observe_fingerprint(42, 1.5));
        assert_eq!(route_order(fp, 5), route_order(observe_fingerprint(42, 1.5), 5));
        assert_ne!(fp, observe_fingerprint(43, 1.5));
        assert_ne!(fp, observe_fingerprint(42, 2.5));
    }

    #[test]
    fn circuit_breaker_walks_ejected_half_open_healthy() {
        let set = ReplicaSet::new(1, 2);
        set.set_addr(0, "127.0.0.1:1".into());
        assert_eq!(set.state(0), ReplicaState::Starting);
        assert!(set.routable(0).is_some(), "starting replicas take trial traffic");

        set.record_failure(0);
        assert_eq!(set.state(0), ReplicaState::Starting, "one failure is below threshold");
        set.record_failure(0);
        assert_eq!(set.state(0), ReplicaState::Ejected, "threshold ejects");
        assert!(set.routable(0).is_none(), "ejected replicas get no traffic");

        set.probe_result(0, true);
        assert_eq!(set.state(0), ReplicaState::HalfOpen, "probe success half-opens");
        assert!(set.routable(0).is_some(), "half-open replicas get trial traffic");
        set.record_failure(0);
        assert_eq!(set.state(0), ReplicaState::Ejected, "half-open fails straight back");

        set.probe_result(0, true);
        set.record_success(0);
        assert_eq!(set.state(0), ReplicaState::Healthy, "success closes the circuit");
        assert_eq!(set.live_count(), 1);
    }

    #[test]
    fn down_replicas_drop_their_address() {
        let set = ReplicaSet::with_backends(&["a:1".into(), "b:2".into()], 3);
        assert_eq!(set.len(), 2);
        set.mark_down(0);
        assert_eq!(set.state(0), ReplicaState::Down);
        assert_eq!(set.addr(0), None, "a dead process's port must not be probed");
        set.probe_result(0, false);
        assert_eq!(set.state(0), ReplicaState::Down, "probes cannot resurrect a dead slot");
        set.set_addr(0, "a:3".into());
        assert_eq!(set.state(0), ReplicaState::Starting, "restart re-enters via Starting");
        let views = set.views();
        assert_eq!(views[0].addr.as_deref(), Some("a:3"));
    }
}
