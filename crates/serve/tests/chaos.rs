//! Seeded chaos tests for the self-healing serving tier: real replica
//! processes, a real router, deterministic fault injection.
//!
//! The invariants every scenario holds to:
//!
//! 1. **Zero wrong answers.** Any `200` that comes back through the
//!    router is bit-identical to direct `CascnModel::predict_log` on the
//!    same checkpoint — kills, failovers, and warm starts may cost
//!    latency or a bounded number of `503`s, never correctness.
//! 2. **Bounded degradation.** During a failover window the only
//!    non-`200` the router may emit is `503` (with `Retry-After`); once
//!    the supervisor has restarted the victim, requests succeed again.
//! 3. **Warm recovery.** A replica restarted after `kill -9` reloads its
//!    persisted spectral cache and serves warm hits, and a *corrupted*
//!    snapshot cold-starts cleanly instead of poisoning answers.
//!
//! Chaos choices (victim replica, corruption offsets) come from the
//! seeded `cascn::FaultInjector`, so a failure reproduces bit-for-bit.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cascn::{CascnConfig, CascnModel, CheckpointPolicy, FaultInjector, TrainCheckpoint, TrainOpts};
use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
use cascn_cascades::{Cascade, Dataset, Split};
use cascn_serve::cache::cascade_key;
use cascn_serve::http::read_response;
use cascn_serve::router::{
    payload_fingerprint, route_order, ReplicaSet, Router, RouterConfig, MAX_BACKEND_BODY_BYTES,
};
use cascn_serve::supervisor::{ReplicaCommand, Supervisor, SupervisorConfig};
use cascn_serve::{ModelRegistry, Server, ServerConfig};

const WINDOW: f64 = 25.0;

fn tiny_cfg() -> CascnConfig {
    CascnConfig {
        hidden: 4,
        mlp_hidden: 4,
        max_nodes: 10,
        max_steps: 4,
        threads: 1,
        ..CascnConfig::default()
    }
}

struct TestEnv {
    dir: PathBuf,
    ckpt_path: PathBuf,
    dataset: Dataset,
}

/// Trains one tiny checkpoint shared by every test in this binary.
fn env() -> &'static TestEnv {
    static ENV: OnceLock<TestEnv> = OnceLock::new();
    ENV.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("cascn_chaos_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt_path = dir.join("chaos.ckpt");
        let dataset = WeiboGenerator::new(WeiboConfig {
            num_cascades: 24,
            seed: 11,
            max_size: 40,
        })
        .generate();
        let mut model = CascnModel::new(tiny_cfg());
        let opts = TrainOpts { epochs: 1, ..TrainOpts::default() };
        let policy = CheckpointPolicy { path: ckpt_path.clone(), every: 1 };
        model
            .fit_resumable(
                dataset.split(Split::Train),
                dataset.split(Split::Validation),
                WINDOW,
                &opts,
                None,
                Some(&policy),
            )
            .expect("tiny training run succeeds");
        TestEnv { dir, ckpt_path, dataset }
    })
}

/// The replica command line: the real `cascn-serve` binary with the
/// shared checkpoint, the tiny architecture, and its own snapshot file.
fn replica_command(tag: &str, i: usize) -> ReplicaCommand {
    let e = env();
    let snap = e.dir.join(format!("{tag}-replica-{i}.snap"));
    ReplicaCommand {
        program: env!("CARGO_BIN_EXE_cascn-serve").to_string(),
        args: [
            "--model",
            &e.ckpt_path.display().to_string(),
            "--addr",
            "127.0.0.1:0",
            "--hidden",
            "4",
            "--max-nodes",
            "10",
            "--max-steps",
            "4",
            "--threads",
            "1",
            "--workers",
            "2",
            "--window",
            "25",
            "--snapshot",
            &snap.display().to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    }
}

fn fast_supervisor_config() -> SupervisorConfig {
    SupervisorConfig {
        backoff_base: Duration::from_millis(50),
        backoff_cap: Duration::from_millis(400),
        stable_after: Duration::from_secs(30),
        announce: false,
    }
}

fn fast_router_config() -> RouterConfig {
    RouterConfig {
        deadline: Duration::from_secs(3),
        max_attempts: 4,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        connect_timeout: Duration::from_millis(300),
        probe_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(400),
        failure_threshold: 2,
        seed: 1234,
        ..RouterConfig::default()
    }
}

/// A whole running tier: supervisor + replicas + router.
struct Tier {
    addr: std::net::SocketAddr,
    replicas: Arc<ReplicaSet>,
    metrics: Arc<cascn_serve::RouterMetrics>,
    supervisor: Option<Supervisor>,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

fn start_tier(tag: &str, n: usize) -> Tier {
    let replicas = Arc::new(ReplicaSet::new(n, fast_router_config().failure_threshold));
    let router = Router::bind(fast_router_config(), Arc::clone(&replicas)).expect("bind router");
    let metrics = Arc::clone(&router.metrics);
    let addr = router.local_addr();
    let supervisor = Supervisor::start(
        (0..n).map(|i| replica_command(tag, i)).collect(),
        fast_supervisor_config(),
        Arc::clone(&replicas),
        Arc::clone(&metrics),
    );
    let join = std::thread::spawn(move || router.run());
    Tier { addr, replicas, metrics, supervisor: Some(supervisor), join: Some(join) }
}

impl Drop for Tier {
    fn drop(&mut self) {
        let _ = raw_request(
            self.addr,
            "POST /shutdown HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
        );
        if let Some(join) = self.join.take() {
            join.join().expect("router thread must not panic").expect("clean exit");
        }
        if let Some(sup) = self.supervisor.take() {
            sup.stop();
        }
    }
}

fn wait_until(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    pred()
}

fn raw_request(addr: std::net::SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    read_reply(&mut BufReader::new(stream))
}

/// One response off `reader` as (status code, UTF-8 body).
fn read_reply(reader: &mut impl BufRead) -> (u16, String) {
    let resp = read_response(reader, MAX_BACKEND_BODY_BYTES).expect("well-formed response");
    (resp.status, String::from_utf8(resp.body).expect("utf-8 body"))
}

fn predict(addr: std::net::SocketAddr, body: &str) -> (u16, String) {
    let raw = format!(
        "POST /predict?window={WINDOW} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    raw_request(addr, &raw)
}

fn body_for(cascades: &[Cascade]) -> String {
    let mut s = String::new();
    for c in cascades {
        s.push_str(&format!("cascade {} {}\n", c.id, c.start_time));
        for e in &c.events {
            let parent = e.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            s.push_str(&format!("event {} {parent} {}\n", e.user, e.time));
        }
    }
    s
}

/// The exact answer the tier must produce — computed against the
/// checkpoint directly, bypassing every serving layer.
fn expected_lines(cascades: &[Cascade]) -> String {
    let e = env();
    let ckpt = TrainCheckpoint::load(&e.ckpt_path).expect("checkpoint loads");
    let model = CascnModel::from_checkpoint(tiny_cfg(), &ckpt).expect("params fit");
    let mut s = String::new();
    for c in cascades {
        s.push_str(&format!("prediction {} {:?}\n", c.id, model.predict_log(c, WINDOW)));
    }
    s
}

fn scrape_metric(addr_text: &str, name: &str) -> u64 {
    let stream = TcpStream::connect(addr_text).expect("connect replica");
    let mut reader = BufReader::new(stream);
    reader
        .get_mut()
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n")
        .expect("send");
    let mut text = String::new();
    reader.read_to_string(&mut text).expect("read");
    text.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("missing metric {name} in:\n{text}"))
}

#[test]
fn kill_dash_nine_under_load_costs_at_most_bounded_503s_never_a_wrong_bit() {
    let e = env();
    let tier = start_tier("kill", 3);
    assert!(
        wait_until(Duration::from_secs(30), || tier.replicas.live_count() == 3),
        "all replicas must come up"
    );

    // Distinct payloads so routing spreads across replicas.
    let payloads: Vec<(String, String)> = (0..6)
        .map(|i| {
            let slice = &e.dataset.cascades[i..i + 2];
            (body_for(slice), expected_lines(slice))
        })
        .collect();

    // Baseline: through-the-router answers are bit-identical.
    for (body, want) in &payloads {
        let (status, got) = predict(tier.addr, body);
        assert_eq!(status, 200, "{got}");
        assert_eq!(&got, want, "router relays must not rewrite predictions");
    }

    // Chaos: SIGKILL a seeded victim mid-load, keep requesting throughout
    // the failover window, and tally outcomes.
    let victim = FaultInjector::new(99).pick_index(3);
    let sup = tier.supervisor.as_ref().expect("supervisor");
    assert!(sup.kill_replica(victim), "victim must be running");

    let mut ok = 0usize;
    let mut shed = 0usize;
    for round in 0..40 {
        let (body, want) = &payloads[round % payloads.len()];
        let (status, got) = predict(tier.addr, body);
        match status {
            200 => {
                ok += 1;
                assert_eq!(&got, want, "a 200 during failover must still be exact");
            }
            503 => shed += 1,
            other => panic!("round {round}: only 200/503 are acceptable, got {other}: {got}"),
        }
    }
    assert!(ok >= 30, "failover must not eat the request stream: {ok} ok, {shed} shed");

    // The supervisor restarts the victim; the tier heals to full strength.
    assert!(
        wait_until(Duration::from_secs(30), || tier.replicas.live_count() == 3),
        "killed replica must be restarted"
    );
    assert!(tier.metrics.restarts.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    let (status, got) = predict(tier.addr, &payloads[0].0);
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, payloads[0].1);
}

#[test]
fn killed_replica_warm_starts_from_its_persisted_spectral_cache() {
    let e = env();
    let tier = start_tier("warm", 1);
    assert!(
        wait_until(Duration::from_secs(30), || tier.replicas.live_count() == 1),
        "replica must come up"
    );

    let slice = &e.dataset.cascades[..3];
    let (body, want) = (body_for(slice), expected_lines(slice));
    let (status, got) = predict(tier.addr, &body);
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, want);

    // Persist the now-warm cache, then SIGKILL the replica.
    let (status, snap_body) = raw_request(
        tier.addr,
        "POST /snapshot HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 200, "snapshot fan-out must succeed: {snap_body}");
    let first_addr = tier.replicas.addr(0).expect("addr");
    let sup = tier.supervisor.as_ref().expect("supervisor");
    assert!(sup.kill_replica(0));

    // The supervisor brings it back; the restarted process must have
    // loaded the snapshot (warm load counted, warm entries installed).
    assert!(
        wait_until(Duration::from_secs(30), || {
            tier.replicas.addr(0).is_some_and(|a| a != first_addr)
                || (tier.replicas.views()[0].restarts >= 1 && tier.replicas.addr(0).is_some())
        }),
        "replica must restart"
    );
    assert!(
        wait_until(Duration::from_secs(30), || tier.replicas.live_count() == 1),
        "restarted replica must go healthy"
    );
    let new_addr = tier.replicas.addr(0).expect("addr after restart");
    assert_eq!(scrape_metric(&new_addr, "cascn_snapshot_load{result=\"warm\"}"), 1);
    assert!(scrape_metric(&new_addr, "cascn_spectral_cache_warm_entries") >= 3);

    // Same payload again: exact bits, and served from the restored cache.
    let (status, got) = predict(tier.addr, &body);
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, want, "a warm-started replica must serve identical bits");
    assert!(
        scrape_metric(&new_addr, "cascn_spectral_cache_warm_hits_total") >= 3,
        "the restored entries must actually serve the hits"
    );
}

#[test]
fn corrupted_snapshot_is_a_clean_cold_start_never_garbage() {
    let e = env();
    let snap_path = e.dir.join("corrupt.snap");
    let slice = &e.dataset.cascades[..3];
    let (body, want) = (body_for(slice), expected_lines(slice));

    let config = ServerConfig {
        default_window: WINDOW,
        snapshot_path: Some(snap_path.clone()),
        ..ServerConfig::default()
    };
    // First life: warm the cache and persist it on shutdown.
    {
        let registry = ModelRegistry::open(&e.ckpt_path, tiny_cfg()).expect("checkpoint loads");
        let server = Server::bind(config.clone(), registry).expect("bind");
        let addr = server.local_addr();
        let join = std::thread::spawn(move || server.run());
        let (status, got) = predict(addr, &body);
        assert_eq!(status, 200, "{got}");
        assert_eq!(got, want);
        let _ = raw_request(addr, "POST /shutdown HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n");
        join.join().expect("no panic").expect("clean exit");
    }
    assert!(snap_path.exists(), "shutdown must leave a snapshot behind");

    // Seeded bit rot on the snapshot file.
    let offsets = FaultInjector::new(7).flip_bytes(&snap_path, 4).expect("corrupt file");
    assert!(!offsets.is_empty());

    // Second life: the corrupt snapshot is rejected — cold start, correct
    // answers, and the rejection is visible on /metrics.
    let registry = ModelRegistry::open(&e.ckpt_path, tiny_cfg()).expect("checkpoint loads");
    let server = Server::bind(config, registry).expect("bind survives corrupt snapshot");
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run());
    let (status, got) = predict(addr, &body);
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, want, "a cold start must recompute, never serve poisoned bases");
    let (_, metrics_text) = raw_request(addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(
        metrics_text.contains("cascn_snapshot_load{result=\"cold_rejected\"} 1"),
        "rejection must be counted:\n{metrics_text}"
    );
    assert!(
        metrics_text.contains("cascn_spectral_cache_warm_entries 0"),
        "nothing from the corrupt file may be installed:\n{metrics_text}"
    );
    let _ = raw_request(addr, "POST /shutdown HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n");
    join.join().expect("no panic").expect("clean exit");
}

#[test]
fn stalled_backend_is_deadlined_failed_over_and_ejected() {
    let e = env();

    // A backend that accepts connections and then never says a word —
    // the worst kind of failure, because only deadlines catch it.
    let stall_listener = TcpListener::bind("127.0.0.1:0").expect("bind stall");
    let stall_addr = stall_listener.local_addr().expect("addr").to_string();
    let stall_thread = std::thread::spawn(move || {
        let mut held = Vec::new();
        // Hold sockets open until the listener is dropped (test end).
        while let Ok((sock, _)) = stall_listener.accept() {
            held.push(sock);
            if held.len() > 256 {
                return;
            }
        }
    });

    // One real replica, spawned directly (no supervisor — this scenario
    // is about the router's deadline, not restarts).
    let real = replica_command("stall", 0);
    let mut child = std::process::Command::new(&real.program)
        .args(&real.args)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn replica");
    let real_addr = {
        let out = child.stdout.take().expect("stdout");
        let mut reader = BufReader::new(out);
        let mut line = String::new();
        loop {
            line.clear();
            assert!(reader.read_line(&mut line).expect("read") > 0, "replica died before binding");
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                break addr.to_string();
            }
        }
    };

    // Router with a tight deadline over [stalled, real].
    let config = RouterConfig {
        deadline: Duration::from_millis(600),
        ..fast_router_config()
    };
    let replicas = Arc::new(ReplicaSet::with_backends(
        &[stall_addr.clone(), real_addr.clone()],
        config.failure_threshold,
    ));
    let router = Router::bind(config, Arc::clone(&replicas)).expect("bind router");
    let metrics = Arc::clone(&router.metrics);
    let addr = router.local_addr();
    let join = std::thread::spawn(move || router.run());

    // Pick a payload that rendezvous-routes to the stalled backend first,
    // so the request *must* burn its deadline there and fail over.
    let payload = (0..12)
        .map(|i| &e.dataset.cascades[i..i + 2])
        .find(|slice| {
            let cascades: Vec<Cascade> = slice.to_vec();
            let fp = payload_fingerprint(cascades.iter().map(cascade_key));
            route_order(fp, 2)[0] == 0
        })
        .expect("some payload routes to the stalled backend first");
    let (body, want) = (body_for(payload), expected_lines(payload));

    let (status, got) = predict(addr, &body);
    assert_eq!(status, 200, "failover must rescue the request: {got}");
    assert_eq!(got, want, "the rescued answer must be exact");
    assert!(
        metrics.failovers.load(std::sync::atomic::Ordering::Relaxed) >= 1,
        "the request must have failed over from the stalled backend"
    );

    // The prober's timeouts eject the stalled backend; after that,
    // requests stop paying the stall tax entirely.
    assert!(
        wait_until(Duration::from_secs(20), || {
            replicas.views()[0].state == cascn_serve::ReplicaState::Ejected
        }),
        "a backend that never answers probes must be ejected"
    );
    let t0 = Instant::now();
    let (status, got) = predict(addr, &body);
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, want);
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "an ejected backend must cost zero deadline: {:?}",
        t0.elapsed()
    );

    let _ = raw_request(addr, "POST /shutdown HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n");
    join.join().expect("no panic").expect("clean exit");
    let _ = child.kill();
    let _ = child.wait();
    drop(stall_thread);
}

/// A backend that answers every connection with `reply`, then either holds
/// the socket open or (with `endless`) streams `a` bytes until the peer
/// hangs up.
fn misbehaving_backend(reply: &'static [u8], endless: bool) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        for sock in listener.incoming().take(64) {
            let Ok(mut sock) = sock else { return };
            std::thread::spawn(move || {
                if sock.write_all(reply).is_err() {
                    return;
                }
                let chunk = [b'a'; 4096];
                while endless && sock.write_all(&chunk).is_ok() {}
                // Hold the connection: a reader waiting on the declared
                // body would block here until its deadline.
                std::thread::sleep(Duration::from_secs(5));
            });
        }
    });
    addr
}

#[test]
fn misbehaving_backend_responses_are_bounded_transport_failures() {
    let giant: &'static [u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 10000000000\r\n\r\nprediction";
    let endless: &'static [u8] = b"HTTP/1.1 200 OK\r\nX-Pad: ";
    for (reply, is_endless, want) in [
        (giant, false, "exceeds the 16777216-byte limit"),
        (endless, true, "message head exceeds 8192 bytes"),
    ] {
        assert_eq!(MAX_BACKEND_BODY_BYTES, 16_777_216);
        let backend = misbehaving_backend(reply, is_endless);
        let config = RouterConfig {
            failure_threshold: 2,
            probe_interval: Duration::from_secs(60),
            ..fast_router_config()
        };
        let replicas = Arc::new(ReplicaSet::with_backends(&[backend], config.failure_threshold));
        let router = Router::bind(config.clone(), Arc::clone(&replicas)).expect("bind router");
        let addr = router.local_addr();
        let join = std::thread::spawn(move || router.run());

        let t0 = Instant::now();
        let body = "cascade 1 0\nevent 1 - 0\nevent 2 0 1\n";
        let mut stream = TcpStream::connect(addr).expect("connect router");
        write!(
            stream,
            "POST /predict HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send");
        let resp = read_response(&mut BufReader::new(stream), MAX_BACKEND_BODY_BYTES)
            .expect("the router answers");
        let text = String::from_utf8_lossy(&resp.body);
        assert_eq!(resp.status, 503, "{text}");
        assert_eq!(resp.retry_after.as_deref(), Some("1"));
        assert!(text.contains(want), "{text}");
        assert!(
            t0.elapsed() < config.deadline,
            "the router waited {:?} on a response it had already refused",
            t0.elapsed()
        );
        assert_eq!(
            replicas.views()[0].state,
            cascn_serve::ReplicaState::Ejected,
            "each refused response counts against the replica"
        );

        let _ = raw_request(addr, "POST /shutdown HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n");
        join.join().expect("no panic").expect("clean exit");
    }
}
