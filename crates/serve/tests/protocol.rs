//! End-to-end protocol tests: a real server on an ephemeral port, real
//! sockets, and the parity contract — served predictions are byte-identical
//! to direct `CascnModel::predict_log` on the same checkpoint.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::OnceLock;

use cascn::{CascnConfig, CascnModel, CheckpointPolicy, TrainCheckpoint, TrainOpts};
use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
use cascn_cascades::{Cascade, Dataset, Split};
use cascn_serve::http::read_response;
use cascn_serve::router::MAX_BACKEND_BODY_BYTES;
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
    ckpt_path: PathBuf,
    dataset: Dataset,
}

/// Trains one tiny checkpoint shared by every test in this binary.
fn env() -> &'static TestEnv {
    static ENV: OnceLock<TestEnv> = OnceLock::new();
    ENV.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("cascn_protocol_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt_path = dir.join("protocol.ckpt");
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
        TestEnv { ckpt_path, dataset }
    })
}

/// A running server plus the thread driving it. Shut down via the route.
struct ServerHandle {
    addr: std::net::SocketAddr,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

fn start_server(mut config: ServerConfig) -> ServerHandle {
    let e = env();
    config.addr = "127.0.0.1:0".into();
    config.default_window = WINDOW;
    let registry = ModelRegistry::open(&e.ckpt_path, tiny_cfg()).expect("checkpoint loads");
    let server = Server::bind(config, registry).expect("bind ephemeral port");
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run());
    ServerHandle { addr, join: Some(join) }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = raw_request(self.addr, "POST /shutdown HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n");
        if let Some(join) = self.join.take() {
            join.join().expect("server thread must not panic").expect("clean exit");
        }
    }
}

/// Sends raw bytes, returns (status code, body).
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

/// One `POST /predict` over its own connection.
fn predict(addr: std::net::SocketAddr, body: &str, window: f64) -> (u16, String) {
    let raw = format!(
        "POST /predict?window={window} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    raw_request(addr, &raw)
}

/// Serializes cascades in the request text format.
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

/// The exact lines the server must produce for `cascades`.
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

#[test]
fn malformed_request_lines_get_400_not_a_hang() {
    let h = start_server(ServerConfig::default());
    for raw in [
        "GARBAGE\r\n\r\n",
        "GET /predict HTTP/1.1 TRAILING\r\n\r\n",
        "POST nopath HTTP/1.1\r\n\r\n",
        "POST /predict HTTP/1.1\r\nContent-Length: zebra\r\n\r\n",
    ] {
        let (status, body) = raw_request(h.addr, raw);
        assert_eq!(status, 400, "{raw:?} -> {body}");
    }
}

#[test]
fn oversized_bodies_get_413() {
    let h = start_server(ServerConfig { max_body_bytes: 64, ..ServerConfig::default() });
    let raw = "POST /predict HTTP/1.1\r\nConnection: close\r\nContent-Length: 100000\r\n\r\n";
    let (status, body) = raw_request(h.addr, raw);
    assert_eq!(status, 413, "{body}");
}

#[test]
fn invalid_cascade_payloads_get_400_with_line_numbers() {
    let h = start_server(ServerConfig::default());
    for (payload, needle) in [
        ("event 1 - 0.0\n", "before any cascade header"),
        ("cascade 1 0.0\nevent 5 - 3.0\n", "root must be at t=0"),
        ("cascade 1 0.0\nnonsense\n", "unknown record type"),
        ("not utf8 comes below", "unknown record type"),
    ] {
        let (status, body) = predict(h.addr, payload, WINDOW);
        assert_eq!(status, 400, "{payload:?} -> {body}");
        assert!(body.contains(needle), "{payload:?} -> {body}");
    }
    // Invalid window is also a 400.
    let (status, body) = predict(h.addr, "cascade 1 0.0\nevent 5 - 0.0\n", -3.0);
    assert_eq!(status, 400, "{body}");
    // Non-utf8 body.
    let raw_bytes: &[u8] = b"POST /predict HTTP/1.1\r\nConnection: close\r\nContent-Length: 4\r\n\r\n\xff\xfe\xfd\xfc";
    let mut stream = TcpStream::connect(h.addr).unwrap();
    stream.write_all(raw_bytes).unwrap();
    let (status, body) = read_reply(&mut BufReader::new(stream));
    assert_eq!(status, 400);
    assert!(body.contains("utf-8"), "{body}");
}

#[test]
fn empty_payload_is_an_empty_200() {
    let h = start_server(ServerConfig::default());
    let (status, body) = predict(h.addr, "# nothing here\n", WINDOW);
    assert_eq!(status, 200);
    assert!(body.is_empty(), "{body}");
}

#[test]
fn served_predictions_match_direct_predict_bit_for_bit() {
    let e = env();
    let h = start_server(ServerConfig::default());
    let cascades = &e.dataset.cascades[..6];
    let (status, body) = predict(h.addr, &body_for(cascades), WINDOW);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected_lines(cascades));
}

#[test]
fn concurrent_clients_all_get_bit_identical_results() {
    let e = env();
    let h = start_server(ServerConfig {
        // Enough workers for every client, but a tiny batch bound: force
        // coalescing and queue pressure while every answer stays exact.
        workers: 8,
        max_batch: 4,
        ..ServerConfig::default()
    });
    let addr = h.addr;
    let slices: Vec<&[Cascade]> = (0..8)
        .map(|i| &e.dataset.cascades[i..i + 3])
        .collect();
    let expected: Vec<String> = slices.iter().map(|s| expected_lines(s)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .iter()
            .map(|s| {
                let body = body_for(s);
                scope.spawn(move || predict(addr, &body, WINDOW))
            })
            .collect();
        for (handle, want) in handles.into_iter().zip(&expected) {
            let (status, got) = handle.join().expect("client thread");
            assert_eq!(status, 200, "{got}");
            assert_eq!(&got, want, "served response diverged from direct predict");
        }
    });
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let e = env();
    let h = start_server(ServerConfig::default());
    let cascades = &e.dataset.cascades[..2];
    let body = body_for(cascades);
    let mut stream = TcpStream::connect(h.addr).expect("connect");
    for _ in 0..2 {
        let raw = format!(
            "POST /predict?window={WINDOW} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes()).expect("send");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let (status, got) = read_reply(&mut reader);
        assert_eq!(status, 200);
        assert_eq!(got, expected_lines(cascades));
    }
}

#[test]
fn metrics_report_cache_hits_and_latency_quantiles() {
    let e = env();
    let h = start_server(ServerConfig::default());
    let cascades = &e.dataset.cascades[..3];
    let body = body_for(cascades);
    // Same payload twice: the second pass must hit the spectral cache.
    for _ in 0..2 {
        let (status, _) = predict(h.addr, &body, WINDOW);
        assert_eq!(status, 200);
    }
    let (status, text) =
        raw_request(h.addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 200);
    let metric = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing metric {name} in:\n{text}"))
    };
    assert_eq!(metric("cascn_spectral_cache_hits_total"), 3);
    assert_eq!(metric("cascn_spectral_cache_misses_total"), 3);
    assert_eq!(metric("cascn_predictions_total"), 6);
    assert_eq!(metric("cascn_predict_latency_us_count"), 2);
    assert!(metric("cascn_predict_latency_us{quantile=\"0.5\"}") > 0);
    assert!(metric("cascn_predict_latency_us{quantile=\"0.99\"}") > 0);
    assert_eq!(metric("cascn_requests_total{class=\"ok\"}"), 2);
}

#[test]
fn reload_bumps_the_version_and_keeps_parity() {
    let e = env();
    let h = start_server(ServerConfig::default());
    let cascades = &e.dataset.cascades[..2];
    let before = predict(h.addr, &body_for(cascades), WINDOW);
    let (status, body) =
        raw_request(h.addr, "POST /reload HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("reloaded version 2"), "{body}");
    let after = predict(h.addr, &body_for(cascades), WINDOW);
    assert_eq!(before, after, "same checkpoint must serve identical bits after reload");
}

#[test]
fn slow_and_idle_clients_time_out_and_never_block_shutdown() {
    let h = start_server(ServerConfig {
        read_timeout: Some(std::time::Duration::from_millis(200)),
        ..ServerConfig::default()
    });
    // A trickling (slowloris-style) sender: partial request line, then
    // silence. It must be answered 408 and disconnected, not hold a
    // worker forever.
    let mut slow = TcpStream::connect(h.addr).expect("connect");
    slow.write_all(b"GET /heal").expect("partial send");
    let (status, body) = read_reply(&mut BufReader::new(slow));
    assert_eq!(status, 408, "{body}");
    // An idle keep-alive client that stays connected and sends nothing.
    let idle = TcpStream::connect(h.addr).expect("connect");
    // Other clients are still served while it idles...
    let (status, body) = raw_request(h.addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    // ...and shutdown completes while it is still connected: Drop sends
    // POST /shutdown and joins the server thread, which would hang here
    // (until the harness timeout) if idle reads were unbounded.
    drop(h);
    drop(idle);
}

/// One `POST /observe` over its own connection.
fn observe(addr: std::net::SocketAddr, body: &str, window: f64) -> (u16, String) {
    let raw = format!(
        "POST /observe?window={window} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    raw_request(addr, &raw)
}

#[test]
fn observe_stream_then_predict_matches_one_shot() {
    let e = env();
    let h = start_server(ServerConfig::default());
    let c = e
        .dataset
        .cascades
        .iter()
        .find(|c| c.events.len() >= 5)
        .expect("dataset has a cascade with at least 5 events");

    // Register with the first two events, then stream the rest one at a time.
    let serialize = |events: &[cascn_cascades::Event]| {
        let mut s = format!("cascade {} {}\n", c.id, c.start_time);
        for ev in events {
            let parent = ev.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            s.push_str(&format!("event {} {parent} {}\n", ev.user, ev.time));
        }
        s
    };
    let (status, body) = observe(h.addr, &serialize(&c.events[..2]), WINDOW);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("created true"), "{body}");
    for ev in &c.events[2..] {
        let (status, body) = observe(h.addr, &serialize(std::slice::from_ref(ev)), WINDOW);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("created false"), "{body}");
    }

    // The incrementally maintained cascade must now serve the same bits as
    // a one-shot prediction over the full payload.
    let (status, served) = predict(h.addr, &body_for(std::slice::from_ref(c)), WINDOW);
    assert_eq!(status, 200, "{served}");
    assert_eq!(served, expected_lines(std::slice::from_ref(c)));

    // The predict above must have hit the observe-seeded basis cache, and
    // the observe counters must be live on the scrape.
    let (status, text) = raw_request(h.addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 200);
    assert!(text.contains("cascn_spectral_cache_hits_total 1"), "{text}");
    assert!(text.contains("cascn_live_cascades 1"), "{text}");
    assert!(text.contains("cascn_observe_latency_us_count"), "{text}");
}

#[test]
fn observe_rejects_bad_payloads_and_disabled_streaming() {
    let h = start_server(ServerConfig::default());
    // Suffix for a cascade the server has never seen.
    let (status, body) = observe(h.addr, "cascade 999 0\nevent 5 0 1.0\n", WINDOW);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown live cascade"), "{body}");
    // Malformed grammar: two cascade headers in one observe body.
    let (status, body) =
        observe(h.addr, "cascade 1 0\nevent 0 - 0\ncascade 2 0\nevent 0 - 0\n", WINDOW);
    assert_eq!(status, 400, "{body}");
    drop(h);

    // With live capacity 0 the route sheds instead of failing requests.
    let h = start_server(ServerConfig { live_capacity: 0, ..ServerConfig::default() });
    let (status, body) = observe(h.addr, "cascade 1 0\nevent 0 - 0\n", WINDOW);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("disabled"), "{body}");
}

#[test]
fn unknown_routes_get_404() {
    let h = start_server(ServerConfig::default());
    let (status, _) = raw_request(h.addr, "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 404);
    let (status, body) = raw_request(h.addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
}

// ---- microscopic next-user serving -------------------------------------

fn next_cfg() -> CascnConfig {
    CascnConfig {
        task: cascn::TaskKind::NextUser,
        vocab_users: 5000,
        ..tiny_cfg()
    }
}

/// One next-user checkpoint (exported v2 format) shared by the tests below.
fn next_ckpt_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("cascn_protocol_next_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("next.ckpt");
        let model = CascnModel::new(next_cfg());
        model.export_checkpoint().save(&path).expect("next checkpoint saves");
        path
    })
}

fn start_next_server(mut config: ServerConfig) -> ServerHandle {
    config.addr = "127.0.0.1:0".into();
    config.default_window = WINDOW;
    let registry = ModelRegistry::open(next_ckpt_path(), next_cfg()).expect("checkpoint loads");
    let server = Server::bind(config, registry).expect("bind ephemeral port");
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run());
    ServerHandle { addr, join: Some(join) }
}

/// One `POST /predict_next` over its own connection.
fn predict_next(addr: std::net::SocketAddr, body: &str, window: f64, k: usize) -> (u16, String) {
    let raw = format!(
        "POST /predict_next?window={window}&k={k} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    raw_request(addr, &raw)
}

/// The exact `next …` lines the server must produce for `cascades`.
fn expected_next_lines(cascades: &[Cascade], k: usize) -> String {
    let ckpt = TrainCheckpoint::load(next_ckpt_path()).expect("checkpoint loads");
    let model = CascnModel::from_checkpoint(next_cfg(), &ckpt).expect("params fit");
    let mut s = String::new();
    for c in cascades {
        s.push_str(&format!("next {}", c.id));
        for (user, p) in model.predict_next(c, WINDOW, k) {
            s.push_str(&format!(" {user} {p:?}"));
        }
        s.push('\n');
    }
    s
}

#[test]
fn predict_next_on_a_size_model_is_409() {
    let h = start_server(ServerConfig::default());
    let e = env();
    let (status, body) = predict_next(h.addr, &body_for(&e.dataset.cascades[..1]), WINDOW, 5);
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("next-user"), "{body}");
}

#[test]
fn served_predict_next_is_bit_identical_and_masks_infected_users() {
    let e = env();
    let h = start_next_server(ServerConfig::default());
    let cascades = &e.dataset.cascades[..4];
    let (status, body) = predict_next(h.addr, &body_for(cascades), WINDOW, 7);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected_next_lines(cascades, 7));
    // End-to-end mask contract: no served user may already be infected.
    for (line, c) in body.lines().zip(cascades) {
        let infected: Vec<u64> = c
            .events
            .iter()
            .filter(|ev| ev.time <= WINDOW)
            .map(|ev| ev.user)
            .collect();
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields[0], "next");
        assert_eq!(fields[1], c.id.to_string());
        for pair in fields[2..].chunks(2) {
            let user: u64 = pair[0].parse().expect("user id");
            assert!(
                !infected.contains(&user),
                "infected user {user} served in {line:?}"
            );
        }
    }
}

#[test]
fn concurrent_predict_next_clients_all_get_bit_identical_results() {
    let e = env();
    let h = start_next_server(ServerConfig {
        workers: 8,
        max_batch: 4,
        ..ServerConfig::default()
    });
    let addr = h.addr;
    let slices: Vec<&[Cascade]> = (0..8).map(|i| &e.dataset.cascades[i..i + 3]).collect();
    let expected: Vec<String> = slices.iter().map(|s| expected_next_lines(s, 5)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .iter()
            .map(|s| {
                let body = body_for(s);
                scope.spawn(move || predict_next(addr, &body, WINDOW, 5))
            })
            .collect();
        for (handle, want) in handles.into_iter().zip(&expected) {
            let (status, got) = handle.join().expect("client thread");
            assert_eq!(status, 200, "{got}");
            assert_eq!(&got, want, "served /predict_next diverged from direct predict_next");
        }
    });
}

#[test]
fn observe_stream_then_predict_next_matches_one_shot() {
    let e = env();
    let h = start_next_server(ServerConfig::default());
    let c = e
        .dataset
        .cascades
        .iter()
        .find(|c| c.events.len() >= 5)
        .expect("dataset has a cascade with at least 5 events");
    let serialize = |events: &[cascn_cascades::Event]| {
        let mut s = format!("cascade {} {}\n", c.id, c.start_time);
        for ev in events {
            let parent = ev.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            s.push_str(&format!("event {} {parent} {}\n", ev.user, ev.time));
        }
        s
    };
    let (status, body) = observe(h.addr, &serialize(&c.events[..2]), WINDOW);
    assert_eq!(status, 200, "{body}");
    for ev in &c.events[2..] {
        let (status, body) = observe(h.addr, &serialize(std::slice::from_ref(ev)), WINDOW);
        assert_eq!(status, 200, "{body}");
    }
    // The ranking must ride the incrementally updated spectral basis and
    // still serve the same bits as a cold one-shot call.
    let (status, served) = predict_next(h.addr, &body_for(std::slice::from_ref(c)), WINDOW, 10);
    assert_eq!(status, 200, "{served}");
    assert_eq!(served, expected_next_lines(std::slice::from_ref(c), 10));
    let (status, text) = raw_request(h.addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 200);
    assert!(text.contains("cascn_spectral_cache_hits_total 1"), "{text}");
    assert!(text.contains("cascn_predict_next_latency_us_count 1"), "{text}");
}
