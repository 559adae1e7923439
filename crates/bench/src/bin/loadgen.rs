//! Load generator for `cascn-serve`: concurrent keep-alive clients,
//! client-side latency percentiles, and optional metrics scrape/shutdown.
//!
//! ```text
//! cargo run --release -p cascn-bench --bin loadgen -- \
//!     --addr 127.0.0.1:8077 --requests 200 --concurrency 4 \
//!     --n-cascades 20 --window 25 --print-metrics --shutdown
//! ```
//!
//! Requests draw from a fixed pool of `--n-cascades` synthetic cascades,
//! two per request, rotating — so a run longer than the pool revisits
//! payloads and exercises the server's spectral cache. Exits nonzero if
//! any request fails outright (connection error, unexpected status).
//!
//! With `--observe-ratio R` (0.0–1.0), that fraction of requests is sent
//! as `POST /observe` instead: each one registers a fresh live cascade
//! (unique id per request), exercising the streaming-ingestion path and
//! its LRU registry under load. Observe latencies are reported on their
//! own line.
//!
//! With `--predict-next-ratio R` (0.0–1.0), that fraction of requests is
//! sent as `POST /predict_next?k=K` (next-user checkpoints only — a size
//! model answers 409, which loadgen counts as a hard failure). When a
//! request qualifies as both observe and predict_next, observe wins.
//! Next-user latencies are reported on their own line.
//!
//! Targets: `--addr HOST:PORT` for one server, or `--target-list FILE`
//! (one `HOST:PORT` per line, `#` comments allowed) to spread requests
//! round-robin over a tier — e.g. straight at the replicas behind a
//! `cascn-router`. Before any load is sent, every target is dialed with
//! `--connect-retries` attempts spaced `--connect-backoff-ms` apart, so
//! starting loadgen in the same breath as the server (as the smoke
//! scripts do) no longer races the server's bind.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::process::exit;
use std::time::{Duration, Instant};

use cascn_bench::percentile;
use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
use cascn_cascades::Cascade;
use cascn_serve::http::{read_response, Response};
use cascn_serve::router::MAX_BACKEND_BODY_BYTES;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid {name} `{v}`")),
    }
}

/// Outcome counts plus every successful request's latency in µs, bucketed
/// by the target that served it (index into the target list).
struct WorkerReport {
    ok: usize,
    shed: usize,
    failed: usize,
    per_target_us: Vec<Vec<u64>>,
    observe_ok: usize,
    observe_us: Vec<u64>,
    next_ok: usize,
    next_us: Vec<u64>,
}

impl WorkerReport {
    fn new(n_targets: usize) -> Self {
        Self {
            ok: 0,
            shed: 0,
            failed: 0,
            per_target_us: vec![Vec::new(); n_targets],
            observe_ok: 0,
            observe_us: Vec::new(),
            next_ok: 0,
            next_us: Vec::new(),
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let targets: Vec<String> = match flag_value(args, "--target-list") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading --target-list {path}: {e}"))?;
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        }
        None => vec![flag_value(args, "--addr")
            .ok_or("missing --addr HOST:PORT (or --target-list FILE)")?
            .to_string()],
    };
    if targets.is_empty() {
        return Err("--target-list named no targets".into());
    }
    let requests: usize = parse_or(args, "--requests", 100)?;
    let concurrency: usize = parse_or(args, "--concurrency", 4)?.max(1);
    let window: f64 = parse_or(args, "--window", 25.0)?;
    let n_cascades: usize = parse_or(args, "--n-cascades", 20)?.max(2);
    let seed: u64 = parse_or(args, "--seed", 7)?;
    let observe_ratio: f64 = parse_or(args, "--observe-ratio", 0.0)?;
    if !(0.0..=1.0).contains(&observe_ratio) {
        return Err(format!("--observe-ratio {observe_ratio} must be in [0, 1]"));
    }
    let next_ratio: f64 = parse_or(args, "--predict-next-ratio", 0.0)?;
    if !(0.0..=1.0).contains(&next_ratio) {
        return Err(format!("--predict-next-ratio {next_ratio} must be in [0, 1]"));
    }
    let top_k: usize = parse_or(args, "--k", 10)?.max(1);
    let connect_retries: usize = parse_or(args, "--connect-retries", 20)?;
    let connect_backoff = Duration::from_millis(parse_or(args, "--connect-backoff-ms", 50u64)?);
    let print_metrics = args.iter().any(|a| a == "--print-metrics");
    let shutdown = args.iter().any(|a| a == "--shutdown");

    // Don't let a racing startup read as load-test failures: a server
    // launched a moment ago may not have bound yet.
    for target in &targets {
        wait_ready(target, connect_retries, connect_backoff)?;
    }

    // A fixed pool of payload bodies; request i sends pool[i % len].
    let dataset = WeiboGenerator::new(WeiboConfig {
        num_cascades: n_cascades,
        seed,
        max_size: 40,
    })
    .generate();
    let bodies: Vec<String> = dataset
        .cascades
        .chunks(2)
        .map(serialize_cascades)
        .collect();
    // Observe payloads reuse the pool's event structure but remap the id
    // per request, so every observe registers a distinct live cascade.
    let observe_pool: Vec<&Cascade> = dataset.cascades.iter().collect();

    let started = Instant::now();
    let reports: Vec<WorkerReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..concurrency)
            .map(|w| {
                let targets = &targets;
                let bodies = &bodies;
                // Worker w sends requests w, w+C, w+2C, … so the request
                // count is exact for any concurrency.
                let observe_pool = &observe_pool;
                s.spawn(move || {
                    let mut report = WorkerReport::new(targets.len());
                    // One cached keep-alive connection per target.
                    let mut conns: Vec<Option<BufReader<TcpStream>>> =
                        (0..targets.len()).map(|_| None).collect();
                    for i in (w..requests).step_by(concurrency) {
                        let ti = i % targets.len();
                        let addr = targets[ti].as_str();
                        // Request i is an observe exactly when the running
                        // observe quota crosses an integer — the stream
                        // interleaves the two kinds at the requested ratio.
                        let is_observe = observe_ratio > 0.0
                            && ((i + 1) as f64 * observe_ratio).floor()
                                > (i as f64 * observe_ratio).floor();
                        let is_next = !is_observe
                            && next_ratio > 0.0
                            && ((i + 1) as f64 * next_ratio).floor()
                                > (i as f64 * next_ratio).floor();
                        let observe_body = if is_observe {
                            let c = observe_pool[i % observe_pool.len()];
                            Some(serialize_observe(c, 1_000_000 + i as u64))
                        } else {
                            None
                        };
                        let (path, body) = match &observe_body {
                            Some(b) => (format!("/observe?window={window}"), b.as_str()),
                            None if is_next => (
                                format!("/predict_next?window={window}&k={top_k}"),
                                bodies[i % bodies.len()].as_str(),
                            ),
                            None => {
                                (format!("/predict?window={window}"), bodies[i % bodies.len()].as_str())
                            }
                        };
                        let t0 = Instant::now();
                        // A send error on a cached keep-alive connection
                        // usually means the server closed it; one retry on
                        // a fresh connection separates that from real
                        // failures.
                        let mut outcome = send_post(&mut conns[ti], addr, &path, body);
                        if outcome.is_err() {
                            outcome = send_post(&mut conns[ti], addr, &path, body);
                        }
                        match outcome {
                            Ok(200) => {
                                report.ok += 1;
                                let us =
                                    t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                                if is_observe {
                                    report.observe_ok += 1;
                                    report.observe_us.push(us);
                                } else if is_next {
                                    report.next_ok += 1;
                                    report.next_us.push(us);
                                } else {
                                    report.per_target_us[ti].push(us);
                                }
                            }
                            Ok(503) => report.shed += 1,
                            Ok(status) => {
                                eprintln!("request {i}: unexpected status {status}");
                                report.failed += 1;
                            }
                            Err(e) => {
                                eprintln!("request {i}: {e}");
                                report.failed += 1;
                                conns[ti] = None;
                            }
                        }
                    }
                    report
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => {
                    let mut r = WorkerReport::new(targets.len());
                    r.failed += 1;
                    r
                }
            })
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut per_target: Vec<Vec<u64>> = vec![Vec::new(); targets.len()];
    let (mut ok, mut shed, mut failed) = (0usize, 0usize, 0usize);
    let mut observe_ok = 0usize;
    let mut observe_us: Vec<u64> = Vec::new();
    let mut next_ok = 0usize;
    let mut next_us: Vec<u64> = Vec::new();
    for r in reports {
        ok += r.ok;
        shed += r.shed;
        failed += r.failed;
        observe_ok += r.observe_ok;
        observe_us.extend(r.observe_us);
        next_ok += r.next_ok;
        next_us.extend(r.next_us);
        for (bucket, ls) in per_target.iter_mut().zip(r.per_target_us) {
            bucket.extend(ls);
        }
    }
    let mut latencies: Vec<u64> = per_target.iter().flatten().copied().collect();
    latencies.sort_unstable();
    println!(
        "loadgen: {ok} ok, {shed} shed, {failed} failed in {elapsed:.2}s ({:.1} req/s)",
        ok as f64 / elapsed.max(1e-9)
    );
    println!(
        "client latency: p50 {}us  p90 {}us  p99 {}us",
        percentile(&latencies, 0.5),
        percentile(&latencies, 0.9),
        percentile(&latencies, 0.99)
    );
    // The line format is stable for scripts (fleet_smoke parses it into
    // BENCH_serve.json).
    if observe_ratio > 0.0 {
        observe_us.sort_unstable();
        println!(
            "observe: {observe_ok} ok, p50 {}us p99 {}us (ratio {observe_ratio:.2})",
            percentile(&observe_us, 0.5),
            percentile(&observe_us, 0.99)
        );
    }
    if next_ratio > 0.0 {
        next_us.sort_unstable();
        println!(
            "predict_next: {next_ok} ok, p50 {}us p99 {}us (ratio {next_ratio:.2} k {top_k})",
            percentile(&next_us, 0.5),
            percentile(&next_us, 0.99)
        );
    }
    // Per-target breakdown: with a --target-list spreading load over a
    // replica tier, one slow replica shows up here even when the pooled
    // percentiles look healthy. The line format is stable for scripts
    // (fleet_smoke parses it into BENCH_serve.json).
    if targets.len() > 1 {
        for (ti, (addr, bucket)) in targets.iter().zip(&mut per_target).enumerate() {
            bucket.sort_unstable();
            println!(
                "target[{ti}] {addr}: {} ok, p50 {}us p99 {}us",
                bucket.len(),
                percentile(bucket, 0.5),
                percentile(bucket, 0.99)
            );
        }
    }

    if print_metrics {
        let text = simple_request(&targets[0], "GET", "/metrics")?;
        print!("{text}");
    }
    if shutdown {
        let _ = simple_request(&targets[0], "POST", "/shutdown")?;
        println!("loadgen: shutdown sent");
    }
    if failed > 0 || ok == 0 {
        return Err(format!("{failed} failed requests, {ok} ok"));
    }
    Ok(())
}

/// Blocks until `addr` accepts a TCP connection, retrying with a fixed
/// backoff. `retries == 0` skips the check entirely.
fn wait_ready(addr: &str, retries: usize, backoff: Duration) -> Result<(), String> {
    let mut last_err = String::new();
    for attempt in 0..retries {
        match TcpStream::connect(addr) {
            Ok(_) => return Ok(()),
            Err(e) => last_err = e.to_string(),
        }
        if attempt + 1 < retries {
            std::thread::sleep(backoff);
        }
    }
    if retries == 0 {
        return Ok(());
    }
    Err(format!("target {addr} not reachable after {retries} attempts: {last_err}"))
}

/// Writes cascades in the server's request text format.
fn serialize_cascades(cascades: &[Cascade]) -> String {
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

/// Serializes one cascade as an `/observe` body under a caller-chosen id,
/// so every observe registers a distinct live cascade.
fn serialize_observe(c: &Cascade, id: u64) -> String {
    let mut s = format!("cascade {id} {}\n", c.start_time);
    for e in &c.events {
        let parent = e.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        s.push_str(&format!("event {} {parent} {}\n", e.user, e.time));
    }
    s
}

/// Sends one POST over a cached keep-alive connection, reconnecting on
/// demand. Returns the response status.
fn send_post(
    conn: &mut Option<BufReader<TcpStream>>,
    addr: &str,
    path: &str,
    body: &str,
) -> Result<u16, String> {
    if conn.is_none() {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        *conn = Some(BufReader::new(stream));
    }
    let Some(reader) = conn.as_mut() else {
        return Err("no connection".into());
    };
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let outcome = (|| -> Result<(u16, bool), String> {
        reader
            .get_mut()
            .write_all(raw.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let resp = read_reply(reader)?;
        Ok((resp.status, resp.keep_alive))
    })();
    match outcome {
        Ok((status, keep_alive)) => {
            // The server says when it will close (shed responses, errors);
            // reusing such a connection would hit a dead socket.
            if !keep_alive {
                *conn = None;
            }
            Ok(status)
        }
        Err(e) => {
            *conn = None;
            Err(e)
        }
    }
}

/// One request on a fresh connection; returns the body.
fn simple_request(addr: &str, method: &str, path: &str) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let raw = format!("{method} {path} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\nContent-Length: 0\r\n\r\n");
    reader
        .get_mut()
        .write_all(raw.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let resp = read_reply(&mut reader)?;
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    if resp.status != 200 {
        return Err(format!("{method} {path}: status {}: {body}", resp.status));
    }
    Ok(body)
}

/// Reads one response under the router's body cap.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<Response, String> {
    read_response(reader, MAX_BACKEND_BODY_BYTES).map_err(|e| format!("read response: {e}"))
}
