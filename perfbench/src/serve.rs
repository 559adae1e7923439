//! `serve_cold` and `serve_stream`: the shipped `cascn-serve` in a child
//! process, driven in a closed loop over one keep-alive connection with one
//! request in flight, the server at `--threads 1 --workers 1`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cascn::{parallel_map, preprocess, CascnModel, TaskKind, TrainOpts};
use cascn_cascades::{Cascade, Dataset, Split};
use cascn_serve::LiveRegistry;

use crate::client::{request_bytes, Conn, Scrape, Server};
use crate::data::{self, Step, StreamPlan, TOP_K, WINDOW};
use crate::layers::Replay;
use crate::stats::{ns, Dist};
use crate::trace::Tracer;
use crate::{finish_trace, out_dir, Args, Report};

/// Server boots per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Distinct cascades in one `serve_cold` pass.
const COLD_POOL: usize = 400;
/// Requests sent before the timed phase of `serve_cold`.
const COLD_WARMUP: usize = 50;
/// Live cascades in one `serve_stream` pass.
const LIVE: usize = 24;
/// Live cascades of the untimed warm-up pass of `serve_stream`.
const STREAM_WARMUP: usize = 2;
/// The streaming parity gate: served probabilities within this of the
/// library's cold-path `predict_next`.
const STREAM_GATE: f32 = 5e-4;
/// Steps of `serve_stream` replayed in process by the traced run.
const STREAM_REPLAY: usize = 1_200;

/// One request/response pair as the client saw it.
struct Exchange {
    status: u16,
    body: String,
    ms: f64,
}

fn exchange(conn: &mut Conn, raw: &[u8]) -> Result<(Exchange, Instant, Instant), String> {
    let t0 = Instant::now();
    let (status, body) = conn.send(raw).map_err(|e| format!("request failed: {e}"))?;
    let t1 = Instant::now();
    Ok((
        Exchange {
            status,
            body,
            ms: ns(t1 - t0) / 1e6,
        },
        t0,
        t1,
    ))
}

/// What one timed phase against one server process measured.
struct Phase<T> {
    warm: Vec<T>,
    timed: Vec<T>,
    wall: Duration,
    before: Scrape,
    after: Scrape,
    rss_mb: f64,
}

impl<T> Phase<T> {
    fn hit_ratio(&self) -> f64 {
        let hits = self.after.cache_hits - self.before.cache_hits;
        let misses = self.after.cache_misses - self.before.cache_misses;
        hits / (hits + misses).max(1.0)
    }

    fn batch_mean(&self) -> f64 {
        (self.after.batch_sum - self.before.batch_sum)
            / (self.after.batch_count - self.before.batch_count).max(1.0)
    }
}

/// Boots a server, sends `warm` untimed, then `next` until the time budget
/// is spent and a whole number of `unit`s has been sent, scraping `/metrics`
/// around the timed part and reading VmHWM before the orderly shutdown.
#[allow(clippy::too_many_arguments)]
fn phase<S, T>(
    args: &Args,
    server_args: &[String],
    budget: Duration,
    unit: usize,
    state: &mut S,
    warm: impl FnOnce(&mut S, &mut Conn) -> Result<Vec<T>, String>,
    mut next: impl FnMut(&mut S, &mut Conn) -> Result<T, String>,
) -> Result<Phase<T>, String> {
    let server = Server::spawn(&args.server_bin, server_args)?;
    let mut conn = Conn::open(&server.addr)?;
    let warm = warm(state, &mut conn)?;
    let before = Scrape::fetch(&mut conn)?;
    let started = Instant::now();
    let mut timed = Vec::new();
    while started.elapsed() < budget || timed.len() % unit != 0 {
        timed.push(next(state, &mut conn)?);
    }
    let wall = started.elapsed();
    let after = Scrape::fetch(&mut conn)?;
    let rss_mb = server.peak_rss_mb()?;
    drop(conn);
    server.shutdown()?;
    Ok(Phase {
        warm,
        timed,
        wall,
        before,
        after,
        rss_mb,
    })
}

/// Trains a checkpoint for `task` on a corpus of its own (one epoch, fixed
/// seeds, so every workload seed serves the same model), writes it, and
/// loads it back the way the server does.
fn checkpoint(args: &Args, task: TaskKind) -> Result<(PathBuf, CascnModel), String> {
    let n = if args.tiny { 160 } else { 500 };
    let dataset = Dataset::new("bench", data::kept(&data::weibo(n, data::CORPUS_SEED + 1)));
    let (train, val) = (
        dataset.split(Split::Train),
        dataset.split(Split::Validation),
    );
    let opts = TrainOpts {
        epochs: 1,
        patience: 1,
        threads: 2,
        ..TrainOpts::default()
    };
    let mut model = CascnModel::new(data::model_config(2, task));
    match task {
        TaskKind::SizeRegression => drop(model.fit(train, val, WINDOW, &opts)),
        TaskKind::NextUser => drop(model.fit_next_user(train, val, WINDOW, &opts)),
    }
    let path = out_dir()?.join(format!("serve-{}-{}.ckpt", task.name(), std::process::id()));
    model
        .export_checkpoint()
        .save(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let lib = CascnModel::load(data::model_config(1, task), &path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((path, lib))
}

/// Spawn → first `200` on `/healthz`, repeated; each boot is shut down
/// cleanly and must exit 0.
fn set_up(args: &Args, server_args: &[String], out: &mut Report) -> Result<(), String> {
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        let server = Server::spawn(&args.server_bin, server_args)?;
        times.push(ns(server.ready_after) / 1e9);
        server.shutdown()?;
    }
    let times = Dist::new(times);
    out.metric("setup_s", times.median(), times.count());
    Ok(())
}

fn latency_metrics(out: &mut Report, p50: &'static str, p99: &'static str, ms: &Dist) {
    out.metric(p50, ms.median(), ms.count());
    out.metric(p99, ms.p(0.99), ms.count());
    if ms.beyond(0.99) < 10 {
        out.note(format!(
            "warning: {p99} rests on {} samples beyond it (want >= 10)",
            ms.beyond(0.99)
        ));
    }
}

fn predict_request(c: &Cascade, id: u64) -> Vec<u8> {
    request_bytes(
        "POST",
        "/predict?window=3600",
        data::body(c, id, 0).as_bytes(),
    )
}

// ---- serve_cold ---------------------------------------------------------

pub fn run_cold(args: &Args, out: &mut Report) -> Result<(), String> {
    let (ckpt, lib) = checkpoint(args, TaskKind::SizeRegression)?;
    let result = cold(args, &ckpt, &lib, out);
    let _ = std::fs::remove_file(&ckpt);
    result
}

fn cold(args: &Args, ckpt: &Path, lib: &CascnModel, out: &mut Report) -> Result<(), String> {
    let (pool_n, warm_n) = if args.tiny {
        (40, 5)
    } else {
        (COLD_POOL, COLD_WARMUP)
    };
    let corpus: Vec<Cascade> = data::corpus(if args.tiny { 200 } else { 2_000 })
        .iter()
        .map(|c| data::prefix(c, c.observed_size(WINDOW)))
        .collect();
    if corpus.len() < pool_n + warm_n {
        return Err(format!(
            "serve_cold needs {} cascades, the corpus has {}",
            pool_n + warm_n,
            corpus.len()
        ));
    }
    let warm = &corpus[pool_n..pool_n + warm_n];
    let pool = data::shuffled(corpus[..pool_n].to_vec(), args.seed);
    // Request `j` sends pool cascade `j % pool_n`, re-identified per pass.
    let id_of = |j: usize| pool[j % pool_n].id + (j / pool_n) as u64 * data::REID_STRIDE;
    let server_args = data::server_args(&ckpt.to_string_lossy(), TaskKind::SizeRegression);
    set_up(args, &server_args, out)?;

    let run_phase = |budget: Duration, tracer: Option<&mut Tracer>| {
        let mut state = (0usize, tracer);
        phase(
            args,
            &server_args,
            budget,
            pool_n,
            &mut state,
            |_, conn| {
                warm.iter()
                    .map(|c| exchange(conn, &predict_request(c, c.id)).map(|e| e.0))
                    .collect()
            },
            |(j, tracer), conn| {
                let raw = predict_request(&pool[*j % pool_n], id_of(*j));
                let (ex, t0, t1) = exchange(conn, &raw)?;
                if let Some(t) = tracer {
                    t.push("client.predict", *j as u64, t0, t1, None);
                }
                *j += 1;
                Ok(ex)
            },
        )
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let ph = run_phase(budget, None)?;
    out.note(format!(
        "serve_cold: {} passes over {pool_n} cascades",
        ph.timed.len() / pool_n
    ));

    // Served predictions must be bit-identical to the library's.
    let expected = parallel_map(2, &corpus[..pool_n + warm_n], |_, c| {
        lib.predict_log(c, WINDOW)
    });
    let by_id = |id: u64| {
        corpus
            .iter()
            .position(|c| c.id == id % data::REID_STRIDE)
            .map(|at| expected[at])
    };
    let sent = warm
        .iter()
        .map(|c| c.id)
        .chain((0..ph.timed.len()).map(id_of));
    for (id, ex) in sent.zip(ph.warm.iter().chain(&ph.timed)) {
        let want = format!("prediction {id} {:?}\n", by_id(id).unwrap_or(f32::NAN));
        out.op(ex.status == 200 && ex.body == want, || {
            format!(
                "/predict of {id} answered {} `{}`, library says `{}`",
                ex.status,
                ex.body.trim(),
                want.trim()
            )
        });
    }

    let ms = Dist::new(ph.timed.iter().map(|e| e.ms).collect());
    out.metric(
        "throughput_per_s",
        ph.timed.len() as f64 / ph.wall.as_secs_f64(),
        ph.timed.len(),
    );
    latency_metrics(out, "p50_ms", "p99_ms", &ms);
    out.metric("rss_mb", ph.rss_mb, 1);
    mechanisms(out, &ph, |r| r == 0.0, "0");

    if args.trace {
        let mut tracer = Tracer::new();
        let traced = run_phase(budget / 2, Some(&mut tracer))?;
        let traced_ms = Dist::new(traced.timed.iter().map(|e| e.ms).collect());
        overhead(out, &traced_ms, &ms);
        let mut replay = Replay::new(lib);
        for (j, ex) in ph.timed.iter().enumerate().take(pool_n) {
            let raw = predict_request(&pool[j % pool_n], id_of(j));
            let (cascade, basis) = replay
                .predict(j as u64, &raw, &ex.body)
                .ok_or_else(|| format!("replay could not parse request #{j}"))?;
            replay.probe(j as u64, &cascade, Some(basis), false);
        }
        let client_ms: Vec<f64> = ph.timed.iter().map(|e| e.ms).collect();
        replay.report(out, &client_ms, &[]);
        out.not_entered(&[
            "cascades.parse_observe_us",
            "serve.overhead_observe_us",
            "graph.incremental.warm_fallbacks",
            "serve.live.observe_us_p50",
            "serve.live.observe_us_p99",
            "core.input.preprocess_ms",
            "model.predict_next_us_p50",
            "model.predict_next_us_p99",
            "train.forward_us",
            "autograd.backward_us",
            "train.grad_phase_ms",
            "train.step_ms",
            "core.parallel.efficiency",
            "train.val_ms",
            "e2e.observe_p50_ms",
            "e2e.observe_p99_ms",
            "e2e.val_msle",
        ]);
        finish_trace(args, tracer, replay.tracer, out)?;
    }
    Ok(())
}

/// The closed loop must coalesce nothing (batch size 1) and the cache must
/// behave as the workload intends; reported as metrics in the traced run.
fn mechanisms<T>(out: &mut Report, ph: &Phase<T>, hit_ok: impl Fn(f64) -> bool, want: &str) {
    let (ratio, mean) = (ph.hit_ratio(), ph.batch_mean());
    out.note(format!(
        "serve.cache.hit_ratio {ratio} (want {want}); serve.batch.size_mean {mean} (want 1)"
    ));
    out.require(hit_ok(ratio), || {
        format!("spectral cache hit ratio {ratio}, want {want}")
    });
    out.require(mean == 1.0, || format!("mean batch size {mean}, want 1"));
    out.metric("serve.cache.hit_ratio", ratio, ph.timed.len());
    out.metric("serve.batch.size_mean", mean, ph.timed.len());
}

/// Tracing overhead: the traced phase's p50 against the untraced one's.
fn overhead(out: &mut Report, traced: &Dist, untraced: &Dist) {
    out.note(format!(
        "traced p50 {} ms (n={}) vs untraced {} ms (n={})",
        traced.median(),
        traced.count(),
        untraced.median(),
        untraced.count()
    ));
    out.metric(
        "trace.overhead_pct",
        100.0 * (traced.median() / untraced.median() - 1.0),
        traced.count(),
    );
}

// ---- serve_stream -------------------------------------------------------

/// One replay step: `/observe` then `/predict_next` on the new content.
struct StepExchange {
    step: Step,
    /// The cascade as the server holds it after the step.
    content: Cascade,
    observe: Exchange,
    next: Exchange,
}

impl StepExchange {
    /// Position of this content in the corpus-wide list of step contents.
    fn key(&self) -> (u64, usize) {
        (self.content.id % data::REID_STRIDE, self.step.to)
    }
}

pub fn run_stream(args: &Args, out: &mut Report) -> Result<(), String> {
    let (ckpt, lib) = checkpoint(args, TaskKind::NextUser)?;
    let result = stream(args, &ckpt, &lib, out);
    let _ = std::fs::remove_file(&ckpt);
    result
}

fn send_step(
    conn: &mut Conn,
    plan: &mut StreamPlan,
    tracer: Option<&mut Tracer>,
) -> Result<StepExchange, String> {
    let step = plan.step();
    let content = plan.content(&step);
    let (obs_raw, next_raw) = step_requests(&content, &step);
    let (observe, a0, a1) = exchange(conn, &obs_raw)?;
    let (next, b0, b1) = exchange(conn, &next_raw)?;
    if let Some(t) = tracer {
        t.push("client.observe", step.id, a0, a1, None);
        t.push("client.predict_next", step.id, b0, b1, None);
    }
    Ok(StepExchange {
        step,
        content,
        observe,
        next,
    })
}

fn step_requests(content: &Cascade, step: &Step) -> (Vec<u8>, Vec<u8>) {
    (
        request_bytes(
            "POST",
            "/observe?window=3600",
            data::body(content, step.id, step.from).as_bytes(),
        ),
        request_bytes(
            "POST",
            "/predict_next?window=3600&k=10",
            data::body(content, step.id, 0).as_bytes(),
        ),
    )
}

fn stream(args: &Args, ckpt: &Path, lib: &CascnModel, out: &mut Report) -> Result<(), String> {
    let (live_n, warm_n) = if args.tiny {
        (4, 1)
    } else {
        (LIVE, STREAM_WARMUP)
    };
    let corpus = data::corpus(40 * (live_n + warm_n));
    if corpus.len() < live_n + warm_n {
        return Err("serve_stream found too few live cascades".into());
    }
    let (live, warm) = (&corpus[..live_n], &corpus[live_n..live_n + warm_n]);
    let pass = StreamPlan::new(live, args.seed).pass_len();
    out.note(format!(
        "serve_stream: {live_n} live cascades, {pass} in-window events per pass"
    ));
    let server_args = data::server_args(&ckpt.to_string_lossy(), TaskKind::NextUser);
    set_up(args, &server_args, out)?;

    let run_phase = |budget: Duration, tracer: Option<&mut Tracer>| {
        let mut state = (StreamPlan::new(live, args.seed), tracer);
        phase(
            args,
            &server_args,
            budget,
            pass,
            &mut state,
            |_, conn| {
                let mut plan = StreamPlan::new(warm, args.seed);
                (0..plan.pass_len())
                    .map(|_| send_step(conn, &mut plan, None))
                    .collect()
            },
            |(plan, tracer), conn| send_step(conn, plan, tracer.as_deref_mut()),
        )
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let ph = run_phase(budget, None)?;
    out.note(format!("serve_stream: {} passes", ph.timed.len() / pass));

    // Every observe must land, every top-k must pass the streaming gate.
    // Each distinct content gets one library reference, whatever its id.
    let all: Vec<&StepExchange> = ph.warm.iter().chain(&ph.timed).collect();
    let mut keys: Vec<(u64, usize)> = all.iter().map(|s| s.key()).collect();
    keys.sort_unstable();
    keys.dedup();
    let firsts: Vec<&Cascade> = keys
        .iter()
        .filter_map(|k| all.iter().find(|s| s.key() == *k).map(|s| &s.content))
        .collect();
    let references = parallel_map(2, &firsts, |_, c| Reference::new(lib, c));
    for s in &all {
        out.op(
            s.observe.status == 200
                && s.observe
                    .body
                    .starts_with(&format!("observed {} size {} ", s.step.id, s.step.to)),
            || {
                format!(
                    "/observe of {} answered {} `{}`",
                    s.step.id,
                    s.observe.status,
                    s.observe.body.trim()
                )
            },
        );
        let next = match (s.next.status, keys.binary_search(&s.key())) {
            (200, Ok(at)) => references[at].check(lib, s.step.id, &s.next.body),
            (status, _) => Err(format!("status {status}")),
        };
        out.op(next.is_ok(), || {
            format!(
                "/predict_next of {} ({} events): {}",
                s.step.id,
                s.step.to,
                next.clone().unwrap_err()
            )
        });
    }

    let next_ms = Dist::new(ph.timed.iter().map(|s| s.next.ms).collect());
    let observe_ms = Dist::new(ph.timed.iter().map(|s| s.observe.ms).collect());
    let requests = 2 * ph.timed.len();
    out.metric(
        "throughput_per_s",
        requests as f64 / ph.wall.as_secs_f64(),
        requests,
    );
    latency_metrics(out, "p50_ms", "p99_ms", &next_ms);
    latency_metrics(out, "e2e.observe_p50_ms", "e2e.observe_p99_ms", &observe_ms);
    out.metric("rss_mb", ph.rss_mb, 1);
    mechanisms(out, &ph, |r| r >= 0.99, ">= 0.99");
    out.metric(
        "graph.incremental.warm_fallbacks",
        ph.after.warm_fallbacks - ph.before.warm_fallbacks,
        ph.timed.len(),
    );

    if args.trace {
        let mut tracer = Tracer::new();
        let traced = run_phase(budget / 2, Some(&mut tracer))?;
        let traced_ms = Dist::new(traced.timed.iter().map(|s| s.next.ms).collect());
        overhead(out, &traced_ms, &next_ms);
        // The timed steps from the start, through a registry of the
        // server's default capacity.
        let mut replay = Replay::new(lib);
        let registry = LiveRegistry::new(256);
        for (i, s) in ph.timed.iter().enumerate().take(STREAM_REPLAY) {
            let (obs_raw, next_raw) = step_requests(&s.content, &s.step);
            let basis = replay
                .observe(i as u64, &obs_raw, &s.observe.body, &registry)
                .ok_or_else(|| format!("replayed /observe of {} was refused", s.step.id))?;
            replay
                .predict_next(i as u64, &next_raw, &s.next.body, &basis)
                .ok_or_else(|| format!("replay could not parse the body of {}", s.step.id))?;
            if i % 8 == 0 {
                replay.probe(i as u64, &s.content, None, true);
            }
        }
        let client_ms: Vec<f64> = ph.timed.iter().map(|s| s.next.ms).collect();
        let client_observe_ms: Vec<f64> = ph.timed.iter().map(|s| s.observe.ms).collect();
        replay.report(out, &client_ms, &client_observe_ms);
        out.not_entered(&[
            "core.input.preprocess_ms",
            "train.forward_us",
            "autograd.backward_us",
            "train.grad_phase_ms",
            "train.step_ms",
            "core.parallel.efficiency",
            "train.val_ms",
            "e2e.val_msle",
        ]);
        finish_trace(args, tracer, replay.tracer, out)?;
    }
    Ok(())
}

/// The library's cold-path next-user probabilities for one content.
struct Reference {
    probs: Vec<f32>,
    mask: Vec<bool>,
    /// The `k`-th largest candidate probability.
    kth: f32,
    k: usize,
}

impl Reference {
    fn new(lib: &CascnModel, content: &Cascade) -> Self {
        let observed = content.observe(WINDOW).users();
        let probs = lib.next_probs(&preprocess(content, WINDOW, lib.config()), &observed);
        let mask = lib.infected_mask(&observed);
        let mut candidates: Vec<f32> = (1..probs.len())
            .filter(|&r| !mask[r])
            .map(|r| probs[r])
            .collect();
        candidates.sort_by(|a, b| b.total_cmp(a));
        let k = TOP_K.min(candidates.len());
        let kth = candidates
            .get(k.wrapping_sub(1))
            .copied()
            .unwrap_or(f32::INFINITY);
        Self {
            probs,
            mask,
            kth,
            k,
        }
    }

    /// Checks one `/predict_next` answer: `k` users, none already adopted, in
    /// non-increasing order, each probability within the streaming gate of
    /// the library's, and each user within the gate of the library's own
    /// top `k`.
    fn check(&self, lib: &CascnModel, id: u64, body: &str) -> Result<(), String> {
        let mut tokens = body.split_whitespace();
        if tokens.next() != Some("next") || tokens.next() != Some(id.to_string().as_str()) {
            return Err(format!("unexpected answer `{}`", body.trim()));
        }
        let rest: Vec<&str> = tokens.collect();
        let served: Vec<(u64, f32)> = rest
            .chunks(2)
            .map(|pair| match pair {
                [u, p] => Ok((
                    u.parse().map_err(|_| "bad user")?,
                    p.parse().map_err(|_| "bad probability")?,
                )),
                _ => Err("odd number of fields"),
            })
            .collect::<Result<_, &str>>()?;
        if served.len() != self.k {
            return Err(format!("{} users served, want {}", served.len(), self.k));
        }
        for (i, &(user, p)) in served.iter().enumerate() {
            let row = lib.user_row(user);
            if row == 0 || self.mask[row] {
                return Err(format!("user {user} is already adopted or unknown"));
            }
            let want = self.probs[row];
            if (p - want).abs() > STREAM_GATE {
                return Err(format!("user {user}: served {p}, library {want}"));
            }
            if want < self.kth - 2.0 * STREAM_GATE {
                return Err(format!(
                    "user {user} (library {want}) is outside the library's top {}",
                    self.k
                ));
            }
            if i > 0 && p > served[i - 1].1 {
                return Err("ranking is not in non-increasing order".into());
            }
        }
        Ok(())
    }
}
