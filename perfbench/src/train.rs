//! `train`: `CascnModel::fit` for a fixed number of epochs, repeated for the
//! run's duration on one seeded dataset.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use cascn::trainer::{train_loop_resumable, TrainHooks};
use cascn::{parallel_map, preprocess, CascnModel, PreprocessedCascade, TaskKind, TrainOpts};
use cascn_autograd::{ParamStore, Tape, Var};
use cascn_cascades::io::{dataset_from_str_lenient, dataset_to_string};
use cascn_cascades::{Cascade, Dataset, Split};

use crate::data::{self, WINDOW};
use crate::layers::Replay;
use crate::stats::{ns, Dist};
use crate::trace::Tracer;
use crate::{client, finish_trace, out_dir, Args, Report};

/// Data-parallel training threads.
const THREADS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Sizes {
    generated: usize,
    epochs: usize,
    replay_cascades: usize,
}

impl Sizes {
    fn new(tiny: bool) -> Self {
        if tiny {
            Self {
                generated: 160,
                epochs: 1,
                replay_cascades: 8,
            }
        } else {
            Self {
                generated: 450,
                epochs: 2,
                replay_cascades: 400,
            }
        }
    }
}

pub fn run(args: &Args, out: &mut Report) -> Result<(), String> {
    let sizes = Sizes::new(args.tiny);
    let dataset = set_up(&sizes, out)?;
    let train = dataset.split(Split::Train);
    let val = dataset.split(Split::Validation);
    out.note(format!(
        "dataset: {} train / {} validation cascades",
        train.len(),
        val.len()
    ));
    let cfg = data::model_config(THREADS, TaskKind::SizeRegression);
    let opts = TrainOpts {
        epochs: sizes.epochs,
        patience: sizes.epochs,
        threads: THREADS,
        shuffle_seed: args.seed,
        ..TrainOpts::default()
    };

    // Timed phase: whole `fit` calls until the run's time is spent.
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut reference: Option<f32> = None;
    while walls.len() < 3 || started.elapsed() < budget {
        let t0 = Instant::now();
        let mut model = CascnModel::new(cfg);
        let history = model.fit(train, val, WINDOW, &opts);
        walls.push(ns(t0.elapsed()));
        check_msle(out, best_val(&history), &mut reference);
    }
    let ms: Vec<String> = walls.iter().map(|w| format!("{:.0}", w / 1e6)).collect();
    out.note(format!("fit wall times (ms, in order): {}", ms.join(" ")));
    let walls = Dist::new(walls);
    let samples_per_fit = (sizes.epochs * train.len()) as f64;
    out.metric(
        "throughput_per_s",
        samples_per_fit / (walls.median() / 1e9),
        walls.count(),
    );
    out.metric("p50_ms", walls.median() / 1e6, walls.count());
    out.metric("p99_ms", walls.p(0.99) / 1e6, walls.count());
    out.note(format!(
        "fit wall time: p99 rests on {} fits beyond it",
        walls.beyond(0.99)
    ));
    let val_msle = reference.unwrap_or(f32::NAN) as f64;
    out.note(format!(
        "val_msle {val_msle} msle (identical across {} fits)",
        walls.count()
    ));
    out.metric("rss_mb", client::vm_hwm_mb("/proc/self/status")?, 1);

    if args.trace {
        traced(args, &sizes, cfg, opts, train, val, &walls, val_msle, out)?;
    }
    Ok(())
}

/// Generate the dataset, write it in the `cascn generate` text format, load
/// it back through the lenient loader `cascn train --data` uses; repeated,
/// median reported.
fn set_up(sizes: &Sizes, out: &mut Report) -> Result<Dataset, String> {
    let path = out_dir()?.join(format!("train-{}.cascades", std::process::id()));
    let mut times = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let generated = data::weibo(sizes.generated, data::CORPUS_SEED);
        std::fs::write(&path, dataset_to_string(&generated))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (dataset, quarantine) = dataset_from_str_lenient(&text, "bench");
        times.push(ns(t0.elapsed()) / 1e9);
        out.op(
            quarantine.is_clean() && dataset.cascades == generated.cascades,
            || "dataset did not survive the text round trip".into(),
        );
        loaded = Some(dataset);
    }
    let _ = std::fs::remove_file(&path);
    let times = Dist::new(times);
    out.metric("setup_s", times.median(), times.count());
    let dataset = loaded.ok_or("no set-up ran")?;
    Ok(dataset.filter_observed_size(WINDOW, data::MIN_SIZE, usize::MAX))
}

fn best_val(history: &cascn_nn::train::History) -> f32 {
    history.best().map_or(f32::NAN, |r| r.val_loss)
}

/// `val_msle` must be finite and bit-identical for every fit of a seed.
fn check_msle(out: &mut Report, msle: f32, reference: &mut Option<f32>) {
    let expected = *reference.get_or_insert(msle);
    out.op(
        msle.is_finite() && msle.to_bits() == expected.to_bits(),
        || format!("val_msle {msle} differs from the first fit's {expected}"),
    );
}

/// A start and an end.
type Interval = (Instant, Instant);

/// Training-loop events the hooks collect, turned into spans after the fit.
#[derive(Default)]
struct LoopLog {
    /// Forward calls since the last hook: (start, end).
    pending: Vec<Interval>,
    last_post_grad: Option<Instant>,
    /// (name, start, end, child forward calls)
    spans: Vec<(&'static str, Interval, Vec<Interval>)>,
}

impl LoopLog {
    /// Closes the phase that the pending forward calls belong to: a batch's
    /// gradient phase (at `post_grad`) or a validation sweep (at the
    /// epoch observer). The step before it runs from the previous
    /// `post_grad` to its first forward call.
    fn close(&mut self, name: &'static str, now: Instant, after_post_grad: bool) {
        let calls = std::mem::take(&mut self.pending);
        let first = calls.iter().map(|c| c.0).min().unwrap_or(now);
        if let Some(prev) = self.last_post_grad {
            self.spans.push(("train.step", (prev, first), Vec::new()));
        }
        self.spans.push((name, (first, now), calls));
        self.last_post_grad = after_post_grad.then_some(now);
    }
}

/// One `fit`, rebuilt from the same public pieces with spans: cold
/// preprocessing, then `train_loop_resumable` with a timed forward closure,
/// a `post_grad` hook and an epoch observer.
fn traced_fit(
    cfg: cascn::CascnConfig,
    opts: &TrainOpts,
    train: &[Cascade],
    val: &[Cascade],
    tracer: &mut Tracer,
    fit: u64,
) -> Result<(CascnModel, f32, Vec<PreprocessedCascade>), String> {
    let root = tracer.open("train.fit", fit);
    let mut model = CascnModel::new(cfg);
    let (train_s, val_s) = tracer.span("core.input.preprocess", fit, || {
        let pre =
            |cs: &[Cascade]| parallel_map(cfg.threads, cs, |_, c| preprocess(c, WINDOW, &cfg));
        (pre(train), pre(val))
    });
    let labels: Vec<f32> = train_s.iter().map(|s| s.label_log).collect();
    let increments: Vec<usize> = val_s.iter().map(|s| s.increment).collect();
    let log = Mutex::new(LoopLog::default());
    let fwd_model = model.clone();
    let forward = |tape: &mut Tape, store: &ParamStore, s: &PreprocessedCascade| -> Var {
        let t0 = Instant::now();
        let v = fwd_model.forward(tape, store, s);
        let t1 = Instant::now();
        log.lock()
            .expect("loop log poisoned")
            .pending
            .push((t0, t1));
        v
    };
    let mut post_grad = |_: usize, _: usize, _: &mut ParamStore| {
        log.lock()
            .expect("loop log poisoned")
            .close("train.batch", Instant::now(), true);
    };
    let mut observer = |_: usize, _: &ParamStore| {
        log.lock()
            .expect("loop log poisoned")
            .close("train.val", Instant::now(), false);
    };
    let mut store = model.params().clone();
    let history = train_loop_resumable(
        &mut store,
        &forward,
        &train_s,
        &labels,
        &val_s,
        &increments,
        opts,
        None,
        None,
        &mut observer,
        TrainHooks {
            post_grad: Some(&mut post_grad),
        },
    )
    .map_err(|e| e.to_string())?;
    model.set_params(store);
    tracer.close(root);
    let log = log.into_inner().map_err(|_| "loop log poisoned")?;
    for (name, (start, end), calls) in log.spans {
        let id = tracer.push(name, fit, start, end, Some(root));
        let child = if name == "train.val" {
            "train.val.forward"
        } else {
            "train.forward"
        };
        for (a, b) in calls {
            tracer.push(child, fit, a, b, Some(id));
        }
    }
    Ok((model, best_val(&history), train_s))
}

#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    sizes: &Sizes,
    cfg: cascn::CascnConfig,
    opts: TrainOpts,
    train: &[Cascade],
    val: &[Cascade],
    untraced: &Dist,
    val_msle: f64,
    out: &mut Report,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut last = None;
    while walls.is_empty() || started.elapsed() < budget {
        let t0 = Instant::now();
        let (model, msle, samples) =
            traced_fit(cfg, &opts, train, val, &mut tracer, walls.len() as u64)?;
        walls.push(ns(t0.elapsed()));
        out.op(msle.to_bits() == (val_msle as f32).to_bits(), || {
            format!("traced fit val_msle {msle} differs from the untraced {val_msle}")
        });
        last = Some((model, samples));
    }
    let walls = Dist::new(walls);
    out.note(format!(
        "traced fit wall p50 {} ms (n={}) vs untraced {} ms (n={})",
        walls.median() / 1e6,
        walls.count(),
        untraced.median() / 1e6,
        untraced.count()
    ));
    out.metric(
        "trace.overhead_pct",
        100.0 * (walls.median() / untraced.median() - 1.0),
        walls.count(),
    );
    out.metric("e2e.val_msle", val_msle, untraced.count());

    let dur = |name: &str| Dist::new(tracer.durations_us(name));
    let forward = dur("train.forward");
    let batches = dur("train.batch");
    out.metric("train.forward_us", forward.median(), forward.count());
    out.metric(
        "train.grad_phase_ms",
        batches.median() / 1e3,
        batches.count(),
    );
    let steps = dur("train.step");
    out.metric("train.step_ms", steps.median() / 1e3, steps.count());
    let vals = dur("train.val");
    out.metric("train.val_ms", vals.median() / 1e3, vals.count());
    let pre = dur("core.input.preprocess");
    out.metric("core.input.preprocess_ms", pre.median() / 1e3, pre.count());

    // Backward on the trained model's loss tapes, once per training sample,
    // one at a time.
    let (model, samples) = last.ok_or("no traced fit ran")?;
    let mut backward = Vec::new();
    for s in &samples {
        let mut tape = Tape::new();
        let pred = model.forward(&mut tape, model.params(), s);
        let loss = tape.squared_error(pred, s.label_log);
        let t0 = Instant::now();
        tape.backward(loss);
        let grads = tape.param_grads();
        backward.push(ns(t0.elapsed()) / 1e3);
        std::hint::black_box(grads);
    }
    let backward = Dist::new(backward);
    out.metric("autograd.backward_us", backward.median(), backward.count());
    // Every epoch runs each training sample's forward and backward once.
    let epochs_run = forward.count() as f64 / samples.len() as f64;
    let busy_us = forward.sum() + backward.sum() * epochs_run;
    out.metric(
        "core.parallel.efficiency",
        busy_us / (THREADS as f64 * batches.sum()),
        batches.count(),
    );

    // The cold request path and layer probes on the validation and train
    // cascades, against the trained model.
    let mut replay = Replay::new(&model);
    for (i, c) in val
        .iter()
        .chain(train)
        .take(sizes.replay_cascades)
        .enumerate()
    {
        let raw = client::request_bytes(
            "POST",
            "/predict?window=3600",
            data::body(c, c.id, 0).as_bytes(),
        );
        let response = format!("prediction {} {:?}\n", c.id, model.predict_log(c, WINDOW));
        let (cascade, basis) = replay
            .predict(i as u64, &raw, &response)
            .ok_or("replay failed to parse")?;
        replay.probe(i as u64, &cascade, Some(basis), false);
    }
    replay.report(out, &[], &[]);
    out.not_entered(&[
        "cascades.parse_observe_us",
        "serve.overhead_us",
        "serve.overhead_observe_us",
        "serve.cache.hit_ratio",
        "serve.batch.size_mean",
        "graph.incremental.warm_fallbacks",
        "serve.live.observe_us_p50",
        "serve.live.observe_us_p99",
        "model.predict_next_us_p50",
        "model.predict_next_us_p99",
        "e2e.observe_p50_ms",
        "e2e.observe_p99_ms",
    ]);
    finish_trace(args, tracer, replay.tracer, out)
}
