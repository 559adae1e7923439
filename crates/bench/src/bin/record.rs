//! Canonical training-side performance record.
//!
//! `cargo run --release -p cascn-bench --bin record -- [--check] [--out PATH] [--baseline PATH]`
//!
//! Measures the CasCN hot path on a fixed synthetic workload — preprocess
//! throughput, one-epoch training time, forward-pass p50/p99 under the
//! default sparse Chebyshev kernel — plus the dense-oracle comparison
//! (speedup and max prediction delta), the forward-only `Eval` against the
//! same forward on the training tape (speedup and max prediction delta),
//! the matmul micro-kernel against the naive triple loop on one gate
//! step's products (speedup, max entry delta, and the instruction set the
//! kernel dispatched to as `gemm_isa`), the size of the training
//! tape one forward records (nodes and bytes),
//! and the microscopic next-user
//! scores (Hit@10 / MAP after a short deterministic train), plus the
//! number of corpus cascades whose directed φ solve did not converge, and
//! writes the result to `BENCH_train.json` at the invocation directory.
//!
//! `--check` additionally gates the run against the checked-in
//! `bench-baseline.json` (the perf analogue of the `lint-baseline.json`
//! ratchet): hard machine-independent gates on `sparse_speedup`,
//! `accuracy_delta`, `eval_speedup`, `eval_max_abs_delta`, `gemm_speedup`,
//! `gemm_max_abs_delta`, `tape_nodes`, `next_user_hit10` and
//! `phi_unconverged`, and
//! generous ratio bands on the wall-clock numbers so only catastrophic regressions
//! (a kernel silently falling back to the dense path, preprocessing
//! re-materializing bases) trip CI rather than scheduler noise.

use std::fmt::Write as _;
use std::time::Instant;

use cascn::{preprocess, CascnConfig, CascnModel, PreprocessedCascade, TaskKind, TrainOpts};
use cascn_autograd::Tape;
use cascn_bench::percentile;
use cascn_bench::ratchet::{args, check_against, flag_value, json_number, outside_band};
use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
use cascn_cascades::{Cascade, Dataset, Split};
use cascn_graph::laplacian;
use cascn_nn::{metrics, ChebOperands};
use cascn_tensor::Matrix;

const WINDOW: f64 = 3600.0;
const FORWARD_TARGETS: usize = 24;
const FORWARD_REPS: usize = 5;
const CONV_REPS: usize = 200;

fn cfg() -> CascnConfig {
    CascnConfig {
        k: 2,
        hidden: 8,
        mlp_hidden: 8,
        max_nodes: 40,
        max_steps: 10,
        seed: 9,
        ..CascnConfig::default()
    }
}

/// Forward-latency configuration: paper-scale hidden width and node
/// padding, because the kernel comparison is about the serving hot path on
/// realistic cascades — at toy sizes the dense n×n matmul is too small for
/// the sparse operator's savings to show.
fn fwd_cfg() -> CascnConfig {
    CascnConfig {
        k: 2,
        hidden: 32,
        max_nodes: 100,
        max_steps: 20,
        seed: 9,
        ..CascnConfig::default()
    }
}

fn workload() -> Dataset {
    WeiboGenerator::new(WeiboConfig {
        num_cascades: 200,
        seed: 77,
        max_size: 200,
    })
    .generate()
    .filter_observed_size(WINDOW, 5, 80)
}

/// Per-call latencies (µs, sorted ascending) of each of `predict` over
/// preprocessed samples — the spectral basis is computed once up front,
/// exactly like the serving tier's cache, so the numbers isolate the forward
/// pass rather than the shared preprocessing pipeline. The predictors run
/// interleaved, each sample through all of them back to back in an order
/// that rotates every rep, so their latencies share the machine's state.
fn forward_latencies<const N: usize>(
    samples: &[PreprocessedCascade],
    predict: [&dyn Fn(&PreprocessedCascade) -> f32; N],
) -> [Vec<u64>; N] {
    let mut out = [(); N].map(|()| Vec::new());
    // Rep 0 is untimed: it absorbs lazy one-time costs (allocator warm-up).
    for rep in 0..=FORWARD_REPS {
        for s in samples {
            for k in (0..N).map(|k| (k + rep) % N) {
                let t0 = Instant::now();
                std::hint::black_box(predict[k](s));
                if rep > 0 {
                    out[k].push(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                }
            }
        }
    }
    out.map(|mut lat| {
        lat.sort_unstable();
        lat
    })
}

/// The size prediction of [`CascnModel::forward`] recorded on a training
/// tape — what inference ran on before the forward-only `Eval`.
fn tape_predict(model: &CascnModel, sample: &PreprocessedCascade) -> f32 {
    let mut tape = Tape::new();
    let pred = model.forward(&mut tape, model.params(), sample);
    tape.scalar(pred)
}

/// Mean nodes and mean bytes ([`Tape::len`], [`Tape::bytes`]) of the
/// training tape one forward of `model` records, over `samples`.
fn tape_size(model: &CascnModel, samples: &[PreprocessedCascade]) -> (f64, f64) {
    let (mut nodes, mut bytes) = (0usize, 0usize);
    for s in samples {
        let mut tape = Tape::new();
        model.forward(&mut tape, model.params(), s);
        nodes += tape.len();
        bytes += tape.bytes();
    }
    let count = samples.len().max(1) as f64;
    (nodes as f64 / count, bytes as f64 / count)
}

/// p50 latency (ns) of one Chebyshev conv-stack application on an `n×d`
/// feature block — the per-gate unit of work the sparse kernel optimizes.
/// Basis materialization / tape-constant entry happens outside the timed
/// region for the dense kernel, mirroring the serving tier's cached bases.
fn conv_stack_p50(sample: &PreprocessedCascade, dense: bool, d: usize) -> u64 {
    let n = sample.basis.num_nodes();
    let feat = Matrix::from_fn(n, d, |r, c| ((r * 31 + c * 7) % 13) as f32 / 13.0 - 0.5);
    let bases = dense.then(|| sample.basis.materialize());
    let mut lat = Vec::with_capacity(CONV_REPS);
    for _ in 0..CONV_REPS {
        let mut tape = Tape::new();
        let x = tape.constant(feat.clone());
        let operands = match &bases {
            Some(b) => ChebOperands::dense(&mut tape, b),
            None => ChebOperands::sparse(&sample.basis),
        };
        let t0 = Instant::now();
        std::hint::black_box(operands.conv_stack(&mut tape, x));
        lat.push(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    }
    lat.sort_unstable();
    percentile(&lat, 0.5)
}

/// The dense products of one LSTM gate step at the forward configuration:
/// `n × hidden` states times the `hidden × 4·hidden` packed gate weights
/// (`A·B`), and its two backward products `∂C·Bᵀ` and `Aᵀ·∂C`, for a
/// 44-node cascade.
const GEMM_NODES: usize = 44;
const GEMM_HIDDEN: usize = 32;
const GEMM_GATES: usize = 4 * GEMM_HIDDEN;
const GEMM_REPS: usize = 100;

/// One operand of [`naive_gemm`]: a row-major buffer read through row and
/// column strides, so element `(i, j)` is `data[i * rs + j * cs]` and a
/// transposed operand is the same buffer under swapped strides.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> View<'a> {
    fn of(m: &'a Matrix) -> Self {
        Self { data: m.as_slice(), rs: m.cols(), cs: 1 }
    }

    fn transposed(m: &'a Matrix) -> Self {
        Self { data: m.as_slice(), rs: 1, cs: m.cols() }
    }
}

/// The textbook product of an `m × k` and a `k × n` view: every sum in
/// ascending `p` from `+0.0`, the order the micro-kernel promises to
/// reproduce bit for bit. Non-generic and never inlined, so its machine
/// code is the same in every build and `gemm_speedup` measures the kernel,
/// not how this loop happened to be compiled into its caller.
#[inline(never)]
fn naive_gemm(a: View<'_>, b: View<'_>, (m, k, n): (usize, usize, usize)) -> Matrix {
    let mut out = vec![0.0f32; m * n];
    for (idx, o) in out.iter_mut().enumerate() {
        let (i, j) = (idx / n, idx % n);
        let mut acc = 0.0f32;
        for p in 0..k {
            acc += a.data[i * a.rs + p * a.cs] * b.data[p * b.rs + j * b.cs];
        }
        *o = acc;
    }
    Matrix::from_vec(m, n, out)
}

/// p50 latency (ns) of `f` over [`GEMM_REPS`] calls, after one untimed
/// call.
fn gemm_p50(f: impl Fn() -> Matrix) -> u64 {
    std::hint::black_box(f());
    let mut lat: Vec<u64> = (0..GEMM_REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
        })
        .collect();
    lat.sort_unstable();
    percentile(&lat, 0.5)
}

/// The shared matmul micro-kernel against [`naive_gemm`] on the gate-step
/// products: the speedup of the summed p50 latencies, and the largest
/// absolute difference of any output entry (0 when the kernel keeps the
/// naive summation order).
fn gemm_vs_naive() -> (f64, f64) {
    let value = |rows: usize, cols: usize, seed: usize| {
        Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 17 + seed) % 23) as f32 / 11.0 - 1.0)
    };
    let h = value(GEMM_NODES, GEMM_HIDDEN, 1);
    let u = value(GEMM_HIDDEN, GEMM_GATES, 2);
    let g = value(GEMM_NODES, GEMM_GATES, 3);
    let (mut kernel_ns, mut naive_ns, mut max_delta) = (0u64, 0u64, 0.0f64);
    let mut compare = |kernel: &dyn Fn() -> Matrix, naive: &dyn Fn() -> Matrix| {
        kernel_ns += gemm_p50(kernel);
        naive_ns += gemm_p50(naive);
        for (&x, &y) in kernel().as_slice().iter().zip(naive().as_slice()) {
            max_delta = max_delta.max(f64::from((x - y).abs()));
        }
    };
    compare(&|| h.matmul(&u), &|| {
        naive_gemm(View::of(&h), View::of(&u), (GEMM_NODES, GEMM_HIDDEN, GEMM_GATES))
    });
    compare(&|| g.matmul_a_bt(&u), &|| {
        naive_gemm(View::of(&g), View::transposed(&u), (GEMM_NODES, GEMM_GATES, GEMM_HIDDEN))
    });
    compare(&|| h.matmul_at_b(&g), &|| {
        naive_gemm(View::transposed(&h), View::of(&g), (GEMM_HIDDEN, GEMM_NODES, GEMM_GATES))
    });
    (naive_ns as f64 / kernel_ns.max(1) as f64, max_delta)
}

struct Record {
    preprocess_cascades_per_s: f64,
    epoch_seconds: f64,
    forward_p50_us: u64,
    forward_p99_us: u64,
    dense_forward_p50_us: u64,
    tape_forward_p50_us: u64,
    eval_speedup: f64,
    eval_max_abs_delta: f64,
    conv_sparse_p50_ns: u64,
    conv_dense_p50_ns: u64,
    sparse_speedup: f64,
    accuracy_delta: f64,
    gemm_speedup: f64,
    gemm_max_abs_delta: f64,
    tape_nodes: f64,
    tape_bytes: f64,
    next_user_hit10: f64,
    next_user_map: f64,
    phi_unconverged: usize,
}

fn measure() -> Result<Record, String> {
    let data = workload();
    let train: Vec<Cascade> = data.split(Split::Train).to_vec();
    let val: Vec<Cascade> = data.split(Split::Validation).to_vec();
    // Forward targets: the largest observed cascades, so the latency
    // percentiles describe the hot path near the padding cap instead of
    // trivial five-node graphs.
    let mut by_size: Vec<Cascade> = data.cascades.to_vec();
    by_size.sort_by_key(|c| std::cmp::Reverse(c.events.len()));
    let targets: Vec<Cascade> = by_size.into_iter().take(FORWARD_TARGETS).collect();
    eprintln!(
        "record: {} train / {} val / {} forward targets",
        train.len(),
        val.len(),
        targets.len()
    );

    // Preprocess throughput.
    let sparse_cfg = cfg();
    let t0 = Instant::now();
    for c in data.cascades.iter() {
        std::hint::black_box(preprocess(c, WINDOW, &sparse_cfg));
    }
    let preprocess_cascades_per_s = data.cascades.len() as f64 / t0.elapsed().as_secs_f64();

    // Forward-pass latency: the shipped sparse kernel vs. the dense oracle
    // (materialized bases, built outside the timed region) — one model, so
    // the two runs differ only in the convolution operands.
    let fwd_model = CascnModel::new(fwd_cfg());
    let sparse_samples: Vec<PreprocessedCascade> = targets
        .iter()
        .map(|c| preprocess(c, WINDOW, fwd_model.config()))
        .collect();
    let dense_samples: Vec<PreprocessedCascade> = sparse_samples
        .iter()
        .map(|s| s.clone().with_dense_bases())
        .collect();
    // The same sparse forward recorded on a training tape, timed
    // interleaved with it: the speedup of the forward-only `Eval` that
    // inference runs on, and its exactness (the two run the same kernels,
    // so any delta is a bug).
    let predict = |s: &PreprocessedCascade| fwd_model.predict_log_sample(s);
    let [sparse_lat, tape_lat] =
        forward_latencies(&sparse_samples, [&predict, &|s| tape_predict(&fwd_model, s)]);
    let [dense_lat] = forward_latencies(&dense_samples, [&predict]);
    let forward_p50_us = percentile(&sparse_lat, 0.5);
    let forward_p99_us = percentile(&sparse_lat, 0.99);
    let dense_forward_p50_us = percentile(&dense_lat, 0.5);
    let tape_forward_p50_us = percentile(&tape_lat, 0.5);
    let eval_speedup = tape_forward_p50_us as f64 / forward_p50_us.max(1) as f64;
    let eval_max_abs_delta = sparse_samples
        .iter()
        .map(|s| f64::from((fwd_model.predict_log_sample(s) - tape_predict(&fwd_model, s)).abs()))
        .fold(0.0f64, f64::max);
    let (tape_nodes, tape_bytes) = tape_size(&fwd_model, &sparse_samples);

    // Conv-stage speedup on the largest (most representative) cascade:
    // this isolates the Chebyshev convolution the tentpole moved from
    // O(K·n²·d) to O(K·nnz·d); whole-forward latency above also carries the
    // kernel-independent gate matmuls, pooling, and MLP.
    let big = &sparse_samples[0];
    let conv_sparse_p50_ns = conv_stack_p50(big, false, 32);
    let conv_dense_p50_ns = conv_stack_p50(big, true, 32);
    let sparse_speedup = conv_dense_p50_ns as f64 / conv_sparse_p50_ns.max(1) as f64;

    let accuracy_delta = sparse_samples
        .iter()
        .zip(&dense_samples)
        .map(|(s, d)| {
            f64::from((fwd_model.predict_log_sample(s) - fwd_model.predict_log_sample(d)).abs())
        })
        .fold(0.0f64, f64::max);

    let (gemm_speedup, gemm_max_abs_delta) = gemm_vs_naive();

    // One training epoch, serial, under the sparse kernel.
    let opts = TrainOpts {
        epochs: 1,
        patience: 1,
        threads: 1,
        ..TrainOpts::default()
    };
    let mut model = CascnModel::new(cfg());
    let t0 = Instant::now();
    model.fit(&train, &val, WINDOW, &opts);
    let epoch_seconds = t0.elapsed().as_secs_f64();

    // Microscopic task: a short next-user training run on its own small
    // workload, scored with Hit@10 / MAP over every prefix in the dataset
    // (train included — the gate is a functional floor on the masked
    // ranking path, not a generalization claim; at this scale the head
    // mostly learns the global popularity prior). Thread-invariant
    // training makes the scores exactly deterministic for the fixed seed,
    // so the baseline gates them as hard accuracy floors rather than
    // timing bands.
    let next_data = WeiboGenerator::new(WeiboConfig {
        num_cascades: 200,
        seed: 9,
        max_size: 200,
    })
    .generate()
    .filter_observed_size(WINDOW, 3, usize::MAX);
    let max_user = next_data
        .cascades
        .iter()
        .flat_map(|c| c.events.iter().map(|e| e.user))
        .max()
        .unwrap_or(0);
    let next_cfg = CascnConfig {
        k: 2,
        hidden: 4,
        mlp_hidden: 4,
        max_nodes: 10,
        max_steps: 5,
        seed: 9,
        task: TaskKind::NextUser,
        vocab_users: usize::try_from(max_user).unwrap_or(usize::MAX - 1) + 1,
        ..CascnConfig::default()
    };
    let next_opts = TrainOpts {
        epochs: 2,
        patience: 2,
        threads: 0,
        ..TrainOpts::default()
    };
    let next_train: Vec<Cascade> = next_data.split(Split::Train).to_vec();
    let next_val: Vec<Cascade> = next_data.split(Split::Validation).to_vec();
    let mut next_model = CascnModel::new(next_cfg);
    next_model
        .fit_next_user(&next_train, &next_val, WINDOW, &next_opts)
        .map_err(|e| format!("next-user fit: {e}"))?;
    let ranks = next_model.next_user_ranks(&next_data.cascades, WINDOW);
    let next_user_hit10 = f64::from(metrics::hit_at_k(&ranks, 10));
    let next_user_map = f64::from(metrics::mean_average_precision(&ranks));

    // Machine-independent: every cascade's observed graph is forward
    // ordered, so the exact sparse φ solve must converge on all of them.
    let alpha = sparse_cfg.alpha;
    let phi_unconverged = data
        .cascades
        .iter()
        .filter(|c| {
            !laplacian::stationary_distribution_sparse(&c.observe(WINDOW).graph(), alpha).converged
        })
        .count();

    Ok(Record {
        preprocess_cascades_per_s,
        epoch_seconds,
        forward_p50_us,
        forward_p99_us,
        dense_forward_p50_us,
        tape_forward_p50_us,
        eval_speedup,
        eval_max_abs_delta,
        conv_sparse_p50_ns,
        conv_dense_p50_ns,
        sparse_speedup,
        accuracy_delta,
        gemm_speedup,
        gemm_max_abs_delta,
        tape_nodes,
        tape_bytes,
        next_user_hit10,
        next_user_map,
        phi_unconverged,
    })
}

fn to_json(r: &Record) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"cascn-bench-train/v1\",");
    let _ = writeln!(
        out,
        "  \"train_config\": {{ \"k\": 2, \"hidden\": 8, \"max_nodes\": 40, \"max_steps\": 10 }},"
    );
    let _ = writeln!(
        out,
        "  \"forward_config\": {{ \"k\": 2, \"hidden\": 32, \"max_nodes\": 100, \"max_steps\": 20 }},"
    );
    let _ = writeln!(
        out,
        "  \"preprocess_cascades_per_s\": {:.1},",
        r.preprocess_cascades_per_s
    );
    let _ = writeln!(out, "  \"epoch_seconds\": {:.3},", r.epoch_seconds);
    let _ = writeln!(out, "  \"forward_p50_us\": {},", r.forward_p50_us);
    let _ = writeln!(out, "  \"forward_p99_us\": {},", r.forward_p99_us);
    let _ = writeln!(out, "  \"dense_forward_p50_us\": {},", r.dense_forward_p50_us);
    let _ = writeln!(out, "  \"tape_forward_p50_us\": {},", r.tape_forward_p50_us);
    let _ = writeln!(out, "  \"eval_speedup\": {:.2},", r.eval_speedup);
    let _ = writeln!(out, "  \"eval_max_abs_delta\": {:e},", r.eval_max_abs_delta);
    let _ = writeln!(out, "  \"conv_sparse_p50_ns\": {},", r.conv_sparse_p50_ns);
    let _ = writeln!(out, "  \"conv_dense_p50_ns\": {},", r.conv_dense_p50_ns);
    let _ = writeln!(out, "  \"sparse_speedup\": {:.2},", r.sparse_speedup);
    let _ = writeln!(out, "  \"accuracy_delta\": {:e},", r.accuracy_delta);
    let _ = writeln!(out, "  \"gemm_isa\": \"{}\",", cascn_tensor::gemm_isa());
    let _ = writeln!(out, "  \"gemm_speedup\": {:.2},", r.gemm_speedup);
    let _ = writeln!(out, "  \"gemm_max_abs_delta\": {:e},", r.gemm_max_abs_delta);
    let _ = writeln!(out, "  \"tape_nodes\": {:.1},", r.tape_nodes);
    let _ = writeln!(out, "  \"tape_bytes\": {:.0},", r.tape_bytes);
    let _ = writeln!(out, "  \"next_user_hit10\": {:.4},", r.next_user_hit10);
    let _ = writeln!(out, "  \"next_user_map\": {:.4},", r.next_user_map);
    let _ = writeln!(out, "  \"phi_unconverged\": {}", r.phi_unconverged);
    let _ = writeln!(out, "}}");
    out
}

fn check(r: &Record, baseline: &str) -> Result<(), String> {
    let num = |key: &str| {
        json_number(baseline, key).ok_or_else(|| format!("baseline is missing \"{key}\""))
    };
    let min_speedup = num("min_sparse_speedup")?;
    let max_delta = num("max_accuracy_delta")?;
    let band = num("timing_band")?;
    let mut failures = Vec::new();

    // Hard gates: machine-independent, so zero tolerance for drift.
    if r.sparse_speedup < min_speedup {
        failures.push(format!(
            "sparse_speedup {:.2} < required {min_speedup:.2} (sparse kernel no longer beats dense)",
            r.sparse_speedup
        ));
    }
    if r.accuracy_delta > max_delta {
        failures.push(format!(
            "accuracy_delta {:e} > allowed {max_delta:e} (kernels disagree beyond the gate)",
            r.accuracy_delta
        ));
    }
    let min_eval_speedup = num("min_eval_speedup")?;
    if r.eval_speedup < min_eval_speedup {
        failures.push(format!(
            "eval_speedup {:.2} < required {min_eval_speedup:.2} (inference no longer beats the tape forward)",
            r.eval_speedup
        ));
    }
    let max_eval_delta = num("max_eval_delta")?;
    if r.eval_max_abs_delta > max_eval_delta {
        failures.push(format!(
            "eval_max_abs_delta {:e} > allowed {max_eval_delta:e} (eval and tape forwards disagree)",
            r.eval_max_abs_delta
        ));
    }
    let min_gemm_speedup = num("min_gemm_speedup")?;
    if r.gemm_speedup < min_gemm_speedup {
        failures.push(format!(
            "gemm_speedup {:.2} < required {min_gemm_speedup:.2} (the matmul micro-kernel no longer beats the naive loop)",
            r.gemm_speedup
        ));
    }
    let max_gemm_delta = num("max_gemm_delta")?;
    if r.gemm_max_abs_delta > max_gemm_delta {
        failures.push(format!(
            "gemm_max_abs_delta {:e} > allowed {max_gemm_delta:e} (the matmul micro-kernel changed the summation order)",
            r.gemm_max_abs_delta
        ));
    }
    let max_tape_nodes = num("max_tape_nodes")?;
    if r.tape_nodes > max_tape_nodes {
        failures.push(format!(
            "tape_nodes {:.1} > allowed {max_tape_nodes:.0} (a forward records more ops)",
            r.tape_nodes
        ));
    }
    let min_hit10 = num("min_next_user_hit10")?;
    if r.next_user_hit10 < min_hit10 {
        failures.push(format!(
            "next_user_hit10 {:.4} < required {min_hit10:.4} (masked ranking head regressed)",
            r.next_user_hit10
        ));
    }
    let max_unconverged = num("max_phi_unconverged")?;
    if r.phi_unconverged as f64 > max_unconverged {
        failures.push(format!(
            "phi_unconverged {} > allowed {max_unconverged} (directed φ solve stopped at its sweep cap)",
            r.phi_unconverged
        ));
    }

    // Soft gates: wall-clock within a generous ratio band of the recorded
    // baseline — catches order-of-magnitude regressions, tolerates noise.
    let banded = [
        ("forward_p50_us", r.forward_p50_us as f64),
        ("epoch_seconds", r.epoch_seconds),
        ("preprocess_cascades_per_s", r.preprocess_cascades_per_s),
    ];
    for (key, measured) in banded {
        failures.extend(outside_band(key, measured, num(key)?, band));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let args = args(&["--check", "--out", "--baseline"]);
    let do_check = args.iter().any(|a| a == "--check");
    let out_path = flag_value(&args, "--out", "BENCH_train.json");
    let baseline_path = flag_value(&args, "--baseline", "bench-baseline.json");

    let record = match measure() {
        Ok(record) => record,
        Err(e) => {
            eprintln!("record: {e}");
            std::process::exit(1);
        }
    };
    let json = to_json(&record);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("record: wrote {out_path}");

    if do_check {
        check_against("record", &baseline_path, |baseline| check(&record, baseline));
    }
}
