//! End-to-end and per-layer benchmark of CasCN training and serving.
//!
//! ```text
//! cascn-perfbench --workload train|serve_cold|serve_stream --seed N \
//!     --seconds S --trace 0|1 --server-bin PATH [--tiny]
//! ```
//!
//! `perfbench/run.sh` builds the shipped `cascn-serve` and this binary and
//! passes `--server-bin`. The same `--seed` sends the same inputs (see
//! `DESIGN.md`). Human-readable lines (each metric with its unit and sample
//! count) precede the last stdout line, one JSON object: `{"correct",
//! "attempted", "failed", "metrics"}` with the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics. The traced run also writes its spans
//! to `.bench_out/trace-<workload>-<seed>-{phase,layers}.json`.

mod client;
mod data;
mod layers;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::exit;

use trace::Tracer;

/// End-to-end metrics every run reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics every run reports with `--trace 1`. A layer a
/// workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("cascades.parse_us", "us"),
    ("cascades.parse_observe_us", "us"),
    ("serve.http_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.overhead_observe_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.batch.size_mean", "count"),
    ("graph.spectral_us_p50", "us"),
    ("graph.spectral_us_p99", "us"),
    ("graph.phi_rounds_mean", "count"),
    ("graph.phi_converged_share", "ratio"),
    ("graph.incremental.warm_fallbacks", "count"),
    ("serve.live.observe_us_p50", "us"),
    ("serve.live.observe_us_p99", "us"),
    ("core.input.assemble_us", "us"),
    ("core.input.preprocess_ms", "ms"),
    ("model.predict_us_p50", "us"),
    ("model.predict_us_p99", "us"),
    ("model.predict_next_us_p50", "us"),
    ("model.predict_next_us_p99", "us"),
    ("nn.conv_stack_us", "us"),
    ("autograd.tape_nodes", "count"),
    ("train.forward_us", "us"),
    ("autograd.backward_us", "us"),
    ("train.grad_phase_ms", "ms"),
    ("train.step_ms", "ms"),
    ("core.parallel.efficiency", "ratio"),
    ("train.val_ms", "ms"),
    ("e2e.observe_p50_ms", "ms"),
    ("e2e.observe_p99_ms", "ms"),
    ("e2e.val_msle", "msle"),
    ("trace.overhead_pct", "%"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: PathBuf,
    /// Small inputs and short phases, for the smoke test.
    pub tiny: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let get = |name: &str| -> Option<&str> {
            raw.iter()
                .position(|a| a == name)
                .and_then(|i| raw.get(i + 1))
                .map(String::as_str)
        };
        let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
        let parse = |name: &str| -> Result<f64, String> {
            need(name)?.parse().map_err(|_| format!("invalid {name}"))
        };
        let seconds = parse("--seconds")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err("--seconds must be in (0, 120]".into());
        }
        Ok(Self {
            workload: need("--workload")?.to_string(),
            seed: need("--seed")?.parse().map_err(|_| "invalid --seed")?,
            seconds,
            trace: match need("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("invalid --trace `{other}` (0|1)")),
            },
            server_bin: PathBuf::from(get("--server-bin").unwrap_or("target/release/cascn-serve")),
            tiny: raw.iter().any(|a| a == "--tiny"),
        })
    }
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    lines: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// Records a metric with the number of samples behind it.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = unit_of(name);
        self.lines
            .push(format!("metric {name} {value} {unit} (n={samples})"));
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Per-layer metrics of layers this workload never enters read 0.
    pub fn not_entered(&mut self, names: &[&'static str]) {
        for &name in names {
            self.lines.push(format!(
                "metric {name} 0 {} (layer not entered)",
                unit_of(name)
            ));
            self.metrics.push((name, 0.0));
        }
    }

    /// A line for the human-readable report only.
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Counts one checked operation; a failed one is reported by name.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                self.problems.push(what());
            }
        }
    }

    /// A check on the run as a whole (not an operation).
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn finish(mut self, names: &[(&'static str, &'static str)]) -> String {
        let mut json = String::from("{");
        let mut fields = Vec::new();
        for &(name, unit) in names {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v);
            match value {
                Some(v) if v.is_finite() => {
                    fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
                }
                _ => self
                    .problems
                    .push(format!("metric {name} was not measured")),
            }
        }
        for p in &self.problems {
            eprintln!("check failed: {p}");
        }
        let correct = self.problems.is_empty() && self.failed == 0;
        json.push_str(&format!(
            "\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(",")
        ));
        for l in &self.lines {
            println!("{l}");
        }
        json
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |&(_, u)| u)
}

/// Scratch directory for checkpoints, datasets and traces, inside the
/// directory the benchmark runs from.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes both span sets of a traced run (the timed phase and the layer
/// replay) to `.bench_out/` and notes how many there were.
pub fn finish_trace(
    args: &Args,
    phase: Tracer,
    replay: Tracer,
    out: &mut Report,
) -> Result<(), String> {
    let dir = out_dir()?;
    let n = phase.spans().len() + replay.spans().len();
    for (tag, t) in [("phase", phase), ("layers", replay)] {
        let path = dir.join(format!("trace-{}-{}-{tag}.json", args.workload, args.seed));
        t.write_json(&path, &args.workload, args.seed)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.note(format!("spans written to {}", path.display()));
    }
    out.note(format!("{n} spans recorded"));
    Ok(())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
    };
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "train" => train::run(&args, &mut report),
        "serve_cold" => serve::run_cold(&args, &mut report),
        "serve_stream" => serve::run_stream(&args, &mut report),
        other => Err(format!(
            "unknown workload `{other}` (train|serve_cold|serve_stream)"
        )),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        exit(1);
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let json = report.finish(names);
    println!("{json}");
}
