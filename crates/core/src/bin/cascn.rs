//! `cascn` — command-line interface to the CasCN reproduction.
//!
//! ```text
//! cascn generate --dataset weibo --n 2000 --seed 7 --out weibo.cascades
//! cascn stats weibo.cascades --window 3600
//! cascn train --data weibo.cascades --window 3600 --epochs 10 --out model.ckpt
//! cascn predict --data weibo.cascades --window 3600 --model model.ckpt
//! ```
//!
//! Dataset files use the line-based format of `cascn_cascades::io`, the
//! public DeepHawkes format or EchoFlow `user_id,topic_id,timestamp` CSV;
//! `cascn_cascades::Format::sniff` tells them apart by their first content
//! line. `train` quarantines malformed cascades in any of them; `stats` and
//! `predict` fail at the first.
//!
//! `--task next-user` switches training and prediction to the microscopic
//! task: who adopts next, ranked by a masked softmax over the user
//! vocabulary and scored with Hit@k / MAP.

use std::process::exit;

use cascn::{CascnConfig, CascnModel, CheckpointPolicy, TaskKind, TrainCheckpoint, TrainOpts};
use cascn_cascades::{io, Dataset, Format, Split};
use cascn_nn::metrics;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage_and_exit();
    };
    let flags = Flags::parse(&args[1..]);
    let result = match command.as_str() {
        "generate" => cmd_generate(&flags),
        "stats" => cmd_stats(&flags),
        "train" => cmd_train(&flags),
        "predict" => cmd_predict(&flags),
        "--help" | "-h" | "help" => {
            usage_and_exit();
        }
        other => Err(format!("unknown command `{other}`")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "cascn — cascade size prediction (CasCN, ICDE 2019)\n\n\
         USAGE:\n  cascn generate --dataset weibo|hepph [--n N] [--seed S] --out FILE\n  \
         cascn stats FILE [--window SECS]\n  \
         cascn train --data FILE --window SECS [--epochs N] [--hidden H] [--out MODEL]\n    \
         [--threads N] [--checkpoint CKPT [--checkpoint-every N]] [--resume CKPT]\n  \
         cascn predict --data FILE --window SECS --model MODEL [--top K] [--threads N]\n\n\
         --task size|next-user: macroscopic size regression (default) or\n\
         microscopic next-user ranking (masked softmax over the vocabulary;\n\
         set --vocab-users N or let it derive from the data)\n\
         --threads N: worker threads for preprocessing, training, and\n\
         prediction (default: all cores; results are identical for any N)"
    );
    exit(2);
}

/// Minimal `--flag value` parser (positional args allowed before flags).
struct Flags {
    positional: Vec<String>,
    named: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Self {
        let mut positional = Vec::new();
        let mut named = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it.next().cloned().unwrap_or_default();
                named.push((name.to_string(), value));
            } else {
                positional.push(a.clone());
            }
        }
        Self { positional, named }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.named
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{name} `{v}`")),
        }
    }
}

/// Loads a dataset in the format its text shows ([`Format::sniff`]). The
/// strict load fails on the first malformed record; the lenient one
/// quarantines malformed cascades instead and returns the report's summary
/// alongside when it is not clean.
fn load_dataset(path: &str, lenient: bool) -> Result<(Dataset, Option<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let format = Format::sniff(&text);
    if !lenient {
        return Ok((format.read(&text, path).map_err(|e| e.to_string())?, None));
    }
    let (dataset, report) = format.read_lenient(&text, path);
    Ok((dataset, (!report.is_clean()).then(|| report.summary())))
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    use cascn_cascades::synth::{
        CitationConfig, CitationGenerator, WeiboConfig, WeiboGenerator,
    };
    let kind = flags.require("dataset")?;
    let n: usize = flags.parse_or("n", 2000)?;
    let seed: u64 = flags.parse_or("seed", 2019)?;
    let out = flags.require("out")?;
    let dataset = match kind {
        "weibo" => WeiboGenerator::new(WeiboConfig {
            num_cascades: n,
            seed,
            ..WeiboConfig::default()
        })
        .generate(),
        "hepph" => CitationGenerator::new(CitationConfig {
            num_cascades: n,
            seed,
            ..CitationConfig::default()
        })
        .generate(),
        other => return Err(format!("unknown dataset `{other}` (weibo|hepph)")),
    };
    io::write_dataset(out, &dataset).map_err(|e| e.to_string())?;
    println!("wrote {} cascades to {out}", dataset.cascades.len());
    Ok(())
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let path = flags
        .positional
        .first()
        .map(String::as_str)
        .or_else(|| flags.get("data"))
        .ok_or("missing dataset file")?;
    let (dataset, _) = load_dataset(path, false)?;
    let window: f64 = flags.parse_or("window", f64::MAX)?;
    println!("dataset: {} ({} cascades)", dataset.name, dataset.cascades.len());
    println!("total edges: {}", dataset.total_edges());
    for split in [Split::Train, Split::Validation, Split::Test] {
        let s = dataset.split_stats(split, window);
        println!(
            "{split:?}: {} cascades, avg nodes {:.2}, avg edges {:.2}",
            s.count, s.avg_nodes, s.avg_edges
        );
    }
    let hist = cascn_cascades::stats::size_distribution(&dataset);
    println!("size histogram (log2 bins):");
    for (size, count) in hist {
        println!("  >= {size:<6} {count}");
    }
    Ok(())
}

fn train_config(flags: &Flags) -> Result<(CascnConfig, TrainOpts), String> {
    let hidden: usize = flags.parse_or("hidden", 16)?;
    let epochs: usize = flags.parse_or("epochs", 10)?;
    // `--threads 0` (the default) resolves to all available cores; any
    // value produces bit-identical models, so this is purely a speed knob.
    let threads: usize = flags.parse_or("threads", 0)?;
    let task = match flags.get("task") {
        None => TaskKind::SizeRegression,
        Some(name) => TaskKind::parse(name)
            .ok_or_else(|| format!("unknown --task `{name}` (size|next-user)"))?,
    };
    let cfg = CascnConfig {
        hidden,
        mlp_hidden: hidden,
        max_nodes: flags.parse_or("max-nodes", 30)?,
        max_steps: flags.parse_or("max-steps", 10)?,
        seed: flags.parse_or("seed", 42)?,
        threads,
        task,
        // 0 means "derive from the dataset" (see `resolve_vocab`).
        vocab_users: flags.parse_or("vocab-users", 0)?,
        ..CascnConfig::default()
    };
    let opts = TrainOpts {
        epochs,
        patience: flags.parse_or("patience", epochs.div_ceil(2))?,
        lr: flags.parse_or("lr", 5e-3)?,
        threads,
        ..TrainOpts::default()
    };
    Ok((cfg, opts))
}

/// Fills in `vocab_users` for the next-user task when the flag was omitted:
/// the smallest vocabulary covering every user id in the dataset.
fn resolve_vocab(cfg: &mut CascnConfig, dataset: &Dataset) {
    if cfg.task != TaskKind::NextUser || cfg.vocab_users != 0 {
        return;
    }
    let max_user = dataset
        .cascades
        .iter()
        .flat_map(|c| c.events.iter())
        .map(|e| e.user)
        .max()
        .unwrap_or(0);
    cfg.vocab_users = usize::try_from(max_user).unwrap_or(usize::MAX - 1) + 1;
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let data_path = flags.require("data")?;
    let window: f64 = flags
        .require("window")?
        .parse()
        .map_err(|_| "invalid --window")?;
    let (dataset, quarantine) = load_dataset(data_path, true)?;
    if let Some(summary) = quarantine {
        eprintln!("warning: {summary}");
    }
    let (mut cfg, mut opts) = train_config(flags)?;
    // Derive the vocabulary from the *unfiltered* dataset so `predict` and
    // `serve` (which apply no size filter) resolve the same table shape.
    resolve_vocab(&mut cfg, &dataset);
    let dataset = dataset
        .filter_observed_size(window, flags.parse_or("min-size", 5)?, flags.parse_or("max-size", 100)?);
    if dataset.cascades.len() < 20 {
        return Err(format!(
            "only {} cascades survive the size filter — relax --min-size",
            dataset.cascades.len()
        ));
    }
    let resume = match flags.get("resume") {
        Some(p) => Some(TrainCheckpoint::load(p).map_err(|e| e.to_string())?),
        None => None,
    };
    if let Some(ckpt) = &resume {
        // Continue the interrupted run's shuffle stream, whatever seed it
        // used.
        opts.shuffle_seed = ckpt.shuffle_seed;
    }
    let checkpoint = match flags.get("checkpoint") {
        Some(p) => Some(CheckpointPolicy {
            path: p.into(),
            every: flags.parse_or("checkpoint-every", 1)?,
        }),
        None => None,
    };
    let task = cfg.task;
    let (what, vocab, loss) = match task {
        TaskKind::SizeRegression => ("CasCN", String::new(), ""),
        TaskKind::NextUser => (
            "CasCN next-user head",
            format!(", vocab {}", cfg.vocab_users),
            " CE",
        ),
    };
    let mut model = CascnModel::new(cfg);
    let threads = cascn::resolve_threads(opts.threads);
    match &resume {
        Some(ckpt) => println!(
            "resuming {what} training from epoch {} ({} parameters{vocab}, {threads} threads)…",
            ckpt.epoch,
            model.num_parameters()
        ),
        None => println!(
            "training {what} ({} parameters{vocab}) on {} cascades, {threads} threads…",
            model.num_parameters(),
            dataset.split(Split::Train).len()
        ),
    }
    let history = model
        .fit_resumable(
            dataset.split(Split::Train),
            dataset.split(Split::Validation),
            window,
            &opts,
            resume.as_ref(),
            checkpoint.as_ref(),
        )
        .map_err(|e| e.to_string())?;
    for r in history.records() {
        println!(
            "epoch {:>3}: train{loss} {:.4}  val{loss} {:.4}",
            r.epoch, r.train_loss, r.val_loss
        );
    }
    if !history.anomalies().is_empty() {
        println!(
            "anomaly guard: {} discarded steps, {} rollbacks",
            history.skipped_steps(),
            history.rollbacks()
        );
    }
    match task {
        TaskKind::SizeRegression => {
            match cascn::try_evaluate(&model, dataset.split(Split::Test), window, opts.threads) {
                Ok(msle) => println!("test MSLE: {msle:.4}"),
                Err(e) => eprintln!("warning: skipping test metric — {e}"),
            }
        }
        TaskKind::NextUser => {
            let ranks = model.next_user_ranks(dataset.split(Split::Test), window);
            if ranks.is_empty() {
                eprintln!("warning: no test cascade has a next-user target — skipping metrics");
            } else {
                println!(
                    "test ({} prefixes): Hit@1 {:.4}  Hit@5 {:.4}  Hit@10 {:.4}  MAP {:.4}",
                    ranks.len(),
                    metrics::hit_at_k(&ranks, 1),
                    metrics::hit_at_k(&ranks, 5),
                    metrics::hit_at_k(&ranks, 10),
                    metrics::mean_average_precision(&ranks)
                );
            }
        }
    }
    if let Some(out) = flags.get("out") {
        model
            .export_checkpoint()
            .save(out)
            .map_err(|e| e.to_string())?;
        println!("saved model to {out}");
    }
    Ok(())
}

fn cmd_predict(flags: &Flags) -> Result<(), String> {
    let data_path = flags.require("data")?;
    let model_path = flags.require("model")?;
    let window: f64 = flags
        .require("window")?
        .parse()
        .map_err(|_| "invalid --window")?;
    let (mut cfg, _) = train_config(flags)?;
    let (dataset, _) = load_dataset(data_path, false)?;
    resolve_vocab(&mut cfg, &dataset);
    let task = cfg.task;
    let model = CascnModel::load(cfg, model_path).map_err(|e| e.to_string())?;
    let top: usize = flags.parse_or("top", 10)?;

    if task == TaskKind::NextUser {
        let ranks = model.next_user_ranks(&dataset.cascades, window);
        if !ranks.is_empty() {
            println!(
                "{} prefixes: Hit@1 {:.4}  Hit@5 {:.4}  Hit@10 {:.4}  MAP {:.4}",
                ranks.len(),
                metrics::hit_at_k(&ranks, 1),
                metrics::hit_at_k(&ranks, 5),
                metrics::hit_at_k(&ranks, 10),
                metrics::mean_average_precision(&ranks)
            );
        }
        for cascade in dataset.cascades.iter().take(3) {
            let ranked = model.predict_next(cascade, window, top);
            let line: Vec<String> = ranked
                .iter()
                .map(|(u, p)| format!("{u}:{p:.4}"))
                .collect();
            println!("cascade {:>6} next: {}", cascade.id, line.join(" "));
        }
        return Ok(());
    }

    let preds = model.predict_logs(&dataset.cascades, window);
    let mut rows: Vec<(u64, usize, f32)> = dataset
        .cascades
        .iter()
        .zip(preds)
        .map(|(c, p)| (c.id, c.size_at(window), p.exp() - 1.0))
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    println!("top {top} cascades by predicted growth:");
    println!("{:>10}  {:>9}  {:>12}", "cascade", "observed", "predicted +");
    for (id, observed, pred) in rows.into_iter().take(top) {
        println!("{id:>10}  {observed:>9}  {pred:>12.1}");
    }
    Ok(())
}
