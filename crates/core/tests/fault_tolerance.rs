//! Integration tests for the fault-tolerant training runtime: the anomaly
//! guard, resumable checkpoints, checksum verification, data quarantine,
//! and the `cascn` CLI's failure behavior — all driven by the deterministic
//! [`FaultInjector`].

use std::path::PathBuf;
use std::process::Command;

use cascn::trainer::train_loop_resumable;
use cascn::{
    CascnConfig, CascnModel, CheckpointPolicy, FaultInjector, TrainCheckpoint, TrainHooks,
    TrainOpts,
};
use cascn_autograd::{ParamStore, Tape, Var};
use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
use cascn_cascades::{io, Dataset, Split};
use cascn_nn::metrics;
use cascn_tensor::Matrix;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cascn_fault_it").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_cfg() -> CascnConfig {
    CascnConfig {
        hidden: 4,
        mlp_hidden: 4,
        max_nodes: 12,
        max_steps: 6,
        ..CascnConfig::default()
    }
}

fn tiny_data() -> Dataset {
    WeiboGenerator::new(WeiboConfig {
        num_cascades: 200,
        seed: 77,
        max_size: 150,
    })
    .generate()
    .filter_observed_size(3600.0, 3, 60)
}

fn params_bits(store: &ParamStore) -> Vec<u32> {
    store
        .ids()
        .flat_map(|id| store.value(id).as_slice().to_vec())
        .map(f32::to_bits)
        .collect()
}

/// The acceptance scenario: NaN gradients injected at epoch 3, training
/// stopped after epoch 5, finished via resume — final validation MSLE must
/// match the uninterrupted control within 1e-5, and the anomaly log must
/// show the injected faults.
#[test]
fn injected_faults_and_interruption_still_reach_control_msle() {
    let dir = temp_dir("acceptance");
    let ckpt_path = dir.join("run.ckpt");
    let data = tiny_data();
    let window = 3600.0;
    let train = data.split(Split::Train);
    let val = data.split(Split::Validation);
    assert!(train.len() >= 20, "need data, got {}", train.len());
    let opts = TrainOpts {
        epochs: 8,
        patience: 8,
        ..TrainOpts::default()
    };

    // Shared fault schedule: poison the gradients of the first two batches
    // of epoch 3. Both the control and the interrupted run see the same
    // faults, so their trajectories stay comparable.
    fn make_injector() -> impl FnMut(usize, usize, &mut ParamStore) {
        let mut inj = FaultInjector::new(42);
        move |epoch: usize, batch: usize, store: &mut ParamStore| {
            if epoch == 3 && batch < 2 {
                inj.corrupt_grads(store);
            }
        }
    }

    let run = |resume: Option<TrainCheckpoint>,
               checkpoint: Option<CheckpointPolicy>,
               epochs: usize|
     -> (CascnModel, cascn_nn::train::History) {
        let mut model = CascnModel::new(tiny_cfg());
        let samples: Vec<_> = train
            .iter()
            .map(|c| cascn::preprocess(c, window, model.config()))
            .collect();
        let labels: Vec<f32> = samples.iter().map(|s| s.label_log).collect();
        let val_samples: Vec<_> = val
            .iter()
            .map(|c| cascn::preprocess(c, window, model.config()))
            .collect();
        let val_inc: Vec<usize> = val_samples.iter().map(|s| s.increment).collect();
        let fwd_model = model.clone();
        let forward = move |tape: &mut Tape, store: &ParamStore, s: &cascn::PreprocessedCascade| -> Var {
            fwd_model.forward(tape, store, s)
        };
        let mut inject = make_injector();
        let mut store = model.params().clone();
        let opts = TrainOpts { epochs, ..opts };
        let hist = train_loop_resumable(
            &mut store,
            &forward,
            &samples,
            &labels,
            &val_samples,
            &val_inc,
            &opts,
            resume.as_ref(),
            checkpoint.as_ref(),
            &mut |_, _| {},
            TrainHooks {
                post_grad: Some(&mut inject),
            },
        )
        .unwrap();
        model.set_params(store);
        (model, hist)
    };

    // Control: 8 epochs straight through.
    let (control, control_hist) = run(None, None, 8);
    assert!(
        control_hist.skipped_steps() >= 2,
        "epoch-3 faults must be logged: {:?}",
        control_hist.anomalies()
    );

    // Interrupted: stop after epoch 5 (the checkpoint written at epoch 5
    // stands in for the state an abrupt kill leaves on disk), then resume
    // to epoch 8.
    let policy = CheckpointPolicy {
        path: ckpt_path.clone(),
        every: 1,
    };
    let _ = run(None, Some(policy), 5);
    let ckpt = TrainCheckpoint::load(&ckpt_path).unwrap();
    assert_eq!(ckpt.epoch, 5);
    assert!(
        ckpt.history.skipped_steps() >= 2,
        "anomaly log survives checkpointing"
    );
    let (resumed, resumed_hist) = run(Some(ckpt), None, 8);

    // Bit-exact parameters, and (therefore) matching validation MSLE.
    assert_eq!(
        params_bits(control.params()),
        params_bits(resumed.params()),
        "resumed run must be bit-identical to the control"
    );
    let msle = |m: &CascnModel| {
        let preds: Vec<f32> = val.iter().map(|c| m.predict_log(c, window)).collect();
        let inc: Vec<usize> = val.iter().map(|c| c.increment_size(window)).collect();
        metrics::msle(&preds, &inc)
    };
    let (a, b) = (msle(&control), msle(&resumed));
    assert!(
        (a - b).abs() < 1e-5,
        "control MSLE {a} vs resumed {b}"
    );
    assert_eq!(
        control_hist.records().len(),
        resumed_hist.records().len(),
        "histories must line up"
    );
    std::fs::remove_file(&ckpt_path).ok();
}

/// A checkpoint truncated mid-file must be rejected with a checksum error,
/// not silently half-loaded.
#[test]
fn truncated_checkpoint_is_rejected_with_checksum_error() {
    let dir = temp_dir("truncate");
    let ckpt_path = dir.join("run.ckpt");
    let mut params = ParamStore::new();
    params.register("w", Matrix::full(3, 3, 0.5));
    let ckpt = TrainCheckpoint {
        epoch: 1,
        shuffle_seed: 7,
        base_lr: 5e-3,
        eff_lr: 5e-3,
        bad_streak: 0,
        stopper: cascn::StopperState {
            patience: 10,
            best: 1.0,
            best_epoch: 1,
            stale: 0,
            epochs_seen: 1,
        },
        history: cascn_nn::train::History::new(),
        adam: cascn_autograd::AdamState::default(),
        params,
        best_params: None,
    };
    ckpt.save(&ckpt_path).unwrap();
    TrainCheckpoint::load(&ckpt_path).expect("intact checkpoint loads");

    let mut inj = FaultInjector::new(9);
    let kept = inj.truncate_file(&ckpt_path).unwrap();
    assert!(kept > 0);
    let err = TrainCheckpoint::load(&ckpt_path).unwrap_err().to_string();
    assert!(
        err.contains("checksum") || err.contains("truncated"),
        "unhelpful error for truncated checkpoint: {err}"
    );
    std::fs::remove_file(&ckpt_path).ok();
}

/// Mangled dataset files train anyway: the CLI's lenient loader quarantines
/// the corrupt cascades and reports them.
#[test]
fn mangled_dataset_is_quarantined_not_fatal() {
    let data = WeiboGenerator::new(WeiboConfig {
        num_cascades: 60,
        seed: 11,
        max_size: 100,
    })
    .generate();
    let text = io::dataset_to_string(&data);
    let mangled = FaultInjector::new(13).mangle_dataset_lines(&text, 8);
    let (kept, report) = io::dataset_from_str_lenient(&mangled, "mangled");
    assert!(!report.is_clean(), "mangling must be detected");
    assert!(
        kept.cascades.len() >= data.cascades.len() - 2 * 8,
        "quarantine must be surgical: kept {} of {}",
        kept.cascades.len(),
        data.cascades.len()
    );
    for q in &report.quarantined {
        assert!(q.line > 0, "quarantine entries carry line numbers");
        assert!(!q.reason.is_empty());
    }
    // Every kept cascade still satisfies the invariants.
    for c in &kept.cascades {
        assert!(cascn_cascades::validate_events(&c.events).is_ok());
    }
}

/// End-to-end CLI: train with checkpoints, resume, and get identical final
/// parameters; corrupt inputs exit with a clean one-line error.
#[test]
fn cli_resume_and_error_paths() {
    let dir = temp_dir("cli");
    let bin = env!("CARGO_BIN_EXE_cascn");
    let data_path = dir.join("d.cascades");
    let run = |args: &[&str]| {
        Command::new(bin)
            .args(args)
            .output()
            .expect("cascn binary runs")
    };

    // Generate a small dataset.
    let out = run(&[
        "generate",
        "--dataset",
        "weibo",
        "--n",
        "160",
        "--seed",
        "5",
        "--out",
        data_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let common = [
        "--data",
        data_path.to_str().unwrap(),
        "--window",
        "3600",
        "--hidden",
        "4",
        "--max-nodes",
        "10",
        "--max-steps",
        "5",
        "--min-size",
        "3",
        "--patience",
        "4",
    ];

    // Control run: 4 epochs, save final model.
    let control_model = dir.join("control.ckpt");
    let mut args = vec!["train"];
    args.extend_from_slice(&common);
    args.extend_from_slice(&["--epochs", "4", "--out", control_model.to_str().unwrap()]);
    let out = run(&args);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Interrupted run: 2 epochs with checkpointing…
    let ckpt = dir.join("run.ckpt");
    let mut args = vec!["train"];
    args.extend_from_slice(&common);
    args.extend_from_slice(&["--epochs", "2", "--checkpoint", ckpt.to_str().unwrap()]);
    let out = run(&args);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // …resumed to 4 epochs.
    let resumed_model = dir.join("resumed.ckpt");
    let mut args = vec!["train"];
    args.extend_from_slice(&common);
    args.extend_from_slice(&[
        "--epochs",
        "4",
        "--resume",
        ckpt.to_str().unwrap(),
        "--out",
        resumed_model.to_str().unwrap(),
    ]);
    let out = run(&args);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resuming"), "resume path not taken: {stdout}");

    assert_eq!(
        std::fs::read_to_string(&control_model).unwrap(),
        std::fs::read_to_string(&resumed_model).unwrap(),
        "resumed CLI run must produce the identical final model"
    );

    // Shape mismatch (wrong --hidden) exits non-zero with a one-line error.
    let out = run(&[
        "predict",
        "--data",
        data_path.to_str().unwrap(),
        "--window",
        "3600",
        "--model",
        control_model.to_str().unwrap(),
        "--hidden",
        "8",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.trim().lines().count(), 1, "stderr: {stderr}");
    assert!(
        stderr.contains("shape mismatch") || stderr.contains("architecture"),
        "stderr: {stderr}"
    );

    // A truncated checkpoint passed to --resume is rejected cleanly.
    let mut inj = FaultInjector::new(21);
    inj.truncate_file(&ckpt).unwrap();
    let mut args = vec!["train"];
    args.extend_from_slice(&common);
    args.extend_from_slice(&["--epochs", "4", "--resume", ckpt.to_str().unwrap()]);
    let out = run(&args);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checksum") || stderr.contains("truncated"),
        "stderr: {stderr}"
    );
    assert_eq!(stderr.trim().lines().count(), 1, "stderr: {stderr}");

    // A next-user run whose window swallows every event has no next
    // adopter to train on: a clean error exit, not a panic.
    let mut args = vec!["train"];
    args.extend_from_slice(&common);
    let at = args.iter().position(|a| *a == "3600").unwrap();
    args[at] = "1000000000";
    args.extend_from_slice(&["--task", "next-user", "--epochs", "1"]);
    let out = run(&args);
    assert_eq!(out.status.code(), Some(1), "must exit 1, not panic (101)");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("empty training set"), "stderr: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A small dataset of `n` cascades written in `format` ("native",
/// "echoflow" or "deephawkes"), all well-formed but the one at `bad`, whose
/// last adoption time is `oops`. Returns the text and the 1-based line of
/// the bad record.
fn small_dataset(format: &str, n: u64, bad: u64) -> (String, usize) {
    let mut lines: Vec<String> = Vec::new();
    let mut bad_line = 0;
    if format == "echoflow" {
        lines.push("user_id,topic_id,timestamp".into());
    }
    for id in 1..=n {
        let start = 1000 * id;
        let root = 100 * id;
        // Five adoptions inside a one-hour window, three after it.
        let times: Vec<String> = [60, 120, 300, 900, 1800, 4000, 5000, 6000]
            .iter()
            .enumerate()
            .map(|(j, t)| if id == bad && j == 7 { "oops".into() } else { t.to_string() })
            .collect();
        match format {
            "native" => {
                lines.push(format!("cascade {id} {start}"));
                lines.push(format!("event {root} - 0"));
                for (j, t) in times.iter().enumerate() {
                    lines.push(format!("event {} {} {t}", root + 1 + j as u64, j / 2));
                }
            }
            "echoflow" => {
                lines.push(format!("u_{root},t_{id},{start}"));
                for (j, t) in times.iter().enumerate() {
                    let at = t.parse::<u64>().map_or(t.clone(), |t| (start + t).to_string());
                    lines.push(format!("u_{},t_{id},{at}", root + 1 + j as u64));
                }
            }
            _ => {
                let paths: Vec<String> = times
                    .iter()
                    .enumerate()
                    .map(|(j, t)| format!("{root}/{}:{t}", root + 1 + j as u64))
                    .collect();
                lines.push(format!("{id}\t{root}\t{start}\t8\t{root}:0 {}", paths.join(" ")));
            }
        }
        if id == bad {
            bad_line = lines.len();
        }
    }
    (lines.join("\n") + "\n", bad_line)
}

/// The CLI reads every format through one sniff and one policy: `stats`
/// (strict) fails naming the corrupt record's line, and `train` (lenient)
/// quarantines that one cascade, says so, and trains on the rest. A native
/// file whose fields are tab-separated still reads as native.
#[test]
fn cli_reads_every_format_strictly_for_stats_and_leniently_for_train() {
    let dir = temp_dir("formats");
    let bin = env!("CARGO_BIN_EXE_cascn");
    let run = |args: &[&str]| Command::new(bin).args(args).output().expect("cascn binary runs");
    for format in ["native", "echoflow", "deephawkes"] {
        let (text, bad_line) = small_dataset(format, 40, 7);
        let path = dir.join(format!("{format}.txt"));
        std::fs::write(&path, text).unwrap();
        let path = path.to_str().unwrap();

        let out = run(&["stats", path, "--window", "3600"]);
        assert_eq!(out.status.code(), Some(1), "{format}: stats must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("line {bad_line}")), "{format}: {stderr}");

        let out = run(&[
            "train", "--data", path, "--window", "3600", "--hidden", "4", "--max-nodes", "10",
            "--max-steps", "5", "--min-size", "3", "--epochs", "2", "--patience", "2",
        ]);
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert!(out.status.success(), "{format}: {stderr}");
        assert!(stderr.contains("39 cascades loaded, 1 quarantined"), "{format}: {stderr}");
        assert!(stderr.contains(&format!("cascade 7 (line {bad_line})")), "{format}: {stderr}");
        assert!(stdout.contains("test MSLE"), "{format}: {stdout}");
    }

    let (text, _) = small_dataset("native", 40, 0);
    let path = dir.join("tabs.txt");
    std::fs::write(&path, text.replace(' ', "\t")).unwrap();
    let out = run(&["stats", path.to_str().unwrap(), "--window", "3600"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("(40 cascades)"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
