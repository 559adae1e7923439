//! Resumable training checkpoints (format v2).
//!
//! A v2 checkpoint carries everything needed to continue a run *bit-exactly*:
//! model parameters, Adam moments and step counter, the early-stopping
//! state, the loss history, the effective learning rate and anomaly-guard
//! streak, and the shuffle seed (the batch RNG is resumed by replaying the
//! per-epoch shuffles, which keeps the format independent of RNG internals).
//!
//! ```text
//! # cascn train checkpoint v2
//! # section meta
//! epoch 5
//! shuffle_seed 7
//! ...
//! # section stopper
//! ...
//! # section params
//! param <name> <rows> <cols>
//! ...
//! # checksum fnv1a64 <16 hex digits>
//! ```
//!
//! The footer is an FNV-1a 64 checksum over every byte before the footer
//! line; loading verifies it first, so truncated or bit-flipped files are
//! rejected with a precise error instead of silently misparsed. Writes go
//! through [`atomic_write`] (temp file + rename), so a crash mid-write can
//! never leave a half-written checkpoint behind.

use std::fmt::Write as _;
use std::path::Path;

use cascn_autograd::{atomic_write, bytes_from, declared_values, fnv1a64, AdamState, ParamStore};
use cascn_nn::train::{AnomalyEvent, AnomalyKind, EpochRecord, History};
use cascn_tensor::Matrix;

use crate::error::CascnError;

/// First line of every v2 checkpoint.
pub const V2_HEADER: &str = "# cascn train checkpoint v2";
/// First line of the retired standalone params file, which no loader
/// accepts any more (its text survives only inside the params sections).
const V1_PARAMS_HEADER: &str = "# cascn params v1";
const CHECKSUM_PREFIX: &str = "# checksum fnv1a64 ";

/// Early-stopping state snapshot (mirrors `EarlyStopping`'s fields).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopperState {
    /// Configured patience.
    pub patience: usize,
    /// Best validation loss seen.
    pub best: f32,
    /// 1-based epoch of the best validation loss.
    pub best_epoch: usize,
    /// Consecutive non-improving epochs.
    pub stale: usize,
    /// Total epochs observed.
    pub epochs_seen: usize,
}

/// A complete training-run snapshot, written after an epoch completes.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// Number of completed epochs.
    pub epoch: usize,
    /// Shuffle seed of the run (resume replays this many epoch shuffles).
    pub shuffle_seed: u64,
    /// The run's configured learning rate.
    pub base_lr: f32,
    /// Effective learning rate after anomaly-guard backoff.
    pub eff_lr: f32,
    /// Consecutive bad batches at snapshot time.
    pub bad_streak: usize,
    /// Early-stopping state.
    pub stopper: StopperState,
    /// Loss history so far (records and anomaly log).
    pub history: History,
    /// Adam moments and step counter.
    pub adam: AdamState,
    /// Current model parameters.
    pub params: ParamStore,
    /// Parameters of the best validation epoch, when one exists.
    pub best_params: Option<ParamStore>,
}

impl TrainCheckpoint {
    /// Whether `text` starts with the v2 train checkpoint header.
    pub fn is_v2(text: &str) -> bool {
        text.lines()
            .find(|l| !l.trim().is_empty())
            .is_some_and(|l| l.trim() == V2_HEADER)
    }

    /// Serializes the checkpoint, including the checksum footer.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{V2_HEADER}");
        let _ = writeln!(out, "# section meta");
        let _ = writeln!(out, "epoch {}", self.epoch);
        let _ = writeln!(out, "shuffle_seed {}", self.shuffle_seed);
        let _ = writeln!(out, "base_lr {:?}", self.base_lr);
        let _ = writeln!(out, "eff_lr {:?}", self.eff_lr);
        let _ = writeln!(out, "bad_streak {}", self.bad_streak);
        let _ = writeln!(out, "# section stopper");
        let s = &self.stopper;
        let _ = writeln!(
            out,
            "stopper {} {:?} {} {} {}",
            s.patience, s.best, s.best_epoch, s.stale, s.epochs_seen
        );
        let _ = writeln!(out, "# section history");
        for r in self.history.records() {
            let _ = writeln!(out, "record {} {:?} {:?}", r.epoch, r.train_loss, r.val_loss);
        }
        for a in self.history.anomalies() {
            let _ = writeln!(out, "anomaly {} {} {}", a.epoch, a.batch, a.kind.as_token());
        }
        let _ = writeln!(out, "# section adam");
        let _ = writeln!(out, "step {}", self.adam.step);
        for (which, moments) in [("m", &self.adam.m), ("v", &self.adam.v)] {
            for (i, mat) in moments.iter().enumerate() {
                write_matrix(&mut out, &format!("moment {which} {i}"), mat);
            }
        }
        let _ = writeln!(out, "# section params");
        push_params(&mut out, &self.params);
        if let Some(best) = &self.best_params {
            let _ = writeln!(out, "# section best_params");
            push_params(&mut out, best);
        }
        let checksum = fnv1a64(out.as_bytes());
        let _ = writeln!(out, "{CHECKSUM_PREFIX}{checksum:016x}");
        out
    }

    /// Parses and integrity-checks a checkpoint produced by
    /// [`TrainCheckpoint::to_text`].
    pub fn from_text(text: &str) -> Result<Self, CascnError> {
        if text.lines().next().is_some_and(|l| l.trim() == V1_PARAMS_HEADER) {
            return Err(CascnError::Checkpoint(format!(
                "`{V1_PARAMS_HEADER}` files are no longer supported — \
                 retrain with `cascn train --out` to write a `{V2_HEADER}` file"
            )));
        }
        let body = verify_checksum(text)?;
        if !Self::is_v2(body) {
            return Err(CascnError::Checkpoint(format!(
                "unrecognized header (expected `{V2_HEADER}`)"
            )));
        }

        let mut meta_epoch = None;
        let mut shuffle_seed = None;
        let mut base_lr = None;
        let mut eff_lr = None;
        let mut bad_streak = 0usize;
        let mut stopper = None;
        let mut records: Vec<EpochRecord> = Vec::new();
        let mut anomalies: Vec<AnomalyEvent> = Vec::new();
        let mut adam_step = 0u64;
        let mut adam_m: Vec<Matrix> = Vec::new();
        let mut adam_v: Vec<Matrix> = Vec::new();
        let mut params_text = String::new();
        let mut best_text = String::new();

        let mut section = String::new();
        let mut lines = body.lines().enumerate().peekable();
        while let Some((i, raw)) = lines.next() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line == V2_HEADER {
                continue;
            }
            if let Some(name) = line.strip_prefix("# section ") {
                section = name.trim().to_string();
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let err = |msg: String| {
                CascnError::Checkpoint(format!("line {lineno}: {msg}"))
            };
            match section.as_str() {
                "meta" => {
                    let (key, val) = split_kv(line, lineno)?;
                    match key {
                        "epoch" => meta_epoch = Some(parse_num(val, "epoch", lineno)?),
                        "shuffle_seed" => {
                            shuffle_seed = Some(parse_num(val, "shuffle_seed", lineno)?)
                        }
                        "base_lr" => base_lr = Some(parse_num(val, "base_lr", lineno)?),
                        "eff_lr" => eff_lr = Some(parse_num(val, "eff_lr", lineno)?),
                        "bad_streak" => bad_streak = parse_num(val, "bad_streak", lineno)?,
                        other => return Err(err(format!("unknown meta key `{other}`"))),
                    }
                }
                "stopper" => {
                    let toks: Vec<&str> = line.split_whitespace().collect();
                    if toks.len() != 6 || toks[0] != "stopper" {
                        return Err(err("malformed stopper record".into()));
                    }
                    stopper = Some(StopperState {
                        patience: parse_num(toks[1], "patience", lineno)?,
                        best: parse_num(toks[2], "best", lineno)?,
                        best_epoch: parse_num(toks[3], "best_epoch", lineno)?,
                        stale: parse_num(toks[4], "stale", lineno)?,
                        epochs_seen: parse_num(toks[5], "epochs_seen", lineno)?,
                    });
                }
                "history" => {
                    let toks: Vec<&str> = line.split_whitespace().collect();
                    match toks.first().copied() {
                        Some("record") if toks.len() == 4 => records.push(EpochRecord {
                            epoch: parse_num(toks[1], "epoch", lineno)?,
                            train_loss: parse_num(toks[2], "train_loss", lineno)?,
                            val_loss: parse_num(toks[3], "val_loss", lineno)?,
                        }),
                        Some("anomaly") if toks.len() == 4 => {
                            let kind = AnomalyKind::from_token(toks[3]).ok_or_else(|| {
                                err(format!("unknown anomaly kind `{}`", toks[3]))
                            })?;
                            anomalies.push(AnomalyEvent {
                                epoch: parse_num(toks[1], "epoch", lineno)?,
                                batch: parse_num(toks[2], "batch", lineno)?,
                                kind,
                            });
                        }
                        _ => return Err(err("malformed history record".into())),
                    }
                }
                "adam" => {
                    let toks: Vec<&str> = line.split_whitespace().collect();
                    match toks.first().copied() {
                        Some("step") if toks.len() == 2 => {
                            adam_step = parse_num(toks[1], "step", lineno)?;
                        }
                        Some("moment") if toks.len() == 5 => {
                            let rows: usize = parse_num(toks[3], "rows", lineno)?;
                            let cols: usize = parse_num(toks[4], "cols", lineno)?;
                            let left = bytes_from(body, raw);
                            let mat = read_matrix(&mut lines, (rows, cols), left)
                                .map_err(|e| err(format!("moment {}: {e}", toks[1])))?;
                            match toks[1] {
                                "m" => adam_m.push(mat),
                                "v" => adam_v.push(mat),
                                other => {
                                    return Err(err(format!("unknown moment `{other}`")))
                                }
                            }
                        }
                        _ => return Err(err("malformed adam record".into())),
                    }
                }
                "params" => {
                    params_text.push_str(raw);
                    params_text.push('\n');
                }
                "best_params" => {
                    best_text.push_str(raw);
                    best_text.push('\n');
                }
                other => {
                    return Err(err(format!("content outside a known section (`{other}`)")))
                }
            }
        }

        let missing = |what: &str| CascnError::Checkpoint(format!("missing {what}"));
        let params = ParamStore::from_text(&params_text)
            .map_err(|e| CascnError::Checkpoint(format!("params section: {e}")))?;
        if params.is_empty() {
            return Err(missing("params section"));
        }
        let best_params = if best_text.is_empty() {
            None
        } else {
            Some(
                ParamStore::from_text(&best_text)
                    .map_err(|e| CascnError::Checkpoint(format!("best_params section: {e}")))?,
            )
        };
        if adam_m.len() != adam_v.len() {
            return Err(CascnError::Checkpoint(format!(
                "adam moments mismatch: {} first vs {} second",
                adam_m.len(),
                adam_v.len()
            )));
        }
        Ok(Self {
            epoch: meta_epoch.ok_or_else(|| missing("meta `epoch`"))?,
            shuffle_seed: shuffle_seed.ok_or_else(|| missing("meta `shuffle_seed`"))?,
            base_lr: base_lr.ok_or_else(|| missing("meta `base_lr`"))?,
            eff_lr: eff_lr.ok_or_else(|| missing("meta `eff_lr`"))?,
            bad_streak,
            stopper: stopper.ok_or_else(|| missing("stopper section"))?,
            history: History::from_parts(records, anomalies),
            adam: AdamState {
                step: adam_step,
                m: adam_m,
                v: adam_v,
            },
            params,
            best_params,
        })
    }

    /// Writes the checkpoint atomically.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CascnError> {
        atomic_write(path.as_ref(), self.to_text().as_bytes())?;
        Ok(())
    }

    /// Loads and verifies a checkpoint file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CascnError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            CascnError::Checkpoint(format!("{}: {e}", path.display()))
        })?;
        Self::from_text(&text)
            .map_err(|e| match e {
                CascnError::Checkpoint(m) => {
                    CascnError::Checkpoint(format!("{}: {m}", path.display()))
                }
                CascnError::CheckpointTruncated { offset, message } => {
                    CascnError::CheckpointTruncated {
                        offset,
                        message: format!("{}: {message}", path.display()),
                    }
                }
                other => other,
            })
    }
}

/// Splits off and verifies the checksum footer, returning the covered body.
///
/// A file whose final line is not a complete checksum footer was cut short
/// — the footer is always the last thing written — so that case surfaces
/// as [`CascnError::CheckpointTruncated`] with the byte offset at which
/// the file ended. A present, well-formed footer that fails to match is
/// corruption instead ([`CascnError::Checkpoint`]).
fn verify_checksum(text: &str) -> Result<&str, CascnError> {
    let truncated = |message: String| CascnError::CheckpointTruncated {
        offset: text.len(),
        message,
    };
    let footer_at = text
        .lines()
        .last()
        .filter(|l| l.starts_with(CHECKSUM_PREFIX))
        .and_then(|l| text.rfind(l))
        .ok_or_else(|| {
            truncated("missing checksum footer — file cut short or not a v2 checkpoint".into())
        })?;
    let footer = text[footer_at..].trim_end();
    let hex = &footer[CHECKSUM_PREFIX.len()..];
    if hex.len() < 16 {
        // The 16-hex-digit checksum itself was cut mid-write.
        return Err(truncated(format!(
            "checksum footer cut short after {} of 16 hex digits (`{hex}`)",
            hex.len()
        )));
    }
    let expected = u64::from_str_radix(hex.trim(), 16).map_err(|_| {
        CascnError::Checkpoint(format!("malformed checksum footer `{hex}`"))
    })?;
    let body = &text[..footer_at];
    let actual = fnv1a64(body.as_bytes());
    if actual != expected {
        return Err(CascnError::Checkpoint(format!(
            "checksum mismatch (footer {expected:016x}, computed {actual:016x}) — \
             file truncated or corrupted"
        )));
    }
    Ok(body)
}

fn push_params(out: &mut String, store: &ParamStore) {
    // ParamStore::to_text leads with its own `# cascn params v1` comment,
    // which section parsing skips; keeping it makes sections self-describing.
    out.push_str(&store.to_text());
}

fn write_matrix(out: &mut String, header: &str, mat: &Matrix) {
    let _ = writeln!(out, "{header} {} {}", mat.rows(), mat.cols());
    for r in 0..mat.rows() {
        let row: Vec<String> = mat.row(r).iter().map(|x| format!("{x:?}")).collect();
        let _ = writeln!(out, "{}", row.join(" "));
    }
}

/// Reads the `rows` value lines of a `rows × cols` matrix whose header
/// starts `left` bytes before the end of the input.
fn read_matrix<'a>(
    lines: &mut std::iter::Peekable<impl Iterator<Item = (usize, &'a str)>>,
    (rows, cols): (usize, usize),
    left: usize,
) -> Result<Matrix, String> {
    let count = declared_values(rows, cols, left)?;
    let mut data = Vec::with_capacity(count);
    for _ in 0..rows {
        let (lineno, row_line) = lines.next().ok_or("truncated matrix rows")?;
        for tok in row_line.split_whitespace() {
            let v: f32 = tok
                .parse()
                .map_err(|_| format!("line {}: bad float `{tok}`", lineno + 1))?;
            data.push(v);
        }
    }
    if data.len() != count {
        return Err(format!("matrix expected {count} values, got {}", data.len()));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

fn split_kv(line: &str, lineno: usize) -> Result<(&str, &str), CascnError> {
    line.split_once(' ')
        .map(|(k, v)| (k, v.trim()))
        .ok_or_else(|| CascnError::Checkpoint(format!("line {lineno}: expected `key value`")))
}

fn parse_num<T: std::str::FromStr>(tok: &str, what: &str, lineno: usize) -> Result<T, CascnError> {
    tok.parse()
        .map_err(|_| CascnError::Checkpoint(format!("line {lineno}: bad {what} `{tok}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        let mut params = ParamStore::new();
        params.register("w", Matrix::from_rows(&[&[1.5, -2.0e-7], &[0.25, 3.0]]));
        params.register("b", Matrix::row_vector(&[0.125]));
        let mut best = params.clone();
        best.value_mut(best.ids().next().unwrap()).as_mut_slice()[0] = 9.0;
        let mut history = History::new();
        history.push(1.0, 2.0);
        history.push(0.5, f32::NAN);
        history.log_anomaly(2, 3, AnomalyKind::NonFiniteGrad);
        TrainCheckpoint {
            epoch: 2,
            shuffle_seed: 7,
            base_lr: 5e-3,
            eff_lr: 2.5e-3,
            bad_streak: 1,
            stopper: StopperState {
                patience: 10,
                best: 2.0,
                best_epoch: 1,
                stale: 1,
                epochs_seen: 2,
            },
            history,
            adam: AdamState {
                step: 17,
                m: vec![Matrix::full(2, 2, 0.5), Matrix::zeros(1, 1)],
                v: vec![Matrix::full(2, 2, 0.25), Matrix::full(1, 1, 1e-9)],
            },
            params,
            best_params: Some(best),
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let ckpt = sample();
        let text = ckpt.to_text();
        let back = TrainCheckpoint::from_text(&text).expect("parses");
        assert_eq!(back.epoch, 2);
        assert_eq!(back.shuffle_seed, 7);
        assert_eq!(back.base_lr, 5e-3);
        assert_eq!(back.eff_lr, 2.5e-3);
        assert_eq!(back.bad_streak, 1);
        assert_eq!(back.stopper, ckpt.stopper);
        assert_eq!(back.adam, ckpt.adam);
        assert_eq!(back.history.records().len(), 2);
        assert!(back.history.records()[1].val_loss.is_nan());
        assert_eq!(back.history.anomalies(), ckpt.history.anomalies());
        for (a, b) in ckpt.params.ids().zip(back.params.ids()) {
            assert_eq!(ckpt.params.value(a).as_slice(), back.params.value(b).as_slice());
        }
        let best = back.best_params.expect("best params survive");
        assert_eq!(best.value(best.ids().next().unwrap()).as_slice()[0], 9.0);
    }

    #[test]
    fn truncation_is_detected() {
        let text = sample().to_text();
        // Cutting anywhere — including mid-footer — must be rejected.
        for frac in [0.25, 0.6, 0.95] {
            let cut = (text.len() as f64 * frac) as usize;
            let err = TrainCheckpoint::from_text(&text[..cut]).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("checksum") || msg.contains("truncated"),
                "cut at {frac}: {msg}"
            );
        }
    }

    #[test]
    fn truncation_reports_distinct_variant_with_byte_offset() {
        // Regression: a truncated file used to surface as a generic
        // `Checkpoint` parse error; it must be its own variant carrying the
        // byte offset where the file ended.
        let text = sample().to_text();
        for cut in [text.len() / 3, text.len() - 40, text.len() - 5] {
            match TrainCheckpoint::from_text(&text[..cut]).unwrap_err() {
                CascnError::CheckpointTruncated { offset, .. } => {
                    assert_eq!(offset, cut, "offset must be where the bytes stop");
                }
                other => panic!("cut at {cut}: expected CheckpointTruncated, got {other}"),
            }
        }
        // And the file loader preserves the variant while prefixing the path.
        let dir = std::env::temp_dir().join("cascn_ckpt_trunc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.ckpt");
        let cut = text.len() / 2;
        std::fs::write(&path, &text[..cut]).unwrap();
        match TrainCheckpoint::load(&path).unwrap_err() {
            CascnError::CheckpointTruncated { offset, message } => {
                assert_eq!(offset, cut);
                assert!(message.contains("cut.ckpt"), "{message}");
            }
            other => panic!("expected CheckpointTruncated, got {other}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corruption_keeps_the_generic_checkpoint_variant() {
        // A full-length file with a matching-length footer but flipped body
        // bytes is corruption, not truncation.
        let text = sample().to_text();
        let flipped = text.replacen("0.25", "0.26", 1);
        match TrainCheckpoint::from_text(&flipped).unwrap_err() {
            CascnError::Checkpoint(m) => assert!(m.contains("checksum mismatch"), "{m}"),
            other => panic!("expected Checkpoint, got {other}"),
        }
    }

    #[test]
    fn corruption_is_detected() {
        let text = sample().to_text();
        let flipped = text.replacen("0.25", "0.26", 1);
        assert_ne!(flipped, text, "test must actually corrupt a byte");
        let err = TrainCheckpoint::from_text(&flipped).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    /// A forged header behind a valid checksum footer — a moment or a
    /// parameter declaring a giant or overflowing shape — is an error, not
    /// a capacity-overflow panic or a multi-gigabyte allocation.
    #[test]
    fn giant_declared_shapes_behind_a_valid_footer_are_rejected() {
        let text = sample().to_text();
        let body = &text[..text.rfind(CHECKSUM_PREFIX).unwrap()];
        for (from, to) in [
            ("moment m 0 2 2", "moment m 0 4294967296 4294967297"),
            ("moment v 1 1 1", "moment v 1 4000000000 4000000000"),
            ("param w 2 2", "param w 4294967296 4294967297"),
            ("param b 1 1", "param b 4000000000 4000000000"),
        ] {
            let forged = body.replacen(from, to, 1);
            assert_ne!(forged, body, "`{from}` must occur in the sample");
            let footer = fnv1a64(forged.as_bytes());
            let refooted = format!("{forged}{CHECKSUM_PREFIX}{footer:016x}\n");
            let err = TrainCheckpoint::from_text(&refooted).unwrap_err();
            assert!(err.to_string().contains("declared"), "{to}: {err}");
        }
    }

    #[test]
    fn v1_params_file_is_rejected_with_guidance() {
        let mut store = ParamStore::new();
        store.register("w", Matrix::zeros(1, 1));
        let v1 = store.to_text();
        let err = TrainCheckpoint::from_text(&v1).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("checksum") || msg.contains("v1"),
            "unhelpful v1 error: {msg}"
        );
    }

    #[test]
    fn file_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join("cascn_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        ckpt.save(&path).unwrap(); // overwrite is fine
        let back = TrainCheckpoint::load(&path).unwrap();
        assert_eq!(back.epoch, ckpt.epoch);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn is_v2_detects_format() {
        assert!(TrainCheckpoint::is_v2(&sample().to_text()));
        assert!(!TrainCheckpoint::is_v2("# cascn params v1\n"));
        assert!(!TrainCheckpoint::is_v2(""));
    }
}
