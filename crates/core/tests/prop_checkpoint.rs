//! Property tests for the training-checkpoint decoder
//! (`TrainCheckpoint::from_text`): a checkpoint `to_text` writes decodes to
//! the same checkpoint, and no corruption of one — truncation, flipped
//! bytes, giant declared counts, NaN and ±inf, dropped or repeated lines,
//! behind a recomputed checksum footer or not — panics. A corrupt file
//! decodes to an error, or to a checkpoint that keeps the decoder's
//! invariants and survives its own round trip.

use cascn::{fnv1a64, CascnError, StopperState, TrainCheckpoint};
use cascn_autograd::{AdamState, ParamStore};
use cascn_nn::train::{AnomalyKind, History};
use cascn_tensor::Matrix;
use proptest::prelude::*;

const FOOTER: &str = "# checksum fnv1a64 ";

/// A xorshift stream: the tests draw every choice from one seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Mostly finite values, with `-0.0`, NaN and ±inf mixed in.
    fn value(&mut self) -> f32 {
        match self.below(12) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            _ => (self.below(2001) as f32 - 1000.0) / 37.0,
        }
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.value())
    }
}

/// A checkpoint with 1–3 parameters of random shapes (empty ones
/// included), optional Adam moments and best parameters, and a random
/// history.
fn checkpoint(rng: &mut Rng) -> TrainCheckpoint {
    let mut params = ParamStore::new();
    for i in 0..1 + rng.below(3) {
        let (rows, cols) = (rng.below(4), 1 + rng.below(4));
        let m = rng.matrix(rows, cols);
        params.register(format!("p{i}"), m);
    }
    let shapes: Vec<(usize, usize)> = params.ids().map(|id| params.value(id).shape()).collect();
    let adam = if rng.below(2) == 0 {
        AdamState::default()
    } else {
        AdamState {
            step: rng.next() % 1000,
            m: shapes.iter().map(|&(r, c)| rng.matrix(r, c)).collect(),
            v: shapes.iter().map(|&(r, c)| rng.matrix(r, c)).collect(),
        }
    };
    let best_params = (rng.below(2) == 0).then(|| {
        let mut best = params.clone();
        for id in params.ids() {
            let (r, c) = best.value(id).shape();
            *best.value_mut(id) = rng.matrix(r, c);
        }
        best
    });
    let mut history = History::new();
    for _ in 0..rng.below(4) {
        history.push(rng.value(), rng.value());
    }
    for _ in 0..rng.below(3) {
        let kind = [AnomalyKind::NonFiniteLoss, AnomalyKind::Rollback][rng.below(2)];
        history.log_anomaly(1 + rng.below(5), rng.below(9), kind);
    }
    TrainCheckpoint {
        epoch: rng.below(50),
        shuffle_seed: rng.next(),
        base_lr: rng.value(),
        eff_lr: rng.value(),
        bad_streak: rng.below(4),
        stopper: StopperState {
            patience: rng.below(20),
            best: rng.value(),
            best_epoch: rng.below(20),
            stale: rng.below(20),
            epochs_seen: rng.below(20),
        },
        history,
        adam,
        params,
        best_params,
    }
}

/// `body` under a freshly computed checksum footer, so a corruption of the
/// body reaches the parser instead of stopping at the checksum.
fn refooted(body: &str) -> String {
    format!("{body}{FOOTER}{:016x}\n", fnv1a64(body.as_bytes()))
}

/// One corruption of the footer-less `body`: a cut, a flipped byte, a
/// token replaced by a giant count or a non-finite value, or a line
/// dropped or repeated.
fn corrupt(body: &str, rng: &mut Rng) -> String {
    let mut lines: Vec<String> = body.lines().map(str::to_string).collect();
    match rng.below(5) {
        0 => return body[..rng.below(body.len())].to_string(),
        1 => {
            let mut bytes = body.as_bytes().to_vec();
            let at = rng.below(bytes.len());
            bytes[at] = b"0123456789 -.:#\nazNI"[rng.below(20)];
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        2 | 3 => {
            let line = rng.below(lines.len());
            let mut toks: Vec<&str> = lines[line].split(' ').collect();
            let at = rng.below(toks.len());
            let giant = ["18446744073709551615", "4294967296", "99999999999", "-1"];
            let odd = ["NaN", "inf", "-inf", "-0.0", "1e39"];
            toks[at] = if rng.below(2) == 0 {
                giant[rng.below(4)]
            } else {
                odd[rng.below(5)]
            };
            lines[line] = toks.join(" ");
        }
        _ => {
            let line = rng.below(lines.len());
            if rng.below(2) == 0 {
                lines.remove(line);
            } else {
                let copy = lines[line].clone();
                lines.insert(line, copy);
            }
        }
    }
    lines.join("\n") + "\n"
}

/// What every checkpoint `from_text` accepts must satisfy: the invariants
/// it checks, and a round trip through `to_text` that changes nothing.
fn assert_valid(ckpt: &TrainCheckpoint) -> Result<(), String> {
    prop_assert!(
        !ckpt.params.is_empty(),
        "accepted a checkpoint without parameters"
    );
    prop_assert_eq!(ckpt.adam.m.len(), ckpt.adam.v.len());
    let text = ckpt.to_text();
    let again = TrainCheckpoint::from_text(&text).map_err(|e| format!("re-decode failed: {e}"))?;
    prop_assert_eq!(
        again.to_text(),
        text,
        "encode → decode → encode changed the text"
    );
    Ok(())
}

/// Decodes one corruption: no panic, and an accepted result is valid.
fn check_corruption(text: &str, corrupted: &str) -> Result<(), String> {
    match TrainCheckpoint::from_text(corrupted) {
        Err(_) => Ok(()),
        Ok(ckpt) => assert_valid(&ckpt)
            .map_err(|e| format!("{e}\n--- accepted:\n{corrupted}\n--- from:\n{text}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn encode_then_decode_is_the_identity(seed in 0u64..u64::MAX) {
        let ckpt = checkpoint(&mut Rng::new(seed));
        let text = ckpt.to_text();
        let back = TrainCheckpoint::from_text(&text).map_err(|e| e.to_string())?;
        prop_assert_eq!(back.to_text(), text);
        prop_assert_eq!(
            (back.epoch, back.shuffle_seed, back.bad_streak),
            (ckpt.epoch, ckpt.shuffle_seed, ckpt.bad_streak)
        );
        prop_assert_eq!(back.history.anomalies(), ckpt.history.anomalies());
    }

    #[test]
    fn corrupt_checkpoints_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let text = checkpoint(&mut rng).to_text();
        let body = &text[..text.rfind(FOOTER).expect("footer")];
        prop_assert!(
            TrainCheckpoint::from_text(&refooted(body)).is_ok(),
            "a recomputed footer must not change the decode"
        );
        for _ in 0..8 {
            let corrupted = corrupt(body, &mut rng);
            let stale = format!("{corrupted}{}", &text[body.len()..]);
            let caught = TrainCheckpoint::from_text(&stale).is_err();
            prop_assert!(caught || corrupted == body, "a stale footer must fail the checksum");
            check_corruption(&text, &refooted(&corrupted))?;
        }
    }
}

/// Every count a checkpoint declares is checked against the input left
/// before anything is allocated for it.
#[test]
fn giant_declared_matrix_shapes_are_refused() {
    let text = checkpoint(&mut Rng::new(11)).to_text();
    let body = &text[..text.rfind(FOOTER).expect("footer")];
    for prefix in ["param ", "moment "] {
        let Some(line) = body.lines().find(|l| l.starts_with(prefix)) else {
            continue;
        };
        let mut toks: Vec<&str> = line.split(' ').collect();
        let last = toks.len() - 1;
        toks[last - 1] = "4294967296";
        toks[last] = "4294967296";
        let forged = body.replacen(line, &toks.join(" "), 1);
        match TrainCheckpoint::from_text(&refooted(&forged)) {
            Err(CascnError::Checkpoint(m)) => assert!(m.contains("declared"), "{prefix}: {m}"),
            other => panic!("{prefix}: expected a declared-count error, got {other:?}"),
        }
    }
}
