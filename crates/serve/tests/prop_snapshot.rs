//! Property tests for the spectral-cache snapshot decoder
//! (`persist::snapshot_from_text`): a snapshot `snapshot_to_text` writes
//! decodes to the same entries, and no corruption of one — truncation,
//! flipped bytes, giant declared counts, NaN and ±inf, dropped or repeated
//! lines, behind a recomputed checksum footer or not — panics. A corrupt
//! file decodes to an error, or to entries that survive their own round
//! trip.

use std::sync::Arc;

use cascn::{fnv1a64, spectral_basis, CascnConfig};
use cascn_cascades::{Cascade, Event};
use cascn_serve::persist::{
    basis_fingerprint, snapshot_from_text, snapshot_to_text, LiveSnapshotEntry, SnapshotContents,
};
use cascn_serve::SnapshotError;
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
}

fn cfg() -> CascnConfig {
    CascnConfig {
        max_nodes: 10,
        max_steps: 4,
        ..CascnConfig::default()
    }
}

/// A random diffusion tree of 1–8 events in time order.
fn cascade(rng: &mut Rng, id: u64) -> Cascade {
    let mut events = vec![Event {
        user: id * 100,
        parent: None,
        time: 0.0,
    }];
    for i in 1..1 + rng.below(8) {
        let time = events[i - 1].time + rng.below(10) as f64 * 0.5;
        events.push(Event {
            user: id * 100 + i as u64,
            parent: Some(rng.below(i)),
            time,
        });
    }
    Cascade::new(id, rng.below(1000) as f64, events)
}

/// The snapshot text of 0–3 cache entries, with real spectral bases, and
/// 0–2 live cascades.
fn snapshot(rng: &mut Rng) -> String {
    let entries: Vec<_> = (0..rng.below(4) as u64)
        .map(|id| {
            let c = cascade(rng, id + 1);
            let window = [2.0, 25.0, 3600.0][rng.below(3)];
            let basis = spectral_basis(&c, window, &cfg());
            (c, window, Arc::new(basis))
        })
        .collect();
    let live: Vec<LiveSnapshotEntry> = (0..rng.below(3) as u64)
        .map(|id| (cascade(rng, id + 50), 25.0))
        .collect();
    snapshot_to_text(&entries, &live, basis_fingerprint(&cfg()))
}

/// Decoded contents written back as snapshot text.
fn encode((entries, live): &SnapshotContents) -> String {
    let entries: Vec<_> = entries
        .iter()
        .map(|(c, w, b)| (c.clone(), *w, Arc::new(b.clone())))
        .collect();
    snapshot_to_text(&entries, live, basis_fingerprint(&cfg()))
}

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
            let odd = ["NaN", "inf", "-inf", "-0.0", "1e39", "0:NaN", "1:inf"];
            toks[at] = if rng.below(2) == 0 {
                giant[rng.below(4)]
            } else {
                odd[rng.below(7)]
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

/// Decodes one corruption: no panic, and accepted contents survive a
/// round trip unchanged.
fn check_corruption(text: &str, corrupted: &str) -> Result<(), String> {
    let fp = basis_fingerprint(&cfg());
    let Ok(contents) = snapshot_from_text(corrupted, fp) else {
        return Ok(());
    };
    let again = encode(&contents);
    let back = snapshot_from_text(&again, fp).map_err(|e| format!("re-decode failed: {e}"))?;
    prop_assert_eq!(
        encode(&back),
        again,
        "encode → decode → encode changed the text of\n{}\n--- from:\n{}",
        corrupted,
        text
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_then_decode_is_the_identity(seed in 0u64..u64::MAX) {
        let text = snapshot(&mut Rng::new(seed));
        let contents =
            snapshot_from_text(&text, basis_fingerprint(&cfg())).map_err(|e| e.to_string())?;
        prop_assert_eq!(encode(&contents), text);
    }

    #[test]
    fn corrupt_snapshots_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let text = snapshot(&mut rng);
        let body = &text[..text.rfind(FOOTER).expect("footer")];
        prop_assert!(
            snapshot_from_text(&refooted(body), basis_fingerprint(&cfg())).is_ok(),
            "a recomputed footer must not change the decode"
        );
        for _ in 0..8 {
            let corrupted = corrupt(body, &mut rng);
            let stale = format!("{corrupted}{}", &text[body.len()..]);
            let caught = matches!(
                snapshot_from_text(&stale, basis_fingerprint(&cfg())),
                Err(SnapshotError::ChecksumMismatch | SnapshotError::Truncated)
            );
            prop_assert!(caught || corrupted == body, "a stale footer must fail the checksum");
            check_corruption(&text, &refooted(&corrupted))?;
        }
    }
}
