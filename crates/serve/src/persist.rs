//! Crash-recoverable persistence for the spectral cache.
//!
//! A replica that dies — `kill -9`, OOM, power loss — loses its warm
//! [`BasisCache`](crate::BasisCache) and pays the full spectral recompute
//! cost for every request after restart. This module snapshots the cache
//! to disk so a restarted replica warm-starts instead:
//!
//! - **Format** — plain text, one versioned header, a basis fingerprint of
//!   the config fields that shape a spectral basis, the entries in LRU
//!   order (oldest first), and an FNV-1a 64 checksum footer — the same
//!   integrity scheme as training checkpoints. Floats are written with
//!   `{:?}` (shortest round-trip), so a restore is **bit-identical** to
//!   the in-memory cache it came from.
//! - **Atomicity** — writes go through [`atomic_write`] (temp file in the
//!   same directory + rename), so a crash mid-save leaves the previous
//!   snapshot intact, never a torn file.
//! - **Rejection is always a cold start, never a panic** — a truncated
//!   file, a flipped bit, an unknown version, or a snapshot written under
//!   a different basis-shaping config all load as a structured
//!   [`SnapshotError`]; the server logs it, starts cold, and overwrites
//!   the bad snapshot on the next save. A stale or foreign basis can never
//!   be served.

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use cascn::{
    atomic_write, bytes_from, declared_values, fnv1a64, CascnConfig, LambdaMax, LaplacianKind,
};
use cascn_cascades::{Cascade, Event};
use cascn_graph::SpectralBasis;
use cascn_tensor::{Csr, SparseOp};

/// First line of every snapshot file. v3 appends a live-cascade section
/// (the streaming `/observe` registry: each resident cascade and its
/// window) after the cache entries; the live operator itself is derived,
/// not persisted, and is rebuilt cold on restore. v2 stored
/// the sparse operator form of each basis (CSR core + optional rank-1
/// teleport term) instead of the materialized dense Chebyshev matrices v1
/// carried. Older versions are rejected as [`SnapshotError::VersionSkew`]
/// and cold-start cleanly.
pub const SNAPSHOT_HEADER: &str = "# cascn spectral cache snapshot v3";
const CHECKSUM_PREFIX: &str = "# checksum fnv1a64 ";

/// Version of the spectral *compute kernel* whose outputs populate the
/// cache. Bumped whenever the kernel changes numerics (v2: materialized
/// dense bases → sparse operator recurrence; v3: dense power-iteration φ
/// and dense λ_max → exact sparse φ solve and sparse λ_max; v4: the
/// undirected Laplacian on the same sparse pipeline, sparse λ_max), so a
/// restarted replica can never mix bases produced by a different kernel
/// generation — the fingerprint folds this in.
pub const SPECTRAL_KERNEL_VERSION: u32 = 4;

/// One restored cache entry: the cascade, its window, and the basis.
pub type SnapshotEntry = (Cascade, f64, SpectralBasis);

/// One restored live-registry entry: the growing cascade and the window
/// its spectral state is maintained at.
pub type LiveSnapshotEntry = (Cascade, f64);

/// Everything a snapshot restores: the finished-cache entries and the
/// live-registry entries, in file order.
pub type SnapshotContents = (Vec<SnapshotEntry>, Vec<LiveSnapshotEntry>);

/// Why a snapshot was rejected. Every variant cold-starts the cache; none
/// of them is a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The checksum footer is missing — the file was cut short mid-write.
    Truncated,
    /// The footer is present but does not match the body — bit rot or a
    /// partial overwrite.
    ChecksumMismatch,
    /// The header names a version this build does not read.
    VersionSkew(String),
    /// The snapshot was written under different basis-shaping config
    /// (Chebyshev order, node cap, α, λ_max/Laplacian strategy) — its
    /// bases would be stale for this server, so it is refused wholesale.
    FingerprintMismatch { found: u64, expected: u64 },
    /// Structurally invalid content inside a checksum-valid file.
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated (no checksum footer)"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::VersionSkew(header) => {
                write!(f, "unrecognized snapshot header `{header}` (expected `{SNAPSHOT_HEADER}`)")
            }
            SnapshotError::FingerprintMismatch { found, expected } => write!(
                f,
                "snapshot basis fingerprint {found:016x} does not match this server's {expected:016x}"
            ),
            SnapshotError::Malformed(m) => write!(f, "malformed snapshot: {m}"),
        }
    }
}

/// Fingerprint of the config fields a [`SpectralBasis`] depends on. Two
/// servers agree on this exactly when `spectral_basis` would produce the
/// same bases for the same cascade — model *parameters* are deliberately
/// excluded (the basis is parameter-independent and survives hot reloads).
pub fn basis_fingerprint(cfg: &CascnConfig) -> u64 {
    kernel_fingerprint(SPECTRAL_KERNEL_VERSION, cfg)
}

fn kernel_fingerprint(kernel_version: u32, cfg: &CascnConfig) -> u64 {
    let mut bytes = Vec::with_capacity(40);
    bytes.extend_from_slice(&kernel_version.to_le_bytes());
    bytes.extend_from_slice(&(cfg.k as u64).to_le_bytes());
    bytes.extend_from_slice(&(cfg.max_nodes as u64).to_le_bytes());
    bytes.extend_from_slice(&cfg.alpha.to_bits().to_le_bytes());
    bytes.push(match cfg.lambda_max {
        LambdaMax::Exact => 0,
        LambdaMax::Approx2 => 1,
    });
    bytes.push(match cfg.laplacian {
        LaplacianKind::Directed => 0,
        LaplacianKind::Undirected => 1,
    });
    // The byte that once named the runtime Chebyshev kernel. Every replica
    // ran the sparse one (0); hashing it unchanged keeps every deployed
    // snapshot's fingerprint valid.
    bytes.push(0);
    fnv1a64(&bytes)
}

/// Serializes exported cache entries plus the live-cascade registry into
/// snapshot text, footer included.
pub fn snapshot_to_text(
    entries: &[(Cascade, f64, Arc<SpectralBasis>)],
    live: &[LiveSnapshotEntry],
    basis_fp: u64,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256 + entries.len() * 512 + live.len() * 128);
    let _ = writeln!(out, "{SNAPSHOT_HEADER}");
    let _ = writeln!(out, "basis_fp {basis_fp:016x}");
    let _ = writeln!(out, "entries {}", entries.len());
    for (cascade, window, basis) in entries {
        let _ = writeln!(out, "entry {:016x}", window.to_bits());
        write_cascade(&mut out, cascade);
        write_basis(&mut out, basis);
    }
    let _ = writeln!(out, "live {}", live.len());
    for (cascade, window) in live {
        let _ = writeln!(out, "entry {:016x}", window.to_bits());
        write_cascade(&mut out, cascade);
    }
    let checksum = fnv1a64(out.as_bytes());
    let _ = writeln!(out, "{CHECKSUM_PREFIX}{checksum:016x}");
    out
}

fn write_cascade(out: &mut String, cascade: &Cascade) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "cascade {} {:?} {}", cascade.id, cascade.start_time, cascade.events.len());
    for e in &cascade.events {
        let parent = e.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(out, "event {} {parent} {:?}", e.user, e.time);
    }
}

/// Atomically writes a snapshot of `entries` and `live` to `path`.
pub fn save_snapshot(
    path: &Path,
    entries: &[(Cascade, f64, Arc<SpectralBasis>)],
    live: &[LiveSnapshotEntry],
    basis_fp: u64,
) -> std::io::Result<()> {
    atomic_write(path, snapshot_to_text(entries, live, basis_fp).as_bytes())
}

/// Parses snapshot text, verifying the checksum footer *first* and then
/// the version header and basis fingerprint, so no corrupt or foreign
/// content is ever interpreted as cache state.
pub fn snapshot_from_text(
    text: &str,
    expected_fp: u64,
) -> Result<SnapshotContents, SnapshotError> {
    let body = verify_checksum(text)?;
    let mut lines = body.lines();
    let header = lines.next().unwrap_or_default();
    if header.trim() != SNAPSHOT_HEADER {
        return Err(SnapshotError::VersionSkew(header.trim().to_string()));
    }
    let found_fp = match lines.next().and_then(|l| l.strip_prefix("basis_fp ")) {
        Some(hex) => u64::from_str_radix(hex.trim(), 16)
            .map_err(|_| SnapshotError::Malformed(format!("bad basis_fp `{hex}`")))?,
        None => return Err(SnapshotError::Malformed("missing basis_fp line".into())),
    };
    if found_fp != expected_fp {
        return Err(SnapshotError::FingerprintMismatch { found: found_fp, expected: expected_fp });
    }
    let count = match lines.next().and_then(|l| l.strip_prefix("entries ")) {
        Some(n) => declared_count(body, n)
            .map_err(|m| SnapshotError::Malformed(format!("entries count: {m}")))?,
        None => return Err(SnapshotError::Malformed("missing entries line".into())),
    };

    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        out.push(read_entry(body, &mut lines).map_err(|m| {
            SnapshotError::Malformed(format!("entry {i}: {m}"))
        })?);
    }
    let live_count = match lines.next().and_then(|l| l.strip_prefix("live ")) {
        Some(n) => declared_count(body, n)
            .map_err(|m| SnapshotError::Malformed(format!("live count: {m}")))?,
        None => return Err(SnapshotError::Malformed("missing live section".into())),
    };
    let mut live = Vec::with_capacity(live_count);
    for i in 0..live_count {
        live.push(read_live_entry(body, &mut lines).map_err(|m| {
            SnapshotError::Malformed(format!("live entry {i}: {m}"))
        })?);
    }
    if lines.next().is_some() {
        return Err(SnapshotError::Malformed("trailing content after last entry".into()));
    }
    Ok((out, live))
}

/// Loads a snapshot file. `Ok(None)` means the file does not exist (a
/// routine cold start); every other failure is a [`SnapshotError`].
pub fn load_snapshot(
    path: &Path,
    expected_fp: u64,
) -> Result<Option<SnapshotContents>, SnapshotError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(SnapshotError::Malformed(format!("read {}: {e}", path.display()))),
    };
    snapshot_from_text(&text, expected_fp).map(Some)
}

fn verify_checksum(text: &str) -> Result<&str, SnapshotError> {
    let tail = text.trim_end_matches(['\r', '\n']);
    let footer_start = match tail.rfind('\n') {
        Some(i) => i + 1,
        None => return Err(SnapshotError::Truncated),
    };
    let footer = &tail[footer_start..];
    let Some(hex) = footer.strip_prefix(CHECKSUM_PREFIX) else {
        return Err(SnapshotError::Truncated);
    };
    let declared =
        u64::from_str_radix(hex.trim(), 16).map_err(|_| SnapshotError::Truncated)?;
    // The checksum covers every byte of the body as written, including the
    // newline that precedes the footer line.
    let body = &text[..footer_start];
    if fnv1a64(body.as_bytes()) != declared {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(body)
}

/// Writes the sparse operator form of a basis: a `basis` line with the
/// scalar metadata, one `row` line of `col:value` pairs per CSR row (in
/// stored — strictly ascending — column order, so the reconstruction via
/// [`Csr::from_rows`] is bit- and layout-identical), and the optional
/// rank-1 teleport term. Floats use `{:?}` (shortest round-trip).
fn write_basis(out: &mut String, basis: &SpectralBasis) {
    use std::fmt::Write as _;
    let op = &basis.op;
    let n = op.dim();
    let has_rank1 = usize::from(op.rank1().is_some());
    let _ = writeln!(
        out,
        "basis {:?} {n} {} {has_rank1}",
        basis.lambda_max, basis.k
    );
    for r in 0..n {
        let _ = write!(out, "row {}", op.csr().row(r).len());
        for &(c, v) in op.csr().row(r) {
            let _ = write!(out, " {c}:{v:?}");
        }
        out.push('\n');
    }
    if let Some((coeff, u, v)) = op.rank1() {
        let _ = writeln!(out, "rank1 {coeff:?}");
        let _ = writeln!(out, "u {}", join_floats(u));
        let _ = writeln!(out, "v {}", join_floats(v));
    }
}

fn join_floats(xs: &[f32]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
    parts.join(" ")
}

/// Reads one `entry` line plus its cascade block — the whole of a live
/// entry, and the front half of a cache entry.
/// The count token `tok` (a slice of `body`) declares, refused unless that
/// many items, one byte each at least, fit in the input from `tok` on.
fn declared_count(body: &str, tok: &str) -> Result<usize, String> {
    let count: usize = tok.trim().parse().map_err(|_| format!("bad count `{tok}`"))?;
    declared_values(count, 1, bytes_from(body, tok))
}

fn read_live_entry<'a>(
    body: &str,
    lines: &mut impl Iterator<Item = &'a str>,
) -> Result<LiveSnapshotEntry, String> {
    let entry_line = lines.next().ok_or("missing entry line")?;
    let window_bits = entry_line
        .strip_prefix("entry ")
        .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
        .ok_or_else(|| format!("bad entry line `{entry_line}`"))?;
    let window = f64::from_bits(window_bits);

    let cas_line = lines.next().ok_or("missing cascade line")?;
    let toks: Vec<&str> = cas_line.split_whitespace().collect();
    let (id, start_time, n_events): (u64, f64, usize) = match toks.as_slice() {
        ["cascade", id, start, n] => (
            id.parse().map_err(|_| format!("bad cascade id `{id}`"))?,
            start.parse().map_err(|_| format!("bad start time `{start}`"))?,
            declared_count(body, n).map_err(|m| format!("event count: {m}"))?,
        ),
        _ => return Err(format!("bad cascade line `{cas_line}`")),
    };
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let line = lines.next().ok_or("missing event line")?;
        let t: Vec<&str> = line.split_whitespace().collect();
        let ["event", user, parent, time] = t.as_slice() else {
            return Err(format!("bad event line `{line}`"));
        };
        events.push(Event {
            user: user.parse().map_err(|_| format!("bad user `{user}`"))?,
            parent: match *parent {
                "-" => None,
                p => Some(p.parse().map_err(|_| format!("bad parent `{p}`"))?),
            },
            time: time.parse().map_err(|_| format!("bad time `{time}`"))?,
        });
    }
    // A checksum-valid snapshot written by this code always carries valid
    // cascades, but the fallible constructor keeps even a hand-crafted
    // file from panicking the server.
    let cascade = Cascade::try_new(id, start_time, events)
        .map_err(|fault| format!("invalid cascade {id}: {fault}"))?;
    Ok((cascade, window))
}

fn read_entry<'a>(
    body: &str,
    lines: &mut impl Iterator<Item = &'a str>,
) -> Result<SnapshotEntry, String> {
    let (cascade, window) = read_live_entry(body, lines)?;
    let basis_line = lines.next().ok_or("missing basis line")?;
    let t: Vec<&str> = basis_line.split_whitespace().collect();
    let (lambda_max, n, k, has_rank1): (f32, usize, usize, usize) = match t.as_slice() {
        ["basis", l, n, k, r1] => (
            l.parse().map_err(|_| format!("bad lambda_max `{l}`"))?,
            declared_count(body, n).map_err(|m| format!("node count: {m}"))?,
            k.parse().map_err(|_| format!("bad order `{k}`"))?,
            r1.parse().map_err(|_| format!("bad rank1 flag `{r1}`"))?,
        ),
        _ => return Err(format!("bad basis line `{basis_line}`")),
    };
    if has_rank1 > 1 {
        return Err(format!("rank1 flag must be 0 or 1, got {has_rank1}"));
    }
    let rows = read_csr_rows(lines, n)?;
    let csr = Csr::from_rows(n, &rows);
    let rank1 = if has_rank1 == 1 {
        let coeff_line = lines.next().ok_or("missing rank1 line")?;
        let coeff: f32 = coeff_line
            .strip_prefix("rank1 ")
            .and_then(|c| c.trim().parse().ok())
            .ok_or_else(|| format!("bad rank1 line `{coeff_line}`"))?;
        let u = read_vector(lines, "u", n)?;
        let v = read_vector(lines, "v", n)?;
        Some((coeff, u, v))
    } else {
        None
    };
    let op = Arc::new(SparseOp::new(csr, rank1));
    Ok((cascade, window, SpectralBasis::from_parts(lambda_max, k, op)))
}

/// Reads `n` CSR row lines, validating strictly-ascending in-range columns
/// so a hand-crafted file fails as [`SnapshotError::Malformed`] instead of
/// tripping `Csr::from_rows`'s assertions.
fn read_csr_rows<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    n: usize,
) -> Result<Vec<Vec<(usize, f32)>>, String> {
    let mut rows = Vec::with_capacity(n);
    for r in 0..n {
        let line = lines.next().ok_or_else(|| format!("missing CSR row {r}"))?;
        let rest = line
            .strip_prefix("row ")
            .ok_or_else(|| format!("bad CSR row line `{line}`"))?;
        let mut toks = rest.split_whitespace();
        let count = toks
            .next()
            .ok_or_else(|| format!("bad nnz count in `{line}`"))
            .and_then(|c| declared_count(rest, c))
            .map_err(|m| format!("CSR row {r}: {m}"))?;
        let mut row = Vec::with_capacity(count);
        let mut prev: Option<usize> = None;
        for _ in 0..count {
            let pair = toks.next().ok_or_else(|| format!("short CSR row {r}"))?;
            let (c, v) = pair
                .split_once(':')
                .ok_or_else(|| format!("bad entry `{pair}` in CSR row {r}"))?;
            let col: usize = c.parse().map_err(|_| format!("bad column `{c}`"))?;
            let val: f32 = v.parse().map_err(|_| format!("bad value `{v}`"))?;
            if col >= n {
                return Err(format!("column {col} out of range in CSR row {r}"));
            }
            if prev.is_some_and(|p| col <= p) {
                return Err(format!("columns not strictly ascending in CSR row {r}"));
            }
            prev = Some(col);
            row.push((col, val));
        }
        if toks.next().is_some() {
            return Err(format!("trailing entries in CSR row {r}"));
        }
        rows.push(row);
    }
    Ok(rows)
}

fn read_vector<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    tag: &str,
    n: usize,
) -> Result<Vec<f32>, String> {
    let line = lines.next().ok_or_else(|| format!("missing `{tag}` vector"))?;
    let rest = line
        .strip_prefix(tag)
        .ok_or_else(|| format!("bad `{tag}` vector line `{line}`"))?;
    let mut out = Vec::with_capacity(n.min(rest.len()));
    for tok in rest.split_whitespace() {
        out.push(tok.parse::<f32>().map_err(|_| format!("bad float `{tok}`"))?);
    }
    if out.len() != n {
        return Err(format!("`{tag}` vector has {} values, expected {n}", out.len()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_graph::SpectralBasis;

    use crate::cache::BasisCache;

    fn cfg() -> CascnConfig {
        CascnConfig { max_nodes: 10, max_steps: 4, ..CascnConfig::default() }
    }

    fn cas(id: u64, extra: usize) -> Cascade {
        let mut events = vec![Event { user: id, parent: None, time: 0.0 }];
        for i in 1..=extra {
            events.push(Event { user: id + i as u64, parent: Some(0), time: i as f64 });
        }
        Cascade::new(id, 0.0, events)
    }

    /// A cache warmed with real spectral bases for a few cascades.
    fn warmed_cache() -> (BasisCache, Vec<Cascade>) {
        let cache = BasisCache::new(8);
        let cascades: Vec<Cascade> = (1..=3).map(|i| cas(i, i as usize + 1)).collect();
        for c in &cascades {
            let _ = cache.get_or_insert_with(c, 25.0, || cascn::spectral_basis(c, 25.0, &cfg()));
        }
        (cache, cascades)
    }

    /// Asserts two operators are bit- and layout-identical: same CSR
    /// structure entry for entry, same optional rank-1 term.
    fn assert_op_bits_eq(a: &SparseOp, b: &SparseOp) {
        assert_eq!(a.dim(), b.dim());
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for r in 0..a.dim() {
            let ra: Vec<(usize, u32)> = a.csr().row(r).iter().map(|&(c, v)| (c, v.to_bits())).collect();
            let rb: Vec<(usize, u32)> = b.csr().row(r).iter().map(|&(c, v)| (c, v.to_bits())).collect();
            assert_eq!(ra, rb, "CSR row {r} round-trips exactly");
        }
        match (a.rank1(), b.rank1()) {
            (None, None) => {}
            (Some((ca, ua, va)), Some((cb, ub, vb))) => {
                assert_eq!(ca.to_bits(), cb.to_bits(), "rank-1 coefficient round-trips");
                assert_eq!(bits(ua), bits(ub), "rank-1 u round-trips");
                assert_eq!(bits(va), bits(vb), "rank-1 v round-trips");
            }
            (x, y) => panic!("rank-1 presence mismatch: {:?} vs {:?}", x.is_some(), y.is_some()),
        }
    }

    #[test]
    fn round_trip_is_bit_identical_to_the_in_memory_lru() {
        let (cache, cascades) = warmed_cache();
        let fp = basis_fingerprint(&cfg());
        let exported = cache.export();
        let text = snapshot_to_text(&exported, &[], fp);
        let (restored, live) = snapshot_from_text(&text, fp).expect("clean snapshot loads");
        assert!(live.is_empty());
        assert_eq!(restored.len(), cascades.len());
        for ((c0, w0, b0), (c1, w1, b1)) in exported.iter().zip(&restored) {
            assert_eq!(c0.id, c1.id);
            assert_eq!(c0.start_time.to_bits(), c1.start_time.to_bits());
            assert_eq!(c0.events.len(), c1.events.len());
            assert_eq!(w0.to_bits(), w1.to_bits());
            assert_eq!(b0.lambda_max.to_bits(), b1.lambda_max.to_bits());
            assert_eq!(b0.k, b1.k);
            assert_op_bits_eq(&b0.op, &b1.op);
        }
        // Seeding a fresh cache with the restored entries serves hits
        // without recomputation — the warm-start contract.
        let fresh = BasisCache::new(8);
        assert_eq!(fresh.seed(restored), cascades.len());
        for c in &cascades {
            let _ = fresh.get_or_insert_with(c, 25.0, || panic!("restored entry must hit"));
        }
        assert_eq!(fresh.stats().warm_hits as usize, cascades.len());
    }

    #[test]
    fn live_cascades_round_trip_with_the_cache() {
        let (cache, _) = warmed_cache();
        let fp = basis_fingerprint(&cfg());
        let live: Vec<LiveSnapshotEntry> = vec![(cas(9, 3), 25.0), (cas(10, 1), 50.0)];
        let text = snapshot_to_text(&cache.export(), &live, fp);
        let (entries, restored) = snapshot_from_text(&text, fp).expect("clean snapshot loads");
        assert_eq!(entries.len(), 3);
        assert_eq!(restored.len(), live.len());
        for ((c0, w0), (c1, w1)) in live.iter().zip(&restored) {
            assert_eq!(c0.id, c1.id);
            assert_eq!(c0.start_time.to_bits(), c1.start_time.to_bits());
            assert_eq!(w0.to_bits(), w1.to_bits());
            assert_eq!(c0.events.len(), c1.events.len());
            for (e0, e1) in c0.events.iter().zip(&c1.events) {
                assert_eq!(e0.user, e1.user);
                assert_eq!(e0.parent, e1.parent);
                assert_eq!(e0.time.to_bits(), e1.time.to_bits());
            }
        }
        // A live entry violating cascade invariants (events out of order)
        // must reject the whole snapshot, not panic or half-load.
        let mut bad = cas(11, 2);
        bad.events[1].time = -5.0;
        let bad_text = snapshot_to_text(&[], &[(bad, 25.0)], fp);
        assert!(matches!(snapshot_from_text(&bad_text, fp), Err(SnapshotError::Malformed { .. })));
    }

    #[test]
    fn non_finite_floats_survive_the_text_format() {
        use cascn_tensor::Matrix;
        let csr = Csr::from_dense(&Matrix::from_vec(
            2,
            2,
            vec![f32::NAN, 0.0, f32::INFINITY, f32::NEG_INFINITY],
        ));
        let op = SparseOp::new(
            csr,
            Some((f32::NAN, vec![f32::INFINITY, 1.0], vec![0.5, f32::NEG_INFINITY])),
        );
        let basis = SpectralBasis::from_parts(2.0, 1, Arc::new(op));
        let entries = vec![(cas(1, 0), 25.0, Arc::new(basis))];
        let text = snapshot_to_text(&entries, &[], 7);
        let (restored, _) = snapshot_from_text(&text, 7).expect("loads");
        let op = &restored[0].2.op;
        assert!(op.csr().row(0)[0].1.is_nan());
        assert_eq!(op.csr().row(1)[0].1, f32::INFINITY);
        assert_eq!(op.csr().row(1)[1].1, f32::NEG_INFINITY);
        let (coeff, u, v) = op.rank1().expect("rank-1 survives");
        assert!(coeff.is_nan());
        assert_eq!(u[0], f32::INFINITY);
        assert_eq!(v[1], f32::NEG_INFINITY);
    }

    #[test]
    fn malformed_csr_rows_are_rejected_without_panicking() {
        // A checksum-valid file with out-of-order or out-of-range columns
        // must fail as Malformed — never trip Csr::from_rows assertions.
        let (cache, _) = warmed_cache();
        let fp = basis_fingerprint(&cfg());
        let text = snapshot_to_text(&cache.export(), &[], fp);
        for (needle, bad) in [(" 0:", " 9:"), ("row 2 ", "row 2 1:0.5 1:0.5 ")] {
            let Some(pos) = text.find(needle) else { continue };
            let mut hacked = text.clone();
            hacked.replace_range(pos..pos + needle.len(), bad);
            let body_end = hacked.rfind(CHECKSUM_PREFIX).unwrap();
            let body = hacked[..body_end].to_string();
            let refooted =
                format!("{body}{CHECKSUM_PREFIX}{:016x}\n", cascn::fnv1a64(body.as_bytes()));
            assert!(
                matches!(
                    snapshot_from_text(&refooted, fp),
                    Err(SnapshotError::Malformed(_))
                ),
                "tampered CSR `{bad}` must be Malformed"
            );
        }
    }

    /// Replaces token `at` of the first line starting with `prefix`.
    fn forge_token(text: &str, prefix: &str, at: usize, to: &str) -> String {
        let lines: Vec<String> = text
            .lines()
            .scan(false, |done, line| {
                if *done || !line.starts_with(prefix) {
                    return Some(line.to_string());
                }
                *done = true;
                let mut toks: Vec<&str> = line.split_whitespace().collect();
                toks[at] = to;
                Some(toks.join(" "))
            })
            .collect();
        lines.join("\n") + "\n"
    }

    /// Every count a snapshot declares — entries, live entries, a
    /// cascade's events, a basis's nodes, a CSR row's entries — is checked
    /// against the input left before anything is allocated for it, behind a
    /// valid checksum footer too.
    #[test]
    fn giant_declared_counts_are_rejected_without_allocating() {
        let (cache, _) = warmed_cache();
        let fp = basis_fingerprint(&cfg());
        let text = snapshot_to_text(&cache.export(), &[], fp);
        let body = &text[..text.rfind(CHECKSUM_PREFIX).unwrap()];
        let giant = u64::MAX.to_string();
        let counts = [("entries ", 1), ("live ", 1), ("cascade ", 3), ("basis ", 2), ("row ", 1)];
        for (prefix, at) in counts {
            let forged = forge_token(body, prefix, at, &giant);
            assert_ne!(forged, body, "`{prefix}` line must occur in the snapshot");
            let refooted =
                format!("{forged}{CHECKSUM_PREFIX}{:016x}\n", cascn::fnv1a64(forged.as_bytes()));
            match snapshot_from_text(&refooted, fp) {
                Err(SnapshotError::Malformed(m)) => {
                    assert!(m.contains("declared"), "{prefix}: {m}");
                }
                other => panic!("{prefix}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_snapshot_cold_starts() {
        let (cache, _) = warmed_cache();
        let fp = basis_fingerprint(&cfg());
        let text = snapshot_to_text(&cache.export(), &[], fp);
        // Every truncation point must fail cleanly — never panic, never
        // produce entries.
        for keep in [0, 1, text.len() / 4, text.len() / 2, text.len() - 2] {
            let cut = &text[..keep];
            let err = snapshot_from_text(cut, fp).expect_err("truncation must be rejected");
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::ChecksumMismatch),
                "cut at {keep}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn flipped_bit_fails_the_checksum() {
        let (cache, _) = warmed_cache();
        let fp = basis_fingerprint(&cfg());
        let text = snapshot_to_text(&cache.export(), &[], fp);
        let mut bytes = text.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let corrupted = String::from_utf8_lossy(&bytes).into_owned();
        assert_eq!(
            snapshot_from_text(&corrupted, fp).expect_err("bit flip rejected"),
            SnapshotError::ChecksumMismatch
        );
    }

    #[test]
    fn version_skew_is_rejected_before_any_entry_parses() {
        let (cache, _) = warmed_cache();
        let fp = basis_fingerprint(&cfg());
        let text = snapshot_to_text(&cache.export(), &[], fp);
        let skewed = text.replace("snapshot v3", "snapshot v9");
        // Re-checksum so only the version differs.
        let body_end = skewed.rfind(CHECKSUM_PREFIX).unwrap();
        let body = &skewed[..body_end];
        let refooted = format!("{body}{CHECKSUM_PREFIX}{:016x}\n", cascn::fnv1a64(body.as_bytes()));
        match snapshot_from_text(&refooted, fp) {
            Err(SnapshotError::VersionSkew(h)) => assert!(h.contains("v9"), "{h}"),
            other => panic!("expected version skew, got {other:?}"),
        }
    }

    #[test]
    fn foreign_basis_fingerprint_is_refused_wholesale() {
        let (cache, _) = warmed_cache();
        let fp = basis_fingerprint(&cfg());
        let text = snapshot_to_text(&cache.export(), &[], fp);
        // A server with a different Chebyshev order must not accept it.
        let other = basis_fingerprint(&CascnConfig { k: 3, ..cfg() });
        assert_ne!(fp, other, "distinct configs get distinct fingerprints");
        assert_eq!(
            snapshot_from_text(&text, other).expect_err("fingerprint mismatch rejected"),
            SnapshotError::FingerprintMismatch { found: fp, expected: other }
        );
    }

    #[test]
    fn snapshot_from_the_previous_spectral_kernel_is_refused() {
        // A v2-kernel replica wrote its bases with the dense φ / λ_max
        // pipeline; serving them beside v3 bases would mix numerics, so
        // the file must cold-start instead.
        let (cache, _) = warmed_cache();
        let v2 = kernel_fingerprint(2, &cfg());
        let text = snapshot_to_text(&cache.export(), &[], v2);
        let fp = basis_fingerprint(&cfg());
        assert_ne!(v2, fp);
        assert_eq!(
            snapshot_from_text(&text, fp).expect_err("previous kernel refused"),
            SnapshotError::FingerprintMismatch { found: v2, expected: fp }
        );
    }

    /// Fingerprints pinned to the values replicas have written into their
    /// snapshots so far: a change here cold-starts every deployed cache.
    #[test]
    fn basis_fingerprints_match_the_deployed_values() {
        for (name, c, want) in [
            ("default", CascnConfig::default(), 0x6395_a66a_3e88_68b8),
            ("paper_scale", CascnConfig::paper_scale(), 0x09b0_bdda_4190_a296),
            (
                "undirected",
                CascnConfig { laplacian: LaplacianKind::Undirected, ..CascnConfig::default() },
                0x6399_0c6a_3e8b_4be1,
            ),
            (
                "approx2",
                CascnConfig { lambda_max: LambdaMax::Approx2, ..CascnConfig::default() },
                0x6c3f_216a_4370_6763,
            ),
            ("test", cfg(), 0x438b_2225_cb26_a7e4),
        ] {
            assert_eq!(basis_fingerprint(&c), want, "{name}: {:#018x}", basis_fingerprint(&c));
        }
    }

    #[test]
    fn missing_file_is_a_clean_cold_start_and_save_is_atomic() {
        let dir = std::env::temp_dir().join(format!("cascn_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");
        std::fs::remove_file(&path).ok();
        let fp = basis_fingerprint(&cfg());
        assert_eq!(load_snapshot(&path, fp), Ok(None), "missing file is not an error");

        let (cache, cascades) = warmed_cache();
        save_snapshot(&path, &cache.export(), &[], fp).expect("save succeeds");
        let (restored, _) = load_snapshot(&path, fp).expect("loads").expect("present");
        assert_eq!(restored.len(), cascades.len());

        // A snapshot truncated on disk (crash mid-rewrite simulated by a
        // direct truncation) cold-starts instead of erroring the server.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(load_snapshot(&path, fp).is_err());
        std::fs::remove_file(&path).ok();
    }
}
