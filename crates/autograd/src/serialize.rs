//! Parameter persistence: a line-based text format for [`ParamStore`]
//! values — the encoding of the params sections inside a train checkpoint —
//! plus the atomic file write and checksum checkpoints are saved with.
//!
//! ```text
//! # cascn params v1
//! param <name> <rows> <cols>
//! <row of space-separated f32 values>
//! ...
//! ```
//!
//! Values round-trip exactly via the `{:?}` float formatting (shortest
//! representation that re-parses to the same bits).

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use cascn_tensor::Matrix;

use crate::params::ParamStore;

impl ParamStore {
    /// Serializes all parameter values (not gradients) to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# cascn params v1\n");
        for id in self.ids() {
            let v = self.value(id);
            let _ = writeln!(out, "param {} {} {}", self.name(id), v.rows(), v.cols());
            for r in 0..v.rows() {
                let row: Vec<String> = v.row(r).iter().map(|x| format!("{x:?}")).collect();
                let _ = writeln!(out, "{}", row.join(" "));
            }
        }
        out
    }

    /// Parses a checkpoint produced by [`ParamStore::to_text`].
    ///
    /// Returns a descriptive error string on malformed input.
    pub fn from_text(text: &str) -> Result<ParamStore, String> {
        let mut store = ParamStore::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((lineno, line)) = lines.next() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            if parts.next() != Some("param") {
                return Err(format!("line {}: expected `param` header", lineno + 1));
            }
            let name = parts
                .next()
                .ok_or_else(|| format!("line {}: missing name", lineno + 1))?
                .to_string();
            let rows: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("line {}: bad row count", lineno + 1))?;
            let cols: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("line {}: bad col count", lineno + 1))?;
            let count = declared_values(rows, cols, bytes_from(text, line))
                .map_err(|e| format!("line {}: param `{name}`: {e}", lineno + 1))?;
            let mut data = Vec::with_capacity(count);
            for _ in 0..rows {
                let (rno, row_line) = lines
                    .next()
                    .ok_or_else(|| format!("param `{name}`: truncated rows"))?;
                for tok in row_line.split_whitespace() {
                    let v: f32 = tok
                        .parse()
                        .map_err(|_| format!("line {}: bad float `{tok}`", rno + 1))?;
                    data.push(v);
                }
            }
            if data.len() != count {
                return Err(format!(
                    "param `{name}`: expected {count} values, got {}",
                    data.len()
                ));
            }
            store.register(name, Matrix::from_vec(rows, cols, data));
        }
        Ok(store)
    }

    /// Copies values from `other` into this store by parameter *name*.
    /// Returns the number of parameters restored, or an error if a name
    /// matches with a different shape (checkpoint for another architecture).
    pub fn restore_from(&mut self, other: &ParamStore) -> Result<usize, String> {
        let mut restored = 0;
        let my_ids: Vec<_> = self.ids().collect();
        for id in my_ids {
            let name = self.name(id).to_string();
            for oid in other.ids() {
                if other.name(oid) == name {
                    if self.value(id).shape() != other.value(oid).shape() {
                        return Err(format!(
                            "checkpoint shape mismatch for `{name}`: {:?} vs {:?}",
                            self.value(id).shape(),
                            other.value(oid).shape()
                        ));
                    }
                    *self.value_mut(id) = other.value(oid).clone();
                    restored += 1;
                    break;
                }
            }
        }
        Ok(restored)
    }
}

/// Writes `contents` to `path` atomically: the bytes land in a sibling temp
/// file first and are moved into place with `rename`, which is atomic on
/// POSIX filesystems. Readers therefore see either the old file or the new
/// one, never a partial write.
pub fn atomic_write(path: &Path, contents: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::other(format!("invalid checkpoint path {}", path.display())))?;
    let mut tmp = std::ffi::OsString::from(".");
    tmp.push(file_name);
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp_path = match dir {
        Some(d) => d.join(&tmp),
        None => std::path::PathBuf::from(&tmp),
    };
    std::fs::write(&tmp_path, contents)?;
    match std::fs::rename(&tmp_path, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp_path);
            Err(e)
        }
    }
}

/// The value count `rows × cols` a matrix header declares, checked before
/// anything is allocated for it: refused when the product overflows or
/// exceeds `left`, the bytes of input from the header on. Every value takes
/// at least one byte of text, so a larger count cannot be honest, whatever
/// checksum the file carries.
pub fn declared_values(rows: usize, cols: usize, left: usize) -> Result<usize, String> {
    let count = rows
        .checked_mul(cols)
        .ok_or_else(|| format!("declared {rows}x{cols} values overflow"))?;
    if count > left {
        return Err(format!(
            "declared {rows}x{cols} = {count} values, but only {left} bytes of input are left"
        ));
    }
    Ok(count)
}

/// Bytes of `text` from the start of `part`, a slice of it, to its end.
pub fn bytes_from(text: &str, part: &str) -> usize {
    let start = (part.as_ptr() as usize).saturating_sub(text.as_ptr() as usize);
    text.len().saturating_sub(start)
}

/// FNV-1a 64-bit hash, the integrity checksum of checkpoint format v2.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> ParamStore {
        let mut s = ParamStore::new();
        s.register("w", Matrix::from_rows(&[&[1.5, -2.25e-7], &[0.0, f32::MIN_POSITIVE]]));
        s.register("b", Matrix::row_vector(&[3.0]));
        s
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let s = sample_store();
        let text = s.to_text();
        let back = ParamStore::from_text(&text).expect("parses");
        assert_eq!(back.len(), 2);
        for (a, b) in s.ids().zip(back.ids()) {
            assert_eq!(s.name(a), back.name(b));
            assert_eq!(s.value(a).as_slice(), back.value(b).as_slice(), "bit-exact");
        }
    }

    #[test]
    fn file_roundtrip() {
        let s = sample_store();
        let dir = std::env::temp_dir().join("cascn_params_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.params");
        atomic_write(&path, s.to_text().as_bytes()).unwrap();
        let back = ParamStore::from_text(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back.len(), s.len());
        for (a, b) in s.ids().zip(back.ids()) {
            assert_eq!(s.value(a).as_slice(), back.value(b).as_slice(), "bit-exact");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn malformed_input_is_rejected_with_location() {
        let err = ParamStore::from_text("param w 1 2\n1.0 nope\n").unwrap_err();
        assert!(err.contains("bad float"), "got: {err}");
        let err = ParamStore::from_text("bogus\n").unwrap_err();
        assert!(err.contains("expected `param`"), "got: {err}");
        let err = ParamStore::from_text("param w 2 2\n1 2 3 4\n").unwrap_err();
        assert!(err.contains("truncated") || err.contains("expected"), "got: {err}");
    }

    /// A header declaring more values than the input holds is refused
    /// before any allocation: `rows * cols` overflowing `usize`, wrapping
    /// to 2³² (a 17 GB allocation in release), or merely too large.
    #[test]
    fn giant_declared_shapes_are_rejected_without_allocating() {
        for header in [
            "param w 4000000000 4000000000",
            "param w 4294967296 4294967297",
            "param w 1000000 1000",
        ] {
            let err = ParamStore::from_text(&format!("{header}\n1 2\n")).unwrap_err();
            assert!(err.contains("declared"), "{header}: {err}");
        }
    }

    #[test]
    fn restore_by_name_matches_architecture() {
        let trained = sample_store();
        let mut fresh = ParamStore::new();
        fresh.register("b", Matrix::zeros(1, 1));
        fresh.register("w", Matrix::zeros(2, 2));
        let restored = fresh.restore_from(&trained).expect("shapes match");
        assert_eq!(restored, 2);
        let w = fresh.ids().nth(1).unwrap();
        assert_eq!(fresh.value(w)[(0, 0)], 1.5);
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join("cascn_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.params");
        atomic_write(&path, b"hello").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        atomic_write(&path, b"world").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"world");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn restore_rejects_wrong_shapes() {
        let trained = sample_store();
        let mut fresh = ParamStore::new();
        fresh.register("w", Matrix::zeros(3, 3));
        let err = fresh.restore_from(&trained).unwrap_err();
        assert!(err.contains("shape mismatch"), "got: {err}");
    }
}
