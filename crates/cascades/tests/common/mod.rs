//! Format-agnostic corruptions shared by the decoder property tests
//! (`prop_stream.rs` for the native line format and the request parsers,
//! `prop_formats.rs` for all three file formats): truncation, byte flips,
//! dropped and copied lines, and the tokens a corrupted number is replaced
//! with. Positions are chosen by an `at` uniform in `[0, 1)`.

/// Tokens a corrupted numeric field is replaced with: overflowing and
/// giant counts, non-finite and negative floats, and garbage.
pub const BAD_NUMBERS: &[&str] = &[
    "18446744073709551616",
    "99999999999999999999999",
    "1e308",
    "1e400",
    "NaN",
    "nan",
    "inf",
    "-inf",
    "-1",
    "-0",
    "0x10",
    "",
    "-",
];

/// Bytes a flipped position is overwritten with: every format's delimiters
/// and keywords' letters, digits, and float syntax.
pub const FLIP_BYTES: &[u8] = b"0123456789-.+eE \n\t#acdentvNIinf,/:_u";

/// The index in `0..len` that `at` selects (0 when `len` is 0).
pub fn pick(at: f64, len: usize) -> usize {
    ((at * len as f64) as usize).min(len.saturating_sub(1))
}

/// `text` cut anywhere, mid-token included; `at` near 1 keeps it whole.
pub fn truncate(text: &str, at: f64) -> String {
    text[..pick(at, text.len() + 1).min(text.len())].to_string()
}

/// `text` with the byte at `at` overwritten by one of [`FLIP_BYTES`].
pub fn flip_byte(text: &str, at: f64, byte: usize) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if !bytes.is_empty() {
        let i = pick(at, bytes.len());
        bytes[i] = FLIP_BYTES[byte % FLIP_BYTES.len()];
    }
    String::from_utf8(bytes).expect("ASCII in, ASCII out")
}

/// `text` with line `line` removed.
pub fn drop_line(text: &str, line: usize) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.remove(line);
    lines.join("\n")
}

/// `text` with line `line` copied in before line `to % (lines + 1)`.
pub fn copy_line(text: &str, line: usize, to: usize) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(to % (lines.len() + 1), lines[line]);
    lines.join("\n")
}
