//! What the two perf ratchets, `record --check` and `serve_check`, share:
//! their flags, reading numbers out of the JSON files they write, the ratio
//! band their wall-clock numbers must stay within, and the verdict.

/// The command-line arguments; exits with status 2 at a `--flag` not in
/// `known`.
pub fn args(known: &[&str]) -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(a) = args.iter().find(|a| a.starts_with("--") && !known.contains(&a.as_str())) {
        eprintln!("unknown flag `{a}`");
        std::process::exit(2);
    }
    args
}

/// The argument after the first `flag` in `args`, else `default`.
pub fn flag_value(args: &[String], flag: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// Pull `"key": <number>` out of a flat JSON slice. The first occurrence
/// wins, so a caller scopes the slice to one object where a key repeats.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The failure message when `measured` lies outside `[expect / band,
/// expect * band]`, the `band`× ratio band around the baseline `expect`.
pub fn outside_band(key: &str, measured: f64, expect: f64, band: f64) -> Option<String> {
    let (low, high) = (expect / band, expect * band);
    (measured > high || measured < low).then(|| {
        format!(
            "{key} {} outside [{}, {}] ({band}x band around baseline {})",
            significant(measured),
            significant(low),
            significant(high),
            significant(expect)
        )
    })
}

/// `--check`: gates a run with `check`, which gets the text of the
/// baseline file at `path` and returns every failed gate; reports on stderr
/// and exits with status 1 on a failure.
pub fn check_against(tool: &str, path: &str, check: impl FnOnce(&str) -> Result<(), String>) {
    let verdict = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {path}: {e}"))
        .and_then(|text| check(&text));
    if let Err(msg) = verdict {
        eprintln!("{tool}: --check FAILED against {path}:\n{msg}");
        std::process::exit(1);
    }
    eprintln!("{tool}: --check OK against {path}");
}

/// `x` to three significant digits in plain notation, so a band edge of
/// 0.00375 s prints as such rather than as 0.0.
fn significant(x: f64) -> String {
    if !x.is_normal() {
        return format!("{x}");
    }
    let decimals = (2.0 - x.abs().log10().floor()).max(0.0) as usize;
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_messages_resolve_sub_tenth_values() {
        assert_eq!(
            outside_band("epoch_seconds", 0.001, 0.03, 8.0).as_deref(),
            Some("epoch_seconds 0.00100 outside [0.00375, 0.240] (8x band around baseline 0.0300)")
        );
        assert_eq!(
            outside_band("router.p99_us", 120_000.0, 8000.0, 12.0).as_deref(),
            Some("router.p99_us 120000 outside [667, 96000] (12x band around baseline 8000)")
        );
        assert_eq!(outside_band("epoch_seconds", 0.03, 0.03, 8.0), None);
        assert_eq!(outside_band("forward_p50_us", 675.0, 5400.0, 8.0), None, "the edge is inside");
    }

    #[test]
    fn json_numbers_and_flags_are_found() {
        let text = r#"{ "a": 1.5e-3, "b": -2 }"#;
        assert_eq!(json_number(text, "a"), Some(1.5e-3));
        assert_eq!(json_number(text, "b"), Some(-2.0));
        assert_eq!(json_number(text, "c"), None);
        let args: Vec<String> = ["--check", "--out", "x.json"].map(String::from).to_vec();
        assert_eq!(flag_value(&args, "--out", "d.json"), "x.json");
        assert_eq!(flag_value(&args, "--baseline", "d.json"), "d.json");
    }
}
