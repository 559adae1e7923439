//! Plain-text dataset serialization and CSV export.
//!
//! The cascade format is line-based and human-inspectable, in the spirit of
//! the DeepHawkes release the paper builds on:
//!
//! ```text
//! # cascn cascade file v1
//! cascade <id> <start_time>
//! event <user> <parent_index|-> <time>
//! ...
//! ```

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::{Cascade, CascadeFault, Dataset, Event, QuarantineReport, QuarantinedCascade};

/// Errors arising while reading a cascade file.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the file, with line number and message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "io error: {e}"),
            ReadError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Serializes a dataset to the line-based text format.
pub fn dataset_to_string(dataset: &Dataset) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# cascn cascade file v1");
    let _ = writeln!(out, "# dataset {}", dataset.name);
    for c in &dataset.cascades {
        let _ = writeln!(out, "cascade {} {}", c.id, c.start_time);
        for e in &c.events {
            match e.parent {
                Some(p) => {
                    let _ = writeln!(out, "event {} {} {}", e.user, p, e.time);
                }
                None => {
                    let _ = writeln!(out, "event {} - {}", e.user, e.time);
                }
            }
        }
    }
    out
}

/// Writes a dataset to `path`.
pub fn write_dataset(path: impl AsRef<Path>, dataset: &Dataset) -> io::Result<()> {
    fs::write(path, dataset_to_string(dataset))
}

/// Parses a dataset from the text format. The dataset name is taken from the
/// `# dataset` header when present, else `name_hint`.
///
/// Every cascade invariant (root-first, non-negative sorted times, in-range
/// parents) is validated *as lines are read*, so errors carry the line number
/// of the offending record rather than a summary at flush time.
pub fn dataset_from_str(text: &str, name_hint: &str) -> Result<Dataset, ReadError> {
    let (dataset, report) = parse_dataset(text, name_hint, Mode::Strict)?;
    debug_assert!(report.is_clean(), "strict mode never quarantines");
    Ok(dataset)
}

/// Lenient counterpart of [`dataset_from_str`]: malformed cascades are
/// quarantined (skipped with a recorded reason) instead of failing the whole
/// load, so a handful of corrupt records cannot take down a training run.
pub fn dataset_from_str_lenient(text: &str, name_hint: &str) -> (Dataset, QuarantineReport) {
    match parse_dataset(text, name_hint, Mode::Lenient) {
        Ok(parsed) => parsed,
        // Defensive: lenient mode quarantines instead of failing, so this
        // arm is unreachable — but if it ever fires, degrade to an empty
        // dataset with the failure recorded rather than aborting the run.
        Err(e) => {
            let (line, reason) = match e {
                ReadError::Parse { line, message } => (line, message),
                ReadError::Io(e) => (0, e.to_string()),
            };
            let mut report = QuarantineReport::default();
            report.quarantined.push(QuarantinedCascade { id: None, line, reason });
            (Dataset::new(name_hint.to_string(), Vec::new()), report)
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Strict,
    Lenient,
}

/// Parser state for the cascade currently being assembled.
struct Pending {
    id: u64,
    start: f64,
    events: Vec<Event>,
    /// Set when a fault was already recorded; remaining body lines are
    /// consumed without further reporting until the next header.
    poisoned: bool,
}

fn parse_dataset(
    text: &str,
    name_hint: &str,
    mode: Mode,
) -> Result<(Dataset, QuarantineReport), ReadError> {
    let mut name = name_hint.to_string();
    let mut cascades: Vec<Cascade> = Vec::new();
    let mut report = QuarantineReport::default();
    let mut current: Option<Pending> = None;

    // In lenient mode a fault quarantines the current cascade and poisons it
    // so the rest of its body is skipped; in strict mode it aborts the parse.
    macro_rules! fault {
        ($line:expr, $($msg:tt)*) => {{
            let message = format!($($msg)*);
            match mode {
                Mode::Strict => return Err(ReadError::Parse { line: $line, message }),
                Mode::Lenient => {
                    let id = current.as_ref().map(|p| p.id);
                    report.quarantined.push(QuarantinedCascade { id, line: $line, reason: message });
                    if let Some(p) = current.as_mut() {
                        p.poisoned = true;
                    }
                    continue;
                }
            }
        }};
    }

    let mut lineno = 0usize;
    for (i, raw) in text.lines().enumerate() {
        lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# dataset ") {
            name = rest.trim().to_string();
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("cascade") => {
                if let Err((line, message)) = flush(&mut current, &mut cascades, lineno) {
                    match mode {
                        Mode::Strict => return Err(ReadError::Parse { line, message }),
                        Mode::Lenient => {
                            let id = None; // the faulty cascade was already taken
                            report
                                .quarantined
                                .push(QuarantinedCascade { id, line, reason: message });
                        }
                    }
                }
                let header = (|| -> Result<Pending, String> {
                    let id = parse_tok(parts.next(), "cascade id")?;
                    let start = parse_start(parts.next())?;
                    Ok(Pending { id, start, events: Vec::new(), poisoned: false })
                })();
                match header {
                    Ok(p) => current = Some(p),
                    Err(message) => match mode {
                        Mode::Strict => {
                            return Err(ReadError::Parse { line: lineno, message })
                        }
                        Mode::Lenient => {
                            report.quarantined.push(QuarantinedCascade {
                                id: None,
                                line: lineno,
                                reason: message,
                            });
                            // Poisoned placeholder swallows the unparseable
                            // cascade's body without further reports.
                            current = Some(Pending {
                                id: 0,
                                start: 0.0,
                                events: Vec::new(),
                                poisoned: true,
                            });
                        }
                    },
                }
            }
            Some("event") => {
                match current.as_mut() {
                    None => fault!(lineno, "event before any cascade header"),
                    Some(p) if p.poisoned => continue,
                    Some(_) => {}
                }
                let parsed = (|| -> Result<Event, String> {
                    let user = parse_tok(parts.next(), "user")?;
                    let parent_tok = parts.next().ok_or("missing parent field")?;
                    let parent = if parent_tok == "-" {
                        None
                    } else {
                        Some(parse_tok(Some(parent_tok), "parent")?)
                    };
                    let time = parse_tok(parts.next(), "time")?;
                    Ok(Event { user, parent, time })
                })();
                let event = match parsed {
                    Ok(e) => e,
                    Err(message) => fault!(lineno, "{message}"),
                };
                let Some(pending) = current.as_mut() else {
                    continue; // unreachable: the header check above rejected headerless events
                };
                let idx = pending.events.len();
                // Validate incrementally so the error points at this line.
                // `events.last()` doubles as the root/follow-on dispatch: the
                // first event has no predecessor and must be the root.
                let fault = match pending.events.last() {
                    None => {
                        if event.parent.is_some() {
                            Some(CascadeFault::RootHasParent)
                        // lint: allow(float-eq) — the format contract pins the root at exactly t=0
                        } else if event.time != 0.0 {
                            Some(CascadeFault::RootTimeNonZero { time: event.time })
                        } else {
                            None
                        }
                    }
                    Some(prev) => check_follow_on(prev, &event, idx),
                };
                if let Some(f) = fault {
                    fault!(lineno, "{f}");
                }
                pending.events.push(event);
            }
            Some(other) => {
                if current.as_ref().is_some_and(|p| p.poisoned) {
                    continue; // mangled line inside an already-reported cascade
                }
                fault!(lineno, "unknown record type `{other}`");
            }
            None => {}
        }
    }
    if let Err((line, message)) = flush(&mut current, &mut cascades, lineno + 1) {
        match mode {
            Mode::Strict => return Err(ReadError::Parse { line, message }),
            Mode::Lenient => {
                report
                    .quarantined
                    .push(QuarantinedCascade { id: None, line, reason: message });
            }
        }
    }
    report.kept = cascades.len();
    Ok((Dataset::new(name, cascades), report))
}

/// Validates a non-root `event` (at cascade index `idx`) against its
/// predecessor — the incremental form of [`crate::validate_events`].
/// Shared with the streaming request parser (`crate::stream`).
pub(crate) fn check_follow_on(prev: &Event, event: &Event, idx: usize) -> Option<CascadeFault> {
    if !event.time.is_finite() {
        return Some(CascadeFault::NonFiniteTime { index: idx, time: event.time });
    }
    if event.time < 0.0 {
        return Some(CascadeFault::NegativeTime { index: idx, time: event.time });
    }
    match event.parent {
        None => return Some(CascadeFault::MissingParent { index: idx }),
        Some(p) if p >= idx => {
            return Some(CascadeFault::ForwardParent { index: idx, parent: p })
        }
        Some(_) => {}
    }
    if event.time < prev.time {
        return Some(CascadeFault::TimeUnsorted { index: idx });
    }
    None
}

/// Completes the pending cascade, if any. Per-line validation already
/// enforced the invariants, so only emptiness (a header with no body) can
/// fail here.
#[allow(clippy::result_large_err)]
fn flush(
    cur: &mut Option<Pending>,
    out: &mut Vec<Cascade>,
    line: usize,
) -> Result<(), (usize, String)> {
    if let Some(p) = cur.take() {
        if p.poisoned {
            return Ok(()); // already quarantined at its faulting line
        }
        if p.events.is_empty() {
            return Err((line, format!("cascade {} has no events", p.id)));
        }
        let id = p.id;
        let cascade = Cascade::try_new(p.id, p.start, p.events)
            .map_err(|f| (line, format!("cascade {id}: {f}")))?;
        out.push(cascade);
    }
    Ok(())
}

/// Reads a dataset file written by [`write_dataset`].
pub fn read_dataset(path: impl AsRef<Path>) -> Result<Dataset, ReadError> {
    let path = path.as_ref();
    let text = fs::read_to_string(path)?;
    dataset_from_str(&text, &stem_hint(path))
}

fn stem_hint(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "dataset".into())
}

/// Parses a `cascade` header's start time, refusing NaN and ±inf at the
/// header line (the same fault [`Cascade::try_new`] reports).
pub(crate) fn parse_start(tok: Option<&str>) -> Result<f64, String> {
    let time: f64 = parse_tok(tok, "start time")?;
    if time.is_finite() {
        Ok(time)
    } else {
        Err(CascadeFault::NonFiniteStart { time }.to_string())
    }
}

pub(crate) fn parse_tok<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, String> {
    let tok = tok.ok_or_else(|| format!("missing {what}"))?;
    tok.parse()
        .map_err(|_| format!("invalid {what}: `{tok}`"))
}

/// Writes a CSV file with a header row; every row must match the header
/// width. Cells are written with `Display`, so callers pre-format floats.
///
/// # Panics
/// Panics if a row's width differs from the header's.
pub fn write_csv(
    path: impl AsRef<Path>,
    header: &[&str],
    rows: &[Vec<String>],
) -> io::Result<()> {
    let mut out = String::new();
    let _ = writeln!(out, "{}", header.join(","));
    for row in rows {
        assert_eq!(row.len(), header.len(), "CSV row width mismatch");
        let _ = writeln!(out, "{}", row.join(","));
    }
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{WeiboConfig, WeiboGenerator};

    #[test]
    fn roundtrip_preserves_dataset() {
        let d = WeiboGenerator::new(WeiboConfig {
            num_cascades: 40,
            seed: 4,
            max_size: 200,
        })
        .generate();
        let text = dataset_to_string(&d);
        let back = dataset_from_str(&text, "fallback").expect("roundtrip parses");
        assert_eq!(back.name, d.name);
        assert_eq!(back.cascades, d.cascades);
    }

    #[test]
    fn parse_reports_line_numbers() {
        let text = "# cascn cascade file v1\ncascade 1 0.0\nevent 5 - 0.0\nevent 6 bogus 1.0\n";
        let err = dataset_from_str(text, "x").unwrap_err();
        match err {
            ReadError::Parse { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("parent"), "got: {message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn event_before_cascade_is_rejected() {
        let err = dataset_from_str("event 1 - 0.0\n", "x").unwrap_err();
        assert!(matches!(err, ReadError::Parse { line: 1, .. }));
    }

    /// Extracts the (line, message) of a Parse error, failing on Io.
    fn parse_err(text: &str) -> (usize, String) {
        match dataset_from_str(text, "x").unwrap_err() {
            ReadError::Parse { line, message } => (line, message),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn truncated_file_is_rejected() {
        // Header with no body: the flush at EOF reports the line after the
        // last one.
        let (line, msg) = parse_err("# cascn cascade file v1\ncascade 7 0.0\n");
        assert_eq!(line, 3);
        assert!(msg.contains("cascade 7 has no events"), "got: {msg}");
        // Header truncated mid-token.
        let (line, msg) = parse_err("cascade 7\n");
        assert_eq!(line, 1);
        assert!(msg.contains("missing start time"), "got: {msg}");
    }

    #[test]
    fn bad_parent_index_is_rejected_at_its_line() {
        // Event 2 (line 4) references parent 5, which does not exist yet.
        let text = "cascade 1 0.0\nevent 5 - 0.0\nevent 6 0 1.0\nevent 7 5 2.0\n";
        let (line, msg) = parse_err(text);
        assert_eq!(line, 4);
        assert!(msg.contains("references later parent 5"), "got: {msg}");
    }

    #[test]
    fn negative_time_is_rejected_at_its_line() {
        let text = "cascade 1 0.0\nevent 5 - 0.0\nevent 6 0 -3.5\n";
        let (line, msg) = parse_err(text);
        assert_eq!(line, 3);
        assert!(msg.contains("negative time"), "got: {msg}");
    }

    #[test]
    fn non_monotone_times_are_rejected_at_their_line() {
        let text = "cascade 1 0.0\nevent 5 - 0.0\nevent 6 0 9.0\nevent 7 1 4.0\n";
        let (line, msg) = parse_err(text);
        assert_eq!(line, 4);
        assert!(msg.contains("not time-sorted"), "got: {msg}");
    }

    #[test]
    fn root_invariants_checked_at_first_event() {
        let (line, msg) = parse_err("cascade 1 0.0\nevent 5 - 2.0\n");
        assert_eq!(line, 2);
        assert!(msg.contains("root must be at t=0"), "got: {msg}");
        let (line, msg) = parse_err("cascade 1 0.0\nevent 5 0 0.0\n");
        assert_eq!(line, 2);
        assert!(msg.contains("event 0 must be the root"), "got: {msg}");
    }

    #[test]
    fn lenient_load_quarantines_bad_cascades() {
        let text = "\
# cascn cascade file v1
cascade 1 0.0
event 5 - 0.0
event 6 0 1.0
cascade 2 0.0
event 7 - 0.0
event 8 9 1.0
cascade 3 0.0
event 9 - 0.0
";
        let (d, report) = dataset_from_str_lenient(text, "x");
        assert_eq!(d.cascades.len(), 2);
        assert_eq!(report.kept, 2);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].id, Some(2));
        assert_eq!(report.quarantined[0].line, 7);
        assert!(report.quarantined[0].reason.contains("later parent"));
        assert!(report.summary().contains("2 cascades loaded, 1 quarantined"));
    }

    #[test]
    fn lenient_load_reports_one_entry_per_bad_cascade() {
        // A mangled record line poisons the cascade; the remaining body must
        // not generate additional quarantine entries.
        let text = "\
cascade 1 0.0
evnt 5 - 0.0
event 6 0 1.0
evnt 7 1 2.0
cascade 2 0.0
event 8 - 0.0
";
        let (d, report) = dataset_from_str_lenient(text, "x");
        assert_eq!(d.cascades.len(), 1);
        assert_eq!(d.cascades[0].id, 2);
        assert_eq!(report.quarantined.len(), 1, "report: {}", report.summary());
        assert_eq!(report.quarantined[0].id, Some(1));
    }

    #[test]
    fn lenient_load_is_clean_on_valid_input() {
        let d = WeiboGenerator::new(WeiboConfig {
            num_cascades: 10,
            seed: 2,
            max_size: 100,
        })
        .generate();
        let (back, report) = dataset_from_str_lenient(&dataset_to_string(&d), "fallback");
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(back.cascades, d.cascades);
    }

    #[test]
    fn file_roundtrip() {
        let d = WeiboGenerator::new(WeiboConfig {
            num_cascades: 5,
            seed: 1,
            max_size: 50,
        })
        .generate();
        let dir = std::env::temp_dir().join("cascn_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("weibo.cascades");
        write_dataset(&path, &d).unwrap();
        let back = read_dataset(&path).unwrap();
        assert_eq!(back.cascades, d.cascades);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn csv_writer_produces_header_and_rows() {
        let dir = std::env::temp_dir().join("cascn_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_csv(
            &path,
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
        std::fs::remove_file(path).ok();
    }
}
