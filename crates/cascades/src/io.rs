//! Plain-text dataset serialization and CSV export.
//!
//! The cascade format is line-based and human-inspectable, in the spirit of
//! the DeepHawkes release the paper builds on:
//!
//! ```text
//! # cascn cascade file v1
//! # dataset <name>
//! cascade <id> <start_time>
//! event <user> <parent_index|-> <time>
//! ...
//! ```
//!
//! Both file loaders read it through the parser the serving layer uses,
//! [`crate::stream::CascadeStream`], with no limits; this module adds only
//! the `# dataset` name. They are [`Format::Native`]'s strict and lenient
//! reads, under the policy all three file formats share
//! ([`crate::format`]): the strict loader stops at the first error; the
//! lenient one records it, drops the cascade it belongs to and reads on from
//! the next `cascade` header. Both therefore accept the same cascades and
//! report the same first error, by construction. Neither sniffs: a file in
//! another format goes through [`Format::sniff`] first.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::stream::{CascadeStream, StreamLimits};
use crate::{CascadeFault, Dataset, Format, QuarantineReport, QuarantinedCascade};

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
/// of the offending record rather than a summary at the end of its cascade.
pub fn dataset_from_str(text: &str, name_hint: &str) -> Result<Dataset, ReadError> {
    Format::Native.read(text, name_hint)
}

/// Lenient counterpart of [`dataset_from_str`]: malformed cascades are
/// quarantined (skipped with a recorded reason) instead of failing the whole
/// load, so a handful of corrupt records cannot take down a training run.
/// It reads exactly what the strict loader reads; at each error it records
/// the cascade it belongs to and skips to the next `cascade` header.
pub fn dataset_from_str_lenient(text: &str, name_hint: &str) -> (Dataset, QuarantineReport) {
    Format::Native.read_lenient(text, name_hint)
}

/// The native format's decoder: feeds every line of `text` to one unbounded
/// [`CascadeStream`], taking the dataset name from a `# dataset` comment.
/// `fault` gets each error as the stream's quarantine entry for it, and
/// either ends the load with it or lets the stream read on from the next
/// `cascade` header.
pub(crate) fn read_lines<E>(
    text: &str,
    name_hint: &str,
    mut fault: impl FnMut(QuarantinedCascade) -> Result<(), E>,
) -> Result<Dataset, E> {
    let mut name = name_hint.to_string();
    let mut cascades = Vec::new();
    let mut stream = CascadeStream::new(StreamLimits {
        max_cascades: usize::MAX,
        max_events: usize::MAX,
    });
    for raw in text.lines() {
        if let Some(rest) = raw.trim().strip_prefix("# dataset ") {
            name = rest.trim().to_string();
        }
        match stream.read_line(raw) {
            Ok(None) => {}
            Ok(Some(done)) => cascades.push(done),
            Err(message) => fault(stream.quarantine(message))?,
        }
    }
    match stream.end() {
        Ok(done) => cascades.extend(done),
        Err(message) => fault(stream.quarantine(message))?,
    }
    Ok(Dataset::new(name, cascades))
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
    fn lenient_load_drops_only_the_cascade_a_header_fault_belongs_to() {
        // An empty cascade is reported at the next header, which still opens
        // its own cascade; a header that does not parse loses only its own
        // body, not the complete cascade before it.
        let text = "cascade 1 0.0\ncascade 2 0.0\nevent 5 - 0.0\ncascade x 0.0\nevent 6 - 0.0\n\
                    cascade 4 0.0\nevent 7 - 0.0\n";
        let (d, report) = dataset_from_str_lenient(text, "x");
        assert_eq!(d.cascades.iter().map(|c| c.id).collect::<Vec<_>>(), [2, 4]);
        let entries: Vec<_> = report.quarantined.iter().map(|q| (q.line, q.reason.as_str())).collect();
        assert_eq!(entries, [(2, "cascade 1 has no events"), (4, "invalid cascade id: `x`")]);
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
