//! The one decoder layer over the three cascade file formats: the native
//! line format ([`crate::io`]), EchoFlow CSV ([`crate::echoflow`]) and the
//! DeepHawkes release format ([`crate::deephawkes_format`]).
//!
//! [`Format::sniff`] tells the formats apart by their first content line,
//! and every format is read under one policy. A format's decoder hands each
//! fault it finds to a callback as a [`QuarantinedCascade`] — the cascade
//! id when it is known, the 1-based line, the reason — in line order.
//! [`Format::read`] ends the load at the first fault, as a
//! [`ReadError::Parse`]; [`Format::read_lenient`] records every fault in a
//! [`QuarantineReport`], drops the cascade it belongs to and reads on. The
//! strict read therefore fails exactly when the lenient report is not
//! clean, with the report's first entry as its error, on all three formats.

use std::convert::Infallible;

use crate::io::{self, ReadError};
use crate::{deephawkes_format, echoflow, Dataset, QuarantineReport, QuarantinedCascade};

/// A cascade file format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// The native `cascade` / `event` line format.
    Native,
    /// EchoFlow CSV, `user_id,topic_id,timestamp` rows.
    EchoFlow,
    /// The DeepHawkes release format, one tab-separated cascade per line.
    DeepHawkes,
}

impl Format {
    /// The format `text` is written in, judged by its first content line
    /// (blank lines and `#` comments skipped): a `cascade` or `event`
    /// record is native, whatever whitespace separates its fields; another
    /// tab-separated line is a DeepHawkes record; the EchoFlow header or a
    /// three-field comma-separated row is EchoFlow. Anything else, an empty
    /// file included, is read as native.
    pub fn sniff(text: &str) -> Format {
        let Some(line) = text
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && !l.starts_with('#'))
        else {
            return Format::Native;
        };
        match line.split_whitespace().next() {
            Some("cascade" | "event") => Format::Native,
            _ if line.contains('\t') => Format::DeepHawkes,
            _ if echoflow::is_header(line) || line.split(',').count() == 3 => Format::EchoFlow,
            _ => Format::Native,
        }
    }

    /// Strict load: the first fault fails it with a [`ReadError::Parse`]
    /// carrying its line.
    pub fn read(self, text: &str, name_hint: &str) -> Result<Dataset, ReadError> {
        self.decode(text, name_hint, |q| Err(ReadError::Parse { line: q.line, message: q.reason }))
    }

    /// Lenient load: every fault quarantines the cascade it belongs to (or
    /// only its own line, when no cascade can be named) and the rest loads.
    pub fn read_lenient(self, text: &str, name_hint: &str) -> (Dataset, QuarantineReport) {
        let mut report = QuarantineReport::default();
        let Ok(dataset) = self.decode(text, name_hint, |q| {
            report.quarantined.push(q);
            Ok::<(), Infallible>(())
        });
        report.kept = dataset.cascades.len();
        (dataset, report)
    }

    /// Runs this format's decoder. `fault` gets each fault in line order
    /// and either ends the load with its error or lets the decoder read on.
    fn decode<E>(
        self,
        text: &str,
        name_hint: &str,
        fault: impl FnMut(QuarantinedCascade) -> Result<(), E>,
    ) -> Result<Dataset, E> {
        match self {
            Format::Native => io::read_lines(text, name_hint, fault),
            Format::EchoFlow => echoflow::decode(text, name_hint, fault),
            Format::DeepHawkes => deephawkes_format::decode(text, name_hint, fault),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sniffs_each_format_by_its_first_content_line() {
        for (text, want) in [
            ("# cascn cascade file v1\ncascade 1 0.0\nevent 5 - 0.0\n", Format::Native),
            ("cascade\t1\t0.0\nevent\t5\t-\t0.0\n", Format::Native),
            ("\n  # indented comment\n\tcascade 1 0\n", Format::Native),
            ("user_id,topic_id,timestamp\nu_1,t_1,0\n", Format::EchoFlow),
            ("# export\nu_9,t_9,12.5\n", Format::EchoFlow),
            ("1\t10\t0\t1\t10:0 10/11:5\n", Format::DeepHawkes),
            ("  # a comment with\ttabs\n1\t10\t0\t0\t10:0\n", Format::DeepHawkes),
            ("", Format::Native),
            ("what is this\n", Format::Native),
        ] {
            assert_eq!(Format::sniff(text), want, "{text:?}");
        }
    }

    #[test]
    fn a_tab_separated_native_file_reads_as_native() {
        let text = "cascade\t1\t0.0\nevent\t5\t-\t0.0\nevent\t6\t0\t1.5\n";
        let d = Format::sniff(text).read(text, "x").expect("native with tabs loads");
        assert_eq!(d.cascades.len(), 1);
        assert_eq!(d.cascades[0].events.len(), 2);
    }

    #[test]
    fn every_format_reports_a_fault_the_same_way() {
        for (format, text) in [
            (Format::Native, "cascade 1 0\nevent 5 - 0\nevent 6 0 oops\n"),
            (Format::EchoFlow, "u_5,t_1,0\nu_6,t_1,0\nu_7,t_1,oops\n"),
            (Format::DeepHawkes, "# header\n\n1\t5\t0\t1\t5:0 5/6:oops\n"),
        ] {
            let err = format.read(text, "x").expect_err("a bad time fails the strict load");
            let (d, report) = format.read_lenient(text, "x");
            assert!(d.cascades.is_empty() && report.kept == 0, "{format:?}");
            assert_eq!(report.quarantined.len(), 1, "{format:?}");
            let q = &report.quarantined[0];
            assert_eq!((q.id, q.line), (Some(1), 3), "{format:?}");
            match err {
                ReadError::Parse { line, message } => {
                    assert_eq!((line, message), (q.line, q.reason.clone()))
                }
                other => panic!("{format:?}: expected a parse error, got {other}"),
            }
        }
    }
}
