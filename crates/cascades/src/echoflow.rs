//! Loader for the EchoFlow CSV cascade format.
//!
//! EchoFlow dumps are flat CSV event logs, one adoption per row:
//!
//! ```text
//! user_id,topic_id,timestamp
//! u_001,t_078,1692201000
//! u_034,t_078,1692201417
//! u_001,t_101,1692202210
//! ```
//!
//! Each `topic_id` is one cascade; rows may be interleaved across topics
//! and need not be time-sorted. Ids are the digits of the token (`u_034` →
//! `34`; bare integers also work), timestamps are absolute seconds (integer
//! or fractional).
//!
//! The format carries no reshare edges, so the loader reconstructs the
//! flattest DAG consistent with the data: every later adopter hangs off the
//! root post (the topic's earliest row), times become seconds since that
//! root, and repeat adoptions by the same user are dropped (a user adopts
//! at most once per cascade — the invariant the rest of the workspace
//! assumes). The result round-trips through [`Cascade::try_new`], so every
//! loaded cascade satisfies the validated-cascade invariants.
//!
//! The file is read through [`crate::Format::EchoFlow`], under the policy
//! all three formats share ([`crate::format`]). A bad row poisons exactly
//! its topic's cascade, reported at the row's line; a row whose topic id
//! does not parse is reported alone. A topic whose reconstruction fails
//! validation is reported at its first row. Topics interleave, so no
//! cascade is complete before the end of input: every fault is reported
//! then, in line order, and the strict read fails with the first.

use std::collections::HashMap;

use crate::validate::QuarantinedCascade;
use crate::{Cascade, Dataset, Event};

/// Parses an id token: the concatenated ASCII digits of the token
/// (`u_034` → `34`, `17` → `17`). `None` when the token has no digits or
/// the digits overflow `u64`.
fn parse_id(token: &str) -> Option<u64> {
    let digits: String = token.chars().filter(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

/// Whether `line` is the conventional EchoFlow header row.
pub(crate) fn is_header(line: &str) -> bool {
    let mut fields = line.split(',').map(str::trim);
    matches!(
        (fields.next(), fields.next(), fields.next()),
        (Some(u), Some(t), Some(ts))
            if u.eq_ignore_ascii_case("user_id")
                && t.eq_ignore_ascii_case("topic_id")
                && ts.eq_ignore_ascii_case("timestamp")
    )
}

/// One parsed row: `(user, timestamp)`.
type Row = (u64, f64);

struct Topic {
    id: u64,
    /// Line of the topic's first row — the quarantine anchor when the
    /// cascade itself (rather than a specific row) fails validation.
    first_line: usize,
    rows: Vec<Row>,
    /// First malformed row seen for this topic, which poisons the cascade.
    poisoned: Option<(usize, String)>,
}

impl Topic {
    /// The topic's cascade, or the fault that quarantines it.
    fn build(mut self) -> Result<Cascade, QuarantinedCascade> {
        let quarantine = |line, reason| QuarantinedCascade { id: Some(self.id), line, reason };
        if let Some((line, reason)) = self.poisoned {
            return Err(quarantine(line, reason));
        }
        // Stable sort by timestamp: equal times keep input order, so the
        // reconstruction is deterministic.
        self.rows.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut seen_users = std::collections::HashSet::new();
        self.rows.retain(|&(user, _)| seen_users.insert(user));

        // An unpoisoned topic was opened by a row that parsed.
        let t0 = self.rows[0].1;
        let events: Vec<Event> = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, &(user, ts))| Event {
                user,
                parent: if i == 0 { None } else { Some(0) },
                time: ts - t0,
            })
            .collect();
        Cascade::try_new(self.id, t0, events)
            .map_err(|fault| quarantine(self.first_line, fault.to_string()))
    }
}

/// Parses one data row into `(topic, user, timestamp)`. An error carries
/// the topic id when it parsed, so the fault can poison that cascade
/// instead of only the row.
fn parse_row(line: &str) -> Result<(u64, u64, f64), (Option<u64>, String)> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() != 3 {
        let topic = fields.get(1).copied().and_then(parse_id);
        return Err((
            topic,
            format!("expected `user_id,topic_id,timestamp`, got {} fields", fields.len()),
        ));
    }
    let topic = parse_id(fields[1]).ok_or_else(|| format!("unparsable topic id `{}`", fields[1]));
    let user = parse_id(fields[0]).ok_or_else(|| format!("unparsable user id `{}`", fields[0]));
    let ts = fields[2]
        .parse::<f64>()
        .ok()
        .filter(|t| t.is_finite())
        .ok_or_else(|| format!("unparsable timestamp `{}`", fields[2]));
    match (topic, user, ts) {
        (Ok(topic), Ok(user), Ok(ts)) => Ok((topic, user, ts)),
        (topic, user, ts) => {
            let message = [user.err(), topic.clone().err(), ts.err()]
                .into_iter()
                .flatten()
                .collect::<Vec<_>>()
                .join("; ");
            Err((topic.ok(), message))
        }
    }
}

/// The EchoFlow decoder: groups rows into topics, then hands every fault
/// to `fault` in line order (see the module docs).
pub(crate) fn decode<E>(
    text: &str,
    name_hint: &str,
    mut fault: impl FnMut(QuarantinedCascade) -> Result<(), E>,
) -> Result<Dataset, E> {
    let mut topics: Vec<Topic> = Vec::new();
    // Slot lookup by topic id; output order is first-seen order via `topics`,
    // so the map is never iterated and determinism is untouched.
    let mut slots: HashMap<u64, usize> = HashMap::new();
    let mut faults: Vec<QuarantinedCascade> = Vec::new();
    let mut seen_header = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !seen_header && is_header(line) {
            seen_header = true;
            continue;
        }
        seen_header = true;

        let (topic_id, row) = match parse_row(line) {
            Ok((topic, user, ts)) => (topic, Ok((user, ts))),
            Err((Some(topic), reason)) => (topic, Err(reason)),
            // Not even the topic parsed: quarantine the row alone.
            Err((None, reason)) => {
                faults.push(QuarantinedCascade { id: None, line: line_no, reason });
                continue;
            }
        };
        let slot = *slots.entry(topic_id).or_insert_with(|| {
            topics.push(Topic {
                id: topic_id,
                first_line: line_no,
                rows: Vec::new(),
                poisoned: None,
            });
            topics.len() - 1
        });
        let topic = &mut topics[slot];
        match row {
            Ok(row) => topic.rows.push(row),
            Err(reason) => {
                topic.poisoned.get_or_insert((line_no, reason));
            }
        }
    }

    let mut cascades = Vec::new();
    for topic in topics {
        match topic.build() {
            Ok(c) => cascades.push(c),
            Err(q) => faults.push(q),
        }
    }
    // No two faults share a line: each names a different row.
    faults.sort_by_key(|q| q.line);
    for q in faults {
        fault(q)?;
    }
    Ok(Dataset::new(name_hint, cascades))
}

/// Serializes a dataset back to EchoFlow CSV (header included): each
/// cascade becomes `u_<user>,t_<id>,<start_time + event time>` rows. The
/// inverse of the loader for cascades the format can represent (star
/// DAGs); arbitrary parent structure is flattened, exactly as loading
/// does.
pub fn echoflow_to_string(dataset: &Dataset) -> String {
    let mut out = String::from("user_id,topic_id,timestamp\n");
    for c in &dataset.cascades {
        for e in &c.events {
            out.push_str(&format!("u_{},t_{},{}\n", e.user, c.id, c.start_time + e.time));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::ReadError;
    use crate::Format;

    const SAMPLE: &str = "\
user_id,topic_id,timestamp
u_001,t_078,1692201000
u_034,t_078,1692201417
u_002,t_101,1692202210
u_007,t_078,1692201500
u_003,t_101,1692202300
";

    #[test]
    fn groups_interleaved_topics_into_cascades() {
        let ds = Format::EchoFlow.read(SAMPLE, "echo").expect("clean sample loads");
        assert_eq!(ds.cascades.len(), 2);
        let t78 = ds.cascades.iter().find(|c| c.id == 78).unwrap();
        assert_eq!(t78.events.len(), 3);
        assert_eq!(t78.start_time, 1692201000.0);
        assert_eq!(t78.events[0], Event { user: 1, parent: None, time: 0.0 });
        assert_eq!(t78.events[1], Event { user: 34, parent: Some(0), time: 417.0 });
        assert_eq!(t78.events[2], Event { user: 7, parent: Some(0), time: 500.0 });
        let t101 = ds.cascades.iter().find(|c| c.id == 101).unwrap();
        assert_eq!(t101.events.len(), 2);
    }

    #[test]
    fn rows_out_of_time_order_are_sorted_not_rejected() {
        let text = "u_5,t_1,300\nu_6,t_1,100\nu_7,t_1,200\n";
        let ds = Format::EchoFlow.read(text, "echo").unwrap();
        let c = &ds.cascades[0];
        assert_eq!(c.events[0].user, 6, "earliest row becomes the root");
        assert_eq!(c.events[1].user, 7);
        assert_eq!(c.events[2].user, 5);
        assert_eq!(c.events[2].time, 200.0);
    }

    #[test]
    fn repeat_adoptions_keep_the_first() {
        let text = "u_1,t_1,0\nu_2,t_1,10\nu_1,t_1,20\n";
        let ds = Format::EchoFlow.read(text, "echo").unwrap();
        assert_eq!(ds.cascades[0].events.len(), 2);
    }

    #[test]
    fn malformed_row_quarantines_only_its_topic() {
        let text = "\
u_1,t_1,0
u_2,t_1,oops
u_1,t_2,0
u_3,t_2,50
";
        let (ds, report) = Format::EchoFlow.read_lenient(text, "echo");
        assert_eq!(ds.cascades.len(), 1);
        assert_eq!(ds.cascades[0].id, 2);
        assert_eq!(report.kept, 1);
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!(q.id, Some(1));
        assert_eq!(q.line, 2);
        assert!(q.reason.contains("unparsable timestamp"), "{}", q.reason);
    }

    #[test]
    fn row_without_topic_is_quarantined_alone() {
        let text = "u_1,t_1,0\nu_2,???,5\nu_2,t_1,9\n";
        let (ds, report) = Format::EchoFlow.read_lenient(text, "echo");
        assert_eq!(ds.cascades.len(), 1);
        assert_eq!(ds.cascades[0].events.len(), 2);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].id, None);
        assert_eq!(report.quarantined[0].line, 2);
    }

    #[test]
    fn strict_mode_fails_on_first_bad_row() {
        let text = "u_1,t_1,0\nnot-a-row\n";
        let err = Format::EchoFlow.read(text, "echo").unwrap_err();
        match err {
            ReadError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_field_count_reports_the_line() {
        let text = "u_1,t_1,0\nu_2,t_1\n";
        let (ds, report) = Format::EchoFlow.read_lenient(text, "echo");
        // The bad row has no third field; its topic field still parses, so
        // topic 1 is poisoned.
        assert!(ds.cascades.is_empty());
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].reason.contains("fields"));
    }

    #[test]
    fn round_trips_through_csv() {
        let ds = Format::EchoFlow.read(SAMPLE, "echo").unwrap();
        let text = echoflow_to_string(&ds);
        let back = Format::EchoFlow.read(&text, "echo").unwrap();
        assert_eq!(ds.cascades.len(), back.cascades.len());
        for (a, b) in ds.cascades.iter().zip(&back.cascades) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.start_time, b.start_time);
            assert_eq!(a.events, b.events);
        }
    }

    /// The (id, line) of every quarantine entry of a lenient read, and the
    /// line of the strict read's error.
    fn faults(text: &str) -> (Vec<(Option<u64>, usize)>, usize) {
        let (_, report) = Format::EchoFlow.read_lenient(text, "echo");
        let entries = report.quarantined.iter().map(|q| (q.id, q.line)).collect();
        match Format::EchoFlow.read(text, "echo") {
            Err(ReadError::Parse { line, .. }) => (entries, line),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    /// Regression: the strict read failed at the first bad row (line 2,
    /// topic 2) while the lenient report listed topics in first-seen order,
    /// putting topic 1's line 3 first.
    #[test]
    fn interleaved_bad_topics_are_reported_in_line_order() {
        let text = "u_1,t_1,0\nu_2,t_2,oops\nu_3,t_1,oops\n";
        assert_eq!(faults(text), (vec![(Some(2), 2), (Some(1), 3)], 2));
    }

    /// Regression: a row with no topic was reported as it was read and
    /// poisoned topics only at the end, so line 3 came before line 2.
    #[test]
    fn a_row_without_topic_is_reported_in_line_order() {
        let text = "u_1,t_1,0\nu_2,t_1,bad\nu_3,???,5\n";
        assert_eq!(faults(text), (vec![(Some(1), 2), (None, 3)], 2));
    }

    /// A topic whose span overflows `f64` fails validation at its first
    /// row, after every row parsed.
    #[test]
    fn an_unrepresentable_span_quarantines_its_topic_at_its_first_row() {
        let text = "u_1,t_1,-1e308\nu_2,t_2,0\nu_3,t_1,1e308\n";
        let (ds, report) = Format::EchoFlow.read_lenient(text, "echo");
        assert_eq!(ds.cascades.iter().map(|c| c.id).collect::<Vec<_>>(), [2]);
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!((q.id, q.line), (Some(1), 1));
        assert!(q.reason.contains("non-finite time"), "{}", q.reason);
    }

    #[test]
    fn detects_the_format() {
        assert_eq!(Format::sniff(SAMPLE), Format::EchoFlow);
        assert_eq!(Format::sniff("u_9,t_9,12.5\n"), Format::EchoFlow);
        assert_ne!(Format::sniff("cascade 1 0.0 2\nevent 0 - 0.0\n"), Format::EchoFlow);
        assert_ne!(Format::sniff("1\t2\t0 1:0.0 2:1.0\n"), Format::EchoFlow);
    }
}
