//! Loader for the DeepHawkes/CasCN public dataset format.
//!
//! The paper's supplemental material distributes Sina Weibo cascades in the
//! DeepHawkes release format (github.com/CaoQi92/DeepHawkes), one cascade
//! per line:
//!
//! ```text
//! <message_id>\t<root_user_id>\t<publish_time>\t<num_retweets>\t<path>[ <path>...]
//! ```
//!
//! where each `<path>` is a `/`-separated chain of user ids ending in the
//! retweeting user, followed by `:<seconds_since_publish>`, e.g.
//! `12/56/78:3600`. The root appears as the single-element path `12:0`.
//!
//! This module decodes that format for [`crate::Format::DeepHawkes`], so
//! the reproduction can run on the *real* datasets when they are available,
//! instead of the synthetic stand-ins. A line is a whole cascade, so a bad
//! line is reported at its own line, with the message id when that field
//! parses, under the policy all three formats share ([`crate::format`]):
//! the strict read fails there, the lenient one drops that cascade and
//! reads on. Every cascade is built through [`Cascade::try_new`], so
//! non-finite or out-of-order times are faults, not panics.

use std::collections::HashMap;

use crate::validate::QuarantinedCascade;
use crate::{Cascade, Dataset, Event};

/// The DeepHawkes decoder: one cascade per content line, each fault handed
/// to `fault` as it is met.
pub(crate) fn decode<E>(
    text: &str,
    name_hint: &str,
    mut fault: impl FnMut(QuarantinedCascade) -> Result<(), E>,
) -> Result<Dataset, E> {
    let mut cascades = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_line(line) {
            Ok(c) => cascades.push(c),
            Err(reason) => fault(QuarantinedCascade {
                id: line.split('\t').next().and_then(|id| id.parse().ok()),
                line: i + 1,
                reason,
            })?,
        }
    }
    Ok(Dataset::new(name_hint, cascades))
}

fn parse_line(line: &str) -> Result<Cascade, String> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() < 5 {
        return Err(format!("expected 5 tab-separated fields, got {}", fields.len()));
    }
    let id: u64 = fields[0]
        .parse()
        .map_err(|_| format!("bad message id `{}`", fields[0]))?;
    let start_time: f64 = fields[2]
        .parse()
        .map_err(|_| format!("bad publish time `{}`", fields[2]))?;
    let declared: usize = fields[3]
        .parse()
        .map_err(|_| format!("bad retweet count `{}`", fields[3]))?;

    // Parse paths into (chain-of-users, time) records.
    struct PathRec {
        users: Vec<u64>,
        time: f64,
    }
    let mut records = Vec::new();
    for tok in fields[4].split_whitespace() {
        let (chain, time) = tok
            .rsplit_once(':')
            .ok_or_else(|| format!("path `{tok}` missing `:time`"))?;
        let time: f64 = time
            .parse()
            .map_err(|_| format!("bad path time in `{tok}`"))?;
        let users: Result<Vec<u64>, _> = chain.split('/').map(str::parse).collect();
        let users = users.map_err(|_| format!("bad user id in `{tok}`"))?;
        records.push(PathRec { users, time });
    }
    if records.is_empty() {
        return Err("cascade has no paths".into());
    }
    // Sort by time; the root path (single user at t=0) must come first.
    records.sort_by(|a, b| {
        a.time
            .total_cmp(&b.time)
            .then(a.users.len().cmp(&b.users.len()))
    });
    // lint: allow(float-eq) — the DeepHawkes format pins the root path at exactly t=0
    if records[0].users.len() != 1 || records[0].time != 0.0 {
        return Err("first path must be the root `<user>:0`".into());
    }

    // Each record's last user adopted at `time` from the second-to-last
    // user in the chain. Users may appear in several chains; the first
    // adoption wins (the DeepHawkes convention).
    let mut index: HashMap<u64, usize> = HashMap::new();
    let mut events: Vec<Event> = Vec::new();
    for rec in &records {
        let Some((&adopter, chain)) = rec.users.split_last() else {
            continue; // unreachable: `split` yields at least one user per chain
        };
        if index.contains_key(&adopter) {
            continue; // duplicate adoption of the same user
        }
        let parent = match chain.last() {
            None if events.is_empty() => None,
            None => return Err("multiple root paths".into()),
            // A parent that never adopted explicitly (truncated path)
            // attaches to the root, the DeepHawkes fallback.
            Some(parent_user) => Some(index.get(parent_user).copied().unwrap_or(0)),
        };
        index.insert(adopter, events.len());
        events.push(Event {
            user: adopter,
            parent,
            time: rec.time,
        });
    }
    // The header count in public dumps counts either adopters or retweets;
    // accept both but reject wild mismatches. (`declared / 2 + 1` cannot
    // overflow, and it bounds out both exact readings.)
    if events.len().abs_diff(declared) > declared / 2 + 1 {
        return Err(format!(
            "declared {declared} retweets but parsed {} adoptions",
            events.len()
        ));
    }
    Cascade::try_new(id, start_time, events).map_err(|fault| fault.to_string())
}

#[cfg(test)]
mod tests {
    use crate::io::ReadError;
    use crate::Format;

    fn parse(text: &str, name: &str) -> Result<crate::Dataset, ReadError> {
        Format::DeepHawkes.read(text, name)
    }

    /// The (line, message) of a strict read's error.
    fn parse_err(text: &str) -> (usize, String) {
        match parse(text, "x") {
            Err(ReadError::Parse { line, message }) => (line, message),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    const SAMPLE: &str = "\
42\t100\t1465776000\t5\t100:0 100/101:10 100/102:20 100/101/103:30 100/101/104:40 100/101/103/105:50
7\t7\t1465776100\t0\t7:0
";

    #[test]
    fn parses_the_fig1_cascade() {
        let d = parse(SAMPLE, "weibo").expect("parses");
        assert_eq!(d.cascades.len(), 2);
        let c = d.cascades.iter().find(|c| c.id == 42).unwrap();
        assert_eq!(c.final_size(), 6);
        assert_eq!(c.events[0].user, 100);
        assert_eq!(c.events[0].parent, None);
        // V5 (user 105) retweeted from V3 (user 103) at t=50.
        let v5 = c.events.iter().find(|e| e.user == 105).unwrap();
        assert_eq!(v5.time, 50.0);
        let parent_user = c.events[v5.parent.unwrap()].user;
        assert_eq!(parent_user, 103);
        // The graph matches paper Fig. 1.
        let g = c.observe(1e9).graph();
        assert_eq!(g.leaves().len(), 3);
        assert_eq!(g.dag_depth(), Some(3));
    }

    #[test]
    fn singleton_cascades_parse() {
        let d = parse(SAMPLE, "weibo").unwrap();
        let c = d.cascades.iter().find(|c| c.id == 7).unwrap();
        assert_eq!(c.final_size(), 1);
    }

    #[test]
    fn duplicate_adoptions_keep_first() {
        let text = "1\t10\t0\t2\t10:0 10/11:5 10/12/11:9 10/12:7\n";
        let d = parse(text, "x").unwrap();
        let c = &d.cascades[0];
        assert_eq!(c.final_size(), 3, "user 11 adopts once");
        let u11 = c.events.iter().find(|e| e.user == 11).unwrap();
        assert_eq!(u11.time, 5.0, "first adoption wins");
    }

    #[test]
    fn truncated_parent_attaches_to_root() {
        // 99 never adopts; 13's path goes through it.
        let text = "1\t10\t0\t2\t10:0 10/99/13:5\n";
        let d = parse(text, "x").unwrap();
        let c = &d.cascades[0];
        let u13 = c.events.iter().find(|e| e.user == 13).unwrap();
        assert_eq!(u13.parent, Some(0), "fallback to root");
    }

    #[test]
    fn reports_errors_with_line_numbers() {
        let bad = "1\t10\t0\t1\t10:0 10/11:oops\n";
        let (line, message) = parse_err(bad);
        assert_eq!(line, 1);
        assert!(message.contains("bad path time"), "got: {message}");

        let missing_root = "1\t10\t0\t1\t10/11:5\n";
        let (_, message) = parse_err(missing_root);
        assert!(message.contains("root"), "got: {message}");
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let text = "1\t10\t0\t50\t10:0 10/11:5\n";
        let (_, message) = parse_err(text);
        assert!(message.contains("declared"), "got: {message}");
    }

    /// Regression: a NaN or overflowing path time reached `Cascade::new`,
    /// which panicked with "event 1 has non-finite time".
    #[test]
    fn non_finite_path_times_are_refused() {
        for t in ["NaN", "1e400", "inf", "-inf"] {
            let (line, message) = parse_err(&format!("1\t10\t0\t1\t10:0 10/11:{t}\n"));
            assert_eq!(line, 1, "{t}");
            let refused = message.contains("non-finite time") || message.contains("root");
            assert!(refused, "{t}: {message}");
        }
    }

    /// Regression: a NaN or infinite publish time panicked in
    /// `Cascade::new` with "non-finite start time".
    #[test]
    fn non_finite_publish_times_are_refused() {
        for t in ["inf", "NaN", "-inf", "1e400"] {
            let (line, message) = parse_err(&format!("1\t10\t{t}\t1\t10:0 10/11:5\n"));
            assert_eq!(line, 1, "{t}");
            assert!(message.contains("non-finite start time"), "{t}: {message}");
        }
    }

    /// Regression: a retweet count of `usize::MAX` overflowed `declared + 1`
    /// (a panic in debug builds, a silent wrap in release).
    #[test]
    fn a_giant_retweet_count_is_a_mismatch_not_an_overflow() {
        let (line, message) = parse_err("1\t10\t0\t18446744073709551615\t10:0 10/11:5\n");
        assert_eq!(line, 1);
        assert!(message.contains("declared 18446744073709551615 retweets"), "{message}");
    }

    #[test]
    fn lenient_read_quarantines_the_bad_line_and_reads_on() {
        let text = "1\t10\tNaN\t1\t10:0 10/11:5\nx\t10\t0\t0\t10:0\n3\t30\t5\t1\t30:0 30/31:2\n";
        let (d, report) = Format::DeepHawkes.read_lenient(text, "x");
        assert_eq!(d.cascades.iter().map(|c| c.id).collect::<Vec<_>>(), [3]);
        let entries: Vec<_> = report.quarantined.iter().map(|q| (q.id, q.line)).collect();
        assert_eq!(entries, [(Some(1), 1), (None, 2)]);
        assert_eq!(report.kept, 1);
    }
}
