//! The parser of the cascade line format, behind every reader of it: the
//! strict and the lenient file loaders ([`crate::io`]) and the serving
//! layer's request bodies ([`parse_cascades`] for `/predict`,
//! [`parse_observe_body`] for `/observe`).
//!
//! The grammar is the one [`crate::io`] writes:
//!
//! ```text
//! cascade <id> <start_time>
//! event <user> <parent_index|-> <time>
//! ```
//!
//! Comments (`#`) and blank lines are skipped. One private lexer reads a
//! line, and [`CascadeStream`] is the one state machine over it: it
//! validates every cascade invariant as lines arrive, so an error names the
//! offending line; it enforces caps on cascade and event counts *as it
//! reads*, so an oversized request body is rejected at the first line past
//! a limit, not after buffering everything; and it yields each cascade as
//! soon as the next header — or the end of input — proves it complete. The
//! file loaders drive it with no limits, so a body accepted here parses
//! identically there, with the same error for one that is not.

use crate::io::{parse_start, parse_tok, ReadError};
use crate::validate::check_event;
use crate::{Cascade, Event, QuarantinedCascade};

/// Caps applied while streaming. Both limits are inclusive maxima.
#[derive(Debug, Clone, Copy)]
pub struct StreamLimits {
    /// Maximum number of cascades one stream may carry.
    pub max_cascades: usize,
    /// Maximum number of events in any single cascade.
    pub max_events: usize,
}

impl Default for StreamLimits {
    fn default() -> Self {
        Self {
            max_cascades: 64,
            max_events: 10_000,
        }
    }
}

/// One line of the format as [`lex`] reads it. A record whose fields do not
/// parse keeps the message to report, so the caller decides whether its
/// state makes another fault come first.
enum Line {
    /// Blank, or a comment.
    Skip,
    /// `cascade <id> <start_time>`.
    Header(Result<(u64, f64), String>),
    /// `event <user> <parent_index|-> <time>`.
    Event(Result<Event, String>),
    /// Any other record type.
    Unknown(String),
}

/// Reads one line of the format.
fn lex(raw: &str) -> Line {
    let mut parts = raw.split_whitespace();
    match parts.next() {
        None => Line::Skip,
        Some(tok) if tok.starts_with('#') => Line::Skip,
        Some("cascade") => Line::Header((|| {
            let id = parse_tok(parts.next(), "cascade id")?;
            Ok((id, parse_start(parts.next())?))
        })()),
        Some("event") => Line::Event((|| {
            let user = parse_tok(parts.next(), "user")?;
            let parent_tok = parts.next().ok_or("missing parent field")?;
            let parent = if parent_tok == "-" {
                None
            } else {
                Some(parse_tok(Some(parent_tok), "parent")?)
            };
            let time = parse_tok(parts.next(), "time")?;
            Ok(Event { user, parent, time })
        })()),
        Some(other) => Line::Unknown(format!("unknown record type `{other}`")),
    }
}

/// The cascade currently being assembled.
struct Pending {
    id: u64,
    start: f64,
    events: Vec<Event>,
    /// Line of its header.
    line: usize,
}

/// An incremental parser over the cascade line format.
pub struct CascadeStream {
    limits: StreamLimits,
    lineno: usize,
    emitted: usize,
    current: Option<Pending>,
    /// Body lines are ignored up to the next header: set by a header that
    /// fails and by [`CascadeStream::quarantine`].
    skipping: bool,
}

impl CascadeStream {
    /// Creates a stream enforcing `limits`.
    pub fn new(limits: StreamLimits) -> Self {
        Self {
            limits,
            lineno: 0,
            emitted: 0,
            current: None,
            skipping: false,
        }
    }

    /// Feeds one line. Returns `Ok(Some(cascade))` when this line completed
    /// the *previous* cascade (i.e. it was the next `cascade` header), and
    /// `Ok(None)` otherwise. Errors carry the 1-based line number.
    pub fn push_line(&mut self, raw: &str) -> Result<Option<Cascade>, ReadError> {
        self.read_line(raw).map_err(|message| self.error(message))
    }

    /// Signals end of input, returning the final cascade if one is pending.
    ///
    /// A trailing cascade never sees a terminating blank line or follow-up
    /// header — this is the only place it can be yielded, and an empty one
    /// is reported at the line after the last. It is charged against
    /// [`StreamLimits`] exactly like header-completed cascades: its header
    /// already counted toward `max_cascades` when it was read (so a stream
    /// that admits the header always has room to finish it), and its events
    /// were capped per-line by `max_events`.
    pub fn finish(mut self) -> Result<Option<Cascade>, ReadError> {
        self.end().map_err(|message| self.error(message))
    }

    /// Number of complete cascades yielded so far (including by
    /// [`CascadeStream::finish`] once called) — the count charged against
    /// `StreamLimits::max_cascades`.
    pub fn cascades_emitted(&self) -> usize {
        self.emitted
    }

    /// [`CascadeStream::push_line`] with the error as its message alone;
    /// the line it belongs to is the last one read.
    pub(crate) fn read_line(&mut self, raw: &str) -> Result<Option<Cascade>, String> {
        self.lineno += 1;
        match lex(raw) {
            Line::Skip => Ok(None),
            Line::Header(header) => self.header(header),
            _ if self.skipping => Ok(None),
            Line::Event(event) => self.event(event).map(|()| None),
            Line::Unknown(message) => Err(message),
        }
    }

    /// [`CascadeStream::finish`] on a stream the caller keeps.
    pub(crate) fn end(&mut self) -> Result<Option<Cascade>, String> {
        self.lineno += 1;
        self.flush()
    }

    /// `message` as the error of the last line read.
    fn error(&self, message: String) -> ReadError {
        ReadError::Parse { line: self.lineno, message }
    }

    /// Records `reason`, the error of the last line read, against the
    /// cascade it belongs to, which is dropped with the rest of its body:
    /// lines are skipped up to the next header. The file loaders report
    /// every error through it; the lenient one reads on, while the strict
    /// one stops there, as the request parsers do.
    pub(crate) fn quarantine(&mut self, reason: String) -> QuarantinedCascade {
        // A failing header has already closed or dropped the cascade before
        // it and opened (or skips) its own, so only a body line's cascade is
        // dropped here.
        let at_header =
            self.skipping || self.current.as_ref().is_some_and(|p| p.line == self.lineno);
        let id = if at_header {
            None
        } else {
            self.skipping = true;
            self.current.take().map(|p| p.id)
        };
        QuarantinedCascade { id, line: self.lineno, reason }
    }

    /// A header ends the pending cascade and opens the next. An empty
    /// pending cascade is this line's first fault, before the header's own
    /// fields. Whatever fails, reading can resume on the next line: an
    /// empty cascade is dropped, and a header that does not parse or
    /// exceeds `max_cascades` keeps the pending cascade, to be completed by
    /// the next header, and has its own body skipped.
    fn header(&mut self, header: Result<(u64, f64), String>) -> Result<Option<Cascade>, String> {
        let empty = self.current.take_if(|p| p.events.is_empty()).map(|p| p.id);
        let opened = header.and_then(|(id, start)| {
            if self.emitted + usize::from(self.current.is_some()) >= self.limits.max_cascades {
                return Err(format!("too many cascades (limit {})", self.limits.max_cascades));
            }
            Ok(Pending { id, start, events: Vec::new(), line: self.lineno })
        });
        let done = match opened {
            Ok(next) => {
                let done = self.flush();
                self.current = Some(next);
                self.skipping = false;
                done
            }
            Err(message) => {
                self.skipping = true;
                Err(message)
            }
        };
        match empty {
            Some(id) => Err(no_events(id)),
            None => done,
        }
    }

    /// Appends a body event to the pending cascade, validated against the
    /// event before it.
    fn event(&mut self, event: Result<Event, String>) -> Result<(), String> {
        let Some(pending) = self.current.as_mut() else {
            return Err("event before any cascade header".into());
        };
        if pending.events.len() >= self.limits.max_events {
            return Err(format!(
                "cascade {} exceeds the event limit ({})",
                pending.id, self.limits.max_events
            ));
        }
        let event = event?;
        check_event(pending.events.last(), &event, pending.events.len())
            .map_err(|fault| fault.to_string())?;
        pending.events.push(event);
        Ok(())
    }

    /// Completes the pending cascade. `lex` already refused a non-finite
    /// start time and [`Self::event`] checked every event against the one
    /// before it, so only emptiness can fail here.
    fn flush(&mut self) -> Result<Option<Cascade>, String> {
        let Some(p) = self.current.take() else {
            return Ok(None);
        };
        if p.events.is_empty() {
            return Err(no_events(p.id));
        }
        self.emitted += 1;
        Ok(Some(Cascade::prechecked(p.id, p.start, p.events)))
    }
}

fn no_events(id: u64) -> String {
    format!("cascade {id} has no events")
}

/// Drives a [`CascadeStream`] over a complete request body, collecting every
/// cascade. An empty (or comment-only) body yields an empty vector.
pub fn parse_cascades(text: &str, limits: StreamLimits) -> Result<Vec<Cascade>, ReadError> {
    let mut stream = CascadeStream::new(limits);
    let mut out = Vec::new();
    for line in text.lines() {
        if let Some(c) = stream.push_line(line)? {
            out.push(c);
        }
    }
    if let Some(c) = stream.finish()? {
        out.push(c);
    }
    Ok(out)
}

/// A parsed `/observe` request body: one cascade header plus the events to
/// append to the live cascade it names.
///
/// Unlike [`parse_cascades`], the events here are a *suffix* of a cascade the
/// server already holds, so parent indices refer to positions in the full
/// server-side event list and the first body event need not be a root. The
/// cross-boundary invariants (time ordering, parent bounds) are enforced at
/// append time by [`crate::Cascade::try_append`]; this parser owns the grammar
/// and the limits.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserveBody {
    /// Identity of the live cascade being extended.
    pub id: u64,
    /// Start time the client believes the cascade has; the server rejects a
    /// mismatch rather than silently rebasing.
    pub start_time: f64,
    /// Adoption events to append, in arrival order.
    pub events: Vec<Event>,
}

/// Parses a single-cascade append payload in the same line grammar as
/// [`parse_cascades`]: exactly one `cascade <id> <start>` header followed by
/// one or more `event <user> <parent|-> <time>` lines. Comments and blank
/// lines are skipped. `limits.max_events` caps the number of events in one
/// body; `max_cascades` is irrelevant here (the body carries exactly one).
pub fn parse_observe_body(text: &str, limits: StreamLimits) -> Result<ObserveBody, ReadError> {
    let mut header: Option<(u64, f64)> = None;
    let mut events: Vec<Event> = Vec::new();
    let mut lineno = 0usize;
    for raw in text.lines() {
        lineno += 1;
        let read = match lex(raw) {
            Line::Skip => Ok(()),
            Line::Header(_) if header.is_some() => {
                Err("observe body carries exactly one cascade".to_string())
            }
            Line::Header(h) => h.map(|h| header = Some(h)),
            Line::Event(_) if header.is_none() => Err("event before the cascade header".into()),
            Line::Event(_) if events.len() >= limits.max_events => Err(format!(
                "observe body exceeds the event limit ({})",
                limits.max_events
            )),
            Line::Event(event) => event.and_then(|event| {
                if !event.time.is_finite() {
                    return Err(format!("non-finite event time {}", event.time));
                }
                events.push(event);
                Ok(())
            }),
            Line::Unknown(message) => Err(message),
        };
        read.map_err(|message| ReadError::Parse { line: lineno, message })?;
    }
    let last = lineno.max(1);
    let Some((id, start_time)) = header else {
        return Err(ReadError::Parse {
            line: last,
            message: "observe body has no cascade header".into(),
        });
    };
    if events.is_empty() {
        return Err(ReadError::Parse {
            line: last,
            message: format!("observe body for cascade {id} has no events"),
        });
    }
    Ok(ObserveBody { id, start_time, events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{dataset_from_str, dataset_to_string};
    use crate::synth::{WeiboConfig, WeiboGenerator};

    fn limits() -> StreamLimits {
        StreamLimits::default()
    }

    #[test]
    fn streaming_matches_the_batch_loader() {
        let d = WeiboGenerator::new(WeiboConfig {
            num_cascades: 30,
            seed: 5,
            max_size: 120,
        })
        .generate();
        let text = dataset_to_string(&d);
        let streamed = parse_cascades(&text, StreamLimits { max_cascades: 30, max_events: 10_000 })
            .expect("valid dataset streams");
        let batch = dataset_from_str(&text, "x").expect("valid dataset parses");
        assert_eq!(streamed, batch.cascades);
    }

    #[test]
    fn cascades_are_yielded_incrementally() {
        let mut s = CascadeStream::new(limits());
        assert!(s.push_line("cascade 1 0.0").unwrap().is_none());
        assert!(s.push_line("event 5 - 0.0").unwrap().is_none());
        assert!(s.push_line("event 6 0 1.0").unwrap().is_none());
        // The next header completes cascade 1.
        let done = s.push_line("cascade 2 0.0").unwrap().expect("cascade 1 completes");
        assert_eq!(done.id, 1);
        assert_eq!(done.final_size(), 2);
        assert!(s.push_line("event 7 - 0.0").unwrap().is_none());
        let last = s.finish().unwrap().expect("cascade 2 completes");
        assert_eq!(last.id, 2);
    }

    #[test]
    fn empty_body_is_empty_not_an_error() {
        assert!(parse_cascades("", limits()).unwrap().is_empty());
        assert!(parse_cascades("# just a comment\n\n", limits()).unwrap().is_empty());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_cascades("cascade 1 0.0\nevent 5 - 0.0\nevent 6 bogus 1.0\n", limits())
            .unwrap_err();
        match err {
            ReadError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("parent"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn invariants_are_enforced_incrementally() {
        for (body, needle) in [
            ("event 1 - 0.0\n", "before any cascade header"),
            ("cascade 1 0.0\nevent 5 - 2.0\n", "root must be at t=0"),
            ("cascade 1 0.0\nevent 5 - 0.0\nevent 6 9 1.0\n", "later parent"),
            ("cascade 1 0.0\nevent 5 - 0.0\nevent 6 0 9.0\nevent 7 1 4.0\n", "not time-sorted"),
            ("cascade 1 0.0\nwat 1 2 3\n", "unknown record type"),
            ("cascade 1 0.0\n", "has no events"),
        ] {
            let err = parse_cascades(body, limits()).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "body {body:?}: expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn cascade_count_limit_is_enforced_at_the_header() {
        let body = "cascade 1 0.0\nevent 5 - 0.0\ncascade 2 0.0\nevent 6 - 0.0\n";
        let tight = StreamLimits { max_cascades: 1, max_events: 100 };
        let err = parse_cascades(body, tight).unwrap_err();
        match err {
            ReadError::Parse { line, message } => {
                assert_eq!(line, 3, "rejected at the second header");
                assert!(message.contains("too many cascades"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
        // Exactly at the limit is fine.
        let ok = parse_cascades(body, StreamLimits { max_cascades: 2, max_events: 100 });
        assert_eq!(ok.unwrap().len(), 2);
    }

    #[test]
    fn finish_yields_a_truncated_final_cascade() {
        // No terminating blank line, no follow-up header, no trailing
        // newline: only finish() can surface this cascade.
        let mut s = CascadeStream::new(limits());
        for line in ["cascade 9 3.5", "event 4 - 0.0", "event 8 0 2.0"] {
            assert!(s.push_line(line).unwrap().is_none(), "nothing completes mid-body");
        }
        assert_eq!(s.cascades_emitted(), 0, "pending cascade is not yet emitted");
        let c = s.finish().unwrap().expect("finish yields the trailing cascade");
        assert_eq!((c.id, c.start_time, c.final_size()), (9, 3.5, 2));
        // And it round-trips identically through the driver.
        let driven = parse_cascades("cascade 9 3.5\nevent 4 - 0.0\nevent 8 0 2.0", limits())
            .expect("truncated body parses");
        assert_eq!(driven, vec![c]);
    }

    #[test]
    fn limits_are_charged_at_finish_like_push_line() {
        // Exactly max_cascades cascades where the last is only completed by
        // finish(): the header was already charged, so finish always has room.
        let body = "cascade 1 0.0\nevent 5 - 0.0\ncascade 2 0.0\nevent 6 - 0.0";
        let tight = StreamLimits { max_cascades: 2, max_events: 100 };
        let mut s = CascadeStream::new(tight);
        let mut yielded = Vec::new();
        for line in body.lines() {
            if let Some(c) = s.push_line(line).unwrap() {
                yielded.push(c);
            }
        }
        assert_eq!((yielded.len(), s.cascades_emitted()), (1, 1));
        let last = s.finish().unwrap().expect("trailing cascade finishes within the limit");
        assert_eq!(last.id, 2);

        // One under the cap: the trailing cascade is rejected at its header,
        // not silently dropped at finish.
        let over = StreamLimits { max_cascades: 1, max_events: 100 };
        let err = parse_cascades(body, over).unwrap_err();
        assert!(err.to_string().contains("too many cascades"), "{err}");

        // Event caps bind on the trailing cascade too: the body below would
        // only complete via finish(), but the oversize event is rejected
        // per-line long before that.
        let fat = "cascade 1 0.0\nevent 0 - 0.0\nevent 1 0 1.0\nevent 2 0 2.0";
        let lean = StreamLimits { max_cascades: 4, max_events: 2 };
        let err = parse_cascades(fat, lean).unwrap_err();
        match err {
            ReadError::Parse { line, message } => {
                assert_eq!(line, 4, "rejected at the first event past the cap");
                assert!(message.contains("event limit"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn observe_body_parses_a_single_cascade_suffix() {
        let body = "# live append\ncascade 7 1.5\nevent 12 3 40.0\nevent 13 5 41.5\n";
        let ob = parse_observe_body(body, limits()).expect("valid observe body");
        assert_eq!((ob.id, ob.start_time), (7, 1.5));
        assert_eq!(ob.events.len(), 2);
        // Suffix semantics: parents reference server-side indices, and the
        // first event needn't be a root.
        assert_eq!(ob.events[0], Event { user: 12, parent: Some(3), time: 40.0 });
        assert_eq!(ob.events[1], Event { user: 13, parent: Some(5), time: 41.5 });
    }

    #[test]
    fn observe_body_rejects_malformed_payloads() {
        for (body, needle) in [
            ("", "no cascade header"),
            ("# only a comment\n", "no cascade header"),
            ("cascade 1 0.0\n", "has no events"),
            ("event 5 2 9.0\n", "before the cascade header"),
            ("cascade 1 0.0\ncascade 2 0.0\nevent 5 2 9.0\n", "exactly one cascade"),
            ("cascade 1 0.0\nevent 5 2 nan\n", "non-finite event time"),
            ("cascade 1 0.0\nwat\n", "unknown record type"),
            ("cascade 1 0.0\nevent 5 2\n", "missing"),
        ] {
            let err = parse_observe_body(body, limits()).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "body {body:?}: expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn observe_body_event_limit_binds() {
        let mut body = String::from("cascade 1 0.0\n");
        for i in 0..5 {
            body.push_str(&format!("event {i} 0 {i}.0\n"));
        }
        let tight = StreamLimits { max_cascades: 64, max_events: 4 };
        let err = parse_observe_body(&body, tight).unwrap_err();
        match err {
            ReadError::Parse { line, message } => {
                assert_eq!(line, 6, "rejected at the first event past the cap");
                assert!(message.contains("event limit"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
        let loose = StreamLimits { max_cascades: 64, max_events: 5 };
        assert_eq!(parse_observe_body(&body, loose).unwrap().events.len(), 5);
    }

    #[test]
    fn event_count_limit_is_enforced_mid_cascade() {
        let mut body = String::from("cascade 1 0.0\nevent 0 - 0.0\n");
        for i in 1..10 {
            body.push_str(&format!("event {i} 0 {}.0\n", i));
        }
        let tight = StreamLimits { max_cascades: 4, max_events: 5 };
        let err = parse_cascades(&body, tight).unwrap_err();
        match err {
            ReadError::Parse { line, message } => {
                assert_eq!(line, 7, "rejected at the first event past the cap");
                assert!(message.contains("event limit"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }
}
