//! Cascade invariant validation and data quarantine.
//!
//! Real-world cascade dumps (and the fault-injection harness) contain
//! malformed cascades: non-monotone timestamps, parent references that point
//! forward in time, empty bodies. The strict loaders reject the whole file;
//! the lenient loaders route each bad cascade here and keep going, so one
//! corrupt record cannot take down a training run.

use crate::{Cascade, Event};

/// A violated cascade invariant (paper Definition 1: a time-ordered DAG
/// rooted at event 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CascadeFault {
    /// The event list is empty.
    Empty,
    /// Event 0 has a parent — the first event must be the root post.
    RootHasParent,
    /// The cascade's start time is NaN or infinite.
    NonFiniteStart {
        /// The offending start time.
        time: f64,
    },
    /// The root's time is not 0.0 (times are seconds since the root).
    RootTimeNonZero {
        /// The offending root time.
        time: f64,
    },
    /// An event carries a NaN or infinite timestamp.
    NonFiniteTime {
        /// 0-based event index.
        index: usize,
        /// The offending time.
        time: f64,
    },
    /// An event carries a negative timestamp.
    NegativeTime {
        /// 0-based event index.
        index: usize,
        /// The offending time.
        time: f64,
    },
    /// A non-root event has no parent.
    MissingParent {
        /// 0-based event index.
        index: usize,
    },
    /// An event references a parent at or after its own position — a
    /// dangling/forward parent index.
    ForwardParent {
        /// 0-based event index.
        index: usize,
        /// The out-of-range parent index.
        parent: usize,
    },
    /// Event times are not non-decreasing.
    TimeUnsorted {
        /// 0-based index of the first out-of-order event.
        index: usize,
    },
}

impl std::fmt::Display for CascadeFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CascadeFault::Empty => write!(f, "no events"),
            CascadeFault::RootHasParent => write!(f, "event 0 must be the root"),
            CascadeFault::NonFiniteStart { time } => write!(f, "non-finite start time {time}"),
            CascadeFault::RootTimeNonZero { time } => {
                write!(f, "root must be at t=0 (got {time})")
            }
            CascadeFault::NonFiniteTime { index, time } => {
                write!(f, "event {index} has non-finite time {time}")
            }
            CascadeFault::NegativeTime { index, time } => {
                write!(f, "event {index} has negative time {time}")
            }
            CascadeFault::MissingParent { index } => write!(f, "event {index} has no parent"),
            CascadeFault::ForwardParent { index, parent } => {
                write!(f, "event {index} references later parent {parent}")
            }
            CascadeFault::TimeUnsorted { index } => {
                write!(f, "events not time-sorted at {index}")
            }
        }
    }
}

impl std::error::Error for CascadeFault {}

/// Checks every cascade invariant over a raw event list, reporting the first
/// violation.
pub fn validate_events(events: &[Event]) -> Result<(), CascadeFault> {
    if events.is_empty() {
        return Err(CascadeFault::Empty);
    }
    for (i, e) in events.iter().enumerate() {
        check_event(events[..i].last(), e, i)?;
    }
    Ok(())
}

/// Checks `event`, at position `index` of its cascade, against the event
/// before it: the root's rules when there is none, the follow-on rules
/// (finite, non-negative, sorted time and an earlier parent) otherwise. The
/// incremental form of [`validate_events`], shared by the line parser and
/// [`Cascade::try_append`].
pub(crate) fn check_event(
    prev: Option<&Event>,
    event: &Event,
    index: usize,
) -> Result<(), CascadeFault> {
    let Some(prev) = prev else {
        if event.parent.is_some() {
            return Err(CascadeFault::RootHasParent);
        }
        // lint: allow(float-eq) — the cascade contract pins the root at exactly t=0
        if event.time != 0.0 {
            return Err(CascadeFault::RootTimeNonZero { time: event.time });
        }
        return Ok(());
    };
    if !event.time.is_finite() {
        return Err(CascadeFault::NonFiniteTime { index, time: event.time });
    }
    if event.time < 0.0 {
        return Err(CascadeFault::NegativeTime { index, time: event.time });
    }
    match event.parent {
        None => return Err(CascadeFault::MissingParent { index }),
        Some(p) if p >= index => return Err(CascadeFault::ForwardParent { index, parent: p }),
        Some(_) => {}
    }
    if event.time < prev.time {
        return Err(CascadeFault::TimeUnsorted { index });
    }
    Ok(())
}

impl Cascade {
    /// Fallible counterpart of [`Cascade::new`]: validates the invariants and
    /// returns the violation instead of panicking, so loaders can quarantine
    /// bad cascades.
    pub fn try_new(id: u64, start_time: f64, events: Vec<Event>) -> Result<Self, CascadeFault> {
        if !start_time.is_finite() {
            return Err(CascadeFault::NonFiniteStart { time: start_time });
        }
        validate_events(&events)?;
        Ok(Self::prechecked(id, start_time, events))
    }

    /// A cascade whose start time is finite and whose events already passed
    /// [`check_event`] one by one, in order — the line parser's
    /// constructor, which skips [`Cascade::try_new`]'s second pass over
    /// the events.
    pub(crate) fn prechecked(id: u64, start_time: f64, events: Vec<Event>) -> Self {
        debug_assert!(start_time.is_finite(), "cascade {id}: start {start_time}");
        debug_assert_eq!(validate_events(&events), Ok(()), "cascade {id}");
        Self {
            id,
            start_time,
            events,
        }
    }
}

/// One cascade rejected by a lenient loader.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedCascade {
    /// The cascade id from its header, when the header itself parsed.
    pub id: Option<u64>,
    /// 1-based line number of the offending input line.
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

/// Outcome of a lenient load: how many cascades survived and which were
/// quarantined, with reasons.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuarantineReport {
    /// Number of cascades that passed validation.
    pub kept: usize,
    /// Cascades dropped, in input order.
    pub quarantined: Vec<QuarantinedCascade>,
}

impl QuarantineReport {
    /// Whether nothing was quarantined.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Multi-line human-readable summary for logs and CLI output.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return format!("{} cascades loaded, none quarantined", self.kept);
        }
        let mut out = format!(
            "{} cascades loaded, {} quarantined:",
            self.kept,
            self.quarantined.len()
        );
        for q in &self.quarantined {
            let id = q
                .id
                .map(|i| i.to_string())
                .unwrap_or_else(|| "<unknown>".into());
            out.push_str(&format!("\n  - cascade {} (line {}): {}", id, q.line, q.reason));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(user: u64, parent: Option<usize>, time: f64) -> Event {
        Event { user, parent, time }
    }

    #[test]
    fn valid_events_pass() {
        let events = vec![ev(0, None, 0.0), ev(1, Some(0), 1.0), ev(2, Some(1), 1.0)];
        assert_eq!(validate_events(&events), Ok(()));
        assert!(Cascade::try_new(1, 0.0, events).is_ok());
    }

    #[test]
    fn each_fault_is_detected() {
        assert_eq!(validate_events(&[]), Err(CascadeFault::Empty));
        assert_eq!(
            validate_events(&[ev(0, Some(0), 0.0)]),
            Err(CascadeFault::RootHasParent)
        );
        assert_eq!(
            validate_events(&[ev(0, None, 1.0)]),
            Err(CascadeFault::RootTimeNonZero { time: 1.0 })
        );
        assert_eq!(
            validate_events(&[ev(0, None, 0.0), ev(1, Some(0), -2.0)]),
            Err(CascadeFault::NegativeTime { index: 1, time: -2.0 })
        );
        assert_eq!(
            validate_events(&[ev(0, None, 0.0), ev(1, None, 1.0)]),
            Err(CascadeFault::MissingParent { index: 1 })
        );
        assert_eq!(
            validate_events(&[ev(0, None, 0.0), ev(1, Some(3), 1.0)]),
            Err(CascadeFault::ForwardParent { index: 1, parent: 3 })
        );
        assert_eq!(
            validate_events(&[ev(0, None, 0.0), ev(1, Some(0), 5.0), ev(2, Some(0), 2.0)]),
            Err(CascadeFault::TimeUnsorted { index: 2 })
        );
    }

    #[test]
    fn try_new_reports_instead_of_panicking() {
        let err = Cascade::try_new(9, 0.0, vec![ev(0, None, 0.0), ev(1, Some(5), 1.0)])
            .unwrap_err();
        assert!(err.to_string().contains("references later parent 5"));
    }

    #[test]
    fn report_summary_lists_reasons() {
        let mut rep = QuarantineReport { kept: 3, ..Default::default() };
        assert!(rep.is_clean());
        assert!(rep.summary().contains("none quarantined"));
        rep.quarantined.push(QuarantinedCascade {
            id: Some(7),
            line: 12,
            reason: "events not time-sorted at 2".into(),
        });
        rep.quarantined.push(QuarantinedCascade {
            id: None,
            line: 30,
            reason: "unknown record type `evnt`".into(),
        });
        let s = rep.summary();
        assert!(s.contains("3 cascades loaded, 2 quarantined"));
        assert!(s.contains("cascade 7 (line 12)"));
        assert!(s.contains("cascade <unknown> (line 30)"));
    }
}
