//! The evolving-cascade data model of paper Section III-A.

use cascn_graph::DiGraph;

/// One adoption event in a cascade: a user re-tweeting (or a paper citing).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global user/paper identifier.
    pub user: u64,
    /// Index (into the cascade's event list) of the adopter this event
    /// re-tweeted from; `None` only for the root post.
    pub parent: Option<usize>,
    /// Seconds since the root post (the root itself is at 0.0).
    pub time: f64,
}

/// A full information cascade: the root post plus every adoption, ordered by
/// time. Events form a DAG rooted at event 0 (paper Definition 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Cascade {
    /// Dataset-unique identifier of the post.
    pub id: u64,
    /// Absolute publication time of the root post (seconds; used for the
    /// paper's 8 am–6 pm publication filter and time-ordered splits).
    pub start_time: f64,
    /// Adoption events in non-decreasing time order; `events[0]` is the root.
    pub events: Vec<Event>,
}

impl Cascade {
    /// Creates a cascade from its parts, validating the invariants:
    /// a root-first event list, sorted times, and in-range parents.
    /// Use [`Cascade::try_new`] to report violations instead of panicking.
    ///
    /// # Panics
    /// Panics if the event list is empty or malformed.
    pub fn new(id: u64, start_time: f64, events: Vec<Event>) -> Self {
        match Self::try_new(id, start_time, events) {
            Ok(c) => c,
            // lint: allow(no-panic) — documented panicking constructor; the fallible route is try_new
            Err(fault) => panic!("cascade {id}: {fault}"),
        }
    }

    /// Final size: total number of adopters including the root.
    pub fn final_size(&self) -> usize {
        self.events.len()
    }

    /// Number of adopters whose event time is strictly less than `t`.
    pub fn size_at(&self, t: f64) -> usize {
        self.events.partition_point(|e| e.time < t)
    }

    /// Number of adopters whose event time is at most `t` — the size of the
    /// observed prefix `C_i(t)`. Observation is *inclusive* of the window
    /// boundary: an event landing exactly at `t == window` belongs to the
    /// model input, not to the prediction target.
    pub fn observed_size(&self, t: f64) -> usize {
        self.events.partition_point(|e| e.time <= t)
    }

    /// The paper's prediction target `ΔS_i` for an observation window `t`:
    /// the number of adoptions arriving strictly after `t` (up to the
    /// tracking horizon the dataset was generated with). Exclusive
    /// counterpart of the inclusive [`Cascade::observed_size`], so every
    /// event is counted exactly once between input and label.
    pub fn increment_size(&self, t: f64) -> usize {
        self.final_size() - self.observed_size(t)
    }

    /// The cascade as observed within `[0, window]` — the model input
    /// `C_i(t)` of Definition 1 (boundary events included).
    pub fn observe(&self, window: f64) -> ObservedCascade<'_> {
        let n = self.observed_size(window);
        ObservedCascade {
            cascade: self,
            n: n.max(1), // the root is always visible
        }
    }

    /// Appends one adoption event, validating it against the cascade's
    /// invariants (non-negative sorted time, in-range backward parent) —
    /// the single-event growth step behind live `/observe` ingestion.
    pub fn try_append(&mut self, event: Event) -> Result<(), crate::validate::CascadeFault> {
        // `events` is non-empty by construction (try_new rejects empty
        // lists), so the appended event always has a predecessor.
        crate::validate::check_event(self.events.last(), &event, self.events.len())?;
        self.events.push(event);
        Ok(())
    }
}

/// A prefix view of a cascade restricted to an observation window.
///
/// Node `i` of the local graph is the `i`-th adopter (adoption order), so
/// node 0 is always the initiator — matching Fig. 3's row/column layout.
#[derive(Debug, Clone, Copy)]
pub struct ObservedCascade<'a> {
    cascade: &'a Cascade,
    n: usize,
}

impl ObservedCascade<'_> {
    /// Number of observed adopters (≥ 1).
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The observed events.
    pub fn events(&self) -> &[Event] {
        &self.cascade.events[..self.n]
    }

    /// Event times of the observed adoptions (seconds since the root post).
    pub fn times(&self) -> impl Iterator<Item = f64> + '_ {
        self.events().iter().map(|e| e.time)
    }

    /// The observed cascade as a directed graph over local indices
    /// (parent → child edges, unit weights).
    pub fn graph(&self) -> DiGraph {
        let mut g = DiGraph::new(self.n);
        for (i, e) in self.events().iter().enumerate().skip(1) {
            // try_new validated that every non-root event has a parent.
            if let Some(p) = e.parent {
                g.add_edge(p, i, 1.0);
            }
        }
        g
    }

    /// Root-to-node diffusion paths for every observed adopter, as local
    /// indices (DeepHawkes represents a cascade as this path set).
    pub fn diffusion_paths(&self) -> Vec<Vec<usize>> {
        let events = self.events();
        (0..self.n)
            .map(|mut i| {
                let mut path = vec![i];
                while let Some(p) = events[i].parent {
                    path.push(p);
                    i = p;
                }
                path.reverse();
                path
            })
            .collect()
    }

    /// Global user ids of the observed adopters, in adoption order.
    pub fn users(&self) -> Vec<u64> {
        self.events().iter().map(|e| e.user).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 1 / Fig. 3 cascade: V0→V1 (t1), V0→V2 (t2), V1→V3 (t3),
    /// V1→V4 (t4), V3→V5 (t5).
    pub(crate) fn fig1_cascade() -> Cascade {
        Cascade::new(
            42,
            1000.0,
            vec![
                Event { user: 100, parent: None, time: 0.0 },
                Event { user: 101, parent: Some(0), time: 10.0 },
                Event { user: 102, parent: Some(0), time: 20.0 },
                Event { user: 103, parent: Some(1), time: 30.0 },
                Event { user: 104, parent: Some(1), time: 40.0 },
                Event { user: 105, parent: Some(3), time: 50.0 },
            ],
        )
    }

    #[test]
    fn sizes_and_increments() {
        let c = fig1_cascade();
        assert_eq!(c.final_size(), 6);
        assert_eq!(c.size_at(25.0), 3);
        assert_eq!(c.observed_size(25.0), 3);
        assert_eq!(c.increment_size(25.0), 3);
        assert_eq!(c.increment_size(1e9), 0);
    }

    /// Boundary pin: an event at exactly `t == window` is observed
    /// (inclusive), not predicted (exclusive increment) — and the two
    /// accessors always partition the event list without overlap or gap.
    #[test]
    fn window_boundary_is_inclusive_for_observation_exclusive_for_increment() {
        let c = fig1_cascade();
        let eps = 1e-9;
        // fig1 has an event at exactly t = 20.0.
        assert_eq!(c.observe(20.0).num_nodes(), 3, "t == window is observed");
        assert_eq!(c.increment_size(20.0), 3, "t == window is not predicted");
        assert_eq!(c.observe(20.0 - eps).num_nodes(), 2);
        assert_eq!(c.increment_size(20.0 - eps), 4);
        assert_eq!(c.observe(20.0 + eps).num_nodes(), 3);
        assert_eq!(c.increment_size(20.0 + eps), 3);
        for w in [0.0, 10.0, 20.0, 25.0, 50.0, 50.0 - eps, 50.0 + eps] {
            assert_eq!(
                c.observed_size(w) + c.increment_size(w),
                c.final_size(),
                "observation + increment must cover every event exactly once (w = {w})"
            );
            assert_eq!(c.observe(w).num_nodes(), c.observed_size(w).max(1));
        }
    }

    #[test]
    fn try_append_grows_and_validates() {
        let mut c = fig1_cascade();
        c.try_append(Event { user: 106, parent: Some(2), time: 55.0 })
            .expect("valid follow-on event");
        assert_eq!(c.final_size(), 7);
        assert_eq!(c.increment_size(50.0), 1);
        // Time must stay sorted…
        assert!(c.try_append(Event { user: 107, parent: Some(0), time: 1.0 }).is_err());
        // …parents must point backward…
        assert!(c.try_append(Event { user: 107, parent: Some(99), time: 60.0 }).is_err());
        // …and non-root events need a parent.
        assert!(c.try_append(Event { user: 107, parent: None, time: 60.0 }).is_err());
        assert_eq!(c.final_size(), 7, "rejected events are not appended");
    }

    #[test]
    fn observe_clamps_to_root() {
        let c = fig1_cascade();
        let o = c.observe(0.0);
        assert_eq!(o.num_nodes(), 1, "root is always observed");
    }

    #[test]
    fn observed_graph_matches_paper_fig1() {
        let c = fig1_cascade();
        let o = c.observe(60.0);
        let g = o.graph();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.leaves(), vec![2, 4, 5]);
        assert!(g.is_dag());
    }

    #[test]
    fn diffusion_paths_reach_root() {
        let c = fig1_cascade();
        let paths = c.observe(60.0).diffusion_paths();
        assert_eq!(paths.len(), 6);
        assert_eq!(paths[0], vec![0]);
        assert_eq!(paths[5], vec![0, 1, 3, 5]);
        assert!(paths.iter().all(|p| p[0] == 0));
    }

    #[test]
    #[should_panic(expected = "references later parent")]
    fn new_rejects_forward_parent() {
        let _ = Cascade::new(
            1,
            0.0,
            vec![
                Event { user: 0, parent: None, time: 0.0 },
                Event { user: 1, parent: Some(2), time: 1.0 },
                Event { user: 2, parent: Some(0), time: 2.0 },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "not time-sorted")]
    fn new_rejects_unsorted_times() {
        let _ = Cascade::new(
            1,
            0.0,
            vec![
                Event { user: 0, parent: None, time: 0.0 },
                Event { user: 1, parent: Some(0), time: 5.0 },
                Event { user: 2, parent: Some(0), time: 2.0 },
            ],
        );
    }
}
