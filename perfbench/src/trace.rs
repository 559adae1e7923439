//! In-memory spans for the traced run: each span has a name, a start and an
//! end on one monotonic clock, the span that caused it, and the id of the
//! request (or fit) it belongs to. Spans are written out once, at exit.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let parent = self.open.last().copied();
        let start_ns = self.at(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let end_ns = self.at(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span timed elsewhere (another thread, or a hook that only
    /// learns the interval afterwards).
    pub fn push(
        &mut self,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Writes every span, with its self time, as one JSON document.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = String::with_capacity(self.spans.len() * 128);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children (parallel workers) are
/// counted once; child time outside the parent's interval is ignored.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|&(a, b)| b > a)
                .collect();
            s.dur_ns() - covered(clipped)
        })
        .collect()
}

/// Length of the union of half-open intervals.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 30, Some(0)),  // 1
            span(20, 50, Some(0)),  // 2: overlaps 1 → union [10, 50)
            span(90, 130, Some(0)), // 3: sticks out → clipped to [90, 100)
            span(12, 18, Some(1)),  // 4: grandchild, counts only for 1
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 40, 6]);
    }

    #[test]
    fn disjoint_and_nested_children() {
        let spans = vec![
            span(0, 10, None),
            span(1, 2, Some(0)),
            span(4, 7, Some(0)),
            span(5, 6, Some(0)), // inside the previous child
        ];
        assert_eq!(self_times(&spans)[0], 10 - 1 - 3);
    }

    #[test]
    fn tracer_nests_open_spans() {
        let mut t = Tracer::new();
        let outer = t.open("outer", 7);
        assert_eq!(t.span("inner", 7, || 42), 42);
        t.close(outer);
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
