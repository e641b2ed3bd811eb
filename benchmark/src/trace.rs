//! The benchmark's own span recorder.
//!
//! Spans are recorded in the benchmark's code, around each call into
//! the program under test (spans *inside* the program are a later
//! change). They are kept in memory and written out when the run ends.
//! A disabled tracer costs one branch per call, and every end-to-end
//! number is measured with it disabled.
//!
//! Self time of a span is its duration minus the part its children
//! cover; the self times under a root must add up to the root's wall
//! (`closure_error_share`), which guards the nesting arithmetic.

use crate::json::Json;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called (`prepare`, `run`, `send`, …).
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch (0 while open).
    pub end: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<u32>,
    /// Spans of one request (query or statement) share this id.
    pub request_id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Handle to an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<u32>);

/// An in-memory span recorder with an explicit open-span stack.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder that records (`true`) or ignores (`false`) spans.
    /// `epoch` is shared by all tracers of one run so their spans line
    /// up on one time axis.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder that ignores everything.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request_id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent: self.stack.last().copied(),
            request_id,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`].
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a bug in the caller).
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end = self.now();
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (e.g. a second connection's),
    /// re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time (ns) of every span: duration minus its direct children's
/// durations. Children are sequential within a parent (one thread, one
/// stack), so their durations never overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p as usize] = selfs[p as usize].saturating_sub(s.dur());
        }
    }
    selfs
}

/// Index of each span's root.
fn roots_of(spans: &[Span]) -> Vec<u32> {
    let mut roots: Vec<u32> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        // Parents are always recorded before their children.
        roots.push(match s.parent {
            Some(p) => roots[p as usize],
            None => i as u32,
        });
    }
    roots
}

/// The largest relative gap, over all roots, between a root's wall and
/// the sum of the self times recorded under it. 0 when every child
/// lies inside its parent; the benchmark requires ≤ 0.10.
pub fn closure_error_share(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let roots = roots_of(spans);
    let mut sums = vec![0u64; spans.len()];
    for (i, r) in roots.iter().enumerate() {
        sums[*r as usize] += selfs[i];
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.dur() > 0)
        .map(|(i, s)| (sums[i] as f64 - s.dur() as f64).abs() / s.dur() as f64)
        .fold(0.0, f64::max)
}

/// Total self time per span name, in seconds, sorted by name.
pub fn self_seconds_by_name(spans: &[Span]) -> Vec<(&'static str, f64, u64)> {
    let selfs = self_times(spans);
    let mut by: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
    for (s, own) in spans.iter().zip(&selfs) {
        let e = by.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    by.into_iter()
        .map(|(name, (ns, count))| (name, ns as f64 / 1e9, count))
        .collect()
}

/// The trace file: every span plus the per-name self-time table.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let rows = spans
        .iter()
        .zip(&selfs)
        .map(|(s, own)| {
            Json::obj()
                .with("name", Json::Str(s.name.to_string()))
                .with("start", Json::Int(s.start as i64))
                .with("end", Json::Int(s.end as i64))
                .with(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(i64::from(p))),
                )
                .with("request_id", Json::Int(s.request_id as i64))
                .with("self_ns", Json::Int(*own as i64))
        })
        .collect();
    let table = self_seconds_by_name(spans)
        .into_iter()
        .map(|(name, secs, count)| {
            Json::obj()
                .with("name", Json::Str(name.to_string()))
                .with("self_s", Json::Num(secs))
                .with("spans", Json::Int(count as i64))
        })
        .collect();
    Json::obj()
        .with("workload", Json::Str(workload.to_string()))
        .with("time_unit", Json::Str("ns since run start".to_string()))
        .with("closure_error_share", Json::Num(closure_error_share(spans)))
        .with("self_time_by_name", Json::Arr(table))
        .with("spans", Json::Arr(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("query", 10, 60, Some(0)),
            span("run", 15, 55, Some(1)),
            span("query", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 40, 30]);
        assert_eq!(closure_error_share(&spans), 0.0);
        let by = self_seconds_by_name(&spans);
        assert_eq!(by[1].0, "query");
        assert_eq!(by[1].2, 2);
        assert!((by[1].1 - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn closure_flags_children_that_overrun_their_root() {
        // A child longer than its root: self saturates at 0 and the
        // sum under the root is 150 against a wall of 100.
        let spans = vec![span("root", 0, 100, None), span("child", 0, 150, Some(0))];
        assert!((closure_error_share(&spans) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_by_stack_and_is_free_when_off() {
        let mut t = Tracer::new(true, Instant::now());
        let a = t.begin("a", 7);
        let b = t.begin("b", 7);
        t.end(b);
        let c = t.begin("c", 8);
        t.end(c);
        t.end(a);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[2].request_id, 8);
        assert!(s[0].end >= s[2].end);
        assert!(closure_error_share(s) <= 1e-9);

        let mut off = Tracer::off();
        let x = off.begin("x", 1);
        off.end(x);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Tracer::new(true, Instant::now());
        let r = a.begin("root", 0);
        a.end(r);
        let mut b = Tracer::new(true, Instant::now());
        let r = b.begin("root", 1);
        let c = b.begin("child", 1);
        b.end(c);
        b.end(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].parent, None);
    }
}
