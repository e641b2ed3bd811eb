//! Simulated-timeline spans and their Chrome trace export.
//!
//! A profiled run (`RunOptions::profile` in the engine) records
//! [`Span`]s — intervals on the *simulated* timeline: channel
//! transmits, deliveries, columnar folds, coalescer jumps — into its
//! own report, keeping the first [`SPAN_CAPACITY`] and counting the
//! rest as dropped. [`chrome_trace_json`] exports them in Chrome
//! trace-event format (`chrome://tracing`, Perfetto). Nothing here is
//! global: each run owns its spans, so parallel sweep workers and
//! served sessions never see each other's.

use std::fmt::Write as _;

/// Spans a run retains; later ones are counted as dropped.
pub const SPAN_CAPACITY: usize = 65_536;

/// One interval on the simulated timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Short static label ("sp", "transmit", "coalesce-jump", ...).
    pub name: &'static str,
    /// Category for trace-viewer filtering ("rp", "channel", ...).
    pub cat: &'static str,
    /// Virtual thread lane the span renders on (e.g. one per channel).
    pub tid: u64,
    /// Start, in simulated nanoseconds.
    pub ts_ns: u64,
    /// Duration, in simulated nanoseconds.
    pub dur_ns: u64,
}

/// Renders spans as a Chrome trace-event JSON document.
///
/// Every span becomes a matched `B`/`E` pair on its `tid` lane, with
/// `ts` in microseconds of simulated time. The event list is globally
/// stable-sorted by `ts` (ties keep per-lane order: a span's end
/// before the next span's begin, a begin before its own end), and
/// spans that overlap a predecessor on the same lane are clamped
/// forward so each lane's begin/end events nest properly — trace
/// viewers require serialized activity per thread lane.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    // Sort spans per lane and clamp overlaps so B/E pairs nest.
    let mut by_lane: Vec<Span> = spans.to_vec();
    by_lane.sort_by_key(|s| (s.tid, s.ts_ns, s.dur_ns));
    let mut last_end: Vec<(u64, u64)> = Vec::new(); // (tid, end_ns)
                                                    // (ts_ns, is_begin, name, cat, tid)
    let mut events: Vec<(u64, bool, &'static str, &'static str, u64)> = Vec::new();
    for s in &by_lane {
        let end_slot = match last_end.iter_mut().find(|(tid, _)| *tid == s.tid) {
            Some(slot) => slot,
            None => {
                last_end.push((s.tid, 0));
                last_end.last_mut().expect("just pushed")
            }
        };
        let start = s.ts_ns.max(end_slot.1);
        let end = start + s.dur_ns.saturating_sub(start - s.ts_ns);
        let end = end.max(start);
        end_slot.1 = end;
        events.push((start, true, s.name, s.cat, s.tid));
        events.push((end, false, s.name, s.cat, s.tid));
    }
    // Global stable sort by ts only: per-lane generation order already
    // has each span's end before the next span's begin and each begin
    // before its own end, so ties keep both properties — including
    // zero-duration spans, whose B must still precede their E.
    events.sort_by_key(|&(ts, _, _, _, _)| ts);
    let mut out = String::with_capacity(events.len() * 80 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, (ts_ns, is_begin, name, cat, tid)) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = if *is_begin { 'B' } else { 'E' };
        let _ = write!(
            out,
            "\n{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\
             \"ts\":{}.{:03},\"pid\":1,\"tid\":{tid}}}",
            ts_ns / 1_000,
            ts_ns % 1_000,
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: u64, ts: u64, dur: u64) -> Span {
        Span {
            name: "t",
            cat: "test",
            tid,
            ts_ns: ts,
            dur_ns: dur,
        }
    }

    #[test]
    fn chrome_trace_has_monotone_ts_and_matched_pairs() {
        let spans = [span(1, 100, 50), span(2, 120, 10), span(1, 200, 0)];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("}"));
        let begins = json.matches("\"ph\":\"B\"").count();
        let ends = json.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, 3);
        assert_eq!(ends, 3);
    }

    #[test]
    fn zero_duration_span_still_begins_before_it_ends() {
        // A zero-duration span emits B and E at the same ts; the begin
        // must come first in file order or viewers see an orphaned end.
        let json = chrome_trace_json(&[span(3, 500, 0)]);
        let b = json.find("\"ph\":\"B\"").expect("has a begin");
        let e = json.find("\"ph\":\"E\"").expect("has an end");
        assert!(b < e, "begin precedes end: {json}");
    }

    #[test]
    fn overlapping_spans_on_one_lane_are_clamped_forward() {
        let spans = [span(7, 0, 100), span(7, 50, 100)];
        let json = chrome_trace_json(&spans);
        // Second span starts where the first ends: 100ns = 0.100us.
        assert!(json.contains("\"ts\":0.100"), "{json}");
        assert!(json.contains("\"ts\":0.150"), "{json}");
    }
}
