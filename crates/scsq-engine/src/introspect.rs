//! Engine self-measurement: structured snapshots of a query's own
//! execution statistics.
//!
//! The paper's central idea is that the measurement infrastructure *is*
//! the query system — SCSQ measures its communication performance by
//! running stream queries over its own traffic (§1: "the system is used
//! for measuring its own communication performance"). This module is the
//! engine-side half of that idea: [`MetricsSnapshot`] turns the
//! counters every run already collects
//! ([`QueryStats`](crate::measure::QueryStats)) into a stable,
//! serialisable record that the benchmark harnesses write next to their
//! figure data (`--metrics out.json`), and that
//! [`scsq_core::metrics`](../../scsq_core/metrics/index.html)
//! aggregates across runs.
//!
//! The query-language-side half is the `metrics()` source operator (see
//! [`crate::ops::InputKind::Metrics`]), which exposes the same
//! measurements *as a stream* queryable from SCSQL while the query runs.
//!
//! No external serialisation crate is used anywhere in this workspace;
//! [`MetricsSnapshot::to_json`] renders by hand like the figure bins do.

use crate::measure::QueryResult;
use std::fmt::Write;

/// Per-channel metrics extracted from one query execution.
///
/// One record per stream channel, in channel-creation order — the same
/// order as [`crate::measure::QueryStats::channels`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelMetrics {
    /// Producing node, rendered (`"bg:1"`).
    pub src: String,
    /// Subscribing node, rendered (`"bg:0"`).
    pub dst: String,
    /// `"mpi"`, `"tcp"` or `"udp"`.
    pub carrier: String,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Payload bytes enqueued by the producer (≥ `bytes`).
    pub bytes_enqueued: u64,
    /// Send buffers transmitted.
    pub buffers_sent: u64,
    /// Buffers dropped in flight (UDP only).
    pub buffers_dropped: u64,
    /// Elements lost to dropped buffers.
    pub elements_lost: u64,
    /// Send-queue high-water mark, in trains.
    pub queue_peak_trains: u64,
    /// Mean delivered bandwidth in bytes/s over the channel's active
    /// window (first send to last delivery); `0.0` for idle channels.
    pub bandwidth: f64,
    /// Elements with a closed ingress→delivery latency measurement
    /// (0 unless the run tracked latency: a `latency(p)` observer
    /// watched the channel or `RunOptions::profile` was set).
    pub lat_count: u64,
    /// Median ingress→delivery latency in simulated nanoseconds
    /// (log-bucket upper bound; 0 when untracked).
    pub lat_p50_ns: u64,
    /// 95th-percentile latency in simulated nanoseconds.
    pub lat_p95_ns: u64,
    /// 99th-percentile latency in simulated nanoseconds.
    pub lat_p99_ns: u64,
    /// Maximum observed latency in simulated nanoseconds (exact, not
    /// bucketed).
    pub lat_max_ns: u64,
}

/// A structured, serialisable summary of one query execution.
///
/// Everything here is derived from the [`QueryResult`] — taking a
/// snapshot costs a few allocations and never perturbs a measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Query completion time in seconds.
    pub total_time_s: f64,
    /// Result values delivered to the client.
    pub values: u64,
    /// Simulator events executed.
    pub events: u64,
    /// Peak pending-event population of the event kernel.
    pub events_pending_hwm: u64,
    /// Running processes (including the client's).
    pub rps: usize,
    /// Coalescer digests recognised.
    pub coalesce_digests: u64,
    /// Coalescer jumps taken.
    pub coalesce_jumps: u64,
    /// Events skipped analytically by the coalescer.
    pub coalesce_events_skipped: u64,
    /// Per-channel metrics.
    pub channels: Vec<ChannelMetrics>,
}

impl MetricsSnapshot {
    /// Extracts a snapshot from a finished query.
    pub fn from_result(r: &QueryResult) -> MetricsSnapshot {
        let stats = r.stats();
        let channels = stats
            .channels
            .iter()
            .map(|c| {
                let active = c
                    .first_send
                    .map(|t0| c.last_delivery.since(t0).as_secs_f64())
                    .unwrap_or(0.0);
                ChannelMetrics {
                    src: c.src.to_string(),
                    dst: c.dst.to_string(),
                    carrier: c.carrier.clone(),
                    bytes: c.bytes,
                    bytes_enqueued: c.bytes_enqueued,
                    buffers_sent: c.buffers_sent,
                    buffers_dropped: c.buffers_dropped,
                    elements_lost: c.elements_lost,
                    queue_peak_trains: c.queue_peak_trains,
                    bandwidth: if active > 0.0 {
                        c.bytes as f64 / active
                    } else {
                        0.0
                    },
                    lat_count: c.latency.count(),
                    lat_p50_ns: c.latency.quantile(0.50),
                    lat_p95_ns: c.latency.quantile(0.95),
                    lat_p99_ns: c.latency.quantile(0.99),
                    lat_max_ns: c.latency.max(),
                }
            })
            .collect();
        MetricsSnapshot {
            total_time_s: r.total_time().as_secs_f64(),
            values: r.values().len() as u64,
            events: stats.events,
            events_pending_hwm: stats.events_pending_hwm,
            rps: stats.rps,
            coalesce_digests: stats.coalesce.digests,
            coalesce_jumps: stats.coalesce.jumps,
            coalesce_events_skipped: stats.coalesce.events_skipped,
            channels,
        }
    }

    /// Total payload bytes delivered across all channels.
    pub fn total_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.bytes).sum()
    }

    /// Renders the snapshot as a JSON object (hand-formatted; the
    /// workspace deliberately has no serialisation dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"total_time_s\": {},", self.total_time_s);
        let _ = writeln!(out, "  \"values\": {},", self.values);
        let _ = writeln!(out, "  \"events\": {},", self.events);
        let _ = writeln!(
            out,
            "  \"events_pending_hwm\": {},",
            self.events_pending_hwm
        );
        let _ = writeln!(out, "  \"rps\": {},", self.rps);
        let _ = writeln!(out, "  \"coalesce_digests\": {},", self.coalesce_digests);
        let _ = writeln!(out, "  \"coalesce_jumps\": {},", self.coalesce_jumps);
        let _ = writeln!(
            out,
            "  \"coalesce_events_skipped\": {},",
            self.coalesce_events_skipped
        );
        let _ = writeln!(out, "  \"total_bytes\": {},", self.total_bytes());
        let _ = writeln!(out, "  \"channels\": [");
        for (i, c) in self.channels.iter().enumerate() {
            let comma = if i + 1 < self.channels.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"src\": \"{}\", \"dst\": \"{}\", \"carrier\": \"{}\", \
                 \"bytes\": {}, \"bytes_enqueued\": {}, \"buffers_sent\": {}, \
                 \"buffers_dropped\": {}, \"elements_lost\": {}, \
                 \"queue_peak_trains\": {}, \"bandwidth\": {}, \
                 \"lat_count\": {}, \"lat_p50_ns\": {}, \"lat_p95_ns\": {}, \
                 \"lat_p99_ns\": {}, \"lat_max_ns\": {}}}{comma}",
                c.src,
                c.dst,
                c.carrier,
                c.bytes,
                c.bytes_enqueued,
                c.buffers_sent,
                c.buffers_dropped,
                c.elements_lost,
                c.queue_peak_trains,
                c.bandwidth,
                c.lat_count,
                c.lat_p50_ns,
                c.lat_p95_ns,
                c.lat_p99_ns,
                c.lat_max_ns,
            );
        }
        let _ = writeln!(out, "  ]");
        out.push('}');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use crate::placement::PlacementPolicy;
    use crate::runtime::{run_graph, RunOptions};
    use scsq_cluster::Environment;
    use scsq_ql::{parse_statement, Catalog};

    fn run(src: &str) -> QueryResult {
        let mut env = Environment::lofar();
        let catalog = Catalog::new();
        let options = RunOptions::default();
        let stmt = parse_statement(src).expect("parses");
        let graph = QueryBuilder::new(&mut env, &catalog, PlacementPolicy::Naive, &options)
            .build(&stmt, &[])
            .expect("builds");
        run_graph(env, &graph, &options).expect("runs")
    }

    #[test]
    fn snapshot_mirrors_the_query_stats() {
        let r = run("select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(100000,10),'bg',1);");
        let snap = MetricsSnapshot::from_result(&r);
        assert_eq!(snap.values, 1);
        assert_eq!(snap.events, r.stats().events);
        assert_eq!(snap.events_pending_hwm, r.stats().events_pending_hwm);
        assert_eq!(snap.channels.len(), r.stats().channels.len());
        let mpi = snap.channels.iter().find(|c| c.carrier == "mpi").unwrap();
        assert_eq!(mpi.bytes, 10 * 100_009);
        assert!(mpi.bandwidth > 0.0);
    }

    #[test]
    fn json_is_structurally_sound() {
        let r = run("select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(1000,2),'bg',1);");
        let json = MetricsSnapshot::from_result(&r).to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("]\n}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"events_pending_hwm\""));
        assert!(json.contains("\"carrier\": \"mpi\""));
    }
}
