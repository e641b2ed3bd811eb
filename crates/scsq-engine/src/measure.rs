//! Query results and the bandwidth bookkeeping behind the paper's
//! figures.
//!
//! §3: "The bandwidth is computed by measuring the total time to
//! communicate a finite stream of 3MB arrays between stream processes."
//! [`QueryResult`] therefore reports the query completion time along with
//! per-channel transfer statistics, from which the figure harnesses
//! compute exactly that quotient. [`QueryResult::metrics_json`] renders
//! the same record as the per-run JSON that the server's METRICS frame
//! carries.

use scsq_cluster::{ClusterName, NodeId};
use scsq_ql::Value;
use scsq_sim::{SimDur, SimTime};
use std::fmt::Write;

/// One stream channel's transfer summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelReport {
    /// Producing node.
    pub src: NodeId,
    /// Subscribing node.
    pub dst: NodeId,
    /// `"mpi"`, `"tcp"` or `"udp"`.
    pub carrier: String,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Payload bytes the producer enqueued (≥ `bytes`; the difference
    /// is in-flight loss, UDP only).
    pub bytes_enqueued: u64,
    /// Send buffers transmitted.
    pub buffers_sent: u64,
    /// Buffers (UDP datagrams) dropped in flight.
    pub buffers_dropped: u64,
    /// Elements lost to dropped datagrams.
    pub elements_lost: u64,
    /// High-water mark of the send queue, in queue nodes — a train of
    /// identical elements is one, and so is a whole pack or column run
    /// (how far the producer ran ahead of the carrier).
    pub queue_peak_trains: u64,
    /// When the first buffer began marshaling.
    pub first_send: Option<SimTime>,
    /// When the last buffer finished de-marshaling.
    pub last_delivery: SimTime,
    /// Ingress→delivery latency distribution of the channel's elements,
    /// in simulated nanoseconds. Empty unless the channel was tracked
    /// (a `latency(p)` observer watched it, or the run was profiled:
    /// `RunOptions::profile`).
    pub latency: scsq_sim::LatencyHistogram,
}

/// One running process's execution monitor (§2.3: an RP is responsible
/// for "monitoring the execution of its SQEP").
#[derive(Debug, Clone, PartialEq)]
pub struct RpReport {
    /// Where the RP ran.
    pub node: NodeId,
    /// Elements that entered the RP's SQEP (received or self-generated).
    pub elements_in: u64,
    /// Elements the SQEP emitted downstream (or to the client log).
    pub elements_out: u64,
    /// CPU busy time accumulated on the RP's node over the query (for
    /// Linux nodes, shared by all co-located RPs).
    pub node_cpu_busy: SimDur,
    /// Whether this is the client manager's RP.
    pub is_client: bool,
}

/// Aggregate statistics of one query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStats {
    /// All stream channels of the query.
    pub channels: Vec<ChannelReport>,
    /// Per-RP execution monitors, in stream-process creation order (the
    /// client's RP last).
    pub rp_reports: Vec<RpReport>,
    /// Simulator events executed (including ones skipped analytically by
    /// the coalescer, which counts them as executed).
    pub events: u64,
    /// Peak concurrent pending-event population of the simulator queue —
    /// the event kernel's memory high-water mark for this query.
    pub events_pending_hwm: u64,
    /// Number of running processes (including the client's).
    pub rps: usize,
    /// What the train coalescer did (all zero when it was disabled).
    pub coalesce: scsq_sim::CoalesceStats,
    /// Delivered batches absorbed or relayed by the columnar fast path
    /// (0 when `RunOptions::columnar` was off or nothing qualified).
    pub columnar_batches: u64,
    /// Value-run → column decompositions performed at delivery. Zero
    /// whenever `RunOptions::columnar` is off: the runtime must not
    /// even speculatively transpose when the fast path is disabled.
    pub columnar_transposes: u64,
    /// Service-jitter factors drawn from the environment's RNG stream
    /// over the run. Part of the determinism contract: any execution
    /// strategy (per-element, columnar, coalesced) must consume
    /// exactly as many draws, in the same order, or jittered replays
    /// diverge.
    pub jitter_draws: u64,
    /// The explain-analyze profile (`Some` iff `RunOptions::profile`;
    /// boxed so the rare report does not widen every `QueryResult`).
    pub profile: Option<Box<crate::profile::ProfileReport>>,
}

/// The outcome of executing one continuous query to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    values: Vec<Value>,
    first_result: Option<SimTime>,
    finished: SimTime,
    stats: QueryStats,
}

impl QueryResult {
    /// Assembles a result (used by the runtime).
    pub fn new(
        values: Vec<Value>,
        first_result: Option<SimTime>,
        finished: SimTime,
        stats: QueryStats,
    ) -> QueryResult {
        QueryResult {
            values,
            first_result,
            finished,
            stats,
        }
    }

    /// When the first result value reached the client manager (`None`
    /// for empty result streams) — the query's result latency, as
    /// opposed to its completion time.
    pub fn first_result(&self) -> Option<SimTime> {
        self.first_result
    }

    /// The values delivered to the client manager, in arrival order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// When the query completed (client received end-of-stream).
    pub fn finished(&self) -> SimTime {
        self.finished
    }

    /// Total query execution time.
    pub fn total_time(&self) -> SimDur {
        self.finished.since(SimTime::ZERO)
    }

    /// The per-channel statistics.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Payload bytes that crossed from `src` cluster to `dst` cluster.
    pub fn bytes_between(&self, src: ClusterName, dst: ClusterName) -> u64 {
        self.stats
            .channels
            .iter()
            .filter(|c| c.src.cluster == src && c.dst.cluster == dst)
            .map(|c| c.bytes)
            .sum()
    }

    /// Mean bandwidth (bytes/s) of all traffic from `src` cluster to
    /// `dst` cluster over the whole query time — the paper's measurement
    /// methodology (the query time is dominated by the streaming phase).
    pub fn bandwidth_between(&self, src: ClusterName, dst: ClusterName) -> f64 {
        let bytes = self.bytes_between(src, dst);
        let t = self.total_time().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            bytes as f64 / t
        }
    }

    /// Same as [`QueryResult::bandwidth_between`], in megabits/s (the
    /// unit of the paper's Figure 15 axis).
    pub fn mbps_between(&self, src: ClusterName, dst: ClusterName) -> f64 {
        self.bandwidth_between(src, dst) * 8.0 / 1e6
    }

    /// Payload bytes delivered *into* a specific node.
    pub fn bytes_into(&self, node: NodeId) -> u64 {
        self.stats
            .channels
            .iter()
            .filter(|c| c.dst == node)
            .map(|c| c.bytes)
            .sum()
    }

    /// Mean input bandwidth (bytes/s) at a node over the query time —
    /// the Figure 6/8 measurement ("total streaming input bandwidth at
    /// node c").
    pub fn bandwidth_into(&self, node: NodeId) -> f64 {
        let t = self.total_time().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.bytes_into(node) as f64 / t
        }
    }

    /// Renders the run as the per-run metrics JSON object
    /// (hand-formatted: the workspace has no serialisation dependency).
    /// Per channel, `bandwidth` is the delivered bytes over the
    /// channel's active window (first send to last delivery), `0.0` for
    /// an idle channel, and the `lat_*` keys summarise its latency
    /// histogram (all 0 when the channel was not tracked).
    pub fn metrics_json(&self) -> String {
        let s = &self.stats;
        let total_bytes: u64 = s.channels.iter().map(|c| c.bytes).sum();
        let mut out = format!(
            "{{\n  \"total_time_s\": {},\n  \"values\": {},\n  \"events\": {},\n  \
             \"events_pending_hwm\": {},\n  \"rps\": {},\n  \"coalesce_digests\": {},\n  \
             \"coalesce_jumps\": {},\n  \"coalesce_events_skipped\": {},\n  \
             \"total_bytes\": {total_bytes},\n  \"channels\": [\n",
            self.total_time().as_secs_f64(),
            self.values.len(),
            s.events,
            s.events_pending_hwm,
            s.rps,
            s.coalesce.digests,
            s.coalesce.jumps,
            s.coalesce.events_skipped,
        );
        for (i, c) in s.channels.iter().enumerate() {
            let active = c
                .first_send
                .map_or(0.0, |t0| c.last_delivery.since(t0).as_secs_f64());
            let bandwidth = if active > 0.0 {
                c.bytes as f64 / active
            } else {
                0.0
            };
            let comma = if i + 1 < s.channels.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"src\": \"{}\", \"dst\": \"{}\", \"carrier\": \"{}\", \
                 \"bytes\": {}, \"bytes_enqueued\": {}, \"buffers_sent\": {}, \
                 \"buffers_dropped\": {}, \"elements_lost\": {}, \
                 \"queue_peak_trains\": {}, \"bandwidth\": {bandwidth}, \
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
                c.latency.count(),
                c.latency.quantile(0.50),
                c.latency.quantile(0.95),
                c.latency.quantile(0.99),
                c.latency.max(),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(src: NodeId, dst: NodeId, bytes: u64) -> ChannelReport {
        ChannelReport {
            src,
            dst,
            carrier: "tcp".to_string(),
            bytes,
            bytes_enqueued: bytes,
            buffers_sent: 1,
            buffers_dropped: 0,
            elements_lost: 0,
            queue_peak_trains: 1,
            first_send: Some(SimTime::ZERO),
            last_delivery: SimTime::from_secs(1),
            latency: scsq_sim::LatencyHistogram::default(),
        }
    }

    fn sample() -> QueryResult {
        QueryResult::new(
            vec![Value::Integer(100)],
            Some(SimTime::from_secs(2)),
            SimTime::from_secs(2),
            QueryStats {
                channels: vec![
                    report(NodeId::be(0), NodeId::bg(0), 6_000_000),
                    report(NodeId::be(1), NodeId::bg(0), 2_000_000),
                    report(NodeId::bg(0), NodeId::fe(0), 100),
                ],
                rp_reports: vec![RpReport {
                    node: NodeId::bg(0),
                    elements_in: 3,
                    elements_out: 1,
                    node_cpu_busy: SimDur::from_millis(5),
                    is_client: false,
                }],
                events: 10,
                events_pending_hwm: 4,
                rps: 4,
                coalesce: scsq_sim::CoalesceStats::default(),
                columnar_batches: 0,
                columnar_transposes: 0,
                jitter_draws: 0,
                profile: None,
            },
        )
    }

    #[test]
    fn cross_cluster_accounting() {
        let r = sample();
        assert_eq!(
            r.bytes_between(ClusterName::BackEnd, ClusterName::BlueGene),
            8_000_000
        );
        assert_eq!(
            r.bytes_between(ClusterName::BlueGene, ClusterName::FrontEnd),
            100
        );
        // 8 MB over 2 s = 4 MB/s = 32 Mbps.
        assert!(
            (r.bandwidth_between(ClusterName::BackEnd, ClusterName::BlueGene) - 4e6).abs() < 1.0
        );
        assert!((r.mbps_between(ClusterName::BackEnd, ClusterName::BlueGene) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn per_node_accounting() {
        let r = sample();
        assert_eq!(r.bytes_into(NodeId::bg(0)), 8_000_000);
        assert!((r.bandwidth_into(NodeId::bg(0)) - 4e6).abs() < 1.0);
        assert_eq!(r.bytes_into(NodeId::bg(5)), 0);
    }

    #[test]
    fn values_and_time_are_exposed() {
        let r = sample();
        assert_eq!(r.values(), &[Value::Integer(100)]);
        assert_eq!(r.total_time(), SimDur::from_secs(2));
        assert_eq!(r.stats().rps, 4);
    }
}
