//! A process-wide, low-overhead metrics hub aggregating query
//! executions.
//!
//! The paper's SCSQ measures its communication performance *with its own
//! stream queries*; this module is the host-process counterpart: every
//! benchmark harness (and any embedding application) can funnel finished
//! [`QueryResult`]s into the global [`hub`], which maintains cheap
//! atomic counters (the workspace deliberately carries no
//! `tracing`/`serde` dependency).
//!
//! Cost discipline: the hub is **disabled by default**. While disabled,
//! [`MetricsHub::record`] is a single relaxed atomic load and an early
//! return — safe to leave in benchmark hot loops (the per-*event* hot
//! path of the simulator never touches the hub at all; recording happens
//! once per finished query). Counters use relaxed ordering: they are
//! order-independent sums and maxima, so recording from worker threads
//! (the parallel sweep executor) never perturbs run-to-run determinism
//! of the results themselves.
//!
//! ```
//! use scsq_core::prelude::*;
//!
//! # fn main() -> Result<(), ScsqError> {
//! let mut scsq = Scsq::lofar();
//! let hub = scsq_core::metrics::hub();
//! hub.reset();
//! hub.enable(true);
//! let r = scsq.run(
//!     "select extract(b) \
//!      from sp a, sp b \
//!      where b=sp(streamof(count(extract(a))), 'bg', 0) \
//!      and a=sp(gen_array(100000, 10), 'bg', 1);",
//! )?;
//! hub.record(&r);
//! assert_eq!(hub.snapshot().queries, 1);
//! assert!(hub.snapshot().bytes_delivered >= 10 * 100_000);
//! # Ok(())
//! # }
//! ```

use crate::QueryResult;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// A point-in-time copy of the hub's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HubSnapshot {
    /// Query executions recorded.
    pub queries: u64,
    /// Simulator events executed, summed over recorded queries.
    pub events: u64,
    /// Payload bytes delivered across all channels of all recorded
    /// queries.
    pub bytes_delivered: u64,
    /// Result values delivered to clients.
    pub values: u64,
    /// Send buffers transmitted.
    pub buffers_sent: u64,
    /// Buffers dropped in flight (UDP loss).
    pub buffers_dropped: u64,
    /// Largest pending-event high-water mark seen in any single query —
    /// the event kernel's worst-case memory pressure.
    pub events_pending_hwm: u64,
    /// Total simulated query time, in nanoseconds.
    pub sim_time_nanos: u64,
    /// Events skipped analytically by the train coalescer.
    pub coalesce_events_skipped: u64,
    /// Served sessions opened (`scsqd` connections).
    pub sessions: u64,
    /// Statements executed by served sessions.
    pub statements: u64,
    /// Prepared-plan cache hits across served sessions.
    pub plan_cache_hits: u64,
}

impl HubSnapshot {
    /// Mean delivered bandwidth in bytes per simulated second over all
    /// recorded queries (`0.0` before anything is recorded).
    pub fn mean_bandwidth(&self) -> f64 {
        if self.sim_time_nanos == 0 {
            0.0
        } else {
            self.bytes_delivered as f64 / (self.sim_time_nanos as f64 / 1e9)
        }
    }

    /// Renders the snapshot as a JSON object (hand-formatted, like every
    /// other JSON artifact in this workspace).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"queries\": {},\n  \"events\": {},\n  \"bytes_delivered\": {},\n  \
             \"values\": {},\n  \"buffers_sent\": {},\n  \"buffers_dropped\": {},\n  \
             \"events_pending_hwm\": {},\n  \"sim_time_nanos\": {},\n  \
             \"coalesce_events_skipped\": {},\n  \"sessions\": {},\n  \"statements\": {},\n  \
             \"plan_cache_hits\": {},\n  \"mean_bandwidth\": {}\n}}\n",
            self.queries,
            self.events,
            self.bytes_delivered,
            self.values,
            self.buffers_sent,
            self.buffers_dropped,
            self.events_pending_hwm,
            self.sim_time_nanos,
            self.coalesce_events_skipped,
            self.sessions,
            self.statements,
            self.plan_cache_hits,
            self.mean_bandwidth(),
        )
    }
}

/// The process-wide metrics registry: a gate and a set of relaxed
/// atomic counters.
#[derive(Debug, Default)]
pub struct MetricsHub {
    enabled: AtomicBool,
    queries: AtomicU64,
    events: AtomicU64,
    bytes_delivered: AtomicU64,
    values: AtomicU64,
    buffers_sent: AtomicU64,
    buffers_dropped: AtomicU64,
    events_pending_hwm: AtomicU64,
    sim_time_nanos: AtomicU64,
    coalesce_events_skipped: AtomicU64,
    sessions: AtomicU64,
    statements: AtomicU64,
    plan_cache_hits: AtomicU64,
}

impl MetricsHub {
    /// A fresh, disabled hub (for tests or private aggregation; most
    /// callers use the global [`hub`]).
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Turns recording on or off. While off, [`MetricsHub::record`] is a
    /// single atomic load.
    pub fn enable(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Folds one finished query into the counters. A no-op while the
    /// hub is disabled.
    pub fn record(&self, result: &QueryResult) {
        if !self.is_enabled() {
            return;
        }
        let stats = result.stats();
        let mut bytes = 0u64;
        let mut sent = 0u64;
        let mut dropped = 0u64;
        for c in &stats.channels {
            bytes += c.bytes;
            sent += c.buffers_sent;
            dropped += c.buffers_dropped;
        }
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.events.fetch_add(stats.events, Ordering::Relaxed);
        self.bytes_delivered.fetch_add(bytes, Ordering::Relaxed);
        self.values
            .fetch_add(result.values().len() as u64, Ordering::Relaxed);
        self.buffers_sent.fetch_add(sent, Ordering::Relaxed);
        self.buffers_dropped.fetch_add(dropped, Ordering::Relaxed);
        self.events_pending_hwm
            .fetch_max(stats.events_pending_hwm, Ordering::Relaxed);
        self.sim_time_nanos
            .fetch_add(result.total_time().as_nanos(), Ordering::Relaxed);
        self.coalesce_events_skipped
            .fetch_add(stats.coalesce.events_skipped, Ordering::Relaxed);
    }

    /// Counts a served session opening (one `scsqd` connection). A
    /// no-op while the hub is disabled, like [`MetricsHub::record`].
    pub fn record_session(&self) {
        if self.is_enabled() {
            self.sessions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one statement executed by a served session. A no-op
    /// while the hub is disabled.
    pub fn record_statement(&self) {
        if self.is_enabled() {
            self.statements.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts prepared-plan cache hits observed by the server. A no-op
    /// while the hub is disabled.
    pub fn record_plan_cache_hits(&self, hits: u64) {
        if self.is_enabled() && hits > 0 {
            self.plan_cache_hits.fetch_add(hits, Ordering::Relaxed);
        }
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> HubSnapshot {
        HubSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            bytes_delivered: self.bytes_delivered.load(Ordering::Relaxed),
            values: self.values.load(Ordering::Relaxed),
            buffers_sent: self.buffers_sent.load(Ordering::Relaxed),
            buffers_dropped: self.buffers_dropped.load(Ordering::Relaxed),
            events_pending_hwm: self.events_pending_hwm.load(Ordering::Relaxed),
            sim_time_nanos: self.sim_time_nanos.load(Ordering::Relaxed),
            coalesce_events_skipped: self.coalesce_events_skipped.load(Ordering::Relaxed),
            sessions: self.sessions.load(Ordering::Relaxed),
            statements: self.statements.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter and leaves the enable gate untouched.
    pub fn reset(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.events.store(0, Ordering::Relaxed);
        self.bytes_delivered.store(0, Ordering::Relaxed);
        self.values.store(0, Ordering::Relaxed);
        self.buffers_sent.store(0, Ordering::Relaxed);
        self.buffers_dropped.store(0, Ordering::Relaxed);
        self.events_pending_hwm.store(0, Ordering::Relaxed);
        self.sim_time_nanos.store(0, Ordering::Relaxed);
        self.coalesce_events_skipped.store(0, Ordering::Relaxed);
        self.sessions.store(0, Ordering::Relaxed);
        self.statements.store(0, Ordering::Relaxed);
        self.plan_cache_hits.store(0, Ordering::Relaxed);
    }
}

/// The process-wide hub. Disabled until someone calls
/// [`MetricsHub::enable`]; benchmark binaries enable it when invoked
/// with `--metrics out.json`.
pub fn hub() -> &'static MetricsHub {
    static HUB: OnceLock<MetricsHub> = OnceLock::new();
    HUB.get_or_init(MetricsHub::new)
}

/// Turns the whole observability layer on or off in one call: the
/// process-wide [`hub`]'s recording gate *and* the simulator's
/// flight-recorder span gate (`scsq_sim::obs`). Benchmark binaries call
/// this for `--metrics`/`--trace`; with both gates off (the default)
/// the per-event hot path pays one relaxed atomic load per gated site.
///
/// Deliberately a free function rather than a `MetricsHub` method: the
/// span gate is process-global, and flipping it from per-instance hubs
/// (as unit tests create) would let parallel tests perturb each other's
/// flight recorders.
pub fn set_observability(on: bool) {
    hub().enable(on);
    scsq_sim::obs::set_enabled(on);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scsq;

    fn run_once() -> QueryResult {
        Scsq::lofar()
            .run(
                "select extract(b) from sp a, sp b
                 where b=sp(streamof(count(extract(a))), 'bg', 0)
                 and a=sp(gen_array(100000,10),'bg',1);",
            )
            .unwrap()
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let hub = MetricsHub::new();
        hub.record(&run_once());
        assert_eq!(hub.snapshot(), HubSnapshot::default());
    }

    #[test]
    fn enabled_hub_accumulates() {
        let hub = MetricsHub::new();
        hub.enable(true);
        let r = run_once();
        hub.record(&r);
        hub.record(&r);
        let snap = hub.snapshot();
        assert_eq!(snap.queries, 2);
        assert_eq!(snap.events, 2 * r.stats().events);
        assert_eq!(snap.events_pending_hwm, r.stats().events_pending_hwm);
        assert!(snap.bytes_delivered >= 2 * 10 * 100_009);
        assert!(snap.mean_bandwidth() > 0.0);
        hub.reset();
        assert_eq!(hub.snapshot(), HubSnapshot::default());
        assert!(hub.is_enabled(), "reset keeps the gate");
    }

    #[test]
    fn server_counters_are_gated_and_reset() {
        let hub = MetricsHub::new();
        hub.record_session();
        hub.record_statement();
        hub.record_plan_cache_hits(3);
        assert_eq!(
            hub.snapshot(),
            HubSnapshot::default(),
            "disabled hub ignores"
        );
        hub.enable(true);
        hub.record_session();
        hub.record_statement();
        hub.record_statement();
        hub.record_plan_cache_hits(2);
        let snap = hub.snapshot();
        assert_eq!(snap.sessions, 1);
        assert_eq!(snap.statements, 2);
        assert_eq!(snap.plan_cache_hits, 2);
        let json = snap.to_json();
        assert!(json.contains("\"sessions\": 1"));
        assert!(json.contains("\"plan_cache_hits\": 2"));
        hub.reset();
        assert_eq!(hub.snapshot(), HubSnapshot::default());
    }

    #[test]
    fn snapshot_json_is_balanced() {
        let hub = MetricsHub::new();
        hub.enable(true);
        hub.record(&run_once());
        let json = hub.snapshot().to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"queries\": 1"));
        assert!(json.contains("\"mean_bandwidth\""));
    }
}
