//! A process-wide, low-overhead metrics hub aggregating query
//! executions.
//!
//! The paper's SCSQ measures its communication performance *with its own
//! stream queries*; this module is the host-process counterpart: every
//! benchmark harness (and any embedding application) can funnel finished
//! [`QueryResult`]s into the global [`hub`], which folds each one into
//! a running [`HubSnapshot`] (the workspace deliberately carries no
//! `tracing`/`serde` dependency).
//!
//! Cost discipline: the hub always records. A record is one
//! uncontended lock and one [`HubSnapshot::record`] fold per *finished
//! query* — the per-event hot path of the simulator never touches the
//! hub. The totals are order-independent sums and maxima, so recording
//! from worker threads (the parallel sweep executor) in any order gives
//! the same snapshot and never perturbs the results themselves.
//!
//! ```
//! use scsq_core::prelude::*;
//!
//! # fn main() -> Result<(), ScsqError> {
//! let mut scsq = Scsq::lofar();
//! let hub = scsq_core::metrics::hub();
//! hub.reset();
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
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Totals over recorded query executions: what the hub holds, and a
/// point-in-time copy of it.
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
}

impl HubSnapshot {
    /// Folds one finished query into the totals.
    pub fn record(&mut self, result: &QueryResult) {
        let stats = result.stats();
        self.queries += 1;
        self.events += stats.events;
        for c in &stats.channels {
            self.bytes_delivered += c.bytes;
            self.buffers_sent += c.buffers_sent;
            self.buffers_dropped += c.buffers_dropped;
        }
        self.values += result.values().len() as u64;
        self.events_pending_hwm = self.events_pending_hwm.max(stats.events_pending_hwm);
        self.sim_time_nanos += result.total_time().as_nanos();
        self.coalesce_events_skipped += stats.coalesce.events_skipped;
    }

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
             \"coalesce_events_skipped\": {},\n  \"mean_bandwidth\": {}\n}}\n",
            self.queries,
            self.events,
            self.bytes_delivered,
            self.values,
            self.buffers_sent,
            self.buffers_dropped,
            self.events_pending_hwm,
            self.sim_time_nanos,
            self.coalesce_events_skipped,
            self.mean_bandwidth(),
        )
    }
}

/// The process-wide metrics registry: one [`HubSnapshot`] of totals
/// behind a lock.
#[derive(Debug, Default)]
pub struct MetricsHub {
    totals: Mutex<HubSnapshot>,
}

impl MetricsHub {
    /// A fresh hub (for tests or private aggregation; most callers use
    /// the global [`hub`]).
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Folds one finished query into the totals.
    pub fn record(&self, result: &QueryResult) {
        self.lock().record(result);
    }

    /// Copies the current totals.
    pub fn snapshot(&self) -> HubSnapshot {
        *self.lock()
    }

    /// Zeroes every total.
    pub fn reset(&self) {
        *self.lock() = HubSnapshot::default();
    }

    /// The totals. A recorder that panicked mid-fold leaves totals that
    /// are still plain numbers, so a poisoned lock is recovered rather
    /// than passed on.
    fn lock(&self) -> MutexGuard<'_, HubSnapshot> {
        self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The process-wide hub. The benchmark binaries' sweeps record every
/// query into it and write its snapshot for `--metrics out.json`.
pub fn hub() -> &'static MetricsHub {
    static HUB: OnceLock<MetricsHub> = OnceLock::new();
    HUB.get_or_init(MetricsHub::new)
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
    fn hub_accumulates_and_resets() {
        let hub = MetricsHub::new();
        assert_eq!(hub.snapshot(), HubSnapshot::default());
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
    }

    #[test]
    fn snapshot_json_is_balanced() {
        let hub = MetricsHub::new();
        hub.record(&run_once());
        let json = hub.snapshot().to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"queries\": 1"));
        assert!(json.contains("\"mean_bandwidth\""));
    }
}
