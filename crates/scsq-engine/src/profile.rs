//! Query-level explain-analyze: per-stage execution profiles.
//!
//! `explain` (see [`crate::explain`]) describes what a plan *would* do;
//! the profiler reports what a run *did*: for every stage of every RP,
//! how many times it was invoked, how many elements flowed in and out,
//! and — per RP — the simulated CPU busy time and the real (wall-clock)
//! time spent inside the stage chain and inside the environment's
//! generate / compute charging, both as shares of the run's own wall
//! (what neither covers — channels, the event queue, set-up — is the
//! report's unattributed remainder). Counts are maintained by the
//! executors themselves ([`StageTally`] slots inside the stage chain),
//! so they are exact on both tiers: the scalar run driver counts per
//! scratch pass (one call per element a stage consumed), and the
//! columnar folds per admitted batch (with semantic element counts —
//! a filter's output is its selection length, a `take`'s the rows it
//! kept).
//!
//! The report also carries the run's simulated-timeline [`Span`]s
//! (channel transmits, deliveries, columnar folds, coalescer jumps),
//! which `scsq_sim::obs::chrome_trace_json` exports as a Chrome trace.
//!
//! Cost discipline: [`RunOptions::profile`](crate::runtime::RunOptions)
//! is the run's one observability switch. Tallies are allocated only
//! when it is set; with profiling off the executors consult an empty
//! slice and the per-element overhead is one bounds check. Wall time is
//! sampled with [`std::time::Instant`] and spans are built only when
//! profiling — both are observational (never probed by the coalescer,
//! never feed simulated time), so a profiled run still produces
//! byte-identical query results.

use scsq_cluster::NodeId;
use scsq_sim::{CoalesceStats, SimDur, Span};
use std::fmt::Write;

/// Per-stage invocation and element counters, updated by whichever
/// executor tier drives the stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTally {
    /// Executor invocations: one per element on the per-element tier,
    /// one per admitted batch on the columnar tier.
    pub calls: u64,
    /// Elements that entered the stage.
    pub elems_in: u64,
    /// Elements the stage emitted downstream.
    pub elems_out: u64,
}

/// One stage's row of the explain-analyze table.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// The stage, rendered like `explain` renders it (`"filter(> 150)"`).
    pub stage: String,
    /// Executor invocations (elements or batches; see [`StageTally`]).
    pub calls: u64,
    /// Elements in.
    pub elems_in: u64,
    /// Elements out.
    pub elems_out: u64,
}

/// One RP's section of the explain-analyze report.
#[derive(Debug, Clone, PartialEq)]
pub struct RpProfile {
    /// RP index in creation order (the client last).
    pub rp: usize,
    /// Where the RP ran.
    pub node: NodeId,
    /// Whether this is the client manager's RP.
    pub is_client: bool,
    /// The RP's input, rendered like `explain` renders it.
    pub input: String,
    /// Elements that entered the RP's SQEP.
    pub elements_in: u64,
    /// Elements the SQEP emitted.
    pub elements_out: u64,
    /// Simulated CPU busy time on the RP's node (shared by co-located
    /// RPs on Linux nodes).
    pub sim_busy: SimDur,
    /// Real time spent inside the RP's stage chain (scoped spans around
    /// chain execution; excludes channel and simulator bookkeeping).
    pub wall_ns: u64,
    /// Real time spent inside the `Environment` generate / compute
    /// calls that charged this RP's elements (per element on the
    /// scalar tier, per batch on the columnar tier).
    pub charge_ns: u64,
    /// Per-stage rows, in chain order.
    pub stages: Vec<StageProfile>,
}

/// The full explain-analyze report for one profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Per-RP sections, in RP creation order.
    pub rps: Vec<RpProfile>,
    /// Real time the whole run took, set-up to report: the denominator
    /// of every wall share.
    pub run_wall_ns: u64,
    /// Simulator events executed, dispatched or skipped analytically.
    pub events: u64,
    /// What the train coalescer did (all zero when it was disabled).
    pub coalesce: CoalesceStats,
    /// Real time spent digesting state at cuts: the probe walks and
    /// the detector's comparison of consecutive snapshots.
    pub coalesce_digest_ns: u64,
    /// Real time spent advancing state across jumps (advance walks).
    pub coalesce_advance_ns: u64,
    /// The run's simulated-timeline spans in recording order, the
    /// first [`SPAN_CAPACITY`](scsq_sim::obs::SPAN_CAPACITY) of them;
    /// export with [`scsq_sim::obs::chrome_trace_json`].
    pub spans: Vec<Span>,
    /// Spans recorded past the capacity and not kept.
    pub spans_dropped: u64,
}

impl ProfileReport {
    /// Wall time no RP's chain or charging accounts for: channel
    /// cycles, the event queue, the coalescer, set-up and reporting.
    pub fn unattributed_ns(&self) -> u64 {
        let attributed: u64 = self.rps.iter().map(|r| r.wall_ns + r.charge_ns).sum();
        self.run_wall_ns.saturating_sub(attributed)
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let share = |ns: u64| ns as f64 * 100.0 / self.run_wall_ns.max(1) as f64;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<26} {:>12} {:>12} {:>12} {:>14} {:>8} {:>8}",
            "stage", "calls", "elems_in", "elems_out", "sim_busy", "wall%", "charge%"
        );
        for rp in &self.rps {
            let who = if rp.is_client {
                format!("rp#{} client @ {}", rp.rp, rp.node)
            } else {
                format!("rp#{} @ {}", rp.rp, rp.node)
            };
            let _ = writeln!(
                out,
                "{who}: {} | in {} out {}",
                rp.input, rp.elements_in, rp.elements_out
            );
            let _ = writeln!(
                out,
                "{:<26} {:>12} {:>12} {:>12} {:>14.6} {:>7.2}% {:>7.2}%",
                "  (chain)",
                "",
                "",
                "",
                rp.sim_busy.as_secs_f64(),
                share(rp.wall_ns),
                share(rp.charge_ns),
            );
            for s in &rp.stages {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>12} {:>12} {:>12}",
                    s.stage, s.calls, s.elems_in, s.elems_out
                );
            }
        }
        let _ = writeln!(
            out,
            "{:<26} {:>12} {:>12} {:>12} {:>14} {:>7.2}%",
            "(unattributed)",
            "",
            "",
            "",
            "",
            share(self.unattributed_ns()),
        );
        // Where the simulator's own wall time went: every digest costs
        // about what dispatching some fifty events does, every jump
        // saves the events it skipped.
        let c = &self.coalesce;
        let _ = writeln!(
            out,
            "coalescer: {} digests, {} jumps ({:.1} digests/jump); \
             {} events dispatched, {} skipped",
            c.digests,
            c.jumps,
            c.digests as f64 / c.jumps.max(1) as f64,
            self.events - c.events_skipped,
            c.events_skipped,
        );
        let _ = writeln!(
            out,
            "coalescer wall: digests {:.2}%, advances {:.2}%; {:.1} coordinates/digest, \
             {:.1} shape words/digest",
            share(self.coalesce_digest_ns),
            share(self.coalesce_advance_ns),
            c.coords as f64 / c.digests.max(1) as f64,
            c.shape_words as f64 / c.digests.max(1) as f64,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileReport {
        ProfileReport {
            rps: vec![RpProfile {
                rp: 0,
                node: NodeId::bg(1),
                is_client: false,
                input: "gen_array(1000 B x 10)".to_string(),
                elements_in: 10,
                elements_out: 1,
                sim_busy: SimDur::from_millis(2),
                wall_ns: 5_000,
                charge_ns: 20_000,
                stages: vec![StageProfile {
                    stage: "count".to_string(),
                    calls: 10,
                    elems_in: 10,
                    elems_out: 0,
                }],
            }],
            run_wall_ns: 50_000,
            events: 1_000,
            coalesce: CoalesceStats {
                digests: 12,
                jumps: 3,
                periods_skipped: 300,
                events_skipped: 900,
                coords: 4_200,
                shape_words: 1_800,
            },
            coalesce_digest_ns: 6_000,
            coalesce_advance_ns: 500,
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }

    #[test]
    fn render_shows_every_stage_row() {
        let r = sample();
        let text = r.render();
        assert!(text.contains("rp#0 @ bg:1"), "{text}");
        assert!(text.contains("count"), "{text}");
        assert!(text.contains("gen_array"), "{text}");
        assert!(
            text.contains(
                "coalescer: 12 digests, 3 jumps (4.0 digests/jump); \
                 100 events dispatched, 900 skipped\n\
                 coalescer wall: digests 12.00%, advances 1.00%; 350.0 coordinates/digest, \
                 150.0 shape words/digest"
            ),
            "{text}"
        );
        // Shares are of the run wall, and the remainder is named.
        assert!(text.contains("  10.00%   40.00%"), "{text}");
        assert!(text.contains("(unattributed)"), "{text}");
        assert!(text.contains("  50.00%"), "{text}");
        assert_eq!(r.unattributed_ns(), 25_000);
    }
}
