//! The train-coalescing execution driver.
//!
//! Long streaming phases of a query schedule the same events over and
//! over: generate an array, marshal a buffer, cycle a channel, deliver
//! a batch. This driver watches the event schedule for such periodic
//! phases (anchored on a recurring event key), fingerprints the entire
//! simulation state at each recurrence, and — once consecutive periods
//! provably apply the same per-coordinate deltas — fast-forwards whole
//! trains of periods analytically instead of dispatching each event.
//!
//! The fast path is bit-identical to per-event execution by
//! construction: a jump is only taken when every changed coordinate is
//! a pure counter advancing by a fixed delta per period, every bounded
//! coordinate provably stays inside its bound for the whole train, and
//! all other state (the "shape": value payloads, queue membership,
//! branch-relevant flags) is exactly unchanged between periods.
//! Anything else — a buffer filling up, an EOS, a UDP drop decision
//! approaching its threshold, a changed tuple — breaks the shape or a
//! cap and falls back to ordinary event dispatch.

use crate::runtime::{Ev, Sim, World};
use scsq_sim::{CoalesceStats, Coalescer, SimTime, Span, StateProbe};
use std::time::Instant;

/// Wall time a profiled run spent in the coalescer (zero otherwise).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CoalesceWall {
    /// Digest walks and the detector's `observe`.
    pub digest_ns: u64,
    /// Advance walks.
    pub advance_ns: u64,
}

/// Runs the simulation to completion, coalescing periodic phases.
/// Returns the final simulation time, what the coalescer did and, for a
/// profiled run, what it cost.
pub(crate) fn run_coalesced(sim: &mut Sim) -> (SimTime, CoalesceStats, CoalesceWall) {
    let mut co = Coalescer::new();
    let profile = sim.world().profile;
    let mut wall = CoalesceWall::default();
    let elapsed = |t0: Option<Instant>| t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
    while let Some(key) = sim.peek_key(Ev::key) {
        if co.note_event(key) {
            let t0 = profile.then(Instant::now);
            let mut p = co.digest_probe();
            sim.probe_state(&mut p, Ev::probe, World::probe);
            let plan = co.observe(p.finish());
            wall.digest_ns += elapsed(t0);
            if let Some(plan) = plan {
                let t0 = profile.then(Instant::now);
                let at = sim.now();
                let mut adv = StateProbe::advance(&plan.deltas, plan.periods);
                sim.probe_state(&mut adv, Ev::probe, World::probe);
                co.after_jump(&plan);
                wall.advance_ns += elapsed(t0);
                // A profiled run records the train the advance probe
                // moved simulated time across as one span.
                let dur_ns = sim.now().since(at).as_nanos();
                sim.world_mut().record_span(Span {
                    name: "coalesce-jump",
                    cat: "coalesce",
                    tid: 4000,
                    ts_ns: at.as_nanos(),
                    dur_ns,
                });
            }
        }
        if !sim.step() {
            break;
        }
    }
    (sim.now(), co.stats(), wall)
}
