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

/// Runs the simulation to completion, coalescing periodic phases.
/// Returns the final simulation time and what the coalescer did.
pub(crate) fn run_coalesced(sim: &mut Sim) -> (SimTime, CoalesceStats) {
    let mut co = Coalescer::new();
    while let Some(key) = sim.peek_key(Ev::key) {
        if co.note_event(key) {
            let mut p = StateProbe::digest();
            sim.probe_state(&mut p, Ev::probe, World::probe);
            if let Some(plan) = co.observe(p.finish()) {
                let t0 = sim.now();
                let mut adv = StateProbe::advance(&plan.deltas, plan.periods);
                sim.probe_state(&mut adv, Ev::probe, World::probe);
                co.after_jump(&plan);
                // A profiled run records the train the advance probe
                // moved simulated time across as one span.
                let dur_ns = sim.now().since(t0).as_nanos();
                sim.world_mut().record_span(Span {
                    name: "coalesce-jump",
                    cat: "coalesce",
                    tid: 4000,
                    ts_ns: t0.as_nanos(),
                    dur_ns,
                });
            }
        }
        if !sim.step() {
            break;
        }
    }
    (sim.now(), co.stats())
}
