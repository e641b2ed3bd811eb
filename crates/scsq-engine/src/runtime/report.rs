//! The client manager's collection (§2.2): once the simulator has run
//! dry, the result values, per-channel and per-RP statistics and, for a
//! profiled run, the profile become one [`QueryResult`].

use super::{ChannelRt, RpState, RunOptions, Sim};
use crate::error::EngineError;
use crate::explain::{describe_input, describe_stage};
use crate::measure::{ChannelReport, QueryResult, QueryStats, RpReport};
use crate::profile::{ProfileReport, RpProfile, StageProfile};
use crate::train::CoalesceWall;
use scsq_cluster::Environment;
use scsq_sim::{CoalesceStats, SimTime};
use scsq_transport::Carrier;
use std::time::Instant;

/// Assembles a finished run's result: `end` is the simulated time the
/// drive stopped at, `coalesce` and `wall` what the coalescer did and,
/// profiled, cost, and `run_t0` when the run started.
///
/// # Errors
///
/// The error a handler recorded, or an exceeded event budget.
pub(super) fn report(
    sim: Sim<'_>,
    (end, coalesce, wall): (SimTime, CoalesceStats, CoalesceWall),
    options: &RunOptions,
    run_t0: Instant,
) -> Result<QueryResult, EngineError> {
    let events = sim.events_executed();
    let events_pending_hwm = sim.events_pending_high_water() as u64;
    let exceeded = sim.limit_exceeded();
    let mut world = sim.into_world();
    if let Some(err) = world.error {
        return Err(err);
    }
    if exceeded {
        return Err(EngineError::Runtime(format!(
            "query exceeded the event budget of {} (RunOptions::event_limit)",
            options.event_limit
        )));
    }
    let channels = world.channels.iter().map(channel_report).collect();
    let rp_reports = world.rps.iter().map(|rp| rp_report(&world.env, rp));
    let profile = options.profile.then(|| {
        let rps = world.rps.iter().enumerate();
        Box::new(ProfileReport {
            rps: rps.map(|(i, rp)| rp_profile(&world.env, i, rp)).collect(),
            run_wall_ns: run_t0.elapsed().as_nanos() as u64,
            events,
            coalesce,
            coalesce_digest_ns: wall.digest_ns,
            coalesce_advance_ns: wall.advance_ns,
            spans: std::mem::take(&mut world.spans),
            spans_dropped: world.spans_dropped,
        })
    });
    Ok(QueryResult::new(
        world.results,
        world.first_result_at,
        world.finished_at.unwrap_or(end),
        QueryStats {
            channels,
            rp_reports: rp_reports.collect(),
            events,
            events_pending_hwm,
            rps: world.rps.len(),
            coalesce,
            columnar_batches: world.columnar_batches,
            columnar_transposes: world.columnar_transposes,
            jitter_draws: world.env.jitter_draws(),
            profile,
        },
    ))
}

/// One channel's transfer statistics.
fn channel_report(c: &ChannelRt) -> ChannelReport {
    let cfg = c.chan.config();
    let stats = c.chan.stats();
    ChannelReport {
        src: cfg.src,
        dst: cfg.dst,
        carrier: match cfg.carrier {
            Carrier::Mpi { .. } => "mpi",
            Carrier::Tcp => "tcp",
            Carrier::Udp => "udp",
        }
        .to_string(),
        bytes: stats.bytes_delivered,
        bytes_enqueued: stats.bytes_enqueued,
        buffers_sent: stats.buffers_sent,
        buffers_dropped: stats.buffers_dropped,
        elements_lost: stats.elements_lost,
        queue_peak_trains: stats.queue_peak_trains,
        first_send: stats.first_send,
        last_delivery: stats.last_delivery,
        latency: c.lat.as_ref().map(|l| l.hist).unwrap_or_default(),
    }
}

/// One RP's monitoring counters (§2.3 step v).
fn rp_report(env: &Environment, rp: &RpState) -> RpReport {
    RpReport {
        node: rp.node,
        elements_in: rp.elements_in,
        elements_out: rp.elements_out,
        node_cpu_busy: env.cpu_busy(rp.node),
        is_client: rp.is_client,
    }
}

/// A profiled run's record of RP `i`, per-stage tallies included.
fn rp_profile(env: &Environment, i: usize, rp: &RpState) -> RpProfile {
    let stages = rp.chain.tally.iter().zip(&rp.pipeline.stages);
    RpProfile {
        rp: i,
        node: rp.node,
        is_client: rp.is_client,
        input: describe_input(&rp.pipeline.input),
        elements_in: rp.elements_in,
        elements_out: rp.elements_out,
        sim_busy: env.cpu_busy(rp.node),
        wall_ns: rp.wall_ns,
        charge_ns: rp.charge_ns,
        stages: stages
            .map(|(t, s)| StageProfile {
                stage: describe_stage(s),
                calls: t.calls,
                elems_in: t.elems_in,
                elems_out: t.elems_out,
            })
            .collect(),
    }
}
