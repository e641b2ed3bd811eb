//! Observed ≡ unobserved: a run's one observability switch,
//! `RunOptions::profile` — stage tallies, wall timers, per-channel
//! latency histograms and simulated-timeline spans — must not change a
//! single simulated fact of a run, on the per-event path (the jittered
//! grid, where trains cannot form) or under coalescing (Figure 8
//! merges at small buffers, where the coalescer jumps and a profiled
//! run gives it more state to probe).

use scsq_bench::{fig6, fig8, Scale};
use scsq_core::prelude::*;
use scsq_sim::Series;

/// The simulated facts of one grid point that observability must leave
/// alone.
#[derive(Debug, PartialEq)]
struct PointFacts {
    values: Vec<Value>,
    finished: SimTime,
    events: u64,
    jitter_draws: u64,
    /// `(bytes delivered, buffers sent, last delivery)` per channel.
    channels: Vec<(u64, u64, SimTime)>,
}

/// Runs one point and checks the report follows the switch: a profiled
/// run carries spans, a plain run no profile at all.
fn facts(plan: &PreparedQuery, spec: &HardwareSpec, options: &RunOptions) -> (PointFacts, u64) {
    let result = plan.run(spec, options).unwrap();
    let stats = result.stats();
    match &stats.profile {
        Some(profile) => {
            assert!(options.profile, "a plain run carries a profile");
            assert!(!profile.spans.is_empty(), "a profiled run has no spans");
        }
        None => assert!(!options.profile, "a profiled run carries no profile"),
    }
    let facts = PointFacts {
        values: result.values().to_vec(),
        finished: result.finished(),
        events: stats.events,
        jitter_draws: stats.jitter_draws,
        channels: stats
            .channels
            .iter()
            .map(|c| (c.bytes, c.buffers_sent, c.last_delivery))
            .collect(),
    };
    (facts, stats.coalesce.jumps)
}

const BUFFERS: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// The jittered Figure 6 quick grid (both buffering modes): its series
/// through the figure sweep, then every point's facts from a direct run.
fn jittered_grid(profile: bool) -> (Vec<Series>, Vec<PointFacts>) {
    let spec = HardwareSpec::lofar();
    let scale = Scale::quick();
    let base = RunOptions {
        service_jitter: 0.05,
        profile,
        ..RunOptions::default()
    };
    let series = fig6::run(&spec, scale, &BUFFERS, 1, &base).unwrap();
    let plan = Scsq::with_spec(spec.clone())
        .prepare(&fig6::query(scale))
        .unwrap();
    let mut points = Vec::new();
    for mpi_double in [false, true] {
        for &mpi_buffer in &BUFFERS {
            let options = RunOptions {
                mpi_buffer,
                mpi_double,
                ..base.clone()
            };
            points.push(facts(&plan, &spec, &options).0);
        }
    }
    (series, points)
}

#[test]
fn everything_on_leaves_the_jittered_grid_unchanged() {
    let (profiled_series, profiled) = jittered_grid(true);
    let (series, plain) = jittered_grid(false);
    assert_eq!(profiled_series, series);
    assert_eq!(profiled, plain);
    assert!(plain.iter().all(|f| f.jitter_draws > 0), "{plain:?}");
}

/// Unjittered Figure 8 merges at 100 B and 1 000 B buffers, both
/// selections and buffering modes, with 1 MB arrays: the coalescer
/// jumps, and the profiled run's latency tracking is state its
/// detector must carry across every jump exactly — so the profiled
/// run's channel reports, latency histograms included, also match the
/// profiled per-event run's.
#[test]
fn everything_on_leaves_the_coalesced_merges_unchanged() {
    let spec = HardwareSpec::lofar();
    let scale = Scale {
        array_bytes: 1_000_000,
        arrays: 2,
        ..Scale::quick()
    };
    let mut jumps = 0;
    for selection in [fig8::Selection::Sequential, fig8::Selection::Balanced] {
        let plan = Scsq::with_spec(spec.clone())
            .prepare(&fig8::query(scale, selection))
            .unwrap();
        for mpi_double in [false, true] {
            for mpi_buffer in [100, 1_000] {
                let options = |profile, coalesce| RunOptions {
                    mpi_buffer,
                    mpi_double,
                    profile,
                    coalesce,
                    ..RunOptions::default()
                };
                let point = format!(
                    "{} merge, {mpi_buffer} B buffers, double {mpi_double}",
                    selection.label()
                );
                let (plain, plain_jumps) = facts(&plan, &spec, &options(false, true));
                let (profiled, _) = facts(&plan, &spec, &options(true, true));
                assert_eq!(profiled, plain, "{point}");
                let channels = |coalesce| {
                    let r = plan.run(&spec, &options(true, coalesce)).unwrap();
                    r.stats().channels.clone()
                };
                assert_eq!(channels(true), channels(false), "{point}: per-event");
                jumps += plain_jumps;
            }
        }
    }
    assert!(jumps > 0, "the coalescer never jumped on the merge grid");
}
