//! Observed ≡ unobserved: switching the whole observability layer on —
//! the metrics hub, the flight-recorder span gate, per-channel latency
//! histograms and explain-analyze stage tallies — must not change a
//! single simulated fact of a run.
//!
//! Its own test binary because `set_observability` is process-global:
//! no other test may run while the gate is on.

use scsq_bench::{fig6, Scale};
use scsq_core::prelude::*;
use scsq_sim::Series;

/// The simulated facts of one grid point that observability must leave
/// alone.
#[derive(Debug, PartialEq)]
struct PointFacts {
    events: u64,
    jitter_draws: u64,
    /// `(bytes delivered, buffers sent)` per channel.
    channels: Vec<(u64, u64)>,
}

const BUFFERS: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// The jittered Figure 6 quick grid (both buffering modes): its series
/// through the figure sweep, then every point's facts from a direct run.
fn jittered_grid(observe: bool) -> (Vec<Series>, Vec<PointFacts>) {
    let spec = HardwareSpec::lofar();
    let scale = Scale::quick();
    let base = RunOptions {
        service_jitter: 0.05,
        observe_latency: observe,
        profile: observe,
        ..RunOptions::default()
    };
    let series = fig6::run(&spec, scale, &BUFFERS, 1, &base).unwrap();
    let plan = Scsq::with_spec(spec.clone())
        .prepare(&fig6::query(scale))
        .unwrap();
    let mut facts = Vec::new();
    for mpi_double in [false, true] {
        for &mpi_buffer in &BUFFERS {
            let options = RunOptions {
                mpi_buffer,
                mpi_double,
                ..base.clone()
            };
            let result = plan.run(&spec, &options).unwrap();
            let stats = result.stats();
            assert_eq!(
                stats.profile.is_some(),
                observe,
                "profile follows the option"
            );
            facts.push(PointFacts {
                events: stats.events,
                jitter_draws: stats.jitter_draws,
                channels: stats
                    .channels
                    .iter()
                    .map(|c| (c.bytes, c.buffers_sent))
                    .collect(),
            });
        }
    }
    (series, facts)
}

#[test]
fn everything_on_leaves_the_jittered_grid_unchanged() {
    scsq_core::metrics::set_observability(true);
    let (observed_series, observed_facts) = jittered_grid(true);
    scsq_core::metrics::set_observability(false);
    let spans = scsq_sim::obs::take_spans();
    assert!(!spans.spans.is_empty(), "the span gate recorded nothing");

    let (series, facts) = jittered_grid(false);
    assert!(
        scsq_sim::obs::take_spans().spans.is_empty(),
        "spans recorded with the gate off"
    );
    assert_eq!(observed_series, series);
    assert_eq!(observed_facts, facts);
    assert!(facts.iter().all(|f| f.jitter_draws > 0), "{facts:?}");
}
