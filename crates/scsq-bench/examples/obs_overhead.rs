//! The observability ceiling: what a run's one observability switch,
//! `RunOptions::profile`, costs the per-event path.
//!
//! `cargo run --release -p scsq-bench --example obs_overhead`
//!
//! The workload is the Figure 6 buffer grid (both buffering modes, 3 MB
//! arrays × 60) with 5 % service jitter, so trains cannot form and every
//! element walks the per-event path. Seven plain and seven profiled
//! passes run interleaved, so host drift hits both sides alike. A
//! profiled run records everything it can say about itself: stage
//! tallies, wall timers, per-channel latency histograms and its
//! simulated-timeline spans. (The metrics hub records every sweep
//! query on both sides.)
//!
//! The gate: the ratio of the two sides' median walls must stay below
//! `max(2 %, 3 × MAD_off / wall_off)`. A ceiling tighter than the
//! plain passes' own spread would gate on host noise, not on the
//! layer. Exits 1 on a breach, or if any pass's series differs from the
//! first plain pass's: observability may never change a result. It
//! writes no file.

use scsq_bench::{buffer_sweep, fig6, Scale};
use scsq_core::{HardwareSpec, RunOptions};
use scsq_sim::Series;
use std::time::Instant;

const REPS: usize = 7;

/// One pass of the jittered grid; returns its series and wall seconds.
fn pass(profile: bool) -> (Vec<Series>, f64) {
    let scale = Scale {
        array_bytes: 3_000_000,
        arrays: 60,
        ..Scale::quick()
    };
    let options = RunOptions {
        service_jitter: 0.05,
        coalesce: false,
        profile,
        ..RunOptions::default()
    };
    let t = Instant::now();
    let series = fig6::run(&HardwareSpec::lofar(), scale, &buffer_sweep(), 1, &options)
        .unwrap_or_else(|e| {
            eprintln!("obs_overhead workload failed: {e}");
            std::process::exit(1);
        });
    (series, t.elapsed().as_secs_f64())
}

/// Median and median absolute deviation of `xs`.
fn median_mad(xs: &[f64]) -> (f64, f64) {
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let m = median(xs.to_vec());
    (m, median(xs.iter().map(|x| (x - m).abs()).collect()))
}

fn main() {
    let (reference, _) = pass(false);
    let (mut off, mut on) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    let mut identical = true;
    for _ in 0..REPS {
        for (profile, walls) in [(false, &mut off), (true, &mut on)] {
            let (series, wall) = pass(profile);
            identical &= series == reference;
            walls.push(wall);
        }
    }
    let (wall_off, mad_off) = median_mad(&off);
    let (wall_on, mad_on) = median_mad(&on);
    let overhead = wall_on / wall_off - 1.0;
    let gate = (3.0 * mad_off / wall_off).max(0.02);
    println!(
        "observability overhead {:.2}% (gate {:.2}%): {wall_off:.4}s ± {mad_off:.4} plain, \
         {wall_on:.4}s ± {mad_on:.4} profiled, medians of {REPS} interleaved",
        overhead * 100.0,
        gate * 100.0
    );
    if !identical {
        eprintln!("ERROR: a profiled or repeated pass changed the jittered grid's series");
    }
    if overhead >= gate {
        eprintln!("ERROR: observability overhead breached its ceiling");
    }
    if !identical || overhead >= gate {
        std::process::exit(1);
    }
}
