//! The observability ceiling: what switching the whole observability
//! layer on costs the per-event path.
//!
//! `cargo run --release -p scsq-bench --example obs_overhead`
//!
//! The workload is the Figure 6 buffer grid (both buffering modes, 3 MB
//! arrays × 60) with 5 % service jitter, so trains cannot form and every
//! element walks the per-event path. Seven gates-off and seven
//! everything-on passes run interleaved, so host drift hits both sides
//! alike. Everything on means the metrics hub, the flight-recorder span
//! gate, per-channel latency histograms (`observe_latency`) and
//! explain-analyze stage tallies (`profile`).
//!
//! The gate: the ratio of the two sides' median walls must stay below
//! `max(2 %, 3 × MAD_off / wall_off)`. A ceiling tighter than the
//! gates-off passes' own spread would gate on host noise, not on the
//! layer. Exits 1 on a breach, or if any pass's series differs from the
//! first gates-off pass's: observability may never change a result. It
//! writes no file.

use scsq_bench::{buffer_sweep, fig6, Scale};
use scsq_core::{HardwareSpec, RunOptions};
use scsq_sim::Series;
use std::time::Instant;

const REPS: usize = 7;

/// One pass of the jittered grid; returns its series and wall seconds.
fn pass(observe: bool) -> (Vec<Series>, f64) {
    let scale = Scale {
        array_bytes: 3_000_000,
        arrays: 60,
        ..Scale::quick()
    };
    let options = RunOptions {
        service_jitter: 0.05,
        coalesce: false,
        observe_latency: observe,
        profile: observe,
        ..RunOptions::default()
    };
    scsq_core::metrics::set_observability(observe);
    let t = Instant::now();
    let series = fig6::run(&HardwareSpec::lofar(), scale, &buffer_sweep(), 1, &options)
        .unwrap_or_else(|e| {
            eprintln!("obs_overhead workload failed: {e}");
            std::process::exit(1);
        });
    let wall = t.elapsed().as_secs_f64();
    scsq_core::metrics::set_observability(false);
    // Drain the flight recorder so spans never pile up across passes.
    let _ = scsq_sim::obs::take_spans();
    (series, wall)
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
        for (observe, walls) in [(false, &mut off), (true, &mut on)] {
            let (series, wall) = pass(observe);
            identical &= series == reference;
            walls.push(wall);
        }
    }
    let (wall_off, mad_off) = median_mad(&off);
    let (wall_on, mad_on) = median_mad(&on);
    let overhead = wall_on / wall_off - 1.0;
    let gate = (3.0 * mad_off / wall_off).max(0.02);
    println!(
        "observability overhead {:.2}% (gate {:.2}%): {wall_off:.4}s ± {mad_off:.4} gates off, \
         {wall_on:.4}s ± {mad_on:.4} everything on, medians of {REPS} interleaved",
        overhead * 100.0,
        gate * 100.0
    );
    if !identical {
        eprintln!("ERROR: an observed or repeated pass changed the jittered grid's series");
    }
    if overhead >= gate {
        eprintln!("ERROR: observability overhead breached its ceiling");
    }
    if !identical || overhead >= gate {
        std::process::exit(1);
    }
}
