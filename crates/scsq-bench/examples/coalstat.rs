//! Per-point coalescing diagnostics (dev tool): one row per Figure 6,
//! Figure 8 and Figure 15 point — the 102 queries of a paper sweep —
//! with the detector's counts, the coordinates a digest records and the
//! words it mixes into its shape hash on average, the wall clock with
//! and without the coalescer, and how much of it a profiled run's
//! digests spent walking the event queue (`queue_ms`).
//!
//! `cargo run --release -p scsq-bench --example coalstat [arrays] [jitter] [seed] [counts]`
//! (defaults: the paper's 100 arrays, no service jitter; a seed other
//! than 0 perturbs the LOFAR rates by 2 % like the repo benchmark;
//! a fourth argument skips the timing and prints the count columns
//! only, which are exact: `scripts/verify.sh` diffs `100 0 11 counts`
//! against `crates/scsq-bench/tests/golden/coalstat_counts.csv`).
use scsq_bench::{paper_points, Scale};
use scsq_core::{HardwareSpec, PreparedQuery, RunOptions, Scsq};
use std::time::Instant;

/// Best of seven: the table is about the detector, not the host.
fn best_of_7(mut ms: impl FnMut() -> f64) -> f64 {
    (0..7).map(|_| ms()).fold(f64::INFINITY, f64::min)
}

fn wall_ms(plan: &PreparedQuery, spec: &HardwareSpec, options: &RunOptions) -> f64 {
    best_of_7(|| {
        let t = Instant::now();
        plan.run(spec, options).unwrap();
        t.elapsed().as_secs_f64() * 1e3
    })
}

/// The digests' event-queue walks of a profiled run.
fn queue_ms(plan: &PreparedQuery, spec: &HardwareSpec, options: &RunOptions) -> f64 {
    let profiled = RunOptions {
        profile: true,
        ..options.clone()
    };
    best_of_7(|| {
        let r = plan.run(spec, &profiled).unwrap();
        r.stats()
            .profile
            .as_ref()
            .map_or(0, |p| p.coalesce_queue_ns) as f64
            / 1e6
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let arrays = args.next().map_or(100, |a| a.parse().expect("arrays"));
    let service_jitter = args.next().map_or(0.0, |a| a.parse().expect("jitter"));
    let spec = match args.next().map(|a| a.parse().expect("seed")) {
        Some(seed) if seed != 0 => HardwareSpec::lofar().jittered(seed, 0.02),
        _ => HardwareSpec::lofar(),
    };
    let timed = args.next().is_none();
    let scale = Scale {
        arrays,
        ..Scale::paper()
    };
    let mut scsq = Scsq::with_spec(spec.clone());
    let points = paper_points(&mut scsq, scale, service_jitter).unwrap();
    let timing = if timed { ",on_ms,off_ms,queue_ms" } else { "" };
    println!(
        "leg,buffering,buffer,events,digests,jumps,dispatched,coords_per_digest,\
         shape_words_per_digest{timing}"
    );
    let (mut digests, mut jumps, mut dispatched, mut coords, mut words) = (0, 0, 0, 0, 0);
    let (mut on_total, mut off_total, mut queue_total) = (0.0, 0.0, 0.0);
    for point in &points {
        let on = point.plan.run(&spec, &point.options).unwrap();
        let s = on.stats();
        let c = s.coalesce;
        let events = s.events - c.events_skipped;
        print!(
            "{},{},{},{},{},{},{events},{:.1},{:.1}",
            point.leg,
            point.variant,
            point.x,
            s.events,
            c.digests,
            c.jumps,
            c.coords as f64 / c.digests.max(1) as f64,
            c.shape_words as f64 / c.digests.max(1) as f64,
        );
        if timed {
            let on_ms = wall_ms(&point.plan, &spec, &point.options);
            let off = RunOptions {
                coalesce: false,
                ..point.options.clone()
            };
            let off_ms = wall_ms(&point.plan, &spec, &off);
            let queue_ms = queue_ms(&point.plan, &spec, &point.options);
            print!(",{on_ms:.2},{off_ms:.2},{queue_ms:.3}");
            on_total += on_ms;
            off_total += off_ms;
            queue_total += queue_ms;
        }
        println!();
        digests += c.digests;
        jumps += c.jumps;
        dispatched += events;
        coords += c.coords;
        words += c.shape_words;
    }
    print!(
        "total,,,,{digests},{jumps},{dispatched},{:.1},{:.1}",
        coords as f64 / digests.max(1) as f64,
        words as f64 / digests.max(1) as f64,
    );
    if timed {
        print!(",{on_total:.2},{off_total:.2},{queue_total:.3}");
    }
    println!();
}
