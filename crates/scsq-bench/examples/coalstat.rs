//! Per-point coalescing diagnostics (dev tool): one row per Figure 6,
//! Figure 8 and Figure 15 point — the 102 queries of a paper sweep —
//! with the detector's counts, the coordinates a digest records and the
//! words it mixes into its shape hash on average, and the wall clock
//! with and without the coalescer.
//!
//! `cargo run --release -p scsq-bench --example coalstat [arrays] [jitter] [seed] [counts]`
//! (defaults: the paper's 100 arrays, no service jitter; a seed other
//! than 0 perturbs the LOFAR rates by 2 % like the repo benchmark;
//! a fourth argument skips the timing and prints the counts only).
use scsq_bench::{buffer_sweep, fig15, fig6, fig8, Scale};
use scsq_core::{HardwareSpec, PreparedQuery, RunOptions, Scsq, Value};
use std::time::Instant;

fn wall_ms(plan: &PreparedQuery, spec: &HardwareSpec, options: &RunOptions) -> f64 {
    // Best of seven: the table is about the detector, not the host.
    (0..7)
        .map(|_| {
            let t = Instant::now();
            plan.run(spec, options).unwrap();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
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
    let legs = [
        ("fig6", fig6::query(scale)),
        ("fig8-seq", fig8::query(scale, fig8::Selection::Sequential)),
        ("fig8-bal", fig8::query(scale, fig8::Selection::Balanced)),
    ];
    println!(
        "leg,buffering,buffer,events,digests,jumps,dispatched,coords_per_digest,\
         shape_words_per_digest,on_ms,off_ms"
    );
    let mut totals = (0u64, 0u64, 0u64, 0.0, 0.0, 0u64, 0u64);
    let mut row = |leg: &str, variant: &str, x: u64, plan: &PreparedQuery, options: RunOptions| {
        let on = plan.run(&spec, &options).unwrap();
        let s = on.stats();
        let dispatched = s.events - s.coalesce.events_skipped;
        let (mut on_ms, mut off_ms) = (0.0, 0.0);
        if timed {
            on_ms = wall_ms(plan, &spec, &options);
            let off = RunOptions {
                coalesce: false,
                ..options
            };
            off_ms = wall_ms(plan, &spec, &off);
        }
        let c = s.coalesce;
        let coords = c.coords as f64 / c.digests.max(1) as f64;
        let words = c.shape_words as f64 / c.digests.max(1) as f64;
        println!(
            "{leg},{variant},{x},{},{},{},{dispatched},{coords:.1},{words:.1},{on_ms:.2},{off_ms:.2}",
            s.events, c.digests, c.jumps,
        );
        totals.0 += s.coalesce.digests;
        totals.1 += s.coalesce.jumps;
        totals.2 += dispatched;
        totals.3 += on_ms;
        totals.4 += off_ms;
        totals.5 += c.coords;
        totals.6 += c.shape_words;
    };
    for (leg, text) in &legs {
        let plan = scsq.prepare(text).unwrap();
        for double in [false, true] {
            for &buffer in &buffer_sweep() {
                let options = RunOptions {
                    mpi_buffer: buffer,
                    mpi_double: double,
                    service_jitter,
                    ..RunOptions::default()
                };
                let variant = if double { "double" } else { "single" };
                row(leg, variant, buffer, &plan, options);
            }
        }
    }
    for q in 1..=6u8 {
        let text = fig15::query(q, scale);
        for n in 1..=4u32 {
            let plan = scsq
                .prepare_with(&text, &[("n", Value::Integer(i64::from(n)))])
                .unwrap();
            let options = RunOptions {
                service_jitter,
                ..RunOptions::default()
            };
            row("fig15", &format!("q{q}"), u64::from(n), &plan, options);
        }
    }
    println!(
        "total,,,,{},{},{},{:.1},{:.1},{:.2},{:.2}",
        totals.0,
        totals.1,
        totals.2,
        totals.5 as f64 / totals.0.max(1) as f64,
        totals.6 as f64 / totals.0.max(1) as f64,
        totals.3,
        totals.4
    );
}
