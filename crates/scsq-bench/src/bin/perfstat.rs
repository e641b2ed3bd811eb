//! Measures the event-kernel execution tiers (train-coalesced,
//! per-event, parallel sweep) against the sequential per-event baseline
//! on a fixed workload (the Figure 6 buffer sweep plus the Figure 15
//! n-sweep), verifies that all paths produce bit-identical series, and
//! emits a machine-readable JSON report.
//!
//! Usage: `perfstat [--jobs N] [--out PATH] [--metrics PATH] [--smoke]`
//!
//! `--jobs` sets the parallel worker count (default: available
//! parallelism); the sequential references always run at 1. `--out`
//! chooses where the JSON lands (default `BENCH_sweep.json`).
//! `--metrics` additionally writes the aggregated metrics-hub snapshot.
//! The hub is enabled **for the warm-up pass only** — the snapshot's
//! counters cover exactly that pass, recorded as `"pass": "warmup"` in
//! the JSON — so the timed passes are never perturbed (while disabled,
//! recording is one atomic load).
//! `--smoke` shrinks every workload (fewer arrays, shorter element
//! streams) so the full pass structure — including every identity
//! gate — finishes in CI time; the report records the mode.
//!
//! Timed passes:
//!
//! 1. **sequential, per-event** — one thread, coalescing off: the
//!    baseline. The workload is sized so this leg runs for at least
//!    two seconds, keeping the timings out of noise territory.
//! 2. **sequential, coalesced** — one thread, coalescing on: isolates
//!    the kernel's train-coalescing gain (`coalesce_speedup`).
//! 3. **parallel, coalesced** — `--jobs` threads: adds the sweep
//!    executor's gain (`parallel_speedup`, relative to pass 2).
//!    On a single-core host (or `--jobs 1`) there is no parallelism to
//!    measure, so the report records `parallel_speedup: null` with a
//!    `"single_core_host"` note instead of a misleading ~1.0 ratio.
//! 4. **jittered, per-event** — service times carry multiplicative
//!    jitter, which the coalescing probes hash as opaque state, so no
//!    two periods digest equal and trains provably cannot form. Every
//!    element walks the per-event path; its throughput is the
//!    `per_event_events_per_s` headline. A coalescing-enabled control
//!    run must produce byte-identical series (proof that coalescing
//!    never fired).
//! 5. **observability overhead**//! 8. **observability overhead** — pass 4's jittered grid again, with
//!    the whole observability layer enabled: metrics-hub recording, the
//!    flight-recorder span gate, per-channel latency histograms
//!    (`observe_latency`) and explain-analyze stage tallies
//!    (`profile`). Seven gates-off and seven everything-on repetitions
//!    run interleaved (so host drift hits both sides alike) and each
//!    side reports its median and MAD. `observability_overhead` — the
//!    ratio of the medians — must stay below 2%, or below three times
//!    the gates-off legs' own relative spread where the host is noisier
//!    than that: a ceiling tighter than the measured noise is not a
//!    gate. Every observed series must stay byte-identical to pass 4's
//!    — observability may never change results. With everything off
//!    there is no separate cost to measure: each gate is one relaxed
//!    atomic load, and the baseline legs pay it.
//!
//! The report also keeps the coalescer's per-point counts for the
//! Figure 6 grid (`coalesce_points`: digests, jumps, dispatched events
//! per buffer size and buffering mode) — deterministic, so successive
//! reports show exactly where the detector's work moved.
//!
//! What the column kernels buy is not timed here: the repo benchmark's
//! `element_pipeline` workload (`BENCHMARK.json`) times the take-sum,
//! filter-heavy and relay pipelines end to end, and `columnar_equiv`,
//! `columnar_accounting` and `columnar_csv` assert their series and
//! accounting identity against the per-element path.

use scsq_bench::{
    buffer_sweep, fig15, fig6, parse_jobs, parse_metrics, sweep, write_hub_metrics_tagged,
    ExecMode, Scale, SweepPoint,
};
use scsq_core::{HardwareSpec, RunOptions, Scsq, ScsqError, Value};
use scsq_sim::Series;
use std::time::Instant;

/// Service-time jitter amplitude for the per-event pass — large enough
/// that consecutive periods never digest equal, small enough that the
/// simulated schedule stays realistic.
const JITTER: f64 = 0.05;

/// The workload scale: paper-size (3 MB) arrays — the regime the
/// coalescer targets, where a single array spans thousands of buffer
/// periods — and enough of them that the sequential per-event pass
/// stays above two seconds of wall clock. `--smoke` keeps the array
/// size (the coalescing regime) but cuts the count so CI finishes the
/// whole report in well under a minute.
fn perf_scale(smoke: bool) -> Scale {
    Scale {
        array_bytes: 3_000_000,
        arrays: if smoke { 8 } else { 60 },
        ..Scale::quick()
    }
}

/// The fixed workload: every Figure 6 buffer point plus the Figure 15
/// n-sweep.
fn workload(jobs: usize, mode: ExecMode, smoke: bool) -> Result<Vec<Series>, ScsqError> {
    let spec = HardwareSpec::lofar();
    let scale = perf_scale(smoke);
    let mut series = fig6::run_with_jobs(&spec, scale, &buffer_sweep(), jobs, mode)?;
    series.extend(fig15::run_with_jobs(
        &spec,
        scale,
        &[1, 2, 3, 4],
        jobs,
        mode,
    )?);
    Ok(series)
}

/// The Figure 6 buffer grid with jittered service times. Coalescing is
/// left to the caller: with jitter active the runtime's state probes
/// hash the generator, so trains can never form and both settings must
/// produce identical output. `observe` additionally switches on the
/// result-affecting half of the observability layer — per-channel
/// latency histograms and explain-analyze stage tallies — for the
/// overhead pass.
fn jittered_points(
    scsq: &mut Scsq,
    spec: &HardwareSpec,
    scale: Scale,
    coalesce: bool,
    observe: bool,
) -> Result<Vec<SweepPoint>, ScsqError> {
    let plan = scsq.prepare(&fig6::query(scale))?;
    let mut points = Vec::new();
    for double in [false, true] {
        for &buffer in &buffer_sweep() {
            points.push(SweepPoint {
                series: 0,
                x: buffer as f64,
                plan: plan.clone(),
                options: RunOptions {
                    mpi_buffer: buffer,
                    mpi_double: double,
                    service_jitter: JITTER,
                    coalesce,
                    observe_latency: observe,
                    profile: observe,
                    ..RunOptions::default()
                },
                spec: spec.clone(),
            });
        }
    }
    Ok(points)
}

/// Runs the jittered grid and returns its bandwidth series.
fn jittered_workload(
    jobs: usize,
    coalesce: bool,
    smoke: bool,
    observe: bool,
) -> Result<Vec<Series>, ScsqError> {
    let spec = HardwareSpec::lofar();
    let scale = perf_scale(smoke);
    let mut scsq = Scsq::with_spec(spec.clone());
    let points = jittered_points(&mut scsq, &spec, scale, coalesce, observe)?;
    sweep(
        &["fig6 jittered"],
        &points,
        scale,
        |r| r.bandwidth_into(scsq_core::NodeId::bg(0)) / 1e6,
        jobs,
    )
}

/// Median and median absolute deviation of `xs`.
fn median_mad(xs: &[f64]) -> (f64, f64) {
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let m = median(&mut xs.to_vec());
    let mad = median(&mut xs.iter().map(|x| (x - m).abs()).collect());
    (m, mad)
}

/// `HEAD` when the report was produced. A report committed with the
/// change it measures therefore names that change's *parent* — the
/// commit does not exist yet when perfstat runs — hence the field name.
/// `"unknown"` outside a git work tree.
fn parent_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Exits the process with the workload error.
fn fail(e: ScsqError) -> ! {
    eprintln!("perfstat workload failed: {e}");
    std::process::exit(1);
}

/// Counts the simulated events the jittered grid executes, by re-running
/// it with an event-count metric.
fn jittered_events(jobs: usize, smoke: bool) -> Result<f64, ScsqError> {
    let spec = HardwareSpec::lofar();
    let scale = perf_scale(smoke);
    let mut scsq = Scsq::with_spec(spec.clone());
    let points = jittered_points(&mut scsq, &spec, scale, false, false)?;
    let counts = sweep(
        &["fig6 jittered"],
        &points,
        scale,
        |r| r.stats().events as f64,
        jobs,
    )?;
    Ok(counts[0].points().iter().map(|(_, y)| y).sum::<f64>() * scale.reps as f64)
}

/// Counts the total simulated events the workload executes (identical
/// for every `jobs` value and both coalescing modes — the coalescer
/// counts analytically skipped events as executed), by re-running the
/// same grid, and collects the coalescer's counts at every Figure 6
/// point as JSON rows.
fn workload_events(jobs: usize, smoke: bool) -> Result<(f64, Vec<String>), ScsqError> {
    let spec = HardwareSpec::lofar();
    let scale = perf_scale(smoke);
    let mut total = 0.0;

    let mut scsq = Scsq::with_spec(spec.clone());
    let plan = scsq.prepare(&fig6::query(scale))?;
    let mut rows = Vec::new();
    for double in [false, true] {
        for &buffer in &buffer_sweep() {
            let options = RunOptions {
                mpi_buffer: buffer,
                mpi_double: double,
                ..RunOptions::default()
            };
            let result = plan.run(&spec, &options)?;
            let s = result.stats();
            total += s.events as f64 * scale.reps as f64;
            rows.push(format!(
                "{{ \"buffer\": {buffer}, \"double\": {double}, \"digests\": {}, \
                 \"jumps\": {}, \"dispatched\": {} }}",
                s.coalesce.digests,
                s.coalesce.jumps,
                s.events - s.coalesce.events_skipped
            ));
        }
    }

    let mut points = Vec::new();
    for q in 1..=6u8 {
        let text = fig15::query(q, scale);
        for n in 1..=4u32 {
            let plan = scsq.prepare_with(&text, &[("n", Value::Integer(i64::from(n)))])?;
            points.push(SweepPoint {
                series: 0,
                x: f64::from(n),
                plan,
                options: RunOptions::default(),
                spec: spec.clone(),
            });
        }
    }
    let counts = sweep(
        &["fig15"],
        &points,
        scale,
        |r| r.stats().events as f64,
        jobs,
    )?;
    total += counts[0].points().iter().map(|(_, y)| y).sum::<f64>() * scale.reps as f64;

    Ok((total, rows))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let jobs = parse_jobs(&args);
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());

    // Warm-up run so no timed pass pays first-touch costs. The metrics
    // hub records this pass only: it is disabled again before any timer
    // starts, so the timed passes pay exactly one relaxed atomic load
    // per query.
    let metrics = parse_metrics(&args);
    if metrics.is_some() {
        scsq_core::metrics::hub().enable(true);
    }
    workload(jobs, ExecMode::default(), smoke).unwrap_or_else(|e| fail(e));
    if let Some(path) = &metrics {
        scsq_core::metrics::hub().enable(false);
        write_hub_metrics_tagged(path, "warmup").unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
    }

    let per_event_mode = ExecMode {
        coalesce: false,
        ..ExecMode::default()
    };
    let t0 = Instant::now();
    let per_event = workload(1, per_event_mode, smoke).unwrap_or_else(|e| fail(e));
    let per_event_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let coalesced = workload(1, ExecMode::default(), smoke).unwrap_or_else(|e| fail(e));
    let coalesced_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let parallel = workload(jobs, ExecMode::default(), smoke).unwrap_or_else(|e| fail(e));
    let parallel_s = t2.elapsed().as_secs_f64();

    // The jittered pass: every element takes the per-event path.
    let t3 = Instant::now();
    let jittered = jittered_workload(1, false, smoke, false).unwrap_or_else(|e| fail(e));
    let jittered_s = t3.elapsed().as_secs_f64();
    // Control: coalescing enabled must change nothing, because jitter
    // makes every period digest unique.
    let jittered_control = jittered_workload(1, true, smoke, false).unwrap_or_else(|e| fail(e));

    // The observability-overhead pass: the same jittered grid with the
    // whole layer on — metrics-hub recording, the flight-recorder span
    // gate, per-channel latency histograms and explain-analyze stage
    // tallies — against the same grid with every gate off. The legs
    // alternate so host drift hits both sides alike.
    const OVERHEAD_REPS: usize = 7;
    let mut off_walls = Vec::with_capacity(OVERHEAD_REPS);
    let mut on_walls = Vec::with_capacity(OVERHEAD_REPS);
    let mut observed_identical = true;
    for _ in 0..OVERHEAD_REPS {
        let t = Instant::now();
        let series = jittered_workload(1, false, smoke, false).unwrap_or_else(|e| fail(e));
        off_walls.push(t.elapsed().as_secs_f64());
        observed_identical &= series == jittered;

        scsq_core::metrics::set_observability(true);
        let t = Instant::now();
        let series = jittered_workload(1, false, smoke, true).unwrap_or_else(|e| fail(e));
        on_walls.push(t.elapsed().as_secs_f64());
        scsq_core::metrics::set_observability(false);
        // Drain the flight recorder so spans never pile up across reps.
        let _ = scsq_sim::obs::take_spans();
        observed_identical &= series == jittered;
    }
    let (observed_off_s, off_mad_s) = median_mad(&off_walls);
    let (observed_s, on_mad_s) = median_mad(&on_walls);
    let observability_overhead = observed_s / observed_off_s - 1.0;
    // A ceiling tighter than the off legs' own spread would gate on
    // host noise, not on the layer.
    let overhead_gate = (3.0 * off_mad_s / observed_off_s).max(0.02);

    let identical = per_event == coalesced
        && coalesced == parallel
        && jittered == jittered_control
        && observed_identical;
    if !identical {
        eprintln!(
            "ERROR: coalesced/parallel/jittered/observed series differ from their references"
        );
    }
    if observability_overhead >= overhead_gate {
        eprintln!(
            "ERROR: observability overhead {:.2}% breached its {:.2}% ceiling \
             ({observed_off_s:.3}s gates off vs {observed_s:.3}s everything on, medians of \
             {OVERHEAD_REPS})",
            observability_overhead * 100.0,
            overhead_gate * 100.0
        );
    }
    let (events, coalesce_points) = workload_events(jobs, smoke).unwrap_or_else(|e| fail(e));
    let coalesce_points = coalesce_points.join(",\n    ");
    let jit_events = jittered_events(jobs, smoke).unwrap_or_else(|e| fail(e));
    let coalesce_speedup = per_event_s / coalesced_s;

    // The true machine parallelism, straight from the OS (the --jobs
    // flag may differ).
    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // On a single-core host (or an explicit --jobs 1) pass 3 measures
    // thread-pool overhead, not parallelism — report null, not a bogus
    // ratio.
    let (parallel_speedup, parallel_note) = if host > 1 && jobs > 1 {
        (format!("{:.3}", coalesced_s / parallel_s), String::new())
    } else {
        (
            "null".to_string(),
            ",\n  \"parallel_note\": \"single_core_host\"".to_string(),
        )
    };

    let per_event_eps = jit_events / jittered_s;
    let commit = parent_commit();
    let sweep_arrays = perf_scale(smoke).arrays;
    let json = format!(
        "{{\n  \"workload\": \"fig6 buffer sweep + fig15 n-sweep, 3 MB arrays x{sweep_arrays}\",\n  \
         \"parent_commit\": \"{commit}\",\n  \
         \"smoke\": {smoke},\n  \
         \"host_parallelism\": {host},\n  \
         \"jobs\": {jobs},\n  \
         \"series_identical\": {identical},\n  \
         \"total_simulated_events\": {events},\n  \
         \"sequential_per_event\": {{ \"wall_s\": {per_event_s:.4}, \"events_per_s\": {pe_eps:.0} }},\n  \
         \"sequential_coalesced\": {{ \"wall_s\": {coalesced_s:.4}, \"events_per_s\": {co_eps:.0} }},\n  \
         \"parallel_coalesced\": {{ \"wall_s\": {parallel_s:.4}, \"events_per_s\": {pa_eps:.0} }},\n  \
         \"jittered_per_event\": {{ \"wall_s\": {jittered_s:.4}, \"events\": {jit_events}, \"events_per_s\": {per_event_eps:.0} }},\n  \
         \"observability_overhead\": {{ \"workload\": \"fig6 jittered grid, metrics hub + spans + latency histograms + profiler on\", \"reps\": \"median of {OVERHEAD_REPS}, interleaved\", \"wall_off_s\": {observed_off_s:.4}, \"mad_off_s\": {off_mad_s:.4}, \"wall_on_s\": {observed_s:.4}, \"mad_on_s\": {on_mad_s:.4}, \"overhead\": {observability_overhead:.4}, \"gate\": {overhead_gate:.4}, \"gate_rule\": \"max(0.02, 3 x mad_off / wall_off)\", \"off_cost\": \"one relaxed atomic load per gate; the baseline legs pay it\" }},\n  \
         \"per_event_events_per_s\": {per_event_eps:.0},\n  \
         \"coalesce_speedup\": {coalesce_speedup:.3},\n  \
         \"coalesce_workload\": {{ \"sweep\": \"fig6 buffers x2 + fig15 n=1..4\", \"array_bytes\": 3000000, \"arrays\": {sweep_arrays}, \"service_jitter\": 0.0 }},\n  \
         \"coalesce_points\": [\n    {coalesce_points}\n  ],\n  \
         \"parallel_speedup\": {parallel_speedup}{parallel_note}\n}}\n",
        pe_eps = events / per_event_s,
        co_eps = events / coalesced_s,
        pa_eps = events / parallel_s,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("wrote {out_path}");
    if !identical || observability_overhead >= overhead_gate {
        std::process::exit(1);
    }
}
