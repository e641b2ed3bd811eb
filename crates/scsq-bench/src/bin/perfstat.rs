//! Measures the event-kernel execution tiers (train-coalesced, fused
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
//! streams) so the full pass structure — including every identity and
//! speedup gate — finishes in CI time; the report records the mode.
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
//!    element walks the fused per-event path; its throughput is the
//!    `per_event_events_per_s` headline. A coalescing-enabled control
//!    run must produce byte-identical series (proof that coalescing
//!    never fired).
//! 5. **columnar batch** — a pipeline (one integer generator, a
//!    take-then-sum receiver) at an element-dense scale: 9-byte
//!    integers, so one buffer period delivers thousands of elements in
//!    a single batch, jittered so trains cannot form. Three legs: the
//!    interpreted per-element chain (the byte-identity reference), the
//!    fused per-element scalar path, and the fused columnar batch path.
//!    `columnar_speedup` is interpreted-wall over columnar-wall; all
//!    three legs must produce byte-identical series, and the report
//!    fails (exit 1) if they do not or if the ratio drops below 1.3.
//! 6. **filter batch** — the same three legs over a filter-heavy
//!    pipeline (`arith → filter → cmp → count` on a million jittered
//!    integers), where the columnar path runs selection-vector kernels
//!    instead of per-element dispatch. `filter_speedup` must stay
//!    ≥ 1.9 against the interpreted reference.
//! 7. **relay batch** — a *two-SP* pipeline: the upstream receiver
//!    re-emits (`arith('*',3) → filter('>', 3n/2)`) into a downstream
//!    `sum` fold. With the columnar pass on, the upstream SP relays
//!    survivor rows as shared column handles across the stream channel
//!    (one decomposition at the source, zero-copy hand-off at the far
//!    end). `relay_speedup` is gated ≥ 1.3 against the **fused
//!    scalar** leg — fusion already removed interpretation overhead, so
//!    the ratio isolates what the cross-SP relay adds.
//! 8. **observability overhead** — pass 4's jittered grid again, with
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
//! The batch passes additionally take one untimed *accounting* run per
//! leg and record the query answer, completion time, RNG jitter-draw
//! count and columnar batch count in the report. All three legs of a
//! pass must agree on answer, completion time and draw count (the
//! determinism contract), and only the columnar leg may absorb batches;
//! any disagreement fails the report.
//!
//! The report also keeps the coalescer's per-point counts for the
//! Figure 6 grid (`coalesce_points`: digests, jumps, dispatched events
//! per buffer size and buffering mode) — deterministic, so successive
//! reports show exactly where the detector's work moved.

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

/// The columnar-pass scale: `arrays` is the integer-stream length (the
/// query below generates 9-byte integers, not arrays) — enough elements
/// that the scalar legs stay well clear of timer noise.
fn columnar_scale(arrays: u64) -> Scale {
    Scale {
        array_bytes: 9,
        arrays,
        ..Scale::quick()
    }
}

/// The columnar-pass query: one integer generator streaming into a
/// take-then-sum receiver whose final lands at a client. `take`
/// exercises the columnar view-slicing kernel where the interpreted
/// chain pays one more per-element dispatch; `sum` makes every
/// delivered element carry real aggregation work (a numeric fold the
/// column kernels vectorize) rather than a bare counter bump. Integers
/// marshal to 9 bytes, so one MPI buffer delivers thousands of
/// elements per batch. A single receiver (rather than a wide fan-out)
/// keeps the shared transport cost — enqueue, packing, delivery, paid
/// identically by every leg — to one channel's worth per element, so
/// the pass isolates what it is meant to measure: the per-element
/// chain-dispatch cost the columnar kernels replace. It also keeps the
/// per-leg footprint small enough that walls are allocator-stable run
/// to run.
fn columnar_query(scale: Scale) -> String {
    let receivers = 1;
    let merge = (1..=receivers)
        .map(|i| format!("b{i}"))
        .collect::<Vec<_>>()
        .join(",");
    let from = (1..=receivers)
        .map(|i| format!("sp b{i}"))
        .collect::<Vec<_>>()
        .join(", ");
    let taps = (1..=receivers)
        .map(|i| {
            format!(
                "and b{i}=sp(streamof(sum(take(extract(a), {n}))), 'bg', {node}) ",
                n = scale.arrays,
                node = i + 1
            )
        })
        .collect::<String>();
    format!(
        "select extract(c) \
         from sp a, {from}, sp c \
         where c=sp(streamof(sum(merge({{{merge}}}))), 'bg', 0) \
         {taps}\
         and a=sp(streamof(iota(1,{n})),'bg',1);",
        n = scale.arrays
    )
}

/// The filter-pass query: the same single-generator shape as
/// [`columnar_query`], but the receiver runs the filter-heavy chain
/// `arith('*',3) → arith('+',1) → arith('-',1) → filter('>', 3n/2) →
/// arith('*',2) → cmp('<', 7n) → count`. Every element pays six
/// cost-bearing stages
/// (the regime the ISSUE targets: chain-dispatch cost dominating), the
/// filter keeps roughly half the stream (so the selection vector is
/// non-trivial in both directions), and the arithmetic and comparison
/// after the filter exercise the selection-carrying dense kernels. The
/// terminal `count` makes the answer a single integer any kernel
/// miscount would shift.
fn filter_query(scale: Scale) -> String {
    let n = scale.arrays;
    format!(
        "select extract(c) \
         from sp a, sp b1, sp c \
         where c=sp(streamof(sum(merge({{b1}}))), 'bg', 0) \
         and b1=sp(streamof(count(cmp(arith(filter(arith(arith(arith(extract(a), '*', 3), '+', 1), '-', 1), '>', {half}), '*', 2), '<', {cap}))), 'bg', 2) \
         and a=sp(streamof(iota(1,{n})),'bg',1);",
        half = 3 * n / 2,
        cap = 7 * n,
    )
}

/// The relay-pass query: a two-SP pipeline whose *upstream* receiver
/// re-emits — `arith('*',3) → filter('>', 3n/2)` keeps roughly half the
/// stream — feeding a downstream `sum` fold. With the columnar pass on,
/// the upstream SP relays survivor rows as shared column handles across
/// the b→c stream channel: one decomposition at the source, zero-copy
/// hand-off at the far end, and the downstream fold absorbs the
/// delivered column views without re-marshaling.
fn relay_query(scale: Scale) -> String {
    let n = scale.arrays;
    format!(
        "select extract(c) \
         from sp a, sp b1, sp c \
         where c=sp(streamof(sum(extract(b1))), 'bg', 0) \
         and b1=sp(filter(arith(extract(a), '*', 3), '>', {half}), 'bg', 2) \
         and a=sp(streamof(iota(1,{n})),'bg',1);",
        half = 3 * n as i64 / 2,
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

/// The commit the report was produced from, for traceability of
/// archived sweeps; `"unknown"` outside a git work tree.
fn git_commit() -> String {
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

/// Prepares a batch-pass pipeline at the element-dense scale for one
/// chain-execution tier: the interpreted per-element reference
/// (`fuse: false`), the fused per-element scalar path, or the fused
/// columnar batch path. Preparation (spec construction, parse, bind,
/// placement) happens here, outside the timed region — it is identical
/// for every tier, and on sub-second legs a shared fixed cost inside
/// the timer would compress the ratio between them.
fn batch_points(
    query: fn(Scale) -> String,
    arrays: u64,
    fuse: bool,
    columnar: bool,
) -> Result<(Scale, Vec<SweepPoint>), ScsqError> {
    let spec = HardwareSpec::lofar();
    let scale = columnar_scale(arrays);
    let mut scsq = Scsq::with_spec(spec.clone());
    let plan = scsq.prepare(&query(scale))?;
    let buffer = 50_000u64;
    let points = vec![SweepPoint {
        series: 0,
        x: buffer as f64,
        plan,
        options: RunOptions {
            mpi_buffer: buffer,
            service_jitter: JITTER,
            coalesce: false,
            fuse,
            columnar,
            ..RunOptions::default()
        },
        spec,
    }];
    Ok((scale, points))
}

/// Runs a prepared batch-pass tier (jittered service times, so trains
/// provably cannot form and every delivery walks the per-event path).
fn batch_run(
    label: &'static str,
    scale: Scale,
    points: &[SweepPoint],
) -> Result<Vec<Series>, ScsqError> {
    sweep(
        &[label],
        points,
        scale,
        // The query's actual answer (the pipeline's summed total): any
        // miscount by a column kernel shifts it, which the cross-tier
        // equality check below then catches.
        |r| {
            r.values()
                .iter()
                .map(|v| v.as_real().unwrap_or(f64::NAN))
                .sum::<f64>()
        },
        1,
    )
}

/// Exits the process with the workload error (shared by the batch-pass
/// helpers, which run outside `main`'s closures).
fn fail(e: ScsqError) -> ! {
    eprintln!("perfstat workload failed: {e}");
    std::process::exit(1);
}

/// Times one batch-pass leg: `reps` runs, keeping the fastest wall —
/// the run least perturbed by the host — because a single scheduler
/// hiccup on a sub-second leg can swing a ratio by tens of percent.
/// The simulation itself is deterministic, so every repetition must
/// produce the same series; a mismatch aborts the report.
fn timed_leg(
    label: &'static str,
    query: fn(Scale) -> String,
    arrays: u64,
    reps: usize,
    fuse: bool,
    columnar: bool,
) -> (f64, Vec<Series>) {
    let (scale, points) = batch_points(query, arrays, fuse, columnar).unwrap_or_else(|e| fail(e));
    let mut best: Option<(f64, Vec<Series>)> = None;
    for _ in 0..reps {
        let t = Instant::now();
        let series = batch_run(label, scale, &points).unwrap_or_else(|e| fail(e));
        let wall = t.elapsed().as_secs_f64();
        match &best {
            Some((_, prev)) if *prev != series => {
                eprintln!(
                    "perfstat workload failed: {label} leg (fuse={fuse}, \
                     columnar={columnar}) is not deterministic across repetitions"
                );
                std::process::exit(1);
            }
            Some((w, _)) if *w <= wall => {}
            _ => best = Some((wall, series)),
        }
    }
    best.expect("at least one repetition ran")
}

/// One leg's untimed accounting run: the query answer, completion
/// time, RNG jitter-draw count and columnar batch count. The three
/// legs of a pass must agree on everything but the batch count — that
/// is the determinism contract the columnar bulk-charging path upholds.
#[derive(Debug, PartialEq)]
struct LegAccounting {
    answer: Vec<Value>,
    finished_ns: u64,
    jitter_draws: u64,
    columnar_batches: u64,
}

fn leg_accounting(
    query: fn(Scale) -> String,
    arrays: u64,
    fuse: bool,
    columnar: bool,
) -> LegAccounting {
    let (_, points) = batch_points(query, arrays, fuse, columnar).unwrap_or_else(|e| fail(e));
    let p = &points[0];
    let r = p.plan.run(&p.spec, &p.options).unwrap_or_else(|e| fail(e));
    LegAccounting {
        answer: r.values().to_vec(),
        finished_ns: r.finished().as_nanos(),
        jitter_draws: r.stats().jitter_draws,
        columnar_batches: r.stats().columnar_batches,
    }
}

/// Runs the three accounting legs of one batch pass and checks the
/// determinism contract: identical answer, completion time and RNG
/// draw count on every leg; batches absorbed only by the columnar leg.
/// Returns the columnar leg's accounting and whether the contract held.
fn pass_accounting(label: &str, query: fn(Scale) -> String, arrays: u64) -> (LegAccounting, bool) {
    let interp = leg_accounting(query, arrays, false, false);
    let scalar = leg_accounting(query, arrays, true, false);
    let on = leg_accounting(query, arrays, true, true);
    let agree = |a: &LegAccounting, b: &LegAccounting| {
        a.answer == b.answer && a.finished_ns == b.finished_ns && a.jitter_draws == b.jitter_draws
    };
    let ok = agree(&interp, &scalar)
        && agree(&scalar, &on)
        && interp.columnar_batches == 0
        && scalar.columnar_batches == 0
        && on.columnar_batches > 0;
    if !ok {
        eprintln!(
            "ERROR: {label} accounting diverges across legs: \
             interpreted={interp:?} fused-scalar={scalar:?} columnar={on:?}"
        );
    }
    (on, ok)
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

    // The jittered pass: every element takes the fused per-event path.
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

    // The batch passes: element-dense batches through the interpreted
    // per-element reference, the fused per-element scalar path, and the
    // fused columnar batch path — once over the take-sum pipeline and
    // once over the filter-heavy pipeline. A short untimed run of each
    // pipeline first, so the first timed leg does not absorb the pass's
    // first-touch costs and skew the ratios.
    let columnar_arrays: u64 = if smoke { 150_000 } else { 1_000_000 };
    let columnar_reps: usize = 3;
    for query in [
        columnar_query as fn(Scale) -> String,
        filter_query,
        relay_query,
    ] {
        let (scale, points) =
            batch_points(query, columnar_arrays / 10, true, true).unwrap_or_else(|e| fail(e));
        batch_run("warm-up", scale, &points).unwrap_or_else(|e| fail(e));
    }
    let take_sum = |fuse, columnar| {
        timed_leg(
            "take-sum columnar",
            columnar_query,
            columnar_arrays,
            columnar_reps,
            fuse,
            columnar,
        )
    };
    let (columnar_ref_s, columnar_ref) = take_sum(false, false);
    let (columnar_scalar_s, columnar_scalar) = take_sum(true, false);
    let (columnar_on_s, columnar_on) = take_sum(true, true);
    // The headline ratio is against the interpreted per-element chain —
    // the byte-identity reference the columnar path is proven against;
    // the fused-scalar wall is reported so the fusion and columnar
    // contributions stay separable.
    let columnar_speedup = columnar_ref_s / columnar_on_s;

    let filter_heavy = |fuse, columnar| {
        timed_leg(
            "filter columnar",
            filter_query,
            columnar_arrays,
            columnar_reps,
            fuse,
            columnar,
        )
    };
    let (filter_ref_s, filter_ref) = filter_heavy(false, false);
    let (filter_scalar_s, filter_scalar) = filter_heavy(true, false);
    let (filter_on_s, filter_on) = filter_heavy(true, true);
    let filter_speedup = filter_ref_s / filter_on_s;

    // The relay pass: a two-SP pipeline whose upstream chain re-emits
    // survivor rows as column handles across the stream channel, folded
    // downstream. Its gate is against the fused *scalar* leg — the
    // relay's gain must come from the columnar hand-off itself, not
    // from fusion.
    let relay = |fuse, columnar| {
        timed_leg(
            "relay columnar",
            relay_query,
            columnar_arrays,
            columnar_reps,
            fuse,
            columnar,
        )
    };
    let (relay_ref_s, relay_ref) = relay(false, false);
    let (relay_scalar_s, relay_scalar) = relay(true, false);
    let (relay_on_s, relay_on) = relay(true, true);
    let relay_speedup = relay_scalar_s / relay_on_s;

    // Accounting runs: one untimed execution per leg, proving the RNG
    // and simulated-time contract and counting absorbed batches.
    let (columnar_acct, columnar_acct_ok) =
        pass_accounting("take-sum", columnar_query, columnar_arrays);
    let (filter_acct, filter_acct_ok) = pass_accounting("filter", filter_query, columnar_arrays);
    let (relay_acct, relay_acct_ok) = pass_accounting("relay", relay_query, columnar_arrays);
    let accounting_ok = columnar_acct_ok && filter_acct_ok && relay_acct_ok;

    let identical = per_event == coalesced
        && coalesced == parallel
        && jittered == jittered_control
        && observed_identical
        && columnar_ref == columnar_scalar
        && columnar_scalar == columnar_on
        && filter_ref == filter_scalar
        && filter_scalar == filter_on
        && relay_ref == relay_scalar
        && relay_scalar == relay_on;
    if !identical {
        eprintln!(
            "ERROR: coalesced/parallel/jittered/observed/columnar/filter series differ from \
             their references"
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
    if columnar_speedup < 1.3 {
        eprintln!(
            "ERROR: take-sum columnar pass fell below its 1.3x floor ({columnar_ref_s:.3}s \
             interpreted vs {columnar_on_s:.3}s columnar)"
        );
    }
    // Gate at 1.9, not 2.0: the measured ratio runs ~2.2–2.3x, but one
    // CI run landed at 2.008 — inside host noise of a 2.0 gate. 1.9
    // still trips on any real (>10%) regression without flaking on
    // scheduler jitter.
    if filter_speedup < 1.9 {
        eprintln!(
            "ERROR: filter columnar pass fell below its 1.9x floor ({filter_ref_s:.3}s \
             interpreted vs {filter_on_s:.3}s columnar)"
        );
    }
    if relay_speedup < 1.3 {
        eprintln!(
            "ERROR: relay columnar pass fell below its 1.3x floor ({relay_scalar_s:.3}s \
             fused scalar vs {relay_on_s:.3}s columnar)"
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
    let commit = git_commit();
    let sweep_arrays = perf_scale(smoke).arrays;
    let json = format!(
        "{{\n  \"workload\": \"fig6 buffer sweep + fig15 n-sweep, 3 MB arrays x{sweep_arrays}\",\n  \
         \"git_commit\": \"{commit}\",\n  \
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
         \"columnar_batch\": {{ \"workload\": {{ \"pipeline\": \"take-sum\", \"elements\": {columnar_arrays}, \"elem_marshaled_bytes\": 9, \"mpi_buffer\": 50000, \"service_jitter\": {JITTER}, \"reps\": \"min of {columnar_reps}\" }}, \"wall_interpreted_s\": {columnar_ref_s:.4}, \"wall_fused_scalar_s\": {columnar_scalar_s:.4}, \"wall_columnar_s\": {columnar_on_s:.4}, \"finished_ns\": {c_fin}, \"jitter_draws\": {c_draws}, \"columnar_batches\": {c_batches} }},\n  \
         \"columnar_speedup\": {columnar_speedup:.3},\n  \
         \"filter_batch\": {{ \"workload\": {{ \"pipeline\": \"arith x3, filter, arith, cmp, count\", \"elements\": {columnar_arrays}, \"elem_marshaled_bytes\": 9, \"mpi_buffer\": 50000, \"service_jitter\": {JITTER}, \"reps\": \"min of {columnar_reps}\" }}, \"wall_interpreted_s\": {filter_ref_s:.4}, \"wall_fused_scalar_s\": {filter_scalar_s:.4}, \"wall_columnar_s\": {filter_on_s:.4}, \"finished_ns\": {f_fin}, \"jitter_draws\": {f_draws}, \"columnar_batches\": {f_batches} }},\n  \
         \"filter_speedup\": {filter_speedup:.3},\n  \
         \"relay_batch\": {{ \"workload\": {{ \"pipeline\": \"arith-filter relay -> sum\", \"elements\": {columnar_arrays}, \"elem_marshaled_bytes\": 9, \"mpi_buffer\": 50000, \"service_jitter\": {JITTER}, \"reps\": \"min of {columnar_reps}\" }}, \"wall_interpreted_s\": {relay_ref_s:.4}, \"wall_fused_scalar_s\": {relay_scalar_s:.4}, \"wall_columnar_s\": {relay_on_s:.4}, \"finished_ns\": {r_fin}, \"jitter_draws\": {r_draws}, \"columnar_batches\": {r_batches} }},\n  \
         \"relay_speedup\": {relay_speedup:.3},\n  \
         \"accounting_identical\": {accounting_ok},\n  \
         \"per_event_events_per_s\": {per_event_eps:.0},\n  \
         \"coalesce_speedup\": {coalesce_speedup:.3},\n  \
         \"coalesce_workload\": {{ \"sweep\": \"fig6 buffers x2 + fig15 n=1..4\", \"array_bytes\": 3000000, \"arrays\": {sweep_arrays}, \"service_jitter\": 0.0 }},\n  \
         \"coalesce_points\": [\n    {coalesce_points}\n  ],\n  \
         \"parallel_speedup\": {parallel_speedup}{parallel_note}\n}}\n",
        pe_eps = events / per_event_s,
        co_eps = events / coalesced_s,
        pa_eps = events / parallel_s,
        c_fin = columnar_acct.finished_ns,
        c_draws = columnar_acct.jitter_draws,
        c_batches = columnar_acct.columnar_batches,
        f_fin = filter_acct.finished_ns,
        f_draws = filter_acct.jitter_draws,
        f_batches = filter_acct.columnar_batches,
        r_fin = relay_acct.finished_ns,
        r_draws = relay_acct.jitter_draws,
        r_batches = relay_acct.columnar_batches,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("wrote {out_path}");
    if !identical
        || !accounting_ok
        || columnar_speedup < 1.3
        || filter_speedup < 1.9
        || relay_speedup < 1.3
        || observability_overhead >= overhead_gate
    {
        std::process::exit(1);
    }
}
