//! The parallel sweep executor's contract: running a figure sweep on N
//! worker threads produces series *bit-identical* to the sequential
//! path, and the sweep front-end compiles each distinct query text
//! exactly once no matter how many points and repetitions execute it.

use scsq_bench::{buffer_sweep, expensive, fig15, fig6, sweep, Scale, SweepPoint};
use scsq_core::prelude::*;

#[test]
fn fig6_parallel_series_equal_sequential() {
    let spec = HardwareSpec::lofar();
    let scale = Scale::quick();
    let buffers = buffer_sweep();
    let sequential = fig6::run(&spec, scale, &buffers, 1, &RunOptions::default()).unwrap();
    let parallel = fig6::run(&spec, scale, &buffers, 4, &RunOptions::default()).unwrap();
    assert_eq!(sequential, parallel);
}

#[test]
fn fig15_parallel_series_equal_sequential() {
    let spec = HardwareSpec::lofar();
    let scale = Scale::quick();
    let ns = [1, 2, 3, 4];
    let sequential = fig15::run(&spec, scale, &ns, 1, &RunOptions::default()).unwrap();
    let parallel = fig15::run(&spec, scale, &ns, 4, &RunOptions::default()).unwrap();
    assert_eq!(sequential, parallel);
}

#[test]
fn expensive_parallel_series_equal_sequential() {
    let spec = HardwareSpec::lofar();
    let scale = Scale {
        arrays: 4,
        reps: 2,
        jitter: 0.02,
        ..Scale::quick()
    };
    let sizes = [10_000u64, 100_000];
    let sequential = expensive::run(&spec, scale, &sizes, 1, &RunOptions::default()).unwrap();
    let parallel = expensive::run(&spec, scale, &sizes, 4, &RunOptions::default()).unwrap();
    assert_eq!(sequential, parallel);
}

#[test]
fn jittered_repetitions_stay_deterministic_across_jobs() {
    // Repetition seeds derive from the repetition index, not from worker
    // scheduling, so multi-rep jittered sweeps are parallel-safe too.
    let spec = HardwareSpec::lofar();
    let scale = Scale {
        reps: 3,
        jitter: 0.02,
        ..Scale::quick()
    };
    let buffers = [1_000u64, 100_000];
    let sequential = fig6::run(&spec, scale, &buffers, 1, &RunOptions::default()).unwrap();
    let parallel = fig6::run(&spec, scale, &buffers, 4, &RunOptions::default()).unwrap();
    assert_eq!(sequential, parallel);
    // With jitter and several reps, the spread is real (non-zero sd).
    assert!(sequential
        .iter()
        .any(|s| s.devs().iter().any(|sd| *sd > 0.0)));
}

#[test]
fn a_sweep_compiles_each_query_text_exactly_once() {
    // The §3.1 buffer sweep: 2 buffering modes x 4 buffer sizes x 2
    // repetitions = 16 runs of one query text -> exactly 1 compilation.
    let mut scsq = Scsq::lofar();
    let scale = Scale {
        reps: 2,
        jitter: 0.01,
        ..Scale::quick()
    };
    let plan = scsq.prepare(&fig6::query(scale)).unwrap();
    assert_eq!(scsq.compilations(), 1);

    let mut points = Vec::new();
    for double in [false, true] {
        for &buffer in &[100u64, 1_000, 100_000, 1_000_000] {
            points.push(SweepPoint {
                series: usize::from(double),
                x: buffer as f64,
                plan: plan.clone(),
                options: RunOptions {
                    mpi_buffer: buffer,
                    mpi_double: double,
                    ..RunOptions::default()
                },
                spec: scsq.spec().clone(),
            });
        }
    }
    let series = sweep(
        &["single", "double"],
        &points,
        scale,
        |r| r.bandwidth_into(NodeId::bg(0)),
        4,
    )
    .unwrap();
    assert_eq!(series.len(), 2);
    assert_eq!(series[0].points().len(), 4);
    assert_eq!(
        scsq.compilations(),
        1,
        "16 sweep runs must not recompile the query"
    );
}
