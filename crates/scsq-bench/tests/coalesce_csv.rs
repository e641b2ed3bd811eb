//! Every figure pipeline must render byte-identical CSV whether the
//! train-coalescing fast path is on or off: the coalescer may only
//! change wall-clock time, never a figure.

use scsq_bench::{ablation, expensive, fig15, fig6, fig8, scaling, series_to_csv, Scale};
use scsq_core::{HardwareSpec, RunOptions};

/// The shipping default: coalescing and the column kernels on.
fn coalesced() -> RunOptions {
    RunOptions::default()
}

/// The per-event reference path.
fn per_event() -> RunOptions {
    RunOptions {
        coalesce: false,
        ..RunOptions::default()
    }
}

fn scale() -> Scale {
    Scale {
        arrays: 4,
        ..Scale::quick()
    }
}

#[test]
fn fig6_csv_is_identical() {
    let spec = HardwareSpec::lofar();
    let buffers = [100u64, 1_000, 100_000];
    let on = fig6::run_with_jobs(&spec, scale(), &buffers, 1, &coalesced()).unwrap();
    let off = fig6::run_with_jobs(&spec, scale(), &buffers, 1, &per_event()).unwrap();
    assert_eq!(
        series_to_csv(&on).into_bytes(),
        series_to_csv(&off).into_bytes()
    );
}

#[test]
fn fig8_csv_is_identical() {
    let spec = HardwareSpec::lofar();
    let buffers = [1_000u64, 10_000];
    let on = fig8::run_with_jobs(&spec, scale(), &buffers, 1, &coalesced()).unwrap();
    let off = fig8::run_with_jobs(&spec, scale(), &buffers, 1, &per_event()).unwrap();
    assert_eq!(
        series_to_csv(&on).into_bytes(),
        series_to_csv(&off).into_bytes()
    );
}

#[test]
fn fig15_csv_is_identical() {
    let spec = HardwareSpec::lofar();
    let on = fig15::run_with_jobs(&spec, scale(), &[1, 4], 1, &coalesced()).unwrap();
    let off = fig15::run_with_jobs(&spec, scale(), &[1, 4], 1, &per_event()).unwrap();
    assert_eq!(
        series_to_csv(&on).into_bytes(),
        series_to_csv(&off).into_bytes()
    );
}

#[test]
fn ablation_csv_is_identical() {
    let spec = HardwareSpec::lofar();
    let on = ablation::run_with_jobs(&spec, scale(), &[4], 1, &coalesced()).unwrap();
    let off = ablation::run_with_jobs(&spec, scale(), &[4], 1, &per_event()).unwrap();
    assert_eq!(
        series_to_csv(&on).into_bytes(),
        series_to_csv(&off).into_bytes()
    );
}

#[test]
fn scaling_csv_is_identical() {
    let on = scaling::run_with_jobs(scale(), &[4], 1, &coalesced()).unwrap();
    let off = scaling::run_with_jobs(scale(), &[4], 1, &per_event()).unwrap();
    assert_eq!(
        series_to_csv(&on).into_bytes(),
        series_to_csv(&off).into_bytes()
    );
}

#[test]
fn expensive_csv_is_identical() {
    let spec = HardwareSpec::lofar();
    let sizes = [100_000u64, 1_000_000];
    let on = expensive::run_with_options(&spec, scale(), &sizes, &coalesced()).unwrap();
    let off = expensive::run_with_options(&spec, scale(), &sizes, &per_event()).unwrap();
    assert_eq!(
        series_to_csv(&on).into_bytes(),
        series_to_csv(&off).into_bytes()
    );
}
