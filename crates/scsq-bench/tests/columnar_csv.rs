//! Every figure pipeline must render byte-identical CSV whether
//! delivered batches take the columnar fast path or the per-element
//! path: the columnar kernels may only change wall-clock time, never a
//! figure.
//!
//! The scale is chosen so the columnar pass actually fires: arrays
//! small enough that one MPI buffer period delivers many of them in a
//! single batch (the pass declines batches of fewer than two
//! elements), with coalescing off so every delivery walks the per-event
//! path.

use scsq_bench::{fig15, fig6, series_to_csv, Scale};
use scsq_core::{HardwareSpec, RunOptions};

/// The columnar deliver path (the shipping default), per event.
fn columnar() -> RunOptions {
    RunOptions {
        coalesce: false,
        ..RunOptions::default()
    }
}

/// The same chains driven one element at a time.
fn scalar() -> RunOptions {
    RunOptions {
        columnar: false,
        ..columnar()
    }
}

/// Small arrays, so a 5 kB–50 kB buffer period batches 5–50 of them.
fn dense_scale() -> Scale {
    Scale {
        array_bytes: 1_000,
        arrays: 30,
        ..Scale::quick()
    }
}

#[test]
fn fig6_csv_is_identical_under_columnar() {
    let spec = HardwareSpec::lofar();
    let buffers = [5_000u64, 50_000];
    let on = fig6::run(&spec, dense_scale(), &buffers, 1, &columnar()).unwrap();
    let off = fig6::run(&spec, dense_scale(), &buffers, 1, &scalar()).unwrap();
    assert_eq!(
        series_to_csv(&on).into_bytes(),
        series_to_csv(&off).into_bytes()
    );
}

#[test]
fn fig15_csv_is_identical_under_columnar() {
    let spec = HardwareSpec::lofar();
    let on = fig15::run(&spec, dense_scale(), &[1, 4], 1, &columnar()).unwrap();
    let off = fig15::run(&spec, dense_scale(), &[1, 4], 1, &scalar()).unwrap();
    assert_eq!(
        series_to_csv(&on).into_bytes(),
        series_to_csv(&off).into_bytes()
    );
}
