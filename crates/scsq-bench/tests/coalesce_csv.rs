//! Every figure pipeline must render byte-identical CSV whether the
//! train-coalescing fast path is on or off: the coalescer may only
//! change wall-clock time, never a figure. The coalesced CSV must also
//! equal the figure's golden file under `golden/`, so a figure that
//! drifts between commits fails here too, not only a disagreement
//! between the two paths of one build.

use scsq_bench::{ablation, expensive, fig15, fig6, fig8, scaling, series_to_csv, Scale};
use scsq_core::{HardwareSpec, RunOptions};
use scsq_sim::Series;

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

/// Coalesced CSV == per-event CSV == the golden file.
fn assert_csv(on: &[Series], off: &[Series], golden: &str) {
    let on = series_to_csv(on);
    assert_eq!(on, series_to_csv(off), "coalesced vs per-event");
    assert_eq!(on, golden, "coalesced vs golden");
}

#[test]
fn fig6_csv_is_identical() {
    let spec = HardwareSpec::lofar();
    let buffers = [100u64, 1_000, 100_000];
    let on = fig6::run(&spec, scale(), &buffers, 1, &coalesced()).unwrap();
    let off = fig6::run(&spec, scale(), &buffers, 1, &per_event()).unwrap();
    assert_csv(&on, &off, include_str!("golden/fig6.csv"));
}

#[test]
fn fig8_csv_is_identical() {
    let spec = HardwareSpec::lofar();
    let buffers = [1_000u64, 10_000];
    let on = fig8::run(&spec, scale(), &buffers, 1, &coalesced()).unwrap();
    let off = fig8::run(&spec, scale(), &buffers, 1, &per_event()).unwrap();
    assert_csv(&on, &off, include_str!("golden/fig8.csv"));
}

#[test]
fn fig15_csv_is_identical() {
    let spec = HardwareSpec::lofar();
    let on = fig15::run(&spec, scale(), &[1, 4], 1, &coalesced()).unwrap();
    let off = fig15::run(&spec, scale(), &[1, 4], 1, &per_event()).unwrap();
    assert_csv(&on, &off, include_str!("golden/fig15.csv"));
}

#[test]
fn ablation_csv_is_identical() {
    let spec = HardwareSpec::lofar();
    let on = ablation::run(&spec, scale(), &[4], 1, &coalesced()).unwrap();
    let off = ablation::run(&spec, scale(), &[4], 1, &per_event()).unwrap();
    assert_csv(&on, &off, include_str!("golden/ablation.csv"));
}

#[test]
fn scaling_csv_is_identical() {
    let on = scaling::run(scale(), &[4], 1, &coalesced()).unwrap();
    let off = scaling::run(scale(), &[4], 1, &per_event()).unwrap();
    assert_csv(&on, &off, include_str!("golden/scaling.csv"));
}

#[test]
fn expensive_csv_is_identical() {
    let spec = HardwareSpec::lofar();
    let sizes = [100_000u64, 1_000_000];
    let on = expensive::run(&spec, scale(), &sizes, 1, &coalesced()).unwrap();
    let off = expensive::run(&spec, scale(), &sizes, 1, &per_event()).unwrap();
    assert_csv(&on, &off, include_str!("golden/expensive.csv"));
}
