//! §5's other open item: continuous queries with expensive functions.
//! Compares a single-node FFT pipeline with the paper's radix2
//! distribution over the array-size sweep.
//!
//! Usage: `expensive_functions [--quick] [--csv] [--jobs N] [--metrics PATH] [--profile] [--trace PATH]`
//! (see [`scsq_bench::figure`]); the representative run is the
//! distributed radix2 plan at 1 MB arrays.

use scsq_bench::figure::{self, Figure, Panel, Representative};
use scsq_bench::{expensive, Scale};
use scsq_core::{HardwareSpec, RunOptions};

fn main() {
    let quick = Scale {
        arrays: 20,
        ..Scale::quick()
    };
    figure::main(quick, |scale, jobs| {
        let spec = HardwareSpec::lofar();
        let sizes = [10_000u64, 50_000, 200_000, 500_000, 1_000_000, 3_000_000];
        let series = expensive::run(&spec, scale, &sizes, jobs, &RunOptions::default())?;
        let footer = expensive::speedups(&series)
            .into_iter()
            .map(|(x, s)| format!("# {x:>9.0} B arrays: radix2 speedup {s:.2}x\n"))
            .collect();
        Ok(Figure {
            panels: vec![Panel {
                title: "Expensive functions (paper §5): single-node fft vs distributed radix2",
                x_label: "array (B)",
                y_label: "query time (ms, lower is better)",
                series,
            }],
            footer,
            representative: Representative {
                query: expensive::radix2_query(1_000_000, scale.arrays),
                spec,
                bindings: vec![],
            },
        })
    });
}
