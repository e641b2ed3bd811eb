//! §5's other open item: continuous queries with expensive functions.
//! Compares a single-node FFT pipeline with the paper's radix2
//! distribution over the array-size sweep.
//!
//! Usage: `expensive_functions [--quick] [--csv] [--metrics PATH] [--profile] [--trace PATH]`
//!
//! `--profile` prints the explain-analyze per-stage table of one
//! representative run (the distributed radix2 plan at 1 MB arrays);
//! `--trace PATH` writes that run's spans in Chrome trace-event format.

use scsq_bench::{
    expensive, parse_metrics, parse_profile, parse_trace, print_figure, profile_representative,
    series_to_csv, write_hub_metrics, Scale,
};
use scsq_core::HardwareSpec;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    let metrics = parse_metrics(&args);
    let profile = parse_profile(&args);
    let trace = parse_trace(&args);
    if metrics.is_some() {
        scsq_core::metrics::hub().enable(true);
    }
    let scale = if quick {
        Scale {
            arrays: 20,
            ..Scale::quick()
        }
    } else {
        Scale::paper()
    };
    let sizes = [10_000u64, 50_000, 200_000, 500_000, 1_000_000, 3_000_000];
    let spec = HardwareSpec::lofar();
    let series = expensive::run(&spec, scale, &sizes).unwrap_or_else(|e| {
        eprintln!("expensive-function study failed: {e}");
        std::process::exit(1);
    });
    if let Some(path) = &metrics {
        write_hub_metrics(path).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
    }
    if profile || trace.is_some() {
        profile_representative(
            &spec,
            &expensive::radix2_query(1_000_000, scale.arrays),
            &[],
            profile,
            trace.as_deref(),
        );
    }
    if csv {
        print!("{}", series_to_csv(&series));
        return;
    }
    print!(
        "{}",
        print_figure(
            "Expensive functions (paper §5): single-node fft vs distributed radix2",
            "array (B)",
            "query time (ms, lower is better)",
            &series,
        )
    );
    for (x, s) in expensive::speedups(&series) {
        println!("# {x:>9.0} B arrays: radix2 speedup {s:.2}x");
    }
}
