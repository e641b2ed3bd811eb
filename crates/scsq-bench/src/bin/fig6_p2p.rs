//! Regenerates paper Figure 6: intra-BlueGene point-to-point streaming
//! bandwidth vs stream buffer size, single vs double buffering.
//!
//! Usage: `fig6_p2p [--quick] [--csv] [--jobs N] [--metrics PATH] [--profile] [--trace PATH]`
//!
//! `--profile` prints the explain-analyze per-stage table of one
//! representative run; `--trace PATH` writes that run's simulated-
//! timeline spans in Chrome trace-event format.

use scsq_bench::{
    buffer_sweep, fig6, parse_jobs, parse_metrics, parse_profile, parse_trace, print_figure,
    profile_representative, series_to_csv, write_hub_metrics, Scale,
};
use scsq_core::{HardwareSpec, RunOptions};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    let jobs = parse_jobs(&args);
    let metrics = parse_metrics(&args);
    let profile = parse_profile(&args);
    let trace = parse_trace(&args);
    if metrics.is_some() {
        scsq_core::metrics::hub().enable(true);
    }
    let scale = if quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    let spec = HardwareSpec::lofar();
    let series = fig6::run_with_jobs(&spec, scale, &buffer_sweep(), jobs, &RunOptions::default())
        .unwrap_or_else(|e| {
            eprintln!("fig6 failed: {e}");
            std::process::exit(1);
        });
    if let Some(path) = &metrics {
        write_hub_metrics(path).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
    }
    if profile || trace.is_some() {
        profile_representative(&spec, &fig6::query(scale), &[], profile, trace.as_deref());
    }
    if csv {
        print!("{}", series_to_csv(&series));
    } else {
        print!(
            "{}",
            print_figure(
                "Figure 6: intra-BG point-to-point streaming",
                "buffer (B)",
                "streaming bandwidth into node b (MB/s)",
                &series,
            )
        );
        for s in &series {
            let (x, y) = s.peak().expect("non-empty sweep");
            println!(
                "# {}: optimum {y:.1} MB/s at {x:.0}-byte buffers",
                s.label()
            );
        }
    }
}
