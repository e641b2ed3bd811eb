//! Regenerates paper Figure 8: intra-BlueGene stream-merging bandwidth
//! for the sequential (Fig 7A) vs balanced (Fig 7B) node selections.
//!
//! Usage: `fig8_merge [--quick] [--csv] [--jobs N] [--metrics PATH] [--profile] [--trace PATH]`
//!
//! `--profile` prints the explain-analyze per-stage table of one
//! representative run (the balanced selection); `--trace PATH` writes
//! that run's spans in Chrome trace-event format.

use scsq_bench::{
    buffer_sweep, fig8, parse_jobs, parse_metrics, parse_profile, parse_trace, print_figure,
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
    let series = fig8::run_with_jobs(&spec, scale, &buffer_sweep(), jobs, &RunOptions::default())
        .unwrap_or_else(|e| {
            eprintln!("fig8 failed: {e}");
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
            &fig8::query(scale, fig8::Selection::Balanced),
            &[],
            profile,
            trace.as_deref(),
        );
    }
    if csv {
        print!("{}", series_to_csv(&series));
    } else {
        print!(
            "{}",
            print_figure(
                "Figure 8: intra-BG stream merging, sequential vs balanced node selection",
                "buffer (B)",
                "total streaming input bandwidth at node c (MB/s)",
                &series,
            )
        );
        println!(
            "# balanced beats sequential by up to {:.0}% (paper §5: up to 60%)",
            (fig8::best_balanced_gain(&series) - 1.0) * 100.0
        );
    }
}
