//! Ablation: naïve vs topology-aware node selection on an unconstrained
//! inbound workload (the §5 future-work refinement).
//!
//! Usage: `ablation_placement [--quick] [--csv] [--jobs N] [--metrics PATH] [--profile] [--trace PATH]`
//!
//! `--profile` prints the explain-analyze per-stage table of one
//! representative run; `--trace PATH` writes that run's spans in
//! Chrome trace-event format.

use scsq_bench::{
    ablation, parse_jobs, parse_metrics, parse_profile, parse_trace, print_figure,
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
    let ns: Vec<u32> = (1..=8).collect();
    let spec = HardwareSpec::lofar();
    let series = ablation::run_with_jobs(&spec, scale, &ns, jobs, &RunOptions::default())
        .unwrap_or_else(|e| {
            eprintln!("ablation failed: {e}");
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
            &ablation::query(scale),
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
                "Ablation: node-selection policy on an unconstrained inbound workload",
                "n",
                "total inbound streaming bandwidth (Mbps)",
                &series,
            )
        );
    }
}
