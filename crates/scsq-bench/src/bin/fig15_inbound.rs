//! Regenerates paper Figure 15: BlueGene inbound streaming bandwidth of
//! Queries 1–6 vs the number of back-end generator RPs.
//!
//! Usage: `fig15_inbound [--quick] [--csv] [--jobs N] [--metrics PATH] [--profile] [--trace PATH]`
//!
//! `--profile` prints the explain-analyze per-stage table of one
//! representative run (Query 5 at n=4, the paper's peak); `--trace
//! PATH` writes that run's spans in Chrome trace-event format.

use scsq_bench::{
    fig15, parse_jobs, parse_metrics, parse_profile, parse_trace, print_figure,
    profile_representative, series_to_csv, write_hub_metrics, Scale,
};
use scsq_core::{HardwareSpec, RunOptions, Value};

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
    let series = fig15::run_with_jobs(&spec, scale, &ns, jobs, &RunOptions::default())
        .unwrap_or_else(|e| {
            eprintln!("fig15 failed: {e}");
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
            &fig15::query(5, scale),
            &[("n", Value::Integer(4))],
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
                "Figure 15: BG inbound streaming bandwidth, Queries 1-6",
                "n",
                "total inbound streaming bandwidth (Mbps)",
                &series,
            )
        );
        let q5 = &series[4];
        if let Some((x, y)) = q5.peak() {
            println!("# Query 5 peaks at {y:.0} Mbps (n={x:.0}); paper: ~920 Mbps");
        }
        if let (Some(a), Some(b)) = (q5.y_at(4.0), q5.y_at(5.0)) {
            println!(
                "# Query 5 dip at n=5: {a:.0} -> {b:.0} Mbps (paper: significant dip, 4 I/O nodes)"
            );
        }
    }
}
