//! The §5 open question, answered by the model: inbound streaming at
//! 2× and 4× the paper's partition size, for both sender strategies,
//! plus the sender-host sweep that quantifies "co-locate back-end RPs
//! until saturation".
//!
//! Usage: `futurework_scaling [--quick] [--csv] [--jobs N] [--metrics PATH] [--profile] [--trace PATH]`
//!
//! `--profile` prints the explain-analyze per-stage table of one
//! representative run (the co-located strategy on the paper partition);
//! `--trace PATH` writes that run's spans in Chrome trace-event format.

use scsq_bench::{
    parse_jobs, parse_metrics, parse_profile, parse_trace, print_figure, profile_representative,
    scaling, series_to_csv, write_hub_metrics, Scale,
};
use scsq_core::RunOptions;

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

    let ns: Vec<u32> = vec![1, 2, 4, 8, 16];
    let series =
        scaling::run_with_jobs(scale, &ns, jobs, &RunOptions::default()).unwrap_or_else(|e| {
            eprintln!("scaling study failed: {e}");
            std::process::exit(1);
        });
    let hosts =
        scaling::run_host_sweep_with_jobs(scale, &[1, 2, 4, 8, 16], jobs, &RunOptions::default())
            .unwrap_or_else(|e| {
                eprintln!("host sweep failed: {e}");
                std::process::exit(1);
            });
    if let Some(path) = &metrics {
        write_hub_metrics(path).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
    }
    if profile || trace.is_some() {
        let (_, spec) = &scaling::partitions()[0];
        profile_representative(
            spec,
            &scaling::inbound_query(scale, "1"),
            &[],
            profile,
            trace.as_deref(),
        );
    }

    if csv {
        print!("{}", series_to_csv(&series));
        print!("{}", series_to_csv(std::slice::from_ref(&hosts)));
        return;
    }
    print!(
        "{}",
        print_figure(
            "Future work (paper §5): inbound bandwidth vs partition size",
            "n",
            "aggregate inbound bandwidth (Mbps)",
            &series,
        )
    );
    println!();
    print!(
        "{}",
        print_figure(
            "Future work: sender hosts for 16 streams on the quad partition",
            "hosts",
            "aggregate inbound bandwidth (Mbps)",
            std::slice::from_ref(&hosts),
        )
    );
    if let Some((k, y)) = hosts.peak() {
        println!("# optimum: {k:.0} sender hosts -> {y:.0} Mbps (co-locate until saturation, then add hosts)");
    }
}
