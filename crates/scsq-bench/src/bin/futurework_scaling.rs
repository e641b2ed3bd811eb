//! The §5 open question, answered by the model: inbound streaming at
//! 2× and 4× the paper's partition size, for both sender strategies,
//! plus the sender-host sweep that quantifies "co-locate back-end RPs
//! until saturation".
//!
//! Usage: `futurework_scaling [--quick] [--csv] [--jobs N] [--metrics PATH] [--profile] [--trace PATH]`
//! (see [`scsq_bench::figure`]); the representative run is the
//! co-located strategy on the paper partition.

use scsq_bench::figure::{self, Figure, Panel, Representative};
use scsq_bench::{scaling, Scale};
use scsq_core::RunOptions;

fn main() {
    figure::main(Scale::quick(), |scale, jobs| {
        let base = RunOptions::default();
        let series = scaling::run(scale, &[1, 2, 4, 8, 16], jobs, &base)?;
        let hosts = scaling::run_host_sweep(scale, &[1, 2, 4, 8, 16], jobs, &base)?;
        let footer = hosts.peak().map_or(String::new(), |(k, y)| {
            format!(
                "# optimum: {k:.0} sender hosts -> {y:.0} Mbps \
                 (co-locate until saturation, then add hosts)\n"
            )
        });
        let (_, spec) = scaling::partitions().swap_remove(0);
        Ok(Figure {
            panels: vec![
                Panel {
                    title: "Future work (paper §5): inbound bandwidth vs partition size",
                    x_label: "n",
                    y_label: "aggregate inbound bandwidth (Mbps)",
                    series,
                },
                Panel {
                    title: "Future work: sender hosts for 16 streams on the quad partition",
                    x_label: "hosts",
                    y_label: "aggregate inbound bandwidth (Mbps)",
                    series: vec![hosts],
                },
            ],
            footer,
            representative: Representative {
                query: scaling::inbound_query(scale, "1"),
                spec,
                bindings: vec![],
            },
        })
    });
}
