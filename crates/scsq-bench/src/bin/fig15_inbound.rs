//! Regenerates paper Figure 15: BlueGene inbound streaming bandwidth of
//! Queries 1–6 vs the number of back-end generator RPs.
//!
//! Usage: `fig15_inbound [--quick] [--csv] [--jobs N] [--metrics PATH] [--profile] [--trace PATH]`
//! (see [`scsq_bench::figure`]); the representative run is Query 5 at
//! n=4, the paper's peak.

use scsq_bench::figure::{self, Figure, Panel, Representative};
use scsq_bench::{fig15, Scale};
use scsq_core::{HardwareSpec, RunOptions, Value};

fn main() {
    figure::main(Scale::quick(), |scale, jobs| {
        let spec = HardwareSpec::lofar();
        let ns: Vec<u32> = (1..=8).collect();
        let series = fig15::run(&spec, scale, &ns, jobs, &RunOptions::default())?;
        let q5 = &series[4];
        let mut footer = String::new();
        if let Some((x, y)) = q5.peak() {
            footer += &format!("# Query 5 peaks at {y:.0} Mbps (n={x:.0}); paper: ~920 Mbps\n");
        }
        if let (Some(a), Some(b)) = (q5.y_at(4.0), q5.y_at(5.0)) {
            footer += &format!(
                "# Query 5 dip at n=5: {a:.0} -> {b:.0} Mbps (paper: significant dip, 4 I/O nodes)\n"
            );
        }
        Ok(Figure {
            panels: vec![Panel {
                title: "Figure 15: BG inbound streaming bandwidth, Queries 1-6",
                x_label: "n",
                y_label: "total inbound streaming bandwidth (Mbps)",
                series,
            }],
            footer,
            representative: Representative {
                query: fig15::query(5, scale),
                spec,
                bindings: vec![("n", Value::Integer(4))],
            },
        })
    });
}
