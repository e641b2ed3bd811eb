//! Ablation: naïve vs topology-aware node selection on an unconstrained
//! inbound workload (the §5 future-work refinement).
//!
//! Usage: `ablation_placement [--quick] [--csv] [--jobs N] [--metrics PATH] [--profile] [--trace PATH]`
//! (see [`scsq_bench::figure`]).

use scsq_bench::figure::{self, Figure, Panel, Representative};
use scsq_bench::{ablation, Scale};
use scsq_core::{HardwareSpec, RunOptions};

fn main() {
    figure::main(Scale::quick(), |scale, jobs| {
        let spec = HardwareSpec::lofar();
        let ns: Vec<u32> = (1..=8).collect();
        Ok(Figure {
            panels: vec![Panel {
                title: "Ablation: node-selection policy on an unconstrained inbound workload",
                x_label: "n",
                y_label: "total inbound streaming bandwidth (Mbps)",
                series: ablation::run(&spec, scale, &ns, jobs, &RunOptions::default())?,
            }],
            footer: String::new(),
            representative: Representative {
                query: ablation::query(scale),
                spec,
                bindings: vec![],
            },
        })
    });
}
