//! Regenerates paper Figure 6: intra-BlueGene point-to-point streaming
//! bandwidth vs stream buffer size, single vs double buffering.
//!
//! Usage: `fig6_p2p [--quick] [--csv] [--jobs N] [--metrics PATH] [--profile] [--trace PATH]`
//! (see [`scsq_bench::figure`]).

use scsq_bench::figure::{self, Figure, Panel, Representative};
use scsq_bench::{buffer_sweep, fig6, Scale};
use scsq_core::{HardwareSpec, RunOptions};

fn main() {
    figure::main(Scale::quick(), |scale, jobs| {
        let spec = HardwareSpec::lofar();
        let series = fig6::run(&spec, scale, &buffer_sweep(), jobs, &RunOptions::default())?;
        let footer = series
            .iter()
            .map(|s| {
                let (x, y) = s.peak().expect("non-empty sweep");
                format!(
                    "# {}: optimum {y:.1} MB/s at {x:.0}-byte buffers\n",
                    s.label()
                )
            })
            .collect();
        Ok(Figure {
            panels: vec![Panel {
                title: "Figure 6: intra-BG point-to-point streaming",
                x_label: "buffer (B)",
                y_label: "streaming bandwidth into node b (MB/s)",
                series,
            }],
            footer,
            representative: Representative {
                query: fig6::query(scale),
                spec,
                bindings: vec![],
            },
        })
    });
}
