//! Regenerates paper Figure 8: intra-BlueGene stream-merging bandwidth
//! for the sequential (Fig 7A) vs balanced (Fig 7B) node selections.
//!
//! Usage: `fig8_merge [--quick] [--csv] [--jobs N] [--metrics PATH] [--profile] [--trace PATH]`
//! (see [`scsq_bench::figure`]); the representative run is the balanced
//! selection.

use scsq_bench::figure::{self, Figure, Panel, Representative};
use scsq_bench::{buffer_sweep, fig8, Scale};
use scsq_core::{HardwareSpec, RunOptions};

fn main() {
    figure::main(Scale::quick(), |scale, jobs| {
        let spec = HardwareSpec::lofar();
        let series = fig8::run(&spec, scale, &buffer_sweep(), jobs, &RunOptions::default())?;
        let footer = format!(
            "# balanced beats sequential by up to {:.0}% (paper §5: up to 60%)\n",
            (fig8::best_balanced_gain(&series) - 1.0) * 100.0
        );
        Ok(Figure {
            panels: vec![Panel {
                title: "Figure 8: intra-BG stream merging, sequential vs balanced node selection",
                x_label: "buffer (B)",
                y_label: "total streaming input bandwidth at node c (MB/s)",
                series,
            }],
            footer,
            representative: Representative {
                query: fig8::query(scale, fig8::Selection::Balanced),
                spec,
                bindings: vec![],
            },
        })
    });
}
