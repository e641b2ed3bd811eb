//! Figure 8: intra-BlueGene stream-merging bandwidth for the two node
//! selections of Figure 7, vs MPI stream buffer size.
//!
//! §3.1: generators `a` and `b` stream 3 MB arrays into `c` (node 0),
//! which counts the merged stream. In the *sequential* selection
//! (Fig 7A: a=node 1, b=node 2) b's messages are routed through a's
//! busy communication co-processor; in the *balanced* selection (Fig 7B:
//! a=node 1, b=node 4) both flows reach c directly. The paper reports:
//! bandwidth depends strongly on the node selection (up to ~60 % better
//! balanced, §5), double buffering matters less than for point-to-point,
//! and merging needs much larger buffers (co-processor switch penalty).

use crate::{sweep, Scale, SweepPoint};
use scsq_core::{HardwareSpec, NodeId, RunOptions, Scsq, ScsqError};
use scsq_sim::Series;

/// Node selections of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Fig 7A: x=1, y=2 — b routes through a.
    Sequential,
    /// Fig 7B: x=1, y=4 — independent routes.
    Balanced,
}

impl Selection {
    /// The node number for generator b.
    pub fn y(self) -> usize {
        match self {
            Selection::Sequential => 2,
            Selection::Balanced => 4,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Selection::Sequential => "sequential",
            Selection::Balanced => "balanced",
        }
    }
}

/// The paper's stream-merging query (§3.1) for a node selection.
pub fn query(scale: Scale, selection: Selection) -> String {
    format!(
        "select extract(c) \
         from sp a, sp b, sp c \
         where c=sp(count(merge({{a,b}})), 'bg',0) \
         and a=sp(gen_array({bytes},{n}),'bg',1) \
         and b=sp(gen_array({bytes},{n}),'bg',{y});",
        bytes = scale.array_bytes,
        n = scale.arrays,
        y = selection.y()
    )
}

/// Runs the Figure 8 sweep: four series (selection × buffering), with
/// x = buffer size (bytes) and y = total streaming input bandwidth at
/// node c (MB/s), on `jobs` workers (bit-identical for every `jobs`
/// value) with `base` run options under the swept buffer size and
/// buffering mode. One prepared plan per node selection serves both
/// buffering modes and every buffer size.
///
/// # Errors
///
/// Propagates query errors.
pub fn run(
    spec: &HardwareSpec,
    scale: Scale,
    buffers: &[u64],
    jobs: usize,
    base: &RunOptions,
) -> Result<Vec<Series>, ScsqError> {
    let mut scsq = Scsq::with_spec(spec.clone());
    let mut labels = Vec::new();
    let mut points = Vec::with_capacity(4 * buffers.len());
    for selection in [Selection::Sequential, Selection::Balanced] {
        let plan = scsq.prepare(&query(scale, selection))?;
        for (buffering, double) in [("single", false), ("double", true)] {
            let si = labels.len();
            labels.push(format!("{} / {buffering} buffering", selection.label()));
            for &buffer in buffers {
                points.push(SweepPoint {
                    series: si,
                    x: buffer as f64,
                    plan: plan.clone(),
                    options: RunOptions {
                        mpi_buffer: buffer,
                        mpi_double: double,
                        ..base.clone()
                    },
                    spec: spec.clone(),
                });
            }
        }
    }
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
    sweep(
        &labels,
        &points,
        scale,
        |r| r.bandwidth_into(NodeId::bg(0)) / 1e6,
        jobs,
    )
}

/// The §5 headline: the best balanced-over-sequential bandwidth ratio
/// across the sweep ("stream merging performs up to 60 % better if no
/// busy intermediate nodes are involved").
pub fn best_balanced_gain(series: &[Series]) -> f64 {
    let find = |label: &str| {
        series
            .iter()
            .find(|s| s.label() == label)
            .unwrap_or_else(|| panic!("missing series {label}"))
    };
    let seq = find("sequential / double buffering");
    let bal = find("balanced / double buffering");
    seq.points()
        .iter()
        .zip(bal.points())
        .map(|((_, s), (_, b))| b / s)
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shows_topology_effects() {
        let spec = HardwareSpec::lofar();
        let scale = Scale::quick();
        let buffers = [1_000u64, 100_000, 1_000_000];
        let series = run(&spec, scale, &buffers, 1, &RunOptions::default()).unwrap();
        assert_eq!(series.len(), 4);
        let bal_double = series
            .iter()
            .find(|s| s.label() == "balanced / double buffering")
            .unwrap();
        let seq_double = series
            .iter()
            .find(|s| s.label() == "sequential / double buffering")
            .unwrap();

        // Balanced beats sequential at large buffers (paper obs. 1).
        let b = bal_double.y_at(1_000_000.0).unwrap();
        let s = seq_double.y_at(1_000_000.0).unwrap();
        assert!(b > 1.2 * s, "balanced {b:.1} vs sequential {s:.1} MB/s");

        // Merging needs much larger buffers than point-to-point: the
        // 1000-byte point is far below the 100 KB point (paper obs. 3).
        assert!(
            bal_double.y_at(1_000.0).unwrap() < 0.5 * bal_double.y_at(100_000.0).unwrap(),
            "{bal_double:?}"
        );

        // The headline gain is in the right ballpark (paper: up to 60 %).
        let gain = best_balanced_gain(&series);
        assert!(gain > 1.3 && gain < 2.2, "gain={gain:.2}");
    }
}
