//! Figure 6: intra-BlueGene point-to-point streaming bandwidth vs MPI
//! stream buffer size, single vs double buffering.
//!
//! §3.1: node `a` (BlueGene node 1) generates a finite stream of 3 MB
//! arrays; node `b` (BlueGene node 0) counts them; only the count leaves
//! the BlueGene. The paper reports: optimum at a 1000-byte buffer,
//! degradation below (1 KB minimum torus message) and above (cache
//! misses), and double buffering paying off for large buffers.

use crate::{sweep, Scale, SweepPoint};
use scsq_core::{HardwareSpec, NodeId, RunOptions, Scsq, ScsqError};
use scsq_sim::Series;

/// The paper's point-to-point query (§3.1), parameterized on scale.
pub fn query(scale: Scale) -> String {
    format!(
        "select extract(b) \
         from sp a, sp b \
         where b=sp(streamof(count(extract(a))), 'bg', 0) \
         and a=sp(gen_array({bytes},{n}),'bg',1);",
        bytes = scale.array_bytes,
        n = scale.arrays
    )
}

/// Runs the Figure 6 sweep; returns one series per buffering mode, with
/// x = buffer size (bytes) and y = streaming bandwidth into node b
/// (MB/s). `jobs` workers run it (`jobs = 1` runs sequentially; the
/// result is bit-identical for every `jobs` value), with `base` run
/// options under the swept buffer size and buffering mode (a base with
/// `coalesce` or `columnar` off selects a reference path, bit-identical
/// too — it only changes the wall-clock).
///
/// The query text does not depend on the swept knobs, so the whole
/// figure — both buffering modes, every buffer size, every repetition —
/// executes one prepared plan.
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
    let plan = scsq.prepare(&query(scale))?;
    let labels = ["single buffering", "double buffering"];
    let mut points = Vec::with_capacity(2 * buffers.len());
    for (si, double) in [(0, false), (1, true)] {
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
    sweep(
        &labels,
        &points,
        scale,
        |r| r.bandwidth_into(NodeId::bg(0)) / 1e6,
        jobs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_has_the_paper_shape() {
        let spec = HardwareSpec::lofar();
        let scale = Scale::quick();
        let buffers = [100u64, 1_000, 100_000, 1_000_000];
        let series = run(&spec, scale, &buffers, 1, &RunOptions::default()).unwrap();
        let single = &series[0];
        let double = &series[1];

        // The optimum is at 1000 bytes for both modes (paper: "the
        // optimal buffer size is 1000 bytes for both single and double
        // buffering").
        assert_eq!(single.peak().unwrap().0, 1_000.0, "{single:?}");
        assert_eq!(double.peak().unwrap().0, 1_000.0, "{double:?}");

        // Sub-1K buffers collapse (1 KB torus minimum message).
        assert!(double.y_at(100.0).unwrap() < 0.3 * double.y_at(1_000.0).unwrap());

        // Large buffers degrade (cache misses) but far less than tiny
        // ones.
        let at_peak = double.y_at(1_000.0).unwrap();
        let at_1m = double.y_at(1_000_000.0).unwrap();
        assert!(at_1m < at_peak, "cache-miss drop-off missing");
        assert!(at_1m > 0.4 * at_peak, "drop-off too steep");

        // Double buffering pays off for large buffers.
        assert!(double.y_at(100_000.0).unwrap() > 1.1 * single.y_at(100_000.0).unwrap());
    }
}
