//! # scsq-bench — the figure-regeneration harness
//!
//! One module per result figure of the paper's evaluation (§3), plus the
//! node-selection ablation motivated by §5. Each module builds the
//! paper's SCSQL query texts, sweeps the paper's parameter, repeats each
//! point under jittered hardware specs (the paper's five-repetition
//! protocol), and returns labeled [`scsq_sim::Series`] values ready to
//! print as the figure's rows.
//!
//! Figure binaries, each one call into [`figure::main`] with the same
//! six flags:
//!
//! * `fig6_p2p` — intra-BlueGene point-to-point bandwidth vs stream
//!   buffer size, single vs double buffering (paper Fig 6).
//! * `fig8_merge` — stream-merging bandwidth for the sequential vs
//!   balanced node selections of Fig 7, vs buffer size (paper Fig 8).
//! * `fig15_inbound` — inbound streaming bandwidth of Queries 1–6 vs the
//!   number of back-end generator RPs (paper Fig 15).
//! * `ablation_placement` — naïve vs topology-aware node selection on an
//!   unconstrained inbound workload (§5 future work).
//! * `futurework_scaling` — inbound bandwidth at larger partitions, and
//!   the sender-host sweep (§5 future work).
//! * `expensive_functions` — single-node FFT vs the radix2 distribution
//!   over the array size (§5 future work).

pub mod ablation;
pub mod expensive;
pub mod fig15;
pub mod fig6;
pub mod fig8;
pub mod figure;
pub mod pool;
pub mod scaling;
pub mod serve;

pub use figure::series_to_csv;
pub use pool::run_indexed;

use scsq_core::{HardwareSpec, PreparedQuery, QueryResult, RunOptions, ScsqError};
use scsq_sim::{RunningStats, Series};

/// Shared experiment scale knobs. The paper streams 100 × 3 MB arrays
/// per generator and repeats five times; tests use smaller scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Bytes per generated array (paper: 3_000_000).
    pub array_bytes: u64,
    /// Arrays per generator (paper: 100).
    pub arrays: u64,
    /// Repetitions per point (paper: 5).
    pub reps: u64,
    /// Jitter amplitude applied to hardware rates across repetitions.
    pub jitter: f64,
}

impl Scale {
    /// The paper's full experiment scale.
    pub fn paper() -> Scale {
        Scale {
            array_bytes: 3_000_000,
            arrays: 100,
            reps: 5,
            jitter: 0.02,
        }
    }

    /// A reduced scale for fast tests and the binaries' `--quick`.
    pub fn quick() -> Scale {
        Scale {
            array_bytes: 300_000,
            arrays: 10,
            reps: 1,
            jitter: 0.0,
        }
    }
}

/// One cell of a sweep: which series it belongs to, its x coordinate,
/// the compiled plan to run, the runtime options, and the base hardware
/// it runs on. [`sweep`] expands each point into `scale.reps` jobs.
pub struct SweepPoint {
    /// Index into the sweep's label list.
    pub series: usize,
    /// The point's x coordinate.
    pub x: f64,
    /// The compiled plan (prepare once per distinct query text).
    pub plan: PreparedQuery,
    /// Runtime knobs for this point.
    pub options: RunOptions,
    /// The un-jittered hardware specification for this point.
    pub spec: HardwareSpec,
}

/// Executes a sweep's `(point, repetition)` grid — in parallel on `jobs`
/// worker threads — and folds the repetitions of each point into a
/// [`Series`] point carrying mean and standard deviation.
///
/// The assembled series are **bit-identical for every `jobs` value**:
/// each repetition derives its (possibly jittered) hardware spec from
/// its own index, every simulation is single-threaded and deterministic,
/// and [`run_indexed`] returns results in job order regardless of
/// scheduling. `jobs = 1` runs everything inline on the calling thread.
///
/// # Errors
///
/// Propagates the first failing repetition's error (in job order).
pub fn sweep(
    labels: &[&str],
    points: &[SweepPoint],
    scale: Scale,
    metric: impl Fn(&QueryResult) -> f64 + Sync,
    jobs: usize,
) -> Result<Vec<Series>, ScsqError> {
    let reps = scale.reps.max(1);
    let metric = &metric;
    let mut job_list = Vec::with_capacity(points.len() * reps as usize);
    for point in points {
        for rep in 0..reps {
            job_list.push(move || -> Result<f64, ScsqError> {
                // The jitter protocol: repetition r of every point runs
                // on the same perturbed hardware, seeded independently
                // of worker scheduling.
                let result = if scale.jitter > 0.0 {
                    let spec = point.spec.jittered(0xC0FFEE ^ rep, scale.jitter);
                    point.plan.run(&spec, &point.options)?
                } else {
                    point.plan.run(&point.spec, &point.options)?
                };
                // Relaxed adds are order-independent, so recording from
                // worker threads keeps the sweep bit-deterministic.
                scsq_core::metrics::hub().record(&result);
                Ok(metric(&result))
            });
        }
    }
    let results = pool::run_indexed(job_list, jobs);

    let mut series: Vec<Series> = labels.iter().map(|label| Series::new(*label)).collect();
    for (point, chunk) in points.iter().zip(results.chunks(reps as usize)) {
        let mut stats = RunningStats::new();
        for r in chunk {
            match r {
                Ok(y) => stats.push(*y),
                Err(e) => return Err(e.clone()),
            }
        }
        series[point.series].push_with_dev(point.x, stats.mean(), stats.sample_std_dev());
    }
    Ok(series)
}

/// The buffer-size sweep used by Figures 6 and 8.
pub fn buffer_sweep() -> Vec<u64> {
    vec![
        100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
        1_000_000,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_sane() {
        let p = Scale::paper();
        assert_eq!(p.array_bytes, 3_000_000);
        assert_eq!(p.arrays, 100);
        assert_eq!(p.reps, 5);
        let q = Scale::quick();
        assert!(q.array_bytes < p.array_bytes);
    }

    #[test]
    fn buffer_sweep_is_monotone() {
        let s = buffer_sweep();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.contains(&1_000), "the paper's optimal point is swept");
    }
}
