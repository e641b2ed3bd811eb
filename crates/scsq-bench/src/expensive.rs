//! Expensive stream functions: the other §5 open item.
//!
//! "It is also important to analyze the performance of continuous
//! queries involving expensive functions." The paper's own example of an
//! expensive function is the FFT, and its `radix2` query function shows
//! how SCSQL *parallelizes* one. This study quantifies when that
//! parallelization pays: a single stream process computing `fft` over a
//! stream is compared with the radix2 plan that decimates the stream and
//! runs two half-size FFTs on two compute nodes in parallel.
//!
//! Expected shape: for small arrays the distributed plan loses, for
//! large arrays it wins, with break-even around 1–2 MB arrays. The win
//! is bounded by the radix2 topology itself: `fft(odd(extract(c)))`
//! means *every* half-FFT process subscribes to the **full** source
//! stream and decimates locally, so the source pays double injection —
//! distribution only profits once the O(n log n) FFT compute outgrows
//! that doubled communication.

use crate::{mean_metric, Scale};
use scsq_core::{HardwareSpec, RunOptions, ScsqError};
use scsq_sim::Series;

/// Single-node plan: one SP computes and counts the full FFTs; only the
/// count leaves the BlueGene (so outbound I/O does not mask the
/// computation, the same trick as the paper's §3 queries).
pub fn single_query(bytes: u64, count: u64) -> String {
    format!(
        "select extract(f) from sp src, sp f \
         where f=sp(streamof(count(fft(extract(src)))), 'bg', 1) \
         and src=sp(gen_array({bytes},{count}),'bg',0);"
    )
}

/// Distributed plan: the paper's radix2 shape — each half-FFT SP
/// subscribes to the full source stream and decimates locally (that is
/// what `fft(odd(extract(c)))` means), then a fourth SP combines and
/// counts.
pub fn radix2_query(bytes: u64, count: u64) -> String {
    format!(
        "select extract(d) from sp a, sp b, sp c, sp d \
         where d=sp(streamof(count(radixcombine(merge({{a,b}})))), 'bg', 5) \
         and a=sp(fft(odd(extract(c))), 'bg', 1) \
         and b=sp(fft(even(extract(c))), 'bg', 4) \
         and c=sp(gen_array({bytes},{count}),'bg',0);"
    )
}

/// Sweeps the array size; returns two series (x = array bytes,
/// y = query time in milliseconds) plus nothing else — smaller is
/// better.
///
/// # Errors
///
/// Propagates query errors.
pub fn run(spec: &HardwareSpec, scale: Scale, sizes: &[u64]) -> Result<Vec<Series>, ScsqError> {
    run_with_options(spec, scale, sizes, &RunOptions::default())
}

/// [`run`] with base run options, under a 100 kB MPI buffer (a base
/// with `coalesce` or `columnar` off is bit-identical; it only changes
/// the wall-clock).
///
/// # Errors
///
/// Propagates query errors.
pub fn run_with_options(
    spec: &HardwareSpec,
    scale: Scale,
    sizes: &[u64],
    base: &RunOptions,
) -> Result<Vec<Series>, ScsqError> {
    let options = RunOptions {
        mpi_buffer: 100_000,
        ..base.clone()
    };
    let mut single = Series::new("single-node fft");
    let mut distributed = Series::new("distributed radix2");
    for &bytes in sizes {
        let q1 = single_query(bytes, scale.arrays);
        let q2 = radix2_query(bytes, scale.arrays);
        let t1 = mean_metric(spec, &options, scale, &q1, &[], |r| {
            r.total_time().as_secs_f64() * 1e3
        })?;
        let t2 = mean_metric(spec, &options, scale, &q2, &[], |r| {
            r.total_time().as_secs_f64() * 1e3
        })?;
        single.push_with_dev(bytes as f64, t1.mean, t1.std_dev);
        distributed.push_with_dev(bytes as f64, t2.mean, t2.std_dev);
    }
    Ok(vec![single, distributed])
}

/// The speedup of the distributed plan at each swept size (>1 means
/// radix2 wins).
pub fn speedups(series: &[Series]) -> Vec<(f64, f64)> {
    series[0]
        .points()
        .iter()
        .zip(series[1].points())
        .map(|((x, t1), (_, t2))| (*x, t1 / t2))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_pays_for_large_arrays_only() {
        let spec = HardwareSpec::lofar();
        let scale = Scale {
            arrays: 60,
            ..Scale::quick()
        };
        let series = run(&spec, scale, &[10_000, 3_000_000]).unwrap();
        let s = speedups(&series);
        let (small, large) = (s[0].1, s[1].1);
        assert!(
            small < 0.85,
            "radix2 must lose for small arrays (double injection): {small:.2}"
        );
        assert!(
            large > 1.05,
            "radix2 must win for 3 MB arrays: speedup {large:.2}"
        );
        assert!(
            large > small,
            "speedup must grow with array size: {small:.2} -> {large:.2}"
        );
    }
}
