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

use crate::{sweep, Scale, SweepPoint};
use scsq_core::{HardwareSpec, RunOptions, Scsq, ScsqError};
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
/// y = query time in milliseconds) — smaller is better. Runs on `jobs`
/// workers (bit-identical for every `jobs` value) with `base` run
/// options under a 100 kB MPI buffer. Each (plan, size) pair compiles
/// once.
///
/// # Errors
///
/// Propagates query errors.
pub fn run(
    spec: &HardwareSpec,
    scale: Scale,
    sizes: &[u64],
    jobs: usize,
    base: &RunOptions,
) -> Result<Vec<Series>, ScsqError> {
    let options = RunOptions {
        mpi_buffer: 100_000,
        ..base.clone()
    };
    let mut scsq = Scsq::with_spec(spec.clone());
    *scsq.options_mut() = options.clone();
    let mut points = Vec::with_capacity(2 * sizes.len());
    for (si, query) in [single_query as fn(u64, u64) -> String, radix2_query]
        .into_iter()
        .enumerate()
    {
        for &bytes in sizes {
            points.push(SweepPoint {
                series: si,
                x: bytes as f64,
                plan: scsq.prepare(&query(bytes, scale.arrays))?,
                options: options.clone(),
                spec: spec.clone(),
            });
        }
    }
    sweep(
        &["single-node fft", "distributed radix2"],
        &points,
        scale,
        |r| r.total_time().as_secs_f64() * 1e3,
        jobs,
    )
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
        let series = run(
            &spec,
            scale,
            &[10_000, 3_000_000],
            1,
            &RunOptions::default(),
        )
        .unwrap();
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
