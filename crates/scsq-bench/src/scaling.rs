//! The paper's §5 open question: "In the current hardware configuration,
//! we have only four I/O nodes and four nodes in the back-end cluster.
//! It remains to be investigated what happens for large amounts of
//! back-end and I/O nodes."
//!
//! This study scales the simulated partition (psets/I/O nodes ×2 and ×4,
//! back-end cluster likewise) and re-runs the two inbound strategies of
//! Figure 15:
//!
//! * **Q5-style** (all generators co-located on one back-end node,
//!   receivers spread over psets) — bounded by the single sender NIC
//!   (~920 Mbps) no matter how many I/O nodes exist.
//! * **Q6-style** (generators spread over back-end nodes) — can exceed
//!   one NIC, but the per-external-host I/O coordination cost the paper
//!   discovered grows with the host count, so aggregate bandwidth
//!   saturates far below linear scaling.
//!
//! The third sweep varies the number of *sender hosts* at a fixed large
//! partition, exposing the model's optimum: use as few hosts as saturate
//! the I/O side, and no more — the quantitative version of the paper's
//! "co-locate back-end RPs to the same compute node until saturation".

use crate::{sweep, Scale, SweepPoint};
use scsq_core::{ClusterName, HardwareSpec, RunOptions, Scsq, ScsqError, Value};
use scsq_sim::Series;

/// A partition configuration scaled from the paper's.
pub fn partition(torus_x: usize, torus_y: usize, torus_z: usize, be_nodes: usize) -> HardwareSpec {
    HardwareSpec {
        torus_x,
        torus_y,
        torus_z,
        back_end_nodes: be_nodes,
        ..HardwareSpec::lofar()
    }
}

/// The three partition sizes of the study: the paper's (4 I/O nodes),
/// double (8), and quadruple (16).
pub fn partitions() -> Vec<(&'static str, HardwareSpec)> {
    vec![
        ("paper (4 io, 4 be)", partition(4, 4, 2, 4)),
        ("double (8 io, 8 be)", partition(8, 4, 2, 8)),
        ("quad (16 io, 16 be)", partition(8, 8, 2, 16)),
    ]
}

/// The inbound query both strategies run: `n` back-end generators
/// (placed per `be_alloc`) streaming into pset-spread BlueGene
/// receivers, summed at a collector. Public so the binary can name a
/// representative instance ([`crate::figure::Representative`]).
pub fn inbound_query(scale: Scale, be_alloc: &str) -> String {
    format!(
        "select extract(c) from \
         bag of sp a, bag of sp b, sp c, \
         integer n \
         where c=sp(streamof(sum(merge(b))), 'bg') \
         and b=spv( \
           (select streamof(count(extract(p))) \
            from sp p \
            where p in a), \
           'bg', psetrr()) \
         and a=spv( \
           (select gen_array({bytes},{n}) \
            from integer i where i in iota(1,n)), \
           'be', {be_alloc}) \
         and n=4;",
        bytes = scale.array_bytes,
        n = scale.arrays
    )
}

/// Sweeps n (parallel streams) for each partition size and both sender
/// strategies. Series are labeled `"<strategy> @ <partition>"`; x = n,
/// y = aggregate inbound Mbps; on `jobs` workers (bit-identical for
/// every `jobs` value) with `base` run options. Each (partition,
/// strategy, n) cell compiles once — the partition changes the hardware
/// the plan is placed against.
///
/// # Errors
///
/// Propagates query errors.
pub fn run(
    scale: Scale,
    ns: &[u32],
    jobs: usize,
    base: &RunOptions,
) -> Result<Vec<Series>, ScsqError> {
    let mut labels = Vec::new();
    let mut points = Vec::new();
    for (name, spec) in partitions() {
        let mut scsq = Scsq::with_spec(spec.clone());
        for (strategy, be_alloc) in [("co-located", "1"), ("spread", "urr('be')")] {
            let text = inbound_query(scale, be_alloc);
            let si = labels.len();
            labels.push(format!("{strategy} @ {name}"));
            for &n in ns {
                if n as usize > spec.psets() {
                    continue;
                }
                let plan = scsq.prepare_with(&text, &[("n", Value::Integer(i64::from(n)))])?;
                points.push(SweepPoint {
                    series: si,
                    x: f64::from(n),
                    plan,
                    options: base.clone(),
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
        |r| r.mbps_between(ClusterName::BackEnd, ClusterName::BlueGene),
        jobs,
    )
}

/// At the quad partition with 16 parallel streams, sweeps how many
/// back-end *hosts* the generators occupy (the cluster is built with
/// exactly that many nodes, so `urr` packs them). x = hosts, y = Mbps;
/// on `jobs` workers with `base` run options.
///
/// # Errors
///
/// Propagates query errors.
pub fn run_host_sweep(
    scale: Scale,
    hosts: &[u32],
    jobs: usize,
    base: &RunOptions,
) -> Result<Series, ScsqError> {
    let streams = 16u32;
    let text = inbound_query(scale, "urr('be')");
    let mut points = Vec::with_capacity(hosts.len());
    for &k in hosts {
        let spec = partition(8, 8, 2, k as usize);
        let mut scsq = Scsq::with_spec(spec.clone());
        let plan = scsq.prepare_with(&text, &[("n", Value::Integer(i64::from(streams)))])?;
        points.push(SweepPoint {
            series: 0,
            x: f64::from(k),
            plan,
            options: base.clone(),
            spec,
        });
    }
    let mut series = sweep(
        &["16 streams @ quad partition"],
        &points,
        scale,
        |r| r.mbps_between(ClusterName::BackEnd, ClusterName::BlueGene),
        jobs,
    )?;
    Ok(series.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_scale_psets() {
        let ps = partitions();
        assert_eq!(ps[0].1.psets(), 4);
        assert_eq!(ps[1].1.psets(), 8);
        assert_eq!(ps[2].1.psets(), 16);
    }

    #[test]
    fn colocated_strategy_is_nic_capped_even_with_many_io_nodes() {
        let series = run(Scale::quick(), &[8], 1, &RunOptions::default()).unwrap();
        let quad_coloc = series
            .iter()
            .find(|s| s.label() == "co-located @ quad (16 io, 16 be)")
            .unwrap();
        let y = quad_coloc.y_at(8.0).unwrap();
        assert!(
            y < 1_000.0,
            "a single sender NIC cannot exceed 1 Gbps: {y:.0} Mbps"
        );
    }

    #[test]
    fn one_host_per_stream_saturates_below_one_nic_at_any_size() {
        // The study's surprise: the per-host I/O coordination cost the
        // paper discovered caps the 1-host-per-stream strategy around
        // 800-900 Mbps aggregate no matter how much hardware is added.
        let series = run(Scale::quick(), &[8], 1, &RunOptions::default()).unwrap();
        for label in [
            "spread @ double (8 io, 8 be)",
            "spread @ quad (16 io, 16 be)",
        ] {
            let y = series
                .iter()
                .find(|s| s.label() == label)
                .unwrap()
                .y_at(8.0)
                .unwrap();
            assert!(
                (400.0..1_000.0).contains(&y),
                "{label}: {y:.0} Mbps should saturate below one NIC"
            );
        }
    }

    #[test]
    fn concentrating_streams_on_few_hosts_scales_past_one_nic() {
        // 16 streams from 4 hosts through 16 I/O nodes beats both the
        // single-host (NIC-bound) and the 16-host (coordination-bound)
        // extremes.
        let series =
            run_host_sweep(Scale::quick(), &[1, 4, 16], 1, &RunOptions::default()).unwrap();
        let y1 = series.y_at(1.0).unwrap();
        let y4 = series.y_at(4.0).unwrap();
        let y16 = series.y_at(16.0).unwrap();
        assert!(y1 < 1_000.0, "one NIC caps the single host: {y1:.0}");
        assert!(y4 > 1_500.0, "4 hosts x 16 streams: {y4:.0}");
        assert!(y4 > y16, "too many hosts hurts: {y4:.0} vs {y16:.0}");
    }
}
