//! Node-selection ablation: the paper's naïve algorithm vs the
//! topology-aware refinement its observations motivate (§5: "we are
//! currently experimenting with refinements of the node selection
//! algorithm for the BlueGene based on the results of this paper").
//!
//! The workload is an inbound query with **no** user allocation
//! sequences — placement is entirely up to the policy. Under the naïve
//! algorithm all receiving compute nodes land in pset 1 and share one
//! I/O node; the topology-aware policy spreads them across psets
//! (observation 1) while keeping the back-end senders co-located
//! (observations 3/4).

use crate::{sweep, Scale, SweepPoint};
use scsq_core::{ClusterName, HardwareSpec, PlacementPolicy, RunOptions, Scsq, ScsqError, Value};
use scsq_sim::Series;

/// The unconstrained inbound workload.
pub fn query(scale: Scale) -> String {
    format!(
        "select extract(c) from \
         bag of sp a, bag of sp b, sp c, \
         integer n \
         where c=sp(streamof(sum(merge(b))), 'bg') \
         and b=spv( \
           (select streamof(count(extract(p))) \
            from sp p \
            where p in a), \
           'bg') \
         and a=spv( \
           (select gen_array({bytes},{n}) \
            from integer i where i in iota(1,n)), \
           'be') \
         and n=4;",
        bytes = scale.array_bytes,
        n = scale.arrays
    )
}

/// Runs the ablation: two series (one per policy), x = n, y = inbound
/// bandwidth (Mbps); on `jobs` workers (bit-identical for every `jobs`
/// value) with `base` run options under the swept placement policy.
/// Placement is a *compile-time* decision, so each (policy, n) pair
/// gets its own prepared plan.
///
/// # Errors
///
/// Propagates query errors.
pub fn run(
    spec: &HardwareSpec,
    scale: Scale,
    ns: &[u32],
    jobs: usize,
    base: &RunOptions,
) -> Result<Vec<Series>, ScsqError> {
    let text = query(scale);
    let labels = ["naive next-available", "topology-aware"];
    let mut scsq = Scsq::with_spec(spec.clone());
    let mut points = Vec::with_capacity(2 * ns.len());
    for (si, policy) in [
        (0, PlacementPolicy::Naive),
        (1, PlacementPolicy::TopologyAware),
    ] {
        let options = RunOptions {
            placement: policy,
            ..base.clone()
        };
        *scsq.options_mut() = options.clone();
        for &n in ns {
            let plan = scsq.prepare_with(&text, &[("n", Value::Integer(i64::from(n)))])?;
            points.push(SweepPoint {
                series: si,
                x: f64::from(n),
                plan,
                options: options.clone(),
                spec: spec.clone(),
            });
        }
    }
    sweep(
        &labels,
        &points,
        scale,
        |r| r.mbps_between(ClusterName::BackEnd, ClusterName::BlueGene),
        jobs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_aware_beats_naive_at_n4() {
        let spec = HardwareSpec::lofar();
        let scale = Scale::quick();
        let series = run(&spec, scale, &[4], 1, &RunOptions::default()).unwrap();
        let naive = series[0].y_at(4.0).unwrap();
        let aware = series[1].y_at(4.0).unwrap();
        assert!(
            aware > 1.3 * naive,
            "topology-aware {aware:.0} Mbps should clearly beat naive {naive:.0} Mbps"
        );
    }
}
