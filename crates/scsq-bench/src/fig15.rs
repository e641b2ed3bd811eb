//! Figure 15: BlueGene inbound streaming bandwidth of Queries 1–6 vs the
//! number of parallel back-end generator RPs.
//!
//! §3.2 defines six ways to inject streams into the BlueGene. The query
//! texts below are the paper's, verbatim modulo whitespace; the sweep
//! variable `n` is pre-bound per the paper's "altering a query
//! variable n". The expected shape:
//!
//! 1. Q1–Q4 (one I/O node) far below Q5–Q6 (many I/O nodes);
//! 2. Q3/Q4 slightly above Q1/Q2 (two receiving compute nodes off-load
//!    the single receiver);
//! 3. Q5 peaks (~920 Mbps) and beats Q6 — fewer distinct external hosts
//!    is better;
//! 4. Q1 beats Q2 for the same reason;
//! 5. Q5 dips at n=5 (only four I/O nodes; psets start sharing).

use crate::{sweep, Scale, SweepPoint};
use scsq_core::{ClusterName, HardwareSpec, RunOptions, Scsq, ScsqError, Value};
use scsq_sim::Series;

/// The six inbound queries of §3.2, with the generator scale substituted
/// and `n` left to pre-binding.
pub fn query(number: u8, scale: Scale) -> String {
    let gen = format!(
        "(select gen_array({bytes},{n}) from integer i where i in iota(1,n))",
        bytes = scale.array_bytes,
        n = scale.arrays
    );
    let single_receiver = |alloc: &str| {
        format!(
            "select extract(c) from \
             bag of sp a, sp b, sp c, \
             integer n \
             where c=sp(extract(b), 'bg') \
             and b=sp(count(merge(a)), 'bg') \
             and a=spv({gen}, 'be', {alloc}) \
             and n=4;"
        )
    };
    let parallel_receivers = |bg_alloc: &str, be_alloc: &str| {
        format!(
            "select extract(c) from \
             bag of sp a, bag of sp b, sp c, \
             integer n \
             where c=sp(streamof(sum(merge(b))), 'bg') \
             and b=spv( \
               (select streamof(count(extract(p))) \
                from sp p \
                where p in a), \
               'bg', {bg_alloc}) \
             and a=spv({gen}, 'be', {be_alloc}) \
             and n=4;"
        )
    };
    match number {
        1 => single_receiver("1"),
        2 => single_receiver("urr('be')"),
        3 => parallel_receivers("inPset(1)", "1"),
        4 => parallel_receivers("inPset(1)", "urr('be')"),
        5 => parallel_receivers("psetrr()", "1"),
        6 => parallel_receivers("psetrr()", "urr('be')"),
        other => panic!("there is no Query {other}; the paper defines Queries 1-6"),
    }
}

/// Runs the Figure 15 sweep: six series (Query 1–6), with x = n (number
/// of back-end generator RPs) and y = total inbound streaming bandwidth
/// (Mbps), the paper's axis; on `jobs` workers (bit-identical for every
/// `jobs` value) with `base` run options. The sweep variable `n`
/// participates in binding, so each (query, n) pair compiles once and
/// its repetitions replay the plan.
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
    let mut scsq = Scsq::with_spec(spec.clone());
    let mut labels = Vec::new();
    let mut points = Vec::with_capacity(6 * ns.len());
    for q in 1..=6u8 {
        let text = query(q, scale);
        let si = labels.len();
        labels.push(format!("Query {q}"));
        for &n in ns {
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
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
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
    fn queries_parse_and_run_in_miniature() {
        let spec = HardwareSpec::lofar();
        let scale = Scale::quick();
        let series = run(&spec, scale, &[2], 1, &RunOptions::default()).unwrap();
        assert_eq!(series.len(), 6);
        for s in &series {
            let y = s.y_at(2.0).unwrap();
            assert!(y > 0.0, "{}: {y}", s.label());
        }
    }

    #[test]
    fn single_io_queries_lag_multi_io_queries() {
        let spec = HardwareSpec::lofar();
        let scale = Scale::quick();
        let series = run(&spec, scale, &[4], 1, &RunOptions::default()).unwrap();
        let at4 = |i: usize| series[i].y_at(4.0).unwrap();
        let (q1, q2, q3, q5, q6) = (at4(0), at4(1), at4(2), at4(4), at4(5));
        // Observation 1: one I/O node ≪ many I/O nodes.
        assert!(q5 > 1.5 * q3, "q5={q5:.0} q3={q3:.0}");
        // Observation 3: Q5 beats Q6.
        assert!(q5 > 1.15 * q6, "q5={q5:.0} q6={q6:.0}");
        // Observation 4: Q1 beats Q2.
        assert!(q1 > q2, "q1={q1:.0} q2={q2:.0}");
        // Observation 2: Q3 at least matches Q1.
        assert!(q3 >= 0.95 * q1, "q3={q3:.0} q1={q1:.0}");
    }
}
