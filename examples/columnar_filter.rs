//! A filter-heavy pipeline on the columnar batch path.
//!
//! Stream process `a` generates a dense run of integers; `b` scales
//! each one, filters on a threshold, compares the survivors against a
//! cap and counts them. Every stage is a stateful per-element operator
//! on the scalar path — but the whole chain qualifies for the
//! columnar fast path, so each delivered batch runs as vectorized
//! arithmetic, one comparison mask, and a selection-vector fold, with
//! a single bulk cost charge that draws exactly the same jitter
//! factors as per-element execution. The example runs the query once
//! per execution tier and shows that the answers, completion times and
//! RNG draw counts agree while only the columnar tier absorbs batches.
//!
//! Run with: `cargo run --example columnar_filter`

use scsq::prelude::*;

fn main() -> Result<(), ScsqError> {
    let query = "select extract(b)
         from sp a, sp b
         where b=sp(streamof(count(cmp(filter(arith(extract(a), '*', 3), '>', 60000), '<', 300001))), 'bg', 0)
         and a=sp(streamof(iota(1, 100000)), 'bg', 1);";

    let mut scsq = Scsq::lofar();
    scsq.options_mut().service_jitter = 0.05;
    scsq.options_mut().coalesce = false;
    let plan = scsq.prepare(query)?;

    println!("{}", plan.explain(scsq.options()));

    let mut run_tier = |label: &str, columnar: bool| -> Result<QueryResult, ScsqError> {
        scsq.options_mut().columnar = columnar;
        let r = scsq.run_prepared(&plan)?;
        println!(
            "{label}: answer={:?}  finished={}  jitter_draws={}  columnar_batches={}",
            r.values(),
            r.finished(),
            r.stats().jitter_draws,
            r.stats().columnar_batches,
        );
        Ok(r)
    };
    let reference = run_tier("scalar  ", false)?;
    let columnar = run_tier("columnar", true)?;

    // The determinism contract: both tiers land on the same answer at
    // the same simulated instant having consumed the same RNG stream.
    assert_eq!(columnar.values(), reference.values());
    assert_eq!(columnar.finished(), reference.finished());
    assert_eq!(
        columnar.stats().jitter_draws,
        reference.stats().jitter_draws
    );
    assert!(
        columnar.stats().columnar_batches > 0,
        "the filter chain must ride the columnar path"
    );
    // 3x ∈ (60000, 300001) keeps x ∈ (20000, 100000]: 80000 survivors.
    assert_eq!(reference.values(), &[Value::Integer(80_000)]);
    println!("ok: identical books on both tiers");
    Ok(())
}
