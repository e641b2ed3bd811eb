//! The torus route table is shared, immutable and carries nothing
//! between runs.
//!
//! Every `Environment` of one torus partition walks one `RouteTable`
//! allocation, taken from a process-wide one-entry memo keyed by the
//! partition's dimensions. This file is one test function in its own
//! test binary on purpose: a sibling test building a torus of other
//! dimensions on another thread would replace the memo's entry between
//! two constructions here and make the sharing assertions a race.

use scsq_cluster::Environment;
use scsq_core::prelude::*;

/// A multi-hop merge (node 2 routes through node 1) — the query whose
/// timing depends most on the routes — with service jitter on, so the
/// jitter stream is part of what must repeat.
const MERGE: &str = "select extract(c) from sp a, sp b, sp c \
                     where c=sp(count(merge({a,b})), 'bg',0) \
                     and a=sp(gen_array(100000,6),'bg',1) \
                     and b=sp(gen_array(100000,6),'bg',2);";

fn run_on(spec: &HardwareSpec) -> QueryResult {
    let mut scsq = Scsq::with_spec(spec.clone());
    scsq.options_mut().service_jitter = 0.05;
    scsq.run(MERGE).expect("merge query runs")
}

#[test]
fn environments_share_one_route_table_and_runs_stay_independent() {
    let lofar = HardwareSpec::lofar();
    // Three nodes a row: node 2 reaches node 0 over the wrap link, not
    // through node 1.
    let narrow = HardwareSpec {
        torus_x: 3,
        ..HardwareSpec::lofar()
    };

    let a = Environment::new(lofar.clone());
    let b = Environment::new(lofar.clone());
    assert!(
        a.torus().shares_routes_with(b.torus()),
        "equal dimensions: one table"
    );
    let c = Environment::new(narrow.clone());
    assert!(
        !a.torus().shares_routes_with(c.torus()),
        "other dimensions: another table"
    );
    // `a` keeps the table it was built with after the memo moved on.
    let d = Environment::new(narrow.clone());
    assert!(c.torus().shares_routes_with(d.torus()));
    assert!(!a.torus().shares_routes_with(d.torus()));
    assert_eq!(a.torus().cached_route(2, 0), [2, 1, 0]);
    assert_eq!(d.torus().cached_route(2, 0), [2, 0]);

    // Run A, run B on other hardware, run A again: the second A is the
    // first A to the last counter, and B is not A.
    let first = run_on(&lofar);
    let other = run_on(&narrow);
    let again = run_on(&lofar);
    assert_eq!(first, again, "a run leaves nothing behind in the memo");
    assert_eq!(other, run_on(&narrow));
    assert_eq!(first.values(), other.values());
    assert_ne!(
        first.stats().channels,
        other.stats().channels,
        "the narrow torus routes node 2 differently"
    );
}
