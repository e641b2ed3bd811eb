//! Detector efficiency of the train-coalescing fast path, pinned by
//! counts (never by timings).
//!
//! `coalesce_equiv.rs` proves the coalescer exact; this suite pins how
//! *cheaply* it finds its jumps on the paper's two torus queries: how
//! many state digests a jump costs, how many events still get
//! dispatched, that the digests are repaid by skipped events at every
//! sweep point, and that a run which can never jump stops paying.
//! Every count is deterministic, so the bounds are exact regression
//! gates with headroom, not noise bands.

use scsq_cluster::Environment;
use scsq_engine::{run_graph, QueryBuilder, QueryStats, RunOptions};
use scsq_ql::{parse_statement, Catalog};

/// The buffer sizes Figures 6 and 8 sweep.
const BUFFER_SWEEP: [u64; 13] = [
    100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
    1_000_000,
];
const ARRAY_BYTES: u64 = 3_000_000;

fn stats(src: &str, options: &RunOptions) -> QueryStats {
    let mut env = Environment::lofar();
    let catalog = Catalog::new();
    let stmt = parse_statement(src).expect("parses");
    let graph = QueryBuilder::new(&mut env, &catalog, options.placement, options)
        .build(&stmt, &[])
        .expect("builds");
    run_graph(env, &graph, options)
        .expect("runs")
        .stats()
        .clone()
}

/// A paper query text for a number of arrays.
type Query = fn(u64) -> String;

/// Figure 6: intra-BlueGene point-to-point.
fn p2p(arrays: u64) -> String {
    format!(
        "select extract(b) from sp a, sp b \
         where b=sp(streamof(count(extract(a))), 'bg', 0) \
         and a=sp(gen_array({ARRAY_BYTES},{arrays}),'bg',1);"
    )
}

/// Figure 8, sequential selection: two senders merged at node 0.
fn merge(arrays: u64) -> String {
    merge_from(arrays, 2)
}

/// Figure 8, balanced selection: the second sender on node 4.
fn balanced_merge(arrays: u64) -> String {
    merge_from(arrays, 4)
}

/// Figure 8: senders on nodes 1 and `y` merged at node 0.
fn merge_from(arrays: u64, y: u64) -> String {
    format!(
        "select extract(c) from sp a, sp b, sp c \
         where c=sp(count(merge({{a,b}})), 'bg', 0) \
         and a=sp(gen_array({ARRAY_BYTES},{arrays}),'bg',1) \
         and b=sp(gen_array({ARRAY_BYTES},{arrays}),'bg',{y});"
    )
}

fn buffered(mpi_buffer: u64, mpi_double: bool) -> RunOptions {
    RunOptions {
        mpi_buffer,
        mpi_double,
        ..RunOptions::default()
    }
}

/// One jump per array, found with a handful of digests, and little
/// left to dispatch: the small-buffer points where the coalescer earns
/// its keep.
#[test]
fn small_buffer_trains_are_found_cheaply() {
    const ARRAYS: u64 = 40;
    // (query, streams, digests per jump, dispatched events per array
    // and stream)
    let cases = [(p2p(ARRAYS), 1, 8, 250), (merge(ARRAYS), 2, 10, 1_000)];
    for (src, streams, digests_per_jump, dispatched_per_array) in &cases {
        for buffer in [100, 1_000, 5_000] {
            let s = stats(src, &buffered(buffer, false));
            let c = s.coalesce;
            let at = format!("{streams} stream(s), buffer {buffer}: {c:?}");
            assert!(c.jumps >= ARRAYS / 2, "too few jumps at {at}");
            assert!(
                c.digests <= digests_per_jump * c.jumps,
                "too many digests per jump at {at}"
            );
            let dispatched = s.events - c.events_skipped;
            assert!(
                dispatched <= dispatched_per_array * ARRAYS * streams,
                "{dispatched} events dispatched at {at}"
            );
        }
    }
}

/// At no point of either paper-scale sweep do the digests outweigh what
/// the jumps skipped: where trains are too short to pay for finding
/// them, the detector stops looking.
#[test]
fn digests_are_repaid_at_every_sweep_point() {
    for src in [p2p(100), merge(100)] {
        for double in [false, true] {
            for buffer in BUFFER_SWEEP {
                let c = stats(&src, &buffered(buffer, double)).coalesce;
                assert!(
                    c.digests * 16 <= c.events_skipped + 4_096,
                    "buffer {buffer}, double {double}: {c:?}"
                );
            }
        }
    }
}

/// Service jitter makes every period unique, so no train ever forms:
/// the detector must go quiet instead of probing at a fixed rate.
#[test]
fn a_run_that_never_locks_stops_paying() {
    let options = RunOptions {
        service_jitter: 0.05,
        ..buffered(100, false)
    };
    let s = stats(&p2p(30), &options);
    assert_eq!(s.coalesce.jumps, 0, "no train may form under jitter");
    assert!(
        s.coalesce.digests <= s.events / 10_000 + 64,
        "{} digests over {} events",
        s.coalesce.digests,
        s.events
    );
}

/// A digest's width no longer grows by two coordinates per pending
/// buffer-cycle chain: a channel's queued cycles (one per array, each
/// issued about a hundred periods ahead) are probed as one periodic
/// block. What still grows with the arrays is state outside the event
/// queue, the channel's queue of pending arrays, and on the sequential
/// merge the stalled channel's far-future cycles, which are irregular.
/// Per-entry probing grew these widths by 3.0 (Figure 6), 5.8 to 6.2
/// (sequential) and 7.4 to 7.6 (balanced) coordinates per added array
/// from 10 to 40 arrays at these buffer sizes; the block walk grows
/// them by 1.0, 3.8 to 4.0 and 2.0 to 2.4.
#[test]
fn probe_width_is_flat_in_the_number_of_arrays() {
    // (leg, query, coordinates per digest an added array may add)
    let queries: [(&str, Query, f64); 3] = [
        ("fig6", p2p, 1.5),
        ("fig8 sequential", merge, 4.5),
        ("fig8 balanced", balanced_merge, 3.0),
    ];
    for (name, query, per_array) in queries {
        for buffer in [100, 1_000] {
            let width = |arrays| {
                let c = stats(&query(arrays), &buffered(buffer, false)).coalesce;
                assert!(c.digests > 0, "{name}, buffer {buffer}: no digest");
                c.coords as f64 / c.digests as f64
            };
            let (few, many) = (width(10), width(40));
            assert!(
                many <= few + per_array * 30.0,
                "{name}, buffer {buffer}: {few:.1} coordinates per digest at 10 arrays, \
                 {many:.1} at 40"
            );
        }
    }
}
