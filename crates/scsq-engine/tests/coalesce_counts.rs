//! Detector efficiency of the train-coalescing fast path, pinned by
//! counts (never by timings).
//!
//! `coalesce_equiv.rs` proves the coalescer exact; this suite pins how
//! *cheaply* it finds its jumps on the paper's two torus queries: how
//! many state digests a jump costs, how many events still get
//! dispatched, that the digests are repaid by skipped events at every
//! sweep point, that a run which can never jump stops paying, and how
//! wide a digest is.
//! Every count is deterministic, so the bounds are exact regression
//! gates with headroom, not noise bands.

use scsq_cluster::{Environment, HardwareSpec};
use scsq_engine::{run_graph, QueryBuilder, QueryStats, RunOptions};
use scsq_ql::{parse_statement, Catalog};

/// The buffer sizes Figures 6 and 8 sweep.
const BUFFER_SWEEP: [u64; 13] = [
    100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
    1_000_000,
];
const ARRAY_BYTES: u64 = 3_000_000;

fn stats(src: &str, options: &RunOptions) -> QueryStats {
    stats_on(HardwareSpec::lofar(), src, options)
}

fn stats_on(spec: HardwareSpec, src: &str, options: &RunOptions) -> QueryStats {
    let mut env = Environment::new(spec);
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

/// A digest's width barely grows with the arrays a run sends. A
/// channel's queued cycles (one per array, each issued about a hundred
/// periods ahead) are probed as one periodic block, and a channel's
/// queue of pending arrays as its front and back trains plus one shape
/// word for the rest. What still grows on the sequential merge is the
/// stalled channel's far-future cycles, which are irregular.
/// From 10 to 40 arrays at these buffer sizes, per added array:
/// per-entry probing grew these widths by 3.0 (Figure 6), 5.8 to 6.2
/// (sequential) and 7.4 to 7.6 (balanced) coordinates; the block walk
/// with every pending train probed by 1.0, 3.8 to 4.0 and 2.0 to 2.4;
/// the interior word by 0.01, 1.4 to 1.7 and 0.03 to 0.3.
#[test]
fn probe_width_is_flat_in_the_number_of_arrays() {
    // (leg, query, coordinates per digest an added array may add)
    let queries: [(&str, Query, f64); 3] = [
        ("fig6", p2p, 0.25),
        ("fig8 sequential", merge, 2.5),
        ("fig8 balanced", balanced_merge, 1.0),
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

/// The 8×8×2 partition of the scaling study (`scsq-bench`'s
/// `scaling::partition(8, 8, 2, 16)`): four times the LOFAR partition's
/// compute nodes, psets, I/O nodes and back-end nodes.
fn quad_partition() -> HardwareSpec {
    HardwareSpec {
        torus_x: 8,
        torus_y: 8,
        torus_z: 2,
        back_end_nodes: 16,
        ..HardwareSpec::lofar()
    }
}

/// A digest walks the servers a run has used, not the partition: the
/// paper's torus queries read the same digests, jumps, coordinates and
/// shape words on the 4×4×2 LOFAR partition and on an 8×8×2 one. The
/// balanced merge's second sender is the node one Y hop from node 0 on
/// both (rank 4 on LOFAR, 8 on the larger torus), so every run crosses
/// the same co-processors and links. Walking every server of the
/// partition, one shape word per idle server, took about 11 shape words
/// more per added compute node (Figure 6 at a 100-byte buffer: 451
/// words per digest on 4×4×2, 1 519 on 8×8×2; now 91 on both).
#[test]
fn probe_width_is_flat_in_the_partition() {
    const ARRAYS: u64 = 10;
    for buffer in [100, 1_000] {
        let options = buffered(buffer, false);
        for (name, second) in [
            ("fig6", None),
            ("fig8 sequential", Some(2)),
            ("fig8 balanced", None),
        ] {
            let run = |spec: HardwareSpec| {
                let src = match (name, second) {
                    ("fig6", _) => p2p(ARRAYS),
                    (_, Some(y)) => merge_from(ARRAYS, y),
                    _ => merge_from(ARRAYS, spec.torus_x as u64),
                };
                stats_on(spec, &src, &options)
            };
            let (small, large) = (run(HardwareSpec::lofar()), run(quad_partition()));
            let (a, b) = (small.coalesce, large.coalesce);
            let at = format!("{name}, buffer {buffer}: {a:?} on 4x4x2, {b:?} on 8x8x2");
            assert!(a.jumps > 0, "no jump at {at}");
            assert_eq!(small.events, large.events, "{at}");
            assert_eq!((a.digests, a.jumps), (b.digests, b.jumps), "{at}");
            assert_eq!((a.coords, a.shape_words), (b.coords, b.shape_words), "{at}");
        }
    }
}
