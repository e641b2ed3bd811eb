//! Exhaustive equivalence of the train-coalescing fast path.
//!
//! The coalescer's contract is *bit-identical* execution: for any
//! query, topology, message size, and buffer size, running with
//! `coalesce: true` must produce exactly the same result stream,
//! timestamps, per-channel byte accounting, and event count as the
//! per-event reference — the only permitted difference is the
//! coalescer's own activity counters. The grid is small enough to
//! enumerate (720 TCP/MPI configurations, 8 UDP ones), so every
//! configuration is checked and every divergent one is reported.

use scsq_cluster::Environment;
use scsq_engine::{run_graph, PlacementPolicy, QueryBuilder, QueryResult, RunOptions};
use scsq_ql::{parse_statement, Catalog};

fn run(src: &str, options: &RunOptions) -> QueryResult {
    let mut env = Environment::lofar();
    let catalog = Catalog::new();
    let stmt = parse_statement(src).expect("parses");
    let graph = QueryBuilder::new(&mut env, &catalog, options.placement, options)
        .build(&stmt, &[])
        .expect("builds");
    run_graph(env, &graph, options).expect("runs")
}

/// Checks that both modes agree on everything except the coalescer's
/// own activity counters; names the first fact that differs.
fn check_equivalent(src: &str, options: &RunOptions) -> Result<(), String> {
    let reference = run(
        src,
        &RunOptions {
            coalesce: false,
            ..options.clone()
        },
    );
    let coalesced = run(
        src,
        &RunOptions {
            coalesce: true,
            ..options.clone()
        },
    );
    let facts = [
        ("result stream", reference.values() == coalesced.values()),
        (
            "first-result latency",
            reference.first_result() == coalesced.first_result(),
        ),
        ("completion", reference.finished() == coalesced.finished()),
        (
            "channel accounting",
            reference.stats().channels == coalesced.stats().channels,
        ),
        (
            "rp monitors",
            reference.stats().rp_reports == coalesced.stats().rp_reports,
        ),
        (
            "event count (skipped periods count as executed)",
            reference.stats().events == coalesced.stats().events,
        ),
    ];
    match facts.iter().find(|(_, same)| !same) {
        Some((what, _)) => Err(what.to_string()),
        None => Ok(()),
    }
}

/// The three stream topologies of the paper's evaluation, at a given
/// message size and count.
fn query(topology: usize, bytes: u64, arrays: u64) -> String {
    match topology {
        // Figure 6: intra-BlueGene point-to-point.
        0 => format!(
            "select extract(b) from sp a, sp b, integer n \
             where b=sp(streamof(count(extract(a))), 'bg', 0) \
             and a=sp(gen_array({bytes},{arrays}),'bg',1) and n=1;"
        ),
        // Figure 8: two senders merged into one receiver (switch
        // penalties at the receiving co-processor).
        1 => format!(
            "select extract(c) from sp a, sp b, sp c \
             where c=sp(count(merge({{a,b}})), 'bg', 0) \
             and a=sp(gen_array({bytes},{arrays}),'bg',1) \
             and b=sp(gen_array({bytes},{arrays}),'bg',2);"
        ),
        // Figure 15 Q5-style: back-end generators streaming into
        // pset-spread BlueGene receivers over TCP.
        _ => format!(
            "select extract(c) from bag of sp a, bag of sp b, sp c, integer n \
             where c=sp(streamof(sum(merge(b))), 'bg') \
             and b=spv((select streamof(count(extract(p))) \
                        from sp p where p in a), 'bg', psetrr()) \
             and a=spv((select gen_array({bytes},{arrays}) \
                        from integer i where i in iota(1,n)), 'be', 1) \
             and n=2;"
        ),
    }
}

/// Runs every configuration and fails listing each divergent one.
fn assert_all_equivalent(configs: Vec<(String, String, RunOptions)>) {
    let failures: Vec<String> = configs
        .iter()
        .filter_map(|(label, src, options)| {
            check_equivalent(src, options)
                .err()
                .map(|what| format!("{label}: {what}"))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} configurations diverge:\n{}",
        failures.len(),
        configs.len(),
        failures.join("\n")
    );
}

/// Coalesced and per-event execution are bit-identical across every
/// topology, message size, array count, buffer size, buffering mode
/// and placement policy of the grid.
#[test]
fn coalesced_equals_per_event() {
    let mut configs = Vec::new();
    for topology in 0..3 {
        for bytes in [10_000, 100_000, 1_000_000] {
            for arrays in 1..6 {
                for buffer in [100, 1_000, 5_000, 100_000] {
                    for double in [false, true] {
                        for placement in [PlacementPolicy::Naive, PlacementPolicy::TopologyAware] {
                            configs.push((
                                format!(
                                    "topology {topology}, {bytes} B x {arrays}, \
                                     buffer {buffer} B, double {double}, {placement:?}"
                                ),
                                query(topology, bytes, arrays),
                                RunOptions {
                                    mpi_buffer: buffer,
                                    mpi_double: double,
                                    placement,
                                    ..RunOptions::default()
                                },
                            ));
                        }
                    }
                }
            }
        }
    }
    assert_eq!(configs.len(), 720);
    assert_all_equivalent(configs);
}

/// The fast path stays exact under UDP inter-cluster carriers, where
/// datagram-drop decisions depend on I/O-node backlog — the probe must
/// forbid jumps across the drop threshold.
#[test]
fn coalesced_equals_per_event_over_udp() {
    let mut configs = Vec::new();
    for bytes in [100_000, 1_000_000] {
        for arrays in 1..5 {
            configs.push((
                format!("udp, {bytes} B x {arrays}"),
                query(2, bytes, arrays),
                RunOptions {
                    udp_inter_cluster: true,
                    ..RunOptions::default()
                },
            ));
        }
    }
    assert_all_equivalent(configs);
}
