//! The columnar bulk-accounting contract, end to end.
//!
//! The columnar fast path replaces N per-element `compute` charges with
//! one `compute_bulk` per delivered batch. Its contract is stronger
//! than "same answer": on a jittered run the bulk charge must draw
//! exactly as many RNG factors, in the same order, and schedule the
//! same total service time as the per-element path — otherwise every
//! event after the first absorbed batch lands at a different simulated
//! instant and jittered replays diverge. These tests run the same
//! filter-heavy pipeline through both execution tiers and compare
//! the books, plus a proptest over jitter amplitudes and stage
//! constants.
//!
//! The second half holds constant *sources* to the same contract: a
//! prepared column source (one `generate_each`, one run per channel)
//! must leave the books of the per-element walk — every channel's and
//! RP's, the event count and the jitter stream position included.

use proptest::prelude::*;
use scsq_cluster::{Environment, HardwareSpec};
use scsq_engine::{
    run_graph, ChannelReport, QueryBuilder, QueryGraph, QueryResult, RpReport, RunOptions,
};
use scsq_ql::{parse_statement, Catalog, Value};
use scsq_sim::SimTime;

fn run(src: &str, options: &RunOptions) -> QueryResult {
    let mut env = Environment::lofar();
    let catalog = Catalog::new();
    let stmt = parse_statement(src).expect("parses");
    let graph = QueryBuilder::new(&mut env, &catalog, options.placement, options)
        .build(&stmt, &[])
        .expect("builds");
    run_graph(env, &graph, options).expect("runs")
}

/// A filter-heavy pipeline over a dense integer stream: arithmetic,
/// a selection-producing filter, a comparison and a terminal count —
/// every cost-bearing stage kind the columnar path bulk-charges.
fn filter_query(n: u64, mul: i64, threshold: i64) -> String {
    format!(
        "select extract(b) from sp a, sp b \
         where b=sp(streamof(count(cmp(filter(arith(extract(a), '*', {mul}), '>', {threshold}), '<', {cap}))), 'bg', 0) \
         and a=sp(streamof(iota(1,{n})),'bg',1);",
        cap = mul * n as i64 + 1,
    )
}

fn options(jitter: f64, columnar: bool) -> RunOptions {
    RunOptions {
        service_jitter: jitter,
        coalesce: false,
        mpi_buffer: 2_000,
        columnar,
        ..RunOptions::default()
    }
}

/// Asserts the scalar and columnar tiers agree on the answer, the
/// completion time and the RNG draw count, and returns the columnar
/// run's batch count.
fn assert_books_match(src: &str, jitter: f64) -> u64 {
    let scalar = run(src, &options(jitter, false));
    let columnar = run(src, &options(jitter, true));

    assert_eq!(scalar.values(), columnar.values(), "columnar answer");
    assert_eq!(
        scalar.finished(),
        columnar.finished(),
        "columnar completion time"
    );
    assert_eq!(
        scalar.stats().jitter_draws,
        columnar.stats().jitter_draws,
        "columnar RNG stream position"
    );

    assert_eq!(scalar.stats().columnar_batches, 0);
    // `columnar: false` must not even transpose: the decomposition is
    // guarded, not merely the admission.
    assert_eq!(scalar.stats().columnar_transposes, 0);
    columnar.stats().columnar_batches
}

/// A two-SP relay pipeline: the upstream SP's chain re-emits (arith +
/// filter feeding a downstream fold), so the columnar pass forwards
/// survivor rows as shared column handles across the stream channel —
/// the cross-SP column relay whose books must balance.
fn relay_query(n: u64, mul: i64, threshold: i64) -> String {
    format!(
        "select extract(c) from sp a, sp b, sp c \
         where c=sp(streamof(sum(extract(b))), 'bg', 0) \
         and b=sp(filter(arith(extract(a), '*', {mul}), '>', {threshold}), 'bg', 2) \
         and a=sp(streamof(iota(1,{n})),'bg',1);"
    )
}

/// The headline check: a jittered filter-heavy pipeline takes the
/// columnar path (batches are actually absorbed) with byte-identical
/// values, completion time and RNG stream position across both tiers.
#[test]
fn filter_pipeline_books_balance_across_tiers() {
    let src = filter_query(4_000, 3, 6_000);
    let absorbed = assert_books_match(&src, 0.05);
    assert!(
        absorbed > 0,
        "the filter pipeline must actually ride the columnar path"
    );
}

/// Jitter off: the bulk charge takes its closed-form fast path (no
/// RNG at all); the books must still balance.
#[test]
fn books_balance_without_jitter() {
    let src = filter_query(4_000, 3, 6_000);
    let absorbed = assert_books_match(&src, 0.0);
    assert!(absorbed > 0);
    let r = run(&src, &options(0.0, true));
    assert_eq!(r.stats().jitter_draws, 0, "no draws when jitter is off");
}

/// A costless absorber chain (`count` alone has no cost-bearing
/// stages) bulk-charges zero bytes, which must consume zero draws —
/// the scalar path's `compute(0)` early-out, mirrored in bulk.
#[test]
fn costless_chains_draw_nothing_at_the_receiver() {
    let src = "select extract(b) from sp a, sp b \
               where b=sp(streamof(count(extract(a))), 'bg', 0) \
               and a=sp(streamof(iota(1,3000)),'bg',1);";
    let absorbed = assert_books_match(src, 0.05);
    assert!(absorbed > 0);
}

/// The relay headline: a jittered two-SP relay pipeline rides the
/// columnar path end to end (relayed upstream, absorbed downstream)
/// with byte-identical values, completion time and RNG stream position
/// across both tiers — the strongest form of the zero-copy
/// hand-off being accounting-neutral.
#[test]
fn relayed_pipeline_books_balance_across_tiers() {
    let src = relay_query(4_000, 3, 6_000);
    let absorbed = assert_books_match(&src, 0.05);
    assert!(
        absorbed > 1,
        "both the relay and the downstream absorber must ride the columnar path"
    );
}

/// Relay books with jitter off: the per-element charge loop collapses
/// to the no-draw fast paths on both SPs.
#[test]
fn relayed_books_balance_without_jitter() {
    let src = relay_query(4_000, 3, 6_000);
    let absorbed = assert_books_match(&src, 0.0);
    assert!(absorbed > 1);
    let r = run(&src, &options(0.0, true));
    assert_eq!(r.stats().jitter_draws, 0, "no draws when jitter is off");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The accounting contract holds over random jitter amplitudes and
    /// stage constants, including thresholds that keep everything or
    /// nothing (empty / full selection vectors at the fold).
    #[test]
    fn books_balance_over_random_workloads(
        jitter in prop_oneof![Just(0.0), 0.01f64..0.2],
        mul in 1i64..5,
        threshold in prop_oneof![Just(0i64), Just(i64::MAX / 2), 1i64..10_000],
        n in 500u64..2_500,
    ) {
        let src = filter_query(n, mul, threshold);
        let absorbed = assert_books_match(&src, jitter);
        prop_assert!(absorbed > 0);
    }

    /// The same contract for relayed chains: random jitter, transform
    /// constants and thresholds — including drop-everything filters
    /// (empty selections crossing the channel as nothing at all) and
    /// keep-everything filters (prefix relays with no selection
    /// vector) — leave the two-SP books identical across tiers.
    #[test]
    fn relay_books_balance_over_random_workloads(
        jitter in prop_oneof![Just(0.0), 0.01f64..0.2],
        mul in 1i64..5,
        threshold in prop_oneof![Just(0i64), Just(i64::MAX / 2), 1i64..10_000],
        n in 500u64..2_500,
    ) {
        let src = relay_query(n, mul, threshold);
        let absorbed = assert_books_match(&src, jitter);
        prop_assert!(absorbed > 0);
    }

    /// Constant sources of every kind — prepared or not — at buffer
    /// sizes that divide the rows, cut them, or are smaller than one:
    /// both tiers keep the same books, with one or two
    /// subscribers, single or double buffering.
    #[test]
    fn constant_source_books_balance_over_random_workloads(
        kind in 0usize..5,
        n in 1usize..1_200,
        buffer in prop_oneof![Just(5u64), Just(9u64), Just(90u64), 10u64..3_000],
        double in any::<bool>(),
        two_subscribers in any::<bool>(),
    ) {
        let values: Vec<Value> = (0..n as i64)
            .map(|i| match kind {
                0 => Value::Integer(i - 7),
                1 => Value::Real(i as f64 / 3.0),
                2 => Value::Bool(i % 2 == 0),
                3 => Value::from(["p", "qq", "rrr"][i as usize % 3]),
                _ if i % 4 == 0 => Value::Real(0.25),
                _ => Value::Integer(i),
            })
            .collect();
        let src = if two_subscribers {
            "select extract(c) from sp a, sp b1, sp b2, sp c \
             where c=sp(merge({b1,b2}), 'bg', 0) \
             and b1=sp(streamof(count(extract(a))), 'bg', 2) \
             and b2=sp(streamof(count(take(extract(a), 700))), 'bg', 3) \
             and a=sp(streamof(v),'bg',1);"
        } else {
            ONE_SUBSCRIBER
        };
        let options = RunOptions {
            mpi_buffer: buffer,
            mpi_double: double,
            ..small_buffers()
        };
        let (graph, columnar) =
            assert_source_books_match(src, &values, &HardwareSpec::lofar(), &options);
        prop_assert_eq!(graph.sps[0].source.is_some(), kind < 3 && n >= 2);
        prop_assert!(columnar.values().contains(&Value::Integer(n as i64)));
    }
}

// ----- constant sources: prepared columns vs the per-element walk ------

/// Builds and runs `src` with the query variable `v` pre-bound to a bag
/// of `values` — how a test feeds a constant source rows SCSQL has no
/// literal for (booleans, exact float bit patterns, mixed bags).
fn run_over(
    src: &str,
    values: &[Value],
    spec: &HardwareSpec,
    options: &RunOptions,
) -> (QueryGraph, QueryResult) {
    let mut env = Environment::new(spec.clone());
    let catalog = Catalog::new();
    let stmt = parse_statement(src).expect("parses");
    let graph = QueryBuilder::new(&mut env, &catalog, options.placement, options)
        .build(&stmt, &[("v".to_string(), Value::Bag(values.to_vec()))])
        .expect("builds");
    let result = run_graph(env, &graph, options).expect("runs");
    (graph, result)
}

/// Everything simulated that a run leaves behind: the answer, the
/// completion time, the event count, the jitter stream position, and
/// every channel's and RP's books (the send-queue high-water mark
/// aside: it counts queue nodes, and a run is one).
type Books = (
    Vec<Value>,
    SimTime,
    u64,
    u64,
    Vec<ChannelReport>,
    Vec<RpReport>,
);

fn books(r: &QueryResult) -> Books {
    let mut channels = r.stats().channels.clone();
    for c in &mut channels {
        c.queue_peak_trains = 0;
    }
    (
        r.values().to_vec(),
        r.finished(),
        r.stats().events,
        r.stats().jitter_draws,
        channels,
        r.stats().rp_reports.clone(),
    )
}

/// Runs `src` over `values` on both tiers, jitter off and on, and
/// asserts identical books; returns the jittered columnar run (and the
/// plan) for tier-specific checks.
fn assert_source_books_match(
    src: &str,
    values: &[Value],
    spec: &HardwareSpec,
    base: &RunOptions,
) -> (QueryGraph, QueryResult) {
    let mut last = None;
    for jitter in [0.0, 0.05] {
        let tier = |columnar: bool| {
            let options = RunOptions {
                service_jitter: jitter,
                columnar,
                ..base.clone()
            };
            run_over(src, values, spec, &options)
        };
        let (_, scalar) = tier(false);
        let (graph, columnar) = tier(true);
        assert_eq!(
            books(&scalar),
            books(&columnar),
            "columnar, jitter {jitter}"
        );
        assert_eq!(scalar.stats().columnar_batches, 0);
        assert_eq!(scalar.stats().columnar_transposes, 0);
        last = Some((graph, columnar));
    }
    last.expect("two jitter settings ran")
}

/// `a` streams the pre-bound bag `v` to one absorber.
const ONE_SUBSCRIBER: &str = "select extract(b) from sp a, sp b \
     where b=sp(streamof(count(extract(a))), 'bg', 0) \
     and a=sp(streamof(v),'bg',1);";

fn small_buffers() -> RunOptions {
    RunOptions {
        coalesce: false,
        mpi_buffer: 2_000,
        ..RunOptions::default()
    }
}

/// The a→b channel of a columnar run: the source's only output.
fn source_channel(r: &QueryResult) -> &ChannelReport {
    &r.stats().channels[0]
}

/// Integer, float and boolean sources are prepared: the plan holds the
/// column, the columnar run sends it as one queue node and the
/// absorber never transposes — with the per-element tier's exact books.
#[test]
fn fixed_width_sources_are_prepared_and_books_balance() {
    let sources: [Vec<Value>; 4] = [
        (1..=3_000).map(Value::Integer).collect(),
        (0..2_000)
            .map(|i| Value::Real(f64::from(i) * 0.5 - 7.25))
            .collect(),
        (0..5_000).map(|i| Value::Bool(i % 3 == 0)).collect(),
        // Two rows: the smallest source that can form a batch.
        vec![Value::Integer(-1), Value::Integer(i64::MAX)],
    ];
    for values in &sources {
        let (graph, columnar) = assert_source_books_match(
            ONE_SUBSCRIBER,
            values,
            &HardwareSpec::lofar(),
            &small_buffers(),
        );
        let prepared = graph.sps[0]
            .source
            .as_ref()
            .expect("the source is prepared");
        assert_eq!(prepared.cols.rows(), values.len());
        assert_eq!(prepared.row_bytes, values[0].marshaled_size());
        assert_eq!(columnar.values(), &[Value::Integer(values.len() as i64)]);
        assert!(columnar.stats().columnar_batches > 0);
        assert_eq!(columnar.stats().columnar_transposes, 0);
        assert_eq!(source_channel(&columnar).queue_peak_trains, 1);
    }
}

/// Sources the plan cannot prepare — strings (rows differ in size),
/// mixed-type bags, a lone element, a computing chain — take the
/// per-element walk on every tier; their books balance all the same.
#[test]
fn unprepared_sources_fall_back_and_books_balance() {
    let words = ["a", "bb", "ccc"];
    let sources: [Vec<Value>; 4] = [
        (0..2_000).map(|i| Value::from(words[i % 3])).collect(),
        (0..2_000)
            .map(|i| {
                if i % 2 == 0 {
                    Value::Integer(i)
                } else {
                    Value::Real(0.5)
                }
            })
            .collect(),
        (0..2_000)
            .map(|i| {
                if i % 5 == 0 {
                    Value::from("x")
                } else {
                    Value::Integer(i)
                }
            })
            .collect(),
        vec![Value::Integer(42)],
    ];
    for values in &sources {
        let (graph, columnar) = assert_source_books_match(
            ONE_SUBSCRIBER,
            values,
            &HardwareSpec::lofar(),
            &small_buffers(),
        );
        assert_eq!(graph.sps[0].source, None, "{:?}", values[0]);
        assert_eq!(columnar.values(), &[Value::Integer(values.len() as i64)]);
        assert_eq!(
            source_channel(&columnar).queue_peak_trains,
            values.len() as u64,
            "one train per distinct element"
        );
    }
    // A source whose own chain computes is a constant, but not a
    // pass-through one.
    let computing = "select extract(b) from sp a, sp b \
         where b=sp(streamof(sum(extract(a))), 'bg', 0) \
         and a=sp(arith(v, '*', 2),'bg',1);";
    let values: Vec<Value> = (1..=2_000).map(Value::Integer).collect();
    let (graph, columnar) =
        assert_source_books_match(computing, &values, &HardwareSpec::lofar(), &small_buffers());
    assert_eq!(graph.sps[0].source, None);
    assert_eq!(columnar.values(), &[Value::Integer(2_000 * 2_001)]);
}

/// One prepared source, two subscribers (an absorber and a relay): the
/// run goes to both channels, and the buffer-crossing cycles interleave
/// in (element, channel) order exactly as the per-element fan-out's.
#[test]
fn a_source_with_two_subscribers_balances() {
    let src = "select extract(c) from sp a, sp b1, sp b2, sp c \
         where c=sp(streamof(sum(merge({b1,b2}))), 'bg', 0) \
         and b1=sp(streamof(sum(extract(a))), 'bg', 2) \
         and b2=sp(filter(arith(extract(a), '*', 3), '>', 3000), 'bg', 3) \
         and a=sp(streamof(v),'bg',1);";
    let values: Vec<Value> = (1..=3_000).map(Value::Integer).collect();
    let (graph, columnar) =
        assert_source_books_match(src, &values, &HardwareSpec::lofar(), &small_buffers());
    assert!(graph.sps[0].source.is_some());
    // Σ i for 1..=3000, plus Σ 3i for 1001..=3000.
    let want = 3_000 * 3_001 / 2 + 3 * (3_000 * 3_001 / 2 - 1_000 * 1_001 / 2);
    assert_eq!(columnar.values(), &[Value::Integer(want)]);
    assert_eq!(columnar.stats().columnar_transposes, 0);
    let from_a: Vec<_> = columnar
        .stats()
        .channels
        .iter()
        .filter(|c| c.src == graph.sps[0].node)
        .collect();
    assert_eq!(from_a.len(), 2);
    assert!(from_a
        .iter()
        .all(|c| c.queue_peak_trains == 1 && c.bytes == 27_000));
}

/// A prepared source watched by `metrics(p)` and by `latency(p)`: the
/// observers' sample streams (one per delivered buffer, one per
/// delivered element) and every channel's latency histogram come out
/// the same as on the per-element tier.
#[test]
fn observed_sources_balance() {
    let src = "select extract(c) from sp a, sp b, sp m, sp l, sp c \
         where c=sp(merge({b,m,l}), 'bg', 0) \
         and b=sp(streamof(sum(extract(a))), 'bg', 2) \
         and m=sp(streamof(bandwidth(metrics(a))), 'bg', 3) \
         and l=sp(streamof(quantile(latency(a), 0.9)), 'bg', 4) \
         and a=sp(streamof(v),'bg',1);";
    let values: Vec<Value> = (1..=3_000).map(Value::Integer).collect();
    let options = RunOptions {
        profile: true,
        ..small_buffers()
    };
    let (graph, columnar) =
        assert_source_books_match(src, &values, &HardwareSpec::lofar(), &options);
    assert!(graph.sps[0].source.is_some());
    assert_eq!(columnar.values().len(), 3, "sum, bandwidth, p90 latency");
    let a_to_b = columnar
        .stats()
        .channels
        .iter()
        .find(|c| c.src == graph.sps[0].node)
        .expect("a→b channel");
    assert_eq!(a_to_b.latency.count(), 3_000, "one stamp per row");
}

/// A prepared source whose run rides UDP datagrams into an overrun I/O
/// node: dropped datagrams poison the rows they cut through, and the
/// loss — which rows, how many, when — matches the per-element tier.
#[test]
fn a_lossy_udp_channel_loses_the_same_rows() {
    let src = "select extract(b) from sp a, sp b \
         where b=sp(streamof(sum(extract(a))), 'bg', 0) \
         and a=sp(streamof(v),'be',1);";
    // An I/O node that gives up after 200 us of backlog drops part of a
    // 180 KB burst, not all of it.
    let spec = HardwareSpec {
        udp_drop_backlog: scsq_sim::SimDur::from_micros(200),
        ..HardwareSpec::lofar()
    };
    let options = RunOptions {
        udp_inter_cluster: true,
        ..small_buffers()
    };
    let values: Vec<Value> = (1..=20_000).map(Value::Integer).collect();
    let (graph, columnar) = assert_source_books_match(src, &values, &spec, &options);
    assert!(graph.sps[0].source.is_some());
    let udp = source_channel(&columnar);
    assert_eq!(udp.carrier, "udp");
    assert!(udp.buffers_dropped > 0 && udp.elements_lost > 0, "{udp:?}");
    assert!(udp.elements_lost < 20_000, "{udp:?}");
    // The sum names the surviving rows, not just their number.
    let sum = columnar.values()[0].as_integer().expect("sum");
    assert!(sum > 0 && sum < 20_000 * 20_001 / 2);
}
