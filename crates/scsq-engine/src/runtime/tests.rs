use super::*;
use crate::builder::QueryBuilder;
use crate::funcs;
use crate::placement::PlacementPolicy;
use scsq_cluster::ClusterName;
use scsq_ql::{parse_statement, Catalog};

fn run(src: &str) -> Result<QueryResult, EngineError> {
    run_opts(src, &RunOptions::default())
}

fn run_opts(src: &str, options: &RunOptions) -> Result<QueryResult, EngineError> {
    let mut env = Environment::lofar();
    let catalog = Catalog::new();
    let stmt = parse_statement(src).expect("parses");
    let graph =
        QueryBuilder::new(&mut env, &catalog, PlacementPolicy::Naive, options).build(&stmt, &[])?;
    run_graph(env, &graph, options)
}

#[test]
fn build_queues_one_start_per_rp_and_fires_nothing() {
    let mut env = Environment::lofar();
    let options = RunOptions::default();
    let stmt = parse_statement(
        "select extract(c) from sp a, sp b, sp c
         where c=sp(count(merge({a,b})), 'bg',0)
         and a=sp(gen_array(1000,3),'bg',1)
         and b=sp(gen_array(1000,3),'bg',4);",
    )
    .expect("parses");
    let graph = QueryBuilder::new(&mut env, &Catalog::new(), PlacementPolicy::Naive, &options)
        .build(&stmt, &[])
        .unwrap();
    let sim = build(env, &graph, &options).unwrap();
    assert_eq!(sim.events_executed(), 0);
    assert_eq!(sim.now(), SimTime::ZERO);
    let world = sim.world();
    assert_eq!(world.rps.len(), graph.sps.len() + 1);
    assert_eq!(sim.events_pending(), world.rps.len(), "one start each");
    assert_eq!(world.channels.len(), 3, "a -> c, b -> c, c -> client");
    assert!(world.rps.last().is_some_and(|rp| rp.is_client));
}

#[test]
fn profiled_runs_keep_their_first_spans_and_count_the_rest() {
    // 40 000 arrays of 1 kB, per event: a transmit and a deliver
    // span for each buffer that completes an array.
    let q = "select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(1000,40000),'bg',1);";
    let options = RunOptions {
        coalesce: false,
        profile: true,
        ..RunOptions::default()
    };
    let profiled = run_opts(q, &options).unwrap();
    let profile = profiled.stats().profile.as_ref().expect("profiled");
    assert_eq!(profile.spans.len(), SPAN_CAPACITY);
    assert!(profile.spans_dropped > 0);
    assert_eq!(profile.spans[0].name, "transmit", "the first span is kept");
    let plain = run_opts(
        q,
        &RunOptions {
            profile: false,
            ..options
        },
    )
    .unwrap();
    assert!(plain.stats().profile.is_none());
    assert_eq!(plain.values(), profiled.values());
}

#[test]
fn p2p_count_reaches_the_client() {
    // Miniature of the paper's §3.1 point-to-point query: 10 arrays
    // of 100 KB.
    let r = run("select extract(b) from sp a, sp b
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(gen_array(100000,10),'bg',1);")
    .unwrap();
    assert_eq!(r.values(), &[Value::Integer(10)]);
    assert!(r.finished() > SimTime::ZERO);
    // One MPI channel (a→b) and one TCP channel (b→client).
    let mpi: Vec<_> = r
        .stats()
        .channels
        .iter()
        .filter(|c| c.carrier == "mpi")
        .collect();
    assert_eq!(mpi.len(), 1);
    assert_eq!(mpi[0].bytes, 10 * 100_009);
}

#[test]
fn merge_counts_both_streams() {
    let r = run("select extract(c) from sp a, sp b, sp c
         where c=sp(count(merge({a,b})), 'bg',0)
         and a=sp(gen_array(50000,8),'bg',1)
         and b=sp(gen_array(50000,8),'bg',4);")
    .unwrap();
    assert_eq!(r.values(), &[Value::Integer(16)]);
    // Each 50 KB synthetic array marshals to 1 (tag) + 9 (header)
    // + 50_000 payload bytes.
    assert_eq!(r.bytes_into(NodeId::bg(0)), 16 * 50_009);
}

#[test]
fn inbound_query1_shape_counts_all_arrays() {
    let r = run("select extract(c) from
         bag of sp a, sp b, sp c, integer n
         where c=sp(extract(b), 'bg')
         and b=sp(count(merge(a)), 'bg')
         and a=spv((select gen_array(100000,5)
                    from integer i where i in iota(1,n)), 'be', 1)
         and n=3;")
    .unwrap();
    assert_eq!(r.values(), &[Value::Integer(15)]);
    // All inbound traffic crossed be → bg.
    assert_eq!(
        r.bytes_between(ClusterName::BackEnd, ClusterName::BlueGene),
        15 * 100_009
    );
}

#[test]
fn sum_of_counts_matches_total() {
    // Query 3 shape in miniature.
    let r = run("select extract(c) from
         bag of sp a, bag of sp b, sp c, integer n
         where c=sp(streamof(sum(merge(b))), 'bg')
         and b=spv((select streamof(count(extract(p)))
                    from sp p where p in a), 'bg', inPset(1))
         and a=spv((select gen_array(100000,4)
                    from integer i where i in iota(1,n)), 'be', 1)
         and n=3;")
    .unwrap();
    assert_eq!(r.values(), &[Value::Integer(12)]);
}

#[test]
fn grep_mapreduce_delivers_matching_lines() {
    let r = run("merge(spv(
            select grep(\"pulsar\", filename(i))
            from integer i
            where i in iota(1,4)));")
    .unwrap();
    let expected: usize = (1..=4)
        .map(|i| funcs::grep("pulsar", &funcs::filename(i)).len())
        .sum();
    assert_eq!(r.values().len(), expected);
    assert!(expected > 0);
    for v in r.values() {
        assert!(v.as_str().unwrap().contains("pulsar"));
    }
}

#[test]
fn empty_grep_still_terminates() {
    let r = run("merge(spv(
            select grep(\"zebra\", filename(i))
            from integer i where i in iota(1,2)));")
    .unwrap();
    assert!(r.values().is_empty());
    assert!(r.finished() >= SimTime::ZERO);
}

#[test]
fn double_buffering_speeds_up_large_buffer_mpi() {
    let q = "select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(1000000,10),'bg',1);";
    let single = run_opts(
        q,
        &RunOptions {
            mpi_buffer: 100_000,
            mpi_double: false,
            ..RunOptions::default()
        },
    )
    .unwrap();
    let double = run_opts(
        q,
        &RunOptions {
            mpi_buffer: 100_000,
            mpi_double: true,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(single.values(), double.values());
    assert!(double.finished() < single.finished());
}

#[test]
fn windowed_aggregate_runs_end_to_end() {
    let r = run("select extract(b) from sp a, sp b
         where b=sp(winagg(extract(a), 2, 2, 'count'), 'bg', 0)
         and a=sp(gen_array(10000,6),'bg',1);")
    .unwrap();
    assert_eq!(
        r.values(),
        &[Value::Integer(2), Value::Integer(2), Value::Integer(2)]
    );
}

#[test]
fn event_budget_exhaustion_is_an_error_not_a_panic() {
    let err = run_opts(
        "select extract(b) from sp a, sp b
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(gen_array(1000000,100),'bg',1);",
        &RunOptions {
            event_limit: 50,
            ..RunOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("event budget"), "{err}");
}

#[test]
fn first_result_precedes_completion_for_streams() {
    // A relay query streams many values; the first reaches the
    // client well before the stream completes.
    let r = run("select extract(b) from sp a, sp b
         where b=sp(extract(a), 'bg', 0)
         and a=sp(gen_array(50000,20),'bg',1);")
    .unwrap();
    assert_eq!(r.values().len(), 20);
    let first = r.first_result().expect("values arrived");
    assert!(first < r.finished(), "{first} !< {}", r.finished());
}

#[test]
fn max_min_avg_aggregates_run_end_to_end() {
    let q = |agg: &str| {
        format!(
            "select extract(b) from sp src, sp b
             where b=sp(streamof({agg}(extract(src))), 'bg')
             and src=sp(streamof(iota(3,9)), 'be');"
        )
    };
    assert_eq!(run(&q("max")).unwrap().values(), &[Value::Integer(9)]);
    assert_eq!(run(&q("min")).unwrap().values(), &[Value::Integer(3)]);
    assert_eq!(run(&q("avg")).unwrap().values(), &[Value::Real(6.0)]);
    assert_eq!(run(&q("sum")).unwrap().values(), &[Value::Integer(42)]);
    assert_eq!(run(&q("count")).unwrap().values(), &[Value::Integer(7)]);
}

#[test]
fn rp_reports_include_cpu_time() {
    let r = run("select extract(b) from sp a, sp b
         where b=sp(streamof(count(fft(extract(a)))), 'bg', 0)
         and a=sp(gen_array(100000,5),'bg',1);")
    .unwrap();
    let b_report = &r.stats().rp_reports[1];
    assert!(
        b_report.node_cpu_busy > scsq_sim::SimDur::ZERO,
        "the fft-running node must show CPU time"
    );
}

#[test]
fn udp_drops_elements_under_overload() {
    // Four saturating generators into one compute node: TCP's flow
    // control delivers everything; UDP overruns the I/O node and
    // loses elements — why SCSQ carries streams over TCP between
    // clusters.
    // Elements sized to one datagram each, so partial delivery is
    // observable.
    let q = "select extract(b) from bag of sp a, sp b, integer n
             where b=sp(count(merge(a)), 'bg')
             and a=spv((select gen_array(8000,500)
                        from integer i where i in iota(1,n)), 'be', urr('be'))
             and n=4;";
    let tcp = run(q).unwrap();
    assert_eq!(tcp.values(), &[Value::Integer(2000)]);

    let udp = run_opts(
        q,
        &RunOptions {
            udp_inter_cluster: true,
            ..RunOptions::default()
        },
    )
    .unwrap();
    let delivered = udp.values()[0].as_integer().expect("count");
    assert!(
        delivered < 2000,
        "overload must lose datagrams: delivered {delivered}/2000"
    );
    assert!(delivered > 0, "some elements must still arrive");
    let udp_bytes: u64 = udp
        .stats()
        .channels
        .iter()
        .filter(|c| c.carrier == "udp")
        .map(|c| c.bytes)
        .sum();
    assert!(
        udp_bytes < 2000 * 8_009,
        "delivered bytes reflect the loss: {udp_bytes}"
    );
}

#[test]
fn udp_without_overload_delivers_everything() {
    // One modest stream: the I/O backlog never exceeds the drop
    // threshold, so UDP behaves like TCP.
    let q = "select extract(b) from sp a, sp b
             where b=sp(count(extract(a)), 'bg')
             and a=sp(gen_array(100000,10), 'be', 1);";
    let udp = run_opts(
        q,
        &RunOptions {
            udp_inter_cluster: true,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(udp.values(), &[Value::Integer(10)]);
}

#[test]
fn take_truncates_a_stream() {
    // A stop condition in the query makes the stream finite (§2.2).
    let r = run("select extract(b) from sp a, sp b
         where b=sp(count(take(extract(a), 3)), 'bg', 0)
         and a=sp(gen_array(10000,9),'bg',1);")
    .unwrap();
    assert_eq!(r.values(), &[Value::Integer(3)]);
}

#[test]
fn nodes_feeds_allocation_sequences() {
    // nodes('bg') evaluates against the CNDB; using it as an
    // allocation sequence is equivalent to AllocSeq::Any.
    let r = run("select extract(b) from sp a, sp b
         where b=sp(streamof(count(extract(a))), 'bg', nodes('bg'))
         and a=sp(gen_array(10000,2),'bg',1);")
    .unwrap();
    assert_eq!(r.values(), &[Value::Integer(2)]);
    // b landed on node 0 — the first available in the CNDB order.
    assert!(r.bytes_into(NodeId::bg(0)) > 0);
}

#[test]
fn rp_monitors_count_elements() {
    let r = run("select extract(b) from sp a, sp b
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(gen_array(10000,7),'bg',1);")
    .unwrap();
    let reports = &r.stats().rp_reports;
    assert_eq!(reports.len(), 3, "a, b, client");
    // a: generated 7, emitted 7.
    assert_eq!(reports[0].elements_in, 7);
    assert_eq!(reports[0].elements_out, 7);
    assert!(!reports[0].is_client);
    // b: received 7, emitted the single count.
    assert_eq!(reports[1].elements_in, 7);
    assert_eq!(reports[1].elements_out, 1);
    // client: received the count.
    assert!(reports[2].is_client);
    assert_eq!(reports[2].elements_in, 1);
}

#[test]
fn bg_rps_start_at_the_poll_tick() {
    let r = run("select extract(b) from sp a, sp b
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(gen_array(1000,1),'bg',1);")
    .unwrap();
    // The generator cannot start before the bgCC's first poll (1 ms).
    assert!(r.finished() >= SimTime::from_millis(1));
}

#[test]
fn metrics_bandwidth_matches_the_channel_report() {
    // Self-measurement: an observer SP computes the a→b bandwidth
    // from metric samples; it must equal delivered bytes / last
    // delivery straight from the channel's own statistics.
    let r = run("select extract(m) from sp a, sp b, sp m
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(gen_array(100000,10),'bg',1)
         and m=sp(streamof(bandwidth(metrics(a))), 'bg', 2);")
    .unwrap();
    assert_eq!(r.values().len(), 1);
    let measured = match r.values()[0] {
        Value::Real(x) => x,
        ref v => panic!("expected a real bandwidth, got {v:?}"),
    };
    let mpi = r
        .stats()
        .channels
        .iter()
        .find(|c| c.carrier == "mpi")
        .expect("a→b channel");
    let external = mpi.bytes as f64 / mpi.last_delivery.since(SimTime::ZERO).as_secs_f64();
    let rel = (measured - external).abs() / external;
    assert!(rel < 1e-9, "measured {measured} vs external {external}");
}

#[test]
fn metrics_counts_one_sample_per_delivering_buffer() {
    // 100 KB arrays over 1000-byte buffers: exactly one buffer per
    // array completes an element, so the observer sees 10 samples.
    let r = run("select extract(m) from sp a, sp b, sp m
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(gen_array(100000,10),'bg',1)
         and m=sp(streamof(count(metrics(a))), 'bg', 2);")
    .unwrap();
    assert_eq!(r.values(), &[Value::Integer(10)]);
}

#[test]
fn metrics_over_an_unobserved_sp_terminates_empty() {
    // `a` has no subscribers, so no channel matches the observer's
    // target: the metric stream is empty and ends immediately.
    let r = run("select extract(m) from sp a, sp m
         where a=sp(gen_array(1000,1),'bg',1)
         and m=sp(streamof(bandwidth(metrics(a))), 'bg', 2);")
    .unwrap();
    assert!(r.values().is_empty());
    assert!(r.finished() >= SimTime::ZERO);
}

#[test]
fn observers_do_not_change_the_observed_channel() {
    // Adding a metrics SP must not perturb the a→b transfer itself:
    // same delivered bytes, same last-delivery time.
    let plain = run("select extract(b) from sp a, sp b
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(gen_array(100000,10),'bg',1);")
    .unwrap();
    let observed = run("select extract(m) from sp a, sp b, sp m
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(gen_array(100000,10),'bg',1)
         and m=sp(streamof(bandwidth(metrics(a))), 'bg', 2);")
    .unwrap();
    let mpi = |r: &QueryResult| {
        let c = r
            .stats()
            .channels
            .iter()
            .find(|c| c.carrier == "mpi" && c.dst == NodeId::bg(0))
            .expect("a→b channel")
            .clone();
        (c.bytes, c.last_delivery)
    };
    assert_eq!(mpi(&plain), mpi(&observed));
}

#[test]
fn stats_expose_kernel_and_channel_high_water_marks() {
    let r = run("select extract(b) from sp a, sp b
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(gen_array(100000,10),'bg',1);")
    .unwrap();
    assert!(r.stats().events_pending_hwm > 0);
    assert!(r.stats().events_pending_hwm <= r.stats().events);
    let mpi = r
        .stats()
        .channels
        .iter()
        .find(|c| c.carrier == "mpi")
        .expect("a→b channel");
    assert!(mpi.queue_peak_trains >= 1);
    assert!(mpi.buffers_sent > 0);
    assert_eq!(mpi.bytes_enqueued, mpi.bytes, "MPI loses nothing");
    assert_eq!(mpi.buffers_dropped, 0);
}

#[test]
fn columnar_off_skips_decomposition_entirely() {
    // `columnar_transposes` counts *run-time* `Value`→column
    // transposes. A prepared constant source reaches the absorber
    // as the plan's own columns, so batches are absorbed and
    // nothing is transposed; a source that cannot be prepared (its
    // chain computes) emits values, which the receiver transposes
    // per delivered run. `columnar: false` must not even
    // speculatively transpose, and must not touch the prepared
    // column either: the source walks its values one by one.
    let prepared = "select extract(b) from sp a, sp b
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(streamof(iota(1,100)),'bg',1);";
    let computed = "select extract(b) from sp a, sp b
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(arith(iota(1,100), '+', 1),'bg',1);";
    let off_options = RunOptions {
        columnar: false,
        ..RunOptions::default()
    };
    let a_to_b_peak = |r: &QueryResult| {
        let mpi = r.stats().channels.iter().find(|c| c.carrier == "mpi");
        mpi.expect("a→b channel").queue_peak_trains
    };
    for (q, transposes_on, peak_on) in [(prepared, false, 1), (computed, true, 100)] {
        let on = run(q).unwrap();
        assert_eq!(on.values(), &[Value::Integer(100)]);
        assert_eq!(on.stats().columnar_transposes > 0, transposes_on, "{q}");
        assert!(on.stats().columnar_batches > 0, "{q}");
        assert_eq!(a_to_b_peak(&on), peak_on, "{q}");
        let off = run_opts(q, &off_options).unwrap();
        assert_eq!(off.stats().columnar_transposes, 0);
        assert_eq!(off.stats().columnar_batches, 0);
        assert_eq!(a_to_b_peak(&off), 100, "one train per element: {q}");
        assert_eq!(on.values(), off.values());
        assert_eq!(on.finished(), off.finished());
        assert_eq!(on.stats().events, off.stats().events);
    }
}

#[test]
fn relay_chains_forward_columns_across_sps() {
    // Two-SP pipeline: the middle SP's chain re-emits (arith +
    // filter), so the columnar pass relays survivor rows as shared
    // column handles to the downstream absorber — and the books
    // must match the per-element reference exactly.
    let q = "select extract(c) from sp a, sp b, sp c
         where c=sp(streamof(sum(extract(b))), 'bg', 0)
         and b=sp(filter(arith(extract(a), '*', 3), '>', 150), 'bg', 2)
         and a=sp(streamof(iota(1,100)),'bg',1);";
    let on = run(q).unwrap();
    // sum of 3i for i in 51..=100.
    assert_eq!(on.values(), &[Value::Integer(11325)]);
    assert!(on.stats().columnar_batches > 0, "{:?}", on.stats());
    let off = run_opts(
        q,
        &RunOptions {
            columnar: false,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(on.values(), off.values());
    assert_eq!(on.finished(), off.finished());
}

#[test]
fn type_error_inside_operator_aborts_the_query() {
    // sum() over synthetic arrays is a type error at run time.
    let err = run("select extract(b) from sp a, sp b
         where b=sp(streamof(sum(extract(a))), 'bg', 0)
         and a=sp(gen_array(1000,2),'bg',1);")
    .unwrap_err();
    assert!(err.to_string().contains("expected number"), "{err}");
}

#[test]
fn a_failing_handler_stops_the_simulator() {
    // sum() over synthetic arrays fails at the first array the
    // receiver processes, with the generator's 50 arrays still
    // streaming: the query returns the error, and no event fires after
    // the one whose handler failed.
    let q = "select extract(b) from sp a, sp b
             where b=sp(streamof(sum(extract(a))), 'bg', 0)
             and a=sp(gen_array(1000,50),'bg',1);";
    let options = RunOptions::default();
    let err = run_opts(q, &options).unwrap_err();
    assert!(err.to_string().contains("expected number"), "{err}");

    let mut env = Environment::lofar();
    let stmt = parse_statement(q).expect("parses");
    let graph = QueryBuilder::new(&mut env, &Catalog::new(), PlacementPolicy::Naive, &options)
        .build(&stmt, &[])
        .unwrap();
    let mut sim = build(env, &graph, &options).unwrap();
    let mut failed_at = None;
    while sim.step() {
        assert_eq!(failed_at, None, "an event fired after the failure");
        if sim.world().error.is_some() {
            failed_at = Some(sim.events_executed());
        }
    }
    assert!(failed_at.is_some(), "the query failed");
    assert!(sim.events_pending() > 0, "the stream was still running");
    assert!(!sim.limit_exceeded());
}
