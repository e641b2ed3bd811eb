//! The paper's evaluation findings, asserted as integration tests.
//!
//! Each test reruns one of the §3 experiments (at reduced scale via the
//! shared bench harness) and checks the corresponding claim from the
//! paper's text. These are the claims `EXPERIMENTS.md` tracks.

use scsq_bench::{ablation, fig15, fig6, fig8, Scale};
use scsq_core::{HardwareSpec, NodeId, RunOptions, Scsq, Value};
use scsq_sim::Series;

fn spec() -> HardwareSpec {
    HardwareSpec::lofar()
}

// The figure sweeps on the LOFAR spec with default options, on two
// workers (every worker count gives the same series).

fn fig6_sweep(scale: Scale, buffers: &[u64]) -> Vec<Series> {
    fig6::run(&spec(), scale, buffers, 2, &RunOptions::default()).unwrap()
}

fn fig8_sweep(scale: Scale, buffers: &[u64]) -> Vec<Series> {
    fig8::run(&spec(), scale, buffers, 2, &RunOptions::default()).unwrap()
}

fn fig15_sweep(scale: Scale, ns: &[u32]) -> Vec<Series> {
    fig15::run(&spec(), scale, ns, 2, &RunOptions::default()).unwrap()
}

fn ablation_sweep(scale: Scale, ns: &[u32]) -> Vec<Series> {
    ablation::run(&spec(), scale, ns, 2, &RunOptions::default()).unwrap()
}

// ---------- Figure 6 ---------------------------------------------------

#[test]
fn fig6_optimal_buffer_is_1000_bytes_for_both_modes() {
    let buffers = [500u64, 1_000, 2_000, 5_000];
    let series = fig6_sweep(Scale::quick(), &buffers);
    for s in &series {
        assert_eq!(s.peak().unwrap().0, 1_000.0, "{}: {s:?}", s.label());
    }
}

#[test]
fn fig6_sub_1k_buffers_collapse_due_to_min_torus_message() {
    let series = fig6_sweep(Scale::quick(), &[100, 500, 1_000]);
    let double = &series[1];
    // Bandwidth below 1K scales roughly linearly with the buffer size
    // (everything is padded to a 1K torus message).
    let b100 = double.y_at(100.0).unwrap();
    let b500 = double.y_at(500.0).unwrap();
    let b1000 = double.y_at(1_000.0).unwrap();
    assert!(b100 < 0.15 * b1000);
    assert!(b500 < 0.6 * b1000);
    assert!(b500 > 3.0 * b100);
}

#[test]
fn fig6_large_buffers_degrade_but_flatten() {
    // Enough data that even 1 MB buffers see a steady-state pipeline.
    let scale = Scale {
        array_bytes: 1_000_000,
        arrays: 60,
        ..Scale::quick()
    };
    let series = fig6_sweep(scale, &[1_000, 50_000, 1_000_000]);
    let double = &series[1];
    let peak = double.y_at(1_000.0).unwrap();
    let mid = double.y_at(50_000.0).unwrap();
    let big = double.y_at(1_000_000.0).unwrap();
    assert!(mid < peak, "cache misses must bite above the knee");
    assert!(
        (big - mid).abs() < 0.1 * mid,
        "the degradation saturates: {mid:.1} vs {big:.1}"
    );
}

#[test]
fn fig6_double_buffering_pays_off_for_large_buffers() {
    let series = fig6_sweep(Scale::quick(), &[100, 200_000]);
    let single = &series[0];
    let double = &series[1];
    let gain_small = double.y_at(100.0).unwrap() / single.y_at(100.0).unwrap();
    let gain_large = double.y_at(200_000.0).unwrap() / single.y_at(200_000.0).unwrap();
    assert!(gain_small < 1.1, "modes converge for tiny buffers");
    assert!(gain_large > 1.15, "double buffering wins for large buffers");
}

#[test]
fn fig6_bandwidth_is_reproducible_from_metric_streams_alone() {
    // The paper's self-measurement claim: SCSQ measures its own
    // communication performance with stream queries. An observer SP
    // running `bandwidth(metrics(a))` must agree with the externally
    // computed Figure 6 quotient (delivered bytes / query time) within
    // 1% — they differ only by the post-last-delivery EOS tail.
    let mut scsq = Scsq::lofar();
    let external = scsq
        .run(
            "select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(1000000,30),'bg',1);",
        )
        .unwrap()
        .bandwidth_into(NodeId::bg(0));
    let r = scsq
        .run(
            "select extract(m) from sp a, sp b, sp m
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(1000000,30),'bg',1)
             and m=sp(streamof(bandwidth(metrics(a))), 'bg', 2);",
        )
        .unwrap();
    let measured = match r.values() {
        [Value::Real(x)] => *x,
        other => panic!("expected one real bandwidth value, got {other:?}"),
    };
    let rel = (measured - external).abs() / external;
    assert!(
        rel < 0.01,
        "self-measured {measured:.0} B/s vs external {external:.0} B/s ({:.3}% apart)",
        rel * 100.0
    );
}

#[test]
fn fig6_self_measured_bandwidth_survives_columnar_batching() {
    // The same self-measurement claim, with the metric stream forwarded
    // over a channel to a downstream bandwidth SP — the topology where
    // delivered metric samples arrive in multi-row batches and the
    // columnar bandwidth fold (rather than the per-sample chain) can
    // absorb them. The fold must change nothing: the columnar and
    // per-element runs must agree bit for bit, and both must still
    // match the externally computed Figure 6 quotient within 1%.
    let query = "select extract(w) from sp a, sp b, sp m, sp w
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(gen_array(100000,300),'bg',1)
         and m=sp(streamof(metrics(a)), 'bg', 2)
         and w=sp(streamof(bandwidth(extract(m))), 'bg', 3);";
    let mut scsq = Scsq::lofar();
    let external = scsq
        .run(
            "select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(100000,300),'bg',1);",
        )
        .unwrap()
        .bandwidth_into(NodeId::bg(0));
    let bandwidth_of = |scsq: &mut Scsq, columnar: bool| {
        scsq.options_mut().columnar = columnar;
        let r = scsq.run(query).unwrap();
        match r.values() {
            [Value::Real(x)] => *x,
            other => panic!("expected one real bandwidth value, got {other:?}"),
        }
    };
    let columnar = bandwidth_of(&mut scsq, true);
    let per_element = bandwidth_of(&mut scsq, false);
    assert_eq!(
        columnar.to_bits(),
        per_element.to_bits(),
        "columnar bandwidth fold must be bit-identical to the per-sample chain"
    );
    let rel = (columnar - external).abs() / external;
    assert!(
        rel < 0.01,
        "self-measured {columnar:.0} B/s vs external {external:.0} B/s ({:.3}% apart)",
        rel * 100.0
    );
}

// ---------- Figure 8 ---------------------------------------------------

#[test]
fn fig8_balanced_selection_beats_sequential() {
    let series = fig8_sweep(Scale::quick(), &[50_000, 500_000]);
    let gain = fig8::best_balanced_gain(&series);
    // §5: "stream merging performs up to 60% better if no busy
    // intermediate nodes are involved".
    assert!(gain > 1.4 && gain < 2.0, "gain={gain:.2}");
}

#[test]
fn fig8_merging_needs_much_larger_buffers_than_p2p() {
    let buffers = [1_000u64, 100_000];
    let p2p = fig6_sweep(Scale::quick(), &buffers);
    let merge = fig8_sweep(Scale::quick(), &buffers);
    let p2p_double = &p2p[1];
    let bal_double = merge
        .iter()
        .find(|s| s.label() == "balanced / double buffering")
        .unwrap();
    // P2P is already at its optimum at 1K; merging at 1K runs at a small
    // fraction of its own 100K bandwidth (obs. 3: "buffers smaller than
    // 10K are much slower for stream merging than for point-to-point").
    let merge_ratio = bal_double.y_at(1_000.0).unwrap() / bal_double.y_at(100_000.0).unwrap();
    let p2p_ratio = p2p_double.y_at(1_000.0).unwrap() / p2p_double.y_at(100_000.0).unwrap();
    assert!(merge_ratio < 0.5, "merge@1K/merge@100K = {merge_ratio:.2}");
    assert!(p2p_ratio > 1.0, "p2p@1K/p2p@100K = {p2p_ratio:.2}");
}

#[test]
fn fig8_double_buffering_matters_less_for_merging() {
    let buffers = [100_000u64];
    let p2p = fig6_sweep(Scale::quick(), &buffers);
    let merge = fig8_sweep(Scale::quick(), &buffers);
    let p2p_gain = p2p[1].y_at(100_000.0).unwrap() / p2p[0].y_at(100_000.0).unwrap();
    let bal = |mode: &str| {
        merge
            .iter()
            .find(|s| s.label() == format!("balanced / {mode} buffering"))
            .unwrap()
            .y_at(100_000.0)
            .unwrap()
    };
    let merge_gain = bal("double") / bal("single");
    assert!(
        merge_gain <= p2p_gain + 0.05,
        "merge gain {merge_gain:.2} vs p2p gain {p2p_gain:.2}"
    );
}

// ---------- Figure 15 --------------------------------------------------

#[test]
fn fig15_observation_1_many_io_nodes_win() {
    let series = fig15_sweep(Scale::quick(), &[4]);
    let at = |i: usize| series[i].y_at(4.0).unwrap();
    for single_io in 0..4 {
        assert!(
            at(4) > 1.5 * at(single_io),
            "Query 5 ({:.0}) must dominate Query {} ({:.0})",
            at(4),
            single_io + 1,
            at(single_io)
        );
    }
}

#[test]
fn fig15_observation_2_two_receivers_offload_one() {
    let series = fig15_sweep(Scale::quick(), &[2, 4]);
    let q1 = &series[0];
    let q3 = &series[2];
    assert!(q3.y_at(2.0).unwrap() > 1.15 * q1.y_at(2.0).unwrap());
    assert!(q3.y_at(4.0).unwrap() >= 0.95 * q1.y_at(4.0).unwrap());
}

#[test]
fn fig15_observation_3_q5_beats_q6() {
    let series = fig15_sweep(Scale::quick(), &[4]);
    let q5 = series[4].y_at(4.0).unwrap();
    let q6 = series[5].y_at(4.0).unwrap();
    assert!(q5 > 1.15 * q6, "q5={q5:.0} q6={q6:.0}");
}

#[test]
fn fig15_observation_4_q1_beats_q2() {
    let series = fig15_sweep(Scale::quick(), &[3]);
    let q1 = series[0].y_at(3.0).unwrap();
    let q2 = series[1].y_at(3.0).unwrap();
    assert!(q1 > 1.3 * q2, "q1={q1:.0} q2={q2:.0}");
}

#[test]
fn fig15_observation_5_q5_peaks_near_920_and_dips_at_5() {
    // Long enough streams to amortize the bgCC poll-tick start-up.
    let scale = Scale {
        array_bytes: 3_000_000,
        arrays: 25,
        ..Scale::quick()
    };
    let series = fig15_sweep(scale, &[3, 4, 5]);
    let q5 = &series[4];
    let peak = q5.y_at(4.0).unwrap();
    // "The best streaming bandwidth is achieved for Query 5, which peaks
    // at ~920 Mbps."
    assert!((850.0..980.0).contains(&peak), "peak={peak:.0} Mbps");
    // "In Query 5, there is a significant performance dip for n=5."
    let dip = q5.y_at(5.0).unwrap();
    assert!(dip < 0.9 * peak, "dip={dip:.0} vs peak={peak:.0}");
    // And the curve was still rising into the peak.
    assert!(q5.y_at(3.0).unwrap() < peak);
}

// ---------- the §5 refinement ------------------------------------------

#[test]
fn topology_aware_placement_beats_naive() {
    let series = ablation_sweep(Scale::quick(), &[4]);
    let naive = series[0].y_at(4.0).unwrap();
    let aware = series[1].y_at(4.0).unwrap();
    assert!(aware > 2.0 * naive, "aware={aware:.0} naive={naive:.0}");
}

// ---------- latency self-measurement -----------------------------------

/// The query whose a→b channel the latency tests observe.
fn latency_quantile_query(q: f64) -> String {
    format!(
        "select extract(l) from sp a, sp b, sp l
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(gen_array(100000,50),'bg',1)
         and l=sp(streamof(quantile(latency(a), {q})), 'bg', 2);"
    )
}

#[test]
fn latency_quantiles_match_the_tracked_histogram_across_all_tiers() {
    // The paper's self-measurement claim, extended to latency: a
    // `quantile(latency(a), q)` observer must report exactly the value
    // computed externally from the watched channel's ingress→delivery
    // histogram — and both executor tiers (scalar, columnar) must agree
    // byte for byte.
    for q in [0.5, 0.99] {
        let query = latency_quantile_query(q);
        let mut measured_by_tier = Vec::new();
        for columnar in [false, true] {
            let mut scsq = Scsq::lofar();
            scsq.options_mut().columnar = columnar;
            let r = scsq.run(&query).unwrap();
            let measured = match r.values() {
                [Value::Integer(x)] => *x,
                other => panic!("expected one integer latency quantile, got {other:?}"),
            };
            let tracked: Vec<_> = r
                .stats()
                .channels
                .iter()
                .filter(|c| c.latency.count() > 0)
                .collect();
            assert_eq!(
                tracked.len(),
                1,
                "exactly the watched a->b channel tracks latency"
            );
            let external = tracked[0].latency.quantile(q) as i64;
            assert_eq!(
                measured, external,
                "columnar={columnar} q={q}: self-measured vs external"
            );
            measured_by_tier.push(measured);
        }
        assert!(
            measured_by_tier.windows(2).all(|w| w[0] == w[1]),
            "tiers disagree at q={q}: {measured_by_tier:?}"
        );
    }
}

#[test]
fn forwarded_latency_quantile_survives_columnar_batching() {
    // Latency samples forwarded over a stream channel to a downstream
    // quantile SP — the topology where delivered samples arrive in
    // multi-row batches and the columnar fold can absorb them. The fold
    // must change nothing: columnar and per-element runs agree bit for
    // bit, and both match the watched channel's own histogram.
    let query = "select extract(w) from sp a, sp b, sp m, sp w
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(gen_array(100000,50),'bg',1)
         and m=sp(streamof(latency(a)), 'bg', 2)
         and w=sp(streamof(quantile(extract(m), 0.99)), 'bg', 3);";
    let mut scsq = Scsq::lofar();
    let quantile_of = |scsq: &mut Scsq, columnar: bool| {
        scsq.options_mut().columnar = columnar;
        let r = scsq.run(query).unwrap();
        let measured = match r.values() {
            [Value::Integer(x)] => *x,
            other => panic!("expected one integer latency quantile, got {other:?}"),
        };
        let external = r
            .stats()
            .channels
            .iter()
            .find(|c| c.latency.count() > 0)
            .expect("the watched a->b channel tracks latency")
            .latency
            .quantile(0.99) as i64;
        (measured, external)
    };
    let (columnar, columnar_ext) = quantile_of(&mut scsq, true);
    let (per_element, per_element_ext) = quantile_of(&mut scsq, false);
    assert_eq!(columnar, per_element, "columnar fold must change nothing");
    assert_eq!(columnar, columnar_ext);
    assert_eq!(per_element, per_element_ext);
}

#[test]
fn latency_observation_never_perturbs_the_channel() {
    // Observability may never change results: a profiled run, which
    // tracks every channel's latency, must be indistinguishable from
    // the plain run in every result-affecting respect.
    let query = "select extract(b) from sp a, sp b
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(gen_array(100000,30),'bg',1);";
    let mut scsq = Scsq::lofar();
    let plain = scsq.run(query).unwrap();
    scsq.options_mut().profile = true;
    let observed = scsq.run(query).unwrap();
    assert_eq!(plain.values(), observed.values());
    assert_eq!(plain.finished().as_nanos(), observed.finished().as_nanos());
    assert_eq!(plain.stats().events, observed.stats().events);
    let pairs = plain
        .stats()
        .channels
        .iter()
        .zip(observed.stats().channels.iter());
    let mut tracked = 0;
    for (p, o) in pairs {
        assert_eq!(p.bytes, o.bytes);
        assert_eq!(p.bytes_enqueued, o.bytes_enqueued);
        assert_eq!(p.buffers_sent, o.buffers_sent);
        assert_eq!(p.queue_peak_trains, o.queue_peak_trains);
        assert_eq!(p.latency.count(), 0, "plain run tracks nothing");
        tracked += u64::from(o.latency.count() > 0);
    }
    assert!(tracked > 0, "observed run tracked at least one channel");
}

#[test]
fn metrics_snapshot_carries_the_latency_summary() {
    let query = "select extract(b) from sp a, sp b
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(gen_array(100000,30),'bg',1);";
    let mut scsq = Scsq::lofar();
    scsq.options_mut().profile = true;
    let r = scsq.run(query).unwrap();
    let c = r
        .stats()
        .channels
        .iter()
        .find(|c| c.latency.count() > 0)
        .expect("a tracked channel reports a latency summary");
    let (p50, p95, p99) = (
        c.latency.quantile(0.50),
        c.latency.quantile(0.95),
        c.latency.quantile(0.99),
    );
    let max = c.latency.max();
    assert!(p50 > 0);
    assert!(p50 <= p95);
    assert!(p95 <= p99);
    assert!(p99 <= max);
    let summary = format!(
        "\"lat_count\": {}, \"lat_p50_ns\": {p50}, \"lat_p95_ns\": {p95}, \
         \"lat_p99_ns\": {p99}, \"lat_max_ns\": {max}}}",
        c.latency.count()
    );
    let json = r.metrics_json();
    assert!(json.contains(&summary), "{json}");
}

// ---------- observability contracts ------------------------------------

/// Every JSON object key in `json` (a quoted string followed by `:`).
fn json_keys(json: &str) -> std::collections::BTreeSet<String> {
    let parts: Vec<&str> = json.split('"').collect();
    let mut keys = std::collections::BTreeSet::new();
    for i in (1..parts.len()).step_by(2) {
        if parts
            .get(i + 1)
            .is_some_and(|rest| rest.trim_start().starts_with(':'))
        {
            keys.insert(parts[i].to_string());
        }
    }
    keys
}

fn observability_doc() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/docs/observability.md"
    ))
    .expect("docs/observability.md exists")
}

/// The first-column key of every table row under `heading` in `doc`,
/// up to the next heading.
fn documented_keys(doc: &str, heading: &str) -> std::collections::BTreeSet<String> {
    let section = doc
        .split(heading)
        .nth(1)
        .unwrap_or_else(|| panic!("docs/observability.md has a '{heading}' section"));
    let mut documented = std::collections::BTreeSet::new();
    for line in section.lines() {
        if line.starts_with('#') {
            break; // next heading ends the section
        }
        if let Some(rest) = line.strip_prefix("| `") {
            let name = rest.split('`').next().expect("closing backtick");
            documented.insert(name.to_string());
        }
    }
    documented
}

#[test]
fn metric_catalog_doc_matches_snapshot_json_keys() {
    // Doc-drift guard: the metric-catalog table in docs/observability.md
    // must list exactly the keys `QueryResult::metrics_json` emits — a
    // row per key, no stale rows, no undocumented keys.
    let doc = observability_doc();
    let documented = documented_keys(&doc, "## Metric catalog");
    let mut scsq = Scsq::lofar();
    scsq.options_mut().profile = true;
    let r = scsq
        .run(
            "select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(1000,2),'bg',1);",
        )
        .unwrap();
    let emitted = json_keys(&r.metrics_json());
    let undocumented: Vec<_> = emitted.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&emitted).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "metric catalog drifted from QueryResult::metrics_json — \
         undocumented: {undocumented:?}, stale rows: {stale:?}"
    );

    // The "Further counters" table right below it names fields of
    // `QueryStats` and the reports inside it: every name in its first
    // column must be a real field, and every field of `QueryStats`
    // itself must be documented in one of the two tables (by name, or
    // as the prefix of a flattened key such as `coalesce_jumps`).
    let further = doc
        .split("### Further counters")
        .nth(1)
        .expect("docs/observability.md has a '### Further counters' table");
    let mut counters = std::collections::BTreeSet::new();
    for line in further.lines().skip(1) {
        if line.starts_with('#') {
            break;
        }
        let Some(cell) = line.strip_prefix("| `") else {
            continue;
        };
        let cell = cell.split('|').next().expect("first column");
        for name in cell.split('`').step_by(2).filter(|n| !n.is_empty()) {
            counters.insert(name.rsplit('.').next().expect("a name").to_string());
        }
    }
    let fields = format!("{:#?}", r.stats());
    for name in &counters {
        assert!(
            fields.contains(&format!(" {name}: ")),
            "docs/observability.md documents `{name}`, which QueryStats does not carry"
        );
    }
    for line in fields.lines() {
        // Top-level fields sit at one level of indentation.
        let Some(field) = line.strip_prefix("    ").filter(|l| !l.starts_with(' ')) else {
            continue;
        };
        let Some((field, _)) = field.split_once(':') else {
            continue;
        };
        assert!(
            documented
                .iter()
                .chain(&counters)
                .any(|d| d.starts_with(field)),
            "QueryStats::{field} is documented in neither table of docs/observability.md"
        );
    }
}

#[test]
fn hub_key_table_matches_hub_json_keys() {
    // The same guard for the `--metrics` file: the hub's key table
    // lists exactly the keys `HubSnapshot::to_json` emits.
    let documented = documented_keys(&observability_doc(), "## The JSON snapshot and the hub");
    let emitted = json_keys(&scsq_core::metrics::HubSnapshot::default().to_json());
    let undocumented: Vec<_> = emitted.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&emitted).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "hub key table drifted from HubSnapshot::to_json — \
         undocumented: {undocumented:?}, stale rows: {stale:?}"
    );
    assert_eq!(emitted.len(), 10, "{emitted:?}");
}

#[test]
fn chrome_trace_export_is_well_formed() {
    // A profiled run's Chrome-trace export must load in a trace
    // viewer: monotone non-decreasing `ts`, every span a matched B/E
    // pair, balanced JSON. The spans are the run's own, so no other
    // test's run can add to them.
    let mut scsq = Scsq::lofar();
    scsq.options_mut().profile = true;
    let r = scsq
        .run(
            "select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(100000,10),'bg',1);",
        )
        .unwrap();
    let profile = r.stats().profile.as_ref().expect("profiled run");
    let spans = &profile.spans;
    assert!(!spans.is_empty(), "the profiled run recorded spans");
    assert_eq!(profile.spans_dropped, 0, "a short run fits the cap");
    let json = scsq_sim::obs::chrome_trace_json(spans);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert_eq!(
        json.matches("\"ph\":\"B\"").count(),
        spans.len(),
        "one begin event per span"
    );
    assert_eq!(
        json.matches("\"ph\":\"E\"").count(),
        spans.len(),
        "one end event per span"
    );
    let ts: Vec<f64> = json
        .split("\"ts\":")
        .skip(1)
        .map(|s| s.split(',').next().unwrap().parse::<f64>().unwrap())
        .collect();
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "trace timestamps must be globally non-decreasing"
    );
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

// ---------- golden bytes of the JSON reports ---------------------------

/// A profiled p2p run: every channel tracks latency, so the `lat_*`
/// keys are non-zero.
fn profiled_p2p_run() -> scsq_core::QueryResult {
    let mut scsq = Scsq::lofar();
    scsq.options_mut().profile = true;
    scsq.run(
        "select extract(b) from sp a, sp b
         where b=sp(streamof(count(extract(a))), 'bg', 0)
         and a=sp(gen_array(100000,30),'bg',1);",
    )
    .unwrap()
}

/// Four back-end producers merged over UDP into one BlueGene node:
/// the I/O node overruns and drops datagrams, so `buffers_dropped` and
/// `elements_lost` are non-zero.
fn lossy_udp_run() -> scsq_core::QueryResult {
    let mut scsq = Scsq::lofar();
    scsq.options_mut().udp_inter_cluster = true;
    scsq.run(
        "select extract(b) from bag of sp a, sp b, integer n
         where b=sp(count(merge(a)), 'bg')
         and a=spv((select gen_array(8000,500)
                    from integer i where i in iota(1,n)), 'be', urr('be'))
         and n=4;",
    )
    .unwrap()
}

#[test]
fn metrics_json_reports_are_byte_identical_to_their_golden_files() {
    let profiled = profiled_p2p_run();
    let lossy = lossy_udp_run();
    assert!(profiled
        .stats()
        .channels
        .iter()
        .all(|c| c.latency.count() > 0));
    assert!(lossy
        .stats()
        .channels
        .iter()
        .any(|c| c.buffers_dropped > 0 && c.elements_lost > 0));
    assert_eq!(
        profiled.metrics_json(),
        include_str!("golden/metrics_profiled_p2p.json")
    );
    assert_eq!(
        lossy.metrics_json(),
        include_str!("golden/metrics_lossy_udp.json")
    );
    let hub = scsq_core::metrics::MetricsHub::new();
    hub.record(&profiled);
    hub.record(&lossy);
    assert_eq!(
        hub.snapshot().to_json(),
        include_str!("golden/hub_after_both_runs.json")
    );
}
