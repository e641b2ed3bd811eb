//! Cross-crate property-based tests (proptest).
//!
//! These pin down the invariants the reproduction's correctness rests
//! on: the parser never panics, the distributed radix-2 plan equals the
//! direct FFT, counting queries count exactly, and the simulated network
//! behaves like a physical one (conservation, monotonicity).

use proptest::prelude::*;
use scsq::prelude::*;
use scsq::{ArrayData, ClusterName};
use scsq_ql::parse_program;

// ---------- parser robustness -------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary input never panics the lexer/parser.
    #[test]
    fn parser_never_panics_on_noise(src in ".{0,200}") {
        let _ = parse_program(&src);
    }

    /// Arbitrary ASCII-ish SCSQL-flavored token soup never panics.
    #[test]
    fn parser_never_panics_on_token_soup(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("select".to_string()),
                Just("from".to_string()),
                Just("where".to_string()),
                Just("and".to_string()),
                Just("in".to_string()),
                Just("sp".to_string()),
                Just("merge".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just(",".to_string()),
                Just(";".to_string()),
                Just("=".to_string()),
                Just("'bg'".to_string()),
                Just("123".to_string()),
                "[a-z]{1,6}",
            ],
            0..40,
        )
    ) {
        let src = tokens.join(" ");
        let _ = parse_program(&src);
    }
}

// ---------- query semantics -----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A counting query counts exactly n × arrays, for any workload
    /// shape, and the measured traffic matches the marshaled sizes.
    #[test]
    fn counting_queries_count_exactly(
        n in 1u32..6,
        arrays in 1u64..12,
        bytes in 1_000u64..500_000,
    ) {
        let mut scsq = Scsq::lofar();
        let r = scsq.run_with(
            &format!(
                "select extract(b) from bag of sp a, sp b, integer n
                 where b=sp(count(merge(a)), 'bg')
                 and a=spv((select gen_array({bytes},{arrays})
                            from integer i where i in iota(1,n)), 'be', urr('be'))
                 and n=2;"
            ),
            &[("n", Value::Integer(i64::from(n)))],
        ).expect("query runs");
        prop_assert_eq!(
            r.values(),
            &[Value::Integer(i64::from(n) * arrays as i64)]
        );
        let expected_bytes = u64::from(n) * arrays * (bytes + 9);
        prop_assert_eq!(
            r.bytes_between(ClusterName::BackEnd, ClusterName::BlueGene),
            expected_bytes
        );
    }

    /// More data never finishes earlier (monotonicity of the simulated
    /// hardware).
    #[test]
    fn more_arrays_never_finish_earlier(arrays in 1u64..10) {
        let run = |k: u64| {
            let mut scsq = Scsq::lofar();
            scsq.run(&format!(
                "select extract(b) from sp a, sp b
                 where b=sp(streamof(count(extract(a))), 'bg', 0)
                 and a=sp(gen_array(50000,{k}),'bg',1);"
            )).expect("query runs").finished()
        };
        prop_assert!(run(arrays + 1) >= run(arrays));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The distributed radix-2 pipeline equals the direct FFT for any
    /// power-of-two signal the receiver produces.
    #[test]
    fn distributed_fft_equals_direct(samples_pow in 4u32..10, arrays in 1u64..4) {
        let samples = 1usize << samples_pow;
        let mut scsq = Scsq::lofar();
        scsq.options_mut().receiver_samples = samples;
        scsq.options_mut().receiver_arrays = arrays;
        scsq.define(
            "create function radix2(string s) -> stream
             as select radixcombine(merge({a,b}))
             from sp a, sp b, sp c
             where a=sp(fft(odd (extract(c))))
             and b=sp(fft(even(extract(c))))
             and c=sp(receiver(s));",
        ).expect("function defines");
        let r = scsq.run("radix2('prop');").expect("query runs");
        prop_assert_eq!(r.values().len(), arrays as usize);
        for v in r.values() {
            let Value::Array(ArrayData::Complex(spec)) = v else {
                return Err(TestCaseError::fail("expected complex array"));
            };
            prop_assert_eq!(spec.len(), samples);
            // Energy must be positive and finite: a garbled combine
            // would produce NaN or zeros.
            let energy: f64 = spec.iter().map(|(re, im)| re * re + im * im).sum();
            prop_assert!(energy.is_finite() && energy > 0.0);
        }
    }

    /// Window aggregation agrees with a reference implementation for
    /// any window geometry.
    #[test]
    fn windows_match_reference(
        total in 1i64..40,
        size in 1i64..8,
        slide in 1i64..8,
    ) {
        let mut scsq = Scsq::lofar();
        let r = scsq.run(&format!(
            "select extract(w) from sp src, sp w
             where w=sp(winagg(extract(src), {size}, {slide}, 'sum'), 'bg')
             and src=sp(streamof(iota(1,{total})), 'be');"
        )).expect("query runs");

        // Reference: emit after the first full window, then every
        // `slide` elements; flush the unemitted tail.
        let xs: Vec<i64> = (1..=total).collect();
        let mut expected = Vec::new();
        let mut since = 0i64;
        let mut emitted = false;
        for i in 0..xs.len() {
            since += 1;
            let window_full = (i + 1) as i64 >= size;
            let due = if emitted { since >= slide } else { window_full };
            if due {
                let lo = (i + 1).saturating_sub(size as usize);
                expected.push(Value::Integer(xs[lo..=i].iter().sum()));
                since = 0;
                emitted = true;
            }
        }
        if since > 0 {
            // The flush covers unemitted elements, bounded by the window
            // capacity.
            let tail_len = (since as usize).min(size as usize).min(xs.len());
            let tail = &xs[xs.len() - tail_len..];
            expected.push(Value::Integer(tail.iter().sum()));
        }
        prop_assert_eq!(r.values(), expected.as_slice());
    }
}

// ---------- event queue ordering ----------------------------------------

use scsq_sim::{EventQueue, SimTime, StateProbe};

proptest! {
    /// The event queue (with its front-slot fast path) pops in
    /// (time, insertion-order) — exactly a stable sort by time.
    #[test]
    fn event_queue_pops_like_a_stable_sort(
        times in proptest::collection::vec(0u64..50, 0..64)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
        expected.sort_by_key(|&(t, _)| t); // stable: ties keep insertion order
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, p)| (t.as_nanos(), p))).collect();
        prop_assert_eq!(got, expected);
    }

    /// Interleaved pushes, pops and coalescer walks agree with a naive
    /// min-scan model at every step. Pushes name random lanes, so equal
    /// times across lanes and pushes landing before their lane's tail
    /// (the loose-entry path) are both common, as are pushes that
    /// displace the cached front, and some pushes are arithmetic runs
    /// of six into one lane, which the walk probes as periodic blocks.
    /// A digest-mode walk visits entries in the model's (time, seq)
    /// order, and neither it nor a zero-delta advance walk changes the
    /// pop order.
    #[test]
    fn event_queue_interleaved_ops_match_model(
        ops in proptest::collection::vec((0u8..12, 0u32..5, 0u64..20), 0..200)
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, usize)> = Vec::new();
        let mut seq = 0usize;
        for (op, lane, t) in ops {
            match op {
                // Pop.
                0..=2 => {
                    let expected = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(mt, ms))| (mt, ms))
                        .map(|(i, _)| i);
                    match expected {
                        Some(i) => {
                            let (mt, ms) = model.remove(i);
                            let (qt, qp) = q.pop().expect("model is non-empty");
                            prop_assert_eq!((qt.as_nanos(), qp), (mt, ms));
                        }
                        None => prop_assert!(q.pop().is_none()),
                    }
                }
                // Digest-mode walk: surfacing order is the model's order.
                3 => {
                    let mut walked = Vec::new();
                    let mut p = StateProbe::digest();
                    q.probe_entries(&mut p, SimTime::ZERO, |v, _| walked.push(*v));
                    let mut sorted = model.clone();
                    sorted.sort();
                    let expected: Vec<usize> = sorted.iter().map(|&(_, s)| s).collect();
                    prop_assert_eq!(walked, expected);
                }
                // Advance-mode walk by zero deltas: at most two
                // coordinates (margin, time) per entry, the payloads
                // unprobed.
                4 => {
                    let zeros = vec![0i64; 2 * q.len()];
                    let mut p = StateProbe::advance(&zeros, 3);
                    q.probe_entries(&mut p, SimTime::ZERO, |_, _| {});
                }
                // An arithmetic run of six pushes into one lane, with a
                // step of 1 to 3.
                10 | 11 => {
                    let lane = if lane == 4 { u32::MAX } else { lane };
                    for k in 0..6 {
                        let at = t + k * (1 + t % 3);
                        q.push_in(SimTime::from_nanos(at), lane, seq);
                        model.push((at, seq));
                        seq += 1;
                    }
                }
                // Push; lane 4 stands for `u32::MAX`, the heap-only lane.
                _ => {
                    let lane = if lane == 4 { u32::MAX } else { lane };
                    q.push_in(SimTime::from_nanos(t), lane, seq);
                    model.push((t, seq));
                    seq += 1;
                }
            }
            prop_assert_eq!(q.len(), model.len());
            let earliest = model.iter().map(|&(mt, _)| mt).min();
            prop_assert_eq!(q.peek_time().map(|t| t.as_nanos()), earliest);
        }
        let mut rest = model;
        rest.sort();
        let drained: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, p)| (t.as_nanos(), p))).collect();
        prop_assert_eq!(drained, rest);
    }
}

/// The adversarial lane pattern: 10^5 strictly decreasing times pushed
/// into one lane, so every push lands before the lane's tail, with a pop
/// after every third push and a digest walk halfway. Pops come out in
/// time order throughout.
#[test]
fn event_queue_decreasing_pushes_into_one_lane_pop_in_order() {
    const N: u64 = 100_000;
    let mut q = EventQueue::new();
    let mut model = std::collections::BTreeSet::new();
    for i in 0..N {
        let at = 2 * N - i;
        q.push_in(SimTime::from_nanos(at), 7, i);
        model.insert((at, i));
        if i % 3 == 2 {
            let first = model.pop_first();
            assert_eq!(q.pop().map(|(t, p)| (t.as_nanos(), p)), first);
        }
        if i == N / 2 {
            let mut walked = Vec::new();
            q.probe_entries(&mut StateProbe::digest(), SimTime::ZERO, |v, _| {
                walked.push(*v)
            });
            assert!(walked.iter().copied().eq(model.iter().map(|&(_, i)| i)));
        }
    }
    let drained: Vec<(u64, u64)> =
        std::iter::from_fn(|| q.pop().map(|(t, p)| (t.as_nanos(), p))).collect();
    assert!(drained.into_iter().eq(model));
}
