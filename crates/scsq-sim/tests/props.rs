//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use scsq_sim::{EventQueue, FifoServer, RunningStats, SimDur, SimTime, SplitMix64};

proptest! {
    /// The event queue pops in nondecreasing time order regardless of
    /// push order.
    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut prev = SimTime::ZERO;
        let mut popped = 0usize;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= prev);
            prev = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// FIFO server invariants: grants never overlap, never start before
    /// arrival, and total busy time equals the sum of service demands.
    #[test]
    fn fifo_server_grants_are_disjoint_and_conserving(
        jobs in proptest::collection::vec((0u64..1_000_000, 1u64..10_000), 1..100)
    ) {
        let mut server = FifoServer::new();
        let mut prev_finish = SimTime::ZERO;
        let mut total = SimDur::ZERO;
        // FIFO discipline requires nondecreasing arrivals in call order;
        // sort to model a well-formed arrival stream.
        let mut jobs = jobs;
        jobs.sort_by_key(|&(arrival, _)| arrival);
        for &(arrival, service) in &jobs {
            let arrival = SimTime::from_nanos(arrival);
            let service = SimDur::from_nanos(service);
            let g = server.serve(arrival, service);
            prop_assert!(g.start >= arrival);
            prop_assert!(g.start >= prev_finish);
            prop_assert_eq!(g.finish, g.start + service);
            prev_finish = g.finish;
            total += service;
        }
        prop_assert_eq!(server.busy_total(), total);
        prop_assert_eq!(server.busy_until(), prev_finish);
    }

    /// Work conservation: a server's makespan is at most (last arrival +
    /// total work) and at least the total work.
    #[test]
    fn fifo_server_makespan_bounds(
        jobs in proptest::collection::vec((0u64..100_000, 1u64..1_000), 1..50)
    ) {
        let mut jobs = jobs;
        jobs.sort_by_key(|&(a, _)| a);
        let mut server = FifoServer::new();
        let mut finish = SimTime::ZERO;
        for &(arrival, service) in &jobs {
            finish = server
                .serve(SimTime::from_nanos(arrival), SimDur::from_nanos(service))
                .finish;
        }
        let work: u64 = jobs.iter().map(|&(_, s)| s).sum();
        let last_arrival = jobs.last().expect("non-empty").0;
        prop_assert!(finish.as_nanos() >= work);
        prop_assert!(finish.as_nanos() <= last_arrival + work);
    }

    /// Welford statistics match the two-pass formulas.
    #[test]
    fn running_stats_match_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.sample_variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
        prop_assert_eq!(s.min().expect("non-empty"),
            xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max().expect("non-empty"),
            xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    /// SplitMix64 is a bijection-ish mixer: different seeds give
    /// different first outputs (collision-free over small samples) and
    /// jitter stays in band.
    #[test]
    fn rng_jitter_band(seed in any::<u64>(), amp in 0.0f64..0.5) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..100 {
            let j = rng.jitter(amp);
            prop_assert!(j >= 1.0 - amp - 1e-12 && j <= 1.0 + amp + 1e-12);
        }
    }

    /// `SimDur × f64` rounds exactly like the libm expression it
    /// replaced, for uniform and log-uniform durations.
    #[test]
    fn scaling_matches_the_round_oracle(
        ns in 0u64..=(1 << 62),
        bits in 0u32..=62,
        frac in 0.0f64..1.0,
        f in 0.0f64..2.0,
    ) {
        let log_uniform = ((1u64 << bits) as f64 * (1.0 + frac)) as u64;
        for ns in [ns, log_uniform] {
            prop_assert_eq!((SimDur::from_nanos(ns) * f).as_nanos(), round_oracle(ns, f));
        }
    }

    /// `from_secs_f64` (under every `for_bytes`) shares the rounding.
    #[test]
    fn from_secs_matches_the_round_oracle(
        ns in 0u64..=(1 << 62),
        exp in -12i32..=10,
        frac in 1.0f64..10.0,
    ) {
        for secs in [ns as f64 / 1e9, frac * 10f64.powi(exp), (ns | 1) as f64 / 2e9] {
            prop_assert_eq!(
                SimDur::from_secs_f64(secs).as_nanos(),
                (secs * 1e9).round() as u64
            );
        }
    }

    /// Exact halves round away from zero, never to even.
    #[test]
    fn scaling_rounds_exact_halves_up(k in 0u64..(1 << 48)) {
        let odd = 2 * k + 1;
        for (f, want) in [(0.5, k + 1), (1.5, 3 * k + 2), (2.5, 5 * k + 3)] {
            let got = (SimDur::from_nanos(odd) * f).as_nanos();
            prop_assert_eq!(got, want);
            prop_assert_eq!(got, round_oracle(odd, f));
        }
    }

    /// Products on either side of 2^52 (where the fast path hands over)
    /// and 2^53 (where `ns as f64` stops being exact).
    #[test]
    fn scaling_is_exact_across_the_integer_thresholds(
        exp in 52u32..=53,
        below in any::<bool>(),
        off in 0u64..4096,
        f in 0.25f64..2.0,
    ) {
        let edge = (1u64 << exp) as f64 / f;
        let ns = if below { edge as u64 - off } else { edge as u64 + off };
        prop_assert_eq!((SimDur::from_nanos(ns) * f).as_nanos(), round_oracle(ns, f));
    }

    /// Duration arithmetic: for_bytes is monotone in bytes and inversely
    /// monotone in rate.
    #[test]
    fn for_bytes_monotonicity(bytes in 1u64..1_000_000_000, rate in 1.0f64..1e10) {
        let d1 = SimDur::for_bytes(bytes, rate);
        let d2 = SimDur::for_bytes(bytes + 1, rate);
        let d3 = SimDur::for_bytes(bytes, rate * 2.0);
        prop_assert!(d2 >= d1);
        prop_assert!(d3 <= d1);
    }
}

/// What `SimDur × f64` computed before it stopped calling `f64::round`.
fn round_oracle(ns: u64, f: f64) -> u64 {
    (ns as f64 * f).round() as u64
}

#[test]
fn scaling_special_factors_match_the_oracle() {
    let durations = [
        0,
        1,
        2,
        3,
        12_345,
        (1 << 52) - 1,
        1 << 52,
        (1 << 53) + 1,
        u64::MAX,
    ];
    let factors = [
        0.0,
        -0.0,
        1.0,
        f64::MIN_POSITIVE,
        0.49999999999999994,
        f64::MAX,
    ];
    for ns in durations {
        for f in factors {
            assert_eq!(
                (SimDur::from_nanos(ns) * f).as_nanos(),
                round_oracle(ns, f),
                "{ns} x {f}"
            );
        }
    }
    assert_eq!((SimDur::from_nanos(2) * f64::MAX).as_nanos(), u64::MAX);
    // The one product in [2^52 - 0.5, 2^52): rounds up to 2^52.
    assert_eq!(
        (SimDur::from_nanos((1 << 53) - 1) * 0.5).as_nanos(),
        1 << 52
    );
}

#[test]
fn scaling_rejects_invalid_factors_with_the_same_message() {
    for (f, shown) in [
        (f64::NAN, "NaN"),
        (-1.0, "-1"),
        (-1e-300, "-0.000"),
        (f64::INFINITY, "inf"),
        (f64::NEG_INFINITY, "-inf"),
    ] {
        // A zero duration must not mask the factor (0 x -1 is -0.0).
        for ns in [0, 7] {
            let err = std::panic::catch_unwind(|| SimDur::from_nanos(ns) * f)
                .expect_err("invalid factor must panic");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(
                msg.starts_with(&format!("invalid scale factor: {shown}")),
                "{ns} x {f}: {msg}"
            );
        }
    }
}
