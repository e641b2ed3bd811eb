//! Property-based tests for the stream channel drivers.

use proptest::prelude::*;
use scsq_cluster::{Environment, NodeId};
use scsq_net::FlowId;
use scsq_sim::SimTime;
use scsq_transport::{Carrier, ChannelConfig, ChannelStats, CycleOutput, Payload, StreamChannel};

/// Drives a channel to EOS, collecting all deliveries.
fn drain(ch: &mut StreamChannel<usize>, env: &mut Environment) -> (Vec<(SimTime, usize)>, SimTime) {
    let mut deliveries = Vec::new();
    let mut at = SimTime::ZERO;
    for _ in 0..1_000_000 {
        let CycleOutput {
            delivered,
            delivered_at,
            next_cycle,
            eos_at,
        } = ch.cycle(env, at);
        if let Some(t) = delivered_at {
            deliveries.extend(delivered.into_iter().map(|v| (t, v)));
        }
        if let Some(eos) = eos_at {
            return (deliveries, eos);
        }
        match next_cycle {
            Some(t) => at = t.max(at),
            None => panic!("channel stalled without EOS"),
        }
    }
    panic!("channel did not finish within the cycle budget");
}

fn mpi_cfg(buffer: u64, double: bool) -> ChannelConfig {
    ChannelConfig {
        flow: FlowId(1),
        src: NodeId::bg(1),
        dst: NodeId::bg(0),
        carrier: Carrier::Mpi { buffer, double },
    }
}

/// A run of consecutive element ids: the view payload of the run
/// tests. One id is `len == 1`.
#[derive(Debug, Clone, PartialEq)]
struct Span {
    first: usize,
    len: usize,
}

impl Payload for Span {
    fn rows(&self) -> usize {
        self.len
    }

    fn slice_rows(&self, start: usize, end: usize) -> Span {
        assert!(start < end && end <= self.len, "slice within the run");
        Span {
            first: self.first + start,
            len: end - start,
        }
    }
}

/// One stretch of a run-test workload: `count` same-sized elements,
/// enqueued one by one in both channels (`run == false`, a backlog of
/// trains) or as one `enqueue_run` node in the channel under test.
#[derive(Debug, Clone)]
struct Stretch {
    run: bool,
    count: usize,
    bytes_each: u64,
    /// Ready-time gap before each element.
    gap_ns: u64,
}

/// What a channel did, down to the instant: every element id with its
/// delivery time, the EOS time, and the books (the queue high-water
/// mark aside — a run is one node, that is the point).
type Transcript = (Vec<(SimTime, usize)>, SimTime, ChannelStats);

/// Feeds `stretches` to a fresh channel — runs as `enqueue_run` nodes
/// when `as_runs`, else element by element — and drives it to EOS.
fn transcript(cfg: ChannelConfig, stretches: &[Stretch], as_runs: bool) -> Transcript {
    let mut env = Environment::lofar();
    let mut ch = StreamChannel::new(cfg, &mut env);
    let (mut id, mut ready) = (0usize, SimTime::ZERO);
    for s in stretches {
        let readies: Vec<SimTime> = (0..s.count)
            .map(|_| {
                ready += scsq_sim::SimDur::from_nanos(s.gap_ns);
                ready
            })
            .collect();
        if s.run && as_runs {
            let view = Span {
                first: id,
                len: s.count,
            };
            ch.enqueue_run(view, s.bytes_each, readies);
        } else {
            for (i, &t) in readies.iter().enumerate() {
                ch.enqueue(
                    Span {
                        first: id + i,
                        len: 1,
                    },
                    s.bytes_each,
                    t,
                );
            }
        }
        id += s.count;
    }
    ch.finish(ready);
    let mut deliveries = Vec::new();
    let mut at = SimTime::ZERO;
    loop {
        let out = ch.cycle(&mut env, at);
        if let Some(t) = out.delivered_at {
            for span in &out.delivered {
                deliveries.extend((span.first..span.first + span.len).map(|i| (t, i)));
            }
        }
        if let Some(eos) = out.eos_at {
            let mut stats = *ch.stats();
            stats.queue_peak_trains = 0;
            return (deliveries, eos, stats);
        }
        at = out.next_cycle.expect("progress until EOS").max(at);
        ch.recycle(out.delivered);
    }
}

fn stretch() -> impl Strategy<Value = Stretch> {
    (
        any::<bool>(),
        1usize..120,
        // Sizes that divide common buffers, sizes that do not, and
        // elements wider than any buffer below.
        prop_oneof![Just(9u64), Just(100u64), 1u64..400, 2_000u64..9_000],
        prop_oneof![Just(0u64), 1u64..5_000],
    )
        .prop_map(|(run, count, bytes_each, gap_ns)| Stretch {
            run,
            count,
            bytes_each,
            gap_ns,
        })
}

/// A UDP sender that overruns its I/O node: the drop decisions land on
/// datagrams that cut through runs, so heads of runs get poisoned.
#[test]
fn run_matches_per_element_enqueues_under_udp_loss() {
    let cfg = ChannelConfig {
        flow: FlowId(1),
        src: NodeId::be(0),
        dst: NodeId::bg(0),
        carrier: Carrier::Udp,
    };
    // 8192-byte datagrams; none of the sizes divides them, so every
    // datagram boundary cuts an element, and 20 000 spans three.
    for bytes_each in [3_000u64, 5_000, 8_000, 20_000] {
        // ~6 MB ready at once: far more than the I/O node forwards
        // before its backlog passes the drop threshold.
        let n = (6_000_000 / bytes_each) as usize;
        let stretches: Vec<Stretch> = [(true, 3), (false, 1), (true, 4), (true, 2)]
            .into_iter()
            .map(|(run, tenths)| Stretch {
                run,
                count: n * tenths / 10,
                bytes_each,
                gap_ns: 0,
            })
            .collect();
        let each = transcript(cfg, &stretches, false);
        let runs = transcript(cfg, &stretches, true);
        assert!(
            each.2.buffers_dropped > 0,
            "the overload must drop datagrams"
        );
        assert!(each.2.elements_lost > 0 && !each.0.is_empty());
        assert_eq!(each, runs, "element size {bytes_each}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A run node is an encoding, not a behaviour: any mix of runs and
    /// single enqueues — trains before and after, runs back to back,
    /// elements dividing the buffer, straddling it or wider than it,
    /// single and double buffering — delivers the same elements at the
    /// same instants with the same books as enqueueing every element
    /// on its own.
    #[test]
    fn run_matches_per_element_enqueues(
        stretches in proptest::collection::vec(stretch(), 1..7),
        buffer in prop_oneof![Just(900u64), Just(1_000u64), 50u64..5_000],
        double in any::<bool>(),
    ) {
        let cfg = mpi_cfg(buffer, double);
        let each = transcript(cfg, &stretches, false);
        let runs = transcript(cfg, &stretches, true);
        let total: usize = stretches.iter().map(|s| s.count).sum();
        prop_assert_eq!(each.0.len(), total, "MPI loses nothing");
        prop_assert_eq!(each, runs);
    }

    /// Conservation: every enqueued element is delivered exactly once,
    /// in order, and all payload bytes are accounted for.
    #[test]
    fn channels_conserve_elements_and_bytes(
        sizes in proptest::collection::vec(1u64..50_000, 1..40),
        buffer in 100u64..200_000,
        double in any::<bool>(),
    ) {
        let mut env = Environment::lofar();
        let mut ch = StreamChannel::new(mpi_cfg(buffer, double), &mut env);
        let mut total = 0u64;
        for (i, &s) in sizes.iter().enumerate() {
            ch.enqueue(i, s, SimTime::ZERO);
            total += s;
        }
        ch.finish(SimTime::ZERO);
        let (deliveries, eos) = drain(&mut ch, &mut env);
        // Exactly once, in order.
        let ids: Vec<usize> = deliveries.iter().map(|(_, i)| *i).collect();
        prop_assert_eq!(ids, (0..sizes.len()).collect::<Vec<_>>());
        // Monotone delivery times, EOS last.
        let mut prev = SimTime::ZERO;
        for (t, _) in &deliveries {
            prop_assert!(*t >= prev);
            prev = *t;
        }
        prop_assert!(eos >= prev);
        prop_assert_eq!(ch.stats().bytes_delivered, total);
        prop_assert_eq!(ch.stats().bytes_enqueued, total);
    }

    /// Double buffering never loses to single buffering for the same
    /// workload and buffer size.
    #[test]
    fn double_buffering_never_loses(
        elem in 1_000u64..300_000,
        count in 1u64..20,
        buffer in 500u64..100_000,
    ) {
        let run = |double: bool| {
            let mut env = Environment::lofar();
            let mut ch = StreamChannel::new(mpi_cfg(buffer, double), &mut env);
            for i in 0..count {
                ch.enqueue(i as usize, elem, SimTime::ZERO);
            }
            ch.finish(SimTime::ZERO);
            drain(&mut ch, &mut env).1
        };
        prop_assert!(run(true) <= run(false));
    }

    /// The buffer count matches the byte math: ceil(total / buffer)
    /// full-or-flushed buffers.
    #[test]
    fn buffer_count_matches_byte_math(
        sizes in proptest::collection::vec(1u64..10_000, 1..30),
        buffer in 100u64..20_000,
    ) {
        let mut env = Environment::lofar();
        let mut ch = StreamChannel::new(mpi_cfg(buffer, true), &mut env);
        let mut total = 0u64;
        for (i, &s) in sizes.iter().enumerate() {
            ch.enqueue(i, s, SimTime::ZERO);
            total += s;
        }
        ch.finish(SimTime::ZERO);
        drain(&mut ch, &mut env);
        prop_assert_eq!(ch.stats().buffers_sent, total.div_ceil(buffer));
    }

    /// TCP channels across clusters conserve elements too, and register
    /// / unregister their inbound flow.
    #[test]
    fn tcp_channels_conserve(sizes in proptest::collection::vec(1u64..200_000, 1..20)) {
        let mut env = Environment::lofar();
        let cfg = ChannelConfig {
            flow: FlowId(9),
            src: NodeId::be(0),
            dst: NodeId::bg(3),
            carrier: Carrier::Tcp,
        };
        let mut ch = StreamChannel::new(cfg, &mut env);
        prop_assert_eq!(env.inbound_streams(0), 1);
        for (i, &s) in sizes.iter().enumerate() {
            ch.enqueue(i, s, SimTime::ZERO);
        }
        ch.finish(SimTime::ZERO);
        let (deliveries, _) = drain(&mut ch, &mut env);
        prop_assert_eq!(deliveries.len(), sizes.len());
        prop_assert_eq!(env.inbound_streams(0), 0);
    }
}
