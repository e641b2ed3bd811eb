//! Microbenchmarks for the simulation kernel: event throughput and
//! server bookkeeping. Full-scale figure regenerations push tens of
//! millions of events through this code, so its constants matter.

use criterion::{criterion_group, criterion_main, Criterion};
use scsq_sim::{Event, FifoServer, SimDur, SimTime, SwitchingServer, TypedSimulator};
use std::hint::black_box;

/// A self-rescheduling event chain: each firing counts and re-arms
/// until the world reaches 10 000.
struct Chain;

impl Event<u64> for Chain {
    fn fire(self, count: &mut u64, sim: &mut TypedSimulator<u64, Chain>) {
        if *count < 10_000 {
            *count += 1;
            sim.schedule_after(SimDur::from_nanos(10), Chain);
        }
    }
}

/// An event that only counts itself.
struct Tick;

impl Event<u64> for Tick {
    fn fire(self, count: &mut u64, _: &mut TypedSimulator<u64, Tick>) {
        *count += 1;
    }
}

fn bench_event_dispatch(c: &mut Criterion) {
    c.bench_function("kernel/dispatch_10k_events", |b| {
        b.iter(|| {
            let mut sim = TypedSimulator::new(0u64);
            sim.schedule_after(SimDur::from_nanos(10), Chain);
            sim.run_to_completion();
            black_box(sim.events_executed())
        });
    });

    c.bench_function("kernel/queue_mixed_order_10k", |b| {
        b.iter(|| {
            let mut sim = TypedSimulator::new(0u64);
            for i in 0..10_000u64 {
                // Pseudo-shuffled times exercise heap rebalancing.
                let t = (i.wrapping_mul(2_654_435_761)) % 1_000_000;
                sim.schedule_at(SimTime::from_nanos(t), Tick);
            }
            sim.run_to_completion();
            black_box(*sim.world())
        });
    });
}

fn bench_servers(c: &mut Criterion) {
    c.bench_function("kernel/fifo_serve_10k", |b| {
        b.iter(|| {
            let mut s = FifoServer::new();
            let mut t = SimTime::ZERO;
            for _ in 0..10_000 {
                t = s.serve(t, SimDur::from_nanos(100)).finish;
            }
            black_box(t)
        });
    });

    c.bench_function("kernel/switching_serve_2flows_10k", |b| {
        b.iter(|| {
            let mut s = SwitchingServer::new(SimDur::from_micros(25));
            let mut t = SimTime::ZERO;
            for i in 0..10_000u64 {
                t = s.serve_from(i % 2, t, SimDur::from_nanos(100)).finish;
            }
            black_box(t)
        });
    });
}

criterion_group!(benches, bench_event_dispatch, bench_servers);
criterion_main!(benches);
