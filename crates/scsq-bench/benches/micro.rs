//! Microbenchmarks for the event-kernel hot path: raw event-queue
//! throughput, the whole-column kernels the stage chain runs
//! (arithmetic, comparison masks, filter+gather at 64, 4k, and 64k
//! rows), the
//! cross-SP relay hand-off against the marshal round trip at the same
//! sizes, the Figure 6 inner loop in both execution modes (per-event vs
//! train-coalesced), route-table lookups against fresh
//! dimension-ordered route computation, and the per-element
//! service-charging loop
//! (`Environment::{generate_each, compute_each, compute_bulk}`) with the
//! `SimDur × f64` rounding under it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scsq_bench::{fig6, Scale};
use scsq_cluster::{Environment, NodeId};
use scsq_core::{HardwareSpec, RunOptions};
use scsq_engine::columnar;
use scsq_net::{TorusDims, TorusNet, TorusParams};
use scsq_ql::column::{Column, ColumnData, ColumnarBatch};
use scsq_ql::value::Value;
use scsq_sim::{EventQueue, SimDur, SimTime};
use std::hint::black_box;

/// Push/pop N timestamped events through the queue, interleaved the way
/// the simulator's scheduling does (bursts of pushes, ordered pops).
fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for n in [1_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::with_capacity(64);
                for i in 0..n as u64 {
                    // Mildly out-of-order arrival times, as produced by
                    // overlapping channel cycles.
                    q.push(SimTime::from_nanos(i ^ 0x55), i);
                    if i % 4 == 3 {
                        black_box(q.pop());
                    }
                }
                while let Some(ev) = q.pop() {
                    black_box(ev);
                }
            });
        });
    }
    group.finish();
}

/// The whole-column kernels the stage chain runs per admitted batch
/// (`StageChain::process_cols`): elementwise arithmetic, comparison
/// masks, and filter+gather, at batch sizes spanning a delivered train
/// (64) to a full receive buffer run (64k). The same work per element
/// on the scalar path costs an enum match and a `Value` move; these
/// loops are the ceiling the columnar dispatch is measured against.
fn bench_column_kernels(c: &mut Criterion) {
    use scsq_engine::{ArithOp, CmpOp};
    let mut group = c.benchmark_group("column_kernels");
    for n in [64usize, 4_096, 65_536] {
        let ints = Column::new(ColumnData::Int64((0..n as i64).collect()));
        let floats = Column::new(ColumnData::Float64(
            (0..n).map(|i| i as f64 * 0.5).collect(),
        ));
        let mid = (n / 2) as i64;
        group.bench_with_input(BenchmarkId::new("arith_mul_i64", n), &ints, |b, col| {
            b.iter(|| black_box(columnar::arith_i64(col, ArithOp::Mul, 3)));
        });
        group.bench_with_input(BenchmarkId::new("arith_mul_f64", n), &floats, |b, col| {
            b.iter(|| black_box(columnar::arith_f64(col, ArithOp::Mul, 1.0625)));
        });
        group.bench_with_input(BenchmarkId::new("cmp_mask_ge_i64", n), &ints, |b, col| {
            b.iter(|| black_box(columnar::cmp_mask_i64(col, CmpOp::Ge, mid)));
        });
        group.bench_with_input(BenchmarkId::new("cmp_mask_lt_f64", n), &floats, |b, col| {
            b.iter(|| black_box(columnar::cmp_mask_f64(col, CmpOp::Lt, mid as f64)));
        });
        group.bench_with_input(BenchmarkId::new("filter_take_i64", n), &ints, |b, col| {
            b.iter(|| {
                let mask = columnar::cmp_mask_i64(col, CmpOp::Lt, mid).expect("int column");
                let sel = columnar::filter_to_selection(&mask).expect("bool mask");
                black_box(columnar::take(col, &sel))
            });
        });
        // The filter-heavy composition: arith → filter → a second
        // filter narrowing the surviving selection.
        group.bench_with_input(BenchmarkId::new("arith_filter_cmp", n), &ints, |b, col| {
            b.iter(|| {
                let scaled = columnar::arith_i64(col, ArithOp::Mul, 3).expect("int column");
                let keep = columnar::cmp_mask_i64(&scaled, CmpOp::Gt, mid).expect("int column");
                let sel = columnar::filter_to_selection(&keep).expect("bool mask");
                let second =
                    columnar::cmp_mask_i64(&scaled, CmpOp::Lt, 3 * mid).expect("int column");
                black_box(columnar::intersect_selection(&second, &sel).expect("bool mask"))
            });
        });
    }
    group.finish();
}

/// The cross-SP relay hand-off against the marshal round trip it
/// replaces. The relay forwards the surviving rows as one `Arc`-backed
/// view, the channel cuts it into per-buffer slices and the receiver
/// reassembles adjacent slices with `try_extend`, all zero-copy; the
/// scalar path materializes every row as an owned `Value` on the way
/// out and the columnar admission on the far side transposes the
/// values back into columns.
fn bench_relay_handoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("relay_handoff");
    for n in [64usize, 4_096, 65_536] {
        let batch =
            ColumnarBatch::from_values(&(0..n as i64).map(Value::Integer).collect::<Vec<_>>());
        group.bench_with_input(BenchmarkId::new("col_views", n), &batch, |b, batch| {
            b.iter(|| {
                // In flight: a straddling head row, then the whole rows
                // of the same buffer behind it.
                let mut view = batch.slice(0, 1);
                // Receiver side: adjacent slices reassemble without
                // touching the payload.
                assert!(view.try_extend(&batch.slice(1, batch.rows())));
                black_box(view)
            });
        });
        group.bench_with_input(
            BenchmarkId::new("marshal_roundtrip", n),
            &batch,
            |b, batch| {
                b.iter(|| {
                    let mut vals = Vec::with_capacity(batch.rows());
                    batch.to_values_into(&mut vals);
                    black_box(ColumnarBatch::from_values(&vals))
                });
            },
        );
    }
    group.finish();
}

/// The Figure 6 inner loop at a coalescing-friendly point (paper-size
/// arrays, small MPI buffer => long periodic trains), in both modes.
fn bench_fig6_inner(c: &mut Criterion) {
    let spec = HardwareSpec::lofar();
    let scale = Scale {
        array_bytes: 3_000_000,
        arrays: 5,
        ..Scale::quick()
    };

    let mut group = c.benchmark_group("fig6_inner");
    group.sample_size(10);
    for (label, coalesce) in [("coalesced", true), ("per_event", false)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let options = RunOptions {
                    coalesce,
                    ..RunOptions::default()
                };
                let series =
                    fig6::run_with_jobs(&spec, scale, &[1_000], 1, &options).expect("fig6 runs");
                black_box(series)
            });
        });
    }
    group.finish();
}

/// Route-table hits vs fresh dimension-ordered route computation for
/// every (src, dst) pair of a paper-scale partition.
fn bench_route_cache(c: &mut Criterion) {
    let dims = TorusDims::new(4, 4, 2);
    let net = TorusNet::new(dims, TorusParams::default());
    let n = dims.node_count();

    let mut group = c.benchmark_group("route_cache");
    group.bench_function("cached", |b| {
        b.iter(|| {
            for src in 0..n {
                for dst in 0..n {
                    black_box(net.cached_route(src, dst));
                }
            }
        });
    });
    group.bench_function("fresh", |b| {
        b.iter(|| {
            for src in 0..n {
                for dst in 0..n {
                    black_box(dims.route(src, dst));
                }
            }
        });
    });
    group.finish();
}

/// The bulk service-charging entry points over a run of 9-byte
/// elements, jittered (one RNG draw, one rounded multiply and one serve
/// per element) and exact (the multiply never runs). A columnar leg of
/// `element_pipeline` is mostly this loop, so ns/iter divided by the run
/// length is the per-element floor under the column kernels.
fn bench_charge(c: &mut Criterion) {
    let node = NodeId::bg(1);
    let mut group = c.benchmark_group("charge");
    for jitter in [0.05, 0.0] {
        for n in [64u64, 4_096, 250_000] {
            let mut env = Environment::lofar();
            env.set_service_jitter(jitter);
            let mut out = Vec::with_capacity(n as usize);
            let id = |name: &str| BenchmarkId::new(name, format!("{n}/jitter{jitter}"));
            group.bench_with_input(id("generate_each"), &n, |b, &n| {
                b.iter(|| env.generate_each(node, 9, black_box(n), SimTime::ZERO, &mut out));
            });
            group.bench_with_input(id("compute_each"), &n, |b, &n| {
                b.iter(|| env.compute_each(node, 9, black_box(n), SimTime::ZERO, &mut out));
            });
            group.bench_with_input(id("compute_bulk"), &n, |b, &n| {
                b.iter(|| env.compute_bulk(node, 9, black_box(n), SimTime::ZERO));
            });
        }
    }
    group.finish();

    c.bench_function("simdur/mul_f64", |b| {
        let base = SimDur::from_nanos(12_345);
        b.iter(|| {
            (0..4_096u32).fold(SimDur::ZERO, |acc, i| {
                acc + black_box(base) * (0.95 + f64::from(i) * 2e-5)
            })
        });
    });
}

criterion_group!(
    micro,
    bench_event_queue,
    bench_column_kernels,
    bench_relay_handoff,
    bench_fig6_inner,
    bench_route_cache,
    bench_charge
);
criterion_main!(micro);
