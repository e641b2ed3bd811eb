//! Per-layer micro-drivers: benchmark-owned loops over each crate's
//! public functions, with arguments drawn from the workloads' own
//! ranges (1 kB and 50 kB buffers, 9-byte elements, the served
//! 300 kB × 10 query). Measured from outside the program; every value
//! is a median over repeated batches.
//!
//! They run in every traced run, whatever the workload, so each traced
//! result line carries every per-layer metric.

use crate::calib::Calib;
use crate::daemon::Daemon;
use crate::gen;
use crate::stats;
use crate::workloads::{grid, served, Config};
use scsq_cluster::{CarrierClass, Environment, HardwareSpec, NodeId};
use scsq_core::wire::{read_frame, write_frame, FrameKind};
use scsq_core::{RunOptions, Scsq, Session, SessionHub};
use scsq_net::{
    EtherParams, Ethernet, FlowId, TorusDims, TorusNet, TorusParams, TreeNet, TreeParams,
};
use scsq_ql::{ColumnarBatch, Value};
use scsq_sim::{
    Event, EventQueue, FifoServer, LatencyHistogram, SimDur, SimTime, SwitchingServer,
    TypedSimulator,
};
use scsq_transport::{Carrier, ChannelConfig, StreamChannel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed batches per driver (after one warm-up batch).
const BATCHES: usize = 5;

/// The drivers' shared state: where the values go and the host-speed
/// yardstick every CPU-bound timing is divided by.
struct Bench {
    m: BTreeMap<String, f64>,
    calib: Calib,
    /// Divides every loop count (`--smoke`).
    scale: u64,
}

impl Bench {
    /// Records the median time per operation, ns at nominal host speed,
    /// of `batch` (which performs `ops` operations), over [`BATCHES`]
    /// timed repetitions after one warm-up.
    fn ns_per_op(&mut self, name: &str, ops: u64, mut batch: impl FnMut()) {
        batch();
        let samples: Vec<f64> = (0..BATCHES)
            .map(|_| self.calib.timed(&mut batch).1 * 1e9 / ops as f64)
            .collect();
        self.m.insert(name.into(), stats::median(&samples));
    }

    /// Records the median wall of `f`, µs at nominal host speed, over
    /// `reps` calls after one warm-up. Calls shorter than the
    /// reference sample are bracketed in groups, not one by one.
    fn median_us(&mut self, name: &str, reps: usize, mut f: impl FnMut()) {
        f();
        let t0 = Instant::now();
        f();
        let group = (300e-6 / t0.elapsed().as_secs_f64().max(1e-9))
            .ceil()
            .clamp(1.0, 1e4) as usize;
        let samples: Vec<f64> = (0..reps.div_ceil(group).max(BATCHES))
            .map(|_| {
                let ((), s) = self.calib.timed(|| (0..group).for_each(|_| f()));
                s * 1e6 / group as f64
            })
            .collect();
        self.m.insert(name.into(), stats::median(&samples));
    }
}

/// A self-rescheduling no-op event: the kernel's dispatch cost alone.
struct Tick;

impl Event<u64> for Tick {
    fn fire(self, world: &mut u64, sim: &mut TypedSimulator<u64, Tick>) {
        if *world > 0 {
            *world -= 1;
            sim.schedule_after(SimDur::from_nanos(10), Tick);
        }
    }
}

fn sim_layer(b: &mut Bench) {
    let n = 100_000 / b.scale;
    b.ns_per_op("sim.queue_push_pop_ns", n, || {
        let mut q = EventQueue::with_capacity(64);
        for i in 0..n {
            // Mildly out-of-order times, as overlapping channel cycles
            // produce; a pop every fourth push, then drain.
            q.push(SimTime::from_nanos(i ^ 0x55), i);
            if i % 4 == 3 {
                black_box(q.pop());
            }
        }
        while let Some(ev) = q.pop() {
            black_box(ev);
        }
    });
    b.ns_per_op("sim.step_ns_per_event", n, || {
        let mut sim = TypedSimulator::new(n - 1);
        sim.schedule_after(SimDur::from_nanos(10), Tick);
        black_box(sim.run_to_completion());
    });
    // `black_box` on the service keeps the compiler from folding the
    // whole loop into a multiplication.
    b.ns_per_op("sim.fifo_serve_ns", n, || {
        let mut s = FifoServer::new();
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            t = s.serve(t, black_box(SimDur::from_nanos(100))).finish;
        }
        black_box(t);
    });
    b.ns_per_op("sim.switching_serve_ns", n, || {
        let mut s = SwitchingServer::new(SimDur::from_micros(25));
        let mut t = SimTime::ZERO;
        for i in 0..n {
            t = s
                .serve_from(i % 2, t, black_box(SimDur::from_nanos(100)))
                .finish;
        }
        black_box(t);
    });
    b.ns_per_op("sim.hist_record_ns", n, || {
        let mut h = LatencyHistogram::new();
        let mut x = 0x9E37_79B9u64;
        for _ in 0..n {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            h.record(x >> 40);
        }
        black_box(h.quantile(0.5));
    });
}

fn net_layer(b: &mut Bench) {
    let n = 50_000 / b.scale;
    let dims = TorusDims::new(4, 4, 2);
    // Two hops in x, two in y, one in z from rank 1.
    let far = (0..dims.node_count())
        .max_by_key(|&r| dims.distance(1, r))
        .expect("a torus has nodes");
    for (name, dst, bytes) in [
        ("net.torus_transmit_1k_ns", 0, 1_000),
        ("net.torus_transmit_50k_ns", 0, 50_000),
        ("net.torus_transmit_multihop_ns", far, 1_000),
    ] {
        b.ns_per_op(name, n, || {
            let mut net = TorusNet::new(dims, TorusParams::default());
            let mut t = SimTime::ZERO;
            for _ in 0..n {
                t = net
                    .transmit(FlowId(1), 1, dst, black_box(bytes), t)
                    .inject_done;
            }
            black_box(t);
        });
    }
    let segment = HardwareSpec::lofar().tcp_segment;
    b.ns_per_op("net.ether_transmit_ns", n, || {
        let mut net = Ethernet::new(8, EtherParams::default());
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            t = net.transmit(FlowId(1), 0, 1, black_box(segment), t).sent;
        }
        black_box(t);
    });
    b.ns_per_op("net.tree_transfer_ns", n, || {
        let mut net = TreeNet::new(4, TreeParams::default());
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            t = net.transfer(FlowId(1), 0, black_box(segment), t);
        }
        black_box(t);
    });
}

fn cluster_layer(b: &mut Bench) {
    let n = 50_000 / b.scale;
    let spec = HardwareSpec::lofar();
    let segment = spec.tcp_segment;
    b.median_us("cluster.env_new_us", 50, || {
        black_box(Environment::new(spec.clone()));
    });
    let (src, dst) = (NodeId::bg(1), NodeId::bg(0));
    // Jittered like `jittered_grid` / `element_pipeline`: every CPU
    // service draws its factor.
    let env = || {
        let mut env = Environment::new(spec.clone());
        env.set_service_jitter(0.05);
        env
    };
    type Call = fn(&mut Environment, NodeId, NodeId, u64, SimTime) -> SimTime;
    let calls: [(&str, Call); 6] = [
        ("cluster.generate_ns", |e, src, _, _, t| {
            e.generate(src, black_box(1_000), t)
        }),
        ("cluster.marshal_ns", |e, src, _, _, t| {
            e.marshal(src, black_box(1_000), t)
        }),
        ("cluster.demarshal_ns", |e, _, dst, _, t| {
            e.demarshal(dst, FlowId(1), black_box(1_000), t, CarrierClass::Mpi)
        }),
        ("cluster.compute_ns", |e, _, dst, _, t| {
            e.compute(dst, black_box(9), t)
        }),
        ("cluster.mpi_transmit_ns", |e, src, dst, _, t| {
            e.mpi_transmit(FlowId(1), src, dst, black_box(1_000), t)
                .inject_done
        }),
        ("cluster.tcp_transmit_ns", |e, _, dst, segment, t| {
            e.tcp_transmit(FlowId(1), NodeId::be(0), dst, black_box(segment), t)
                .sent
        }),
    ];
    for (name, call) in calls {
        b.ns_per_op(name, n, || {
            let mut env = env();
            let mut t = SimTime::ZERO;
            for _ in 0..n {
                t = call(&mut env, src, dst, segment, t);
            }
            black_box(t);
        });
    }
    // One delivered 50 kB buffer of 9-byte elements per call.
    let per_buffer = 50_000 / 9;
    let buffers = (n / 50).max(1);
    b.ns_per_op(
        "cluster.compute_bulk_ns_per_elem",
        buffers * per_buffer,
        || {
            let mut env = env();
            let mut t = SimTime::ZERO;
            for _ in 0..buffers {
                t = env.compute_bulk(dst, 9, black_box(per_buffer), t);
            }
            black_box(t);
        },
    );
    b.ns_per_op(
        "cluster.compute_each_ns_per_elem",
        buffers * per_buffer,
        || {
            let mut env = env();
            let mut finishes = Vec::new();
            let mut t = SimTime::ZERO;
            for _ in 0..buffers {
                env.compute_each(dst, 9, black_box(per_buffer), t, &mut finishes);
                t = *finishes.last().expect("one finish per element");
            }
            black_box(t);
        },
    );
}

/// Runs a finished channel's cycles until it goes idle; returns how
/// many cycles ran.
fn drain(ch: &mut StreamChannel<u64>, env: &mut Environment, mut now: SimTime) -> u64 {
    let mut cycles = 0;
    loop {
        let out = ch.cycle(env, now);
        cycles += 1;
        ch.recycle(out.delivered);
        match out.next_cycle {
            Some(next) => now = next,
            None => return cycles,
        }
    }
}

fn transport_layer(b: &mut Bench) {
    let n = 50_000 / b.scale;
    let cfg = |buffer| ChannelConfig {
        flow: FlowId(1),
        src: NodeId::bg(1),
        dst: NodeId::bg(0),
        carrier: Carrier::Mpi {
            buffer,
            double: true,
        },
    };
    let spec = HardwareSpec::lofar();
    // Distinct 100-byte elements 1 µs apart: ten per 1 kB buffer, no
    // train merging, so `enqueue` pays its general path.
    let fill = |env: &mut Environment| {
        let mut ch = StreamChannel::<u64>::new(cfg(1_000), env);
        for i in 0..n {
            ch.enqueue(i, 100, SimTime::from_nanos(i * 1_000));
        }
        ch
    };
    b.ns_per_op("transport.enqueue_ns", n, || {
        let mut env = Environment::new(spec.clone());
        black_box(fill(&mut env).pending_bytes());
    });
    // Fill + drain, minus the fill measured above, per 1 kB buffer.
    let buffers = n / 10;
    b.ns_per_op("transport.cycle_ns_per_buffer", buffers, || {
        let mut env = Environment::new(spec.clone());
        let mut ch = fill(&mut env);
        let now = ch.finish(SimTime::from_nanos(n * 1_000));
        black_box(drain(&mut ch, &mut env, now));
    });
    let fill_ns = b.m["transport.enqueue_ns"] * 10.0;
    if let Some(v) = b.m.get_mut("transport.cycle_ns_per_buffer") {
        *v -= fill_ns;
    }
    // The relay path: packs of 9-byte elements, one 50 kB buffer's
    // worth each, enqueued and carried to delivery.
    let per_pack = 50_000 / 9u64;
    let packs = (n / 500).max(1);
    b.ns_per_op(
        "transport.enqueue_pack_ns_per_elem",
        packs * per_pack,
        || {
            let mut env = Environment::new(spec.clone());
            let mut ch = StreamChannel::<u64>::new(cfg(50_000), &mut env);
            for p in 0..packs {
                let base = p * per_pack;
                ch.enqueue_pack(
                    (base..base + per_pack).collect(),
                    9,
                    (base..base + per_pack).map(SimTime::from_nanos).collect(),
                );
            }
            let now = ch.finish(SimTime::from_nanos(packs * per_pack));
            black_box(drain(&mut ch, &mut env, now));
        },
    );
}

/// Every SCSQL text the workloads send, at their own sizes.
fn workload_texts() -> Vec<String> {
    let mut texts: Vec<String> = served::named_plans()
        .into_iter()
        .map(|(_, text, _)| text)
        .collect();
    texts.extend([
        gen::take_sum_query(250_000),
        gen::filter_heavy_query(250_000),
        gen::relay_query(250_000),
        gen::winagg_declined_query(250_000),
        "run p2p;".to_string(),
        "show catalog;".to_string(),
    ]);
    texts
}

fn ql_layer(b: &mut Bench) {
    let texts = workload_texts();
    let rounds = 200 / b.scale;
    // ns per thousandth of a statement = µs per statement.
    b.ns_per_op(
        "ql.parse_us_per_stmt",
        1_000 * rounds * texts.len() as u64,
        || {
            for _ in 0..rounds {
                for t in &texts {
                    black_box(scsq_ql::parse_program(t).expect("generated SCSQL parses"));
                }
            }
        },
    );
    let parsed: Vec<_> = texts
        .iter()
        .flat_map(|t| scsq_ql::parse_program(t).expect("generated SCSQL parses"))
        .collect();
    b.ns_per_op(
        "ql.print_us_per_stmt",
        1_000 * rounds * parsed.len() as u64,
        || {
            for _ in 0..rounds {
                for s in &parsed {
                    black_box(scsq_ql::statement_to_scsql(s));
                }
            }
        },
    );
    // One delivered 50 kB buffer of integers, transposed to a column.
    let values: Vec<Value> = (0..50_000 / 9).map(Value::Integer).collect();
    b.ns_per_op(
        "ql.transpose_ns_per_elem",
        rounds * values.len() as u64,
        || {
            for _ in 0..rounds {
                black_box(ColumnarBatch::from_values(&values));
            }
        },
    );
}

fn engine_layer(b: &mut Bench) {
    let reps = (40 / b.scale as usize).max(5);
    let spec = HardwareSpec::lofar();
    for (name, text) in [
        ("engine.prepare_us.p2p", gen::p2p_query(300_000, 10)),
        ("engine.prepare_us.merge", gen::merge_query(300_000, 10, 4)),
        (
            "engine.prepare_us.inbound",
            gen::inbound_query(5, 300_000, 10, 4),
        ),
    ] {
        let mut scsq = Scsq::with_spec(spec.clone());
        b.median_us(name, reps, || {
            black_box(scsq.prepare(&text).expect("generated SCSQL prepares"));
        });
    }
    // The served unit: p2p at 300 kB × 10 arrays.
    let text = gen::p2p_query(300_000, 10);
    let mut scsq = Scsq::with_spec(spec.clone());
    let plan = scsq.prepare(&text).expect("generated SCSQL prepares");
    b.median_us("engine.run_small_us", reps, || {
        black_box(scsq.run_prepared(&plan).expect("served unit runs"));
    });
    let hub = Arc::new(SessionHub::new());
    let stmt = scsq_ql::parse_statement(&text).expect("generated SCSQL parses");
    let options = RunOptions::default();
    hub.intern(&spec, &options, &stmt)
        .expect("generated SCSQL prepares");
    b.median_us("engine.intern_hit_us", reps * 5, || {
        black_box(hub.intern(&spec, &options, &stmt).expect("cached plan"));
    });
    let mut session = Session::lofar();
    session
        .execute(&format!("prepare p2p as {text}"))
        .expect("named plan prepares");
    let run = scsq_ql::parse_statement("run p2p;").expect("run statement parses");
    b.median_us("engine.session_execute_us", reps, || {
        black_box(session.execute_statement(&run).expect("named plan runs"));
    });
    let reply = session.execute_statement(&run).expect("named plan runs");
    b.median_us("engine.render_us", reps * 5, || {
        black_box((reply.rows(), reply.summary()));
    });
}

/// Median wall of `f`, µs, over `samples` calls — raw: socket round
/// trips are timer- and scheduler-bound, not CPU-bound.
fn raw_median_us(samples: usize, mut f: impl FnMut() -> bool) -> Option<f64> {
    let mut us = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        if !f() {
            return None;
        }
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Some(stats::median(&us))
}

/// Median `show catalog;` round trip on a fresh session, µs — the
/// cheapest statement, so what remains is framing and the socket.
fn rtt_us(daemon: &Daemon, samples: usize) -> Option<f64> {
    let mut conn = daemon.connect().ok()?;
    conn.statement("show catalog;").ok()?;
    raw_median_us(samples, || conn.statement("show catalog;").is_ok())
}

fn core_layer(b: &mut Bench, cfg: &Config, errors: &mut Vec<String>) {
    let n = 20_000 / b.scale;
    let mut buf = Vec::new();
    b.ns_per_op("core.write_frame_ns", 2 * n, || {
        buf.clear();
        for _ in 0..n {
            write_frame(&mut buf, FrameKind::Row, "10").expect("write to a Vec");
            write_frame(&mut buf, FrameKind::Ok, "-- 1 value in 93.6ms").expect("write to a Vec");
        }
    });
    b.ns_per_op("core.read_frame_ns", 2 * n, || {
        let mut r = std::io::Cursor::new(&buf);
        while let Some(f) = read_frame(&mut r).expect("frames just written") {
            black_box(f);
        }
    });
    let samples = (30 / b.scale as usize).max(3);
    let sockets = || -> std::io::Result<[Option<f64>; 3]> {
        let tcp = Daemon::spawn_tcp(&cfg.scsqd)?;
        let connect = raw_median_us(samples, || tcp.connect().is_ok());
        let tcp_rtt = rtt_us(&tcp, samples);
        drop(tcp);
        std::fs::create_dir_all(&cfg.out_dir)?;
        let path = cfg
            .out_dir
            .join(format!("scsqd-{}.sock", std::process::id()));
        let unix = Daemon::spawn_unix(&cfg.scsqd, &path)?;
        Ok([connect, tcp_rtt, rtt_us(&unix, samples)])
    };
    match sockets() {
        Ok([Some(connect), Some(tcp), Some(unix)]) => {
            b.m.insert("core.connect_us".into(), connect);
            b.m.insert("core.tcp_rtt_us".into(), tcp);
            b.m.insert("core.unix_rtt_us".into(), unix);
        }
        Ok(_) => errors.push("core layer: a round trip to scsqd failed".into()),
        Err(e) => errors.push(format!("core layer: scsqd: {e}")),
    }
}

/// Runs every micro-driver. `errors` collects drivers that could not
/// run (their metrics are then reported as 0 and the run as incorrect).
pub fn measure(cfg: &Config, errors: &mut Vec<String>) -> BTreeMap<String, f64> {
    let mut b = Bench {
        m: BTreeMap::new(),
        calib: Calib::new(),
        scale: if cfg.smoke { 10 } else { 1 },
    };
    sim_layer(&mut b);
    net_layer(&mut b);
    cluster_layer(&mut b);
    transport_layer(&mut b);
    ql_layer(&mut b);
    engine_layer(&mut b);
    core_layer(&mut b, cfg, errors);
    let (base, two) = grid::pool_walls(cfg);
    b.m.insert("bench.pool_base_wall_s".into(), base);
    b.m.insert("bench.pool_speedup_jobs2".into(), base / two);
    b.m.insert(
        "simtime.fig6_peak_mbps".into(),
        grid::fig6_peak_mbps(cfg.seed),
    );
    b.m
}
