//! `paper_sweep` and `jittered_grid`: the paper's three evaluation
//! grids, once with periodic schedules and once with jittered service
//! times.
//!
//! One pass = the Figure 6 grid (13 buffers × single/double) + the
//! Figure 8 grid (13 buffers × sequential/balanced × single/double) +
//! Figure 15 (Queries 1–6 × n = 1..4): 102 queries, always in this
//! order, on one thread.
//!
//! *Why two:* with `service_jitter` 0 the schedules are periodic, so
//! the train coalescer does most of the work and the per-event path
//! almost none; with `service_jitter` 0.05 trains provably cannot form
//! and every event walks queue → environment → network → channel. It is
//! the same kernel used differently, so a trick that helps one and
//! costs the other shows. Neither sets `fuse` / `columnar` /
//! `coalesce`: the benchmark measures what ships.

use super::{prepare_checked, run_checked, Config, Outcome, PassSink, PassWorkload, Tally};
use crate::gen::{self, BUFFER_SWEEP};
use crate::trace::Tracer;
use scsq_core::{ClusterName, HardwareSpec, NodeId, PreparedQuery, QueryResult, RunOptions, Scsq};
use std::hint::black_box;
use std::time::Instant;

/// Relative amplitude of the hardware-rate jitter drawn from `--seed`
/// (the paper's repetition protocol uses the same 2 %).
const SPEC_JITTER: f64 = 0.02;

/// Sizes of one grid variant.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    array_bytes: u64,
    fig6_arrays: u64,
    fig8_arrays: u64,
    fig15_arrays: u64,
    service_jitter: f64,
}

/// Which figure's reduction a job feeds.
#[derive(Debug, Clone, Copy)]
enum Reduce {
    /// MB/s into BlueGene node 0 (Figures 6 and 8).
    IntoNode0,
    /// Mbit/s back-end → BlueGene (Figure 15).
    Inbound,
}

struct Job {
    leg: &'static str,
    plan: usize,
    mpi_buffer: u64,
    mpi_double: bool,
    expect: i64,
    reduce: Reduce,
}

/// The grid workload; `JITTERED` selects the variant.
pub struct Grid<const JITTERED: bool> {
    scsq: Scsq,
    plans: Vec<PreparedQuery>,
    jobs: Vec<Job>,
}

fn sizes(jittered: bool, smoke: bool) -> Sizes {
    match (jittered, smoke) {
        // Paper scale: 100 × 3 MB arrays everywhere.
        (false, false) => Sizes {
            array_bytes: 3_000_000,
            fig6_arrays: 100,
            fig8_arrays: 100,
            fig15_arrays: 100,
            service_jitter: 0.0,
        },
        // Every event is dispatched, so the torus legs are cut to keep
        // a pass near the periodic one's length.
        (true, false) => Sizes {
            array_bytes: 3_000_000,
            fig6_arrays: 30,
            fig8_arrays: 5,
            fig15_arrays: 50,
            service_jitter: 0.05,
        },
        (jittered, true) => Sizes {
            array_bytes: 300_000,
            fig6_arrays: 4,
            fig8_arrays: 2,
            fig15_arrays: 4,
            service_jitter: if jittered { 0.05 } else { 0.0 },
        },
    }
}

fn reduce(r: &QueryResult, how: Reduce) -> f64 {
    match how {
        Reduce::IntoNode0 => r.bandwidth_into(NodeId::bg(0)) / 1e6,
        Reduce::Inbound => r.mbps_between(ClusterName::BackEnd, ClusterName::BlueGene),
    }
}

impl<const JITTERED: bool> Grid<JITTERED> {
    /// Runs job `i`: set the runtime options, replay the prepared plan,
    /// reduce to the figure's number, check the answer against its
    /// closed form.
    fn run_job(&mut self, i: usize, tracer: &mut Tracer, tally: &mut Tally, out: &mut Outcome) {
        let job = &self.jobs[i];
        let options = self.scsq.options_mut();
        options.mpi_buffer = job.mpi_buffer;
        options.mpi_double = job.mpi_double;
        run_checked(
            &self.scsq,
            &self.plans[job.plan],
            i as u64,
            job.leg,
            job.expect,
            tracer,
            tally,
            out,
            |r| {
                black_box(reduce(r, job.reduce));
            },
        );
    }
}

impl<const JITTERED: bool> PassWorkload for Grid<JITTERED> {
    const WORK_UNIT: &'static str = "simulated events";

    // The jittered first query alone takes a third of a second.
    const SETUP_CYCLES: usize = if JITTERED { 11 } else { 41 };

    fn setup(cfg: &Config, tracer: &mut Tracer, out: &mut Outcome) -> Self {
        let sz = sizes(JITTERED, cfg.smoke);

        let s = tracer.begin("spec_build", 0);
        let spec = HardwareSpec::lofar().jittered(cfg.seed, SPEC_JITTER);
        let mut scsq = Scsq::with_spec(spec);
        *scsq.options_mut() = RunOptions {
            service_jitter: sz.service_jitter,
            ..RunOptions::default()
        };
        tracer.end(s);
        let defaults = scsq.options().clone();

        let mut plans = Vec::new();
        let mut prepare = |text: String, tracer: &mut Tracer| -> usize {
            let id = plans.len();
            plans.push(prepare_checked(&mut scsq, &text, id as u64, tracer));
            id
        };

        let mut jobs = Vec::new();
        let buffer_grid = |leg, plan, expect, jobs: &mut Vec<Job>| {
            for double in [false, true] {
                for buffer in BUFFER_SWEEP {
                    jobs.push(Job {
                        leg,
                        plan,
                        mpi_buffer: buffer,
                        mpi_double: double,
                        expect,
                        reduce: Reduce::IntoNode0,
                    });
                }
            }
        };
        let p2p = prepare(gen::p2p_query(sz.array_bytes, sz.fig6_arrays), tracer);
        buffer_grid("fig6", p2p, sz.fig6_arrays as i64, &mut jobs);
        for second in [2, 4] {
            let merge = prepare(
                gen::merge_query(sz.array_bytes, sz.fig8_arrays, second),
                tracer,
            );
            buffer_grid("fig8", merge, 2 * sz.fig8_arrays as i64, &mut jobs);
        }
        for number in 1..=6 {
            for n in 1..=4u32 {
                let plan = prepare(
                    gen::inbound_query(number, sz.array_bytes, sz.fig15_arrays, n),
                    tracer,
                );
                jobs.push(Job {
                    leg: "fig15",
                    plan,
                    mpi_buffer: defaults.mpi_buffer,
                    mpi_double: defaults.mpi_double,
                    expect: i64::from(n) * sz.fig15_arrays as i64,
                    reduce: Reduce::Inbound,
                });
            }
        }

        let mut grid = Grid { scsq, plans, jobs };
        // Time to first result: the first query of the sweep.
        let s = tracer.begin("first_run", 0);
        grid.run_job(0, &mut Tracer::off(), &mut Tally::default(), out);
        tracer.end(s);
        grid
    }

    fn pass(&mut self, tracer: &mut Tracer, sink: &mut PassSink, out: &mut Outcome) {
        for i in 0..self.jobs.len() {
            let t0 = Instant::now();
            self.run_job(i, tracer, &mut sink.tally, out);
            sink.op_done(self.jobs[i].leg, t0);
        }
        sink.work = sink.tally.counts.events as f64;
    }
}

/// Peak Figure 6 bandwidth (MB/s, double buffering) on the seeded
/// hardware at smoke scale — `simtime.fig6_peak_mbps`, recorded and
/// never gated.
pub fn fig6_peak_mbps(seed: u64) -> f64 {
    let mut scsq = Scsq::with_spec(HardwareSpec::lofar().jittered(seed, SPEC_JITTER));
    let plan = scsq
        .prepare(&gen::p2p_query(300_000, 10))
        .expect("generated SCSQL prepares");
    BUFFER_SWEEP
        .iter()
        .map(|&buffer| {
            scsq.options_mut().mpi_buffer = buffer;
            let r = scsq.run_prepared(&plan).expect("fig6 point runs");
            reduce(&r, Reduce::IntoNode0)
        })
        .fold(0.0, f64::max)
}

/// Wall of one `jittered_grid` pass through `scsq_bench::pool` at 1 and
/// at 2 workers, seconds — the base and numerator of
/// `bench.pool_speedup_jobs2`. Informational: the benchmark's own
/// passes are single-threaded.
pub fn pool_walls(cfg: &Config) -> (f64, f64) {
    let grid = Grid::<true>::setup(cfg, &mut Tracer::off(), &mut Outcome::default());
    let spec = grid.scsq.spec();
    let wall = |workers: usize| {
        let jobs: Vec<_> = grid
            .jobs
            .iter()
            .map(|job| {
                let options = RunOptions {
                    mpi_buffer: job.mpi_buffer,
                    mpi_double: job.mpi_double,
                    ..grid.scsq.options().clone()
                };
                let plan = &grid.plans[job.plan];
                move || plan.run(spec, &options).map(|r| r.stats().events)
            })
            .collect();
        let t0 = Instant::now();
        black_box(scsq_bench::pool::run_indexed(jobs, workers));
        t0.elapsed().as_secs_f64()
    };
    wall(1); // warm-up
    (wall(1), wall(2))
}
