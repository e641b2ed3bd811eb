//! `element_pipeline`: four single-generator pipelines over jittered
//! 9-byte `iota` integers at an MPI buffer of 50 000 bytes.
//!
//! *Why:* here the `scsq-engine` executor (`fused` / `columnar` /
//! `ops`) does most of the work and the event kernel little — one
//! buffer delivers thousands of elements, so cycles are sparse. Three
//! legs run on the column kernels; `winagg_declined` is a chain the
//! columnar admission walk declines, i.e. the same layer on its
//! fallback path, so collapsing executor tiers cannot silently tax it.
//! Kernel work predicts **no change** on this workload.

use super::{prepare_checked, run_checked, Config, Outcome, PassSink, PassWorkload, Tally};
use crate::gen;
use crate::trace::Tracer;
use scsq_core::{HardwareSpec, PreparedQuery, RunOptions, Scsq};
use std::time::Instant;

/// Elements per leg.
pub fn elements(smoke: bool) -> u64 {
    if smoke {
        20_000
    } else {
        250_000
    }
}

struct Leg {
    name: &'static str,
    plan: PreparedQuery,
    expect: i64,
}

/// The element workload.
pub struct Pipelines {
    scsq: Scsq,
    legs: Vec<Leg>,
    n: u64,
    /// Per-leg `columnar_batches` of the latest pass.
    columnar_by_leg: Vec<u64>,
}

/// Σ 1..=n.
fn tri(n: i64) -> i64 {
    n * (n + 1) / 2
}

/// The closed-form answers the benchmark computes itself.
pub fn expected(n: u64) -> [(&'static str, i64); 4] {
    let n = n as i64;
    // The filter keeps x with 3x > half, i.e. x > k where k = half / 3.
    let k = gen::filter_half(n as u64) as i64 / 3;
    // Tumbling windows of WINDOW plus a final partial one: every
    // element lands in exactly one window, so the window sums add up
    // to the stream's sum.
    [
        ("take_sum", tri(n)),
        ("filter_heavy", n - k),
        ("relay", 3 * (tri(n) - tri(k))),
        ("winagg_declined", tri(n)),
    ]
}

impl Pipelines {
    fn run_leg(&mut self, i: usize, tracer: &mut Tracer, tally: &mut Tally, out: &mut Outcome) {
        let leg = &self.legs[i];
        let batches = &mut self.columnar_by_leg[i];
        run_checked(
            &self.scsq,
            &leg.plan,
            i as u64,
            leg.name,
            leg.expect,
            tracer,
            tally,
            out,
            |r| *batches = r.stats().columnar_batches,
        );
    }

    /// Publishes which legs the column kernels absorbed, and checks the
    /// `explain` verdict the declined leg is named for.
    pub fn publish_columnar(&self, out: &mut Outcome) {
        for (leg, batches) in self.legs.iter().zip(&self.columnar_by_leg) {
            out.layer.insert(
                format!("engine.columnar_batches.{}", leg.name),
                *batches as f64,
            );
            let declined = leg.name == "winagg_declined";
            if declined != (*batches == 0) {
                out.fail(|| {
                    format!(
                        "{}: {batches} columnar batches (declined leg must have 0, others > 0)",
                        leg.name
                    )
                });
            }
        }
        let text = self
            .scsq
            .explain(&gen::winagg_declined_query(self.n))
            .unwrap_or_default();
        if !text.contains("scalar: no whole-column kernel") {
            out.fail(|| format!("winagg_declined: explain does not decline the chain:\n{text}"));
        }
    }
}

impl PassWorkload for Pipelines {
    const WORK_UNIT: &'static str = "stream elements";

    const SETUP_CYCLES: usize = 25;

    fn setup(cfg: &Config, tracer: &mut Tracer, out: &mut Outcome) -> Self {
        let n = elements(cfg.smoke);
        let s = tracer.begin("spec_build", 0);
        let spec = HardwareSpec::lofar().jittered(cfg.seed, 0.02);
        let mut scsq = Scsq::with_spec(spec);
        *scsq.options_mut() = RunOptions {
            mpi_buffer: 50_000,
            service_jitter: 0.05,
            ..RunOptions::default()
        };
        tracer.end(s);

        let texts = [
            gen::take_sum_query(n),
            gen::filter_heavy_query(n),
            gen::relay_query(n),
            gen::winagg_declined_query(n),
        ];
        let mut legs = Vec::new();
        for (i, (text, (name, expect))) in texts.iter().zip(expected(n)).enumerate() {
            let plan = prepare_checked(&mut scsq, text, i as u64, tracer);
            legs.push(Leg { name, plan, expect });
        }
        let mut w = Pipelines {
            scsq,
            legs,
            n,
            columnar_by_leg: vec![0; 4],
        };
        let s = tracer.begin("first_run", 0);
        w.run_leg(0, &mut Tracer::off(), &mut Tally::default(), out);
        tracer.end(s);
        w
    }

    fn pass(&mut self, tracer: &mut Tracer, sink: &mut PassSink, out: &mut Outcome) {
        for i in 0..self.legs.len() {
            let t0 = Instant::now();
            self.run_leg(i, tracer, &mut sink.tally, out);
            sink.op_done(self.legs[i].name, t0);
        }
        sink.work = (self.n * self.legs.len() as u64) as f64;
    }

    fn finish(&mut self, out: &mut Outcome) {
        self.publish_columnar(out);
    }
}
