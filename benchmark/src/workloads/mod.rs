//! The four workloads and what they share: the run configuration, the
//! outcome every workload reports, the pass driver of the three
//! in-process workloads and the simulated-behaviour digest.

pub mod element;
pub mod grid;
pub mod served;

use crate::calib::Calib;
use crate::trace::{self, Tracer};
use scsq_core::{PreparedQuery, QueryResult, Scsq, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Passes run with spans on in a traced run.
pub const TRACED_PASSES: usize = 3;

/// In a traced run the untraced reference passes are capped at this
/// many seconds; the rest of the budget goes to the layer drivers.
pub const TRACE_REFERENCE_S: f64 = 6.0;

/// One run's configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Tiny sizes, same structure.
    pub smoke: bool,
    /// Traced run (spans + per-layer metrics) instead of an end-to-end one.
    pub trace: bool,
    /// Where trace files go.
    pub out_dir: PathBuf,
    /// The `scsqd` binary under test.
    pub scsqd: PathBuf,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (queries or statements), set-up and
    /// warm-up included.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Wall of each set-up cycle, seconds (at nominal host speed for
    /// the pass workloads).
    pub setup_s: Vec<f64>,
    /// The operation latencies the end-to-end percentiles are taken
    /// over, milliseconds: one per query slot for the pass workloads
    /// (median over passes, at nominal host speed), every statement
    /// for `served_mix` (raw).
    pub op_ms: Vec<f64>,
    /// Operations timed in the window (passes × slots, or statements).
    pub ops_timed: u64,
    /// Work items (simulated events, stream elements or statements —
    /// see `work_unit`) completed in `timed_s`.
    pub work: f64,
    /// What `work` counts.
    pub work_unit: &'static str,
    /// The wall `work` took, seconds: one pass at nominal host speed
    /// (the sum of `op_ms`), or the timed window of `served_mix`.
    pub timed_s: f64,
    /// Wall of each timed pass at nominal host speed, seconds (empty
    /// for `served_mix`).
    pub pass_s: Vec<f64>,
    /// Median slowdown factor of the host during the run (1 = nominal).
    pub host_slowdown: f64,
    /// Peak resident set (kB) of the process doing the work.
    pub peak_rss_kb: u64,
    /// Hash of the simulated behaviour of one pass.
    pub digest: u64,
    /// Per-layer values measured on this workload (counts, leg walls).
    pub layer: BTreeMap<String, f64>,
    /// Wall of the traced pass ÷ untraced median − 1 (traced runs).
    pub trace_overhead_share: f64,
    /// Largest closure error over the trace's roots (traced runs).
    pub trace_closure_error_share: f64,
    /// The first few failure descriptions, for stderr.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a failed operation with its reason.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why());
        }
    }
}

/// FNV-1a accumulator for the `simtime.digest`.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in everything simulated about one query run: its values,
    /// completion time, event and jitter-draw counts and the bytes each
    /// channel carried — so two commits compare simulated behaviour
    /// exactly.
    pub fn result(&mut self, r: &QueryResult) {
        for v in r.values() {
            for b in v.to_string().bytes() {
                self.word(u64::from(b));
            }
        }
        self.word(r.finished().as_nanos());
        let s = r.stats();
        self.word(s.events);
        self.word(s.jitter_draws);
        for c in &s.channels {
            self.word(c.bytes);
        }
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Exact counts the engine reports, summed over the queries of a pass
/// (`*_hwm` / `*_peak` are maxima).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// `QueryStats::events` (analytically skipped events included, as
    /// the engine counts them).
    pub events: u64,
    /// Largest pending-event population of any query.
    pub events_pending_hwm: u64,
    /// Service-jitter RNG draws.
    pub jitter_draws: u64,
    /// Batches absorbed by column kernels.
    pub columnar_batches: u64,
    /// Value → column transpositions.
    pub columnar_transposes: u64,
    /// Coalescer period jumps.
    pub coalesce_jumps: u64,
    /// Events those jumps skipped.
    pub coalesce_events_skipped: u64,
    /// Buffers handed to a carrier, all channels.
    pub buffers_sent: u64,
    /// Deepest send queue of any channel.
    pub queue_peak_trains: u64,
}

impl Counts {
    /// Adds one query's counts.
    pub fn add(&mut self, r: &QueryResult) {
        let s = r.stats();
        self.events += s.events;
        self.events_pending_hwm = self.events_pending_hwm.max(s.events_pending_hwm);
        self.jitter_draws += s.jitter_draws;
        self.columnar_batches += s.columnar_batches;
        self.columnar_transposes += s.columnar_transposes;
        self.coalesce_jumps += s.coalesce.jumps;
        self.coalesce_events_skipped += s.coalesce.events_skipped;
        for c in &s.channels {
            self.buffers_sent += c.buffers_sent;
            self.queue_peak_trains = self.queue_peak_trains.max(c.queue_peak_trains);
        }
    }

    /// The per-layer metrics these counts feed.
    pub fn publish(&self, layer: &mut BTreeMap<String, f64>) {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        for (name, value) in [
            ("engine.events", self.events as f64),
            ("engine.events_pending_hwm", self.events_pending_hwm as f64),
            ("engine.jitter_draws", self.jitter_draws as f64),
            ("engine.columnar_batches", self.columnar_batches as f64),
            (
                "engine.columnar_transposes",
                self.columnar_transposes as f64,
            ),
            ("sim.coalesce_jumps", self.coalesce_jumps as f64),
            (
                "sim.coalesce_events_skipped",
                self.coalesce_events_skipped as f64,
            ),
            (
                "sim.coalesce_skip_ratio",
                ratio(self.coalesce_events_skipped, self.events),
            ),
            ("transport.buffers_sent", self.buffers_sent as f64),
            ("transport.queue_peak_trains", self.queue_peak_trains as f64),
        ] {
            layer.insert(name.to_string(), value);
        }
    }
}

/// Where each query's simulated behaviour and engine counts go.
#[derive(Debug, Default)]
pub struct Tally {
    /// Simulated-behaviour digest so far.
    pub digest: Digest,
    /// Engine counts so far.
    pub counts: Counts,
}

/// Parses and prepares one generated text under `parse` / `prepare`
/// spans. The parse is the generator checking its own output: one
/// statement per text.
///
/// # Panics
///
/// Panics if the text does not parse or prepare — a bug in `gen`.
pub fn prepare_checked(scsq: &mut Scsq, text: &str, id: u64, tracer: &mut Tracer) -> PreparedQuery {
    let s = tracer.begin("parse", id);
    let parsed = scsq_ql::parse_program(text).expect("generated SCSQL parses");
    assert_eq!(parsed.len(), 1, "one statement per generated text");
    tracer.end(s);
    let s = tracer.begin("prepare", id);
    let plan = scsq.prepare(text).expect("generated SCSQL prepares");
    tracer.end(s);
    plan
}

/// One operation of a pass workload under a `query` span: replay the
/// prepared plan (`run`), fold the result into the tally and whatever
/// `reduce` computes (`reduce`), and check the single integer answer
/// against its closed form (`verify`).
#[allow(clippy::too_many_arguments)]
pub fn run_checked(
    scsq: &Scsq,
    plan: &PreparedQuery,
    id: u64,
    label: &str,
    expect: i64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Outcome,
    reduce: impl FnOnce(&QueryResult),
) {
    out.attempted += 1;
    let q = tracer.begin("query", id);
    let s = tracer.begin("run", id);
    let result = scsq.run_prepared(plan);
    tracer.end(s);
    match result {
        Ok(r) => {
            let s = tracer.begin("reduce", id);
            reduce(&r);
            tally.digest.result(&r);
            tally.counts.add(&r);
            tracer.end(s);
            let s = tracer.begin("verify", id);
            if r.values() != [Value::Integer(expect)] {
                out.fail(|| format!("{label}: got {:?}, want {expect}", r.values()));
            }
            tracer.end(s);
        }
        Err(e) => out.fail(|| format!("{label}: {e}")),
    }
    tracer.end(q);
}

/// What a pass reports back to the driver. It also times the pass's
/// operations, normalising each by the host's speed of the moment.
#[derive(Debug)]
pub struct PassSink<'a> {
    calib: &'a mut Calib,
    last_factor: f64,
    /// Latency of each operation at nominal host speed, ms.
    pub op_ms: Vec<f64>,
    /// Work items completed.
    pub work: f64,
    /// Simulated behaviour and engine counts of the pass.
    pub tally: Tally,
    /// Wall per leg at nominal host speed, seconds, in leg order.
    pub leg_s: Vec<(&'static str, f64)>,
}

impl<'a> PassSink<'a> {
    /// A sink for one pass; takes the pass's first reference sample.
    pub fn new(calib: &'a mut Calib) -> Self {
        let last_factor = calib.factor();
        PassSink {
            calib,
            last_factor,
            op_ms: Vec::new(),
            work: 0.0,
            tally: Tally::default(),
            leg_s: Vec::new(),
        }
    }

    /// Records an operation of `leg` that began at `started` and has
    /// just finished: its wall divided by the mean of the reference
    /// samples taken before and after it.
    pub fn op_done(&mut self, leg: &'static str, started: Instant) {
        let raw = started.elapsed().as_secs_f64();
        let after = self.calib.factor();
        let s = raw / ((self.last_factor + after) / 2.0);
        self.last_factor = after;
        self.op_ms.push(s * 1e3);
        match self.leg_s.last_mut() {
            Some((name, total)) if *name == leg => *total += s,
            _ => self.leg_s.push((leg, s)),
        }
    }
}

/// An in-process workload made of repeatable passes.
pub trait PassWorkload: Sized {
    /// What `work` counts.
    const WORK_UNIT: &'static str;

    /// How many times set-up is repeated in an untraced run.
    const SETUP_CYCLES: usize;

    /// Builds everything from nothing — spec, engine, parse and prepare
    /// of every plan — and executes the workload's first operation.
    fn setup(cfg: &Config, tracer: &mut Tracer, out: &mut Outcome) -> Self;

    /// Runs every query of the workload once, reporting each through
    /// [`PassSink::op_done`].
    fn pass(&mut self, tracer: &mut Tracer, sink: &mut PassSink, out: &mut Outcome);

    /// Output checks that need the workload's state, after the timed
    /// window.
    fn finish(&mut self, _out: &mut Outcome) {}
}

/// The latency of every operation slot of a pass: the median, over
/// the timed passes, of that slot's normalised latency.
pub fn slot_medians_ms(passes: &[Vec<f64>]) -> Vec<f64> {
    let slots = passes.first().map_or(0, Vec::len);
    (0..slots)
        .map(|slot| {
            let column: Vec<f64> = passes.iter().map(|p| p[slot]).collect();
            crate::stats::median(&column)
        })
        .collect()
}

/// Drives a pass workload: set-up cycles, one warm-up pass, timed
/// passes for `cfg.seconds`, and in a traced run more passes with
/// spans on. Every timing is at nominal host speed (see `calib`).
pub fn drive<W: PassWorkload>(cfg: &Config, workload: &str) -> Outcome {
    let epoch = Instant::now();
    let mut out = Outcome {
        work_unit: W::WORK_UNIT,
        ..Outcome::default()
    };
    let mut tracer = Tracer::new(cfg.trace, epoch);
    let mut calib = Calib::new();

    // Set-up, repeated so `setup_s` can be a median over cycles. A
    // traced run sets up once, with spans.
    let cycles = match (cfg.trace, cfg.smoke) {
        (true, _) => 1,
        (false, true) => 3,
        (false, false) => W::SETUP_CYCLES,
    };
    let mut w = None;
    for cycle in 0..cycles {
        drop(w.take());
        let root = tracer.begin("setup", cycle as u64);
        let (built, s) = calib.timed(|| W::setup(cfg, &mut tracer, &mut out));
        tracer.end(root);
        out.setup_s.push(s);
        w = Some(built);
    }
    let mut w = w.expect("at least one set-up cycle");

    // Warm-up: one full pass, untimed and untraced, so lazily built
    // state (route tables, grown buffers, allocator arenas) is in place.
    let mut off = Tracer::off();
    let mut warm = PassSink::new(&mut calib);
    w.pass(&mut off, &mut warm, &mut out);
    let reference = warm.tally.digest.value();
    out.digest = reference;

    // Timed passes. Only whole passes count, so every run measures the
    // same queries.
    let budget = if cfg.trace {
        cfg.seconds.min(TRACE_REFERENCE_S)
    } else {
        cfg.seconds
    };
    let mut legs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let window = Instant::now();
    loop {
        let mut sink = PassSink::new(&mut calib);
        w.pass(&mut off, &mut sink, &mut out);
        out.pass_s.push(sink.op_ms.iter().sum::<f64>() / 1e3);
        out.work = sink.work;
        for (leg, s) in sink.leg_s {
            legs.entry(leg).or_default().push(s);
        }
        if sink.tally.digest.value() != reference {
            out.fail(|| format!("{workload}: pass digest differs from the warm-up pass"));
        }
        passes.push(sink.op_ms);
        if window.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    out.ops_timed = passes.iter().map(|p| p.len() as u64).sum();
    out.op_ms = slot_medians_ms(&passes);
    out.timed_s = out.op_ms.iter().sum::<f64>() / 1e3;
    w.finish(&mut out);
    for (leg, walls) in legs {
        out.layer.insert(
            format!("engine.leg_wall_s.{leg}"),
            crate::stats::median(&walls),
        );
    }

    if cfg.trace {
        let mut traced = Vec::new();
        let mut counts = Counts::default();
        for pass in 0..TRACED_PASSES {
            let mut sink = PassSink::new(&mut calib);
            let root = tracer.begin("pass", pass as u64);
            w.pass(&mut tracer, &mut sink, &mut out);
            tracer.end(root);
            traced.push(sink.op_ms.iter().sum::<f64>() / 1e3);
            if sink.tally.digest.value() != reference {
                out.fail(|| format!("{workload}: traced pass digest differs"));
            }
            counts = sink.tally.counts;
        }
        out.trace_overhead_share =
            crate::stats::median(&traced) / crate::stats::median(&out.pass_s) - 1.0;
        out.trace_closure_error_share = trace::closure_error_share(tracer.spans());
        counts.publish(&mut out.layer);
        crate::write_trace(cfg, workload, tracer.spans());
    }
    out.host_slowdown = calib.median_factor();
    out.peak_rss_kb = crate::peak_rss_kb("/proc/self/status");
    out
}
