//! Discrete-event execution of a query graph.
//!
//! Each stream process runs as an RP (§2.3): source RPs (gen_array,
//! receiver, grep) pace element production on their node's CPU; stream
//! channels (from `scsq-transport`) marshal elements into buffers and
//! move them over the simulated MPI/TCP carriers one buffer per event;
//! receiving RPs de-marshal, run their SQEP stages (charging compute
//! time for expensive functions), and forward results to their
//! subscribers. End-of-stream control messages propagate downstream;
//! when the client manager's pipeline sees EOS on all inputs, the query
//! is complete (§2.2: RPs terminate when the stream is finite and
//! exhausted).

use crate::builder::QueryGraph;
use crate::error::EngineError;
use crate::fused::{CostModel, PreparedSource};
use crate::measure::QueryResult;
use crate::ops::{Pipeline, StageChain};
use scsq_cluster::{Environment, NodeId};
use scsq_ql::{ColumnarBatch, SpHandle, Value};
use scsq_sim::obs::SPAN_CAPACITY;
use scsq_sim::{typed::Event, SimTime, Span, StateProbe, TypedSimulator};
use scsq_transport::{Carrier, Payload, StreamChannel};
use std::sync::Arc;

mod build;
mod deliver;
mod report;
mod source;

pub(crate) use build::build;
use deliver::{cycle, deliver, eos};
use report::report;
use source::{finish_rp, produce, start_rp};

/// Execution knobs for one query run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// MPI stream buffer size in bytes (the Fig 6 / Fig 8 sweep
    /// variable). §3.1 finds 1000 bytes optimal for point-to-point.
    pub mpi_buffer: u64,
    /// Whether the MPI drivers double-buffer (§2.3).
    pub mpi_double: bool,
    /// Arrays emitted by `receiver()` sources.
    pub receiver_arrays: u64,
    /// Samples per `receiver()` array (power of two for FFT pipelines).
    pub receiver_samples: usize,
    /// Simulator event budget (guards against runaway queries).
    pub event_limit: u64,
    /// How unconstrained stream processes are placed (§2.2's naïve
    /// algorithm, or the topology-aware refinement).
    pub placement: crate::placement::PlacementPolicy,
    /// Carry inter-cluster streams over UDP instead of TCP (§2.1: the
    /// I/O nodes "provide TCP or UDP"). UDP has no flow control:
    /// overloaded I/O nodes drop datagrams and the affected elements are
    /// lost.
    pub udp_inter_cluster: bool,
    /// Detect periodic phases of the event schedule and fast-forward
    /// them analytically (bit-identical results, far fewer dispatched
    /// events). Disable to force per-event execution, e.g. when
    /// measuring the uncoalesced baseline.
    pub coalesce: bool,
    /// Run whole delivered batches with one dispatch per stage when the
    /// destination's stage chain admits them (folding them into an
    /// absorber or emitting the transformed column).
    /// Identical outputs either way — the per-element path is the
    /// byte-identity reference (`columnar: false`) and the fallback for
    /// every batch the admission walk declines.
    pub columnar: bool,
    /// Relative amplitude of multiplicative service-time jitter applied
    /// to every CPU-side service (element generation, marshal, compute,
    /// de-marshal; 0.0 disables it). Non-zero jitter makes every buffer
    /// period unique, so train coalescing provably cannot fire — the
    /// knob behind the per-event benchmark pass.
    pub service_jitter: f64,
    /// The run's one observability switch. On, the run records
    /// everything it can say about itself into
    /// [`QueryStats::profile`](crate::QueryStats): per-stage call and
    /// element tallies in every executor tier, per-RP wall time scoped
    /// around chain execution and environment charging, its
    /// simulated-timeline spans, and a latency histogram on every
    /// [`ChannelReport`](crate::ChannelReport) (channels a `latency(p)` RP watches are
    /// tracked either way). Off by default — then the tally slices are
    /// empty, untracked channels pay nothing and no span is built.
    /// Profiling never changes query results or simulated time; it
    /// may change which periods the coalescer jumps, since tracked
    /// latency is state it must probe.
    pub profile: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            mpi_buffer: scsq_transport::MPI_DEFAULT_BUFFER,
            mpi_double: true,
            receiver_arrays: 8,
            receiver_samples: 1024,
            event_limit: 400_000_000,
            placement: crate::placement::PlacementPolicy::Naive,
            udp_inter_cluster: false,
            coalesce: true,
            columnar: true,
            service_jitter: 0.0,
            profile: false,
        }
    }
}

struct GenRt {
    bytes: u64,
    remaining: u64,
}

struct RpState<'g> {
    node: NodeId,
    chain: StageChain,
    /// The plan's pipeline the chain runs.
    pipeline: &'g Pipeline,
    /// The plan's compute-cost accounting for the stage chain.
    cost: &'g CostModel,
    /// Output channel indices.
    outputs: Vec<usize>,
    /// Input channels still streaming.
    eos_remaining: usize,
    gen: Option<GenRt>,
    /// Non-gen source elements (receiver / grep / const) not yet
    /// emitted — a constant's are the plan's own, shared, never copied.
    /// Emptied by the one `drain_source` call that emits them.
    source: Arc<[Value]>,
    /// The constant source as prepared columns, when the plan holds
    /// them and this run is on the columnar tier: `drain_source` then
    /// sends the view instead of walking `source`.
    prepared: Option<PreparedSource>,
    is_client: bool,
    /// Whether the RP already flushed its aggregates and closed its
    /// outputs (guards against the EOS event racing the RP's own
    /// poll-tick start event).
    finished: bool,
    /// Monitoring counters (§2.3 step v).
    elements_in: u64,
    elements_out: u64,
    /// Real time spent inside the stage chain (explain-analyze only;
    /// stays 0 unless `RunOptions::profile`). Observational — never
    /// probed, never feeds simulated time.
    wall_ns: u64,
    /// Real time spent inside the `Environment` generate / compute
    /// charges made for this RP; same discipline as `wall_ns`.
    charge_ns: u64,
}

/// What rides a stream channel: an owned scalar value, or a zero-copy
/// view of one or more consecutive rows of an Arc-backed columnar batch
/// (relay survivors, a prepared constant source). Rows travel without
/// ever materializing a `Value`; the simulated byte accounting uses
/// their marshaled sizes, so channel timing is identical either way.
/// Views are equal only when they are the same view of the same
/// storage, so distinct rows never merge into a train — safe, because
/// train merging only affects equal-payload runs and channel timing
/// depends only on `(bytes, ready)`.
#[derive(Debug, Clone)]
pub(crate) enum Elem {
    /// An owned scalar element (the classic path).
    Val(Value),
    /// A run of rows of a shared columnar batch, handed across
    /// zero-copy; the channel cuts it into per-buffer slices.
    Col(ColumnarBatch),
}

impl PartialEq for Elem {
    fn eq(&self, other: &Elem) -> bool {
        match (self, other) {
            (Elem::Val(a), Elem::Val(b)) => a == b,
            (Elem::Col(a), Elem::Col(b)) => a.same_view(b),
            _ => false,
        }
    }
}

impl Payload for Elem {
    fn rows(&self) -> usize {
        match self {
            Elem::Val(_) => 1,
            Elem::Col(c) => c.rows(),
        }
    }

    fn slice_rows(&self, start: usize, end: usize) -> Elem {
        match self {
            Elem::Val(_) => self.clone(),
            Elem::Col(c) => Elem::Col(c.slice(start, end)),
        }
    }
}

impl Elem {
    /// Simulated marshaled size of every element the payload stands
    /// for — byte-identical to marshaling the materialized values
    /// ([`ColumnarBatch::row_marshaled_size`] is proven against
    /// `Value::marshaled_size`).
    fn marshaled_size(&self) -> u64 {
        match self {
            Elem::Val(v) => v.marshaled_size(),
            Elem::Col(c) => match c.uniform_row_size() {
                Some(each) => each * c.rows() as u64,
                None => (0..c.rows()).map(|r| c.row_marshaled_size(r)).sum(),
            },
        }
    }
}

/// Hashes a channel payload's full contents into a coalescing probe.
/// Column views hash their *materialized* rows behind a distinct tag —
/// never the Arc pointer, which would be nondeterministic across runs.
pub(crate) fn elem_shape(e: &Elem, p: &mut StateProbe<'_>) {
    match e {
        Elem::Val(v) => value_shape(v, p),
        Elem::Col(c) => {
            p.shape(11);
            p.shape(c.rows() as u64);
            for row in 0..c.rows() {
                value_shape(&c.value_at(row), p);
            }
        }
    }
}

/// Per-channel ingress→delivery latency tracking. An element is stamped
/// with simulated time when it enters the channel (`enqueue_elem` /
/// `send_run`) and its stamp is closed into the histogram when the
/// element becomes visible at the subscriber (`deliver`). Channels are
/// FIFO, so the stamps form a queue: the front stamps belong to buffers
/// already transmitted (counted by `in_flight`) and deliver next; a UDP
/// drop loses the buffer *behind* those, so loss reconciliation removes
/// stamps at index `in_flight`.
#[derive(Default)]
struct LatTrack {
    /// Enqueue times of elements not yet delivered or lost, oldest
    /// first.
    ingress: std::collections::VecDeque<SimTime>,
    /// How many front stamps belong to transmitted, not-yet-delivered
    /// buffers.
    in_flight: usize,
    /// The channel's `elements_lost` at the last reconciliation.
    last_lost: u64,
    /// Closed ingress→delivery latencies.
    hist: scsq_sim::LatencyHistogram,
}

impl LatTrack {
    /// Latency state is result-affecting whenever a `latency(p)` RP
    /// consumes the samples, so the coalescer must track all of it:
    /// stamps extrapolate like any pending time, the counters like
    /// per-period deltas.
    fn probe(&mut self, p: &mut StateProbe<'_>) {
        p.shape(self.ingress.len() as u64);
        for t in self.ingress.iter_mut() {
            p.time(t);
        }
        p.num_usize(&mut self.in_flight);
        p.num(&mut self.last_lost);
        self.hist.probe(p);
    }
}

struct ChannelRt {
    chan: StreamChannel<Elem>,
    src_sp: SpHandle,
    dst_rp: usize,
    /// `Some` when this channel's latency is tracked: a `latency(p)` RP
    /// watches it, or the run is profiled.
    lat: Option<LatTrack>,
}

pub(crate) struct World<'g> {
    env: Environment,
    rps: Vec<RpState<'g>>,
    channels: Vec<ChannelRt>,
    results: Vec<Value>,
    first_result_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    error: Option<EngineError>,
    /// Reusable output buffer for `process_and_emit` and `run_rows`:
    /// taken, filled, drained, and returned on every element or run, so
    /// the hot path never allocates a fresh `Vec` per processed tuple.
    scratch: Vec<Value>,
    /// Per-channel metric-stream observers (`metrics(p)` RPs watching
    /// the channel's deliveries), indexed by channel. Left entirely
    /// empty when the query has no observers, so the per-delivery check
    /// is a single `is_empty()`. Immutable after set-up.
    observers: Vec<Vec<usize>>,
    /// Per-channel latency-stream observers (`latency(p)` RPs consuming
    /// one sample per delivered element), indexed by channel. Same
    /// emptiness discipline as `observers`. Immutable after set-up.
    lat_observers: Vec<Vec<usize>>,
    /// Whether the run records its own profile: wall timers, tallies
    /// and spans (`RunOptions::profile`).
    pub(crate) profile: bool,
    /// The profiled run's simulated-timeline spans, the first
    /// `SPAN_CAPACITY` of them; `spans_dropped` counts the rest.
    /// Observational, like the wall timers: never probed.
    spans: Vec<Span>,
    spans_dropped: u64,
    /// Whether `deliver` may hand whole batches to the columnar fast
    /// path (`RunOptions::columnar`, gated on fusion being on).
    columnar: bool,
    /// Delivered batches the column tier folded or emitted.
    columnar_batches: u64,
    /// Value→column decompositions performed (`columnar: false` must
    /// keep this at zero: no speculative transposes).
    columnar_transposes: u64,
    /// Reusable gather buffer for a delivered run of scalar values (or
    /// the rows of a declined column view) — one move per element, the
    /// same cost the consuming iteration already paid.
    val_scratch: Vec<Value>,
    /// Reusable per-element compute-finish times for emitting batches.
    ready_scratch: Vec<SimTime>,
}

pub(crate) type Sim<'g> = TypedSimulator<World<'g>, Ev>;

/// The runtime's event vocabulary. The engine hot loop executes tens of
/// millions of these per query; keeping them a plain enum (instead of
/// boxed closures) removes one heap allocation and one indirect call
/// per event. Variant order mirrors the dispatch functions below.
pub(crate) enum Ev {
    /// An RP wakes at its coordinator's start tick.
    StartRp(usize),
    /// A gen_array source produces its next element.
    Produce(usize),
    /// An RP's own stream ends: flush aggregates, close outputs.
    FinishRp(usize),
    /// One stream-channel buffer cycle.
    Cycle(usize),
    /// A buffer's elements become visible at the subscriber. Column
    /// rows arrive as `Elem::Col` slices and reassemble into batch
    /// views zero-copy; scalar runs are gathered and processed per
    /// element or transposed for the columnar fast path.
    Deliver { ci: usize, batch: Vec<Elem> },
    /// End-of-stream control message arrives at the subscriber.
    Eos(usize),
}

/// Event kinds, the `kind` of [`Ev::kind_target`].
const EV_KINDS: usize = 6;

impl Ev {
    /// The event's kind (0..[`EV_KINDS`]) and target (RP or channel).
    #[inline]
    fn kind_target(&self) -> (usize, usize) {
        match self {
            Ev::StartRp(i) => (0, *i),
            Ev::Produce(i) => (1, *i),
            Ev::FinishRp(i) => (2, *i),
            Ev::Cycle(ci) => (3, *ci),
            Ev::Deliver { ci, .. } => (4, *ci),
            Ev::Eos(ci) => (5, *ci),
        }
    }

    /// Stable identity of an event kind + target, used by the coalescer
    /// to anchor periodic phases of the schedule.
    pub(crate) fn key(&self) -> u64 {
        let (kind, idx) = self.kind_target();
        ((kind as u64 + 1) << 56) | idx as u64
    }

    /// Walks the event's payload through a coalescing probe (pending
    /// events are part of the simulation state).
    pub(crate) fn probe(&mut self, p: &mut StateProbe<'_>) {
        p.shape(self.key());
        if let Ev::Deliver { batch, .. } = self {
            p.shape(batch.len() as u64);
            for e in batch.iter() {
                elem_shape(e, p);
            }
        }
    }
}

impl<'g> Event<World<'g>> for Ev {
    /// Once the query has failed (`World::error`), every event is a
    /// no-op: the handlers run only on a live query.
    fn fire(self, world: &mut World<'g>, sim: &mut Sim<'g>) {
        if world.error.is_some() {
            return;
        }
        match self {
            Ev::StartRp(idx) => start_rp(world, sim, idx),
            Ev::Produce(idx) => produce(world, sim, idx),
            Ev::FinishRp(idx) => finish_rp(world, sim, idx),
            Ev::Cycle(ci) => cycle(world, sim, ci),
            Ev::Deliver { ci, batch } => deliver(world, sim, ci, batch),
            Ev::Eos(ci) => eos(world, sim, ci),
        }
    }

    /// One lane per (kind, target), dense. A target's events of one
    /// kind are scheduled in time order: every `Produce` and `Deliver`,
    /// and 99.8 % of the `Cycle`s queued below the front slot on the
    /// paper-scale Fig 8 grid, where each array's chain of cycles
    /// overlaps the previous array's on one channel.
    #[inline]
    fn lane(&self) -> u32 {
        let (kind, idx) = self.kind_target();
        (idx * EV_KINDS + kind) as u32
    }
}

/// Hashes a value's full contents into a probe's shape: tuple payloads
/// are opaque to the coalescer — any change blocks a jump.
pub(crate) fn value_shape(v: &Value, p: &mut StateProbe<'_>) {
    use scsq_ql::ArrayData;
    match v {
        Value::Integer(i) => {
            p.shape(1);
            p.shape(*i as u64);
        }
        Value::Real(r) => {
            p.shape(2);
            p.shape(r.to_bits());
        }
        Value::Str(s) => {
            p.shape(3);
            p.shape_bytes(s.as_bytes());
        }
        Value::Bool(b) => {
            p.shape(4);
            p.shape(*b as u64);
        }
        Value::Array(ArrayData::Real(xs)) => {
            p.shape(5);
            p.shape(xs.len() as u64);
            for x in xs {
                p.shape(x.to_bits());
            }
        }
        Value::Array(ArrayData::Complex(xs)) => {
            p.shape(6);
            p.shape(xs.len() as u64);
            for (re, im) in xs {
                p.shape(re.to_bits());
                p.shape(im.to_bits());
            }
        }
        Value::Array(ArrayData::Synthetic { bytes }) => {
            p.shape(7);
            p.shape(*bytes);
        }
        Value::Bag(vs) => {
            p.shape(8);
            p.shape(vs.len() as u64);
            for x in vs {
                value_shape(x, p);
            }
        }
        Value::Sp(h) => {
            p.shape(9);
            p.shape(h.0);
        }
        Value::Stream(h) => {
            p.shape(10);
            p.shape(h.0);
        }
    }
}

impl RpState<'_> {
    fn probe(&mut self, p: &mut StateProbe<'_>) {
        self.chain.probe(p, &mut value_shape);
        p.num_usize(&mut self.eos_remaining);
        p.shape(self.gen.is_some() as u64);
        if let Some(gen) = &mut self.gen {
            p.shape(gen.bytes);
            p.num(&mut gen.remaining);
        }
        p.shape(self.source.len() as u64);
        for v in self.source.iter() {
            value_shape(v, p);
        }
        p.shape(self.finished as u64);
        p.num(&mut self.elements_in);
        p.num(&mut self.elements_out);
    }
}

impl World<'_> {
    /// Keeps a profiled run's span, or counts it as dropped once the
    /// run holds `SPAN_CAPACITY` of them; a plain run records nothing.
    /// Forced inline so a plain run's transmit pays one field test,
    /// not a call with a span built for it.
    #[inline(always)]
    pub(crate) fn record_span(&mut self, span: Span) {
        if self.profile {
            self.keep_span(span);
        }
    }

    #[cold]
    fn keep_span(&mut self, span: Span) {
        if self.spans.len() < SPAN_CAPACITY {
            self.spans.push(span);
        } else {
            self.spans_dropped += 1;
        }
    }

    /// Walks the entire mutable simulation state through a coalescing
    /// probe, in a fixed deterministic order.
    pub(crate) fn probe(&mut self, p: &mut StateProbe<'_>, now: SimTime) {
        let World {
            env,
            rps,
            channels,
            results,
            first_result_at,
            finished_at,
            error,
            scratch: _,
            // Immutable after set-up: the per-channel observer lists are
            // fixed by the query graph, so they carry no mutable state
            // for the coalescer to track; the columnar and profile flags
            // are run options.
            observers: _,
            lat_observers: _,
            profile: _,
            spans: _,
            spans_dropped: _,
            columnar: _,
            columnar_batches,
            columnar_transposes,
            val_scratch: _,
            ready_scratch: _,
        } = self;
        p.num(columnar_batches);
        p.num(columnar_transposes);
        // UDP drop decisions depend on I/O-node backlog; tell the
        // environment to guard it while any UDP channel is still live.
        let udp_active = channels
            .iter()
            .any(|c| matches!(c.chan.config().carrier, Carrier::Udp) && !c.chan.is_finished());
        env.probe(p, now, udp_active);
        for rp in rps.iter_mut() {
            rp.probe(p);
        }
        for c in channels.iter_mut() {
            c.chan.probe(env, p, elem_shape);
            p.shape(c.lat.is_some() as u64);
            if let Some(lat) = &mut c.lat {
                lat.probe(p);
            }
        }
        // The client's result sink is append-only and never read back by
        // the model: its length alone gates jumps.
        p.shape(results.len() as u64);
        p.shape(first_result_at.is_some() as u64);
        if let Some(t) = first_result_at {
            p.time(t);
        }
        p.shape(finished_at.is_some() as u64);
        if let Some(t) = finished_at {
            p.time(t);
        }
        p.shape(error.is_some() as u64);
    }
}

/// Executes a query graph on `env` to completion, in the paper's three
/// phases (§2.2): the coordinators start the RPs (`build`), the RPs
/// stream (the coalescing driver, or per-event dispatch), and the client
/// manager collects the result and statistics (`report`).
///
/// The graph is borrowed, not consumed: all per-run state (stage
/// chains, channel buffers, source cursors) is instantiated here, so
/// one compiled graph can be executed many times — the basis of the
/// prepared-query API in `ClientManager::prepare`.
///
/// # Errors
///
/// Runtime type errors inside operators, or an exceeded event budget.
pub fn run_graph(
    env: Environment,
    graph: &QueryGraph,
    options: &RunOptions,
) -> Result<QueryResult, EngineError> {
    let run_t0 = std::time::Instant::now();
    let mut sim = build(env, graph, options)?;
    let drive = if options.coalesce {
        crate::train::run_coalesced(&mut sim)
    } else {
        let end = sim.run_to_completion();
        (end, Default::default(), Default::default())
    };
    report(sim, drive, options, run_t0)
}

#[cfg(test)]
mod tests;
