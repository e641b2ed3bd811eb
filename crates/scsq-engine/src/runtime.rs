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
use crate::coordinator::Coordinator;
use crate::error::EngineError;
use crate::funcs;
use crate::fused::{ColumnEnding, CostModel, PreparedSource};
use crate::measure::{ChannelReport, QueryResult, QueryStats};
use crate::ops::{InputKind, Pipeline, StageChain};
use scsq_cluster::{ClusterName, Environment, NodeId};
use scsq_net::FlowId;
use scsq_ql::{ColumnarBatch, SelectionVector, SpHandle, Value};
use scsq_sim::obs::SPAN_CAPACITY;
use scsq_sim::{typed::Event, SimTime, Span, StateProbe, TypedSimulator};
use scsq_transport::{Carrier, ChannelConfig, Payload, StreamChannel};
use std::collections::HashMap;
use std::sync::Arc;

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
    /// [`ChannelReport`] (channels a `latency(p)` RP watches are
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
    fn new() -> LatTrack {
        LatTrack {
            ingress: std::collections::VecDeque::new(),
            in_flight: 0,
            last_lost: 0,
            hist: scsq_sim::LatencyHistogram::default(),
        }
    }

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
    fn fire(self, world: &mut World<'g>, sim: &mut Sim<'g>) {
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

/// Executes a query graph on `env` to completion.
///
/// The graph is borrowed, not consumed: all per-run state (stage
/// chains, channel buffers, source cursors) is instantiated here, so
/// one compiled graph can be executed many times — the basis of the
/// prepared-query API in `ClientManager::prepare`.
///
/// # Errors
///
/// Runtime type errors inside operators, or an exceeded event budget.
pub fn run_graph<'g>(
    mut env: Environment,
    graph: &'g QueryGraph,
    options: &RunOptions,
) -> Result<QueryResult, EngineError> {
    let run_t0 = std::time::Instant::now();
    // SpHandle → rp index. The client is the last rp.
    let mut rp_of: HashMap<SpHandle, usize> = HashMap::new();
    for (i, sp) in graph.sps.iter().enumerate() {
        rp_of.insert(sp.handle, i);
    }
    let client_rp = graph.sps.len();
    // Service-time jitter lives in the environment: every CPU-side
    // service (generate, marshal, compute, de-marshal) draws a factor
    // from its deterministic stream, so even within-transfer buffer
    // periods are unique and train-coalescing provably cannot fire.
    env.set_service_jitter(options.service_jitter);

    let mut rps: Vec<RpState> = Vec::with_capacity(graph.sps.len() + 1);
    let mut channels: Vec<ChannelRt> = Vec::new();
    let mut flow_counter = 0u64;

    let mut make_rp = |pipeline: &Pipeline,
                       cost: &'g CostModel,
                       prepared: Option<&PreparedSource>,
                       node: NodeId,
                       dst_rp: usize,
                       is_client: bool,
                       env: &mut Environment,
                       channels: &mut Vec<ChannelRt>,
                       rp_of: &HashMap<SpHandle, usize>|
     -> Result<RpState<'g>, EngineError> {
        let producers = pipeline.producers();
        // One channel per producer.
        for &p in producers {
            let src_rp = *rp_of.get(&p).ok_or_else(|| {
                EngineError::Runtime(format!("subscription to unknown stream process {p:?}"))
            })?;
            let src_node = if src_rp < graph.sps.len() {
                graph.sps[src_rp].node
            } else {
                node
            };
            let carrier = if src_node.cluster == ClusterName::BlueGene
                && node.cluster == ClusterName::BlueGene
            {
                Carrier::Mpi {
                    buffer: options.mpi_buffer,
                    double: options.mpi_double,
                }
            } else if options.udp_inter_cluster {
                Carrier::Udp
            } else {
                Carrier::Tcp
            };
            let cfg = ChannelConfig {
                flow: FlowId(flow_counter),
                src: src_node,
                dst: node,
                carrier,
            };
            flow_counter += 1;
            channels.push(ChannelRt {
                chan: StreamChannel::new(cfg, env),
                src_sp: p,
                dst_rp,
                lat: None,
            });
        }
        let mut gen = None;
        let source: Arc<[Value]> = match &pipeline.input {
            InputKind::Gen { bytes, count } => {
                gen = Some(GenRt {
                    bytes: *bytes,
                    remaining: *count,
                });
                Arc::new([])
            }
            InputKind::Const { values } => Arc::clone(values),
            InputKind::Grep { pattern, file } => funcs::grep(pattern, file).into(),
            InputKind::Receiver {
                name,
                arrays,
                samples,
            } => (0..*arrays)
                .map(|i| funcs::receiver_array(name, i, *samples))
                .collect(),
            // Observers subscribe to nothing: their samples are
            // synthesized by `deliver` as observed channels deliver.
            InputKind::Receive { .. } | InputKind::Metrics { .. } | InputKind::Latency { .. } => {
                Arc::new([])
            }
        };
        let mut chain = StageChain::new(pipeline);
        if options.profile {
            chain.enable_profiling();
        }
        Ok(RpState {
            node,
            chain,
            cost,
            outputs: Vec::new(),
            eos_remaining: producers.len(),
            gen,
            source,
            // Views exist on the columnar tier only; every other
            // configuration walks `source` and never looks at this.
            prepared: prepared.filter(|_| options.columnar).cloned(),
            is_client,
            finished: false,
            elements_in: 0,
            elements_out: 0,
            wall_ns: 0,
            charge_ns: 0,
        })
    };

    for (i, sp) in graph.sps.iter().enumerate() {
        let rp = make_rp(
            &sp.pipeline,
            &sp.cost,
            sp.source.as_ref(),
            sp.node,
            i,
            false,
            &mut env,
            &mut channels,
            &rp_of,
        )?;
        rps.push(rp);
    }
    let client = make_rp(
        &graph.client,
        &graph.client_cost,
        // Client-side constants feed the result sink, not a channel.
        None,
        graph.client_node,
        client_rp,
        true,
        &mut env,
        &mut channels,
        &rp_of,
    )?;
    rps.push(client);

    // Wire producer output lists.
    for (ci, ch) in channels.iter().enumerate() {
        let src_rp = rp_of[&ch.src_sp];
        rps[src_rp].outputs.push(ci);
    }

    // Wire stream observers: a `metrics(p)` or `latency(p)` RP watches
    // every channel whose producer is one of its targets, and its
    // stream ends when the last watched channel delivers EOS. Channels
    // are all created by now, so the watch lists are final.
    let mut observers: Vec<Vec<usize>> = Vec::new();
    let mut lat_observers: Vec<Vec<usize>> = Vec::new();
    for (i, rp) in rps.iter_mut().enumerate() {
        let input = if i < graph.sps.len() {
            &graph.sps[i].pipeline.input
        } else {
            &graph.client.input
        };
        let (targets, lists) = match input {
            InputKind::Metrics { targets } => (targets, &mut observers),
            InputKind::Latency { targets } => (targets, &mut lat_observers),
            _ => continue,
        };
        if lists.is_empty() {
            *lists = vec![Vec::new(); channels.len()];
        }
        let mut watched = 0;
        for (ci, ch) in channels.iter().enumerate() {
            if targets.contains(&ch.src_sp) {
                lists[ci].push(i);
                watched += 1;
            }
        }
        rp.eos_remaining = watched;
    }
    // Install latency tracking where it is consumed: on every channel a
    // `latency(p)` RP watches, and on all channels of a profiled run.
    // Untracked channels keep `None` and pay nothing per element.
    for (ci, ch) in channels.iter_mut().enumerate() {
        let watched = lat_observers.get(ci).is_some_and(|l| !l.is_empty());
        if watched || options.profile {
            ch.lat = Some(LatTrack::new());
        }
    }

    let world = World {
        env,
        rps,
        channels,
        results: Vec::new(),
        first_result_at: None,
        finished_at: None,
        error: None,
        scratch: Vec::new(),
        observers,
        lat_observers,
        profile: options.profile,
        spans: Vec::new(),
        spans_dropped: 0,
        columnar: options.columnar,
        columnar_batches: 0,
        columnar_transposes: 0,
        val_scratch: Vec::new(),
        ready_scratch: Vec::new(),
    };
    // Pending-event population is bounded by the graph shape (each RP
    // has at most one self-scheduled tick; each channel a handful of
    // in-flight cycle/deliver/eos events), so reserve once up front.
    let capacity = world.rps.len() + world.channels.len() * 4;
    let mut sim =
        TypedSimulator::with_capacity(world, capacity).with_event_limit(options.event_limit);

    // Start every RP per its coordinator's discipline: BlueGene RPs wake
    // at the bgCC's next poll tick (§2.2), Linux RPs immediately.
    for idx in 0..sim.world().rps.len() {
        let cluster = sim.world().rps[idx].node.cluster;
        let start = Coordinator::for_cluster(cluster).rp_start_time(SimTime::ZERO);
        sim.schedule_at(start, Ev::StartRp(idx));
    }

    let (end, coalesce, coalesce_wall) = if options.coalesce {
        crate::train::run_coalesced(&mut sim)
    } else {
        (
            sim.run_to_completion(),
            Default::default(),
            Default::default(),
        )
    };
    let events = sim.events_executed();
    let events_pending_hwm = sim.events_pending_high_water() as u64;
    let exceeded = sim.limit_exceeded();
    let mut world = sim.into_world();
    if let Some(err) = world.error {
        return Err(err);
    }
    if exceeded {
        return Err(EngineError::Runtime(format!(
            "query exceeded the event budget of {} (RunOptions::event_limit)",
            options.event_limit
        )));
    }
    let finished = world.finished_at.unwrap_or(end);
    let reports: Vec<ChannelReport> = world
        .channels
        .iter()
        .map(|c| {
            let cfg = c.chan.config();
            let stats = c.chan.stats();
            ChannelReport {
                src: cfg.src,
                dst: cfg.dst,
                carrier: match cfg.carrier {
                    Carrier::Mpi { .. } => "mpi".to_string(),
                    Carrier::Tcp => "tcp".to_string(),
                    Carrier::Udp => "udp".to_string(),
                },
                bytes: stats.bytes_delivered,
                bytes_enqueued: stats.bytes_enqueued,
                buffers_sent: stats.buffers_sent,
                buffers_dropped: stats.buffers_dropped,
                elements_lost: stats.elements_lost,
                queue_peak_trains: stats.queue_peak_trains,
                first_send: stats.first_send,
                last_delivery: stats.last_delivery,
                latency: c.lat.as_ref().map(|l| l.hist).unwrap_or_default(),
            }
        })
        .collect();
    let rp_reports = world
        .rps
        .iter()
        .map(|rp| crate::measure::RpReport {
            node: rp.node,
            elements_in: rp.elements_in,
            elements_out: rp.elements_out,
            node_cpu_busy: world.env.cpu_busy(rp.node),
            is_client: rp.is_client,
        })
        .collect();
    let profile = options.profile.then(|| {
        let rp_profiles = world
            .rps
            .iter()
            .enumerate()
            .map(|(i, rp)| {
                let pipeline = if i < graph.sps.len() {
                    &graph.sps[i].pipeline
                } else {
                    &graph.client
                };
                let stages = rp
                    .chain
                    .tally
                    .iter()
                    .zip(&pipeline.stages)
                    .map(|(t, s)| crate::profile::StageProfile {
                        stage: crate::explain::describe_stage(s),
                        calls: t.calls,
                        elems_in: t.elems_in,
                        elems_out: t.elems_out,
                    })
                    .collect();
                crate::profile::RpProfile {
                    rp: i,
                    node: rp.node,
                    is_client: rp.is_client,
                    input: crate::explain::describe_input(&pipeline.input),
                    elements_in: rp.elements_in,
                    elements_out: rp.elements_out,
                    sim_busy: world.env.cpu_busy(rp.node),
                    wall_ns: rp.wall_ns,
                    charge_ns: rp.charge_ns,
                    stages,
                }
            })
            .collect();
        Box::new(crate::profile::ProfileReport {
            rps: rp_profiles,
            run_wall_ns: run_t0.elapsed().as_nanos() as u64,
            events,
            coalesce,
            coalesce_digest_ns: coalesce_wall.digest_ns,
            coalesce_advance_ns: coalesce_wall.advance_ns,
            spans: std::mem::take(&mut world.spans),
            spans_dropped: world.spans_dropped,
        })
    });
    Ok(QueryResult::new(
        world.results,
        world.first_result_at,
        finished,
        QueryStats {
            channels: reports,
            rp_reports,
            events,
            events_pending_hwm,
            rps: world.rps.len(),
            coalesce,
            columnar_batches: world.columnar_batches,
            columnar_transposes: world.columnar_transposes,
            jitter_draws: world.env.jitter_draws(),
            profile,
        },
    ))
}

/// Makes an `Environment` generate / compute charge for RP `idx`; a
/// profiled run books its wall time to the RP's `charge_ns`. For the
/// per-element and per-batch charges only: `produce`'s one `generate`
/// per array stays off the clock (and out of the per-event handlers).
#[inline]
fn charge<T>(world: &mut World, idx: usize, f: impl FnOnce(&mut Environment) -> T) -> T {
    let t0 = world.profile.then(std::time::Instant::now);
    let out = f(&mut world.env);
    if let Some(t0) = t0 {
        world.rps[idx].charge_ns += t0.elapsed().as_nanos() as u64;
    }
    out
}

fn start_rp(world: &mut World, sim: &mut Sim, idx: usize) {
    if world.error.is_some() {
        return;
    }
    if world.rps[idx].gen.is_some() {
        produce(world, sim, idx);
    } else if !world.rps[idx].source.is_empty() {
        drain_source(world, sim, idx);
    } else if world.rps[idx].eos_remaining == 0 {
        // A source with no elements at all (e.g. grep with no matches, or
        // a pure Const that is empty): finish immediately.
        finish_rp(world, sim, idx);
    }
}

/// One gen_array production step: generate the next array, feed it
/// through the local SQEP, schedule the next step when the CPU is done.
fn produce(world: &mut World, sim: &mut Sim, idx: usize) {
    if world.error.is_some() {
        return;
    }
    let node = world.rps[idx].node;
    let (bytes, exhausted) = {
        let gen = world.rps[idx].gen.as_mut().expect("produce on non-gen rp");
        if gen.remaining == 0 {
            (0, true)
        } else {
            gen.remaining -= 1;
            (gen.bytes, false)
        }
    };
    if exhausted {
        finish_rp(world, sim, idx);
        return;
    }
    let value = Value::synthetic_array(bytes);
    let now = sim.now();
    let done = world.env.generate(node, bytes, now);
    process_and_emit(world, sim, idx, value, None, done);
    sim.schedule_at(done, Ev::Produce(idx));
}

/// Emits all items of a non-gen source (receiver / grep / const), pacing
/// each on the node CPU, then finishes.
///
/// A prepared constant source goes out as one run per output channel.
/// That is the element loop below, regrouped: with a pass-through,
/// cost-free chain the loop does nothing per element but draw a
/// generation jitter factor, serve the generation and enqueue the
/// element at its finish time — no cycle event can fire inside this
/// handler, so drawing g₁…gₙ first (`Environment::generate_each`) and
/// enqueueing afterwards (`send_run`) leaves every server, the jitter
/// stream and the event queue exactly where the loop leaves them.
fn drain_source(world: &mut World, sim: &mut Sim, idx: usize) {
    if world.error.is_some() {
        return;
    }
    let node = world.rps[idx].node;
    let now = sim.now();
    let items = std::mem::take(&mut world.rps[idx].source);
    if let Some(src) = world.rps[idx].prepared.take() {
        let n = items.len() as u64;
        let mut readies = Vec::new();
        charge(world, idx, |env| {
            env.generate_each(node, src.row_bytes, n, now, &mut readies)
        });
        let done = *readies.last().expect("a prepared source has rows");
        let rp = &mut world.rps[idx];
        rp.elements_in += n;
        rp.elements_out += n;
        rp.chain.tally_passthrough(n);
        send_run(world, sim, idx, &src.cols, readies, src.row_bytes, now);
        sim.schedule_at(done, Ev::FinishRp(idx));
        return;
    }
    let mut t = now;
    for item in items.iter() {
        t = charge(world, idx, |env| {
            env.generate(node, item.marshaled_size(), t)
        });
        process_and_emit(world, sim, idx, item.clone(), None, t);
        if world.error.is_some() {
            return;
        }
    }
    sim.schedule_at(t, Ev::FinishRp(idx));
}

/// Runs one element through an RP's stage chain and forwards the outputs
/// to its subscribers (or records them, for the client).
fn process_and_emit(
    world: &mut World,
    sim: &mut Sim,
    idx: usize,
    value: Value,
    from: Option<SpHandle>,
    at: SimTime,
) {
    let elem_bytes = value.marshaled_size();
    world.rps[idx].elements_in += 1;
    // Charge compute time for expensive stages (§5: "it is also
    // important to analyze the performance of continuous queries
    // involving expensive functions"). The compiled cost model tracks
    // how each stage transforms the element size (decimation halves it,
    // so a radix2-style plan's FFTs run on half-size arrays) and walks
    // its cost ops afresh for every element. The charge applies to every
    // element — including ones an aggregate absorbs.
    let cost = world.rps[idx].cost.cost(elem_bytes);
    let node = world.rps[idx].node;
    let ready = charge(world, idx, |env| env.compute(node, cost, at));
    // Process into the world's reusable scratch buffer: no per-element
    // `Vec` on the hot path.
    let mut out = std::mem::take(&mut world.scratch);
    out.clear();
    let t0 = world.profile.then(std::time::Instant::now);
    let res = world.rps[idx].chain.process_into(value, from, &mut out);
    if let Some(t0) = t0 {
        world.rps[idx].wall_ns += t0.elapsed().as_nanos() as u64;
    }
    if let Err(e) = res {
        world.error = Some(e);
        world.scratch = out;
        return;
    }
    if !out.is_empty() {
        emit(world, sim, idx, &mut out, ready);
    }
    world.scratch = out;
}

/// Forwards processed elements to an RP's subscribers (or records them,
/// for the client), draining `out` and leaving its capacity for reuse.
fn emit(world: &mut World, sim: &mut Sim, idx: usize, out: &mut Vec<Value>, at: SimTime) {
    world.rps[idx].elements_out += out.len() as u64;
    if world.rps[idx].is_client {
        if !out.is_empty() && world.first_result_at.is_none() {
            world.first_result_at = Some(sim.now());
        }
        world.results.append(out);
        return;
    }
    let n_out = world.rps[idx].outputs.len();
    // Fan each value out by index, moving it into the last channel
    // instead of cloning once per subscriber.
    for v in out.drain(..) {
        let mut v = Some(v);
        for oi in 0..n_out {
            let ci = world.rps[idx].outputs[oi];
            let item = if oi + 1 == n_out {
                v.take().expect("value present for the last channel")
            } else {
                v.as_ref()
                    .expect("value present until the last channel")
                    .clone()
            };
            let size = item.marshaled_size();
            enqueue_elem(world, sim, ci, Elem::Val(item), size, at);
        }
    }
}

/// Enqueues one element on a channel, scheduling a buffer cycle only
/// when the enqueue completes another full buffer's worth of pending
/// bytes. Under the schedule-per-enqueue baseline, the cycles that
/// actually transmit are exactly the ones running at these crossing
/// times: a cycle event transmits at most one buffer, needs a full
/// buffer pending to do it, and the self-sustaining `next_cycle` chain
/// never fires before the crossing (it schedules at
/// `ready.max(constraint)`). Cycles between crossings only shuffle
/// bytes from the queue into the filling buffer — work the next
/// transmitting cycle does anyway, with identical results, because
/// transmit times derive from the data's own ready times, never from
/// when the cycle runs. Scheduling one cycle per crossing (not just on
/// the 0→1 edge) therefore reproduces the baseline's transmit call
/// times and order exactly — which matters because `env.marshal` runs a
/// stateful per-node server whose serve() call order is part of the
/// simulated schedule — while keeping the event count O(transmits)
/// instead of O(enqueues). The end-of-stream flush is driven by
/// `finish_rp` and the cycle's own `next_cycle` chain.
fn enqueue_elem(world: &mut World, sim: &mut Sim, ci: usize, item: Elem, size: u64, at: SimTime) {
    if let Some(lat) = &mut world.channels[ci].lat {
        lat.ingress.push_back(at);
    }
    let chan = &mut world.channels[ci].chan;
    let before = chan.pending_buffers(&world.env);
    let when = chan.enqueue(item, size, at);
    if chan.pending_buffers(&world.env) > before {
        sim.schedule_at(when.max(sim.now()), Ev::Cycle(ci));
    }
}

/// End of an RP's own stream: flush aggregates, close output channels.
fn finish_rp(world: &mut World, sim: &mut Sim, idx: usize) {
    if world.error.is_some() || world.rps[idx].finished {
        return;
    }
    world.rps[idx].finished = true;
    let t0 = world.profile.then(std::time::Instant::now);
    let finals = world.rps[idx].chain.finish();
    if let Some(t0) = t0 {
        world.rps[idx].wall_ns += t0.elapsed().as_nanos() as u64;
    }
    let mut finals = match finals {
        Ok(f) => f,
        Err(e) => {
            world.error = Some(e);
            return;
        }
    };
    let now = sim.now();
    if !finals.is_empty() || world.rps[idx].is_client {
        emit(world, sim, idx, &mut finals, now);
    }
    if world.rps[idx].is_client {
        world.finished_at = Some(now);
        return;
    }
    for oi in 0..world.rps[idx].outputs.len() {
        let ci = world.rps[idx].outputs[oi];
        let when = world.channels[ci].chan.finish(now);
        sim.schedule_at(when.max(now), Ev::Cycle(ci));
    }
}

/// One stream-channel buffer cycle.
///
/// Kept out of line (as is `deliver`): inlined, every handler and the
/// whole of `StreamChannel::cycle` land in one several-thousand-line
/// `Ev::fire`, whose register allocation shifts with edits to arms the
/// per-event path never runs. Out of line the Figure 6 sweep's
/// per-event path measured 2–3 % faster (91 vs 93–95 ns/event).
#[inline(never)]
fn cycle(world: &mut World, sim: &mut Sim, ci: usize) {
    if world.error.is_some() {
        return;
    }
    let out = {
        let ch = &mut world.channels[ci];
        let out = ch.chan.cycle(&mut world.env, sim.now());
        if let Some(lat) = &mut ch.lat {
            // Reconcile losses first: a dropped buffer's elements sit
            // behind the already-transmitted (in-flight) stamps, so
            // their removal point is `in_flight`. Then a transmitted
            // buffer moves its elements into flight; one cycle
            // transmits at most one buffer, so drop and deliver are
            // exclusive but the order below is safe either way.
            let lost_total = ch.chan.stats().elements_lost;
            for _ in lat.last_lost..lost_total {
                lat.ingress.remove(lat.in_flight);
            }
            lat.last_lost = lost_total;
            if out.delivered_at.is_some() {
                lat.in_flight += out.delivered.iter().map(Elem::rows).sum::<usize>();
            }
        }
        out
    };
    if let Some(t) = out.delivered_at {
        let now = sim.now();
        world.record_span(Span {
            name: "transmit",
            cat: "channel",
            tid: 2000 + ci as u64,
            ts_ns: now.as_nanos(),
            dur_ns: t.max(now).since(now).as_nanos(),
        });
        let batch = out.delivered;
        sim.schedule_at(t.max(sim.now()), Ev::Deliver { ci, batch });
    }
    if let Some(t) = out.next_cycle {
        sim.schedule_at(t.max(sim.now()), Ev::Cycle(ci));
    }
    if let Some(t) = out.eos_at {
        sim.schedule_at(t.max(sim.now()), Ev::Eos(ci));
    }
}

/// Elements of one buffer become visible at the subscriber.
///
/// The delivered run is partitioned in order: consecutive `Elem::Val`s
/// form scalar runs (gathered into a reusable buffer, then transposed
/// for the columnar fast path or walked as a run, `run_rows`); consecutive
/// `Elem::Col` slices that continue one another in one backing batch
/// reassemble the upstream columnar view **zero-copy** — no
/// re-marshaling, no per-row materialization — before the same
/// admit-or-fallback step. The channel cuts a run where buffers
/// cut it (the element straddling a buffer boundary travels apart from
/// the whole elements behind it), so reassembly restores exactly the
/// per-buffer batches the per-element path delivers. Processing order
/// is delivery order either way.
#[inline(never)]
fn deliver(world: &mut World, sim: &mut Sim, ci: usize, mut batch: Vec<Elem>) {
    if world.error.is_some() {
        return;
    }
    let dst = world.channels[ci].dst_rp;
    let from = world.channels[ci].src_sp;
    let now = sim.now();
    let span_busy0 = world
        .profile
        .then(|| world.env.cpu_busy(world.rps[dst].node));
    // Self-measurement (the paper's premise: stream queries over the
    // system itself): observers of this channel get one sample per
    // delivered buffer. The whole block is one `is_empty()` branch for
    // queries without observers.
    if !world.observers.is_empty() && !world.observers[ci].is_empty() {
        let bytes: u64 = batch.iter().map(Elem::marshaled_size).sum();
        let n = world.observers[ci].len();
        for k in 0..n {
            let o = world.observers[ci][k];
            let sample = crate::ops::metric_sample(ci, now.as_nanos(), bytes);
            process_and_emit(world, sim, o, sample, None, now);
            if world.error.is_some() {
                return;
            }
        }
    }
    // Latency egress: the delivered elements close the channel's oldest
    // in-flight ingress stamps, in FIFO order. One `is_some()` branch
    // for untracked channels.
    if world.channels[ci].lat.is_some() {
        let has_obs = !world.lat_observers.is_empty() && !world.lat_observers[ci].is_empty();
        let n: usize = batch.iter().map(Elem::rows).sum();
        let lat = world.channels[ci].lat.as_mut().expect("checked above");
        let mut samples: Vec<u64> = Vec::new();
        for _ in 0..n {
            let Some(t) = lat.ingress.pop_front() else {
                break;
            };
            lat.in_flight = lat.in_flight.saturating_sub(1);
            let d = now.since(t).as_nanos();
            lat.hist.record(d);
            if has_obs {
                samples.push(d);
            }
        }
        if has_obs {
            // One sample per delivered element to every `latency(p)`
            // observer of this channel, in delivery order.
            let m = world.lat_observers[ci].len();
            for k in 0..m {
                let o = world.lat_observers[ci][k];
                let mut run = samples.iter().map(|&s| Value::Integer(s as i64)).collect();
                run_rows(world, sim, o, None, &mut run, now);
                if world.error.is_some() {
                    return;
                }
            }
        }
    }
    let mut vals = std::mem::take(&mut world.val_scratch);
    // The pending column group (both deliver helpers do nothing once
    // the query has failed, so the loop needs no early exits).
    let mut cols: Option<ColumnarBatch> = None;
    for e in batch.drain(..) {
        match e {
            Elem::Val(v) => {
                if let Some(g) = cols.take() {
                    deliver_columns(world, sim, dst, from, &g, &mut vals, now);
                }
                vals.push(v);
            }
            Elem::Col(c) => {
                deliver_value_run(world, sim, dst, from, &mut vals, now);
                if !cols.as_mut().is_some_and(|g| g.try_extend(&c)) {
                    if let Some(g) = cols.replace(c) {
                        deliver_columns(world, sim, dst, from, &g, &mut vals, now);
                    }
                }
            }
        }
    }
    if let Some(g) = cols {
        deliver_columns(world, sim, dst, from, &g, &mut vals, now);
    }
    deliver_value_run(world, sim, dst, from, &mut vals, now);
    world.val_scratch = vals;
    if let Some(busy0) = span_busy0 {
        // The RP's processing of this buffer, as simulated CPU time it
        // accrued while handling the delivery.
        let busy1 = world.env.cpu_busy(world.rps[dst].node);
        world.record_span(Span {
            name: "deliver",
            cat: "sp",
            tid: 1000 + dst as u64,
            ts_ns: now.as_nanos(),
            dur_ns: busy1.saturating_sub(busy0).as_nanos(),
        });
    }
    // Hand the drained delivery vector's capacity back to the channel
    // for its next transmit.
    world.channels[ci].chan.recycle(batch);
}

/// Processes one run of scalar values delivered back-to-back, leaving
/// `run` empty: transpose and try the column tier when the
/// destination chain can use columns at all (`columnar: false` or a
/// non-qualifying chain skips the decomposition entirely), else hand
/// the run to `run_rows`.
fn deliver_value_run(
    world: &mut World,
    sim: &mut Sim,
    dst: usize,
    from: SpHandle,
    run: &mut Vec<Value>,
    now: SimTime,
) {
    if world.error.is_some() {
        run.clear();
        return;
    }
    if world.columnar && run.len() > 1 && world.rps[dst].chain.wants_columnar() {
        let cols = ColumnarBatch::from_values(run);
        world.columnar_transposes += 1;
        if run_columns(world, sim, dst, &cols, now) {
            run.clear();
            return;
        }
    }
    run_rows(world, sim, dst, Some(from), run, now);
}

/// Processes one reassembled column view: shared storage all the way
/// from the producer — the zero-copy hand-off. Falls back to
/// materializing its rows as `Value`s into `rows` (empty, and left
/// empty) when the chain declines columns.
fn deliver_columns(
    world: &mut World,
    sim: &mut Sim,
    dst: usize,
    from: SpHandle,
    view: &ColumnarBatch,
    rows: &mut Vec<Value>,
    now: SimTime,
) {
    if world.error.is_some() || run_columns(world, sim, dst, view, now) {
        return;
    }
    debug_assert!(rows.is_empty(), "a pending value run precedes the view");
    view.to_values_into(rows);
    run_rows(world, sim, dst, Some(from), rows, now);
}

/// The scalar tier's one entry for a run of rows that all arrive at
/// `now` (from producer `from`, if any), leaving `rows` empty: a
/// delivered run the column tier declined or never saw, or one
/// delivery's latency samples.
///
/// A cost-free chain (`StageChain::costly` false: its cost model
/// charges 0, and `Environment::compute` returns `at` without drawing)
/// finishes every row at `now`. The run then walks the chain once
/// ([`StageChain::process_run`]) and its outputs go out in one `emit`
/// at `now`: the same values, in the same order, at the same time, to
/// the same channels as one `process_and_emit` per row enqueues them. A
/// failing run emits the outputs of the rows before the failing one,
/// as the row loop does, then records the error. A costly chain keeps
/// the row loop: each output leaves at its own input's compute-finish
/// time.
fn run_rows(
    world: &mut World,
    sim: &mut Sim,
    dst: usize,
    from: Option<SpHandle>,
    rows: &mut Vec<Value>,
    now: SimTime,
) {
    let n = rows.len();
    if n == 0 || world.error.is_some() {
        rows.clear();
        return;
    }
    if world.rps[dst].chain.costly {
        for v in rows.drain(..) {
            process_and_emit(world, sim, dst, v, from, now);
            if world.error.is_some() {
                return;
            }
        }
        return;
    }
    world.rps[dst].elements_in += n as u64;
    let mut out = std::mem::take(&mut world.scratch);
    out.clear();
    let t0 = world.profile.then(std::time::Instant::now);
    let res = world.rps[dst].chain.process_run(rows, from, &mut out);
    if let Some(t0) = t0 {
        world.rps[dst].wall_ns += t0.elapsed().as_nanos() as u64;
    }
    if !out.is_empty() {
        emit(world, sim, dst, &mut out, now);
    }
    if let Err(e) = res {
        world.error = Some(e);
    }
    world.scratch = out;
}

/// The column tier's one entry: runs an admitted batch through the
/// destination chain with one kernel dispatch per stage
/// ([`StageChain::admit_cols`], [`StageChain::process_cols`]), charging
/// first, as the per-element path does. Admission guarantees one
/// marshaled size whenever the chain charges compute, so one `cost`
/// serves every element. A batch that **folds** emits nothing before end
/// of stream: one `Environment::compute_bulk` serves the total, with the
/// draws of `n` scalar `compute`s. A batch that **emits** needs each
/// element's finish time: `Environment::compute_each` is draw-for-draw
/// `n` scalar `compute`s at one `ready`, and since the compute server and
/// the channels are disjoint state (`pending_buffers` reads only
/// configuration-derived bounds), charging every element first and then
/// enqueueing the survivors — each at its own input's finish time, in
/// element then channel order — reproduces the interleaved schedule
/// exactly. Returns `false`, touching nothing, on a declined batch, and
/// on an emitting batch bound for the client: its result sink records
/// owned values.
fn run_columns(
    world: &mut World,
    sim: &mut Sim,
    dst: usize,
    cols: &ColumnarBatch,
    now: SimTime,
) -> bool {
    let rp = &world.rps[dst];
    let Some(admit) = rp.chain.admit_cols(cols) else {
        return false;
    };
    let folds = admit.ending == ColumnEnding::Fold;
    if !folds && rp.is_client {
        return false;
    }
    let n = admit.rows as u64;
    let cost = rp.cost.cost(admit.elem_bytes);
    let node = rp.node;
    let span_busy0 = world.profile.then(|| world.env.cpu_busy(node));
    let mut readies = std::mem::take(&mut world.ready_scratch);
    charge(world, dst, |env| {
        if folds {
            env.compute_bulk(node, cost, n, now);
        } else {
            env.compute_each(node, cost, n, now, &mut readies);
        }
    });
    world.rps[dst].elements_in += n;
    world.columnar_batches += 1;
    let t0 = world.profile.then(std::time::Instant::now);
    let processed = world.rps[dst].chain.process_cols(admit);
    if let Some(t0) = t0 {
        world.rps[dst].wall_ns += t0.elapsed().as_nanos() as u64;
    }
    match processed {
        Ok(None) => {}
        Ok(Some((out, sel))) => emit_columns(world, sim, dst, &out, sel, &readies, now),
        Err(e) => world.error = Some(e),
    }
    world.ready_scratch = readies;
    if let Some(busy0) = span_busy0 {
        let busy1 = world.env.cpu_busy(node);
        world.record_span(Span {
            name: if folds { "fold" } else { "emit" },
            cat: "columnar",
            tid: 3000 + dst as u64,
            ts_ns: now.as_nanos(),
            dur_ns: busy1.saturating_sub(busy0).as_nanos(),
        });
    }
    true
}

/// Forwards an emitting batch's surviving rows, input row `sel[j]` (or
/// `j`, for a prefix) ready at `readies[..]`: as one run per output
/// channel when the rows share a marshaled size, else row by row — each
/// at its source element's compute-finish time, exactly like the scalar
/// emit.
fn emit_columns(
    world: &mut World,
    sim: &mut Sim,
    dst: usize,
    out: &ColumnarBatch,
    sel: Option<SelectionVector>,
    readies: &[SimTime],
    now: SimTime,
) {
    let m = out.rows();
    world.rps[dst].elements_out += m as u64;
    let n_out = world.rps[dst].outputs.len();
    if m == 0 || n_out == 0 {
        return;
    }
    let src_row = |j: usize| sel.as_ref().map_or(j, |s| s.rows()[j] as usize);
    if let Some(size) = out.uniform_row_size() {
        // Survivor ready times in output-row order: nondecreasing,
        // because selections ascend and the compute server finishes in
        // FIFO order.
        let survivors = (0..m).map(|j| readies[src_row(j)]).collect();
        send_run(world, sim, dst, out, survivors, size, now);
        return;
    }
    for j in 0..m {
        let at = readies[src_row(j)];
        let size = out.row_marshaled_size(j);
        for oi in 0..n_out {
            let ci = world.rps[dst].outputs[oi];
            enqueue_elem(world, sim, ci, Elem::Col(out.slice(j, j + 1)), size, at);
        }
    }
}

/// Sends `view` — same-sized rows, row `j` ready at `readies[j]` — to
/// every output channel of `rp` as one send-queue run each, instead of
/// one enqueue per row per channel.
///
/// Byte-identity with the per-element loop: the run carries each row's
/// own ready time and the shared marshaled size, so buffer boundaries,
/// delivery grouping, and corruption all fall where they would for
/// individually enqueued rows. The only other effect of the
/// per-element loop is its buffer-crossing `Ev::Cycle` schedules, which
/// this reproduces arithmetically: with every element `size` bytes, the
/// element whose enqueue first crosses the `k`-th boundary past `base`
/// pending bytes is `r = ceil((k*B - base%B) / size) - 1`, and the
/// per-element path schedules that crossing at `readies[r].max(now)`.
/// An element wider than a whole buffer crosses several boundaries with
/// one enqueue but still schedules one cycle, hence the consecutive-`r`
/// dedup. Emitting the schedules sorted by (element, channel)
/// reproduces the interleaved loop's insertion order, which matters for
/// equal-timestamp events feeding the shared per-node marshal server.
fn send_run(
    world: &mut World,
    sim: &mut Sim,
    rp: usize,
    view: &ColumnarBatch,
    mut readies: Vec<SimTime>,
    size: u64,
    now: SimTime,
) {
    let n_out = world.rps[rp].outputs.len();
    // (element, channel, when): the time is the element's, so sorting
    // orders by (element, channel).
    let mut crossings: Vec<(usize, usize, SimTime)> = Vec::new();
    for oi in 0..n_out {
        let ch = &mut world.channels[world.rps[rp].outputs[oi]];
        let bsize = ch.chan.buffer_bytes(&world.env);
        let base = ch.chan.pending_bytes();
        let before = base / bsize;
        let after = (base + size * readies.len() as u64) / bsize;
        let mut last_r = usize::MAX;
        for k in 1..=(after - before) {
            let target = (before + k) * bsize;
            let r = ((target - base).div_ceil(size) - 1) as usize;
            if r != last_r {
                crossings.push((r, oi, readies[r].max(now)));
                last_r = r;
            }
        }
        if let Some(lat) = &mut ch.lat {
            // Ingress stamps: each row enters the channel at its own
            // ready time, same as the per-element loop.
            lat.ingress.extend(readies.iter().copied());
        }
        let readies = if oi + 1 == n_out {
            std::mem::take(&mut readies)
        } else {
            readies.clone()
        };
        ch.chan.enqueue_run(Elem::Col(view.clone()), size, readies);
    }
    crossings.sort_unstable();
    for (_, oi, at) in crossings {
        sim.schedule_at(at, Ev::Cycle(world.rps[rp].outputs[oi]));
    }
}

/// End-of-stream control message arrives at the subscriber (§2.2).
fn eos(world: &mut World, sim: &mut Sim, ci: usize) {
    if world.error.is_some() {
        return;
    }
    let dst = world.channels[ci].dst_rp;
    let rp = &mut world.rps[dst];
    assert!(rp.eos_remaining > 0, "duplicate EOS on channel {ci}");
    rp.eos_remaining -= 1;
    if rp.eos_remaining == 0 {
        finish_rp(world, sim, dst);
    }
    // Observers of this channel saw its last sample: their metric
    // stream shrinks by one live input.
    if !world.observers.is_empty() {
        let n = world.observers[ci].len();
        for k in 0..n {
            let o = world.observers[ci][k];
            let orp = &mut world.rps[o];
            assert!(orp.eos_remaining > 0, "duplicate observer EOS on {ci}");
            orp.eos_remaining -= 1;
            if orp.eos_remaining == 0 {
                finish_rp(world, sim, o);
            }
        }
    }
    // Same for latency observers: this channel delivers no further
    // elements, so no further latency samples.
    if !world.lat_observers.is_empty() {
        let n = world.lat_observers[ci].len();
        for k in 0..n {
            let o = world.lat_observers[ci][k];
            let orp = &mut world.rps[o];
            assert!(
                orp.eos_remaining > 0,
                "duplicate latency-observer EOS on {ci}"
            );
            orp.eos_remaining -= 1;
            if orp.eos_remaining == 0 {
                finish_rp(world, sim, o);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use crate::placement::PlacementPolicy;
    use scsq_ql::{parse_statement, Catalog};

    fn run(src: &str) -> Result<QueryResult, EngineError> {
        run_opts(src, &RunOptions::default())
    }

    fn run_opts(src: &str, options: &RunOptions) -> Result<QueryResult, EngineError> {
        let mut env = Environment::lofar();
        let catalog = Catalog::new();
        let stmt = parse_statement(src).expect("parses");
        let graph = QueryBuilder::new(&mut env, &catalog, PlacementPolicy::Naive, options)
            .build(&stmt, &[])?;
        run_graph(env, &graph, options)
    }

    #[test]
    fn profiled_runs_keep_their_first_spans_and_count_the_rest() {
        // 40 000 arrays of 1 kB, per event: a transmit and a deliver
        // span for each buffer that completes an array.
        let q = "select extract(b) from sp a, sp b
                 where b=sp(streamof(count(extract(a))), 'bg', 0)
                 and a=sp(gen_array(1000,40000),'bg',1);";
        let options = RunOptions {
            coalesce: false,
            profile: true,
            ..RunOptions::default()
        };
        let profiled = run_opts(q, &options).unwrap();
        let profile = profiled.stats().profile.as_ref().expect("profiled");
        assert_eq!(profile.spans.len(), SPAN_CAPACITY);
        assert!(profile.spans_dropped > 0);
        assert_eq!(profile.spans[0].name, "transmit", "the first span is kept");
        let plain = run_opts(
            q,
            &RunOptions {
                profile: false,
                ..options
            },
        )
        .unwrap();
        assert!(plain.stats().profile.is_none());
        assert_eq!(plain.values(), profiled.values());
    }

    #[test]
    fn p2p_count_reaches_the_client() {
        // Miniature of the paper's §3.1 point-to-point query: 10 arrays
        // of 100 KB.
        let r = run("select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(100000,10),'bg',1);")
        .unwrap();
        assert_eq!(r.values(), &[Value::Integer(10)]);
        assert!(r.finished() > SimTime::ZERO);
        // One MPI channel (a→b) and one TCP channel (b→client).
        let mpi: Vec<_> = r
            .stats()
            .channels
            .iter()
            .filter(|c| c.carrier == "mpi")
            .collect();
        assert_eq!(mpi.len(), 1);
        assert_eq!(mpi[0].bytes, 10 * 100_009);
    }

    #[test]
    fn merge_counts_both_streams() {
        let r = run("select extract(c) from sp a, sp b, sp c
             where c=sp(count(merge({a,b})), 'bg',0)
             and a=sp(gen_array(50000,8),'bg',1)
             and b=sp(gen_array(50000,8),'bg',4);")
        .unwrap();
        assert_eq!(r.values(), &[Value::Integer(16)]);
        // Each 50 KB synthetic array marshals to 1 (tag) + 9 (header)
        // + 50_000 payload bytes.
        assert_eq!(r.bytes_into(NodeId::bg(0)), 16 * 50_009);
    }

    #[test]
    fn inbound_query1_shape_counts_all_arrays() {
        let r = run("select extract(c) from
             bag of sp a, sp b, sp c, integer n
             where c=sp(extract(b), 'bg')
             and b=sp(count(merge(a)), 'bg')
             and a=spv((select gen_array(100000,5)
                        from integer i where i in iota(1,n)), 'be', 1)
             and n=3;")
        .unwrap();
        assert_eq!(r.values(), &[Value::Integer(15)]);
        // All inbound traffic crossed be → bg.
        assert_eq!(
            r.bytes_between(ClusterName::BackEnd, ClusterName::BlueGene),
            15 * 100_009
        );
    }

    #[test]
    fn sum_of_counts_matches_total() {
        // Query 3 shape in miniature.
        let r = run("select extract(c) from
             bag of sp a, bag of sp b, sp c, integer n
             where c=sp(streamof(sum(merge(b))), 'bg')
             and b=spv((select streamof(count(extract(p)))
                        from sp p where p in a), 'bg', inPset(1))
             and a=spv((select gen_array(100000,4)
                        from integer i where i in iota(1,n)), 'be', 1)
             and n=3;")
        .unwrap();
        assert_eq!(r.values(), &[Value::Integer(12)]);
    }

    #[test]
    fn grep_mapreduce_delivers_matching_lines() {
        let r = run("merge(spv(
                select grep(\"pulsar\", filename(i))
                from integer i
                where i in iota(1,4)));")
        .unwrap();
        let expected: usize = (1..=4)
            .map(|i| funcs::grep("pulsar", &funcs::filename(i)).len())
            .sum();
        assert_eq!(r.values().len(), expected);
        assert!(expected > 0);
        for v in r.values() {
            assert!(v.as_str().unwrap().contains("pulsar"));
        }
    }

    #[test]
    fn empty_grep_still_terminates() {
        let r = run("merge(spv(
                select grep(\"zebra\", filename(i))
                from integer i where i in iota(1,2)));")
        .unwrap();
        assert!(r.values().is_empty());
        assert!(r.finished() >= SimTime::ZERO);
    }

    #[test]
    fn double_buffering_speeds_up_large_buffer_mpi() {
        let q = "select extract(b) from sp a, sp b
                 where b=sp(streamof(count(extract(a))), 'bg', 0)
                 and a=sp(gen_array(1000000,10),'bg',1);";
        let single = run_opts(
            q,
            &RunOptions {
                mpi_buffer: 100_000,
                mpi_double: false,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let double = run_opts(
            q,
            &RunOptions {
                mpi_buffer: 100_000,
                mpi_double: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(single.values(), double.values());
        assert!(double.finished() < single.finished());
    }

    #[test]
    fn windowed_aggregate_runs_end_to_end() {
        let r = run("select extract(b) from sp a, sp b
             where b=sp(winagg(extract(a), 2, 2, 'count'), 'bg', 0)
             and a=sp(gen_array(10000,6),'bg',1);")
        .unwrap();
        assert_eq!(
            r.values(),
            &[Value::Integer(2), Value::Integer(2), Value::Integer(2)]
        );
    }

    #[test]
    fn event_budget_exhaustion_is_an_error_not_a_panic() {
        let err = run_opts(
            "select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(1000000,100),'bg',1);",
            &RunOptions {
                event_limit: 50,
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("event budget"), "{err}");
    }

    #[test]
    fn first_result_precedes_completion_for_streams() {
        // A relay query streams many values; the first reaches the
        // client well before the stream completes.
        let r = run("select extract(b) from sp a, sp b
             where b=sp(extract(a), 'bg', 0)
             and a=sp(gen_array(50000,20),'bg',1);")
        .unwrap();
        assert_eq!(r.values().len(), 20);
        let first = r.first_result().expect("values arrived");
        assert!(first < r.finished(), "{first} !< {}", r.finished());
    }

    #[test]
    fn max_min_avg_aggregates_run_end_to_end() {
        let q = |agg: &str| {
            format!(
                "select extract(b) from sp src, sp b
                 where b=sp(streamof({agg}(extract(src))), 'bg')
                 and src=sp(streamof(iota(3,9)), 'be');"
            )
        };
        assert_eq!(run(&q("max")).unwrap().values(), &[Value::Integer(9)]);
        assert_eq!(run(&q("min")).unwrap().values(), &[Value::Integer(3)]);
        assert_eq!(run(&q("avg")).unwrap().values(), &[Value::Real(6.0)]);
        assert_eq!(run(&q("sum")).unwrap().values(), &[Value::Integer(42)]);
        assert_eq!(run(&q("count")).unwrap().values(), &[Value::Integer(7)]);
    }

    #[test]
    fn rp_reports_include_cpu_time() {
        let r = run("select extract(b) from sp a, sp b
             where b=sp(streamof(count(fft(extract(a)))), 'bg', 0)
             and a=sp(gen_array(100000,5),'bg',1);")
        .unwrap();
        let b_report = &r.stats().rp_reports[1];
        assert!(
            b_report.node_cpu_busy > scsq_sim::SimDur::ZERO,
            "the fft-running node must show CPU time"
        );
    }

    #[test]
    fn udp_drops_elements_under_overload() {
        // Four saturating generators into one compute node: TCP's flow
        // control delivers everything; UDP overruns the I/O node and
        // loses elements — why SCSQ carries streams over TCP between
        // clusters.
        // Elements sized to one datagram each, so partial delivery is
        // observable.
        let q = "select extract(b) from bag of sp a, sp b, integer n
                 where b=sp(count(merge(a)), 'bg')
                 and a=spv((select gen_array(8000,500)
                            from integer i where i in iota(1,n)), 'be', urr('be'))
                 and n=4;";
        let tcp = run(q).unwrap();
        assert_eq!(tcp.values(), &[Value::Integer(2000)]);

        let udp = run_opts(
            q,
            &RunOptions {
                udp_inter_cluster: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let delivered = udp.values()[0].as_integer().expect("count");
        assert!(
            delivered < 2000,
            "overload must lose datagrams: delivered {delivered}/2000"
        );
        assert!(delivered > 0, "some elements must still arrive");
        let udp_bytes: u64 = udp
            .stats()
            .channels
            .iter()
            .filter(|c| c.carrier == "udp")
            .map(|c| c.bytes)
            .sum();
        assert!(
            udp_bytes < 2000 * 8_009,
            "delivered bytes reflect the loss: {udp_bytes}"
        );
    }

    #[test]
    fn udp_without_overload_delivers_everything() {
        // One modest stream: the I/O backlog never exceeds the drop
        // threshold, so UDP behaves like TCP.
        let q = "select extract(b) from sp a, sp b
                 where b=sp(count(extract(a)), 'bg')
                 and a=sp(gen_array(100000,10), 'be', 1);";
        let udp = run_opts(
            q,
            &RunOptions {
                udp_inter_cluster: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(udp.values(), &[Value::Integer(10)]);
    }

    #[test]
    fn take_truncates_a_stream() {
        // A stop condition in the query makes the stream finite (§2.2).
        let r = run("select extract(b) from sp a, sp b
             where b=sp(count(take(extract(a), 3)), 'bg', 0)
             and a=sp(gen_array(10000,9),'bg',1);")
        .unwrap();
        assert_eq!(r.values(), &[Value::Integer(3)]);
    }

    #[test]
    fn nodes_feeds_allocation_sequences() {
        // nodes('bg') evaluates against the CNDB; using it as an
        // allocation sequence is equivalent to AllocSeq::Any.
        let r = run("select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', nodes('bg'))
             and a=sp(gen_array(10000,2),'bg',1);")
        .unwrap();
        assert_eq!(r.values(), &[Value::Integer(2)]);
        // b landed on node 0 — the first available in the CNDB order.
        assert!(r.bytes_into(NodeId::bg(0)) > 0);
    }

    #[test]
    fn rp_monitors_count_elements() {
        let r = run("select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(10000,7),'bg',1);")
        .unwrap();
        let reports = &r.stats().rp_reports;
        assert_eq!(reports.len(), 3, "a, b, client");
        // a: generated 7, emitted 7.
        assert_eq!(reports[0].elements_in, 7);
        assert_eq!(reports[0].elements_out, 7);
        assert!(!reports[0].is_client);
        // b: received 7, emitted the single count.
        assert_eq!(reports[1].elements_in, 7);
        assert_eq!(reports[1].elements_out, 1);
        // client: received the count.
        assert!(reports[2].is_client);
        assert_eq!(reports[2].elements_in, 1);
    }

    #[test]
    fn bg_rps_start_at_the_poll_tick() {
        let r = run("select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(1000,1),'bg',1);")
        .unwrap();
        // The generator cannot start before the bgCC's first poll (1 ms).
        assert!(r.finished() >= SimTime::from_millis(1));
    }

    #[test]
    fn metrics_bandwidth_matches_the_channel_report() {
        // Self-measurement: an observer SP computes the a→b bandwidth
        // from metric samples; it must equal delivered bytes / last
        // delivery straight from the channel's own statistics.
        let r = run("select extract(m) from sp a, sp b, sp m
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(100000,10),'bg',1)
             and m=sp(streamof(bandwidth(metrics(a))), 'bg', 2);")
        .unwrap();
        assert_eq!(r.values().len(), 1);
        let measured = match r.values()[0] {
            Value::Real(x) => x,
            ref v => panic!("expected a real bandwidth, got {v:?}"),
        };
        let mpi = r
            .stats()
            .channels
            .iter()
            .find(|c| c.carrier == "mpi")
            .expect("a→b channel");
        let external = mpi.bytes as f64 / mpi.last_delivery.since(SimTime::ZERO).as_secs_f64();
        let rel = (measured - external).abs() / external;
        assert!(rel < 1e-9, "measured {measured} vs external {external}");
    }

    #[test]
    fn metrics_counts_one_sample_per_delivering_buffer() {
        // 100 KB arrays over 1000-byte buffers: exactly one buffer per
        // array completes an element, so the observer sees 10 samples.
        let r = run("select extract(m) from sp a, sp b, sp m
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(100000,10),'bg',1)
             and m=sp(streamof(count(metrics(a))), 'bg', 2);")
        .unwrap();
        assert_eq!(r.values(), &[Value::Integer(10)]);
    }

    #[test]
    fn metrics_over_an_unobserved_sp_terminates_empty() {
        // `a` has no subscribers, so no channel matches the observer's
        // target: the metric stream is empty and ends immediately.
        let r = run("select extract(m) from sp a, sp m
             where a=sp(gen_array(1000,1),'bg',1)
             and m=sp(streamof(bandwidth(metrics(a))), 'bg', 2);")
        .unwrap();
        assert!(r.values().is_empty());
        assert!(r.finished() >= SimTime::ZERO);
    }

    #[test]
    fn observers_do_not_change_the_observed_channel() {
        // Adding a metrics SP must not perturb the a→b transfer itself:
        // same delivered bytes, same last-delivery time.
        let plain = run("select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(100000,10),'bg',1);")
        .unwrap();
        let observed = run("select extract(m) from sp a, sp b, sp m
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(100000,10),'bg',1)
             and m=sp(streamof(bandwidth(metrics(a))), 'bg', 2);")
        .unwrap();
        let mpi = |r: &QueryResult| {
            let c = r
                .stats()
                .channels
                .iter()
                .find(|c| c.carrier == "mpi" && c.dst == NodeId::bg(0))
                .expect("a→b channel")
                .clone();
            (c.bytes, c.last_delivery)
        };
        assert_eq!(mpi(&plain), mpi(&observed));
    }

    #[test]
    fn stats_expose_kernel_and_channel_high_water_marks() {
        let r = run("select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(100000,10),'bg',1);")
        .unwrap();
        assert!(r.stats().events_pending_hwm > 0);
        assert!(r.stats().events_pending_hwm <= r.stats().events);
        let mpi = r
            .stats()
            .channels
            .iter()
            .find(|c| c.carrier == "mpi")
            .expect("a→b channel");
        assert!(mpi.queue_peak_trains >= 1);
        assert!(mpi.buffers_sent > 0);
        assert_eq!(mpi.bytes_enqueued, mpi.bytes, "MPI loses nothing");
        assert_eq!(mpi.buffers_dropped, 0);
    }

    #[test]
    fn columnar_off_skips_decomposition_entirely() {
        // `columnar_transposes` counts *run-time* `Value`→column
        // transposes. A prepared constant source reaches the absorber
        // as the plan's own columns, so batches are absorbed and
        // nothing is transposed; a source that cannot be prepared (its
        // chain computes) emits values, which the receiver transposes
        // per delivered run. `columnar: false` must not even
        // speculatively transpose, and must not touch the prepared
        // column either: the source walks its values one by one.
        let prepared = "select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(streamof(iota(1,100)),'bg',1);";
        let computed = "select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(arith(iota(1,100), '+', 1),'bg',1);";
        let off_options = RunOptions {
            columnar: false,
            ..RunOptions::default()
        };
        let a_to_b_peak = |r: &QueryResult| {
            let mpi = r.stats().channels.iter().find(|c| c.carrier == "mpi");
            mpi.expect("a→b channel").queue_peak_trains
        };
        for (q, transposes_on, peak_on) in [(prepared, false, 1), (computed, true, 100)] {
            let on = run(q).unwrap();
            assert_eq!(on.values(), &[Value::Integer(100)]);
            assert_eq!(on.stats().columnar_transposes > 0, transposes_on, "{q}");
            assert!(on.stats().columnar_batches > 0, "{q}");
            assert_eq!(a_to_b_peak(&on), peak_on, "{q}");
            let off = run_opts(q, &off_options).unwrap();
            assert_eq!(off.stats().columnar_transposes, 0);
            assert_eq!(off.stats().columnar_batches, 0);
            assert_eq!(a_to_b_peak(&off), 100, "one train per element: {q}");
            assert_eq!(on.values(), off.values());
            assert_eq!(on.finished(), off.finished());
            assert_eq!(on.stats().events, off.stats().events);
        }
    }

    #[test]
    fn relay_chains_forward_columns_across_sps() {
        // Two-SP pipeline: the middle SP's chain re-emits (arith +
        // filter), so the columnar pass relays survivor rows as shared
        // column handles to the downstream absorber — and the books
        // must match the per-element reference exactly.
        let q = "select extract(c) from sp a, sp b, sp c
             where c=sp(streamof(sum(extract(b))), 'bg', 0)
             and b=sp(filter(arith(extract(a), '*', 3), '>', 150), 'bg', 2)
             and a=sp(streamof(iota(1,100)),'bg',1);";
        let on = run(q).unwrap();
        // sum of 3i for i in 51..=100.
        assert_eq!(on.values(), &[Value::Integer(11325)]);
        assert!(on.stats().columnar_batches > 0, "{:?}", on.stats());
        let off = run_opts(
            q,
            &RunOptions {
                columnar: false,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(on.values(), off.values());
        assert_eq!(on.finished(), off.finished());
    }

    #[test]
    fn type_error_inside_operator_aborts_the_query() {
        // sum() over synthetic arrays is a type error at run time.
        let err = run("select extract(b) from sp a, sp b
             where b=sp(streamof(sum(extract(a))), 'bg', 0)
             and a=sp(gen_array(1000,2),'bg',1);")
        .unwrap_err();
        assert!(err.to_string().contains("expected number"), "{err}");
    }
}
