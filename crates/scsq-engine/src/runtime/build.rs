//! Query set-up (§2.2): one RP per stream process and one for the client
//! manager, a stream channel per subscription, and their start events.

use super::{ChannelRt, Ev, GenRt, LatTrack, RpState, RunOptions, Sim, World};
use crate::builder::QueryGraph;
use crate::coordinator::Coordinator;
use crate::error::EngineError;
use crate::funcs;
use crate::ops::{InputKind, StageChain};
use scsq_cluster::{ClusterName, Environment, NodeId};
use scsq_net::FlowId;
use scsq_ql::Value;
use scsq_sim::{SimTime, TypedSimulator};
use scsq_transport::{Carrier, ChannelConfig, StreamChannel};
use std::iter;
use std::sync::Arc;

/// The carrier a stream from `src` to `dst` runs on: MPI inside the
/// BlueGene (with the run's buffer size and buffering), otherwise TCP,
/// or UDP when the run carries inter-cluster streams over UDP. The
/// runtime's channels and `explain`'s set-up report both ask here.
pub(crate) fn carrier_for(src: NodeId, dst: NodeId, options: &RunOptions) -> Carrier {
    if src.cluster == ClusterName::BlueGene && dst.cluster == ClusterName::BlueGene {
        Carrier::Mpi {
            buffer: options.mpi_buffer,
            double: options.mpi_double,
        }
    } else if options.udp_inter_cluster {
        Carrier::Udp
    } else {
        Carrier::Tcp
    }
}

/// A carrier's name in reports: `mpi`, `tcp` or `udp`.
pub(crate) fn carrier_name(carrier: Carrier) -> &'static str {
    match carrier {
        Carrier::Mpi { .. } => "mpi",
        Carrier::Tcp => "tcp",
        Carrier::Udp => "udp",
    }
}

/// Instantiates the per-run state of `graph` on `env`: one RP per SP,
/// then the client's, each with one channel per producer, and every
/// RP's start event queued. No event has fired yet.
///
/// # Errors
///
/// A subscription to a stream process the graph does not hold.
pub(crate) fn build<'g>(
    mut env: Environment,
    graph: &'g QueryGraph,
    options: &RunOptions,
) -> Result<Sim<'g>, EngineError> {
    // Service-time jitter lives in the environment: every CPU-side
    // service (generate, marshal, compute, de-marshal) draws a factor
    // from its deterministic stream, so even within-transfer buffer
    // periods are unique and train-coalescing provably cannot fire.
    env.set_service_jitter(options.service_jitter);

    let mut rps: Vec<RpState> = Vec::with_capacity(graph.sps.len() + 1);
    let mut outputs = vec![Vec::new(); graph.sps.len() + 1];
    let mut channels: Vec<ChannelRt> = Vec::new();
    // Client-side constants feed the result sink, not a channel.
    let client = (&graph.client, &graph.client_cost, None, graph.client_node);
    let sps = graph
        .sps
        .iter()
        .map(|sp| (&sp.pipeline, &sp.cost, sp.source.as_ref(), sp.node));
    for (dst_rp, (pipeline, cost, prepared, node)) in sps.chain(iter::once(client)).enumerate() {
        // One channel per producer.
        let producers = pipeline.producers();
        for &p in producers {
            // The SPs are rps 0.., in graph order; the client is the last.
            let Some(src_rp) = graph.sps.iter().position(|sp| sp.handle == p) else {
                let e = format!("subscription to unknown stream process {p:?}");
                return Err(EngineError::Runtime(e));
            };
            let src = graph.sps[src_rp].node;
            let cfg = ChannelConfig {
                flow: FlowId(channels.len() as u64),
                src,
                dst: node,
                carrier: carrier_for(src, node, options),
            };
            outputs[src_rp].push(channels.len());
            channels.push(ChannelRt {
                chan: StreamChannel::new(cfg, &mut env),
                src_sp: p,
                dst_rp,
                lat: None,
            });
        }
        let gen = match &pipeline.input {
            InputKind::Gen { bytes, count } => Some(GenRt {
                bytes: *bytes,
                remaining: *count,
            }),
            _ => None,
        };
        let source: Arc<[Value]> = match &pipeline.input {
            InputKind::Const { values } => Arc::clone(values),
            InputKind::Grep { pattern, file } => funcs::grep(pattern, file).into(),
            InputKind::Receiver {
                name,
                arrays,
                samples,
            } => (0..*arrays)
                .map(|i| funcs::receiver_array(name, i, *samples))
                .collect(),
            // A generator's elements are made as it runs. Observers
            // subscribe to nothing: their samples are synthesized by
            // `deliver` as observed channels deliver.
            InputKind::Gen { .. }
            | InputKind::Receive { .. }
            | InputKind::Metrics { .. }
            | InputKind::Latency { .. } => Arc::new([]),
        };
        let mut chain = StageChain::new(pipeline);
        if options.profile {
            chain.enable_profiling();
        }
        rps.push(RpState {
            node,
            chain,
            pipeline,
            cost,
            outputs: Vec::new(),
            eos_remaining: producers.len(),
            gen,
            source,
            // Views exist on the columnar tier only; every other
            // configuration walks `source` and never looks at this.
            prepared: prepared.filter(|_| options.columnar).cloned(),
            is_client: dst_rp == graph.sps.len(),
            finished: false,
            elements_in: 0,
            elements_out: 0,
            wall_ns: 0,
            charge_ns: 0,
        });
    }
    // Wire producer output lists, in channel order.
    for (rp, outputs) in rps.iter_mut().zip(outputs) {
        rp.outputs = outputs;
    }

    // Wire stream observers: a `metrics(p)` or `latency(p)` RP watches
    // every channel whose producer is one of its targets, and its
    // stream ends when the last watched channel delivers EOS. Channels
    // are all created by now, so the watch lists are final.
    let mut observers: Vec<Vec<usize>> = Vec::new();
    let mut lat_observers: Vec<Vec<usize>> = Vec::new();
    for (i, rp) in rps.iter_mut().enumerate() {
        let (targets, lists) = match &rp.pipeline.input {
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
            ch.lat = Some(LatTrack::default());
        }
    }

    // Pending-event population is bounded by the graph shape (each RP
    // has at most one self-scheduled tick; each channel a handful of
    // in-flight cycle/deliver/eos events), so reserve once up front.
    let capacity = rps.len() + channels.len() * 4;
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
    let mut sim =
        TypedSimulator::with_capacity(world, capacity).with_event_limit(options.event_limit);
    // Start every RP per its coordinator's discipline: BlueGene RPs wake
    // at the bgCC's next poll tick (§2.2), Linux RPs immediately.
    for idx in 0..sim.world().rps.len() {
        let cluster = sim.world().rps[idx].node.cluster;
        let start = Coordinator::for_cluster(cluster).rp_start_time(SimTime::ZERO);
        sim.schedule_at(start, Ev::StartRp(idx));
    }
    Ok(sim)
}
