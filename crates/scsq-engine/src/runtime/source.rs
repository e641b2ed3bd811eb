use super::deliver::send_run;
use super::{Elem, Ev, Sim, World};
use crate::error::EngineError;
use crate::ops::StageChain;
use scsq_cluster::Environment;
use scsq_ql::{SpHandle, Value};
use scsq_sim::SimTime;

/// Makes an `Environment` generate / compute charge for RP `idx`; a
/// profiled run books its wall time to the RP's `charge_ns`. For the
/// per-element and per-batch charges only: `produce`'s one `generate`
/// per array stays off the clock (and out of the per-event handlers).
#[inline]
pub(super) fn charge<T>(world: &mut World, idx: usize, f: impl FnOnce(&mut Environment) -> T) -> T {
    let t0 = world.profile.then(std::time::Instant::now);
    let out = f(&mut world.env);
    if let Some(t0) = t0 {
        world.rps[idx].charge_ns += t0.elapsed().as_nanos() as u64;
    }
    out
}

/// Runs `f` on RP `idx`'s stage chain; a profiled run books its wall
/// time to the RP's `wall_ns`.
#[inline]
pub(super) fn chain<T>(world: &mut World, idx: usize, f: impl FnOnce(&mut StageChain) -> T) -> T {
    let t0 = world.profile.then(std::time::Instant::now);
    let out = f(&mut world.rps[idx].chain);
    if let Some(t0) = t0 {
        world.rps[idx].wall_ns += t0.elapsed().as_nanos() as u64;
    }
    out
}

pub(super) fn start_rp(world: &mut World, sim: &mut Sim, idx: usize) {
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
pub(super) fn produce(world: &mut World, sim: &mut Sim, idx: usize) {
    let node = world.rps[idx].node;
    let Some(gen) = world.rps[idx].gen.as_mut() else {
        world.fail(
            sim,
            EngineError::Runtime(format!("rp {idx} has no generator")),
        );
        return;
    };
    if gen.remaining == 0 {
        finish_rp(world, sim, idx);
        return;
    }
    gen.remaining -= 1;
    let bytes = gen.bytes;
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
pub(super) fn drain_source(world: &mut World, sim: &mut Sim, idx: usize) {
    let node = world.rps[idx].node;
    let now = sim.now();
    let items = std::mem::take(&mut world.rps[idx].source);
    if let Some(src) = world.rps[idx].prepared.take() {
        let n = items.len() as u64;
        let mut readies = Vec::new();
        let done = charge(world, idx, |env| {
            env.generate_each(node, src.row_bytes, n, now, &mut readies)
        });
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
pub(super) fn process_and_emit(
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
    let res = chain(world, idx, |c| c.process_into(value, from, &mut out));
    if let Err(e) = res {
        world.fail(sim, e);
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
pub(super) fn emit(
    world: &mut World,
    sim: &mut Sim,
    idx: usize,
    out: &mut Vec<Value>,
    at: SimTime,
) {
    world.rps[idx].elements_out += out.len() as u64;
    if world.rps[idx].is_client {
        if !out.is_empty() && world.first_result_at.is_none() {
            world.first_result_at = Some(sim.now());
        }
        world.results.append(out);
        return;
    }
    let n_out = world.rps[idx].outputs.len();
    // Fan each value out by index: a clone into every channel but the
    // last, and the value itself into the last.
    for v in out.drain(..) {
        let size = v.marshaled_size();
        for oi in 0..n_out.saturating_sub(1) {
            let ci = world.rps[idx].outputs[oi];
            enqueue_elem(world, sim, ci, Elem::Val(v.clone()), size, at);
        }
        if let Some(&ci) = world.rps[idx].outputs.last() {
            enqueue_elem(world, sim, ci, Elem::Val(v), size, at);
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
///
/// Forced inline: `emit` calls it twice (clones, then the moved value),
/// and the compiler alone would keep it out of line.
#[inline(always)]
pub(super) fn enqueue_elem(
    world: &mut World,
    sim: &mut Sim,
    ci: usize,
    item: Elem,
    size: u64,
    at: SimTime,
) {
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
pub(super) fn finish_rp(world: &mut World, sim: &mut Sim, idx: usize) {
    if world.error.is_some() || world.rps[idx].finished {
        return;
    }
    world.rps[idx].finished = true;
    let mut finals = match chain(world, idx, StageChain::finish) {
        Ok(f) => f,
        Err(e) => {
            world.fail(sim, e);
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
