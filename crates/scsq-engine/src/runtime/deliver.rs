use super::source::{chain, charge, emit, enqueue_elem, finish_rp, process_and_emit};
use super::{Elem, Ev, Sim, World};
use crate::fused::ColumnEnding;
use scsq_ql::{ColumnarBatch, SelectionVector, SpHandle, Value};
use scsq_sim::{SimTime, Span};
use scsq_transport::Payload;

/// One stream-channel buffer cycle.
///
/// Kept out of line (as is `deliver`): inlined, every handler and the
/// whole of `StreamChannel::cycle` land in one several-thousand-line
/// `Ev::fire`, whose register allocation shifts with edits to arms the
/// per-event path never runs. Out of line the Figure 6 sweep's
/// per-event path measured 2–3 % faster (91 vs 93–95 ns/event).
#[inline(never)]
pub(super) fn cycle(world: &mut World, sim: &mut Sim, ci: usize) {
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
pub(super) fn deliver(world: &mut World, sim: &mut Sim, ci: usize, mut batch: Vec<Elem>) {
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
        for k in 0..world.observers[ci].len() {
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
    if let Some(lat) = &mut world.channels[ci].lat {
        let has_obs = !world.lat_observers.is_empty() && !world.lat_observers[ci].is_empty();
        let n: usize = batch.iter().map(Elem::rows).sum();
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
            for k in 0..world.lat_observers[ci].len() {
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
pub(super) fn deliver_value_run(
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
pub(super) fn deliver_columns(
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
pub(super) fn run_rows(
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
    let res = chain(world, dst, |c| c.process_run(rows, from, &mut out));
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
pub(super) fn run_columns(
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
    match chain(world, dst, |c| c.process_cols(admit)) {
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
pub(super) fn emit_columns(
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
pub(super) fn send_run(
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
pub(super) fn eos(world: &mut World, sim: &mut Sim, ci: usize) {
    input_ended(world, sim, world.channels[ci].dst_rp, ci);
    // Observers of this channel saw its last sample: their metric or
    // latency stream shrinks by one live input.
    for k in 0..world.observers.get(ci).map_or(0, Vec::len) {
        input_ended(world, sim, world.observers[ci][k], ci);
    }
    for k in 0..world.lat_observers.get(ci).map_or(0, Vec::len) {
        input_ended(world, sim, world.lat_observers[ci][k], ci);
    }
}

/// One of RP `rp`'s live inputs, channel `ci`, ended; the RP finishes
/// when it was the last.
fn input_ended(world: &mut World, sim: &mut Sim, rp: usize, ci: usize) {
    let state = &mut world.rps[rp];
    assert!(state.eos_remaining > 0, "duplicate EOS for rp {rp} on {ci}");
    state.eos_remaining -= 1;
    if state.eos_remaining == 0 {
        finish_rp(world, sim, rp);
    }
}
