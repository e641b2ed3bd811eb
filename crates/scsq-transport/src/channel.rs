//! The buffered stream channel: sender driver + carrier + receiver driver.
//!
//! A [`StreamChannel`] connects one producer RP to one subscriber RP. It
//! is a *pull-free* state machine: the engine enqueues elements as they
//! are produced and repeatedly calls [`StreamChannel::cycle`], which
//! processes **one send buffer per call** and reports when the next call
//! should happen. One event per buffer keeps concurrent flows interleaved
//! at buffer granularity, which is what lets the receiving co-processor's
//! switch penalty emerge the way §3.1 describes.

use scsq_cluster::{CarrierClass, Environment, NodeId};
use scsq_net::FlowId;
use scsq_sim::{SimDur, SimTime, StateProbe};
use std::collections::VecDeque;

/// Default MPI stream buffer size: the paper finds 1000 bytes optimal for
/// point-to-point intra-BlueGene streams (Fig 6).
pub const MPI_DEFAULT_BUFFER: u64 = 1000;

/// What a channel can carry. Most payloads stand for exactly one stream
/// element and take both defaults; a *view* payload (a slice of a shared
/// column, say) can stand for a run of elements and be cut into
/// sub-runs, which lets [`StreamChannel::enqueue_run`] keep a whole run
/// as one queue node and one roster entry per buffer.
pub trait Payload: Clone + PartialEq {
    /// How many stream elements this payload stands for.
    fn rows(&self) -> usize {
        1
    }

    /// The payload for elements `start..end` of this one. Only called
    /// with `end <= self.rows()`; a one-element payload is its own only
    /// slice.
    fn slice_rows(&self, start: usize, end: usize) -> Self {
        debug_assert_eq!((start, end), (0, 1), "a one-element payload has one slice");
        self.clone()
    }
}

macro_rules! one_element_payloads {
    ($($t:ty),*) => { $(impl Payload for $t {})* };
}
// The payloads this crate's tests and the repo benchmark drive channels
// with.
one_element_payloads!((), i32, u32, u64, usize, &'static str);

/// How a channel carries its buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Carrier {
    /// MPI over the BlueGene torus, with an explicit stream buffer size
    /// and single or double buffering (§2.3).
    Mpi {
        /// Send buffer size in bytes (the Fig 6 / Fig 8 sweep variable).
        buffer: u64,
        /// Double buffering: marshal the next buffer while the previous
        /// one is injected.
        double: bool,
    },
    /// TCP between clusters: segment size comes from the hardware spec
    /// ("we rely on the buffering of the TCP stack", §3.2); the stack
    /// keeps several segments in flight.
    Tcp,
    /// UDP between clusters (§2.1: the I/O nodes "provide TCP or UDP"):
    /// jumbo datagrams, no flow control — overloaded I/O nodes drop
    /// datagrams, and elements touched by a drop are lost.
    Udp,
}

impl Carrier {
    /// How many buffers may be in flight before marshaling the next one
    /// must wait.
    fn window(self) -> usize {
        match self {
            Carrier::Mpi { double: false, .. } => 1,
            Carrier::Mpi { double: true, .. } => 2,
            Carrier::Tcp => 8,
            // No acknowledgements: only the socket buffer paces the
            // sender.
            Carrier::Udp => 64,
        }
    }
}

/// Static configuration of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelConfig {
    /// End-to-end flow identity (used for switch penalties and inbound
    /// registration).
    pub flow: FlowId,
    /// The producing RP's node.
    pub src: NodeId,
    /// The subscribing RP's node.
    pub dst: NodeId,
    /// The carrier protocol.
    pub carrier: Carrier,
}

/// Transfer statistics of one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChannelStats {
    /// Payload bytes enqueued by the producer.
    pub bytes_enqueued: u64,
    /// Payload bytes delivered to the subscriber.
    pub bytes_delivered: u64,
    /// Send buffers transmitted.
    pub buffers_sent: u64,
    /// Buffers (UDP datagrams) dropped in flight.
    pub buffers_dropped: u64,
    /// Elements lost because a datagram carrying their bytes was
    /// dropped.
    pub elements_lost: u64,
    /// When the first buffer began marshaling (None until then).
    pub first_send: Option<SimTime>,
    /// When the most recent buffer finished de-marshaling.
    pub last_delivery: SimTime,
    /// High-water mark of the send queue, in queue *nodes*: a run of
    /// identical elements counts once (see the train coalescing notes
    /// on [`StreamChannel::enqueue`]), and so does a whole run
    /// ([`StreamChannel::enqueue_run`]).
    /// Gauges how far the producer ran ahead of the carrier.
    pub queue_peak_trains: u64,
}

impl ChannelStats {
    /// Mean delivered bandwidth in bytes/second measured from `start` to
    /// the last delivery. Returns 0.0 if nothing was delivered.
    pub fn bandwidth_from(&self, start: SimTime) -> f64 {
        if self.bytes_delivered == 0 || self.last_delivery <= start {
            return 0.0;
        }
        self.bytes_delivered as f64 / self.last_delivery.since(start).as_secs_f64()
    }
}

/// A run-length-encoded train of queued elements: `copies` identical
/// elements of `bytes_each` marshaled bytes, ready at the arithmetic
/// progression `head_ready, head_ready + step, ...`.
///
/// The figure workloads enqueue long runs of identical elements; storing
/// them as one train keeps the send queue O(1) instead of O(n) and makes
/// its growth visible to the coalescer as a plain counter. A train of one
/// is exactly the old per-element representation.
///
/// Trains (and their sibling, [`Pack`]) are a transport-side encoding
/// only: delivery hands the receiver a materialized batch per buffer.
/// The payload type is opaque here — a column view travels as just
/// another payload whose rows' bytes and ready times drive packing
/// ([`Payload`]); reassembling the slices of a delivered batch happens
/// inside the engine's `deliver` step, after transport.
#[derive(Debug)]
struct Train<T> {
    /// The element every copy materializes as. `None` only transiently
    /// while the last copy is being handed out.
    item: Option<T>,
    /// Copies remaining, including the (possibly partially packed) head.
    copies: u64,
    /// Marshaled size of each copy.
    bytes_each: u64,
    /// Unpacked bytes of the head copy.
    head_bytes_left: u64,
    /// Ready time of the head copy.
    head_ready: SimTime,
    /// Ready-time spacing between consecutive copies.
    step: SimDur,
    /// Some of the head copy's bytes rode a dropped datagram; it cannot
    /// be materialized at the receiver. Later copies are unaffected.
    head_corrupted: bool,
}

impl<T> Train<T> {
    /// Ready time of the last copy.
    fn tail_ready(&self) -> SimTime {
        self.head_ready + SimDur::from_nanos(self.step.as_nanos() * (self.copies - 1))
    }
}

/// A pack of *distinct* elements sharing one marshaled size, enqueued
/// in a single call ([`StreamChannel::enqueue_run`]) as one view
/// payload with an explicit nondecreasing ready time per element — the
/// complement of [`Train`], which compresses
/// *identical* elements on an arithmetic ready progression. A column
/// batch (relayed, or a prepared constant source) is the motivating
/// producer: thousands of same-sized, pairwise-distinct rows become
/// ready at jittered (so non-arithmetic) times within one event, and
/// storing them as one queue node instead of one train each keeps the
/// send queue short. Packing and delivery treat each element exactly
/// as if it had been enqueued individually.
#[derive(Debug)]
struct Pack<T> {
    /// One view payload standing for every element, consumed front to
    /// back from `next`; sub-runs are cut with [`Payload::slice_rows`]
    /// as buffers fill.
    view: T,
    /// Per-element ready times, nondecreasing; one per element.
    readies: Vec<SimTime>,
    /// Index of the head element.
    next: usize,
    /// Marshaled size of each element.
    bytes_each: u64,
    /// Unpacked bytes of the head element.
    head_bytes_left: u64,
    /// Some of the head element's bytes rode a dropped datagram.
    head_corrupted: bool,
}

impl<T> Pack<T> {
    /// Elements not yet fully packed, including the head.
    fn remaining(&self) -> usize {
        self.readies.len() - self.next
    }

    /// Bytes not yet packed into buffers.
    fn bytes_left(&self) -> u64 {
        self.head_bytes_left + (self.remaining() as u64 - 1) * self.bytes_each
    }
}

/// One send-queue node: a run-length-encoded train or an explicit pack.
#[derive(Debug)]
enum Node<T> {
    Train(Train<T>),
    Pack(Pack<T>),
}

impl<T: Payload> Node<T> {
    /// Bytes of this node not yet packed into a buffer.
    fn bytes_left(&self) -> u64 {
        match self {
            Node::Train(t) => t.head_bytes_left + (t.copies - 1) * t.bytes_each,
            Node::Pack(pk) => pk.bytes_left(),
        }
    }

    /// Walks one node through a coalescing probe. Copy counts, packed
    /// byte counts and clocks are extrapolatable; payloads (via
    /// `probe_item`), sizes and flags are shape.
    fn probe(
        &mut self,
        p: &mut StateProbe<'_>,
        probe_item: &mut impl FnMut(&T, &mut StateProbe<'_>),
    ) {
        match self {
            Node::Train(t) => {
                p.shape(0);
                p.num(&mut t.copies);
                p.shape(t.bytes_each);
                p.num(&mut t.head_bytes_left);
                p.time(&mut t.head_ready);
                p.dur(&mut t.step);
                p.shape(t.head_corrupted as u64);
                p.shape(t.item.is_some() as u64);
                if let Some(item) = &t.item {
                    probe_item(item, p);
                }
            }
            Node::Pack(pk) => {
                p.shape(1);
                p.shape(pk.remaining() as u64);
                p.shape(pk.bytes_each);
                p.num(&mut pk.head_bytes_left);
                p.shape(pk.head_corrupted as u64);
                for t in &mut pk.readies[pk.next..] {
                    p.time(t);
                }
                probe_item(&pk.view.slice_rows(pk.next, pk.view.rows()), p);
            }
        }
    }
}

/// A send queue's interior fingerprint and the queue length and node
/// push count it was taken at.
///
/// Only `cycle` (popping at the front) and `enqueue` / `enqueue_run`
/// (pushing a node at the back) change which nodes are interior, and no
/// call changes an interior node: growing the back node leaves the
/// interior as it was. A node push raises the count, which never falls,
/// and without a push every pop shortens the queue: the word is current
/// whenever both read as they did when it was taken.
#[derive(Debug, Clone, Copy, PartialEq)]
struct InteriorWord {
    len: usize,
    pushes: u64,
    word: u64,
}

/// What one [`StreamChannel::cycle`] call produced.
#[derive(Debug)]
pub struct CycleOutput<T> {
    /// Elements whose final byte was de-marshaled in this buffer, in
    /// order. All of them ride the same receive buffer, so they become
    /// visible to the subscriber's operators at one shared instant,
    /// `delivered_at`. An entry cut from a run ([`StreamChannel::enqueue_run`])
    /// stands for [`Payload::rows`] consecutive elements.
    pub delivered: Vec<T>,
    /// When the elements in `delivered` become visible; `None` when the
    /// cycle delivered nothing.
    pub delivered_at: Option<SimTime>,
    /// When `cycle` should be called again; `None` when the channel is
    /// idle (call again after the next `enqueue`/`finish`).
    pub next_cycle: Option<SimTime>,
    /// Set exactly once, when the end-of-stream marker has been
    /// delivered: the time the subscriber learns the stream is finite
    /// (§2.2 control messages).
    pub eos_at: Option<SimTime>,
}

impl<T> Default for CycleOutput<T> {
    fn default() -> Self {
        CycleOutput {
            delivered: Vec::new(),
            delivered_at: None,
            next_cycle: None,
            eos_at: None,
        }
    }
}

/// A producer → subscriber stream link (§2.3's sender driver, carrier,
/// and receiver driver in one state machine).
#[derive(Debug)]
pub struct StreamChannel<T> {
    cfg: ChannelConfig,
    queue: VecDeque<Node<T>>,
    /// Bytes already packed into the currently-filling buffer.
    fill: u64,
    /// Latest ready-time of the bytes in the filling buffer.
    fill_ready: SimTime,
    /// Elements completing inside the currently-filling buffer, with
    /// their corruption flag (UDP losses poison spanning elements).
    fill_items: Vec<(T, bool)>,
    /// Bytes accepted but not yet handed to the carrier: the filling
    /// buffer plus everything still queued. Answers
    /// [`Self::pending_buffers`] in O(1) so the engine can skip
    /// scheduling cycles that could not transmit anything.
    pending_bytes: u64,
    /// The coalescing fingerprint of the queue's interior (every node
    /// but the front and the back), keyed by when it was taken.
    interior: Option<InteriorWord>,
    /// Nodes pushed onto the send queue so far: the interior word's key.
    /// Bookkeeping only, never probed.
    pushes: u64,
    /// Send-completion times of recent buffers, at most `window` entries.
    inflight: VecDeque<SimTime>,
    /// An empty delivery vector donated back by the consumer
    /// ([`Self::recycle`]); the next transmitting cycle reuses its
    /// capacity instead of growing a fresh allocation per buffer.
    spare: Vec<T>,
    eos_queued: bool,
    eos_reported: bool,
    stats: ChannelStats,
    registered_inbound: bool,
}

impl<T: Payload> StreamChannel<T> {
    /// Creates an idle channel. If the channel crosses from a Linux
    /// cluster into the BlueGene it registers itself as an inbound flow so
    /// the I/O-node coordination penalties account for it.
    pub fn new(cfg: ChannelConfig, env: &mut Environment) -> Self {
        let mut registered_inbound = false;
        if cfg.dst.cluster == scsq_cluster::ClusterName::BlueGene
            && cfg.src.cluster != scsq_cluster::ClusterName::BlueGene
        {
            let host = env
                .ether_host_of(cfg.src)
                .expect("linux sender has an ether host");
            let pset = env.pset_of(cfg.dst);
            env.register_inbound(cfg.flow, host, pset);
            registered_inbound = true;
        }
        StreamChannel {
            cfg,
            queue: VecDeque::new(),
            fill: 0,
            fill_ready: SimTime::ZERO,
            fill_items: Vec::new(),
            pending_bytes: 0,
            interior: None,
            pushes: 0,
            inflight: VecDeque::new(),
            spare: Vec::new(),
            eos_queued: false,
            eos_reported: false,
            stats: ChannelStats::default(),
            registered_inbound,
        }
    }

    /// The channel's configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// Transfer statistics so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Whether end-of-stream has been fully delivered.
    pub fn is_finished(&self) -> bool {
        self.eos_reported
    }

    /// Enqueues an element of `bytes` marshaled size, produced at
    /// `ready`. Returns the time at which `cycle` should next run (the
    /// engine schedules an event there).
    ///
    /// A run of identical elements whose ready times form an arithmetic
    /// progression coalesces into the tail `Train` instead of growing
    /// the queue; packing and delivery are byte-for-byte identical either
    /// way.
    ///
    /// # Panics
    ///
    /// Panics if called after [`StreamChannel::finish`] or with zero
    /// bytes.
    pub fn enqueue(&mut self, item: T, bytes: u64, ready: SimTime) -> SimTime {
        assert!(
            !self.eos_queued,
            "enqueue after finish on flow {:?}",
            self.cfg.flow
        );
        assert!(bytes > 0, "elements must have positive marshaled size");
        self.stats.bytes_enqueued += bytes;
        self.pending_bytes += bytes;
        if let Some(Node::Train(tail)) = self.queue.back_mut() {
            if tail.bytes_each == bytes && tail.item.as_ref() == Some(&item) {
                if tail.copies == 1 && ready >= tail.head_ready {
                    // Second copy fixes the train's spacing.
                    tail.step = ready.since(tail.head_ready);
                    tail.copies = 2;
                    return ready;
                }
                if tail.copies > 1 && ready == tail.tail_ready() + tail.step {
                    tail.copies += 1;
                    return ready;
                }
            }
        }
        // A fast producer can back the queue up by millions of trains
        // (jittered ready times defeat coalescing entirely). VecDeque's
        // doubling growth then re-copies the whole backlog at every
        // step; quadrupling past the first page keeps the amortized
        // copy volume a third of that while wasting at most 3x the
        // peak footprint — simulation state is unaffected either way.
        if self.queue.len() == self.queue.capacity() && self.queue.len() >= 4096 {
            self.queue.reserve(3 * self.queue.len());
        }
        self.pushes += 1;
        self.queue.push_back(Node::Train(Train {
            item: Some(item),
            copies: 1,
            bytes_each: bytes,
            head_bytes_left: bytes,
            head_ready: ready,
            step: SimDur::ZERO,
            head_corrupted: false,
        }));
        let depth = self.queue.len() as u64;
        if depth > self.stats.queue_peak_trains {
            self.stats.queue_peak_trains = depth;
        }
        ready
    }

    /// Enqueues `items.len()` elements of `bytes_each` marshaled bytes,
    /// element `i` ready at `readies[i]`: exactly [`StreamChannel::enqueue`]
    /// once per element, in order. No engine path calls it; it stays only
    /// while the repository benchmark times it
    /// (`transport.enqueue_pack_ns_per_elem`), and goes with that metric.
    ///
    /// # Panics
    ///
    /// As [`StreamChannel::enqueue`], or with mismatched lengths.
    pub fn enqueue_pack(&mut self, items: Vec<T>, bytes_each: u64, readies: Vec<SimTime>) {
        assert_eq!(items.len(), readies.len(), "one ready time per element");
        for (item, ready) in items.into_iter().zip(readies) {
            self.enqueue(item, bytes_each, ready);
        }
    }

    /// Enqueues a run that is one view payload as one queue node: `view`
    /// stands for `view.rows()` same-sized elements, element `i` ready at
    /// `readies[i]`. Byte-for-byte and instant-for-instant equivalent to
    /// enqueueing `view.slice_rows(i, i + 1)` for every `i` in order —
    /// buffer boundaries and corruption fall where they would for
    /// individual elements — except that whole elements packed into a
    /// buffer together are delivered as one sliced payload instead of one
    /// payload each, and the send queue grows by one node instead of
    /// `view.rows()` trains (distinct elements never coalesce).
    ///
    /// # Panics
    ///
    /// Panics if called after [`StreamChannel::finish`], with zero
    /// `bytes_each`, with an empty view, or with mismatched lengths.
    /// Ready times must be nondecreasing (debug-asserted): the producer
    /// generates them with one FIFO compute server, whose finish times
    /// are monotone.
    pub fn enqueue_run(&mut self, view: T, bytes_each: u64, readies: Vec<SimTime>) {
        assert_eq!(view.rows(), readies.len(), "one ready time per element");
        assert!(
            !self.eos_queued,
            "enqueue after finish on flow {:?}",
            self.cfg.flow
        );
        assert!(bytes_each > 0, "elements must have positive marshaled size");
        assert!(!readies.is_empty(), "a pack must hold at least one element");
        debug_assert!(
            readies.windows(2).all(|w| w[0] <= w[1]),
            "pack ready times must be nondecreasing"
        );
        let bytes = bytes_each * readies.len() as u64;
        self.stats.bytes_enqueued += bytes;
        self.pending_bytes += bytes;
        self.pushes += 1;
        self.queue.push_back(Node::Pack(Pack {
            view,
            readies,
            next: 0,
            bytes_each,
            head_bytes_left: bytes_each,
            head_corrupted: false,
        }));
        let depth = self.queue.len() as u64;
        if depth > self.stats.queue_peak_trains {
            self.stats.queue_peak_trains = depth;
        }
    }

    /// Bytes accepted but not yet handed to the carrier. Together with
    /// [`Self::buffer_bytes`] this lets a producer compute which
    /// elements of a prospective pack will complete send buffers.
    pub fn pending_bytes(&self) -> u64 {
        self.pending_bytes
    }

    /// The send-buffer size currently in effect.
    pub fn buffer_bytes(&self, env: &Environment) -> u64 {
        self.buffer_size(env)
    }

    /// Marks the stream finite: remaining data (and a final partial
    /// buffer, if any) will be flushed, then an end-of-stream control
    /// message is delivered. Returns the time at which `cycle` should
    /// next run.
    pub fn finish(&mut self, now: SimTime) -> SimTime {
        self.eos_queued = true;
        now
    }

    /// How many complete buffers' worth of bytes are pending (filling
    /// buffer plus queue). A cycle run transmits at most one buffer, so
    /// this is the number of transmits a cycle chain could perform right
    /// now; the engine schedules a cycle only when an enqueue increases
    /// it (each increase is one future transmit, and transmit times are
    /// computed from the data's own ready times, never from when the
    /// cycle runs). Cycles scheduled while the count is flat would only
    /// move bytes from the queue into the filling buffer, which the
    /// next transmitting cycle does anyway. The end-of-stream flush is
    /// driven by [`Self::finish`] and the cycle's own `next_cycle`
    /// chain, not by this count.
    pub fn pending_buffers(&self, env: &Environment) -> u64 {
        self.pending_bytes / self.buffer_size(env)
    }

    /// The buffer size currently in effect.
    fn buffer_size(&self, env: &Environment) -> u64 {
        match self.cfg.carrier {
            Carrier::Mpi { buffer, .. } => buffer,
            Carrier::Tcp => env.spec().tcp_segment,
            Carrier::Udp => env.spec().udp_segment,
        }
    }

    /// Donates an empty vector (typically a processed delivery batch)
    /// whose capacity the next transmitting cycle reuses for its
    /// [`CycleOutput::delivered`] — one warm allocation per channel
    /// instead of a fresh buffer-sized growth per transmit.
    pub fn recycle(&mut self, mut spare: Vec<T>) {
        spare.clear();
        if spare.capacity() > self.spare.capacity() {
            self.spare = spare;
        }
    }

    /// Processes at most one send buffer. See [`CycleOutput`].
    pub fn cycle(&mut self, env: &mut Environment, now: SimTime) -> CycleOutput<T> {
        let mut out = CycleOutput {
            delivered: std::mem::take(&mut self.spare),
            ..CycleOutput::default()
        };
        let buffer_size = self.buffer_size(env);

        // Pack bytes from the queue into the filling buffer, recording
        // completed elements straight into the fill roster.
        while self.fill < buffer_size {
            let Some(node) = self.queue.front_mut() else {
                break;
            };
            let space = buffer_size - self.fill;
            match node {
                Node::Train(front) => {
                    let take = space.min(front.head_bytes_left);
                    front.head_bytes_left -= take;
                    self.fill += take;
                    self.fill_ready = self.fill_ready.max(front.head_ready);
                    if front.head_bytes_left == 0 {
                        let corrupted = std::mem::replace(&mut front.head_corrupted, false);
                        if front.copies == 1 {
                            let item = front.item.take().expect("item present until consumed");
                            self.fill_items.push((item, corrupted));
                            self.queue.pop_front();
                        } else {
                            let item = front.item.clone().expect("item present until consumed");
                            self.fill_items.push((item, corrupted));
                            front.copies -= 1;
                            front.head_bytes_left = front.bytes_each;
                            front.head_ready += front.step;
                        }
                    }
                }
                Node::Pack(front) => {
                    // Whole, untouched, uncorrupted elements that fit
                    // go in one step: packing them one by one would add
                    // `bytes_each` to the fill each time and leave
                    // `fill_ready` at the last one's ready time (ready
                    // times are nondecreasing). Only the element
                    // straddling the buffer boundary, elements wider
                    // than a buffer and a corrupted head take the
                    // byte-wise path.
                    let whole = front.head_bytes_left == front.bytes_each && !front.head_corrupted;
                    let fit = (space / front.bytes_each).min(front.remaining() as u64) as usize;
                    let (start, end, corrupted) = if whole && fit > 0 {
                        self.fill += fit as u64 * front.bytes_each;
                        (front.next, front.next + fit, false)
                    } else {
                        let take = space.min(front.head_bytes_left);
                        front.head_bytes_left -= take;
                        self.fill += take;
                        if front.head_bytes_left > 0 {
                            self.fill_ready = self.fill_ready.max(front.readies[front.next]);
                            continue;
                        }
                        let corrupted = std::mem::replace(&mut front.head_corrupted, false);
                        (front.next, front.next + 1, corrupted)
                    };
                    self.fill_ready = self.fill_ready.max(front.readies[end - 1]);
                    self.fill_items
                        .push((front.view.slice_rows(start, end), corrupted));
                    front.next = end;
                    front.head_bytes_left = front.bytes_each;
                    if front.remaining() == 0 {
                        self.queue.pop_front();
                    }
                }
            }
        }

        let flushing = self.eos_queued && self.queue.is_empty();
        if self.fill == buffer_size || (flushing && self.fill > 0) {
            // Transmit one buffer.
            let bytes = self.fill;
            let window = self.cfg.carrier.window();
            let constraint = if self.inflight.len() >= window {
                self.inflight.pop_front().expect("window entry")
            } else {
                SimTime::ZERO
            };
            let start = self.fill_ready.max(constraint);
            let marshal_done = env.marshal(self.cfg.src, bytes, start);
            let (send_done, arrival) = self.transmit(env, bytes, marshal_done);
            self.inflight.push_back(send_done);
            self.stats.buffers_sent += 1;
            self.stats.first_send.get_or_insert(start);

            match arrival {
                Some(arrival) => {
                    let class = match self.cfg.carrier {
                        Carrier::Mpi { .. } => CarrierClass::Mpi,
                        Carrier::Tcp | Carrier::Udp => CarrierClass::Tcp,
                    };
                    let visible = env.demarshal(self.cfg.dst, self.cfg.flow, bytes, arrival, class);
                    self.stats.bytes_delivered += bytes;
                    self.stats.last_delivery = self.stats.last_delivery.max(visible);
                    for (item, corrupted) in self.fill_items.drain(..) {
                        if corrupted {
                            self.stats.elements_lost += item.rows() as u64;
                        } else {
                            out.delivered.push(item);
                        }
                    }
                    if !out.delivered.is_empty() {
                        out.delivered_at = Some(visible);
                    }
                }
                None => {
                    // The datagram was dropped: every element completing
                    // in it is lost, and a partially-packed element at
                    // the queue front is poisoned.
                    self.stats.buffers_dropped += 1;
                    self.stats.elements_lost += self
                        .fill_items
                        .drain(..)
                        .map(|(item, _)| item.rows() as u64)
                        .sum::<u64>();
                    if self.fill > 0 {
                        match self.queue.front_mut() {
                            Some(Node::Train(front))
                                if front.head_bytes_left > 0 && front.item.is_some() =>
                            {
                                front.head_corrupted = true;
                            }
                            Some(Node::Pack(front)) if front.head_bytes_left > 0 => {
                                front.head_corrupted = true;
                            }
                            _ => {}
                        }
                    }
                }
            }
            self.pending_bytes -= bytes;
            self.fill = 0;
            self.fill_ready = SimTime::ZERO;

            if let Some(data_ready) = self.next_buffer_ready(buffer_size) {
                // Another buffer is (or will become) ready: next cycle at
                // the earliest instant its marshal could start.
                let next_constraint = if self.inflight.len() >= window {
                    self.inflight[self.inflight.len() - window]
                } else {
                    SimTime::ZERO
                };
                out.next_cycle = Some(data_ready.max(next_constraint).max(now));
            } else if self.eos_queued && !self.eos_reported {
                self.eos_reported = true;
                out.eos_at = Some(self.stats.last_delivery.max(now));
                self.teardown(env);
            }
        } else if flushing && !self.eos_reported {
            // Nothing left to send: deliver EOS immediately.
            self.eos_reported = true;
            out.eos_at = Some(self.stats.last_delivery.max(now));
            self.teardown(env);
        }
        if out.delivered.is_empty() {
            // Nothing was delivered: keep the warm capacity for the
            // next transmitting cycle instead of handing back an empty
            // vector the consumer would drop.
            self.spare = std::mem::take(&mut out.delivered);
        }
        out
    }

    /// Whether a further buffer can be assembled (full buffer available,
    /// or EOS flush of a partial one), and if so, the ready time of the
    /// byte that completes it (or of the last queued byte when flushing
    /// a partial buffer). One walk answers both questions — this runs
    /// once per buffer cycle.
    fn next_buffer_ready(&self, buffer_size: u64) -> Option<SimTime> {
        let mut acc = self.fill;
        let mut ready = self.fill_ready;
        for node in &self.queue {
            match node {
                Node::Train(t) => {
                    ready = ready.max(t.head_ready);
                    acc += t.head_bytes_left;
                    if acc >= buffer_size {
                        return Some(ready);
                    }
                    if t.copies > 1 {
                        // Later copies are ready at head_ready + k*step;
                        // only as many as the buffer still needs
                        // contribute.
                        let k = (buffer_size - acc).div_ceil(t.bytes_each).min(t.copies - 1);
                        acc += k * t.bytes_each;
                        ready = ready.max(t.head_ready + SimDur::from_nanos(t.step.as_nanos() * k));
                        if acc >= buffer_size {
                            return Some(ready);
                        }
                    }
                }
                Node::Pack(p) => {
                    ready = ready.max(p.readies[p.next]);
                    acc += p.head_bytes_left;
                    if acc >= buffer_size {
                        return Some(ready);
                    }
                    let left = (p.remaining() - 1) as u64;
                    if left > 0 {
                        // Ready times are nondecreasing, so the k-th
                        // further element bounds the prefix max.
                        let k = (buffer_size - acc).div_ceil(p.bytes_each).min(left);
                        acc += k * p.bytes_each;
                        ready = ready.max(p.readies[p.next + k as usize]);
                        if acc >= buffer_size {
                            return Some(ready);
                        }
                    }
                }
            }
        }
        (self.eos_queued && acc > 0).then_some(ready)
    }

    fn transmit(
        &mut self,
        env: &mut Environment,
        bytes: u64,
        ready: SimTime,
    ) -> (SimTime, Option<SimTime>) {
        match self.cfg.carrier {
            Carrier::Mpi { .. } => {
                let o = env.mpi_transmit(self.cfg.flow, self.cfg.src, self.cfg.dst, bytes, ready);
                (o.inject_done, Some(o.delivered))
            }
            Carrier::Tcp => {
                let o = env.tcp_transmit(self.cfg.flow, self.cfg.src, self.cfg.dst, bytes, ready);
                (o.sent, Some(o.delivered))
            }
            Carrier::Udp => {
                env.udp_transmit(self.cfg.flow, self.cfg.src, self.cfg.dst, bytes, ready)
            }
        }
    }

    fn teardown(&mut self, env: &mut Environment) {
        if self.registered_inbound {
            env.unregister_inbound(self.cfg.flow);
            self.registered_inbound = false;
        }
    }

    /// Bytes of the filling buffer and of the queue's front and back
    /// nodes: the part of `pending_bytes` a probe walk can change.
    fn end_bytes(&self) -> u64 {
        let ends = match self.queue.len() {
            0 => 0,
            1 => self.queue[0].bytes_left(),
            n => self.queue[0].bytes_left() + self.queue[n - 1].bytes_left(),
        };
        self.fill + ends
    }

    /// Walks the channel's state through a coalescing probe.
    ///
    /// The send queue's front and back nodes are walked node by node
    /// (`Node::probe`): they are the only ones `cycle` and `enqueue`
    /// change. The nodes between them are one shape word, their
    /// [`StateProbe::fingerprint`], cached until the next push or pop
    /// (`InteriorWord`), so a digest costs the same for two pending
    /// arrays as for a hundred. A jump is then allowed only across
    /// periods that leave the interior as it was, and an advance leaves
    /// it alone.
    ///
    /// Element payloads (via `probe_item`), queue structure and protocol
    /// flags are shape; counters and clocks are extrapolatable. The
    /// buffer fill level is bounded by the buffer size so a jump can
    /// never carry it across a transmit boundary.
    pub fn probe(
        &mut self,
        env: &Environment,
        p: &mut StateProbe<'_>,
        mut probe_item: impl FnMut(&T, &mut StateProbe<'_>),
    ) {
        let ends_before = self.end_bytes();
        let len = self.queue.len();
        p.shape(len as u64);
        if let Some(front) = self.queue.front_mut() {
            front.probe(p, &mut probe_item);
        }
        if len > 2 {
            let pushes = self.pushes;
            let word = match self.interior {
                Some(i) if i.len == len && i.pushes == pushes => i.word,
                _ => {
                    let nodes = self.queue.range_mut(1..len - 1);
                    let word = StateProbe::fingerprint(|p| {
                        for node in nodes {
                            node.probe(p, &mut probe_item);
                        }
                    });
                    self.interior = Some(InteriorWord { len, pushes, word });
                    word
                }
            };
            p.shape(word);
        }
        if len > 1 {
            self.queue[len - 1].probe(p, &mut probe_item);
        }
        self.probe_rest(env, p, probe_item);
        // `pending_bytes` is derived state (filling buffer plus queue);
        // an advance changes only the filling buffer and the end nodes,
        // so moving it by their change keeps it equal to the sum.
        self.pending_bytes = self.pending_bytes - ends_before + self.end_bytes();
    }

    /// The part of [`StreamChannel::probe`] after the send queue.
    fn probe_rest(
        &mut self,
        env: &Environment,
        p: &mut StateProbe<'_>,
        mut probe_item: impl FnMut(&T, &mut StateProbe<'_>),
    ) {
        let buffer_size = self.buffer_size(env);
        p.bounded(&mut self.fill, buffer_size);
        p.time(&mut self.fill_ready);
        p.shape(self.fill_items.len() as u64);
        for (item, corrupted) in &self.fill_items {
            p.shape(*corrupted as u64);
            probe_item(item, p);
        }
        p.shape(self.inflight.len() as u64);
        for t in &mut self.inflight {
            p.time(t);
        }
        p.shape(self.eos_queued as u64);
        p.shape(self.eos_reported as u64);
        p.shape(self.registered_inbound as u64);
        let s = &mut self.stats;
        p.num(&mut s.bytes_enqueued);
        p.num(&mut s.bytes_delivered);
        p.num(&mut s.buffers_sent);
        p.num(&mut s.buffers_dropped);
        p.num(&mut s.elements_lost);
        // A monotone max over the queue length, which is probed as shape
        // above: constant across a jumped period, so extrapolating its
        // (zero) delta is exact.
        p.num(&mut s.queue_peak_trains);
        p.shape(s.first_send.is_some() as u64);
        if let Some(t) = &mut s.first_send {
            p.time(t);
        }
        p.time(&mut s.last_delivery);
    }

    /// The walk [`StreamChannel::probe`] replaced, kept as the tests'
    /// reference: every queue node walked, then `pending_bytes` rebuilt
    /// from scratch.
    #[cfg(test)]
    fn probe_per_node(
        &mut self,
        env: &Environment,
        p: &mut StateProbe<'_>,
        mut probe_item: impl FnMut(&T, &mut StateProbe<'_>),
    ) {
        p.shape(self.queue.len() as u64);
        for node in &mut self.queue {
            node.probe(p, &mut probe_item);
        }
        self.probe_rest(env, p, probe_item);
        self.pending_bytes = self.fill + self.queue.iter().map(Node::bytes_left).sum::<u64>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scsq_cluster::NodeId;

    fn mpi_cfg(buffer: u64, double: bool) -> ChannelConfig {
        ChannelConfig {
            flow: FlowId(1),
            src: NodeId::bg(1),
            dst: NodeId::bg(0),
            carrier: Carrier::Mpi { buffer, double },
        }
    }

    fn tcp_cfg() -> ChannelConfig {
        ChannelConfig {
            flow: FlowId(1),
            src: NodeId::be(0),
            dst: NodeId::bg(0),
            carrier: Carrier::Tcp,
        }
    }

    /// Runs a channel to completion, returning (deliveries, eos time).
    fn drain<T: Payload>(
        ch: &mut StreamChannel<T>,
        env: &mut Environment,
    ) -> (Vec<(SimTime, T)>, SimTime) {
        let mut deliveries = Vec::new();
        let mut at = SimTime::ZERO;
        loop {
            let out = ch.cycle(env, at);
            if let Some(t) = out.delivered_at {
                deliveries.extend(out.delivered.into_iter().map(|v| (t, v)));
            }
            if let Some(eos) = out.eos_at {
                return (deliveries, eos);
            }
            match out.next_cycle {
                Some(t) => at = t.max(at),
                None => panic!("channel stalled without EOS"),
            }
        }
    }

    #[test]
    fn small_elements_batch_into_one_buffer() {
        let mut env = Environment::lofar();
        let mut ch = StreamChannel::new(mpi_cfg(1000, false), &mut env);
        for i in 0..4 {
            ch.enqueue(i, 250, SimTime::ZERO);
        }
        ch.finish(SimTime::ZERO);
        let (deliveries, _) = drain(&mut ch, &mut env);
        assert_eq!(deliveries.len(), 4);
        // All four elements ride the same buffer: same delivery time.
        let t0 = deliveries[0].0;
        assert!(deliveries.iter().all(|(t, _)| *t == t0));
        assert_eq!(ch.stats().buffers_sent, 1);
    }

    #[test]
    fn large_element_spans_many_buffers() {
        let mut env = Environment::lofar();
        let mut ch = StreamChannel::new(mpi_cfg(1000, true), &mut env);
        ch.enqueue("big", 10_000, SimTime::ZERO);
        ch.finish(SimTime::ZERO);
        let (deliveries, _) = drain(&mut ch, &mut env);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(ch.stats().buffers_sent, 10);
        assert_eq!(ch.stats().bytes_delivered, 10_000);
    }

    #[test]
    fn partial_buffer_is_flushed_at_eos() {
        let mut env = Environment::lofar();
        let mut ch = StreamChannel::new(mpi_cfg(1000, false), &mut env);
        ch.enqueue((), 1500, SimTime::ZERO);
        ch.finish(SimTime::ZERO);
        let (deliveries, eos) = drain(&mut ch, &mut env);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(ch.stats().buffers_sent, 2, "1000 + 500 flush");
        assert!(eos >= deliveries[0].0);
        assert!(ch.is_finished());
    }

    #[test]
    fn empty_stream_still_delivers_eos() {
        let mut env = Environment::lofar();
        let mut ch = StreamChannel::<u32>::new(mpi_cfg(1000, false), &mut env);
        ch.finish(SimTime::from_micros(7));
        let out = ch.cycle(&mut env, SimTime::from_micros(7));
        assert_eq!(out.eos_at, Some(SimTime::from_micros(7)));
        assert!(out.delivered.is_empty());
        assert_eq!(out.delivered_at, None);
    }

    #[test]
    fn double_buffering_is_faster_for_large_buffers() {
        let total_elems = 20;
        let elem = 300_000u64;
        let run = |double: bool| {
            let mut env = Environment::lofar();
            let mut ch = StreamChannel::new(mpi_cfg(100_000, double), &mut env);
            for i in 0..total_elems {
                ch.enqueue(i, elem, SimTime::ZERO);
            }
            ch.finish(SimTime::ZERO);
            let (_, eos) = drain(&mut ch, &mut env);
            eos
        };
        let single = run(false);
        let double = run(true);
        assert!(
            double < single,
            "double buffering must overlap marshal with injection: single={single} double={double}"
        );
    }

    #[test]
    fn single_and_double_converge_for_tiny_buffers() {
        let run = |double: bool| {
            let mut env = Environment::lofar();
            let mut ch = StreamChannel::new(mpi_cfg(100, double), &mut env);
            for i in 0..5 {
                ch.enqueue(i, 10_000, SimTime::ZERO);
            }
            ch.finish(SimTime::ZERO);
            drain(&mut ch, &mut env).1
        };
        let single = run(false).as_nanos() as f64;
        let double = run(true).as_nanos() as f64;
        let gain = single / double;
        assert!(
            gain < 1.25,
            "sub-1K buffers are dominated by the padded transmit; gain={gain:.3}"
        );
    }

    #[test]
    fn tcp_channel_registers_and_unregisters_inbound() {
        let mut env = Environment::lofar();
        let mut ch = StreamChannel::new(tcp_cfg(), &mut env);
        assert_eq!(env.inbound_streams(0), 1);
        assert_eq!(env.inbound_hosts(), 1);
        ch.enqueue((), 100_000, SimTime::ZERO);
        ch.finish(SimTime::ZERO);
        drain(&mut ch, &mut env);
        assert_eq!(env.inbound_streams(0), 0);
        assert_eq!(env.inbound_hosts(), 0);
    }

    #[test]
    fn stats_track_bandwidth() {
        let mut env = Environment::lofar();
        let mut ch = StreamChannel::new(mpi_cfg(100_000, true), &mut env);
        for i in 0..10 {
            ch.enqueue(i, 1_000_000, SimTime::ZERO);
        }
        ch.finish(SimTime::ZERO);
        drain(&mut ch, &mut env);
        let bw = ch.stats().bandwidth_from(SimTime::ZERO);
        // Must be within physical range: positive, below the 175 MB/s
        // torus link rate.
        assert!(bw > 10e6 && bw < 175e6, "bw={bw}");
    }

    #[test]
    fn deliveries_are_monotone_in_time() {
        let mut env = Environment::lofar();
        let mut ch = StreamChannel::new(mpi_cfg(1000, true), &mut env);
        for i in 0..50 {
            ch.enqueue(i, 3_000, SimTime::from_micros(i as u64 * 10));
        }
        ch.finish(SimTime::from_millis(10));
        let (deliveries, eos) = drain(&mut ch, &mut env);
        assert_eq!(deliveries.len(), 50);
        let mut prev = SimTime::ZERO;
        for (t, i) in &deliveries {
            assert!(*t >= prev, "delivery of {i} went back in time");
            prev = *t;
        }
        assert!(eos >= prev);
    }

    #[test]
    fn udp_drops_under_backlog_and_accounts_losses() {
        let mut env = Environment::lofar();
        let cfg = ChannelConfig {
            flow: FlowId(1),
            src: NodeId::be(0),
            dst: NodeId::bg(0),
            carrier: Carrier::Udp,
        };
        let mut ch = StreamChannel::new(cfg, &mut env);
        // Offer far more than the I/O node forwards: everything is
        // ready at t=0, so the backlog blows past the drop threshold.
        let n = 600usize;
        for i in 0..n {
            ch.enqueue(i, 8_000, SimTime::ZERO);
        }
        ch.finish(SimTime::ZERO);
        let (deliveries, _) = drain_udp(&mut ch, &mut env);
        let stats = ch.stats();
        assert!(stats.buffers_dropped > 0, "overload must drop datagrams");
        assert_eq!(
            deliveries.len() as u64 + stats.elements_lost,
            n as u64,
            "every element is delivered or accounted lost"
        );
        assert!(
            stats.bytes_delivered < stats.bytes_enqueued,
            "lost bytes must not count as delivered"
        );
        // Delivered elements keep their order.
        let ids: Vec<usize> = deliveries.iter().map(|(_, i)| *i).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    fn drain_udp(
        ch: &mut StreamChannel<usize>,
        env: &mut Environment,
    ) -> (Vec<(SimTime, usize)>, SimTime) {
        let mut deliveries = Vec::new();
        let mut at = SimTime::ZERO;
        loop {
            let out = ch.cycle(env, at);
            if let Some(t) = out.delivered_at {
                deliveries.extend(out.delivered.into_iter().map(|v| (t, v)));
            }
            if let Some(eos) = out.eos_at {
                return (deliveries, eos);
            }
            at = out.next_cycle.expect("progress until EOS").max(at);
        }
    }

    #[test]
    fn identical_elements_coalesce_into_one_train() {
        let mut env = Environment::lofar();
        let mut ch = StreamChannel::new(mpi_cfg(1000, false), &mut env);
        for _ in 0..100 {
            ch.enqueue("x", 250, SimTime::ZERO);
        }
        assert_eq!(ch.queue.len(), 1, "identical elements form one train");
        let Node::Train(t) = &ch.queue[0] else {
            panic!("coalesced elements stay a train");
        };
        assert_eq!(t.copies, 100);
        ch.finish(SimTime::ZERO);
        let (deliveries, _) = drain(&mut ch, &mut env);
        assert_eq!(deliveries.len(), 100);
        assert_eq!(ch.stats().buffers_sent, 25, "4 x 250 bytes per buffer");
    }

    #[test]
    fn arithmetic_ready_progression_extends_a_train() {
        let mut env = Environment::lofar();
        let mut ch = StreamChannel::new(mpi_cfg(1000, false), &mut env);
        for i in 0..50u64 {
            ch.enqueue("x", 500, SimTime::from_micros(i * 10));
        }
        assert_eq!(ch.queue.len(), 1);
        let Node::Train(t) = &ch.queue[0] else {
            panic!("arithmetic run stays a train");
        };
        assert_eq!(t.step, SimDur::from_micros(10));
        // Breaking the progression starts a new train.
        ch.enqueue("x", 500, SimTime::from_millis(10));
        assert_eq!(ch.queue.len(), 2);
        // A different payload always starts a new train.
        ch.enqueue("y", 500, SimTime::from_millis(10));
        assert_eq!(ch.queue.len(), 3);
    }

    #[test]
    fn trains_and_singletons_deliver_identically() {
        // The same workload enqueued as one mergeable run vs. forcibly
        // distinct elements must produce identical timing.
        let run = |distinct: bool| {
            let mut env = Environment::lofar();
            let mut ch = StreamChannel::new(mpi_cfg(1000, true), &mut env);
            for i in 0..200u64 {
                let tag = if distinct { i } else { 0 };
                ch.enqueue(tag, 300, SimTime::from_nanos(i * 2_500));
            }
            ch.finish(SimTime::from_millis(1));
            let (deliveries, eos) = drain(&mut ch, &mut env);
            let times: Vec<SimTime> = deliveries.iter().map(|(t, _)| *t).collect();
            (times, eos)
        };
        let (t_merged, eos_merged) = run(false);
        let (t_distinct, eos_distinct) = run(true);
        assert_eq!(t_merged, t_distinct);
        assert_eq!(eos_merged, eos_distinct);
    }

    #[test]
    fn queue_peak_tracks_the_deepest_backlog() {
        let mut env = Environment::lofar();
        let mut ch = StreamChannel::new(mpi_cfg(1000, false), &mut env);
        // Three distinct payloads → three trains queued at once.
        ch.enqueue("a", 250, SimTime::ZERO);
        ch.enqueue("b", 250, SimTime::ZERO);
        ch.enqueue("c", 250, SimTime::ZERO);
        assert_eq!(ch.stats().queue_peak_trains, 3);
        ch.finish(SimTime::ZERO);
        drain(&mut ch, &mut env);
        // Draining never lowers the mark.
        assert_eq!(ch.stats().queue_peak_trains, 3);
        // Extending a train does not count as extra depth.
        let mut ch2 = StreamChannel::new(mpi_cfg(1000, false), &mut env);
        for _ in 0..100 {
            ch2.enqueue("x", 250, SimTime::ZERO);
        }
        assert_eq!(ch2.stats().queue_peak_trains, 1);
    }

    #[test]
    #[should_panic(expected = "enqueue after finish")]
    fn enqueue_after_finish_panics() {
        let mut env = Environment::lofar();
        let mut ch = StreamChannel::new(mpi_cfg(1000, false), &mut env);
        ch.finish(SimTime::ZERO);
        ch.enqueue((), 10, SimTime::ZERO);
    }

    /// The interior fingerprint against the per-node walk it replaced.
    mod interior {
        use super::*;
        use proptest::prelude::*;
        use scsq_sim::Snapshot;

        /// A run of consecutive element ids; one id is `len == 1`.
        #[derive(Debug, Clone, PartialEq)]
        struct Span {
            first: u64,
            len: usize,
        }

        impl Payload for Span {
            fn rows(&self) -> usize {
                self.len
            }

            fn slice_rows(&self, start: usize, end: usize) -> Span {
                Span {
                    first: self.first + start as u64,
                    len: end - start,
                }
            }
        }

        fn item_shape(s: &Span, p: &mut StateProbe<'_>) {
            p.shape(s.first);
            p.shape(s.len as u64);
        }

        #[derive(Debug, Clone)]
        enum Op {
            /// The shared element (one size per case), ready one train
            /// step after the last element, or `late` later than that
            /// when `late > 0`.
            Equal {
                late: u64,
            },
            /// A fresh element, `gap` after the last.
            Distinct {
                bytes_sel: usize,
                gap: u64,
            },
            /// A fresh run of `rows` elements, `gap` apart.
            Run {
                rows: usize,
                bytes_sel: usize,
                gap: u64,
            },
            Cycle(usize),
            Digest,
            /// Digests, then replays the deltas from the digest before,
            /// if the two compare.
            Advance,
        }

        fn op() -> impl Strategy<Value = Op> {
            // Weighted by the selector: pushes, cycles and digests
            // dominate, so queues grow, turn over and get compared.
            (0u8..17, 0usize..4, 0u64..5, 1usize..6).prop_map(|(sel, bytes_sel, n, rows)| match sel
            {
                0..=1 => Op::Equal { late: 0 },
                2..=3 => Op::Equal { late: n + 1 },
                4..=5 => Op::Distinct { bytes_sel, gap: n },
                6 => Op::Run {
                    rows,
                    bytes_sel,
                    gap: n,
                },
                7..=10 => Op::Cycle(rows.min(3)),
                11..=14 => Op::Digest,
                _ => Op::Advance,
            })
        }

        /// One digest of each walk, and where the reference walk keeps
        /// the interior: `front` coordinates, then `interior` more.
        struct Digest {
            new: Snapshot,
            reference: Snapshot,
            front: usize,
            interior: usize,
        }

        impl Digest {
            fn interior_nums(&self) -> &[u64] {
                &self.reference.nums()[self.front..self.front + self.interior]
            }
        }

        /// Coordinates one node records.
        fn width(node: &mut Node<Span>) -> usize {
            let mut p = StateProbe::digest();
            node.probe(&mut p, &mut item_shape);
            p.finish().nums().len()
        }

        /// Channel state that is not a cache, for comparing two channels.
        fn state(ch: &StreamChannel<Span>) -> String {
            format!(
                "{:?} {} {:?} {:?} {} {:?} {} {} {:?}",
                ch.queue,
                ch.fill,
                ch.fill_ready,
                ch.fill_items,
                ch.pending_bytes,
                ch.inflight,
                ch.eos_queued,
                ch.eos_reported,
                ch.stats
            )
        }

        /// Periods a jump may replay `deltas` from `snap`: every
        /// depleting coordinate stays clear of zero, and at most 3.
        fn periods(snap: &Snapshot, deltas: &[i64]) -> u64 {
            snap.nums()
                .iter()
                .zip(deltas)
                .filter(|(_, &d)| d < 0)
                .map(|(&x, &d)| (x / d.unsigned_abs()).saturating_sub(2))
                .fold(3, u64::min)
        }

        fn deltas(a: &Snapshot, b: &Snapshot) -> Vec<i64> {
            a.nums()
                .iter()
                .zip(b.nums())
                .map(|(&x, &y)| y.wrapping_sub(x) as i64)
                .collect()
        }

        /// Two channels driven alike: one walked by `probe`, one by the
        /// per-node reference.
        struct Pair {
            new: StreamChannel<Span>,
            new_env: Environment,
            reference: StreamChannel<Span>,
            ref_env: Environment,
            sizes: [u64; 4],
            equal_bytes: u64,
            /// Whether distinct elements and runs are pushed too; when
            /// not, their ops push the shared element, and the queue's
            /// nodes all share one shape.
            mixed: bool,
            gap_unit: u64,
            step: u64,
            last_ready: u64,
            next_id: u64,
            now: SimTime,
            digests: Vec<Digest>,
        }

        impl Pair {
            fn new(cfg: ChannelConfig) -> Pair {
                let udp = cfg.carrier == Carrier::Udp;
                let env = || {
                    let mut env = Environment::lofar();
                    if udp {
                        // A 3 MB segment ahead of the stream keeps the
                        // I/O node's forwarder busy for ~80 ms: datagrams
                        // of the first ~60 ms are dropped.
                        env.tcp_transmit(
                            FlowId(99),
                            NodeId::be(1),
                            NodeId::bg(0),
                            3_000_000,
                            SimTime::ZERO,
                        );
                    }
                    env
                };
                let (mut new_env, mut ref_env) = (env(), env());
                Pair {
                    new: StreamChannel::new(cfg, &mut new_env),
                    reference: StreamChannel::new(cfg, &mut ref_env),
                    new_env,
                    ref_env,
                    sizes: if udp {
                        [3_000, 8_192, 10_000, 20_000]
                    } else {
                        [250, 1_000, 1_500, 3_000]
                    },
                    equal_bytes: 0,
                    mixed: true,
                    gap_unit: if udp { 2_000_000 } else { 2_000 },
                    step: 0,
                    last_ready: 0,
                    next_id: 100,
                    now: SimTime::ZERO,
                    digests: Vec::new(),
                }
            }

            fn ready(&mut self, gap: u64) -> SimTime {
                self.last_ready += gap;
                SimTime::from_nanos(self.last_ready)
            }

            fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
                let op = match *op {
                    Op::Distinct { gap, .. } | Op::Run { gap, .. } if !self.mixed => {
                        &Op::Equal { late: gap }
                    }
                    _ => op,
                };
                match *op {
                    Op::Equal { late } => {
                        let gap = self.step + late * self.gap_unit;
                        let ready = self.ready(gap);
                        let item = Span { first: 7, len: 1 };
                        let bytes = self.equal_bytes;
                        self.new.enqueue(item.clone(), bytes, ready);
                        self.reference.enqueue(item, bytes, ready);
                    }
                    Op::Distinct { bytes_sel, gap } => {
                        let ready = self.ready(gap * self.gap_unit);
                        let item = Span {
                            first: self.next_id,
                            len: 1,
                        };
                        self.next_id += 1;
                        let bytes = self.sizes[bytes_sel];
                        self.new.enqueue(item.clone(), bytes, ready);
                        self.reference.enqueue(item, bytes, ready);
                    }
                    Op::Run {
                        rows,
                        bytes_sel,
                        gap,
                    } => {
                        let view = Span {
                            first: self.next_id,
                            len: rows,
                        };
                        self.next_id += rows as u64;
                        let readies: Vec<SimTime> =
                            (0..rows).map(|_| self.ready(gap * self.gap_unit)).collect();
                        let bytes = self.sizes[bytes_sel];
                        self.new.enqueue_run(view.clone(), bytes, readies.clone());
                        self.reference.enqueue_run(view, bytes, readies);
                    }
                    Op::Cycle(n) => {
                        for _ in 0..n {
                            let a = self.new.cycle(&mut self.new_env, self.now);
                            let b = self.reference.cycle(&mut self.ref_env, self.now);
                            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                            if let Some(t) = a.next_cycle {
                                self.now = self.now.max(t);
                            }
                        }
                    }
                    Op::Digest => self.digest()?,
                    Op::Advance => {
                        self.digest()?;
                        self.advance()?;
                    }
                }
                prop_assert_eq!(state(&self.new), state(&self.reference), "after {:?}", op);
                Ok(())
            }

            fn digest(&mut self) -> Result<(), TestCaseError> {
                let mut p = StateProbe::digest();
                self.new.probe(&self.new_env, &mut p, item_shape);
                let new = p.finish();
                // The cached interior word is the one a fresh walk takes.
                let cached = self.new.interior.take();
                let mut p = StateProbe::digest();
                self.new.probe(&self.new_env, &mut p, item_shape);
                prop_assert_eq!(&p.finish(), &new, "a stale interior word");
                self.new.interior = cached;

                let mut p = StateProbe::digest();
                self.reference
                    .probe_per_node(&self.ref_env, &mut p, item_shape);
                let reference = p.finish();
                let len = self.reference.queue.len();
                let front = self.reference.queue.front_mut().map_or(0, width);
                let interior = if len > 2 {
                    self.reference.queue.range_mut(1..len - 1).map(width).sum()
                } else {
                    0
                };
                // The new walk records the reference's coordinates less
                // the interior's.
                let r = reference.nums();
                let expected = [&r[..front], &r[front + interior..]].concat();
                prop_assert_eq!(new.nums(), &expected[..]);
                let d = Digest {
                    new,
                    reference,
                    front,
                    interior,
                };
                // Against every earlier digest, not just the last one:
                // comparable exactly when the reference is and the
                // interior is the same.
                for prev in &self.digests {
                    let reference_comparable = prev.reference.comparable(&d.reference);
                    let same = reference_comparable && prev.interior_nums() == d.interior_nums();
                    prop_assert_eq!(prev.new.comparable(&d.new), same);
                }
                self.digests.push(d);
                Ok(())
            }

            /// Replays the last two digests' deltas onto both channels,
            /// which stand where the last one was taken.
            fn advance(&mut self) -> Result<(), TestCaseError> {
                let [.., a, b] = &self.digests[..] else {
                    return Ok(());
                };
                if !a.new.comparable(&b.new) {
                    return Ok(());
                }
                let new_deltas = deltas(&a.new, &b.new);
                let ref_deltas = deltas(&a.reference, &b.reference);
                let p = periods(&b.new, &new_deltas);
                prop_assert_eq!(p, periods(&b.reference, &ref_deltas));
                if p == 0 {
                    return Ok(());
                }
                let mut adv = StateProbe::advance(&new_deltas, p);
                self.new.probe(&self.new_env, &mut adv, item_shape);
                let mut adv = StateProbe::advance(&ref_deltas, p);
                self.reference
                    .probe_per_node(&self.ref_env, &mut adv, item_shape);
                Ok(())
            }
        }

        fn config() -> impl Strategy<Value = ChannelConfig> {
            (0u8..3).prop_map(|c| match c {
                0 | 1 => mpi_cfg(1000, c == 1),
                _ => ChannelConfig {
                    flow: FlowId(1),
                    src: NodeId::be(0),
                    dst: NodeId::bg(0),
                    carrier: Carrier::Udp,
                },
            })
        }

        /// A queue of equal-shaped trains that loses its front and
        /// gains a back between two digests compares node by node, but
        /// its interior moved: the interior word refuses the pair.
        #[test]
        fn a_shifted_interior_refuses_the_comparison() {
            let mut pair = Pair::new(mpi_cfg(1000, false));
            pair.equal_bytes = 1_000;
            pair.step = 0;
            // Two copies per train, 2 µs apart, trains 4 µs apart: each
            // train is one buffer-sized element and its equal twin.
            let push = [Op::Equal { late: 2 }, Op::Equal { late: 1 }];
            for _ in 0..5 {
                push.iter().try_for_each(|op| pair.apply(op)).unwrap();
            }
            // The first transmits set the window and the first-send
            // time: digest after them, then turn over one train.
            for _ in 0..2 {
                pair.apply(&Op::Cycle(2)).unwrap();
                push.iter().try_for_each(|op| pair.apply(op)).unwrap();
                pair.apply(&Op::Digest).unwrap();
            }
            let [a, b] = &pair.digests[..] else {
                panic!("two digests");
            };
            assert!(a.reference.comparable(&b.reference));
            assert_ne!(a.interior_nums(), b.interior_nums());
            assert!(!a.new.comparable(&b.new));
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Random pushes (equal elements on an arithmetic or an
            /// irregular progression, distinct ones, runs), cycles (UDP
            /// drops poison heads), digests and advances, on a channel
            /// walked by `probe` and one walked node by node. Digests
            /// agree on what they compare and on every coordinate but
            /// the interior's, the cached interior word is always a
            /// fresh walk's, and advances leave equal channels.
            #[test]
            fn interior_word_matches_the_per_node_walk(
                cfg in config(),
                step in 0u64..3,
                equal_sel in 0usize..4,
                mixed in any::<bool>(),
                ops in proptest::collection::vec(op(), 1..80),
            ) {
                let mut pair = Pair::new(cfg);
                pair.mixed = mixed;
                pair.step = step * pair.gap_unit;
                pair.equal_bytes = pair.sizes[equal_sel];
                for op in &ops {
                    pair.apply(op)?;
                }
            }
        }
    }
}
