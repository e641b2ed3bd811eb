//! The BlueGene/L 3D torus interconnect.
//!
//! §2.1 of the paper: compute nodes are "connected by a 1.4 Gbps 3D torus
//! network"; "the time it takes for a compute node to send data to another
//! one depends on the relative locations of these nodes in the torus, and
//! how loaded the nodes between them are"; each node has a CPU dedicated
//! to communication (the *communication co-processor*). §3.1 adds two
//! behavioural facts this model must reproduce:
//!
//! * "1K is the smallest message size that can be exchanged in the
//!   BlueGene 3D torus" — messages are padded to [`TorusParams::min_packet`].
//! * "when messages are sent between non-adjacent nodes in BlueGene, they
//!   must be routed through the communication co-processors of the nodes
//!   in between. Communication will be slower if these co-processors are
//!   busy" — every hop occupies the intermediate node's co-processor
//!   ([`scsq_sim::SwitchingServer`]), and the receiving co-processor pays a
//!   switch penalty when alternating between source flows.
//!
//! The drop-off in bandwidth for buffers larger than ~1 KB, which the
//! paper attributes to cache misses in the send driver copy, is modeled by
//! [`TorusParams::cache_factor`] applied to the injection cost.

use crate::{Bandwidth, FlowId};
use scsq_sim::{FifoServer, ServerBank, SimDur, SimTime, SwitchingServer};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One hop of a precomputed route: the directed link it crosses and the
/// node it arrives at.
#[derive(Debug, Clone, Copy)]
struct RouteStep {
    /// Index into [`TorusNet::links`].
    link: u32,
    /// The hop's destination rank.
    node: u32,
}

/// All dimension-ordered routes of a partition, flattened into one step
/// array with per-pair offsets — built once per topology so the
/// per-message hot path never recomputes a path or hashes a link key.
///
/// The table is exactly [`TorusDims::route`] memoized: the route-cache
/// determinism test walks every `(src, dst)` pair and compares. It is
/// immutable and a pure function of the dimensions, so every net of
/// one topology shares one table ([`RouteTable::shared`]).
#[derive(Debug)]
struct RouteTable {
    /// `offsets[src * n + dst] .. offsets[src * n + dst + 1]` indexes
    /// the steps of the route from `src` to `dst`.
    offsets: Vec<u32>,
    steps: Vec<RouteStep>,
    /// Number of distinct directed links used by any route (the length
    /// of the dense link array).
    link_count: usize,
}

impl RouteTable {
    fn build(dims: TorusDims) -> RouteTable {
        let n = dims.node_count();
        let mut link_ids: HashMap<(usize, usize), u32> = HashMap::new();
        let mut offsets = Vec::with_capacity(n * n + 1);
        let mut steps = Vec::new();
        offsets.push(0u32);
        for src in 0..n {
            for dst in 0..n {
                let mut prev = src;
                for hop in dims.route(src, dst).into_iter().skip(1) {
                    let next_id = link_ids.len() as u32;
                    let link = *link_ids.entry((prev, hop)).or_insert(next_id);
                    steps.push(RouteStep {
                        link,
                        node: hop as u32,
                    });
                    prev = hop;
                }
                offsets.push(steps.len() as u32);
            }
        }
        RouteTable {
            offsets,
            steps,
            link_count: link_ids.len(),
        }
    }

    /// The table for `dims`, from a process-wide one-entry memo: a
    /// server or a sweep builds an environment per run on the same
    /// partition, and the table was most of that cost. The memo holds
    /// nothing a run can change, so it carries nothing between runs.
    fn shared(dims: TorusDims) -> Arc<RouteTable> {
        static LAST: Mutex<Option<(TorusDims, Arc<RouteTable>)>> = Mutex::new(None);
        // The entry is replaced whole, so a poisoned lock still guards
        // a valid one.
        let mut last = LAST.lock().unwrap_or_else(PoisonError::into_inner);
        match &*last {
            Some((cached, table)) if *cached == dims => Arc::clone(table),
            _ => {
                let table = Arc::new(RouteTable::build(dims));
                *last = Some((dims, Arc::clone(&table)));
                table
            }
        }
    }

    /// The precomputed steps of the `src → dst` route (empty when
    /// `src == dst`).
    fn steps(&self, n: usize, src: usize, dst: usize) -> &[RouteStep] {
        let i = src * n + dst;
        &self.steps[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Dimensions of a 3D torus partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TorusDims {
    /// Extent in X.
    pub x: usize,
    /// Extent in Y.
    pub y: usize,
    /// Extent in Z.
    pub z: usize,
}

/// A coordinate in the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TorusCoord {
    /// X coordinate.
    pub x: usize,
    /// Y coordinate.
    pub y: usize,
    /// Z coordinate.
    pub z: usize,
}

impl TorusDims {
    /// Creates torus dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn new(x: usize, y: usize, z: usize) -> Self {
        assert!(x > 0 && y > 0 && z > 0, "torus extents must be positive");
        TorusDims { x, y, z }
    }

    /// Total number of nodes in the partition.
    pub fn node_count(&self) -> usize {
        self.x * self.y * self.z
    }

    /// The coordinate of a node rank (x-major enumeration, matching the
    /// "enumeration of compute nodes in the BlueGene 3D torus is known"
    /// remark in §3.1).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn coord_of(&self, rank: usize) -> TorusCoord {
        assert!(rank < self.node_count(), "rank {rank} out of range");
        TorusCoord {
            x: rank % self.x,
            y: (rank / self.x) % self.y,
            z: rank / (self.x * self.y),
        }
    }

    /// The rank of a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the torus.
    pub fn rank_of(&self, c: TorusCoord) -> usize {
        assert!(
            c.x < self.x && c.y < self.y && c.z < self.z,
            "coordinate {c:?} outside torus {self:?}"
        );
        c.x + c.y * self.x + c.z * self.x * self.y
    }

    /// Signed step (+1 / -1 with wraparound) that moves `from` towards
    /// `to` along one dimension by the shorter way; ties go negative
    /// (towards lower coordinates), which reproduces the paper's Fig 7A
    /// layout where node 2's traffic to node 0 passes through node 1.
    fn step_towards(extent: usize, from: usize, to: usize) -> isize {
        if from == to {
            return 0;
        }
        let fwd = (to + extent - from) % extent;
        let back = (from + extent - to) % extent;
        if fwd < back {
            1
        } else {
            -1
        }
    }

    /// Hop distance on the torus metric (sum over dimensions of the
    /// shorter wrap distance).
    pub fn distance(&self, a: usize, b: usize) -> usize {
        let ca = self.coord_of(a);
        let cb = self.coord_of(b);
        let d = |extent: usize, p: usize, q: usize| {
            let fwd = (q + extent - p) % extent;
            let back = (p + extent - q) % extent;
            fwd.min(back)
        };
        d(self.x, ca.x, cb.x) + d(self.y, ca.y, cb.y) + d(self.z, ca.z, cb.z)
    }

    /// The dimension-ordered (X, then Y, then Z) route from `src` to
    /// `dst`, inclusive of both endpoints.
    ///
    /// # Panics
    ///
    /// Panics if either rank is out of range.
    pub fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        let mut cur = self.coord_of(src);
        let target = self.coord_of(dst);
        let mut path = vec![self.rank_of(cur)];
        while cur.x != target.x {
            let s = Self::step_towards(self.x, cur.x, target.x);
            cur.x = (cur.x as isize + s).rem_euclid(self.x as isize) as usize;
            path.push(self.rank_of(cur));
        }
        while cur.y != target.y {
            let s = Self::step_towards(self.y, cur.y, target.y);
            cur.y = (cur.y as isize + s).rem_euclid(self.y as isize) as usize;
            path.push(self.rank_of(cur));
        }
        while cur.z != target.z {
            let s = Self::step_towards(self.z, cur.z, target.z);
            cur.z = (cur.z as isize + s).rem_euclid(self.z as isize) as usize;
            path.push(self.rank_of(cur));
        }
        path
    }
}

/// Calibration constants for the torus model.
///
/// Defaults are calibrated so the three §3.1 observations reproduce:
/// p2p bandwidth peaks at a 1000-byte buffer; merge wants much larger
/// buffers; the balanced node selection beats the sequential one by up to
/// ~60 % (§5).
#[derive(Debug, Clone, PartialEq)]
pub struct TorusParams {
    /// Per-link bandwidth; the paper quotes a 1.4 Gbps torus.
    pub link: Bandwidth,
    /// Injection copy rate of the communication co-processor (user buffer
    /// → torus FIFO), before the cache derating.
    pub inject: Bandwidth,
    /// Store-and-forward rate at intermediate co-processors.
    pub forward: Bandwidth,
    /// Drain rate of the receiving co-processor.
    pub receive: Bandwidth,
    /// Fixed software overhead per MPI message.
    pub per_msg_overhead: SimDur,
    /// Penalty paid by a co-processor when consecutive messages belong to
    /// different flows (§3.1: "it switches between receiving messages
    /// from a and b. Less frequent switching improves communication").
    pub switch_cost: SimDur,
    /// Smallest torus message; smaller sends are padded (§3.1: "1K is the
    /// smallest message size that can be exchanged").
    pub min_packet: u64,
    /// Buffer size at which the injection copy starts missing cache.
    pub cache_knee: u64,
    /// Exponential scale of the cache degradation.
    pub cache_scale: f64,
    /// Asymptotic extra per-byte injection cost factor (0.9 ⇒ up to +90 %).
    pub cache_max: f64,
}

impl Default for TorusParams {
    fn default() -> Self {
        TorusParams {
            link: Bandwidth::from_gbps(1.4),
            inject: Bandwidth::from_mbytes_per_sec(190.0),
            forward: Bandwidth::from_gbps(1.4),
            receive: Bandwidth::from_mbytes_per_sec(560.0),
            per_msg_overhead: SimDur::from_nanos(500),
            switch_cost: SimDur::from_micros(25),
            min_packet: 1024,
            cache_knee: 1024,
            cache_scale: 8_192.0,
            cache_max: 0.9,
        }
    }
}

impl TorusParams {
    /// The cache-miss derating factor for a message of `bytes`: 1.0 at or
    /// below the knee, rising asymptotically to `1 + cache_max`.
    pub fn cache_factor(&self, bytes: u64) -> f64 {
        if bytes <= self.cache_knee {
            1.0
        } else {
            1.0 + self.cache_max
                * (1.0 - (-((bytes - self.cache_knee) as f64) / self.cache_scale).exp())
        }
    }

    /// Message size after torus minimum-packet padding.
    pub fn padded(&self, bytes: u64) -> u64 {
        bytes.max(self.min_packet)
    }
}

/// Timeline of a single message transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransmitOutcome {
    /// When the source co-processor finished injecting (the sender's
    /// buffer becomes reusable: local MPI send completion).
    pub inject_done: SimTime,
    /// When the message was fully received and drained at the destination.
    pub delivered: SimTime,
}

/// A live torus partition: geometry plus the contended resources.
#[derive(Debug)]
pub struct TorusNet {
    dims: TorusDims,
    params: TorusParams,
    coprocs: ServerBank<SwitchingServer>,
    /// Directed links in [`RouteTable`] id order — a dense array instead
    /// of a hash map, so the per-hop contention accounting is one index
    /// away from the precomputed route step.
    links: ServerBank<FifoServer>,
    routes: Arc<RouteTable>,
    messages: u64,
    bytes: u64,
    /// Memoized per-stage service times for the last message size seen:
    /// `(bytes, inject, link, forward, receive)`. Stream channels send
    /// runs of equal-sized buffers, so this one-entry memo turns four
    /// divisions per message into a compare. Pure derived data — never
    /// probed, never part of observable state.
    svc_memo: Option<(u64, SimDur, SimDur, SimDur, SimDur)>,
}

impl TorusNet {
    /// Creates an idle torus of the given dimensions.
    pub fn new(dims: TorusDims, params: TorusParams) -> Self {
        let coprocs = ServerBank::new(dims.node_count(), || {
            SwitchingServer::new(params.switch_cost)
        });
        let routes = RouteTable::shared(dims);
        let links = ServerBank::new(routes.link_count, FifoServer::new);
        TorusNet {
            dims,
            params,
            coprocs,
            links,
            routes,
            messages: 0,
            bytes: 0,
            svc_memo: None,
        }
    }

    /// Per-stage service times (inject, link, forward, receive) for a
    /// message of `bytes`, via the one-entry size memo.
    fn services(&mut self, bytes: u64) -> (SimDur, SimDur, SimDur, SimDur) {
        if let Some((b, i, l, f, r)) = self.svc_memo {
            if b == bytes {
                return (i, l, f, r);
            }
        }
        let padded = self.params.padded(bytes);
        let cache = self.params.cache_factor(bytes);
        let inject = self.params.per_msg_overhead
            + SimDur::for_bytes(padded, self.params.inject.bytes_per_sec() / cache);
        let link = SimDur::for_bytes(padded, self.params.link.bytes_per_sec());
        let fwd = SimDur::for_bytes(padded, self.params.forward.bytes_per_sec());
        let recv = SimDur::for_bytes(padded, self.params.receive.bytes_per_sec());
        self.svc_memo = Some((bytes, inject, link, fwd, recv));
        (inject, link, fwd, recv)
    }

    /// The torus geometry.
    pub fn dims(&self) -> TorusDims {
        self.dims
    }

    /// The calibration constants.
    pub fn params(&self) -> &TorusParams {
        &self.params
    }

    /// Total messages transmitted.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total payload bytes transmitted (before padding).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Transmits `bytes` from node `src` to node `dst` on behalf of
    /// `flow`, with the payload ready at the source at time `ready`.
    ///
    /// Returns the injection-completion and delivery times. All contended
    /// resources along the dimension-ordered route (source co-processor,
    /// links, intermediate co-processors, destination co-processor) are
    /// occupied accordingly, so concurrent flows interact exactly as the
    /// paper describes.
    ///
    /// # Panics
    ///
    /// Panics if a rank is out of range or `bytes` is zero.
    pub fn transmit(
        &mut self,
        flow: FlowId,
        src: usize,
        dst: usize,
        bytes: u64,
        ready: SimTime,
    ) -> TransmitOutcome {
        assert!(bytes > 0, "cannot transmit an empty message");
        assert!(src < self.dims.node_count(), "src rank {src} out of range");
        assert!(dst < self.dims.node_count(), "dst rank {dst} out of range");
        self.messages += 1;
        self.bytes += bytes;

        let (inject_service, link_service, fwd_service, recv_service) = self.services(bytes);

        if src == dst {
            // Same-node handoff: only the receive drain cost applies.
            let g = self
                .coprocs
                .serving(src)
                .serve_from(flow.0, ready, recv_service);
            return TransmitOutcome {
                inject_done: g.finish,
                delivered: g.finish,
            };
        }

        // 1. Injection at the source co-processor (driver copy; pays the
        //    per-message overhead and the cache derating).
        let inject = self
            .coprocs
            .serving(src)
            .serve_from(flow.0, ready, inject_service);
        let mut t = inject.finish;

        // 2. Hop along the precomputed dimension-ordered route: each link
        //    transfer is serialized on the link; each intermediate node's
        //    co-processor forwards the message (store-and-forward at
        //    buffer granularity).
        let n = self.dims.node_count();
        for step in self.routes.steps(n, src, dst) {
            let g = self
                .links
                .serving(step.link as usize)
                .serve(t, link_service);
            t = g.finish;
            let b = step.node as usize;
            if b != dst {
                let g = self.coprocs.serving(b).serve_from(flow.0, t, fwd_service);
                t = g.finish;
            }
        }

        // 3. Drain at the destination co-processor; alternating flows pay
        //    the switch penalty here.
        let g = self
            .coprocs
            .serving(dst)
            .serve_from(flow.0, t, recv_service);

        TransmitOutcome {
            inject_done: inject.finish,
            delivered: g.finish,
        }
    }

    /// Total switching penalty charged at a node's co-processor.
    pub fn switch_penalty_at(&self, rank: usize) -> SimDur {
        self.coprocs[rank].penalty_total()
    }

    /// Busy time accumulated at a node's co-processor.
    pub fn coproc_busy(&self, rank: usize) -> SimDur {
        self.coprocs[rank].busy_total()
    }

    /// The cached route from `src` to `dst` as a rank sequence inclusive
    /// of both endpoints — the same shape [`TorusDims::route`] returns,
    /// reconstructed from the route table (the determinism tests compare
    /// the two for every pair).
    pub fn cached_route(&self, src: usize, dst: usize) -> Vec<usize> {
        let n = self.dims.node_count();
        let steps = self.routes.steps(n, src, dst);
        let mut path = Vec::with_capacity(steps.len() + 1);
        path.push(src);
        path.extend(steps.iter().map(|s| s.node as usize));
        path
    }

    /// Whether `self` and `other` walk the same route-table allocation
    /// (nets of equal dimensions built back to back do).
    pub fn shares_routes_with(&self, other: &TorusNet) -> bool {
        Arc::ptr_eq(&self.routes, &other.routes)
    }

    /// Walks the torus's contended state through a coalescing probe:
    /// the co-processors, then the links, only those that have served
    /// (a query crosses a few of a partition's nodes and links).
    pub fn probe(&mut self, p: &mut scsq_sim::StateProbe<'_>, now: SimTime) {
        self.coprocs.probe_each(p, |c, p| c.probe(p, now));
        self.links.probe_each(p, FifoServer::probe);
        p.num(&mut self.messages);
        p.num(&mut self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> TorusDims {
        TorusDims::new(4, 4, 2)
    }

    #[test]
    fn rank_coord_round_trip() {
        let d = dims();
        for rank in 0..d.node_count() {
            assert_eq!(d.rank_of(d.coord_of(rank)), rank);
        }
    }

    #[test]
    fn route_is_dimension_ordered_and_shortest() {
        let d = dims();
        // Node 2 = (2,0,0) to node 0: passes through node 1 — this is the
        // paper's Figure 7A "sequential" topology.
        assert_eq!(d.route(2, 0), vec![2, 1, 0]);
        // Node 4 = (0,1,0) to node 0: one Y hop — Figure 7B "balanced".
        assert_eq!(d.route(4, 0), vec![4, 0]);
        // Wraparound: (3,0,0) to (0,0,0) is one hop the short way.
        assert_eq!(d.route(3, 0), vec![3, 0]);
    }

    #[test]
    fn cached_routes_match_fresh_dimension_ordered_routes() {
        // Paper-scale pset layout (4×4×2) and the largest partition the
        // scaling sweep uses (8×8×2): the route table must reproduce
        // TorusDims::route exactly for every pair, wraparound included.
        for d in [dims(), TorusDims::new(8, 8, 2)] {
            let net = TorusNet::new(d, TorusParams::default());
            for src in 0..d.node_count() {
                for dst in 0..d.node_count() {
                    assert_eq!(
                        net.cached_route(src, dst),
                        d.route(src, dst),
                        "src={src} dst={dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_routes_take_wraparound_links() {
        // x=0 → x=3 on a 4-extent axis is one hop across the wrap link,
        // not three hops forward; the cache must agree with the fresh
        // route on taking it.
        let d = dims();
        let src = d.rank_of(TorusCoord { x: 0, y: 0, z: 0 });
        let dst = d.rank_of(TorusCoord { x: 3, y: 0, z: 0 });
        let net = TorusNet::new(d, TorusParams::default());
        let cached = net.cached_route(src, dst);
        assert_eq!(cached, d.route(src, dst));
        assert_eq!(cached.len(), 2, "wrap link makes this a single hop");
    }

    #[test]
    fn route_length_equals_torus_distance() {
        let d = dims();
        for src in 0..d.node_count() {
            for dst in 0..d.node_count() {
                assert_eq!(
                    d.route(src, dst).len() - 1,
                    d.distance(src, dst),
                    "src={src} dst={dst}"
                );
            }
        }
    }

    #[test]
    fn cache_factor_is_flat_below_knee_and_bounded() {
        let p = TorusParams::default();
        assert_eq!(p.cache_factor(100), 1.0);
        assert_eq!(p.cache_factor(1024), 1.0);
        let large = p.cache_factor(10_000_000);
        assert!(large > 1.8 && large <= 1.0 + p.cache_max + 1e-9);
        // Monotone non-decreasing.
        let mut prev = 0.0;
        for b in [100u64, 1024, 2048, 8192, 65_536, 1_048_576] {
            let f = p.cache_factor(b);
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn small_messages_are_padded_to_min_packet() {
        let mut net = TorusNet::new(dims(), TorusParams::default());
        let a = net.transmit(FlowId(1), 1, 0, 100, SimTime::ZERO);
        let mut net2 = TorusNet::new(dims(), TorusParams::default());
        let b = net2.transmit(FlowId(1), 1, 0, 1024, SimTime::ZERO);
        assert_eq!(
            a.delivered, b.delivered,
            "sub-1K messages should cost the same as 1K"
        );
    }

    #[test]
    fn adjacent_transfer_timeline_is_consistent() {
        let mut net = TorusNet::new(dims(), TorusParams::default());
        let out = net.transmit(FlowId(1), 1, 0, 1024, SimTime::ZERO);
        assert!(out.inject_done > SimTime::ZERO);
        assert!(out.delivered > out.inject_done);
        assert_eq!(net.messages(), 1);
        assert_eq!(net.bytes(), 1024);
    }

    #[test]
    fn non_adjacent_transfer_occupies_intermediate_coproc() {
        let mut net = TorusNet::new(dims(), TorusParams::default());
        net.transmit(FlowId(1), 2, 0, 100_000, SimTime::ZERO);
        assert!(net.coproc_busy(1) > SimDur::ZERO, "node 1 must forward");
        assert!(net.coproc_busy(3) == SimDur::ZERO, "node 3 is off-route");
    }

    #[test]
    fn single_flow_pays_no_switch_penalty() {
        let mut net = TorusNet::new(dims(), TorusParams::default());
        for _ in 0..5 {
            net.transmit(FlowId(1), 1, 0, 10_000, SimTime::ZERO);
        }
        assert_eq!(net.switch_penalty_at(0), SimDur::ZERO);
    }

    #[test]
    fn concurrent_flows_pay_switch_penalties_at_the_receiver() {
        let mut net = TorusNet::new(dims(), TorusParams::default());
        for i in 0..6u64 {
            let src = if i % 2 == 0 { 1 } else { 4 };
            net.transmit(FlowId(i % 2), src, 0, 10_000, SimTime::ZERO);
        }
        // Five of the six messages see two active flows: 5 × 12.5 us.
        let expected = TorusParams::default().switch_cost * (5.0 / 2.0);
        assert_eq!(net.switch_penalty_at(0), expected);
        // The intermediate co-processor of an off-route node is silent.
        assert_eq!(net.switch_penalty_at(3), SimDur::ZERO);
    }

    #[test]
    fn sequential_topology_is_slower_than_balanced() {
        // Miniature of the paper's Fig 8: two generators streaming into
        // node 0, with large buffers so the switch penalty is amortized.
        let buffers = 50;
        let size = 262_144; // 256 KB
        let run = |second_src: usize| {
            let mut net = TorusNet::new(dims(), TorusParams::default());
            let mut last = SimTime::ZERO;
            for _ in 0..buffers {
                let a = net.transmit(FlowId(1), 1, 0, size, SimTime::ZERO);
                let b = net.transmit(FlowId(2), second_src, 0, size, SimTime::ZERO);
                last = a.delivered.max(b.delivered);
            }
            let total_bytes = 2 * buffers * size;
            total_bytes as f64 / last.as_secs_f64()
        };
        let sequential = run(2); // routes through node 1 (busy sending)
        let balanced = run(4); // independent route
        let ratio = balanced / sequential;
        assert!(
            ratio > 1.3,
            "balanced should clearly beat sequential, got ratio {ratio:.2} \
             (sequential {:.1} MB/s, balanced {:.1} MB/s)",
            sequential / 1e6,
            balanced / 1e6
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn transmit_rejects_bad_rank() {
        let mut net = TorusNet::new(dims(), TorusParams::default());
        net.transmit(FlowId(0), 0, 999, 1024, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "empty message")]
    fn transmit_rejects_empty_message() {
        let mut net = TorusNet::new(dims(), TorusParams::default());
        net.transmit(FlowId(0), 0, 1, 0, SimTime::ZERO);
    }
}
