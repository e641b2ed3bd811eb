//! The live hardware environment: networks, CPUs, I/O nodes, CNDBs.
//!
//! [`Environment`] owns one instance of every contended resource in the
//! paper's Figure 1 dataflow and exposes the timing primitives the stream
//! carriers ([`scsq_transport`](../scsq_transport/index.html)) compose:
//! marshal/demarshal CPU time, torus MPI transmission, and the
//! cross-cluster TCP path (Ethernet → I/O node → tree network).
//!
//! The I/O-node forwarding step implements the two coordination penalties
//! calibrated in [`HardwareSpec`]: a per-I/O-node stream-count factor and
//! a global external-host factor. Inbound flows must be registered via
//! [`Environment::register_inbound`] so these counts are known.

use crate::cndb::{AllocSeq, Cndb, CndbError};
use crate::ids::{ClusterName, NodeId, NodeKind};
use crate::specs::HardwareSpec;
use scsq_net::torus::TransmitOutcome;
use scsq_net::{Ethernet, FlowId, TorusDims, TorusNet, TreeNet};
use scsq_sim::{FifoServer, ServerBank, SimDur, SimTime, SplitMix64, SwitchingServer};
use std::collections::{BTreeMap, HashMap};

/// Which stream carrier a buffer traveled on; the receiving compute
/// node's de-marshal cost depends on it (torus DMA vs CIOD-proxied TCP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CarrierClass {
    /// MPI over the torus (intra-BlueGene).
    Mpi,
    /// TCP between clusters.
    Tcp,
}

/// Timeline of a cross-cluster (TCP) segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpOutcome {
    /// When the sending NIC released the segment (send buffer reusable).
    pub sent: SimTime,
    /// When the segment was fully delivered at the receiving node
    /// (before de-marshaling).
    pub delivered: SimTime,
}

/// The heterogeneous hardware environment of the paper's Figure 1.
#[derive(Debug)]
pub struct Environment {
    spec: HardwareSpec,
    torus: TorusNet,
    tree: TreeNet,
    ether: Ethernet,
    /// Marshal CPU per BlueGene compute node (the "compute" core).
    cn_tx: ServerBank<FifoServer>,
    /// De-marshal CPU per BlueGene compute node, with per-flow switch
    /// penalty (single-threaded CNK alternating between input streams).
    cn_rx: ServerBank<SwitchingServer>,
    /// Marshal CPU per Linux node (front-end then back-end, see
    /// `linux_slot`).
    linux_tx: ServerBank<FifoServer>,
    /// De-marshal CPU per Linux node.
    linux_rx: ServerBank<FifoServer>,
    /// Forwarding processor of each I/O node (CIOD).
    io_forward: ServerBank<FifoServer>,
    /// CNDB per cluster.
    cndbs: HashMap<ClusterName, Cndb>,
    /// Registered inbound flows: flow → (external ether host, pset), in
    /// flow order.
    inbound: BTreeMap<FlowId, (usize, usize)>,
    /// Inbound flow count per I/O node (indexed by pset). Derived from
    /// `inbound`, so never probed.
    io_streams: Vec<usize>,
    /// Refcount of inbound flows per external host. Derived from
    /// `inbound`, so never probed.
    host_flows: BTreeMap<usize, usize>,
    /// BlueGene rank → pset: the tree next-hop table (which I/O node
    /// carries a compute node's inter-cluster traffic), precomputed at
    /// construction so the per-message path does no spec arithmetic.
    pset_of_rank: Vec<usize>,
    /// pset → Ethernet host of its I/O node (the Ethernet next-hop
    /// table).
    io_host_of_pset: Vec<usize>,
    /// Multiplicative service-time jitter amplitude for every CPU-side
    /// service (generate, marshal, compute, de-marshal); 0 = exact.
    service_jitter: f64,
    /// Deterministic factor stream for the jitter draws.
    jitter_rng: SplitMix64,
    /// Number of factors drawn from `jitter_rng` since construction or
    /// the last [`Environment::set_service_jitter`]. Part of the
    /// determinism contract: every executor tier must consume the same
    /// stream positions, and this counter is how the tests verify it.
    /// Derived from the RNG state, so never probed.
    jitter_draws: u64,
    /// One-entry service memo for the marshal path (streams send runs of
    /// equal-sized buffers, so the division in `SimDur::for_bytes`
    /// almost always repeats verbatim).
    marshal_memo: SvcMemo,
    /// One-entry service memo for the de-marshal path.
    demarshal_memo: SvcMemo,
}

/// A one-entry `(bytes, rate) → SimDur::for_bytes(bytes, rate)` memo.
/// Pure derived data: never probed, never observable — a hit returns
/// exactly what the recomputation would.
#[derive(Debug, Clone, Copy, Default)]
struct SvcMemo {
    bytes: u64,
    rate: f64,
    service: SimDur,
}

impl SvcMemo {
    fn get(&mut self, bytes: u64, rate: f64) -> SimDur {
        if self.bytes != bytes || self.rate != rate {
            *self = SvcMemo {
                bytes,
                rate,
                service: SimDur::for_bytes(bytes, rate),
            };
        }
        self.service
    }
}

/// `service × factor`; the jitter-off factor 1.0 skips the multiply.
#[inline]
fn scaled(service: SimDur, factor: f64) -> SimDur {
    if factor == 1.0 {
        service
    } else {
        service * factor
    }
}

/// Seed of the service-jitter factor stream. Fixed so two runs with the
/// same options see the same jitter sequence (reproducibility), distinct
/// from the hardware-jitter seeds used by the bench harness.
const JITTER_SEED: u64 = 0x5c5a_917e_0b5e_ed01;

impl Environment {
    /// Builds an idle environment from a hardware specification.
    pub fn new(spec: HardwareSpec) -> Self {
        let dims = TorusDims::new(spec.torus_x, spec.torus_y, spec.torus_z);
        let cn_count = spec.bg_compute_nodes();
        let psets = spec.psets();
        let linux_count = spec.front_end_nodes + spec.back_end_nodes;
        // Ethernet host layout: [front-end | back-end | I/O nodes].
        let ether_hosts = linux_count + psets;

        let bg_kinds = (0..cn_count)
            .map(|rank| NodeKind::BgCompute {
                pset: spec.pset_of(rank),
            })
            .collect();
        let fe_kinds = (0..spec.front_end_nodes)
            .map(|i| NodeKind::Linux { ether_host: i })
            .collect();
        let be_kinds = (0..spec.back_end_nodes)
            .map(|i| NodeKind::Linux {
                ether_host: spec.front_end_nodes + i,
            })
            .collect();

        let mut cndbs = HashMap::new();
        cndbs.insert(
            ClusterName::BlueGene,
            Cndb::new(ClusterName::BlueGene, bg_kinds, psets, spec.pset_size),
        );
        cndbs.insert(
            ClusterName::FrontEnd,
            Cndb::new(ClusterName::FrontEnd, fe_kinds, 0, 0),
        );
        cndbs.insert(
            ClusterName::BackEnd,
            Cndb::new(ClusterName::BackEnd, be_kinds, 0, 0),
        );

        Environment {
            torus: TorusNet::new(dims, spec.torus.clone()),
            tree: TreeNet::new(psets, spec.tree.clone()),
            ether: Ethernet::new(ether_hosts, spec.ether.clone()),
            cn_tx: ServerBank::new(cn_count, FifoServer::new),
            cn_rx: ServerBank::new(cn_count, || SwitchingServer::new(spec.cn_recv_switch)),
            linux_tx: ServerBank::new(linux_count, FifoServer::new),
            linux_rx: ServerBank::new(linux_count, FifoServer::new),
            io_forward: ServerBank::new(psets, FifoServer::new),
            cndbs,
            inbound: BTreeMap::new(),
            io_streams: vec![0; psets],
            host_flows: BTreeMap::new(),
            pset_of_rank: (0..cn_count).map(|rank| spec.pset_of(rank)).collect(),
            io_host_of_pset: (0..psets).map(|p| linux_count + p).collect(),
            service_jitter: 0.0,
            jitter_rng: SplitMix64::new(JITTER_SEED),
            jitter_draws: 0,
            marshal_memo: SvcMemo::default(),
            demarshal_memo: SvcMemo::default(),
            spec,
        }
    }

    /// Enables multiplicative service-time jitter of amplitude `amp` on
    /// every CPU-side service, resetting the factor stream so equal
    /// options give bit-identical runs. Jitter makes every buffer
    /// period unique: each marshal/de-marshal draws a factor, the RNG
    /// state is opaque shape in [`Environment::probe`], and so
    /// train-coalescing provably cannot fire.
    pub fn set_service_jitter(&mut self, amp: f64) {
        assert!((0.0..1.0).contains(&amp), "amplitude must be in [0,1)");
        self.service_jitter = amp;
        self.jitter_rng = SplitMix64::new(JITTER_SEED);
        self.jitter_draws = 0;
    }

    /// The next service-scale factor (exactly 1.0 with jitter off — the
    /// scaling fast paths compare against it).
    fn jitter_factor(&mut self) -> f64 {
        if self.service_jitter > 0.0 {
            self.jitter_draws += 1;
            self.jitter_rng.jitter(self.service_jitter)
        } else {
            1.0
        }
    }

    /// Factors drawn from the jitter stream so far (0 with jitter off).
    /// Equal counts across executor tiers certify that bulk charging
    /// consumed exactly the per-element stream positions.
    pub fn jitter_draws(&self) -> u64 {
        self.jitter_draws
    }

    /// The standard LOFAR configuration ([`HardwareSpec::lofar`]).
    pub fn lofar() -> Self {
        Environment::new(HardwareSpec::lofar())
    }

    /// The hardware specification in effect.
    pub fn spec(&self) -> &HardwareSpec {
        &self.spec
    }

    /// The CNDB of `cluster`.
    pub fn cndb(&self, cluster: ClusterName) -> &Cndb {
        &self.cndbs[&cluster]
    }

    /// Mutable CNDB access (node selection allocates).
    pub fn cndb_mut(&mut self, cluster: ClusterName) -> &mut Cndb {
        self.cndbs.get_mut(&cluster).expect("cluster exists")
    }

    /// Selects and allocates a node in `cluster` per the allocation
    /// sequence, returning its [`NodeId`].
    ///
    /// # Errors
    ///
    /// Propagates [`CndbError`] when the sequence has no available node.
    pub fn place(&mut self, cluster: ClusterName, seq: &AllocSeq) -> Result<NodeId, CndbError> {
        let index = self.cndb_mut(cluster).select(seq)?;
        Ok(NodeId::new(cluster, index))
    }

    /// The Ethernet host index of a node, if it has a NIC (Linux nodes
    /// do; BlueGene compute nodes do not — they reach Ethernet through
    /// their pset's I/O node).
    pub fn ether_host_of(&self, node: NodeId) -> Option<usize> {
        match node.cluster {
            ClusterName::FrontEnd => Some(node.index),
            ClusterName::BackEnd => Some(self.spec.front_end_nodes + node.index),
            ClusterName::BlueGene => None,
        }
    }

    /// The Ethernet host index of pset `pset`'s I/O node.
    pub fn io_host(&self, pset: usize) -> usize {
        self.io_host_of_pset[pset]
    }

    /// The pset of a BlueGene compute node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a BlueGene node.
    pub fn pset_of(&self, node: NodeId) -> usize {
        assert_eq!(
            node.cluster,
            ClusterName::BlueGene,
            "pset_of called on {node}"
        );
        self.pset_of_rank[node.index]
    }

    // ----- CPU primitives ---------------------------------------------

    /// Charges element-generation CPU time on `node` for `bytes` of
    /// output ready at `ready`; returns when generation completes.
    pub fn generate(&mut self, node: NodeId, bytes: u64, ready: SimTime) -> SimTime {
        let factor = self.jitter_factor();
        let (server, rate) = self.tx_server(node, true);
        let service = scaled(SimDur::for_bytes(bytes, rate), factor);
        server.serve(ready, service).finish
    }

    /// `count` chained [`Environment::generate`] calls in one: element
    /// `i` starts generating when element `i - 1` is done (the first at
    /// `ready`), and each element's finish time goes to `out` (cleared
    /// first). Returns the last finish time (`ready` when `count` is 0).
    /// Call-for-call identical to the loop
    /// `t = generate(node, bytes, t)` — same serve sequence, same
    /// jitter-draw positions: the sibling of
    /// [`Environment::compute_each`] for a source that emits a whole
    /// column of same-sized elements.
    pub fn generate_each(
        &mut self,
        node: NodeId,
        bytes: u64,
        count: u64,
        ready: SimTime,
        out: &mut Vec<SimTime>,
    ) -> SimTime {
        out.clear();
        self.charge_run(node, true, bytes, count, ready, Some(out))
    }

    /// The one bulk charging loop, behind [`Environment::generate_each`],
    /// [`Environment::compute_each`] and [`Environment::compute_bulk`]:
    /// `count` services of `bytes` each on `node`'s tx server, drawn and
    /// served exactly as `count` scalar calls would. With `out` every
    /// element is served on its own and its finish time pushed; without,
    /// the individually rounded services go through one serve of their
    /// sum. Chaining each arrival on the previous finish is also what
    /// `count` serves at a shared `ready` do: after the first serve the
    /// server is busy until that finish, which is not before `ready`.
    ///
    /// The jitter stream and the server are copied out, advanced in
    /// locals and written back once. Nothing can observe the stale
    /// originals in between: the loop calls nothing outside this
    /// function but the inlined `jitter`, `serve` and `SimDur` arithmetic.
    /// An empty run changes nothing and returns `ready`.
    fn charge_run(
        &mut self,
        node: NodeId,
        generating: bool,
        bytes: u64,
        count: u64,
        ready: SimTime,
        out: Option<&mut Vec<SimTime>>,
    ) -> SimTime {
        if count == 0 {
            return ready;
        }
        let amp = self.service_jitter;
        let mut rng = self.jitter_rng.clone();
        let (slot, rate) = self.tx_server(node, generating);
        let mut server = slot.clone();
        let base = SimDur::for_bytes(bytes, rate);
        let mut service = || {
            if amp > 0.0 {
                scaled(base, rng.jitter(amp))
            } else {
                base
            }
        };
        let finish = match out {
            Some(out) => {
                let mut t = ready;
                out.extend((0..count).map(|_| {
                    t = server.serve(t, service()).finish;
                    t
                }));
                t
            }
            None => {
                let total = (0..count).map(|_| service()).sum();
                server.serve(ready, total).finish
            }
        };
        *slot = server;
        self.jitter_rng = rng;
        if amp > 0.0 {
            self.jitter_draws += count;
        }
        finish
    }

    /// Charges marshaling CPU time (§2.3 step ii) on `node`.
    pub fn marshal(&mut self, node: NodeId, bytes: u64, ready: SimTime) -> SimTime {
        let factor = self.jitter_factor();
        let mut memo = self.marshal_memo;
        let (server, rate) = self.tx_server(node, false);
        let service = scaled(memo.get(bytes, rate), factor);
        let finish = server.serve(ready, service).finish;
        self.marshal_memo = memo;
        finish
    }

    /// Charges general stream-operator compute time on `node`'s compute
    /// CPU, expressed as `bytes_equiv` bytes of memory traffic (used for
    /// `fft` and other expensive functions in SQEPs).
    pub fn compute(&mut self, node: NodeId, bytes_equiv: u64, ready: SimTime) -> SimTime {
        if bytes_equiv == 0 {
            return ready;
        }
        let factor = self.jitter_factor();
        let (server, rate) = self.tx_server(node, false);
        let service = scaled(SimDur::for_bytes(bytes_equiv, rate), factor);
        server.serve(ready, service).finish
    }

    /// Bulk form of [`Environment::compute`]: charges `count` elements
    /// of `bytes_equiv` compute each, all ready at `ready`, in a single
    /// FIFO serve of the summed service time. Because every element of a
    /// delivered batch shares one arrival time, N back-to-back serves
    /// and one serve of the sum produce the same finish time, busy-until
    /// and busy-total — so this is observably identical to the
    /// per-element loop while doing one queue transaction. It draws
    /// exactly `count` jitter factors (the same stream positions the
    /// scalar path consumes) and rounds each element's service
    /// individually before summing, keeping jittered runs byte-identical
    /// across tiers. `bytes_equiv == 0` returns `ready` without drawing,
    /// matching the per-element fast path.
    pub fn compute_bulk(
        &mut self,
        node: NodeId,
        bytes_equiv: u64,
        count: u64,
        ready: SimTime,
    ) -> SimTime {
        if bytes_equiv == 0 || count == 0 {
            return ready;
        }
        self.charge_run(node, false, bytes_equiv, count, ready, None)
    }

    /// Per-element form of [`Environment::compute_bulk`] that reports
    /// each element's individual finish time into `out` (cleared first).
    /// Call-for-call identical to `count` successive
    /// [`Environment::compute`] calls at the same `ready` — same serve
    /// sequence, same jitter-draw positions — so a relay that forwards
    /// each survivor at its own compute-finish time stays byte-identical
    /// to the scalar walk while resolving the service rate once.
    /// `bytes_equiv == 0` fills `out` with `ready` without drawing,
    /// matching the per-element fast path.
    pub fn compute_each(
        &mut self,
        node: NodeId,
        bytes_equiv: u64,
        count: u64,
        ready: SimTime,
        out: &mut Vec<SimTime>,
    ) {
        out.clear();
        if bytes_equiv == 0 {
            out.resize(count as usize, ready);
            return;
        }
        self.charge_run(node, false, bytes_equiv, count, ready, Some(out));
    }

    /// Charges de-marshaling CPU time (§2.3 step v) on `node` for a
    /// buffer of `flow` received over `carrier`; BlueGene compute nodes
    /// pay a switch penalty when alternating between flows, and TCP
    /// buffers cost far more per byte than MPI ones (CIOD-proxied socket
    /// reads vs torus DMA).
    pub fn demarshal(
        &mut self,
        node: NodeId,
        flow: FlowId,
        bytes: u64,
        ready: SimTime,
        carrier: CarrierClass,
    ) -> SimTime {
        match node.cluster {
            ClusterName::BlueGene => {
                let (rate, switch) = match carrier {
                    // Torus DMA: alternation is penalized at the
                    // co-processor, not on the compute CPU.
                    CarrierClass::Mpi => (self.spec.cn_demarshal_mpi.bytes_per_sec(), SimDur::ZERO),
                    CarrierClass::Tcp => (
                        self.spec.cn_demarshal_tcp.bytes_per_sec(),
                        self.spec.cn_recv_switch,
                    ),
                };
                let factor = self.jitter_factor();
                let service = scaled(self.demarshal_memo.get(bytes, rate), factor);
                self.cn_rx
                    .serving(node.index)
                    .serve_from_with_cost(flow.0, ready, service, switch)
                    .finish
            }
            _ => {
                let factor = self.jitter_factor();
                let slot = self.linux_slot(node);
                let rate = self.spec.linux_demarshal.bytes_per_sec();
                let service = scaled(self.demarshal_memo.get(bytes, rate), factor);
                self.linux_rx.serving(slot).serve(ready, service).finish
            }
        }
    }

    /// Forced inline: the per-element generate, marshal and compute
    /// paths each resolve their server here, and with the bank's
    /// first-serve check it outgrew what the inliner takes unasked,
    /// which put a call on every marshal.
    #[inline(always)]
    fn tx_server(&mut self, node: NodeId, generating: bool) -> (&mut FifoServer, f64) {
        match node.cluster {
            ClusterName::BlueGene => {
                let rate = if generating {
                    self.spec.cn_generate.bytes_per_sec()
                } else {
                    self.spec.cn_marshal.bytes_per_sec()
                };
                (self.cn_tx.serving(node.index), rate)
            }
            _ => {
                let rate = if generating {
                    self.spec.linux_generate.bytes_per_sec()
                } else {
                    self.spec.linux_marshal.bytes_per_sec()
                };
                let slot = self.linux_slot(node);
                (self.linux_tx.serving(slot), rate)
            }
        }
    }

    fn linux_slot(&self, node: NodeId) -> usize {
        match node.cluster {
            ClusterName::FrontEnd => node.index,
            ClusterName::BackEnd => self.spec.front_end_nodes + node.index,
            ClusterName::BlueGene => unreachable!("BlueGene nodes have no Linux CPU slot"),
        }
    }

    // ----- network primitives -----------------------------------------

    /// Transmits an MPI buffer between two BlueGene compute nodes over
    /// the torus.
    ///
    /// # Panics
    ///
    /// Panics if either node is not a BlueGene compute node.
    pub fn mpi_transmit(
        &mut self,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        ready: SimTime,
    ) -> TransmitOutcome {
        assert_eq!(src.cluster, ClusterName::BlueGene, "MPI src must be bg");
        assert_eq!(dst.cluster, ClusterName::BlueGene, "MPI dst must be bg");
        self.torus
            .transmit(flow, src.index, dst.index, bytes, ready)
    }

    /// Transmits a TCP segment between clusters. Supported paths:
    /// Linux → Linux (Ethernet), Linux → BlueGene compute node (Ethernet
    /// → I/O node → tree), and BlueGene compute node → Linux (tree → I/O
    /// node → Ethernet).
    ///
    /// # Panics
    ///
    /// Panics on a BlueGene → BlueGene pair (those streams use MPI; §2.3:
    /// "MPI is always used inside the BlueGene ... TCP is always used
    /// when communicating between clusters").
    pub fn tcp_transmit(
        &mut self,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        ready: SimTime,
    ) -> TcpOutcome {
        match (src.cluster, dst.cluster) {
            (ClusterName::BlueGene, ClusterName::BlueGene) => {
                panic!("intra-BlueGene streams must use the MPI carrier")
            }
            (_, ClusterName::BlueGene) => {
                // Inbound: sender NIC → switch → I/O node NIC → CIOD
                // forward → tree network → compute node.
                let src_host = self.ether_host_of(src).expect("linux sender has a NIC");
                let pset = self.pset_of(dst);
                let io = self.io_host(pset);
                let e = self.ether.transmit(flow, src_host, io, bytes, ready);
                let fwd = self.io_forward_serve(pset, bytes, e.delivered);
                let delivered = self.tree.transfer(flow, pset, bytes, fwd);
                TcpOutcome {
                    sent: e.sent,
                    delivered,
                }
            }
            (ClusterName::BlueGene, _) => {
                // Outbound: compute node → tree → CIOD → Ethernet.
                let pset = self.pset_of(src);
                let io = self.io_host(pset);
                let dst_host = self.ether_host_of(dst).expect("linux receiver has a NIC");
                let t = self.tree.transfer(flow, pset, bytes, ready);
                let fwd = self.io_forward_serve(pset, bytes, t);
                let e = self.ether.transmit(flow, io, dst_host, bytes, fwd);
                TcpOutcome {
                    sent: t,
                    delivered: e.delivered,
                }
            }
            _ => {
                let src_host = self.ether_host_of(src).expect("linux sender");
                let dst_host = self.ether_host_of(dst).expect("linux receiver");
                if src_host == dst_host {
                    // Loopback between co-located RPs: a kernel memory
                    // copy, no NIC involved.
                    let done = ready + SimDur::from_micros(10) + SimDur::for_bytes(bytes, 2e9);
                    return TcpOutcome {
                        sent: done,
                        delivered: done,
                    };
                }
                let e = self.ether.transmit(flow, src_host, dst_host, bytes, ready);
                TcpOutcome {
                    sent: e.sent,
                    delivered: e.delivered,
                }
            }
        }
    }

    /// Transmits a UDP datagram between clusters. Same path as
    /// [`Environment::tcp_transmit`], but with no flow control: when the
    /// I/O node's forwarding backlog exceeds
    /// [`HardwareSpec::udp_drop_backlog`], the datagram is dropped.
    ///
    /// Returns when the sending NIC released the datagram, and the
    /// delivery time — `None` if it was dropped.
    ///
    /// # Panics
    ///
    /// Panics on a BlueGene → BlueGene pair (intra-BlueGene streams use
    /// MPI).
    pub fn udp_transmit(
        &mut self,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        ready: SimTime,
    ) -> (SimTime, Option<SimTime>) {
        match (src.cluster, dst.cluster) {
            (ClusterName::BlueGene, ClusterName::BlueGene) => {
                panic!("intra-BlueGene streams must use the MPI carrier")
            }
            (_, ClusterName::BlueGene) => {
                let src_host = self.ether_host_of(src).expect("linux sender has a NIC");
                let pset = self.pset_of(dst);
                let io = self.io_host(pset);
                let e = self.ether.transmit(flow, src_host, io, bytes, ready);
                // Bounded forwarder buffer: datagrams arriving into a
                // deep backlog are dropped.
                let backlog_clears = self.io_forward[pset].busy_until();
                if backlog_clears > e.delivered
                    && backlog_clears.since(e.delivered) > self.spec.udp_drop_backlog
                {
                    return (e.sent, None);
                }
                let fwd = self.io_forward_serve(pset, bytes, e.delivered);
                let delivered = self.tree.transfer(flow, pset, bytes, fwd);
                (e.sent, Some(delivered))
            }
            _ => {
                // Paths not involving the I/O nodes behave like TCP
                // minus the flow control (the switch is non-blocking).
                let out = self.tcp_transmit(flow, src, dst, bytes, ready);
                (out.sent, Some(out.delivered))
            }
        }
    }

    fn io_forward_serve(&mut self, pset: usize, bytes: u64, ready: SimTime) -> SimTime {
        let streams = self.io_streams[pset].max(1);
        let hosts = self.host_flows.len().max(1);
        let factor = self.spec.io_stream_factor(streams) * self.spec.io_host_factor(hosts);
        let base = SimDur::for_bytes(bytes, self.spec.io_forward.bytes_per_sec());
        self.io_forward
            .serving(pset)
            .serve(ready, base * factor)
            .finish
    }

    // ----- inbound flow registration ----------------------------------

    /// Registers an inbound stream (external host → BlueGene) so the
    /// I/O-node coordination penalties see it. Channels crossing into the
    /// BlueGene must call this before their first segment.
    ///
    /// # Panics
    ///
    /// Panics if the flow is already registered.
    pub fn register_inbound(&mut self, flow: FlowId, ext_host: usize, pset: usize) {
        let prev = self.inbound.insert(flow, (ext_host, pset));
        assert!(prev.is_none(), "flow {flow:?} registered twice");
        self.io_streams[pset] += 1;
        *self.host_flows.entry(ext_host).or_insert(0) += 1;
    }

    /// Unregisters an inbound stream (stream end / RP termination).
    /// Unknown flows are ignored (idempotent teardown).
    pub fn unregister_inbound(&mut self, flow: FlowId) {
        if let Some((host, pset)) = self.inbound.remove(&flow) {
            self.io_streams[pset] -= 1;
            if let Some(count) = self.host_flows.get_mut(&host) {
                *count -= 1;
                if *count == 0 {
                    self.host_flows.remove(&host);
                }
            }
        }
    }

    /// Number of registered inbound flows through pset `pset`'s I/O node.
    pub fn inbound_streams(&self, pset: usize) -> usize {
        self.io_streams[pset]
    }

    /// Number of distinct external hosts currently streaming inbound.
    pub fn inbound_hosts(&self) -> usize {
        self.host_flows.len()
    }

    /// Total CPU busy time accumulated on a node (marshal/compute core
    /// plus de-marshal accounting; for Linux nodes this is the whole
    /// node, which may host several RPs).
    pub fn cpu_busy(&self, node: NodeId) -> scsq_sim::SimDur {
        match node.cluster {
            ClusterName::BlueGene => {
                self.cn_tx[node.index].busy_total() + self.cn_rx[node.index].busy_total()
            }
            _ => {
                let slot = self.linux_slot(node);
                self.linux_tx[slot].busy_total() + self.linux_rx[slot].busy_total()
            }
        }
    }

    /// Walks every contended resource a run has used through a
    /// coalescing probe.
    ///
    /// Every server bank walks only the servers that have served (a
    /// query touches a few dozen of a partition's hundreds), allocating
    /// nothing: the flow table is kept in flow order, and the per-pset
    /// and per-host counts derived from it are not walked.
    /// A server that has never served is idle at time zero and stays
    /// so until its first serve, which changes the bank's shape.
    ///
    /// `udp_active` must be `true` while any UDP carrier is live: it adds
    /// guards on the I/O-node forwarders so a jump can never carry a
    /// backlog across the datagram-drop threshold. Below the threshold
    /// the backlog-ahead-of-now gap (an upper bound on the gap the drop
    /// test sees, since deliveries happen at or after `now`) is capped
    /// strictly below [`HardwareSpec::udp_drop_backlog`]; at or above it
    /// the gap is frozen into the shape, so a steady-drop regime only
    /// jumps when the backlog is perfectly rigid between cuts. A
    /// forwarder that has never served has a gap of 0 that stays 0, so
    /// its guard could never cap a jump and is not walked.
    pub fn probe(&mut self, p: &mut scsq_sim::StateProbe<'_>, now: SimTime, udp_active: bool) {
        // Jitter makes every period unique by construction: the factor
        // stream's state is opaque shape, so any draw between two
        // digests blocks a coalescing jump.
        p.shape(self.service_jitter.to_bits());
        if self.service_jitter > 0.0 {
            p.shape(self.jitter_rng.state());
        }
        self.torus.probe(p, now);
        self.tree.probe(p);
        self.ether.probe(p);
        self.cn_tx.probe_each(p, FifoServer::probe);
        self.cn_rx.probe_each(p, |s, p| s.probe(p, now));
        self.linux_tx.probe_each(p, FifoServer::probe);
        self.linux_rx.probe_each(p, FifoServer::probe);
        let drop_gap = self.spec.udp_drop_backlog.as_nanos();
        self.io_forward.probe_each(p, |s, p| {
            if udp_active {
                let gap = s.busy_until().as_nanos().saturating_sub(now.as_nanos());
                if gap < drop_gap {
                    p.guard(gap, drop_gap);
                } else {
                    p.shape(gap);
                }
            }
            s.probe(p);
        });
        // Flow registration feeds the coordination factors; it changes
        // only at stream setup/teardown, which must block jumps. The
        // per-pset stream counts and the per-host refcounts are
        // functions of this table.
        p.shape(self.inbound.len() as u64);
        for (f, &(host, pset)) in &self.inbound {
            p.shape(f.0);
            p.shape(host as u64);
            p.shape(pset as u64);
        }
        // Node allocation is effectively static during a run; the running
        // counts still guard against mid-run placement.
        for name in ClusterName::ALL {
            p.shape(self.cndbs[&name].total_running() as u64);
        }
    }

    /// Read access to the torus (statistics, tests).
    pub fn torus(&self) -> &TorusNet {
        &self.torus
    }

    /// Read access to the Ethernet fabric (statistics, tests).
    pub fn ether(&self) -> &Ethernet {
        &self.ether
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lofar_layout_is_consistent() {
        let env = Environment::lofar();
        assert_eq!(env.cndb(ClusterName::BlueGene).len(), 32);
        assert_eq!(env.cndb(ClusterName::BackEnd).len(), 4);
        assert_eq!(env.cndb(ClusterName::FrontEnd).len(), 2);
        // Hosts: 2 fe + 4 be + 4 io.
        assert_eq!(env.ether().hosts(), 10);
        assert_eq!(env.ether_host_of(NodeId::fe(0)), Some(0));
        assert_eq!(env.ether_host_of(NodeId::be(0)), Some(2));
        assert_eq!(env.ether_host_of(NodeId::bg(0)), None);
        assert_eq!(env.io_host(0), 6);
        assert_eq!(env.io_host(3), 9);
    }

    #[test]
    fn next_hop_tables_match_spec_arithmetic() {
        // The precomputed tree/Ethernet next-hop tables must agree with
        // the spec's defining arithmetic for every rank and pset.
        let env = Environment::lofar();
        let spec = env.spec().clone();
        for rank in 0..spec.bg_compute_nodes() {
            assert_eq!(env.pset_of(NodeId::bg(rank)), spec.pset_of(rank));
        }
        for pset in 0..spec.psets() {
            assert_eq!(
                env.io_host(pset),
                spec.front_end_nodes + spec.back_end_nodes + pset
            );
        }
    }

    #[test]
    fn placement_allocates_through_cndb() {
        let mut env = Environment::lofar();
        let a = env.place(ClusterName::BlueGene, &AllocSeq::Any).unwrap();
        let b = env.place(ClusterName::BlueGene, &AllocSeq::Any).unwrap();
        assert_eq!(a, NodeId::bg(0));
        assert_eq!(b, NodeId::bg(1));
    }

    /// Runs `check` over the bulk-charging matrix: run lengths x jitter
    /// amplitudes x a BlueGene and a Linux node, each on a fresh pair of
    /// environments (bulk under test, scalar reference).
    fn charging_matrix(check: impl Fn(&mut Environment, &mut Environment, NodeId, u64)) {
        for n in [0, 1, 7, 10_000] {
            for amp in [0.0, 0.05] {
                for node in [NodeId::bg(2), NodeId::be(1)] {
                    let mut bulk = Environment::lofar();
                    let mut scalar = Environment::lofar();
                    bulk.set_service_jitter(amp);
                    scalar.set_service_jitter(amp);
                    check(&mut bulk, &mut scalar, node, n);
                    let ctx = format!("n {n}, jitter {amp}, {node}");
                    assert_eq!(bulk.jitter_draws(), scalar.jitter_draws(), "{ctx}");
                    assert_eq!(bulk.cpu_busy(node), scalar.cpu_busy(node), "{ctx}");
                    // The next scalar services queue behind the same
                    // backlog and draw the same stream positions.
                    assert_eq!(
                        bulk.compute(node, 9, READY),
                        scalar.compute(node, 9, READY),
                        "{ctx}"
                    );
                    assert_eq!(
                        bulk.generate(node, 9, READY),
                        scalar.generate(node, 9, READY),
                        "{ctx}"
                    );
                }
            }
        }
    }

    const READY: SimTime = SimTime::from_micros(3);

    #[test]
    fn compute_bulk_matches_successive_computes() {
        // An absorbed batch is charged with one `compute_bulk`; finish
        // time, server books and draw count must equal n scalar
        // `compute` calls at the batch's arrival time.
        charging_matrix(|bulk, scalar, node, n| {
            let finish = (0..n).fold(READY, |_, _| scalar.compute(node, 9, READY));
            assert_eq!(bulk.compute_bulk(node, 9, n, READY), finish);
            assert_eq!(
                scalar.jitter_draws(),
                if scalar.service_jitter > 0.0 { n } else { 0 }
            );
        });
    }

    #[test]
    fn compute_each_matches_successive_computes() {
        // The relay charges a batch with one `compute_each` call; it
        // must be call-for-call identical to n scalar `compute` calls —
        // same serve sequence, same jitter-draw positions.
        charging_matrix(|bulk, scalar, node, n| {
            let want: Vec<SimTime> = (0..n).map(|_| scalar.compute(node, 9, READY)).collect();
            let mut each = vec![SimTime::ZERO; 3];
            bulk.compute_each(node, 9, n, READY, &mut each);
            assert_eq!(each, want);
        });
    }

    #[test]
    fn generate_each_matches_successive_generates() {
        // A prepared column source charges its n generations with one
        // `generate_each` call; it must be call-for-call identical to
        // the per-element loop's chained `generate` calls.
        charging_matrix(|bulk, scalar, node, n| {
            let mut t = READY;
            let want: Vec<SimTime> = (0..n)
                .map(|_| {
                    t = scalar.generate(node, 9, t);
                    t
                })
                .collect();
            let mut each = vec![SimTime::ZERO; 3];
            let last = bulk.generate_each(node, 9, n, READY, &mut each);
            assert_eq!(each, want);
            assert_eq!(last, want.last().copied().unwrap_or(READY));
        });
    }

    #[test]
    fn interleaved_bulk_and_scalar_charges_share_one_state() {
        // bulk -> scalar -> each -> generate_each -> scalar against the
        // all-scalar walk: a bulk call that left a stale RNG, draw
        // counter or server behind would shift every later result.
        charging_matrix(|bulk, scalar, node, n| {
            let mut each = Vec::new();
            let finish = (0..n).fold(READY, |_, _| scalar.compute(node, 9, READY));
            assert_eq!(bulk.compute_bulk(node, 9, n, READY), finish);
            assert_eq!(
                bulk.marshal(node, 500, READY),
                scalar.marshal(node, 500, READY)
            );
            let want: Vec<SimTime> = (0..n).map(|_| scalar.compute(node, 9, finish)).collect();
            bulk.compute_each(node, 9, n, finish, &mut each);
            assert_eq!(each, want);
            let mut t = READY;
            let want: Vec<SimTime> = (0..n)
                .map(|_| {
                    t = scalar.generate(node, 17, t);
                    t
                })
                .collect();
            bulk.generate_each(node, 17, n, READY, &mut each);
            assert_eq!(each, want);
            assert_eq!(bulk.compute(node, 9, READY), scalar.compute(node, 9, READY));
        });
    }

    #[test]
    fn mpi_transmit_uses_torus() {
        let mut env = Environment::lofar();
        let out = env.mpi_transmit(FlowId(1), NodeId::bg(1), NodeId::bg(0), 4096, SimTime::ZERO);
        assert!(out.delivered > SimTime::ZERO);
        assert_eq!(env.torus().messages(), 1);
    }

    #[test]
    #[should_panic(expected = "MPI src must be bg")]
    fn mpi_rejects_linux_nodes() {
        let mut env = Environment::lofar();
        env.mpi_transmit(FlowId(1), NodeId::be(0), NodeId::bg(0), 4096, SimTime::ZERO);
    }

    #[test]
    fn tcp_inbound_crosses_ether_io_tree() {
        let mut env = Environment::lofar();
        env.register_inbound(FlowId(1), 2, 0);
        let out = env.tcp_transmit(
            FlowId(1),
            NodeId::be(0),
            NodeId::bg(0),
            65_536,
            SimTime::ZERO,
        );
        assert!(out.delivered > out.sent);
        assert_eq!(env.ether().messages(), 1);
    }

    #[test]
    #[should_panic(expected = "must use the MPI carrier")]
    fn tcp_rejects_intra_bg() {
        let mut env = Environment::lofar();
        env.tcp_transmit(FlowId(1), NodeId::bg(0), NodeId::bg(1), 1024, SimTime::ZERO);
    }

    #[test]
    fn inbound_registration_counts_hosts_and_streams() {
        let mut env = Environment::lofar();
        env.register_inbound(FlowId(1), 2, 0);
        env.register_inbound(FlowId(2), 2, 0);
        env.register_inbound(FlowId(3), 3, 1);
        assert_eq!(env.inbound_streams(0), 2);
        assert_eq!(env.inbound_streams(1), 1);
        assert_eq!(env.inbound_hosts(), 2);
        env.unregister_inbound(FlowId(2));
        assert_eq!(env.inbound_streams(0), 1);
        assert_eq!(env.inbound_hosts(), 2, "host 2 still has flow 1");
        env.unregister_inbound(FlowId(1));
        assert_eq!(env.inbound_hosts(), 1, "only host 3 remains");
        env.unregister_inbound(FlowId(3));
        assert_eq!(env.inbound_hosts(), 0);
        // Idempotent teardown.
        env.unregister_inbound(FlowId(3));
        assert_eq!(env.inbound_hosts(), 0);
    }

    #[test]
    fn host_coordination_slows_io_forwarding() {
        // Same segment through the same I/O node, but with more external
        // hosts registered, takes longer — the Query 5 vs Query 6
        // mechanism.
        let mut one_host = Environment::lofar();
        one_host.register_inbound(FlowId(1), 2, 0);
        let a = one_host.tcp_transmit(
            FlowId(1),
            NodeId::be(0),
            NodeId::bg(0),
            65_536,
            SimTime::ZERO,
        );

        let mut four_hosts = Environment::lofar();
        four_hosts.register_inbound(FlowId(1), 2, 0);
        for (i, host) in [(2u64, 3usize), (3, 4), (4, 5)] {
            four_hosts.register_inbound(FlowId(i), host, (i as usize) % 4);
        }
        let b = four_hosts.tcp_transmit(
            FlowId(1),
            NodeId::be(0),
            NodeId::bg(0),
            65_536,
            SimTime::ZERO,
        );
        assert!(b.delivered > a.delivered);
    }

    #[test]
    fn stream_sharing_slows_io_forwarding() {
        let mut shared = Environment::lofar();
        shared.register_inbound(FlowId(1), 2, 0);
        shared.register_inbound(FlowId(2), 2, 0);
        let b = shared.tcp_transmit(
            FlowId(1),
            NodeId::be(0),
            NodeId::bg(0),
            65_536,
            SimTime::ZERO,
        );

        let mut single = Environment::lofar();
        single.register_inbound(FlowId(1), 2, 0);
        let a = single.tcp_transmit(
            FlowId(1),
            NodeId::be(0),
            NodeId::bg(0),
            65_536,
            SimTime::ZERO,
        );
        assert!(b.delivered > a.delivered);
    }

    #[test]
    fn demarshal_switching_penalizes_interleaved_flows_on_cn() {
        let mut env = Environment::lofar();
        let node = NodeId::bg(0);
        // Interleaved flows.
        let mut t_inter = SimTime::ZERO;
        for i in 0..6u64 {
            t_inter = env.demarshal(
                node,
                FlowId(i % 2),
                65_536,
                SimTime::ZERO,
                CarrierClass::Tcp,
            );
        }
        let mut env2 = Environment::lofar();
        let mut t_same = SimTime::ZERO;
        for _ in 0..6u64 {
            t_same = env2.demarshal(node, FlowId(1), 65_536, SimTime::ZERO, CarrierClass::Tcp);
        }
        assert!(t_inter > t_same);
        // MPI de-marshal of the same buffers is far cheaper than TCP.
        let mut env3 = Environment::lofar();
        let mut t_mpi = SimTime::ZERO;
        for _ in 0..6u64 {
            t_mpi = env3.demarshal(node, FlowId(1), 65_536, SimTime::ZERO, CarrierClass::Mpi);
        }
        assert!(t_mpi.as_nanos() < t_same.as_nanos() / 4);
    }

    #[test]
    fn generation_is_charged_on_the_right_cpu() {
        let mut env = Environment::lofar();
        let t1 = env.generate(NodeId::be(1), 3_000_000, SimTime::ZERO);
        // Second generator RP on the same node shares that node's CPU.
        let t2 = env.generate(NodeId::be(1), 3_000_000, SimTime::ZERO);
        // A generator on a different node does not.
        let t3 = env.generate(NodeId::be(2), 3_000_000, SimTime::ZERO);
        assert!(t2 > t1);
        assert_eq!(t3, t1);
    }
}
