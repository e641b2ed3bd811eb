//! Gigabit Ethernet model: per-host full-duplex NICs and an ideal switch.
//!
//! §2.1: "Each computer in the back-end cluster has a 1 Gigabit Ethernet
//! interface connected via a switch to the BlueGene"; "each I/O-node is
//! equipped with a 1 Gbit/s network interface". The switch itself is
//! modeled as non-blocking (only NICs contend), which matches the paper's
//! observation that the peak inbound rate (~920 Mbps) is governed by a
//! single NIC.

use crate::{Bandwidth, FlowId};
use scsq_sim::{FifoServer, ServerBank, SimDur, SimTime};

/// Calibration constants for the Ethernet fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct EtherParams {
    /// Line rate of every NIC (full duplex: tx and rx are separate
    /// servers).
    pub nic: Bandwidth,
    /// One-way switch + propagation latency.
    pub latency: SimDur,
    /// Fixed per-message (per TCP segment, at transport granularity)
    /// software overhead on the sending host.
    pub per_msg_overhead: SimDur,
}

impl Default for EtherParams {
    fn default() -> Self {
        EtherParams {
            nic: Bandwidth::from_gbps(1.0),
            latency: SimDur::from_micros(50),
            per_msg_overhead: SimDur::from_micros(30),
        }
    }
}

/// Timeline of one message through the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EtherOutcome {
    /// When the sending NIC finished serializing the message (the send
    /// buffer becomes reusable).
    pub sent: SimTime,
    /// When the receiving NIC finished delivering the message.
    pub delivered: SimTime,
}

/// An Ethernet fabric of `hosts` full-duplex NICs joined by an ideal
/// switch.
#[derive(Debug)]
pub struct Ethernet {
    params: EtherParams,
    tx: ServerBank<FifoServer>,
    rx: ServerBank<FifoServer>,
    messages: u64,
    bytes: u64,
}

impl Ethernet {
    /// Creates a fabric with `hosts` attached hosts.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero.
    pub fn new(hosts: usize, params: EtherParams) -> Self {
        assert!(hosts > 0, "fabric needs at least one host");
        Ethernet {
            params,
            tx: ServerBank::new(hosts, FifoServer::new),
            rx: ServerBank::new(hosts, FifoServer::new),
            messages: 0,
            bytes: 0,
        }
    }

    /// Number of attached hosts.
    pub fn hosts(&self) -> usize {
        self.tx.len()
    }

    /// The calibration constants.
    pub fn params(&self) -> &EtherParams {
        &self.params
    }

    /// Total messages transmitted.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total payload bytes transmitted.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Transmits `bytes` from `src` to `dst` with payload ready at
    /// `ready`. The flow id is accepted for symmetry with the torus model
    /// (Ethernet NICs do not pay switch penalties).
    ///
    /// # Panics
    ///
    /// Panics if a host index is out of range, `src == dst`, or `bytes`
    /// is zero.
    pub fn transmit(
        &mut self,
        _flow: FlowId,
        src: usize,
        dst: usize,
        bytes: u64,
        ready: SimTime,
    ) -> EtherOutcome {
        assert!(bytes > 0, "cannot transmit an empty message");
        assert!(src < self.hosts(), "src host {src} out of range");
        assert!(dst < self.hosts(), "dst host {dst} out of range");
        assert_ne!(src, dst, "loopback traffic does not use the fabric");
        self.messages += 1;
        self.bytes += bytes;

        let rate = self.params.nic.bytes_per_sec();
        let tx_service = self.params.per_msg_overhead + SimDur::for_bytes(bytes, rate);
        let tx = self.tx.serving(src).serve(ready, tx_service);

        let arrival = tx.finish + self.params.latency;
        let rx_service = SimDur::for_bytes(bytes, rate);
        let rx = self.rx.serving(dst).serve(arrival, rx_service);

        EtherOutcome {
            sent: tx.finish,
            delivered: rx.finish,
        }
    }

    /// Walks the fabric's contended state through a coalescing probe:
    /// the NICs that have served, senders then receivers.
    pub fn probe(&mut self, p: &mut scsq_sim::StateProbe<'_>) {
        self.tx.probe_each(p, FifoServer::probe);
        self.rx.probe_each(p, FifoServer::probe);
        p.num(&mut self.messages);
        p.num(&mut self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Ethernet {
        Ethernet::new(4, EtherParams::default())
    }

    #[test]
    fn single_transfer_is_nic_plus_latency() {
        let mut net = fabric();
        let out = net.transmit(FlowId(0), 0, 1, 125_000, SimTime::ZERO);
        // tx: 30us overhead + 1ms serialize; +50us latency; rx: 1ms.
        assert_eq!(out.sent, SimTime::from_micros(1_030));
        assert_eq!(out.delivered, SimTime::from_micros(2_080));
    }

    #[test]
    fn sender_nic_is_shared_between_flows() {
        let mut net = fabric();
        let a = net.transmit(FlowId(1), 0, 1, 1_000_000, SimTime::ZERO);
        let b = net.transmit(FlowId(2), 0, 2, 1_000_000, SimTime::ZERO);
        // Flow 2's segment must wait for flow 1's to leave the tx NIC.
        assert!(b.sent > a.sent);
        assert!(b.sent >= a.sent + SimDur::for_bytes(1_000_000, 125e6));
    }

    #[test]
    fn distinct_senders_do_not_contend() {
        let mut net = fabric();
        let a = net.transmit(FlowId(1), 0, 2, 1_000_000, SimTime::ZERO);
        let b = net.transmit(FlowId(2), 1, 3, 1_000_000, SimTime::ZERO);
        assert_eq!(a.sent, b.sent, "independent NICs serialize in parallel");
    }

    #[test]
    fn receiver_nic_serializes_fan_in() {
        let mut net = fabric();
        let a = net.transmit(FlowId(1), 0, 3, 1_000_000, SimTime::ZERO);
        let b = net.transmit(FlowId(2), 1, 3, 1_000_000, SimTime::ZERO);
        // Both arrive simultaneously; the rx NIC can only drain one at a
        // time.
        assert!(b.delivered > a.delivered);
    }

    #[test]
    fn sustained_throughput_matches_nic_rate() {
        let mut net = fabric();
        let seg = 65_536u64;
        let n = 200;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = net.transmit(FlowId(1), 0, 1, seg, SimTime::ZERO).delivered;
        }
        let rate = (seg * n) as f64 / last.as_secs_f64();
        // 64 KB per 30us overhead + 524us serialize: ~94% of line rate.
        assert!(rate > 0.9 * 125e6 && rate < 125e6, "rate={rate}");
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_is_rejected() {
        fabric().transmit(FlowId(0), 1, 1, 100, SimTime::ZERO);
    }
}
