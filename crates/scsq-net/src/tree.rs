//! The BlueGene tree (collective) network connecting each pset's compute
//! nodes to their I/O node.
//!
//! §2.1: the BlueGene has "a 2.8 Gbps tree network", and compute nodes
//! are "grouped in processing sets of 8 compute nodes and one I/O node".
//! Inbound TCP streams enter through an I/O node and are forwarded over
//! the tree to the compute nodes of its pset; the per-pset tree channel is
//! a shared, serially-used resource.

use crate::{Bandwidth, FlowId};
use scsq_sim::{FifoServer, ServerBank, SimDur, SimTime};

/// Calibration constants for the tree network.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Bandwidth of one pset's tree channel; the paper quotes 2.8 Gbps.
    pub channel: Bandwidth,
    /// Fixed per-message overhead on the channel.
    pub per_msg_overhead: SimDur,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            channel: Bandwidth::from_gbps(2.8),
            per_msg_overhead: SimDur::from_micros(2),
        }
    }
}

/// The tree network of a BlueGene partition: one shared channel per pset.
#[derive(Debug)]
pub struct TreeNet {
    params: TreeParams,
    channels: ServerBank<FifoServer>,
}

impl TreeNet {
    /// Creates a tree network for `psets` processing sets.
    ///
    /// # Panics
    ///
    /// Panics if `psets` is zero.
    pub fn new(psets: usize, params: TreeParams) -> Self {
        assert!(psets > 0, "need at least one pset");
        TreeNet {
            params,
            channels: ServerBank::new(psets, FifoServer::new),
        }
    }

    /// Number of psets served.
    pub fn psets(&self) -> usize {
        self.channels.len()
    }

    /// The calibration constants.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// Moves `bytes` across pset `pset`'s tree channel (I/O node ↔ compute
    /// node, either direction), payload ready at `ready`. Returns the
    /// delivery time.
    ///
    /// # Panics
    ///
    /// Panics if `pset` is out of range or `bytes` is zero.
    pub fn transfer(&mut self, _flow: FlowId, pset: usize, bytes: u64, ready: SimTime) -> SimTime {
        assert!(bytes > 0, "cannot transfer an empty message");
        assert!(pset < self.channels.len(), "pset {pset} out of range");
        let service = self.params.per_msg_overhead
            + SimDur::for_bytes(bytes, self.params.channel.bytes_per_sec());
        self.channels.serving(pset).serve(ready, service).finish
    }

    /// Busy time accumulated on a pset's channel.
    pub fn channel_busy(&self, pset: usize) -> SimDur {
        self.channels[pset].busy_total()
    }

    /// Walks the state of the tree channels that have served through a
    /// coalescing probe.
    pub fn probe(&mut self, p: &mut scsq_sim::StateProbe<'_>) {
        self.channels.probe_each(p, FifoServer::probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_matches_channel_rate() {
        let mut net = TreeNet::new(4, TreeParams::default());
        // 350_000 bytes at 350 MB/s = 1 ms (+2us overhead).
        let done = net.transfer(FlowId(0), 0, 350_000, SimTime::ZERO);
        assert_eq!(done, SimTime::from_micros(1_002));
    }

    #[test]
    fn same_pset_transfers_serialize() {
        let mut net = TreeNet::new(4, TreeParams::default());
        let a = net.transfer(FlowId(1), 2, 350_000, SimTime::ZERO);
        let b = net.transfer(FlowId(2), 2, 350_000, SimTime::ZERO);
        assert!(b > a);
        assert!(net.channel_busy(2) > net.channel_busy(0));
    }

    #[test]
    fn different_psets_run_in_parallel() {
        let mut net = TreeNet::new(4, TreeParams::default());
        let a = net.transfer(FlowId(1), 0, 350_000, SimTime::ZERO);
        let b = net.transfer(FlowId(2), 1, 350_000, SimTime::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_pset_rejected() {
        TreeNet::new(2, TreeParams::default()).transfer(FlowId(0), 5, 100, SimTime::ZERO);
    }
}
