#![warn(missing_docs)]
//! # scsq-transport — stream carrier protocols
//!
//! §2.3 of the paper: "Incoming data is buffered in a receiver driver and
//! de-marshaled (materialized) into objects. ... The objects resulting
//! from the operators are passed on to the sender driver, which marshals
//! them and sends the buffer contents to subscribers. ... We have
//! implemented stream carrier protocols based on MPI and TCP. ... MPI is
//! always used inside the BlueGene as that is the only allowed protocol,
//! while TCP is always used when communicating between clusters. The MPI
//! sender and receiver drivers contain double buffers so that one buffer
//! can be processed while the other one is read or written."
//!
//! [`StreamChannel`] implements exactly that driver pair as a
//! deterministic state machine over the simulated hardware
//! ([`scsq_cluster::Environment`]): elements are packed into send buffers
//! of a configurable size, marshaled on the sending node's CPU,
//! transmitted over the MPI (torus) or TCP (Ethernet + I/O node + tree)
//! path, and de-marshaled on the receiving node's CPU. Single vs double
//! buffering changes how soon the next buffer may be marshaled — the knob
//! the paper sweeps in Figures 6 and 8.
//!
//! The channel is generic over the element type `T`; it never inspects
//! elements, only the byte sizes the caller declares — which is how the
//! 3 MB benchmark arrays flow through without 3 MB of host memory each.

pub mod channel;

pub use channel::{
    Carrier, ChannelConfig, ChannelStats, CycleOutput, Payload, StreamChannel, MPI_DEFAULT_BUFFER,
};
