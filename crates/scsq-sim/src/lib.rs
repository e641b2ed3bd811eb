#![warn(missing_docs)]
//! # scsq-sim — deterministic discrete-event simulation kernel
//!
//! This crate provides the discrete-event simulation (DES) substrate on
//! which the SCSQ reproduction models the LOFAR hardware environment
//! (BlueGene torus + Linux clusters). It is intentionally generic: the
//! kernel knows nothing about networks or stream queries, only about a
//! virtual clock, an ordered event queue, and a few queueing primitives
//! (FIFO servers) that higher layers compose into links, NICs, and
//! communication co-processors.
//!
//! The simulator is **single-threaded and deterministic**: two runs with
//! the same inputs produce bit-identical schedules, which lets the test
//! suite assert exact bandwidth numbers.
//!
//! ## Example
//!
//! Events are a caller-defined type; [`TypedSimulator`] stores them
//! inline in its queue and dispatches each through [`Event::fire`].
//!
//! ```
//! use scsq_sim::{Event, SimDur, TypedSimulator};
//!
//! // The "world" can be any state the events mutate.
//! enum Ev {
//!     Add(u64),
//! }
//!
//! impl Event<u64> for Ev {
//!     fn fire(self, world: &mut u64, sim: &mut TypedSimulator<u64, Ev>) {
//!         let Ev::Add(n) = self;
//!         *world += n;
//!         if n == 1 {
//!             sim.schedule_after(SimDur::from_micros(5), Ev::Add(10));
//!         }
//!     }
//! }
//!
//! let mut sim = TypedSimulator::new(0u64);
//! sim.schedule_after(SimDur::from_micros(5), Ev::Add(1));
//! sim.run_to_completion();
//! assert_eq!(*sim.world(), 11);
//! ```

pub mod coalesce;
pub mod hist;
pub mod obs;
pub mod queue;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;
pub mod typed;

pub use coalesce::{CoalesceStats, Coalescer, JumpPlan, Snapshot, StateProbe};
pub use hist::{LatencyHistogram, LATENCY_BUCKETS};
pub use obs::Span;
pub use queue::EventQueue;
pub use rng::SplitMix64;
pub use server::{FifoServer, Server, ServerBank, SwitchingServer};
pub use stats::{RunningStats, Series};
pub use time::{SimDur, SimTime};
pub use typed::{Event, TypedSimulator};
