#![deny(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::expect_used,
        clippy::unwrap_used,
        clippy::unreachable,
        clippy::panic
    )
)]
//! # scsq-engine — the SCSQ query engine and distributed runtime
//!
//! This crate turns parsed SCSQL (from `scsq-ql`) into running stream
//! computations on the simulated LOFAR hardware (from `scsq-cluster`),
//! reproducing the architecture of §2.2–2.3 of the paper:
//!
//! * [`builder`] — the **client manager**'s query set-up: solves the
//!   `where`-clause equations, creates stream processes (`sp` / `spv`),
//!   evaluates allocation sequences against the CNDB, and registers each
//!   sub-query with the owning **cluster coordinator** for placement.
//! * [`ops`] — the stream query execution plan (**SQEP**) operators: a
//!   sub-query compiles to a source (gen_array / receive / receiver /
//!   grep), a stage chain (map, fft, window aggregate, radix combine) and
//!   a terminal aggregate (count / sum) or passthrough.
//! * [`runtime`] — the discrete-event execution of all **running
//!   processes (RPs)**: generators pace element production on their
//!   node's CPU, stream channels move buffers over MPI or TCP, receivers
//!   de-marshal and process, aggregates emit on end-of-stream, and the
//!   client sink collects the result values and the completion time.
//! * [`coordinator`] — cluster coordinators; the BlueGene coordinator
//!   *polls* the front-end for new sub-queries because CNK has no server
//!   capability (§2.2), which delays BlueGene RP start-up to the next
//!   poll tick.
//! * [`placement`] — node-selection policies: the paper's naïve
//!   next-available algorithm and a topology-aware policy encoding the
//!   five observations of §3.2 (the paper's proposed future work), used
//!   by the ablation benchmark.
//! * [`measure`] — query results plus the bandwidth bookkeeping used to
//!   regenerate the paper's figures. A [`QueryResult`] is the one record
//!   of a run: its per-run JSON ([`QueryResult::metrics_json`]) and,
//!   with the `metrics()` SCSQL source, the paper's self-measurement
//!   story (the system measures its own communication performance) both
//!   read it.

pub mod builder;
pub mod columnar;
pub mod coordinator;
pub mod error;
pub mod explain;
pub mod funcs;
pub mod fused;
pub mod measure;
pub mod ops;
pub mod placement;
pub mod profile;
pub mod runtime;
pub mod session;
mod train;
pub mod window;

pub use builder::{QueryBuilder, QueryGraph, SpSpec};
pub use coordinator::{ClientManager, Coordinator, PreparedQuery};
pub use error::EngineError;
pub use explain::{describe_pipeline, explain_graph};
pub use fused::{
    admission_verdicts, ColumnAdmit, ColumnEnding, CostModel, Emitted, PreparedSource,
};
pub use measure::{ChannelReport, QueryResult, QueryStats, RpReport};
pub use ops::{AggKind, ArithOp, CmpOp, InputKind, MapFunc, Pipeline, Stage};
pub use placement::PlacementPolicy;
pub use profile::{ProfileReport, RpProfile, StageProfile, StageTally};
pub use runtime::{run_graph, RunOptions};
pub use session::{CatalogEntry, NamedPlan, Session, SessionHub, SessionReply};
