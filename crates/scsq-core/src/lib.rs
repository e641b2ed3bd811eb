#![deny(missing_docs)]
//! # scsq-core — the public face of the SCSQ reproduction
//!
//! [`Scsq`] is the system object a downstream user holds: it owns the
//! client manager (with the persistent function catalog), the hardware
//! specification of the simulated LOFAR environment, and the execution
//! options (MPI buffer size / single vs double buffering — the knobs the
//! paper's §3.1 sweeps).
//!
//! ```
//! use scsq_core::prelude::*;
//!
//! # fn main() -> Result<(), ScsqError> {
//! let mut scsq = Scsq::lofar();
//! let result = scsq.run(
//!     "select extract(b) \
//!      from sp a, sp b \
//!      where b=sp(streamof(count(extract(a))), 'bg', 0) \
//!      and a=sp(gen_array(100000, 10), 'bg', 1);",
//! )?;
//! assert_eq!(result.values(), &[Value::Integer(10)]);
//! println!("query time: {}", result.total_time());
//! # Ok(())
//! # }
//! ```
//!
//! For multi-client use (SCSQ's client manager serves many users on the
//! front-end cluster), [`SessionHub`] hands each client its own
//! [`Session`] over one shared plan cache, and [`server::ScsqdServer`]
//! (the `scsqd` daemon) serves those sessions over TCP or a Unix socket.

pub mod metrics;
pub mod server;
pub mod wire;

pub use scsq_cluster::{AllocSeq, ClusterName, Environment, HardwareSpec, NodeId};
pub use scsq_engine::{
    CatalogEntry, ChannelReport, EngineError as ScsqError, PlacementPolicy, PreparedQuery,
    ProfileReport, QueryResult, QueryStats, RpReport, RunOptions, Session, SessionHub,
    SessionReply, StageProfile,
};
pub use scsq_ql::{ArrayData, Catalog, SpHandle, Value};
pub use scsq_sim::{LatencyHistogram, SimDur, SimTime, Span};
pub use server::ScsqdServer;
pub use wire::{read_frame, write_frame, Client, Frame, FrameKind};

use scsq_engine::ClientManager;

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::{
        ClusterName, HardwareSpec, NodeId, PreparedQuery, QueryResult, RunOptions, Scsq, ScsqError,
        SimDur, SimTime, Value,
    };
}

/// The SCSQ system: client manager + hardware environment + options.
///
/// Each query statement executes against a freshly-idle instance of the
/// configured hardware (matching the paper's per-experiment runs);
/// `create function` definitions persist in the catalog across
/// statements.
#[derive(Debug, Default)]
pub struct Scsq {
    manager: ClientManager,
    spec: HardwareSpec,
    options: RunOptions,
}

impl Scsq {
    /// An SCSQ system on the paper's LOFAR configuration: a 32-node
    /// BlueGene partition (4 psets / 4 I/O nodes), four back-end and two
    /// front-end Linux nodes.
    pub fn lofar() -> Scsq {
        Scsq::with_spec(HardwareSpec::lofar())
    }

    /// An SCSQ system on custom hardware.
    pub fn with_spec(spec: HardwareSpec) -> Scsq {
        Scsq {
            manager: ClientManager::new(),
            spec,
            options: RunOptions::default(),
        }
    }

    /// The hardware specification in effect.
    pub fn spec(&self) -> &HardwareSpec {
        &self.spec
    }

    /// The execution options in effect.
    pub fn options(&self) -> &RunOptions {
        &self.options
    }

    /// Mutable access to the execution options (MPI buffer size, double
    /// buffering, …).
    pub fn options_mut(&mut self) -> &mut RunOptions {
        &mut self.options
    }

    /// The function catalog (built-ins plus user definitions).
    pub fn catalog(&self) -> &Catalog {
        self.manager.catalog()
    }

    /// Executes an SCSQL program and returns the result of its last
    /// query statement. `create function` statements extend the catalog.
    ///
    /// # Errors
    ///
    /// Parse, binder, placement, or runtime errors; an error if the
    /// program defines functions but contains no query.
    pub fn run(&mut self, src: &str) -> Result<QueryResult, ScsqError> {
        self.manager.execute(&self.spec, src, &self.options)
    }

    /// Like [`Scsq::run`], with pre-bound query variables — the paper's
    /// "altering a query variable n" (§3.2).
    ///
    /// # Errors
    ///
    /// See [`Scsq::run`].
    pub fn run_with(
        &mut self,
        src: &str,
        bindings: &[(&str, Value)],
    ) -> Result<QueryResult, ScsqError> {
        let owned: Vec<(String, Value)> = bindings
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        self.manager
            .execute_with(&self.spec, src, &self.options, &owned)
    }

    /// Compiles a query once into a reusable [`PreparedQuery`].
    ///
    /// Parse → bind → place happens here, exactly once; each
    /// [`Scsq::run_prepared`] (or [`PreparedQuery::run`]) then replays
    /// the immutable plan on a fresh environment. For sweeps that run
    /// the same query text many times with different runtime options or
    /// jittered hardware, this removes all redundant front-end work —
    /// [`Scsq::compilations`] observes the saving.
    ///
    /// # Errors
    ///
    /// Parse, binder, or placement errors.
    pub fn prepare(&mut self, src: &str) -> Result<PreparedQuery, ScsqError> {
        self.prepare_with(src, &[])
    }

    /// Like [`Scsq::prepare`], with pre-bound query variables. Bindings
    /// are baked into the plan (they participate in binding, e.g. the
    /// §3.2 `n`), so prepare once per distinct binding set.
    ///
    /// # Errors
    ///
    /// See [`Scsq::prepare`].
    pub fn prepare_with(
        &mut self,
        src: &str,
        bindings: &[(&str, Value)],
    ) -> Result<PreparedQuery, ScsqError> {
        let owned: Vec<(String, Value)> = bindings
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        self.manager.prepare(&self.spec, src, &self.options, &owned)
    }

    /// Executes a prepared plan against the current spec and options.
    ///
    /// # Errors
    ///
    /// Runtime errors only.
    pub fn run_prepared(&self, plan: &PreparedQuery) -> Result<QueryResult, ScsqError> {
        plan.run(&self.spec, &self.options)
    }

    /// How many query statements have been compiled (parse → bind →
    /// place) by this system so far. Prepared-plan reruns do not count.
    pub fn compilations(&self) -> u64 {
        self.manager.compilations()
    }

    /// Explains a query's set-up without executing it: the stream
    /// processes it would create, the nodes their RPs land on, and the
    /// MPI/TCP streams connecting them (the paper's Figure 2 picture).
    ///
    /// # Errors
    ///
    /// Parse, binder, or placement errors.
    pub fn explain(&self, src: &str) -> Result<String, ScsqError> {
        self.manager.explain(&self.spec, src, &self.options)
    }

    /// Registers function definitions without running a query.
    ///
    /// # Errors
    ///
    /// Parse or catalog errors; also an error if `src` contains anything
    /// other than `create function` statements.
    pub fn define(&mut self, src: &str) -> Result<(), ScsqError> {
        use scsq_ql::{parse_program, Statement};
        let statements = parse_program(src)?;
        let mut defs = Vec::with_capacity(statements.len());
        for stmt in statements {
            match stmt {
                Statement::CreateFunction(def) => defs.push(def),
                _ => {
                    return Err(ScsqError::Bind(
                        "define() accepts only `create function` statements; use run() for \
                         queries"
                            .to_string(),
                    ))
                }
            }
        }
        for def in defs {
            self.manager.define(def)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_counts_arrays() {
        let mut scsq = Scsq::lofar();
        let r = scsq
            .run(
                "select extract(b) from sp a, sp b
                 where b=sp(streamof(count(extract(a))), 'bg', 0)
                 and a=sp(gen_array(100000,10),'bg',1);",
            )
            .unwrap();
        assert_eq!(r.values(), &[Value::Integer(10)]);
    }

    #[test]
    fn catalog_persists_across_runs() {
        let mut scsq = Scsq::lofar();
        scsq.define("create function gen2(integer sz) -> stream as gen_array(sz, 2);")
            .unwrap();
        let r = scsq
            .run(
                "select extract(b) from sp a, sp b
                 where b=sp(streamof(count(extract(a))), 'bg', 0)
                 and a=sp(gen2(50000),'bg',1);",
            )
            .unwrap();
        assert_eq!(r.values(), &[Value::Integer(2)]);
        assert_eq!(scsq.catalog().len(), 1);
    }

    #[test]
    fn define_rejects_query_statements() {
        let mut scsq = Scsq::lofar();
        let err = scsq.define("merge({});").unwrap_err();
        assert!(err.to_string().contains("create function"));
    }

    #[test]
    fn run_with_overrides_n() {
        let mut scsq = Scsq::lofar();
        let q = "select extract(b) from bag of sp a, sp b, integer n
                 where b=sp(count(merge(a)), 'bg')
                 and a=spv((select gen_array(10000,3)
                            from integer i where i in iota(1,n)), 'be', 1)
                 and n=2;";
        let r = scsq.run(q).unwrap();
        assert_eq!(r.values(), &[Value::Integer(6)]);
        let r = scsq.run_with(q, &[("n", Value::Integer(5))]).unwrap();
        assert_eq!(r.values(), &[Value::Integer(15)]);
    }

    #[test]
    fn prepared_queries_compile_once_and_match_run() {
        let mut scsq = Scsq::lofar();
        let q = "select extract(b) from sp a, sp b
                 where b=sp(streamof(count(extract(a))), 'bg', 0)
                 and a=sp(gen_array(100000,10),'bg',1);";
        let fresh = scsq.run(q).unwrap();
        assert_eq!(scsq.compilations(), 1);

        let plan = scsq.prepare(q).unwrap();
        assert_eq!(scsq.compilations(), 2);
        // Many runs, zero further compilations, bit-identical results.
        for _ in 0..3 {
            let r = scsq.run_prepared(&plan).unwrap();
            assert_eq!(r.values(), fresh.values());
            assert_eq!(r.finished(), fresh.finished());
            assert_eq!(r.first_result(), fresh.first_result());
        }
        assert_eq!(scsq.compilations(), 2);
    }

    #[test]
    fn prepared_queries_track_runtime_options() {
        // One plan serves the whole §3.1 buffer-size sweep: the MPI
        // buffer is a runtime knob, not part of the compiled shape.
        let mut scsq = Scsq::lofar();
        let q = "select extract(b) from sp a, sp b
                 where b=sp(streamof(count(extract(a))), 'bg', 0)
                 and a=sp(gen_array(1000000,5),'bg',1);";
        let plan = scsq.prepare(q).unwrap();
        scsq.options_mut().mpi_buffer = 100_000;
        scsq.options_mut().mpi_double = false;
        let single = scsq.run_prepared(&plan).unwrap();
        scsq.options_mut().mpi_double = true;
        let double = scsq.run_prepared(&plan).unwrap();
        assert_eq!(single.values(), double.values());
        assert!(double.finished() < single.finished());
        assert_eq!(scsq.compilations(), 1);
    }

    #[test]
    fn explain_names_the_carrier_a_run_uses() {
        // A back-end stream into the BlueGene and the result stream out
        // of it both cross clusters: TCP by default, UDP when the run
        // carries inter-cluster streams over UDP, exactly as the run's
        // channel reports say.
        let q = "select extract(b) from sp a, sp b
                 where b=sp(streamof(count(extract(a))), 'bg', 0)
                 and a=sp(gen_array(1000,10),'be',1);";
        let mut scsq = Scsq::lofar();
        let tcp = scsq.explain(q).unwrap();
        assert!(tcp.contains("sp#0 (be:1) =tcp=> sp#1 (bg:0)"), "{tcp}");
        scsq.options_mut().udp_inter_cluster = true;
        let udp = scsq.explain(q).unwrap();
        assert!(udp.contains("sp#0 (be:1) =udp=> sp#1 (bg:0)"), "{udp}");
        assert!(udp.contains("sp#1 (bg:0) =udp=> client (fe:0)"), "{udp}");
        let carriers: Vec<_> = scsq
            .run(q)
            .unwrap()
            .stats()
            .channels
            .iter()
            .map(|c| c.carrier.clone())
            .collect();
        assert_eq!(carriers, ["udp", "udp"]);
    }

    #[test]
    fn prepared_query_is_shareable_across_threads() {
        let mut scsq = Scsq::lofar();
        let plan = scsq
            .prepare(
                "select extract(b) from sp a, sp b
                 where b=sp(streamof(count(extract(a))), 'bg', 0)
                 and a=sp(gen_array(10000,4),'bg',1);",
            )
            .unwrap();
        let baseline = scsq.run_prepared(&plan).unwrap();
        let spec = scsq.spec().clone();
        let options = scsq.options().clone();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (plan, spec, options) = (&plan, &spec, &options);
                    s.spawn(move || plan.run(spec, options).unwrap())
                })
                .collect();
            for h in handles {
                let r = h.join().unwrap();
                assert_eq!(r.values(), baseline.values());
                assert_eq!(r.finished(), baseline.finished());
            }
        });
    }

    #[test]
    fn options_control_buffering() {
        let mut scsq = Scsq::lofar();
        scsq.options_mut().mpi_buffer = 100_000;
        scsq.options_mut().mpi_double = false;
        let q = "select extract(b) from sp a, sp b
                 where b=sp(streamof(count(extract(a))), 'bg', 0)
                 and a=sp(gen_array(1000000,5),'bg',1);";
        let single = scsq.run(q).unwrap();
        scsq.options_mut().mpi_double = true;
        let double = scsq.run(q).unwrap();
        assert!(double.finished() < single.finished());
    }
}
