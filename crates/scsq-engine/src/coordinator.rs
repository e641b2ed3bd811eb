//! Cluster coordinators and the client manager.
//!
//! §2.2: "When the client manager identifies an SP, the sub-query of that
//! SP is registered with the coordinator of the cluster where the
//! sub-query is to be executed (feCC, bgCC, or beCC). Then, the
//! coordinator starts an RP to execute the sub-query." The BlueGene is
//! special: "since the BlueGene lacks server functionality, sub-queries
//! ... are registered with the feCC. The bgCC retrieves new sub-queries
//! from the feCC by polling" — so BlueGene RPs only come alive at the
//! next poll tick.

use crate::builder::QueryGraph;
use crate::error::EngineError;
use crate::measure::QueryResult;
use crate::runtime::{run_graph, RunOptions};
use scsq_cluster::{AllocSeq, ClusterName, CndbError, Environment, HardwareSpec, NodeId};
use scsq_ql::{parse_program, Catalog, Statement, Value};
use scsq_sim::{SimDur, SimTime};
use std::sync::Arc;

/// A cluster coordinator: owns node selection for its cluster and the
/// RP start-up discipline.
#[derive(Debug, Clone)]
pub struct Coordinator {
    cluster: ClusterName,
    /// Polling interval with which this coordinator retrieves new
    /// sub-queries (zero = push, i.e. direct registration).
    poll: SimDur,
}

impl Coordinator {
    /// The coordinator for a cluster, with the paper's start-up
    /// discipline: the bgCC polls (we use a 1 ms tick), feCC and beCC are
    /// reached directly.
    pub fn for_cluster(cluster: ClusterName) -> Coordinator {
        let poll = match cluster {
            ClusterName::BlueGene => SimDur::from_millis(1),
            _ => SimDur::ZERO,
        };
        Coordinator { cluster, poll }
    }

    /// The cluster this coordinator manages.
    pub fn cluster(&self) -> ClusterName {
        self.cluster
    }

    /// Registers a sub-query and selects a node for its RP via the
    /// cluster's CNDB.
    ///
    /// # Errors
    ///
    /// Propagates [`CndbError`] when the allocation sequence has no
    /// available node.
    pub fn register(&mut self, env: &mut Environment, seq: &AllocSeq) -> Result<NodeId, CndbError> {
        env.place(self.cluster, seq)
    }

    /// When an RP registered at `registered_at` actually starts running:
    /// immediately for push coordinators, at the next poll tick for the
    /// polling bgCC.
    pub fn rp_start_time(&self, registered_at: SimTime) -> SimTime {
        if self.poll == SimDur::ZERO {
            return registered_at;
        }
        let tick = self.poll.as_nanos();
        let at = registered_at.as_nanos();
        let next = at.div_ceil(tick).max(1) * tick;
        SimTime::from_nanos(next)
    }
}

/// A compiled, placed query plan, decoupled from any particular run.
///
/// Produced by [`ClientManager::prepare`]. The plan is immutable and
/// cheaply cloneable (the graph lives behind an [`Arc`]), and it is
/// `Send + Sync`, so one prepared plan can be executed concurrently from
/// many worker threads. Each [`PreparedQuery::run`] instantiates fresh
/// per-run state (a new simulated environment, stage chains, channel
/// buffers), so repeated runs are bit-identical to compiling from
/// scratch: the builder only touches the environment to *allocate*
/// nodes, and the allocations are recorded in the graph itself.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    graph: Arc<QueryGraph>,
}

impl PreparedQuery {
    /// Executes the plan on a fresh instance of `spec`'s hardware.
    ///
    /// `options` is consulted only for runtime knobs (MPI buffer size,
    /// double buffering, transport selection, event limit); the plan's
    /// shape — placements and receiver source parameters — was fixed at
    /// prepare time.
    ///
    /// # Errors
    ///
    /// Runtime errors only; the query is already compiled.
    pub fn run(
        &self,
        spec: &HardwareSpec,
        options: &RunOptions,
    ) -> Result<QueryResult, EngineError> {
        let env = Environment::new(spec.clone());
        run_graph(env, &self.graph, options)
    }

    /// Executes the plan with the run's observability switch forced on
    /// and returns the profile alongside the result.
    ///
    /// Runs exactly like [`PreparedQuery::run`] with
    /// `options.profile = true`: tallies are exact per-stage counts
    /// from whichever executor tier ran, the report carries the run's
    /// simulated-timeline spans, every channel report its latency
    /// histogram, and the query result is byte-identical to an
    /// unprofiled run.
    ///
    /// # Errors
    ///
    /// Runtime errors only; the query is already compiled.
    pub fn explain_analyze(
        &self,
        spec: &HardwareSpec,
        options: &RunOptions,
    ) -> Result<(QueryResult, crate::profile::ProfileReport), EngineError> {
        let mut opts = options.clone();
        opts.profile = true;
        let env = Environment::new(spec.clone());
        let result = run_graph(env, &self.graph, &opts)?;
        let profile = result
            .stats()
            .profile
            .clone()
            .ok_or_else(|| EngineError::Runtime("a profiled run carried no profile".into()))?;
        Ok((result, *profile))
    }

    /// The plan's set-up picture (same rendering as
    /// [`ClientManager::explain`]), its streams named by the carriers a
    /// run with `options` gives them.
    pub fn explain(&self, options: &RunOptions) -> String {
        crate::explain::explain_graph(&self.graph, options)
    }
}

/// The client manager: the front-end component users submit SCSQL to
/// (§2.2). Holds the persistent function catalog and executes statements
/// against a fresh environment per query.
#[derive(Debug, Default)]
pub struct ClientManager {
    catalog: Catalog,
    compilations: u64,
}

impl ClientManager {
    /// A client manager with an empty user catalog.
    pub fn new() -> ClientManager {
        ClientManager::default()
    }

    /// The current catalog (built-ins plus registered functions).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// How many query statements this manager has parsed, bound, and
    /// compiled so far (across [`ClientManager::execute_with`] and
    /// [`ClientManager::prepare`]). Sweeps that reuse a prepared plan
    /// leave this counter untouched — the test suite asserts exactly one
    /// compilation per distinct query text.
    pub fn compilations(&self) -> u64 {
        self.compilations
    }

    /// Registers a user-defined query function (the effect of a
    /// `create function` statement).
    ///
    /// # Errors
    ///
    /// Catalog errors on name collisions.
    pub fn define(&mut self, def: scsq_ql::FunctionDef) -> Result<(), EngineError> {
        self.catalog.define(def)?;
        Ok(())
    }

    /// Executes an SCSQL program: `create function` statements extend the
    /// catalog; query statements run on a fresh instance of `spec`'s
    /// hardware and return their result. Returns the result of the last
    /// query statement.
    ///
    /// # Errors
    ///
    /// Parse, binder, placement, or runtime errors; also an error when
    /// the program contains no query statement.
    pub fn execute(
        &mut self,
        spec: &HardwareSpec,
        src: &str,
        options: &RunOptions,
    ) -> Result<QueryResult, EngineError> {
        self.execute_with(spec, src, options, &[])
    }

    /// Like [`ClientManager::execute`], with pre-bound query variables —
    /// the paper's "altering a query variable n" (§3.2) without editing
    /// the query text.
    ///
    /// # Errors
    ///
    /// See [`ClientManager::execute`].
    pub fn execute_with(
        &mut self,
        spec: &HardwareSpec,
        src: &str,
        options: &RunOptions,
        bindings: &[(String, Value)],
    ) -> Result<QueryResult, EngineError> {
        let statements = parse_program(src)?;
        let mut last = None;
        for stmt in statements {
            match stmt {
                Statement::CreateFunction(def) => {
                    self.catalog.define(def)?;
                }
                other => {
                    let (env, graph) = self.compile(spec, &other, options, bindings)?;
                    last = Some(run_graph(env, &graph, options)?);
                }
            }
        }
        last.ok_or_else(|| EngineError::Runtime("program contained no query statement".to_string()))
    }

    /// Compiles a program's query statement into a reusable plan without
    /// running it. `create function` statements in the program extend
    /// the catalog, exactly as in [`ClientManager::execute_with`]; the
    /// last query statement becomes the plan. Placement runs once, here:
    /// every subsequent [`PreparedQuery::run`] replays the same graph on
    /// a fresh environment.
    ///
    /// # Errors
    ///
    /// Parse, binder, or placement errors; also an error when the
    /// program contains no query statement.
    pub fn prepare(
        &mut self,
        spec: &HardwareSpec,
        src: &str,
        options: &RunOptions,
        bindings: &[(String, Value)],
    ) -> Result<PreparedQuery, EngineError> {
        let statements = parse_program(src)?;
        let mut prepared = None;
        for stmt in statements {
            match stmt {
                Statement::CreateFunction(def) => {
                    self.catalog.define(def)?;
                }
                other => {
                    let (_, graph) = self.compile(spec, &other, options, bindings)?;
                    prepared = Some(PreparedQuery {
                        graph: Arc::new(graph),
                    });
                }
            }
        }
        prepared
            .ok_or_else(|| EngineError::Runtime("program contained no query statement".to_string()))
    }

    /// Parse → bind → place one query statement, counting the
    /// compilation. Returns the environment the builder placed against
    /// so `execute_with` can run on it directly.
    fn compile(
        &mut self,
        spec: &HardwareSpec,
        stmt: &Statement,
        options: &RunOptions,
        bindings: &[(String, Value)],
    ) -> Result<(Environment, QueryGraph), EngineError> {
        let mut env = Environment::new(spec.clone());
        let graph =
            crate::builder::QueryBuilder::new(&mut env, &self.catalog, options.placement, options)
                .build(stmt, bindings)?;
        self.compilations += 1;
        Ok((env, graph))
    }

    /// Explains a query's set-up (the paper's Fig 2 picture): stream
    /// processes, placements, and connecting streams — without running
    /// it. Placement happens against a scratch environment, so node
    /// allocations are not retained.
    ///
    /// # Errors
    ///
    /// Parse, binder, or placement errors.
    pub fn explain(
        &self,
        spec: &HardwareSpec,
        src: &str,
        options: &RunOptions,
    ) -> Result<String, EngineError> {
        let stmt = scsq_ql::parse_statement(src)?;
        let mut env = Environment::new(spec.clone());
        let graph =
            crate::builder::QueryBuilder::new(&mut env, &self.catalog, options.placement, options)
                .build(&stmt, &[])?;
        Ok(crate::explain::explain_graph(&graph, options))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bg_coordinator_polls() {
        let c = Coordinator::for_cluster(ClusterName::BlueGene);
        assert_eq!(
            c.rp_start_time(SimTime::ZERO),
            SimTime::from_millis(1),
            "registration at t=0 is picked up at the first tick"
        );
        assert_eq!(
            c.rp_start_time(SimTime::from_micros(1500)),
            SimTime::from_millis(2)
        );
        assert_eq!(
            c.rp_start_time(SimTime::from_millis(3)),
            SimTime::from_millis(3),
            "a registration exactly on a tick is picked up then"
        );
    }

    #[test]
    fn linux_coordinators_start_immediately() {
        for cl in [ClusterName::FrontEnd, ClusterName::BackEnd] {
            let c = Coordinator::for_cluster(cl);
            let t = SimTime::from_micros(123);
            assert_eq!(c.rp_start_time(t), t);
        }
    }

    #[test]
    fn register_allocates_nodes() {
        let mut env = Environment::lofar();
        let mut c = Coordinator::for_cluster(ClusterName::BlueGene);
        let a = c.register(&mut env, &AllocSeq::Any).unwrap();
        let b = c.register(&mut env, &AllocSeq::Any).unwrap();
        assert_ne!(a, b, "CNK nodes take one RP each");
    }
}
