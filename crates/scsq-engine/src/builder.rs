//! Query set-up: binding, stream-process creation, and placement.
//!
//! This is the client manager's front half (§2.2): given a parsed
//! statement, the [`QueryBuilder`] solves the `where`-clause equations in
//! dependency order, evaluates `sp()`/`spv()` calls into stream
//! processes (compiling each sub-query into a [`Pipeline`]), evaluates
//! allocation-sequence arguments against the CNDB vocabulary, registers
//! every SP with its cluster coordinator for node selection, and returns
//! the complete [`QueryGraph`] ready for execution.
//!
//! The paper's RPs can also start new RPs dynamically at run time; since
//! all the paper's queries have statically-known process structure, this
//! reproduction expands the full SP graph at set-up time (the observable
//! behaviour — who runs where, connected how — is identical).

use crate::coordinator::Coordinator;
use crate::error::EngineError;
use crate::funcs;
use crate::fused::{CostModel, PreparedSource};
use crate::ops::{AggKind, ArithOp, CmpOp, InputKind, MapFunc, Pipeline, Stage};
use crate::placement::PlacementPolicy;
use crate::runtime::RunOptions;
use crate::window::WindowSpec;
use scsq_cluster::{AllocSeq, ClusterName, Environment, NodeId};
use scsq_ql::{
    Builtin, Catalog, Expr, PredOp, Predicate, Resolved, SelectQuery, SpHandle, Statement,
    TypeName, Value, VarDecl,
};
use std::collections::HashMap;
use std::str::FromStr;

/// A fully-specified stream process: its compiled sub-query and the node
/// its RP will run on.
#[derive(Debug, Clone, PartialEq)]
pub struct SpSpec {
    /// The SP's handle (referenced by subscribers' `Receive` inputs).
    pub handle: SpHandle,
    /// The compiled SQEP.
    pub pipeline: Pipeline,
    /// The pipeline's compute-cost accounting, compiled once and read
    /// by every run of the graph.
    pub cost: CostModel,
    /// The pipeline's constant source as shared columns, when it
    /// qualifies ([`PreparedSource::prepare`]) — transposed here, once,
    /// so no run has to.
    pub source: Option<PreparedSource>,
    /// Where the RP runs.
    pub node: NodeId,
}

/// The complete set-up of one continuous query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryGraph {
    /// All stream processes, in creation order (producers before
    /// subscribers).
    pub sps: Vec<SpSpec>,
    /// The client manager's own pipeline (the top select head).
    pub client: Pipeline,
    /// The client pipeline's compute-cost accounting.
    pub client_cost: CostModel,
    /// Where the client manager runs.
    pub client_node: NodeId,
}

type Bindings = HashMap<String, Value>;

/// Builds a [`QueryGraph`] from a parsed statement.
#[derive(Debug)]
pub struct QueryBuilder<'a> {
    env: &'a mut Environment,
    catalog: &'a Catalog,
    policy: PlacementPolicy,
    options: &'a RunOptions,
    coordinators: HashMap<ClusterName, Coordinator>,
    sps: Vec<SpSpec>,
    next_handle: u64,
    fn_depth: u32,
}

/// The cluster an `sp()` call without a cluster argument runs in (the
/// client manager's own cluster).
const DEFAULT_CLUSTER: ClusterName = ClusterName::FrontEnd;

/// Recursion guard for user-defined function expansion.
const MAX_FN_DEPTH: u32 = 32;

impl<'a> QueryBuilder<'a> {
    /// Creates a builder over an idle environment.
    pub fn new(
        env: &'a mut Environment,
        catalog: &'a Catalog,
        policy: PlacementPolicy,
        options: &'a RunOptions,
    ) -> Self {
        QueryBuilder {
            env,
            catalog,
            policy,
            options,
            coordinators: HashMap::new(),
            sps: Vec::new(),
            next_handle: 0,
            fn_depth: 0,
        }
    }

    /// Builds the query graph for a statement, with optional pre-bound
    /// query variables (overriding `var = literal` predicates).
    ///
    /// # Errors
    ///
    /// Binder, type, catalog, or placement errors.
    pub fn build(
        mut self,
        stmt: &Statement,
        prebound: &[(String, Value)],
    ) -> Result<QueryGraph, EngineError> {
        let mut bindings: Bindings = prebound.iter().cloned().collect();
        let client = match stmt {
            Statement::Select(q) => {
                if q.head.len() != 1 {
                    return Err(EngineError::bind(format!(
                        "continuous queries have exactly one select-head expression, found {}",
                        q.head.len()
                    )));
                }
                self.bind_where(q, &mut bindings)?;
                self.compile_stream(&q.head[0], &bindings)?
            }
            Statement::Expr(e) => self.compile_stream(e, &bindings)?,
            Statement::CreateFunction(def) => {
                return Err(EngineError::bind(format!(
                    "`create function {}` must be executed through the client manager catalog",
                    def.name
                )))
            }
            Statement::Prepare { body, .. } => return self.build(body, prebound),
            Statement::Run(name) => {
                return Err(EngineError::bind(format!(
                    "`run {name}` needs a session catalog; execute it through a `Session`"
                )))
            }
            Statement::ShowCatalog => {
                return Err(EngineError::bind(
                    "`show catalog` needs a session catalog; execute it through a `Session`"
                        .to_string(),
                ))
            }
        };
        let client_node = self
            .coordinators
            .entry(ClusterName::FrontEnd)
            .or_insert_with(|| Coordinator::for_cluster(ClusterName::FrontEnd))
            .register(self.env, &AllocSeq::Any)?;
        let client_cost = CostModel::compile(&client);
        Ok(QueryGraph {
            sps: self.sps,
            client,
            client_cost,
            client_node,
        })
    }

    // ----- where-clause solving ---------------------------------------

    /// Solves all `=` predicates of a select query in dependency order.
    /// Pre-bound variables skip their defining equation (the paper's
    /// "altering a query variable n").
    fn bind_where(&mut self, q: &SelectQuery, bindings: &mut Bindings) -> Result<(), EngineError> {
        let mut remaining: Vec<&Predicate> = q.preds.iter().collect();
        loop {
            let mut progress = false;
            let mut next = Vec::new();
            for pred in remaining {
                match self.try_solve(q, pred, bindings)? {
                    true => progress = true,
                    false => next.push(pred),
                }
            }
            if next.is_empty() {
                // Every declared variable must now be bound.
                for d in &q.decls {
                    if !bindings.contains_key(&d.name) {
                        return Err(EngineError::bind(format!(
                            "variable `{}` is declared but never bound",
                            d.name
                        )));
                    }
                }
                return Ok(());
            }
            if !progress {
                let unbound: Vec<&str> = next
                    .iter()
                    .filter_map(|p| match &p.lhs {
                        Expr::Var(v) if !bindings.contains_key(v) => Some(v.as_str()),
                        _ => None,
                    })
                    .collect();
                return Err(EngineError::bind(format!(
                    "cannot resolve query variables (circular or underdetermined): {}",
                    if unbound.is_empty() {
                        "no variable side in remaining predicates".to_string()
                    } else {
                        unbound.join(", ")
                    }
                )));
            }
            remaining = next;
        }
    }

    /// Attempts one predicate; returns whether it was consumed.
    fn try_solve(
        &mut self,
        q: &SelectQuery,
        pred: &Predicate,
        bindings: &mut Bindings,
    ) -> Result<bool, EngineError> {
        if pred.op == PredOp::In {
            return Err(EngineError::bind(
                "`in` predicates are only supported inside sub-queries passed to spv()".to_string(),
            ));
        }
        // Identify the variable side.
        let (var, expr) = match (&pred.lhs, &pred.rhs) {
            (Expr::Var(v), rhs) => (v, rhs),
            (lhs, Expr::Var(v)) => (v, lhs),
            _ => {
                return Err(EngineError::bind(
                    "each `where` conjunct must bind a variable".to_string(),
                ))
            }
        };
        if bindings.contains_key(var) {
            // Pre-bound override or duplicate equation: consumed.
            return Ok(true);
        }
        let free = expr.free_vars();
        if !free.iter().all(|v| bindings.contains_key(v)) {
            return Ok(false);
        }
        let value = self.eval(expr, bindings)?;
        if let Some(decl) = q.decl(var) {
            check_decl(decl, &value)?;
        }
        bindings.insert(var.clone(), value);
        Ok(true)
    }

    // ----- value evaluation -------------------------------------------

    /// Evaluates an expression to a value at set-up time. Stream
    /// operators are not values; they only appear inside sub-queries
    /// compiled by [`QueryBuilder::compile_stream`].
    fn eval(&mut self, expr: &Expr, bindings: &Bindings) -> Result<Value, EngineError> {
        match expr {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Var(name) => bindings
                .get(name)
                .cloned()
                .ok_or_else(|| EngineError::bind(format!("unbound variable `{name}`"))),
            Expr::Set(items) => Ok(Value::Bag(
                items
                    .iter()
                    .map(|e| self.eval(e, bindings))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::Select(_) => Err(EngineError::bind(
                "a sub-query is not a value; pass it to sp() or spv()".to_string(),
            )),
            Expr::Call { name, args } => match self.catalog.resolve(name, args.len())? {
                Resolved::Builtin(b) => self.eval_builtin(b, name, args, bindings),
                Resolved::User(def) => {
                    let def = def.clone();
                    let local = self.bind_params(&def, args, bindings)?;
                    self.with_fn_depth(|this| this.eval(&def.body, &local))
                }
            },
        }
    }

    fn eval_builtin(
        &mut self,
        b: Builtin,
        name: &str,
        args: &[Expr],
        bindings: &Bindings,
    ) -> Result<Value, EngineError> {
        match b {
            Builtin::Sp => {
                let handle = self.create_sp(&args[0], args.get(1), args.get(2), bindings)?;
                Ok(Value::Sp(handle))
            }
            Builtin::Spv => {
                let handles = self.create_spv(&args[0], args.get(1), args.get(2), bindings)?;
                Ok(Value::Bag(handles.into_iter().map(Value::Sp).collect()))
            }
            Builtin::Iota => {
                let lo = self.eval_integer(&args[0], bindings, "iota lower bound")?;
                let hi = self.eval_integer(&args[1], bindings, "iota upper bound")?;
                Ok(Value::Bag((lo..=hi).map(Value::Integer).collect()))
            }
            Builtin::Filename => {
                let i = self.eval_integer(&args[0], bindings, "filename index")?;
                Ok(Value::Str(funcs::filename(i)))
            }
            Builtin::Urr | Builtin::InPset | Builtin::PsetRr => Err(EngineError::bind(format!(
                "`{name}` is a node allocation query and only valid as the allocation-sequence \
                 argument of sp() or spv()"
            ))),
            Builtin::Nodes => {
                let s = self.eval_string(&args[0], bindings, "nodes cluster argument")?;
                let cluster =
                    ClusterName::from_str(&s).map_err(|e| EngineError::bind(e.to_string()))?;
                let available: Vec<Value> = self
                    .env
                    .cndb(cluster)
                    .iter()
                    .filter(|n| n.available())
                    .map(|n| Value::Integer(n.id.index as i64))
                    .collect();
                Ok(Value::Bag(available))
            }
            _ => Err(EngineError::bind(format!(
                "stream function `{name}` used in value position; wrap it in sp()"
            ))),
        }
    }

    fn eval_integer(
        &mut self,
        expr: &Expr,
        bindings: &Bindings,
        context: &str,
    ) -> Result<i64, EngineError> {
        let v = self.eval(expr, bindings)?;
        v.as_integer()
            .ok_or_else(|| EngineError::type_error("integer", &v, context))
    }

    fn eval_string(
        &mut self,
        expr: &Expr,
        bindings: &Bindings,
        context: &str,
    ) -> Result<String, EngineError> {
        let v = self.eval(expr, bindings)?;
        match v {
            Value::Str(s) => Ok(s),
            other => Err(EngineError::type_error("string", &other, context)),
        }
    }

    fn bind_params(
        &mut self,
        def: &scsq_ql::FunctionDef,
        args: &[Expr],
        bindings: &Bindings,
    ) -> Result<Bindings, EngineError> {
        let mut local = Bindings::new();
        for ((pname, _ty), arg) in def.params.iter().zip(args) {
            let v = self.eval(arg, bindings)?;
            local.insert(pname.clone(), v);
        }
        Ok(local)
    }

    fn with_fn_depth<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        self.fn_depth += 1;
        if self.fn_depth > MAX_FN_DEPTH {
            return Err(EngineError::bind(
                "user-defined function expansion exceeded the recursion limit".to_string(),
            ));
        }
        let r = f(self);
        self.fn_depth -= 1;
        r
    }

    // ----- stream process creation -------------------------------------

    fn cluster_arg(
        &mut self,
        arg: Option<&Expr>,
        bindings: &Bindings,
    ) -> Result<ClusterName, EngineError> {
        match arg {
            None => Ok(DEFAULT_CLUSTER),
            Some(e) => {
                let s = self.eval_string(e, bindings, "sp cluster argument")?;
                ClusterName::from_str(&s).map_err(|err| EngineError::bind(err.to_string()))
            }
        }
    }

    /// Evaluates an allocation-sequence argument (§2.4: "a node
    /// allocation query ... returns a stream of allowable compute nodes
    /// in preferred allocation order").
    fn alloc_seq(
        &mut self,
        arg: Option<&Expr>,
        bindings: &Bindings,
    ) -> Result<AllocSeq, EngineError> {
        let Some(expr) = arg else {
            return Ok(AllocSeq::Any);
        };
        if let Expr::Call { name, args } = expr {
            match Builtin::lookup(name) {
                Some(Builtin::Urr) => {
                    // The argument names the cluster whose CNDB feeds the
                    // sequence; it must parse as a cluster name.
                    let s = self.eval_string(&args[0], bindings, "urr cluster argument")?;
                    ClusterName::from_str(&s).map_err(|e| EngineError::bind(e.to_string()))?;
                    return Ok(AllocSeq::UniformRoundRobin);
                }
                Some(Builtin::InPset) => {
                    let k = self.eval_integer(&args[0], bindings, "inPset argument")?;
                    if k < 1 {
                        return Err(EngineError::bind(format!(
                            "inPset psets are numbered from 1, got {k}"
                        )));
                    }
                    return Ok(AllocSeq::InPset((k - 1) as usize));
                }
                Some(Builtin::PsetRr) => return Ok(AllocSeq::PsetRoundRobin),
                _ => {}
            }
        }
        // Otherwise the argument evaluates to explicit node number(s).
        let v = self.eval(expr, bindings)?;
        explicit_alloc(&v)
    }

    fn create_sp(
        &mut self,
        subquery: &Expr,
        cluster_arg: Option<&Expr>,
        alloc_arg: Option<&Expr>,
        bindings: &Bindings,
    ) -> Result<SpHandle, EngineError> {
        let cluster = self.cluster_arg(cluster_arg, bindings)?;
        let alloc = self.alloc_seq(alloc_arg, bindings)?;
        let pipeline = self.compile_stream(subquery, bindings)?;
        self.register_sp(pipeline, cluster, &alloc)
    }

    fn create_spv(
        &mut self,
        subqueries: &Expr,
        cluster_arg: Option<&Expr>,
        alloc_arg: Option<&Expr>,
        bindings: &Bindings,
    ) -> Result<Vec<SpHandle>, EngineError> {
        let cluster = self.cluster_arg(cluster_arg, bindings)?;
        // "This allocation sequence stream is later shipped back to the
        // cluster coordinator by the spv() call" (§3.2): evaluated once,
        // consumed per SP by the node-selection algorithm.
        let alloc = self.alloc_seq(alloc_arg, bindings)?;
        let Expr::Select(sub) = subqueries else {
            return Err(EngineError::bind(
                "spv() takes a sub-query (select …) as its first argument".to_string(),
            ));
        };
        if sub.head.len() != 1 {
            return Err(EngineError::bind(
                "spv() sub-queries have exactly one head expression".to_string(),
            ));
        }
        let instances = self.enumerate(sub, bindings.clone())?;
        let mut handles = Vec::with_capacity(instances.len());
        for inst in &instances {
            let pipeline = self.compile_stream(&sub.head[0], inst)?;
            handles.push(self.register_sp(pipeline, cluster, &alloc)?);
        }
        Ok(handles)
    }

    fn register_sp(
        &mut self,
        pipeline: Pipeline,
        cluster: ClusterName,
        alloc: &AllocSeq,
    ) -> Result<SpHandle, EngineError> {
        let effective = self.policy.effective(cluster, alloc);
        let node = self
            .coordinators
            .entry(cluster)
            .or_insert_with(|| Coordinator::for_cluster(cluster))
            .register(self.env, &effective)?;
        let handle = SpHandle(self.next_handle);
        self.next_handle += 1;
        let cost = CostModel::compile(&pipeline);
        let source = PreparedSource::prepare(&pipeline).ok();
        self.sps.push(SpSpec {
            handle,
            pipeline,
            cost,
            source,
            node,
        });
        Ok(handle)
    }

    /// Enumerates the binding instances of a sub-query: solves ready `=`
    /// predicates, then expands each `in` predicate over its bag — the
    /// degree-of-parallelism mechanism of the paper's queries
    /// (`where i in iota(1,n)` / `where p in a`).
    fn enumerate(
        &mut self,
        q: &SelectQuery,
        bindings: Bindings,
    ) -> Result<Vec<Bindings>, EngineError> {
        let preds: Vec<Predicate> = q.preds.clone();
        let mut out = Vec::new();
        self.enumerate_rec(q, &preds, bindings, &mut out)?;
        Ok(out)
    }

    fn enumerate_rec(
        &mut self,
        q: &SelectQuery,
        remaining: &[Predicate],
        mut bindings: Bindings,
        out: &mut Vec<Bindings>,
    ) -> Result<(), EngineError> {
        // Solve every ready `=` predicate first.
        let mut rest: Vec<Predicate> = Vec::new();
        for pred in remaining {
            if pred.op == PredOp::Eq {
                let (var, expr) = match (&pred.lhs, &pred.rhs) {
                    (Expr::Var(v), rhs) => (v, rhs),
                    (lhs, Expr::Var(v)) => (v, lhs),
                    _ => {
                        return Err(EngineError::bind(
                            "each `where` conjunct must bind a variable".to_string(),
                        ))
                    }
                };
                if bindings.contains_key(var) {
                    continue;
                }
                if expr.free_vars().iter().all(|v| bindings.contains_key(v)) {
                    let value = self.eval(expr, &bindings)?;
                    if let Some(decl) = q.decl(var) {
                        check_decl(decl, &value)?;
                    }
                    bindings.insert(var.clone(), value);
                    continue;
                }
            }
            rest.push(pred.clone());
        }
        // Find an expandable `in` predicate.
        let expandable = rest.iter().enumerate().find_map(|(i, p)| match &p.lhs {
            Expr::Var(v)
                if p.op == PredOp::In
                    && !bindings.contains_key(v)
                    && p.rhs.free_vars().iter().all(|v| bindings.contains_key(v)) =>
            {
                Some((i, v.clone()))
            }
            _ => None,
        });
        match expandable {
            Some((i, var)) => {
                let pred = rest.remove(i);
                let bag = self.eval(&pred.rhs, &bindings)?;
                let items = match bag {
                    Value::Bag(items) => items,
                    other => return Err(EngineError::type_error("bag", &other, "`in` predicate")),
                };
                for item in items {
                    if let Some(decl) = q.decl(&var) {
                        check_decl(decl, &item)?;
                    }
                    let mut b = bindings.clone();
                    b.insert(var.clone(), item);
                    self.enumerate_rec(q, &rest, b, out)?;
                }
                Ok(())
            }
            None if rest.is_empty() => {
                out.push(bindings);
                Ok(())
            }
            None => Err(EngineError::bind(
                "sub-query predicates are circular or underdetermined".to_string(),
            )),
        }
    }

    // ----- stream compilation -------------------------------------------

    /// Compiles an expression into an SQEP [`Pipeline`].
    fn compile_stream(
        &mut self,
        expr: &Expr,
        bindings: &Bindings,
    ) -> Result<Pipeline, EngineError> {
        match expr {
            Expr::Call { name, args } => match self.catalog.resolve(name, args.len())? {
                Resolved::Builtin(b) => self.compile_builtin(b, name, args, bindings),
                Resolved::User(def) => {
                    let def = def.clone();
                    let local = self.bind_params(&def, args, bindings)?;
                    self.with_fn_depth(|this| this.compile_stream(&def.body, &local))
                }
            },
            Expr::Select(q) => {
                // A select used as a stream (user-function bodies): solve
                // its where clause, compile its head.
                if q.head.len() != 1 {
                    return Err(EngineError::bind(
                        "stream sub-queries have exactly one head expression".to_string(),
                    ));
                }
                let mut local = bindings.clone();
                self.bind_where(q, &mut local)?;
                self.compile_stream(&q.head[0], &local)
            }
            // Everything else evaluates to a value and streams from there.
            other => {
                let v = self.eval(other, bindings)?;
                Ok(value_pipeline(v))
            }
        }
    }

    fn compile_builtin(
        &mut self,
        b: Builtin,
        name: &str,
        args: &[Expr],
        bindings: &Bindings,
    ) -> Result<Pipeline, EngineError> {
        match b {
            Builtin::Extract => {
                let v = self.eval(&args[0], bindings)?;
                let h = v
                    .as_sp()
                    .ok_or_else(|| EngineError::type_error("sp", &v, "extract()"))?;
                Ok(Pipeline::relay(vec![h]))
            }
            Builtin::Merge => {
                let v = self.eval(&args[0], bindings)?;
                Ok(Pipeline::relay(sp_handles(&v, "merge()")?))
            }
            Builtin::Count | Builtin::Sum | Builtin::Max | Builtin::Min | Builtin::Avg => {
                let mut p = self.compile_stream(&args[0], bindings)?;
                let kind = match b {
                    Builtin::Count => AggKind::Count,
                    Builtin::Sum => AggKind::Sum,
                    Builtin::Max => AggKind::Max,
                    Builtin::Min => AggKind::Min,
                    _ => AggKind::Avg,
                };
                p.stages.push(Stage::Agg(kind));
                Ok(p)
            }
            Builtin::Streamof => {
                let mut p = self.compile_stream(&args[0], bindings)?;
                p.stages.push(Stage::StreamOf);
                Ok(p)
            }
            Builtin::GenArray => {
                let bytes = self.eval_integer(&args[0], bindings, "gen_array size")?;
                let count = self.eval_integer(&args[1], bindings, "gen_array count")?;
                if bytes <= 0 || count <= 0 {
                    return Err(EngineError::bind(format!(
                        "gen_array needs positive size and count, got ({bytes}, {count})"
                    )));
                }
                Ok(Pipeline {
                    input: InputKind::Gen {
                        bytes: bytes as u64,
                        count: count as u64,
                    },
                    stages: Vec::new(),
                })
            }
            Builtin::Fft | Builtin::Power | Builtin::Odd | Builtin::Even => {
                let mut p = self.compile_stream(&args[0], bindings)?;
                let f = match b {
                    Builtin::Fft => MapFunc::Fft,
                    Builtin::Power => MapFunc::Power,
                    Builtin::Odd => MapFunc::Odd,
                    _ => MapFunc::Even,
                };
                p.stages.push(Stage::Map(f));
                Ok(p)
            }
            Builtin::RadixCombine => {
                let p = self.compile_stream(&args[0], bindings)?;
                if !p.stages.is_empty() || p.producers().len() != 2 {
                    return Err(EngineError::bind(
                        "radixcombine takes merge({odd_fft_sp, even_fft_sp}) — exactly two \
                         producers"
                            .to_string(),
                    ));
                }
                let first = p.producers()[0];
                let second = p.producers()[1];
                Ok(Pipeline {
                    input: p.input,
                    stages: vec![Stage::RadixCombine { first, second }],
                })
            }
            Builtin::Grep => {
                let pattern = self.eval_string(&args[0], bindings, "grep pattern")?;
                let file = self.eval_string(&args[1], bindings, "grep file")?;
                Ok(Pipeline {
                    input: InputKind::Grep { pattern, file },
                    stages: Vec::new(),
                })
            }
            Builtin::Receiver => {
                let source = self.eval_string(&args[0], bindings, "receiver source")?;
                Ok(Pipeline {
                    input: InputKind::Receiver {
                        name: source,
                        arrays: self.options.receiver_arrays,
                        samples: self.options.receiver_samples,
                    },
                    stages: Vec::new(),
                })
            }
            Builtin::WindowAgg => {
                let mut p = self.compile_stream(&args[0], bindings)?;
                let size = self.eval_integer(&args[1], bindings, "winagg size")?;
                let slide = self.eval_integer(&args[2], bindings, "winagg slide")?;
                let agg = match self
                    .eval_string(&args[3], bindings, "winagg function")?
                    .as_str()
                {
                    "count" => AggKind::Count,
                    "sum" => AggKind::Sum,
                    "max" => AggKind::Max,
                    "min" => AggKind::Min,
                    "avg" => AggKind::Avg,
                    other => {
                        return Err(EngineError::bind(format!(
                            "winagg supports 'count', 'sum', 'max', 'min', 'avg'; got '{other}'"
                        )))
                    }
                };
                if size <= 0 || slide <= 0 {
                    return Err(EngineError::bind(
                        "winagg size and slide must be positive".to_string(),
                    ));
                }
                p.stages.push(Stage::Window(WindowSpec::new(
                    size as usize,
                    slide as usize,
                    agg,
                )?));
                Ok(p)
            }
            Builtin::Take => {
                let mut p = self.compile_stream(&args[0], bindings)?;
                let limit = self.eval_integer(&args[1], bindings, "take limit")?;
                if limit < 0 {
                    return Err(EngineError::bind(format!(
                        "take limit must be non-negative, got {limit}"
                    )));
                }
                p.stages.push(Stage::Take {
                    limit: limit as u64,
                });
                Ok(p)
            }
            // sp()/spv() in stream position: evaluate (creating the SPs)
            // and subscribe to the result.
            Builtin::Sp | Builtin::Spv => {
                let v = self.eval_builtin(b, name, args, bindings)?;
                Ok(value_pipeline(v))
            }
            Builtin::Metrics => {
                let v = self.eval(&args[0], bindings)?;
                let targets = sp_handles(&v, "metrics()")?;
                Ok(Pipeline {
                    input: InputKind::Metrics { targets },
                    stages: Vec::new(),
                })
            }
            Builtin::Bandwidth => {
                let mut p = self.compile_stream(&args[0], bindings)?;
                p.stages.push(Stage::Bandwidth);
                Ok(p)
            }
            Builtin::Latency => {
                let v = self.eval(&args[0], bindings)?;
                let targets = sp_handles(&v, "latency()")?;
                Ok(Pipeline {
                    input: InputKind::Latency { targets },
                    stages: Vec::new(),
                })
            }
            Builtin::Quantile => {
                let mut p = self.compile_stream(&args[0], bindings)?;
                let qv = self.eval(&args[1], bindings)?;
                let q = qv
                    .as_real()
                    .ok_or_else(|| EngineError::type_error("number", &qv, "quantile level"))?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(EngineError::bind(format!(
                        "quantile level must be in [0, 1], got {q}"
                    )));
                }
                p.stages.push(Stage::Quantile { q });
                Ok(p)
            }
            Builtin::Arith => {
                let mut p = self.compile_stream(&args[0], bindings)?;
                let spelled = self.eval_string(&args[1], bindings, "arith operator")?;
                let op = ArithOp::parse(&spelled).ok_or_else(|| {
                    EngineError::bind(format!("arith supports '+', '-', '*'; got '{spelled}'"))
                })?;
                let rhs = self.eval(&args[2], bindings)?;
                if !matches!(rhs, Value::Integer(_) | Value::Real(_)) {
                    return Err(EngineError::type_error("number", &rhs, "arith constant"));
                }
                p.stages.push(Stage::Arith { op, rhs });
                Ok(p)
            }
            Builtin::Cmp | Builtin::Filter => {
                let mut p = self.compile_stream(&args[0], bindings)?;
                let spelled = self.eval_string(&args[1], bindings, "comparison operator")?;
                let op = CmpOp::parse(&spelled).ok_or_else(|| {
                    EngineError::bind(format!(
                        "{name} supports '<', '<=', '>', '>=', '=', '!='; got '{spelled}'"
                    ))
                })?;
                let rhs = self.eval(&args[2], bindings)?;
                if !matches!(rhs, Value::Integer(_) | Value::Real(_) | Value::Str(_)) {
                    return Err(EngineError::type_error(
                        "number or string",
                        &rhs,
                        "comparison constant",
                    ));
                }
                p.stages.push(if b == Builtin::Cmp {
                    Stage::Cmp { op, rhs }
                } else {
                    Stage::Filter { op, rhs }
                });
                Ok(p)
            }
            Builtin::Iota | Builtin::Filename | Builtin::Nodes => {
                let v = self.eval_builtin(b, name, args, bindings)?;
                Ok(value_pipeline(v))
            }
            Builtin::Urr | Builtin::InPset | Builtin::PsetRr => Err(EngineError::bind(format!(
                "`{name}` is a node allocation query and cannot be used as a stream"
            ))),
        }
    }
}

/// Turns an already-evaluated value into a pipeline: SP handles become
/// subscriptions, anything else becomes a constant stream.
fn value_pipeline(v: Value) -> Pipeline {
    let values = match v {
        Value::Sp(h) => return Pipeline::relay(vec![h]),
        Value::Bag(items) => match items.iter().map(Value::as_sp).collect::<Option<Vec<_>>>() {
            Some(sps) if !sps.is_empty() => return Pipeline::relay(sps),
            _ => items,
        },
        other => vec![other],
    };
    Pipeline {
        input: InputKind::Const {
            values: values.into(),
        },
        stages: Vec::new(),
    }
}

fn sp_handles(v: &Value, context: &str) -> Result<Vec<SpHandle>, EngineError> {
    match v {
        Value::Sp(h) => Ok(vec![*h]),
        Value::Bag(items) => items
            .iter()
            .map(|i| {
                i.as_sp()
                    .ok_or_else(|| EngineError::type_error("sp", i, context))
            })
            .collect(),
        other => Err(EngineError::type_error("sp or bag of sp", other, context)),
    }
}

fn explicit_alloc(v: &Value) -> Result<AllocSeq, EngineError> {
    let to_index = |v: &Value| -> Result<usize, EngineError> {
        let i = v
            .as_integer()
            .ok_or_else(|| EngineError::type_error("integer", v, "allocation sequence"))?;
        usize::try_from(i).map_err(|_| {
            EngineError::bind(format!(
                "allocation sequence node numbers must be ≥ 0, got {i}"
            ))
        })
    };
    match v {
        Value::Integer(_) => Ok(AllocSeq::Explicit(vec![to_index(v)?])),
        Value::Bag(items) => Ok(AllocSeq::Explicit(
            items.iter().map(to_index).collect::<Result<_, _>>()?,
        )),
        other => Err(EngineError::type_error(
            "integer or bag of integers",
            other,
            "allocation sequence",
        )),
    }
}

fn check_decl(decl: &VarDecl, value: &Value) -> Result<(), EngineError> {
    let context = format!("binding of `{}`", decl.name);
    if decl.bag {
        if !matches!(value, Value::Bag(_)) {
            return Err(EngineError::type_error("bag", value, &context));
        }
        return Ok(());
    }
    let ok = match decl.ty {
        TypeName::Sp => matches!(value, Value::Sp(_)),
        TypeName::Integer => matches!(value, Value::Integer(_)),
        TypeName::Real => matches!(value, Value::Real(_) | Value::Integer(_)),
        TypeName::String => matches!(value, Value::Str(_)),
        TypeName::Stream => matches!(value, Value::Stream(_) | Value::Sp(_)),
        TypeName::Object => true,
    };
    if ok {
        Ok(())
    } else {
        Err(EngineError::Type {
            expected: decl.ty.as_str(),
            found: value.type_name().to_string(),
            context,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scsq_ql::parse_statement;

    fn build(src: &str) -> Result<QueryGraph, EngineError> {
        build_with(src, &[])
    }

    fn build_with(src: &str, pre: &[(String, Value)]) -> Result<QueryGraph, EngineError> {
        let mut env = Environment::lofar();
        let catalog = Catalog::new();
        let options = RunOptions::default();
        let stmt = parse_statement(src).expect("parses");
        QueryBuilder::new(&mut env, &catalog, PlacementPolicy::Naive, &options).build(&stmt, pre)
    }

    #[test]
    fn p2p_query_builds_two_sps_on_requested_nodes() {
        let g = build(
            "select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array(3000000,100),'bg',1);",
        )
        .unwrap();
        assert_eq!(g.sps.len(), 2);
        // a is created first (b depends on it) and pinned to bg node 1.
        assert_eq!(g.sps[0].node, NodeId::bg(1));
        assert!(matches!(
            g.sps[0].pipeline.input,
            InputKind::Gen {
                bytes: 3_000_000,
                count: 100
            }
        ));
        // b is pinned to bg node 0 and counts a's stream.
        assert_eq!(g.sps[1].node, NodeId::bg(0));
        assert_eq!(g.sps[1].pipeline.producers(), &[g.sps[0].handle]);
        assert_eq!(
            g.sps[1].pipeline.stages,
            vec![Stage::Agg(AggKind::Count), Stage::StreamOf]
        );
        // The client subscribes to b.
        assert_eq!(g.client.producers(), &[g.sps[1].handle]);
        assert_eq!(g.client_node, NodeId::fe(0));
    }

    #[test]
    fn spv_expands_in_predicates() {
        let g = build(
            "select extract(c) from
             bag of sp a, sp b, sp c, integer n
             where c=sp(extract(b), 'bg')
             and b=sp(count(merge(a)), 'bg')
             and a=spv(
               (select gen_array(3000000,100)
                from integer i where i in iota(1,n)),
               'be', 1)
             and n=4;",
        )
        .unwrap();
        // 4 generators + b + c.
        assert_eq!(g.sps.len(), 6);
        // All four generators co-located on back-end node 1 (Query 1).
        for sp in &g.sps[..4] {
            assert_eq!(sp.node, NodeId::be(1));
        }
        // b merges the four generators.
        assert_eq!(g.sps[4].pipeline.producers().len(), 4);
    }

    #[test]
    fn prebound_variables_override_equations() {
        let g = build_with(
            "select extract(b) from bag of sp a, sp b, integer n
             where b=sp(count(merge(a)), 'bg')
             and a=spv((select gen_array(1000,1) from integer i where i in iota(1,n)), 'be', 1)
             and n=2;",
            &[("n".to_string(), Value::Integer(7))],
        )
        .unwrap();
        // 7 generators + b, despite n=4... n=2 in the text.
        assert_eq!(g.sps.len(), 8);
    }

    #[test]
    fn urr_spreads_spv_over_nodes() {
        let g = build(
            "select extract(b) from bag of sp a, sp b, integer n
             where b=sp(count(merge(a)), 'bg')
             and a=spv((select gen_array(1000,1) from integer i where i in iota(1,n)), 'be', urr('be'))
             and n=6;",
        )
        .unwrap();
        let nodes: Vec<usize> = g.sps[..6].iter().map(|s| s.node.index).collect();
        assert_eq!(nodes, vec![0, 1, 2, 3, 0, 1], "round-robin over 4 be nodes");
    }

    #[test]
    fn in_pset_confines_and_psetrr_spreads() {
        let confined = build(
            "select extract(c) from bag of sp a, bag of sp b, sp c, integer n
             where c=sp(streamof(sum(merge(b))), 'bg')
             and b=spv((select streamof(count(extract(p))) from sp p where p in a), 'bg', inPset(1))
             and a=spv((select gen_array(1000,1) from integer i where i in iota(1,n)), 'be', 1)
             and n=3;",
        )
        .unwrap();
        // b's three receivers all in pset 0 (1-based pset 1).
        let b_nodes: Vec<usize> = confined.sps[3..6].iter().map(|s| s.node.index).collect();
        assert!(b_nodes.iter().all(|&i| i < 8), "{b_nodes:?}");

        let spread = build(
            "select extract(c) from bag of sp a, bag of sp b, sp c, integer n
             where c=sp(streamof(sum(merge(b))), 'bg')
             and b=spv((select streamof(count(extract(p))) from sp p where p in a), 'bg', psetrr())
             and a=spv((select gen_array(1000,1) from integer i where i in iota(1,n)), 'be', 1)
             and n=3;",
        )
        .unwrap();
        let b_nodes: Vec<usize> = spread.sps[3..6].iter().map(|s| s.node.index).collect();
        assert_eq!(b_nodes, vec![0, 8, 16], "one node per pset");
    }

    #[test]
    fn explicit_node_conflict_fails_like_the_paper_says() {
        // Two SPs pinned to the same CNK node: "the query will fail".
        let err = build(
            "select extract(b) from sp a, sp b
             where a=sp(gen_array(1000,1),'bg',3)
             and b=sp(count(extract(a)),'bg',3);",
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Placement(_)), "{err}");
    }

    #[test]
    fn circular_bindings_are_reported() {
        let err = build(
            "select extract(a) from sp a, sp b
             where a=sp(extract(b),'bg') and b=sp(extract(a),'bg');",
        )
        .unwrap_err();
        assert!(err.to_string().contains("circular"), "{err}");
    }

    #[test]
    fn type_mismatch_against_declaration_is_reported() {
        let err = build(
            "select extract(a) from sp a, integer n
             where a=sp(gen_array(1000,1),'bg') and n=sp(gen_array(1000,1),'bg');",
        )
        .unwrap_err();
        assert!(err.to_string().contains("expected integer"), "{err}");
    }

    #[test]
    fn bare_expression_statement_compiles_as_client_pipeline() {
        let g = build(
            "merge(spv(
                select grep(\"pulsar\", filename(i))
                from integer i
                where i in iota(1,5)));",
        )
        .unwrap();
        assert_eq!(g.sps.len(), 5);
        assert_eq!(g.client.producers().len(), 5);
        for sp in &g.sps {
            assert!(matches!(sp.pipeline.input, InputKind::Grep { .. }));
        }
    }

    #[test]
    fn radix2_function_body_builds_three_sps() {
        let mut env = Environment::lofar();
        let mut catalog = Catalog::new();
        let options = RunOptions::default();
        let Statement::CreateFunction(def) = parse_statement(
            "create function radix2(string s) -> stream
             as select radixcombine(merge({a,b}))
             from sp a, sp b, sp c
             where a=sp(fft(odd (extract(c))))
             and b=sp(fft(even(extract(c))))
             and c=sp(receiver(s));",
        )
        .unwrap() else {
            panic!()
        };
        catalog.define(def).unwrap();
        let stmt = parse_statement("radix2('lofar-antenna-7');").unwrap();
        let g = QueryBuilder::new(&mut env, &catalog, PlacementPolicy::Naive, &options)
            .build(&stmt, &[])
            .unwrap();
        // c (receiver), a (fft∘odd), b (fft∘even).
        assert_eq!(g.sps.len(), 3);
        assert!(matches!(
            g.sps[0].pipeline.input,
            InputKind::Receiver { .. }
        ));
        assert_eq!(
            g.sps[1].pipeline.stages,
            vec![Stage::Map(MapFunc::Odd), Stage::Map(MapFunc::Fft)]
        );
        // The client pipeline pairs a (odd) and b (even).
        assert_eq!(
            g.client.stages,
            vec![Stage::RadixCombine {
                first: g.sps[1].handle,
                second: g.sps[2].handle,
            }]
        );
    }

    #[test]
    fn unknown_cluster_is_reported() {
        let err =
            build("select extract(a) from sp a where a=sp(gen_array(1,1),'xx');").unwrap_err();
        assert!(err.to_string().contains("unknown cluster name"), "{err}");
    }

    #[test]
    fn alloc_functions_are_rejected_in_value_position() {
        let err = build(
            "select extract(a) from sp a, integer n
             where a=sp(gen_array(1,1),'bg') and n=psetrr();",
        )
        .unwrap_err();
        assert!(err.to_string().contains("node allocation"), "{err}");
    }
}
