//! Sessions and the shared prepared-plan cache behind the serving
//! front door.
//!
//! The paper's SCSQ is a long-lived service: "users interact with SCSQ
//! on a Linux front-end cluster" (§2.1), posing stream queries to a
//! client manager that serves many users at once. This module is the
//! engine-side state of that service shape, shared by the interactive
//! shell and the `scsqd` daemon:
//!
//! * [`SessionHub`] — what every client of one server shares: the
//!   [`ClientManager`] (function catalog + the `compilations` counter)
//!   and an **interning cache** of compiled plans keyed by canonical
//!   statement text. Two sessions preparing the same query text get the
//!   *same* [`PreparedQuery`] `Arc`, and the second one costs zero
//!   compilations — `tests/server.rs` pins exactly that.
//! * [`Session`] — one client's view: a private catalog of **named
//!   prepared queries** (`prepare name as …` / `run name` /
//!   `show catalog`) plus the client's runtime options. Dropping a
//!   session releases its names without touching any other session or
//!   the shared cache.
//!
//! Execution stays fully deterministic: every run replays an immutable
//! plan on a fresh simulated environment, so a served query is
//! byte-identical to the same query run one-shot.

use crate::coordinator::{ClientManager, PreparedQuery};
use crate::error::EngineError;
use crate::measure::QueryResult;
use crate::placement::PlacementPolicy;
use crate::runtime::RunOptions;
use scsq_cluster::HardwareSpec;
use scsq_ql::{parse_program, statement_to_scsql, Statement};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Plans the hub keeps interned. A constant, not an option: it only has
/// to hold a server's hot set (the benchmark's served mix re-uses 72
/// texts), and it is what keeps a long-lived daemon's memory flat.
const PLAN_CACHE_CAP: usize = 128;

/// The interned plans with their last-use stamps: a fixed-capacity LRU.
/// Named plans keep their own `Arc` in the session catalog, so evicting
/// a text here never invalidates a `run <name>`.
#[derive(Debug, Default)]
struct PlanCache {
    plans: HashMap<String, (Arc<PreparedQuery>, u64)>,
    /// Stamp of the latest hit or insert.
    clock: u64,
    evictions: u64,
}

impl PlanCache {
    fn get(&mut self, key: &str) -> Option<Arc<PreparedQuery>> {
        let (plan, used) = self.plans.get_mut(key)?;
        self.clock += 1;
        *used = self.clock;
        Some(Arc::clone(plan))
    }

    /// Interns `plan`, first dropping the least recently used entry if
    /// the cache is full — an O(cap) scan, paid on a miss only (next to
    /// a compilation).
    fn insert(&mut self, key: String, plan: Arc<PreparedQuery>) {
        if self.plans.len() >= PLAN_CACHE_CAP {
            let oldest = self
                .plans
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(key, _)| key.clone());
            if let Some(oldest) = oldest {
                self.plans.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.clock += 1;
        self.plans.insert(key, (plan, self.clock));
    }
}

/// Locks one of the hub's mutexes, recovering it if a session thread
/// panicked while holding it: the plan cache is only mutated after a
/// compilation has returned and the rest is counters, so the data is
/// valid at every step and one session's panic must not wedge the others.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The state every session of one server shares: the client manager
/// (function catalog, compilation counter) and the interned plan cache.
///
/// All methods take `&self`; the hub is designed to sit behind an
/// [`Arc`] with one thread per connected client.
#[derive(Debug, Default)]
pub struct SessionHub {
    manager: Mutex<ClientManager>,
    plans: Mutex<PlanCache>,
    plan_hits: AtomicU64,
    sessions_opened: AtomicU64,
    sessions_open: AtomicU64,
    statements: AtomicU64,
}

impl SessionHub {
    /// A fresh hub with an empty function catalog and plan cache.
    pub fn new() -> SessionHub {
        SessionHub::default()
    }

    /// How many query statements have been parsed, bound, and placed by
    /// this hub — the PR-1 `compilations` counter, shared by every
    /// session. Cache hits and plan reruns leave it untouched.
    pub fn compilations(&self) -> u64 {
        lock(&self.manager).compilations()
    }

    /// Distinct compiled plans currently interned.
    pub fn plan_cache_len(&self) -> usize {
        lock(&self.plans).plans.len()
    }

    /// The most plans the cache holds; past it, interning a new text
    /// evicts the least recently used one.
    pub fn plan_cache_cap(&self) -> usize {
        PLAN_CACHE_CAP
    }

    /// How many prepare/query requests were answered from the interned
    /// cache instead of compiling.
    pub fn plan_cache_hits(&self) -> u64 {
        self.plan_hits.load(Ordering::Relaxed)
    }

    /// How many interned plans were dropped to make room for new ones.
    pub fn plan_cache_evictions(&self) -> u64 {
        lock(&self.plans).evictions
    }

    /// Sessions opened over the hub's lifetime.
    pub fn sessions_opened(&self) -> u64 {
        self.sessions_opened.load(Ordering::Relaxed)
    }

    /// Sessions currently open (opened minus dropped).
    pub fn sessions_open(&self) -> u64 {
        self.sessions_open.load(Ordering::Relaxed)
    }

    /// Statements executed across all of the hub's sessions.
    pub fn statements(&self) -> u64 {
        self.statements.load(Ordering::Relaxed)
    }

    /// Registers a user-defined query function in the shared catalog.
    ///
    /// # Errors
    ///
    /// Catalog errors on name collisions (functions are hub-global, so
    /// two sessions cannot define the same name twice).
    pub fn define(&self, def: scsq_ql::FunctionDef) -> Result<(), EngineError> {
        lock(&self.manager).define(def)
    }

    /// The user-defined functions currently registered, sorted by name.
    pub fn functions(&self) -> Vec<scsq_ql::FunctionDef> {
        lock(&self.manager)
            .catalog()
            .definitions()
            .into_iter()
            .cloned()
            .collect()
    }

    /// Explains a query's set-up without running it (the shell's
    /// `.explain`).
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
        lock(&self.manager).explain(spec, src, options)
    }

    /// Returns the interned plan for `stmt`, compiling it at most once
    /// per distinct (compile-relevant options, canonical text) pair.
    /// The `bool` reports whether the plan came from the cache.
    ///
    /// The cache key includes the options that participate in
    /// compilation — the placement policy and the `receiver()` source
    /// shape — so sessions with different *runtime* knobs (MPI buffer
    /// size, buffering mode, executor tiers) still share one plan.
    ///
    /// # Errors
    ///
    /// Parse, binder, or placement errors.
    pub fn intern(
        &self,
        spec: &HardwareSpec,
        options: &RunOptions,
        stmt: &Statement,
    ) -> Result<(Arc<PreparedQuery>, bool), EngineError> {
        let canonical = statement_to_scsql(stmt);
        let key = format!(
            "{:?}|{}|{}|{canonical}",
            options.placement, options.receiver_arrays, options.receiver_samples
        );
        // Compile under the cache lock: concurrent sessions preparing
        // the same text must observe exactly one compilation.
        let mut plans = lock(&self.plans);
        if let Some(plan) = plans.get(&key) {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((plan, true));
        }
        let plan = Arc::new(lock(&self.manager).prepare(spec, &canonical, options, &[])?);
        plans.insert(key, Arc::clone(&plan));
        Ok((plan, false))
    }

    /// Opens a session on this hub.
    pub fn session(self: &Arc<Self>, spec: HardwareSpec, options: RunOptions) -> Session {
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
        self.sessions_open.fetch_add(1, Ordering::Relaxed);
        Session {
            hub: Arc::clone(self),
            spec,
            options,
            prepared: BTreeMap::new(),
        }
    }
}

/// A named prepared query in a session's catalog.
#[derive(Debug, Clone)]
pub struct NamedPlan {
    /// Canonical SCSQL text of the prepared query.
    pub text: String,
    /// The (possibly shared) compiled plan.
    pub plan: Arc<PreparedQuery>,
}

/// One row of a `show catalog` listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// The catalog name.
    pub name: String,
    /// `"prepared"` for session plans, `"function"` for shared
    /// user-defined query functions.
    pub kind: &'static str,
    /// Canonical SCSQL text.
    pub text: String,
}

impl CatalogEntry {
    /// The entry's one-line listing form, shared verbatim by the shell
    /// and the server's `ROW` frames (`kind name: text`).
    pub fn render(&self) -> String {
        format!("{} {}: {}", self.kind, self.name, self.text)
    }
}

/// What one executed statement produced.
#[derive(Debug)]
pub enum SessionReply {
    /// A query ran. Its stats carry the explain-analyze profile when
    /// the session's [`RunOptions::profile`] is on.
    Result {
        /// The query's result.
        result: QueryResult,
    },
    /// A `prepare name as …` statement registered a plan; `shared` is
    /// true when the compilation was reused from the hub cache.
    Prepared {
        /// The registered name.
        name: String,
        /// Whether another prepare already paid the compilation.
        shared: bool,
    },
    /// A `show catalog` listing: the session's prepared queries, then
    /// the shared functions, each sorted by name.
    Catalog(Vec<CatalogEntry>),
    /// `create function` statements extended the shared catalog.
    Defined,
}

impl SessionReply {
    /// The reply's output rows — result values or catalog entries, one
    /// string per line. The shell prints these; the server sends each
    /// as one `ROW` frame. Both surfaces therefore emit byte-identical
    /// text for the same statement.
    pub fn rows(&self) -> Vec<String> {
        match self {
            SessionReply::Result { result } => {
                result.values().iter().map(|v| v.to_string()).collect()
            }
            SessionReply::Catalog(entries) => entries.iter().map(CatalogEntry::render).collect(),
            _ => Vec::new(),
        }
    }

    /// The statement's one-line completion summary (the shell's
    /// `-- …` line; the server's `OK` payload).
    pub fn summary(&self) -> String {
        match self {
            SessionReply::Result { result } => {
                let n = result.values().len();
                format!(
                    "-- {n} value{} in {}",
                    if n == 1 { "" } else { "s" },
                    result.total_time()
                )
            }
            SessionReply::Prepared { name, .. } => format!("-- prepared {name}"),
            SessionReply::Catalog(entries) => {
                let n = entries.len();
                format!("-- {n} catalog entr{}", if n == 1 { "y" } else { "ies" })
            }
            SessionReply::Defined => "-- function defined".to_string(),
        }
    }
}

/// One client's session: private named-plan catalog plus runtime
/// options, over a shared [`SessionHub`].
#[derive(Debug)]
pub struct Session {
    hub: Arc<SessionHub>,
    spec: HardwareSpec,
    options: RunOptions,
    prepared: BTreeMap<String, NamedPlan>,
}

impl Session {
    /// A self-contained session on the paper's LOFAR configuration —
    /// its own private hub, for embedding and for the one-shot shell.
    pub fn lofar() -> Session {
        Arc::new(SessionHub::new()).session(HardwareSpec::lofar(), RunOptions::default())
    }

    /// The hub this session shares.
    pub fn hub(&self) -> &Arc<SessionHub> {
        &self.hub
    }

    /// The hardware specification queries run on.
    pub fn spec(&self) -> &HardwareSpec {
        &self.spec
    }

    /// The session's execution options.
    pub fn options(&self) -> &RunOptions {
        &self.options
    }

    /// Mutable access to the session's execution options (takes effect
    /// on the next statement).
    pub fn options_mut(&mut self) -> &mut RunOptions {
        &mut self.options
    }

    /// Applies a session option command, given without its leading `.`:
    /// `buffer <bytes>`, `double on|off` or `policy naive|aware`. Returns
    /// `None` when `cmd` names none of them, else the ack (`-- buffer
    /// 100000`) or, leaving the options as they were, the usage text.
    /// The shell and the daemon share this one grammar.
    pub fn set_option(&mut self, cmd: &str) -> Option<Result<String, &'static str>> {
        let mut parts = cmd.split_whitespace();
        let (name, arg) = (parts.next()?, parts.next());
        Some(match (name, arg) {
            ("buffer", _) => match arg.and_then(|s| s.parse::<u64>().ok()) {
                Some(b) if b > 0 => {
                    self.options.mpi_buffer = b;
                    Ok(format!("-- buffer {b}"))
                }
                _ => Err("usage: .buffer <bytes>"),
            },
            ("double", Some(on @ ("on" | "off"))) => {
                self.options.mpi_double = on == "on";
                Ok(format!("-- double {on}"))
            }
            ("double", _) => Err("usage: .double on|off"),
            ("policy", Some(p @ ("naive" | "aware"))) => {
                self.options.placement = match p {
                    "naive" => PlacementPolicy::Naive,
                    _ => PlacementPolicy::TopologyAware,
                };
                Ok(format!("-- policy {p}"))
            }
            ("policy", _) => Err("usage: .policy naive|aware"),
            _ => return None,
        })
    }

    /// The session's named prepared queries, in name order.
    pub fn prepared(&self) -> impl Iterator<Item = (&String, &NamedPlan)> {
        self.prepared.iter()
    }

    /// Explains a query's set-up without running it.
    ///
    /// # Errors
    ///
    /// Parse, binder, or placement errors.
    pub fn explain(&self, src: &str) -> Result<String, EngineError> {
        self.hub.explain(&self.spec, src, &self.options)
    }

    /// Executes an SCSQL program — session statements (`prepare`,
    /// `run`, `show catalog`), `create function` definitions, and
    /// ordinary queries — returning the reply of the **last**
    /// statement.
    ///
    /// Ad-hoc queries go through the hub's interning cache exactly like
    /// prepared ones, so identical query texts across sessions compile
    /// once.
    ///
    /// # Errors
    ///
    /// Parse, binder, placement, catalog, or runtime errors; an error
    /// if `src` contains no statement.
    pub fn execute(&mut self, src: &str) -> Result<SessionReply, EngineError> {
        let statements = parse_program(src)?;
        let mut last = None;
        for stmt in statements {
            last = Some(self.execute_statement(&stmt)?);
        }
        last.ok_or_else(|| EngineError::Runtime("program contained no statement".to_string()))
    }

    /// Executes one parsed statement.
    ///
    /// # Errors
    ///
    /// See [`Session::execute`].
    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<SessionReply, EngineError> {
        self.hub.statements.fetch_add(1, Ordering::Relaxed);
        match stmt {
            Statement::CreateFunction(def) => {
                self.hub.define(def.clone())?;
                Ok(SessionReply::Defined)
            }
            Statement::Prepare { name, body } => {
                let (plan, shared) = self.hub.intern(&self.spec, &self.options, body)?;
                self.prepared.insert(
                    name.clone(),
                    NamedPlan {
                        text: statement_to_scsql(body),
                        plan,
                    },
                );
                Ok(SessionReply::Prepared {
                    name: name.clone(),
                    shared,
                })
            }
            Statement::Run(name) => {
                let plan = Arc::clone(
                    &self
                        .prepared
                        .get(name)
                        .ok_or_else(|| {
                            EngineError::Runtime(format!(
                                "unknown prepared query `{name}` (try `show catalog`)"
                            ))
                        })?
                        .plan,
                );
                Ok(SessionReply::Result {
                    result: plan.run(&self.spec, &self.options)?,
                })
            }
            Statement::ShowCatalog => {
                let mut entries: Vec<CatalogEntry> = self
                    .prepared
                    .iter()
                    .map(|(name, np)| CatalogEntry {
                        name: name.clone(),
                        kind: "prepared",
                        text: np.text.clone(),
                    })
                    .collect();
                entries.extend(self.hub.functions().into_iter().map(|def| CatalogEntry {
                    name: def.name.clone(),
                    kind: "function",
                    text: statement_to_scsql(&Statement::CreateFunction(def)),
                }));
                Ok(SessionReply::Catalog(entries))
            }
            query => {
                let (plan, _) = self.hub.intern(&self.spec, &self.options, query)?;
                Ok(SessionReply::Result {
                    result: plan.run(&self.spec, &self.options)?,
                })
            }
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.hub.sessions_open.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scsq_ql::Value;

    const Q: &str = "select extract(b) from sp a, sp b
                     where b=sp(streamof(count(extract(a))), 'bg', 0)
                     and a=sp(gen_array(10000,4),'bg',1);";

    fn hub() -> Arc<SessionHub> {
        Arc::new(SessionHub::new())
    }

    fn session(hub: &Arc<SessionHub>) -> Session {
        hub.session(HardwareSpec::lofar(), RunOptions::default())
    }

    fn values(reply: &SessionReply) -> &[Value] {
        match reply {
            SessionReply::Result { result } => result.values(),
            other => panic!("expected a result, got {other:?}"),
        }
    }

    #[test]
    fn prepare_run_and_show_catalog() {
        let hub = hub();
        let mut s = session(&hub);
        let reply = s.execute(&format!("prepare q as {Q}")).unwrap();
        assert!(matches!(
            reply,
            SessionReply::Prepared { ref name, shared: false } if name == "q"
        ));
        let reply = s.execute("run q;").unwrap();
        assert_eq!(values(&reply), &[Value::Integer(4)]);
        let SessionReply::Catalog(entries) = s.execute("show catalog;").unwrap() else {
            panic!("expected catalog");
        };
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "q");
        assert_eq!(entries[0].kind, "prepared");
        assert!(entries[0].text.starts_with("select extract(b)"));
    }

    #[test]
    fn two_sessions_share_one_compilation() {
        let hub = hub();
        let mut a = session(&hub);
        let mut b = session(&hub);
        a.execute(&format!("prepare q as {Q}")).unwrap();
        assert_eq!(hub.compilations(), 1);
        let reply = b.execute(&format!("prepare mine as {Q}")).unwrap();
        assert!(matches!(reply, SessionReply::Prepared { shared: true, .. }));
        assert_eq!(hub.compilations(), 1, "second prepare reuses the plan");
        assert_eq!(hub.plan_cache_hits(), 1);
        assert_eq!(hub.plan_cache_len(), 1);
        // Both sessions run the shared plan and agree byte for byte.
        let ra = a.execute("run q;").unwrap();
        let rb = b.execute("run mine;").unwrap();
        assert_eq!(values(&ra), values(&rb));
        assert_eq!(hub.compilations(), 1, "runs never recompile");
    }

    #[test]
    fn whitespace_variants_intern_to_one_plan() {
        let hub = hub();
        let mut s = session(&hub);
        s.execute("prepare a as select extract(b) from sp a, sp b where b=sp(streamof(count(extract(a))), 'bg', 0) and a=sp(gen_array(10000,4),'bg',1);")
            .unwrap();
        // Same query, different whitespace: canonicalization dedupes.
        s.execute(&format!("prepare b as {Q}")).unwrap();
        assert_eq!(hub.compilations(), 1);
        assert_eq!(hub.plan_cache_hits(), 1);
    }

    #[test]
    fn adhoc_queries_intern_too() {
        let hub = hub();
        let mut s = session(&hub);
        let r1 = s.execute(Q).unwrap();
        let r2 = s.execute(Q).unwrap();
        assert_eq!(values(&r1), values(&r2));
        assert_eq!(hub.compilations(), 1, "identical ad-hoc texts compile once");
        assert_eq!(hub.plan_cache_hits(), 1);
    }

    /// A p2p query whose text (and array count) is unique per `i`.
    fn numbered(i: usize) -> String {
        format!(
            "select extract(b) from sp a, sp b
             where b=sp(streamof(count(extract(a))), 'bg', 0)
             and a=sp(gen_array({},2),'bg',1);",
            1_000 + i
        )
    }

    /// What a statement prints: rows, then the summary line.
    fn printed(reply: &SessionReply) -> (Vec<String>, String) {
        (reply.rows(), reply.summary())
    }

    #[test]
    fn the_plan_cache_is_a_bounded_lru() {
        let hub = hub();
        let mut s = session(&hub);
        let cap = hub.plan_cache_cap();
        // A named plan from before the flood: its text will be evicted
        // from the hub, its name must keep working.
        s.execute(&format!("prepare early as {Q}")).unwrap();
        let early = printed(&s.execute("run early;").unwrap());
        // 1 000 never-seen texts, with one hot text re-issued every
        // 10th statement: recency keeps it, insertion order would not.
        let hot = numbered(5_000);
        for i in 0..1_000 {
            if i % 10 == 0 {
                s.execute(&hot).unwrap();
            }
            let served = printed(&s.execute(&numbered(i)).unwrap());
            let fresh = printed(&Session::lofar().execute(&numbered(i)).unwrap());
            assert_eq!(served, fresh, "text {i}: cached == uncached");
            assert!(hub.plan_cache_len() <= cap);
        }
        assert_eq!(hub.plan_cache_len(), cap);
        assert_eq!(
            hub.compilations(),
            1 + 1 + 1_000,
            "early, hot (once), each flood text"
        );
        assert_eq!(
            hub.plan_cache_hits(),
            99,
            "every re-issue of hot but the first"
        );
        assert_eq!(hub.plan_cache_evictions(), 1_002 - cap as u64);
        assert_eq!(printed(&s.execute("run early;").unwrap()), early);
        assert_eq!(hub.compilations(), 1_002, "run <name> does not re-intern");
        // An evicted text compiles again and answers the same.
        let again = printed(&s.execute(&numbered(0)).unwrap());
        let fresh = printed(&Session::lofar().execute(&numbered(0)).unwrap());
        assert_eq!(again, fresh);
        assert_eq!(hub.compilations(), 1_003);
    }

    #[test]
    fn a_poisoned_hub_still_serves() {
        let hub = hub();
        let mut s = session(&hub);
        s.execute(Q).unwrap();
        // A session thread dies holding both of the hub's locks.
        let poisoner = Arc::clone(&hub);
        let died = std::thread::spawn(move || {
            let _plans = poisoner.plans.lock().unwrap();
            let _manager = poisoner.manager.lock().unwrap();
            panic!("session thread dies mid-statement");
        })
        .join();
        assert!(died.is_err());
        assert!(hub.plans.is_poisoned() && hub.manager.is_poisoned());
        // Every other session carries on: hits, misses, runs, counters.
        let reply = s.execute(Q).unwrap();
        assert_eq!(values(&reply), &[Value::Integer(4)]);
        let reply = s.execute(&numbered(1)).unwrap();
        assert_eq!(values(&reply), &[Value::Integer(2)]);
        assert_eq!(hub.plan_cache_len(), 2);
        assert_eq!(hub.compilations(), 2);
        assert_eq!(hub.plan_cache_hits(), 1);
        assert_eq!(hub.functions().len(), 0);
    }

    #[test]
    fn dropping_a_session_releases_only_its_catalog() {
        let hub = hub();
        let mut a = session(&hub);
        let mut b = session(&hub);
        assert_eq!(hub.sessions_open(), 2);
        a.execute(&format!("prepare q as {Q}")).unwrap();
        b.execute(&format!("prepare q as {Q}")).unwrap();
        drop(a);
        assert_eq!(hub.sessions_open(), 1);
        assert_eq!(hub.sessions_opened(), 2);
        // B's name survives; the shared plan is untouched.
        let reply = b.execute("run q;").unwrap();
        assert_eq!(values(&reply), &[Value::Integer(4)]);
        assert_eq!(hub.plan_cache_len(), 1);
    }

    #[test]
    fn run_of_unknown_name_errors() {
        let hub = hub();
        let mut s = session(&hub);
        let err = s.execute("run nope;").unwrap_err();
        assert!(err.to_string().contains("unknown prepared query"), "{err}");
        // Another session's names are invisible.
        let mut a = session(&hub);
        a.execute(&format!("prepare mine as {Q}")).unwrap();
        let err = s.execute("run mine;").unwrap_err();
        assert!(err.to_string().contains("unknown prepared query"), "{err}");
    }

    #[test]
    fn functions_are_shared_and_listed() {
        let hub = hub();
        let mut a = session(&hub);
        let mut b = session(&hub);
        a.execute("create function g(integer k) -> stream as gen_array(10000, k);")
            .unwrap();
        // Visible from the other session, and in its catalog listing.
        let reply = b
            .execute(
                "select extract(b) from sp a, sp b
                 where b=sp(streamof(count(extract(a))), 'bg', 0)
                 and a=sp(g(6),'bg',1);",
            )
            .unwrap();
        assert_eq!(values(&reply), &[Value::Integer(6)]);
        let SessionReply::Catalog(entries) = b.execute("show catalog;").unwrap() else {
            panic!("expected catalog");
        };
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].kind, "function");
        assert!(entries[0].text.starts_with("create function g("));
        // Collisions error (functions are hub-global).
        let err = b
            .execute("create function g(integer k) -> stream as gen_array(1, k);")
            .unwrap_err();
        assert!(err.to_string().contains("already defined"), "{err}");
    }

    #[test]
    fn profiled_sessions_return_identical_results() {
        let hub = hub();
        let mut s = session(&hub);
        let plain = s.execute(Q).unwrap();
        s.options_mut().profile = true;
        let profiled = s.execute(Q).unwrap();
        assert_eq!(values(&plain), values(&profiled));
        let SessionReply::Result { result } = profiled else {
            panic!()
        };
        assert!(
            result.stats().profile.is_some(),
            "profiling attaches the report"
        );
    }

    #[test]
    fn served_equals_one_shot() {
        // The serving front door's core promise: a query answered
        // through a session is byte-identical to the same query run
        // one-shot through `ClientManager::execute`.
        let hub = hub();
        let mut s = session(&hub);
        let served = s.execute(Q).unwrap();
        let mut manager = ClientManager::new();
        let one_shot = manager
            .execute(&HardwareSpec::lofar(), Q, &RunOptions::default())
            .unwrap();
        assert_eq!(values(&served), one_shot.values());
        let SessionReply::Result { result } = served else {
            panic!()
        };
        assert_eq!(result.finished(), one_shot.finished());
        assert_eq!(result.total_time(), one_shot.total_time());
    }
}
