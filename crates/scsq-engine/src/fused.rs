//! Fused stage programs: the per-event fast path.
//!
//! The interpreted [`StageChain`] re-matches on every stage enum for
//! every element and allocates a fresh `Vec<Value>` per stage per call.
//! That is fine at end-of-stream flush rates but dominates the
//! per-event execution path whenever train coalescing cannot fire
//! (jittered service times, data-dependent stages). A [`FusedProgram`]
//! is the `Scsq::prepare`-time lowering of a pipeline: each stage is
//! resolved once to a direct jump-table entry (`StageFn`) and the
//! compute-cost accounting is compiled to a compact op list with a
//! one-entry memo, so the inner loop is a straight call chain with no
//! enum dispatch, no re-validation, and — together with the chain's
//! reusable ping-pong scratch buffers — no allocation per tuple.
//!
//! Correctness bar: the fused executor mutates the *same*
//! `StageState` representation as the interpreter, feeds every stage
//! the same input sequence in the same order (stages are
//! order-preserving stateful flat-maps, so breadth-first scratch
//! passes and the interpreter's depth-first recursion produce the same
//! outputs), and delegates end-of-stream flushing and coalescer probes
//! to the interpreted chain. Byte-identical figure CSVs with fusion on
//! or off are enforced by `tests/fuse_csv.rs`.

use crate::columnar;
use crate::error::EngineError;
use crate::funcs;
use crate::ops::{
    arith_apply, cmp_apply, AggKind, CmpOp, InputKind, MapFunc, Pipeline, Stage, StageChain,
    StageState,
};
use scsq_ql::column::{Column, SelectionVector, METRIC_COLUMNS};
use scsq_ql::{Batch, ColumnarBatch, SpHandle, Value};
use scsq_sim::StateProbe;

/// One compiled compute-cost operation. Only stages that charge CPU
/// time appear; everything else is dropped at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostOp {
    /// An elementwise function charged via `funcs::map_cost_bytes`;
    /// decimating maps halve the element size seen downstream.
    Map(MapFunc),
    /// A radix combine charged one unit per element byte.
    Radix,
    /// An elementwise arithmetic transform charged one unit per element
    /// byte; numeric in, numeric out, so the size is unchanged.
    Arith,
    /// An elementwise comparison charged one unit per element byte; the
    /// boolean it emits is what downstream stages see.
    Cmp,
    /// An elementwise predicate charged one unit per element byte.
    /// Survivors keep their size; the model charges every *input*
    /// element, so elements the predicate drops still paid to be
    /// examined.
    Filter,
}

/// A pipeline lowered at prepare time: the validated stage list plus
/// the compiled cost ops. Pure data (no function pointers), so it can
/// live inside the shared [`crate::builder::QueryGraph`] and be
/// compared/cloned like the rest of the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProgram {
    /// The stage list this program was lowered from.
    pub stages: Vec<Stage>,
    cost_ops: Vec<CostOp>,
}

impl FusedProgram {
    /// Lowers a pipeline's stage chain into a fused program.
    pub fn compile(pipeline: &Pipeline) -> FusedProgram {
        let cost_ops = pipeline
            .stages
            .iter()
            .filter_map(|s| match s {
                Stage::Map(f) => Some(CostOp::Map(*f)),
                Stage::RadixCombine { .. } => Some(CostOp::Radix),
                Stage::Arith { .. } => Some(CostOp::Arith),
                Stage::Cmp { .. } => Some(CostOp::Cmp),
                Stage::Filter { .. } => Some(CostOp::Filter),
                _ => None,
            })
            .collect();
        FusedProgram {
            stages: pipeline.stages.clone(),
            cost_ops,
        }
    }

    /// Instantiates the per-run cost accounting for this program.
    pub fn cost_model(&self) -> CostModel {
        CostModel {
            ops: self.cost_ops.clone(),
            memo: None,
        }
    }
}

/// A constant source transposed into shared columns once, at prepare
/// time. A run on the columnar tier hands the whole view to the
/// source's output channels instead of walking the values one by one —
/// and the receivers' column kernels read it without ever transposing.
#[derive(Debug, Clone)]
pub struct PreparedSource {
    /// Every row of the source, in order, as `Arc`-backed columns.
    pub cols: ColumnarBatch,
    /// The marshaled size every row shares.
    pub row_bytes: u64,
}

impl PartialEq for PreparedSource {
    /// Equal when they replay the same rows (two plans prepared from
    /// the same statement do; storage identity is irrelevant here).
    fn eq(&self, other: &PreparedSource) -> bool {
        let rows = self.cols.rows();
        self.row_bytes == other.row_bytes
            && rows == other.cols.rows()
            && (0..rows).all(|r| self.cols.value_at(r) == other.cols.value_at(r))
    }
}

impl PreparedSource {
    /// Transposes `pipeline`'s source when it is a constant of at
    /// least two rows behind a pass-through (`streamof`-only, hence
    /// cost-free) chain whose rows share one fixed-width column layout
    /// — then every sub-run of it transposes to the same layout, one
    /// row's generation cost is every row's, and the rows can travel
    /// as one run ([`scsq_transport::StreamChannel::enqueue_run`]).
    ///
    /// # Errors
    ///
    /// Which of those conditions failed, worded for `explain`.
    pub fn prepare(pipeline: &Pipeline) -> Result<PreparedSource, &'static str> {
        let InputKind::Const { values } = &pipeline.input else {
            return Err("not a constant source");
        };
        if values.len() < 2 {
            // A lone element never forms a batch on the per-element
            // path either.
            return Err("fewer than two rows");
        }
        if !pipeline.stages.iter().all(|s| *s == Stage::StreamOf) {
            return Err("chain is not pass-through");
        }
        let cols = ColumnarBatch::from_values(values);
        let row_bytes = cols
            .uniform_row_size()
            .ok_or("rows share no fixed-width column layout")?;
        Ok(PreparedSource { cols, row_bytes })
    }
}

/// Per-run compute-cost accounting: the compiled op list plus a
/// single-entry memo. Streaming workloads feed long runs of
/// identically-sized elements, so the memo turns the per-element cost
/// walk into one comparison.
#[derive(Debug)]
pub struct CostModel {
    ops: Vec<CostOp>,
    memo: Option<(u64, u64)>,
}

impl CostModel {
    /// CPU cost (in byte-equivalents) of pushing one element of
    /// `elem_bytes` marshaled bytes through the chain. Identical to
    /// walking the stage list per element: decimation halves the size
    /// seen by later stages.
    pub fn cost(&mut self, elem_bytes: u64) -> u64 {
        if self.ops.is_empty() {
            return 0;
        }
        if let Some((b, c)) = self.memo {
            if b == elem_bytes {
                return c;
            }
        }
        let mut bytes = elem_bytes;
        let mut cost = 0u64;
        for op in &self.ops {
            match op {
                CostOp::Map(f) => {
                    cost += funcs::map_cost_bytes(*f, bytes);
                    if matches!(f, MapFunc::Odd | MapFunc::Even) {
                        bytes /= 2;
                    }
                }
                CostOp::Radix | CostOp::Arith | CostOp::Filter => cost += bytes,
                CostOp::Cmp => {
                    cost += bytes;
                    // A comparison emits a marshaled boolean (tag +
                    // payload) whatever went in.
                    bytes = 2;
                }
            }
        }
        self.memo = Some((elem_bytes, cost));
        cost
    }
}

/// One fused stage step: consume `value`, mutate the stage's state,
/// append any outputs. Resolved once per stage at chain build time.
type StageFn =
    fn(&mut StageState, Value, Option<SpHandle>, &mut Vec<Value>) -> Result<(), EngineError>;

/// The fused executor: the interpreter's stage states driven by a
/// pre-resolved jump table over reusable scratch buffers.
#[derive(Debug)]
pub struct FusedChain {
    chain: StageChain,
    ops: Vec<StageFn>,
    cur: Vec<Value>,
    nxt: Vec<Value>,
    /// Whether columnar admission may apply at all: every stage has a
    /// whole-column kernel (aggregate / `streamof` / `take` /
    /// `bandwidth` / `map` / `arith` / `cmp` / `filter`) and the chain
    /// ends in an absorbing aggregate, so a columnar pass never has to
    /// reconstruct leftover tuples. Per-batch typing is checked by
    /// [`FusedChain::columnar_admit`].
    columnar_ok: bool,
    /// Whether relay admission may apply: no absorber, every stage is a
    /// re-emitting vectorizable stage (`streamof` / `take` / `arith` /
    /// `cmp` / `filter`), and at least one actually transforms or
    /// filters — the chain then rewrites a column and re-emits it
    /// downstream as shared column rows instead of reconstructing
    /// tuples. Per-batch typing is checked by
    /// [`FusedChain::relay_admit_cols`].
    relay_ok: bool,
    /// Whether any stage charges modeled compute cost. Costly chains
    /// only admit batches whose elements share one marshaled size, so
    /// the runtime can charge the whole batch in bulk (same total, same
    /// jitter draws as charging element by element).
    costly: bool,
}

/// A batch cleared for whole-column execution by
/// [`FusedChain::columnar_admit`]: the transposed columns plus the two
/// facts the runtime needs to charge the chain's modeled compute cost
/// in bulk *before* running the kernels, mirroring the per-element
/// path's charge-then-process order.
#[derive(Debug)]
pub struct ColumnarAdmit {
    cols: ColumnarBatch,
    /// Number of elements in the admitted batch.
    pub rows: usize,
    /// Marshaled size shared by every element, or 0 when the chain
    /// charges no compute cost (then no size is needed — the cost walk
    /// is empty either way).
    pub elem_bytes: u64,
}

/// A batch cleared for relay execution by
/// [`FusedChain::relay_admit_cols`]: a typed single-column view the
/// chain will rewrite and re-emit downstream, plus the bulk
/// cost-accounting facts (relay chains always contain a cost op, so
/// the uniform-stride requirement always applies).
#[derive(Debug)]
pub struct RelayAdmit {
    cols: ColumnarBatch,
    /// Number of elements in the admitted batch.
    pub rows: usize,
    /// Marshaled size shared by every input element.
    pub elem_bytes: u64,
}

/// Column type flowing between stages during the admission walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColType {
    Int,
    Float,
    Bool,
    Str,
    Synthetic,
    Metric,
    /// A non-metric multi-column batch: tuples flowing as parallel
    /// typed columns. Pass-through and counting stages admit it;
    /// elementwise transforms and numeric folds decline.
    Record,
    Other,
}

/// The type a batch presents to the first stage: the three-column
/// metric shape, a multi-column record, a typed single column, or the
/// opaque fallback (which only `count` absorbs). Columns with invalid
/// rows are opaque — scalar semantics have no notion of a masked row
/// entering a chain.
fn batch_col_type(cols: &ColumnarBatch) -> ColType {
    if cols.width() == 3
        && METRIC_COLUMNS
            .iter()
            .zip(cols.columns())
            .all(|(want, (name, _))| name == want)
    {
        return ColType::Metric;
    }
    if cols.width() > 1 {
        return if cols.columns().iter().all(|(_, c)| c.all_valid()) {
            ColType::Record
        } else {
            ColType::Other
        };
    }
    match cols.single() {
        Some(c) if !c.all_valid() => ColType::Other,
        Some(c) if c.as_i64().is_some() => ColType::Int,
        Some(c) if c.as_f64().is_some() => ColType::Float,
        Some(c) if c.as_bool().is_some() => ColType::Bool,
        Some(c) if c.as_synthetic().is_some() => ColType::Synthetic,
        Some(c) if c.as_utf8().is_some() => ColType::Str,
        _ => ColType::Other,
    }
}

/// One step of the admission type flow for a non-absorbing stage:
/// the column type a stage emits given the type flowing into it, or
/// `None` when the stage has no kernel for that type (the batch then
/// falls back to the per-element path). Shared by the absorber and
/// relay admission walks so the two lattices cannot drift apart.
fn transform_type(state: &StageState, ty: ColType) -> Option<ColType> {
    match state {
        StageState::StreamOf | StageState::Take { .. } => Some(ty),
        StageState::Map(_) => (ty == ColType::Synthetic).then_some(ty),
        StageState::Arith { rhs, .. } => match (ty, rhs) {
            (ColType::Int, Value::Integer(_)) => Some(ColType::Int),
            (ColType::Int, Value::Real(_)) => Some(ColType::Float),
            (ColType::Float, Value::Integer(_) | Value::Real(_)) => Some(ColType::Float),
            _ => None,
        },
        StageState::Cmp { rhs, .. } | StageState::Filter { rhs, .. } => {
            let ok = matches!(
                (ty, rhs),
                (
                    ColType::Int | ColType::Float,
                    Value::Integer(_) | Value::Real(_)
                ) | (ColType::Str, Value::Str(_))
            );
            if !ok {
                None
            } else if matches!(state, StageState::Cmp { .. }) {
                Some(ColType::Bool)
            } else {
                Some(ty)
            }
        }
        _ => None,
    }
}

impl FusedChain {
    /// Instantiates runtime state for a fused program.
    pub fn new(program: &FusedProgram) -> FusedChain {
        let ops = program.stages.iter().map(resolve).collect();
        let vectorizable = |s: &Stage| {
            matches!(
                s,
                Stage::Agg(_)
                    | Stage::StreamOf
                    | Stage::Take { .. }
                    | Stage::Bandwidth
                    | Stage::Quantile { .. }
                    | Stage::Map(_)
                    | Stage::Arith { .. }
                    | Stage::Cmp { .. }
                    | Stage::Filter { .. }
            )
        };
        let absorber =
            |s: &Stage| matches!(s, Stage::Agg(_) | Stage::Bandwidth | Stage::Quantile { .. });
        let columnar_ok =
            program.stages.iter().all(vectorizable) && program.stages.iter().any(absorber);
        let relayable = |s: &Stage| {
            matches!(
                s,
                Stage::StreamOf
                    | Stage::Take { .. }
                    | Stage::Arith { .. }
                    | Stage::Cmp { .. }
                    | Stage::Filter { .. }
            )
        };
        let transform = |s: &Stage| {
            matches!(
                s,
                Stage::Arith { .. } | Stage::Cmp { .. } | Stage::Filter { .. }
            )
        };
        let relay_ok = program.stages.iter().all(relayable) && program.stages.iter().any(transform);
        FusedChain {
            chain: StageChain::from_stages(&program.stages),
            ops,
            cur: Vec::new(),
            nxt: Vec::new(),
            columnar_ok,
            relay_ok,
            costly: !program.cost_ops.is_empty(),
        }
    }

    /// Feeds one element through the chain, appending whatever falls
    /// out the end to `out`. Equivalent to [`StageChain::process`] but
    /// allocation-free after warm-up: elements move between the two
    /// scratch buffers, one stage at a time.
    ///
    /// # Errors
    ///
    /// Type errors when an elementwise function meets an incompatible
    /// value.
    pub fn process_into(
        &mut self,
        value: Value,
        from: Option<SpHandle>,
        out: &mut Vec<Value>,
    ) -> Result<(), EngineError> {
        if self.ops.is_empty() {
            out.push(value);
            return Ok(());
        }
        self.cur.clear();
        self.cur.push(value);
        for (i, op) in self.ops.iter().enumerate() {
            if self.cur.is_empty() {
                return Ok(());
            }
            self.nxt.clear();
            let n_in = self.cur.len() as u64;
            for v in self.cur.drain(..) {
                op(&mut self.chain.stages[i], v, from, &mut self.nxt)?;
            }
            if let Some(t) = self.chain.tally.get_mut(i) {
                t.calls += n_in;
                t.elems_in += n_in;
                t.elems_out += self.nxt.len() as u64;
            }
            std::mem::swap(&mut self.cur, &mut self.nxt);
        }
        out.append(&mut self.cur);
        Ok(())
    }

    /// Feeds a whole delivered batch through the chain as columns,
    /// dispatching once per column instead of once per element.
    ///
    /// Returns `Ok(true)` when the batch was absorbed columnar-ly —
    /// the chain's stage states then hold exactly what feeding the
    /// elements one at a time would have left (see the fold contracts
    /// in [`crate::columnar`]) and, because the chain ends in an
    /// absorbing aggregate, nothing is emitted before end of stream.
    /// Returns `Ok(false)` without touching any state when the chain
    /// or the batch's column shape is not vectorizable; the caller
    /// falls back to the per-element path, which also reproduces
    /// type-error semantics for ill-typed runs.
    ///
    /// # Errors
    ///
    /// The same error the per-element path would raise on the first
    /// failing element (only `bandwidth` over malformed samples can
    /// fail on a vectorizable shape).
    pub fn process_batch_columnar(&mut self, batch: &Batch) -> Result<bool, EngineError> {
        match self.columnar_admit(batch) {
            Some(admit) => {
                self.process_admitted(admit)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Decides, without mutating anything, whether a delivered batch
    /// qualifies for whole-column execution, and if so returns the
    /// transposed columns plus the bulk cost-accounting facts.
    ///
    /// Admission runs the same type flow the kernels implement: the
    /// batch transposes to a typed column (`Int`/`Float`/`Bool`/
    /// `Str`/`Synthetic`, the three-column metric shape, or an opaque
    /// fallback), and each stage must have a kernel for the type
    /// flowing into it — `arith` needs a numeric column (an integer
    /// column with a real constant widens to float, as the scalar stage
    /// does), `cmp`/`filter` need a numeric column with a numeric
    /// constant or a string column with a string constant, `map` needs
    /// a synthetic column, aggregates other than `count` need a numeric
    /// column, `bandwidth` needs the metric shape. `count` absorbs any
    /// type. The walk stops at the first absorber; stages after it
    /// never see elements mid-stream, only the end-of-stream flush.
    ///
    /// When any stage charges modeled compute cost the elements must
    /// additionally share one marshaled size, so the runtime can charge
    /// `rows × cost(elem_bytes)` in one bulk call — the same total the
    /// per-element walk accrues. `None` means the caller must fall back
    /// to the per-element path (which also reproduces type-error
    /// semantics for ill-typed runs).
    pub fn columnar_admit(&self, batch: &Batch) -> Option<ColumnarAdmit> {
        if !self.columnar_ok || batch.len() < 2 {
            return None;
        }
        self.columnar_admit_cols(&ColumnarBatch::from_batch(batch))
    }

    /// [`FusedChain::columnar_admit`] over an already-transposed batch
    /// — the entry the runtime uses for relayed columns, where the
    /// columns arrive shared from the upstream chain and transposing
    /// again would waste the hand-off.
    pub fn columnar_admit_cols(&self, cols: &ColumnarBatch) -> Option<ColumnarAdmit> {
        if !self.columnar_ok || cols.is_empty() {
            return None;
        }
        let initial = batch_col_type(cols);
        let mut ty = initial;
        let mut admitted = false;
        for state in &self.chain.stages {
            match state {
                StageState::Agg { kind, .. } => {
                    if *kind != AggKind::Count && !matches!(ty, ColType::Int | ColType::Float) {
                        return None;
                    }
                    admitted = true;
                    break;
                }
                StageState::Bandwidth { .. } => {
                    if ty != ColType::Metric || !cols.columns().iter().all(|(_, c)| c.all_valid()) {
                        return None;
                    }
                    admitted = true;
                    break;
                }
                StageState::Quantile { .. } => {
                    if !matches!(ty, ColType::Int | ColType::Float) {
                        return None;
                    }
                    admitted = true;
                    break;
                }
                other => ty = transform_type(other, ty)?,
            }
        }
        if !admitted {
            return None;
        }
        let elem_bytes = if self.costly {
            uniform_elem_bytes(cols, initial)?
        } else {
            0
        };
        Some(ColumnarAdmit {
            rows: cols.rows(),
            cols: cols.clone(),
            elem_bytes,
        })
    }

    /// Decides, without mutating anything, whether an already-transposed
    /// batch qualifies for relay execution: the chain re-emits (no
    /// absorber, [`relay_ok`](FusedChain) shape), the batch is one
    /// all-valid typed column, the type flow clears every stage, and the
    /// elements share one marshaled stride (relay chains always charge
    /// compute cost, so bulk accounting needs it). The admitted batch
    /// runs through [`FusedChain::process_relayed`].
    pub fn relay_admit_cols(&self, cols: &ColumnarBatch) -> Option<RelayAdmit> {
        if !self.relay_ok || cols.is_empty() {
            return None;
        }
        let initial = batch_col_type(cols);
        if !matches!(
            initial,
            ColType::Int | ColType::Float | ColType::Bool | ColType::Str | ColType::Synthetic
        ) {
            return None;
        }
        let mut ty = initial;
        for state in &self.chain.stages {
            ty = transform_type(state, ty)?;
        }
        let elem_bytes = uniform_elem_bytes(cols, initial)?;
        Some(RelayAdmit {
            rows: cols.rows(),
            cols: cols.clone(),
            elem_bytes,
        })
    }

    /// Runs a relay-admitted batch through the chain as whole columns
    /// and returns the surviving rows as a fresh single-column batch
    /// (named `"v"`), ready to travel downstream as shared column rows.
    ///
    /// The second return value maps output rows to input rows: `None`
    /// means the output is a prefix of the input (only dense stages and
    /// `take` ran), `Some(sel)` means output row `j` came from input
    /// row `sel.rows()[j]` (a filter ran). The caller needs the mapping
    /// to emit each survivor at the finish time of the *input* element
    /// that produced it, exactly as the per-element path does.
    ///
    /// The caller must have charged the per-element compute cost
    /// already (charge-then-process, as everywhere else).
    pub fn process_relayed(
        &mut self,
        admit: RelayAdmit,
    ) -> (ColumnarBatch, Option<SelectionVector>) {
        let mut cur: Column = admit.cols.single().expect("relay admits single column");
        let mut sel: Option<SelectionVector> = None;
        let StageChain { stages, tally, .. } = &mut self.chain;
        for (si, state) in stages.iter_mut().enumerate() {
            let live_in = sel.as_ref().map_or(cur.len(), SelectionVector::len) as u64;
            match state {
                StageState::StreamOf => {}
                StageState::Map(f) => {
                    cur = columnar::map_synthetic(&cur, *f).expect("admitted: synthetic column");
                }
                StageState::Arith { op, rhs } => {
                    cur = match rhs {
                        Value::Integer(k) if cur.as_i64().is_some() => {
                            columnar::arith_i64(&cur, *op, *k).expect("admitted: integer column")
                        }
                        _ => {
                            let k = rhs.as_real().expect("admitted: numeric constant");
                            columnar::arith_f64(&cur, *op, k).expect("admitted: numeric column")
                        }
                    };
                }
                StageState::Cmp { op, rhs } => {
                    cur = cmp_mask(&cur, *op, rhs);
                }
                StageState::Filter { op, rhs } => {
                    let mask = cmp_mask(&cur, *op, rhs);
                    sel = Some(match sel.take() {
                        Some(s) => columnar::intersect_selection(&mask, &s)
                            .expect("cmp kernels produce Bool masks"),
                        None => columnar::filter_to_selection(&mask)
                            .expect("cmp kernels produce Bool masks"),
                    });
                }
                StageState::Take { remaining } => match &mut sel {
                    Some(s) => {
                        let k = (s.len() as u64).min(*remaining);
                        *remaining -= k;
                        s.truncate(k as usize);
                    }
                    None => {
                        let k = (cur.len() as u64).min(*remaining);
                        *remaining -= k;
                        cur = cur.slice(0, k as usize);
                    }
                },
                _ => unreachable!("relay admission excludes absorbing and stateful stages"),
            }
            if let Some(t) = tally.get_mut(si) {
                let live_out = sel.as_ref().map_or(cur.len(), SelectionVector::len) as u64;
                t.calls += 1;
                t.elems_in += live_in;
                t.elems_out += live_out;
            }
        }
        let out = match &sel {
            // Compact survivors once at the end: dense stages upstream
            // computed dead rows but never materialized them.
            Some(s) => columnar::take(&cur, s),
            None => cur,
        };
        (ColumnarBatch::new(vec![("v".to_string(), out)]), sel)
    }

    /// Runs an admitted batch through the chain as whole columns. The
    /// caller must have charged the bulk compute cost already (the
    /// per-element path charges each element before it enters the
    /// chain, so charge-then-process keeps the orders aligned).
    ///
    /// Transform stages rewrite the column; `filter` narrows a
    /// selection vector over the *original* row space instead of
    /// gathering survivors, so a chain of filters is mask intersection
    /// and the terminal fold visits survivors by index. Dense stages
    /// after a filter keep operating on all rows — dead rows are
    /// computed and never read, which is cheaper than gathering and
    /// cannot fail on an admitted type.
    ///
    /// # Errors
    ///
    /// The same error the per-element path would raise on the first
    /// failing element (`bandwidth` over malformed samples or
    /// `quantile` over negative values on an admitted shape).
    pub fn process_admitted(&mut self, admit: ColumnarAdmit) -> Result<(), EngineError> {
        let cols = admit.cols;
        if cols.width() != 1 {
            return self.process_multi_columns(cols);
        }
        let mut cur: Column = cols.single().expect("width checked above");
        let mut sel: Option<SelectionVector> = None;
        let StageChain { stages, tally, .. } = &mut self.chain;
        for (si, state) in stages.iter_mut().enumerate() {
            // Semantic element counts for explain-analyze: what the
            // per-element path would have fed this stage (survivors of
            // the selection so far).
            let live_in = sel.as_ref().map_or(cur.len(), SelectionVector::len) as u64;
            match state {
                StageState::StreamOf => {}
                StageState::Map(f) => {
                    cur = columnar::map_synthetic(&cur, *f).expect("admitted: synthetic column");
                }
                StageState::Arith { op, rhs } => {
                    cur = match rhs {
                        Value::Integer(k) if cur.as_i64().is_some() => {
                            columnar::arith_i64(&cur, *op, *k).expect("admitted: integer column")
                        }
                        _ => {
                            let k = rhs.as_real().expect("admitted: numeric constant");
                            columnar::arith_f64(&cur, *op, k).expect("admitted: numeric column")
                        }
                    };
                }
                StageState::Cmp { op, rhs } => {
                    cur = cmp_mask(&cur, *op, rhs);
                }
                StageState::Filter { op, rhs } => {
                    let mask = cmp_mask(&cur, *op, rhs);
                    sel = Some(match sel.take() {
                        Some(s) => columnar::intersect_selection(&mask, &s)
                            .expect("cmp kernels produce Bool masks"),
                        None => columnar::filter_to_selection(&mask)
                            .expect("cmp kernels produce Bool masks"),
                    });
                }
                StageState::Take { remaining } => match &mut sel {
                    Some(s) => {
                        let k = (s.len() as u64).min(*remaining);
                        *remaining -= k;
                        s.truncate(k as usize);
                    }
                    None => {
                        let k = (cur.len() as u64).min(*remaining);
                        *remaining -= k;
                        cur = cur.slice(0, k as usize);
                    }
                },
                StageState::Agg {
                    kind,
                    count,
                    sum_int,
                    sum_real,
                    saw_real,
                    best,
                } => {
                    match kind {
                        AggKind::Count => {
                            *count += sel.as_ref().map_or(cur.len(), SelectionVector::len) as i64;
                        }
                        AggKind::Sum | AggKind::Avg => {
                            if let Some(xs) = cur.as_i64() {
                                match &sel {
                                    Some(s) => columnar::fold_sum_i64_sel(count, sum_int, xs, s),
                                    None => columnar::fold_sum_i64(count, sum_int, xs),
                                }
                            } else {
                                let xs = cur.as_f64().expect("admitted: numeric column");
                                match &sel {
                                    Some(s) => {
                                        columnar::fold_sum_f64_sel(count, sum_real, saw_real, xs, s)
                                    }
                                    None => columnar::fold_sum_f64(count, sum_real, saw_real, xs),
                                }
                            }
                        }
                        AggKind::Max | AggKind::Min => {
                            let maximize = *kind == AggKind::Max;
                            if let Some(xs) = cur.as_i64() {
                                match &sel {
                                    Some(s) => {
                                        columnar::fold_best_i64_sel(count, best, xs, s, maximize)
                                    }
                                    None => columnar::fold_best_i64(count, best, xs, maximize),
                                }
                            } else {
                                let xs = cur.as_f64().expect("admitted: numeric column");
                                match &sel {
                                    Some(s) => {
                                        columnar::fold_best_f64_sel(count, best, xs, s, maximize)
                                    }
                                    None => columnar::fold_best_f64(count, best, xs, maximize),
                                }
                            }
                        }
                    }
                    if let Some(t) = tally.get_mut(si) {
                        t.calls += 1;
                        t.elems_in += live_in;
                    }
                    return Ok(());
                }
                StageState::Quantile { hist, .. } => {
                    if let Some(xs) = cur.as_i64() {
                        match &sel {
                            Some(s) => columnar::fold_quantile_i64_sel(hist, xs, s)?,
                            None => columnar::fold_quantile_i64(hist, xs)?,
                        }
                    } else {
                        let xs = cur.as_f64().expect("admitted: numeric column");
                        match &sel {
                            Some(s) => columnar::fold_quantile_f64_sel(hist, xs, s)?,
                            None => columnar::fold_quantile_f64(hist, xs)?,
                        }
                    }
                    if let Some(t) = tally.get_mut(si) {
                        t.calls += 1;
                        t.elems_in += live_in;
                    }
                    return Ok(());
                }
                _ => unreachable!("admission excludes non-vectorizable stages"),
            }
            if let Some(t) = tally.get_mut(si) {
                let live_out = sel.as_ref().map_or(cur.len(), SelectionVector::len) as u64;
                t.calls += 1;
                t.elems_in += live_in;
                t.elems_out += live_out;
            }
        }
        unreachable!("admission implies an absorber terminates the walk")
    }

    /// The multi-column walk: parallel columns — the metric triple or a
    /// record batch — flow untransformed (admission declines transform
    /// stages on multi-column batches) through pass-through stages into
    /// `bandwidth` or `count`.
    fn process_multi_columns(&mut self, cols: ColumnarBatch) -> Result<(), EngineError> {
        let mut view = cols;
        let StageChain { stages, tally, .. } = &mut self.chain;
        for (si, state) in stages.iter_mut().enumerate() {
            let live_in = view.rows() as u64;
            match state {
                StageState::StreamOf => {}
                StageState::Take { remaining } => {
                    let k = (view.rows() as u64).min(*remaining);
                    *remaining -= k;
                    view = view.slice(0, k as usize);
                }
                StageState::Agg { count, .. } => {
                    *count += view.rows() as i64;
                    if let Some(t) = tally.get_mut(si) {
                        t.calls += 1;
                        t.elems_in += live_in;
                    }
                    return Ok(());
                }
                StageState::Bandwidth { bytes, last_nanos } => {
                    let col = |name| view.column(name).expect("admitted: metric columns present");
                    let (channel, time_ns, sample_bytes) = (
                        col(METRIC_COLUMNS[0]),
                        col(METRIC_COLUMNS[1]),
                        col(METRIC_COLUMNS[2]),
                    );
                    columnar::fold_bandwidth(
                        bytes,
                        last_nanos,
                        channel.as_i64().expect("metric columns are Int64"),
                        time_ns.as_i64().expect("metric columns are Int64"),
                        sample_bytes.as_i64().expect("metric columns are Int64"),
                    )?;
                    if let Some(t) = tally.get_mut(si) {
                        t.calls += 1;
                        t.elems_in += live_in;
                    }
                    return Ok(());
                }
                _ => unreachable!("admission excludes transforms on metric batches"),
            }
            if let Some(t) = tally.get_mut(si) {
                t.calls += 1;
                t.elems_in += live_in;
                t.elems_out += view.rows() as u64;
            }
        }
        unreachable!("admission implies an absorber terminates the walk")
    }

    /// Signals end of stream; aggregates flush. Delegates to the
    /// interpreted chain (it runs once per RP, off the hot path, and
    /// sharing the code makes flush semantics identical by
    /// construction).
    ///
    /// # Errors
    ///
    /// Propagates type errors from downstream stages processing flushed
    /// values.
    pub fn finish(&mut self) -> Result<Vec<Value>, EngineError> {
        self.chain.finish()
    }

    /// Walks the chain's mutable state through a coalescing probe —
    /// the same walk as the interpreted chain, over the same states.
    pub(crate) fn probe(
        &mut self,
        p: &mut StateProbe<'_>,
        probe_value: &mut dyn FnMut(&Value, &mut StateProbe<'_>),
    ) {
        self.chain.probe(p, probe_value);
    }
}

/// Dispatches an admitted comparison to the kernel matching the scalar
/// `cmp` stage's type arms: integer column against an integer constant
/// compares exactly, strings compare lexicographically, every other
/// admitted pair widens to IEEE `f64`.
fn cmp_mask(cur: &Column, op: CmpOp, rhs: &Value) -> Column {
    match rhs {
        Value::Integer(k) if cur.as_i64().is_some() => {
            columnar::cmp_mask_i64(cur, op, *k).expect("admitted: integer column")
        }
        Value::Str(s) => columnar::cmp_mask_utf8(cur, op, s).expect("admitted: string column"),
        _ => {
            let k = rhs.as_real().expect("admitted: numeric constant");
            columnar::cmp_mask_f64(cur, op, k).expect("admitted: numeric column")
        }
    }
}

/// The marshaled size shared by every element of the batch, or `None`
/// when sizes differ (then bulk cost charging would not equal the
/// per-element walk and the batch is declined). Fixed-width kinds
/// answer from the type; synthetic arrays and strings check the run.
fn uniform_elem_bytes(cols: &ColumnarBatch, ty: ColType) -> Option<u64> {
    match ty {
        // Tag byte + 8-byte payload.
        ColType::Int | ColType::Float => Some(9),
        // Tag byte + 1-byte payload.
        ColType::Bool => Some(2),
        // A metric sample marshals as a 3-integer bag: tag + length
        // prefix + three 9-byte integers.
        ColType::Metric => Some(32),
        // A record marshals as a bag of its cells: tag + length prefix
        // + each cell. Only all-fixed-stride records qualify.
        ColType::Record => {
            let mut total = 5u64;
            for (_, c) in cols.columns() {
                total += match (c.as_i64(), c.as_f64(), c.as_bool()) {
                    (Some(_), _, _) | (_, Some(_), _) => 9,
                    (_, _, Some(_)) => 2,
                    _ => return None,
                };
            }
            Some(total)
        }
        ColType::Synthetic => {
            let c = cols.single()?;
            let xs = c.as_synthetic()?;
            let &b = xs.first()?;
            // Tag + length prefix + the array body.
            xs.iter().all(|&x| x == b).then_some(9 + b)
        }
        ColType::Str => {
            let c = cols.single()?;
            let (offsets, _) = c.as_utf8()?;
            let l = offsets.get(1)? - offsets.first()?;
            // Tag + length prefix + the bytes.
            offsets
                .windows(2)
                .all(|w| w[1] - w[0] == l)
                .then_some(5 + u64::from(l))
        }
        ColType::Other => None,
    }
}

/// The static columnar-admission verdict for each stage of a chain —
/// what `explain` prints so rejected shapes are diagnosable without
/// reading `columnar_admit`. `"columnar"` marks stages the absorbing
/// columnar pass can drive, `"columnar (relay)"` marks stages of a
/// re-emitting relay chain, and `"scalar: <reason>"` explains why a
/// stage forces the per-element path. Verdicts are shape-level:
/// per-batch typing (a string column into `sum`, mixed runs) can still
/// demote an admitted shape at delivery time.
pub fn admission_verdicts(stages: &[Stage]) -> Vec<String> {
    let vectorizable = |s: &Stage| {
        matches!(
            s,
            Stage::Agg(_)
                | Stage::StreamOf
                | Stage::Take { .. }
                | Stage::Bandwidth
                | Stage::Quantile { .. }
                | Stage::Map(_)
                | Stage::Arith { .. }
                | Stage::Cmp { .. }
                | Stage::Filter { .. }
        )
    };
    let absorber =
        |s: &Stage| matches!(s, Stage::Agg(_) | Stage::Bandwidth | Stage::Quantile { .. });
    let transform = |s: &Stage| {
        matches!(
            s,
            Stage::Arith { .. } | Stage::Cmp { .. } | Stage::Filter { .. }
        )
    };
    let all_vectorizable = stages.iter().all(vectorizable);
    if all_vectorizable && stages.iter().any(absorber) {
        let mut absorbed = false;
        return stages
            .iter()
            .map(|s| {
                if absorbed {
                    "scalar: after the absorber (sees only the flush)".to_string()
                } else {
                    absorbed = absorber(s);
                    "columnar".to_string()
                }
            })
            .collect();
    }
    let relayable = |s: &Stage| {
        matches!(
            s,
            Stage::StreamOf
                | Stage::Take { .. }
                | Stage::Arith { .. }
                | Stage::Cmp { .. }
                | Stage::Filter { .. }
        )
    };
    if stages.iter().all(relayable) && stages.iter().any(transform) {
        return stages
            .iter()
            .map(|_| "columnar (relay)".to_string())
            .collect();
    }
    stages
        .iter()
        .map(|s| {
            if !vectorizable(s) {
                "scalar: no whole-column kernel".to_string()
            } else if all_vectorizable {
                "scalar: chain neither absorbs nor transforms".to_string()
            } else {
                "scalar: chain blocked by a non-vectorizable stage".to_string()
            }
        })
        .collect()
}

/// Resolves one stage to its jump-table entry. Aggregates resolve per
/// kind and maps per function, so no per-element `match` survives into
/// the inner loop.
fn resolve(stage: &Stage) -> StageFn {
    match stage {
        Stage::Map(MapFunc::Odd) => step_map_odd,
        Stage::Map(MapFunc::Even) => step_map_even,
        Stage::Map(MapFunc::Fft) => step_map_fft,
        Stage::Map(MapFunc::Power) => step_map_power,
        Stage::Agg(AggKind::Count) => step_count,
        Stage::Agg(AggKind::Sum) | Stage::Agg(AggKind::Avg) => step_sum,
        Stage::Agg(AggKind::Max) => step_max,
        Stage::Agg(AggKind::Min) => step_min,
        Stage::StreamOf => step_identity,
        Stage::RadixCombine { .. } => step_radix,
        Stage::Window(_) => step_window,
        Stage::Take { .. } => step_take,
        Stage::Bandwidth => step_bandwidth,
        Stage::Quantile { .. } => step_quantile,
        Stage::Arith { .. } => step_arith,
        Stage::Cmp { .. } => step_cmp,
        Stage::Filter { .. } => step_filter,
    }
}

fn step_identity(
    _s: &mut StageState,
    value: Value,
    _from: Option<SpHandle>,
    out: &mut Vec<Value>,
) -> Result<(), EngineError> {
    out.push(value);
    Ok(())
}

macro_rules! step_map {
    ($name:ident, $f:expr) => {
        fn $name(
            _s: &mut StageState,
            value: Value,
            _from: Option<SpHandle>,
            out: &mut Vec<Value>,
        ) -> Result<(), EngineError> {
            out.push(funcs::apply_map($f, value)?);
            Ok(())
        }
    };
}

step_map!(step_map_odd, MapFunc::Odd);
step_map!(step_map_even, MapFunc::Even);
step_map!(step_map_fft, MapFunc::Fft);
step_map!(step_map_power, MapFunc::Power);

fn step_count(
    s: &mut StageState,
    _value: Value,
    _from: Option<SpHandle>,
    _out: &mut Vec<Value>,
) -> Result<(), EngineError> {
    let StageState::Agg { count, .. } = s else {
        unreachable!("fused program and stage states built from the same stage list")
    };
    *count += 1;
    Ok(())
}

fn step_sum(
    s: &mut StageState,
    value: Value,
    _from: Option<SpHandle>,
    _out: &mut Vec<Value>,
) -> Result<(), EngineError> {
    let StageState::Agg {
        count,
        sum_int,
        sum_real,
        saw_real,
        ..
    } = s
    else {
        unreachable!("fused program and stage states built from the same stage list")
    };
    *count += 1;
    let Some(x) = value.as_real() else {
        return Err(EngineError::type_error("number", &value, "aggregate"));
    };
    match &value {
        Value::Integer(i) => *sum_int += i,
        _ => {
            *saw_real = true;
            *sum_real += x;
        }
    }
    Ok(())
}

fn step_max(
    s: &mut StageState,
    value: Value,
    _from: Option<SpHandle>,
    _out: &mut Vec<Value>,
) -> Result<(), EngineError> {
    let StageState::Agg { count, best, .. } = s else {
        unreachable!("fused program and stage states built from the same stage list")
    };
    *count += 1;
    let Some(x) = value.as_real() else {
        return Err(EngineError::type_error("number", &value, "aggregate"));
    };
    if best.as_ref().and_then(Value::as_real).is_none_or(|b| x > b) {
        *best = Some(value);
    }
    Ok(())
}

fn step_min(
    s: &mut StageState,
    value: Value,
    _from: Option<SpHandle>,
    _out: &mut Vec<Value>,
) -> Result<(), EngineError> {
    let StageState::Agg { count, best, .. } = s else {
        unreachable!("fused program and stage states built from the same stage list")
    };
    *count += 1;
    let Some(x) = value.as_real() else {
        return Err(EngineError::type_error("number", &value, "aggregate"));
    };
    if best.as_ref().and_then(Value::as_real).is_none_or(|b| x < b) {
        *best = Some(value);
    }
    Ok(())
}

fn step_radix(
    s: &mut StageState,
    value: Value,
    from: Option<SpHandle>,
    out: &mut Vec<Value>,
) -> Result<(), EngineError> {
    let StageState::RadixCombine {
        first,
        second,
        q_first,
        q_second,
    } = s
    else {
        unreachable!("fused program and stage states built from the same stage list")
    };
    match from {
        Some(h) if h == *first => q_first.push_back(value),
        Some(h) if h == *second => q_second.push_back(value),
        _ => {
            return Err(EngineError::Runtime(format!(
                "radixcombine received an element from an unexpected producer {from:?}"
            )))
        }
    }
    while !q_first.is_empty() && !q_second.is_empty() {
        let odd = q_first.pop_front().expect("non-empty");
        let even = q_second.pop_front().expect("non-empty");
        out.push(funcs::radix_combine(even, odd)?);
    }
    Ok(())
}

fn step_window(
    s: &mut StageState,
    value: Value,
    _from: Option<SpHandle>,
    out: &mut Vec<Value>,
) -> Result<(), EngineError> {
    let StageState::Window(w) = s else {
        unreachable!("fused program and stage states built from the same stage list")
    };
    out.extend(w.push(value)?);
    Ok(())
}

fn step_take(
    s: &mut StageState,
    value: Value,
    _from: Option<SpHandle>,
    out: &mut Vec<Value>,
) -> Result<(), EngineError> {
    let StageState::Take { remaining } = s else {
        unreachable!("fused program and stage states built from the same stage list")
    };
    if *remaining > 0 {
        *remaining -= 1;
        out.push(value);
    }
    Ok(())
}

fn step_bandwidth(
    s: &mut StageState,
    value: Value,
    _from: Option<SpHandle>,
    _out: &mut Vec<Value>,
) -> Result<(), EngineError> {
    let StageState::Bandwidth { bytes, last_nanos } = s else {
        unreachable!("fused program and stage states built from the same stage list")
    };
    crate::ops::bandwidth_accumulate(bytes, last_nanos, &value)
}

fn step_quantile(
    s: &mut StageState,
    value: Value,
    _from: Option<SpHandle>,
    _out: &mut Vec<Value>,
) -> Result<(), EngineError> {
    let StageState::Quantile { hist, .. } = s else {
        unreachable!("fused program and stage states built from the same stage list")
    };
    crate::ops::quantile_accumulate(hist, &value)
}

fn step_arith(
    s: &mut StageState,
    value: Value,
    _from: Option<SpHandle>,
    out: &mut Vec<Value>,
) -> Result<(), EngineError> {
    let StageState::Arith { op, rhs } = s else {
        unreachable!("fused program and stage states built from the same stage list")
    };
    out.push(arith_apply(*op, value, rhs)?);
    Ok(())
}

fn step_cmp(
    s: &mut StageState,
    value: Value,
    _from: Option<SpHandle>,
    out: &mut Vec<Value>,
) -> Result<(), EngineError> {
    let StageState::Cmp { op, rhs } = s else {
        unreachable!("fused program and stage states built from the same stage list")
    };
    out.push(Value::Bool(cmp_apply(*op, &value, rhs)?));
    Ok(())
}

fn step_filter(
    s: &mut StageState,
    value: Value,
    _from: Option<SpHandle>,
    out: &mut Vec<Value>,
) -> Result<(), EngineError> {
    let StageState::Filter { op, rhs } = s else {
        unreachable!("fused program and stage states built from the same stage list")
    };
    if cmp_apply(*op, &value, rhs)? {
        out.push(value);
    }
    Ok(())
}

/// The runtime's per-RP executor: the fused fast path by default, the
/// interpreted chain as the `--fuse off` fallback.
#[derive(Debug)]
pub(crate) enum ExecChain {
    /// Tier 3: the recursive interpreter.
    Interpreted(StageChain),
    /// Tier 2: the fused jump-table chain.
    Fused(FusedChain),
}

impl ExecChain {
    /// Builds the executor selected by `fuse` for a prepared program.
    pub(crate) fn new(program: &FusedProgram, fuse: bool) -> ExecChain {
        if fuse {
            ExecChain::Fused(FusedChain::new(program))
        } else {
            ExecChain::Interpreted(StageChain::from_stages(&program.stages))
        }
    }

    /// Feeds one element through, appending outputs to `out`.
    pub(crate) fn process_into(
        &mut self,
        value: Value,
        from: Option<SpHandle>,
        out: &mut Vec<Value>,
    ) -> Result<(), EngineError> {
        match self {
            ExecChain::Interpreted(c) => {
                out.extend(c.process(value, from)?);
                Ok(())
            }
            ExecChain::Fused(f) => f.process_into(value, from, out),
        }
    }

    /// Whether the executor could use *any* columnar pass (absorbing or
    /// relay) on some batch shape. The runtime consults this before
    /// transposing a delivered run, so chains that can never admit —
    /// and the interpreted reference, always — skip the decomposition
    /// work entirely.
    pub(crate) fn wants_columnar(&self) -> bool {
        match self {
            ExecChain::Interpreted(_) => false,
            ExecChain::Fused(f) => f.columnar_ok || f.relay_ok,
        }
    }

    /// Absorber admission over an already-transposed batch.
    pub(crate) fn columnar_admit_cols(&self, cols: &ColumnarBatch) -> Option<ColumnarAdmit> {
        match self {
            ExecChain::Interpreted(_) => None,
            ExecChain::Fused(f) => f.columnar_admit_cols(cols),
        }
    }

    /// Relay admission over an already-transposed batch.
    pub(crate) fn relay_admit_cols(&self, cols: &ColumnarBatch) -> Option<RelayAdmit> {
        match self {
            ExecChain::Interpreted(_) => None,
            ExecChain::Fused(f) => f.relay_admit_cols(cols),
        }
    }

    /// Absorbs an admitted batch as whole columns.
    pub(crate) fn process_admitted(&mut self, admit: ColumnarAdmit) -> Result<(), EngineError> {
        match self {
            ExecChain::Interpreted(_) => unreachable!("interpreted chains never admit batches"),
            ExecChain::Fused(f) => f.process_admitted(admit),
        }
    }

    /// Runs a relay-admitted batch, returning the surviving column and
    /// the output-row → input-row mapping.
    pub(crate) fn process_relayed(
        &mut self,
        admit: RelayAdmit,
    ) -> (ColumnarBatch, Option<SelectionVector>) {
        match self {
            ExecChain::Interpreted(_) => unreachable!("interpreted chains never admit batches"),
            ExecChain::Fused(f) => f.process_relayed(admit),
        }
    }

    /// Signals end of stream; aggregates flush.
    pub(crate) fn finish(&mut self) -> Result<Vec<Value>, EngineError> {
        match self {
            ExecChain::Interpreted(c) => c.finish(),
            ExecChain::Fused(f) => f.finish(),
        }
    }

    /// Walks the executor's mutable state through a coalescing probe.
    pub(crate) fn probe(
        &mut self,
        p: &mut StateProbe<'_>,
        probe_value: &mut dyn FnMut(&Value, &mut StateProbe<'_>),
    ) {
        match self {
            ExecChain::Interpreted(c) => c.probe(p, probe_value),
            ExecChain::Fused(f) => f.probe(p, probe_value),
        }
    }

    /// Allocates explain-analyze tally slots (one per stage). Before
    /// this call the tally slice is empty and every update is a no-op
    /// bounds check.
    pub(crate) fn enable_profiling(&mut self) {
        match self {
            ExecChain::Interpreted(c) => c.enable_profiling(),
            ExecChain::Fused(f) => f.chain.enable_profiling(),
        }
    }

    /// Books `rows` elements through every stage of a pass-through
    /// chain as one batch invocation (a prepared source's drain).
    pub(crate) fn tally_passthrough(&mut self, rows: u64) {
        let tally = match self {
            ExecChain::Interpreted(c) => &mut c.tally,
            ExecChain::Fused(f) => &mut f.chain.tally,
        };
        for t in tally {
            t.calls += 1;
            t.elems_in += rows;
            t.elems_out += rows;
        }
    }

    /// The per-stage tallies (empty unless profiling is enabled).
    pub(crate) fn tally(&self) -> &[crate::profile::StageTally] {
        match self {
            ExecChain::Interpreted(c) => &c.tally,
            ExecChain::Fused(f) => &f.chain.tally,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::InputKind;

    fn pipeline(stages: Vec<Stage>) -> Pipeline {
        Pipeline {
            input: InputKind::Const {
                values: Vec::new().into(),
            },
            stages,
        }
    }

    fn run_both(
        stages: Vec<Stage>,
        feed: &[(Value, Option<SpHandle>)],
    ) -> (Vec<Value>, Vec<Value>) {
        let p = pipeline(stages);
        let program = FusedProgram::compile(&p);
        let mut fused = FusedChain::new(&program);
        let mut interp = StageChain::new(&p);
        let mut fused_out = Vec::new();
        for (v, from) in feed {
            fused
                .process_into(v.clone(), *from, &mut fused_out)
                .unwrap();
        }
        fused_out.extend(fused.finish().unwrap());
        let mut interp_out = Vec::new();
        for (v, from) in feed {
            interp_out.extend(interp.process(v.clone(), *from).unwrap());
        }
        interp_out.extend(interp.finish().unwrap());
        (fused_out, interp_out)
    }

    #[test]
    fn empty_program_is_identity() {
        let (f, i) = run_both(vec![], &[(Value::Integer(5), None)]);
        assert_eq!(f, i);
        assert_eq!(f, vec![Value::Integer(5)]);
    }

    #[test]
    fn fused_matches_interpreted_on_map_agg_take() {
        let feed: Vec<(Value, Option<SpHandle>)> = (0..10)
            .map(|i| (Value::synthetic_array(256 + i), None))
            .collect();
        let (f, i) = run_both(
            vec![
                Stage::Map(MapFunc::Odd),
                Stage::Take { limit: 6 },
                Stage::Agg(AggKind::Count),
            ],
            &feed,
        );
        assert_eq!(f, i);
        assert_eq!(f, vec![Value::Integer(6)]);
    }

    #[test]
    fn fused_type_errors_match_interpreted() {
        let p = pipeline(vec![Stage::Agg(AggKind::Sum)]);
        let program = FusedProgram::compile(&p);
        let mut fused = FusedChain::new(&program);
        let mut interp = StageChain::new(&p);
        let mut out = Vec::new();
        let fe = fused
            .process_into(Value::from("x"), None, &mut out)
            .unwrap_err();
        let ie = interp.process(Value::from("x"), None).unwrap_err();
        assert_eq!(fe.to_string(), ie.to_string());
    }

    #[test]
    fn cost_model_matches_stage_walk() {
        let p = pipeline(vec![
            Stage::Map(MapFunc::Odd),
            Stage::Map(MapFunc::Fft),
            Stage::RadixCombine {
                first: SpHandle(1),
                second: SpHandle(2),
            },
            Stage::Agg(AggKind::Count),
        ]);
        let mut model = FusedProgram::compile(&p).cost_model();
        for elem_bytes in [0u64, 8, 1000, 1001, 1_000_000] {
            let mut bytes = elem_bytes;
            let mut want = 0u64;
            for s in &p.stages {
                match s {
                    Stage::Map(f) => {
                        want += funcs::map_cost_bytes(*f, bytes);
                        if matches!(f, MapFunc::Odd | MapFunc::Even) {
                            bytes /= 2;
                        }
                    }
                    Stage::RadixCombine { .. } => want += bytes,
                    _ => {}
                }
            }
            assert_eq!(model.cost(elem_bytes), want);
            // The memo must not change the answer.
            assert_eq!(model.cost(elem_bytes), want);
        }
    }

    #[test]
    fn fused_matches_interpreted_on_bandwidth() {
        let feed: Vec<(Value, Option<SpHandle>)> = (1..=5u64)
            .map(|i| (crate::ops::metric_sample(0, i * 1_000_000, 1000), None))
            .collect();
        let (f, i) = run_both(vec![Stage::Bandwidth], &feed);
        assert_eq!(f, i);
        assert_eq!(f, vec![Value::Real(5000.0 / 0.005)]);
    }

    #[test]
    fn cost_model_is_free_without_costly_stages() {
        let p = pipeline(vec![Stage::Agg(AggKind::Count), Stage::StreamOf]);
        let mut model = FusedProgram::compile(&p).cost_model();
        assert_eq!(model.cost(123_456), 0);
    }
}
