//! Prepare-time lowering and the whole-column driver of a stage chain.
//!
//! Two things are lowered once, at `Scsq::prepare` time, and shared by
//! every run of the plan: a pipeline's compute-cost accounting compiled
//! to a compact op list ([`CostModel`]), and a constant source
//! transposed to columns ([`PreparedSource`]).
//!
//! The rest of the module is the columnar half of [`StageChain`]: one
//! admission walk ([`StageChain::admit_cols`]) that decides, per
//! delivered batch, whether the chain's stages all have a whole-column
//! kernel for the types flowing through them, and one driver
//! ([`StageChain::process_cols`]) that then runs the batch through
//! [`crate::columnar`] with one dispatch per stage instead of one per
//! element. The walk has two endings ([`ColumnEnding`]): it stops at an
//! absorber, which folds the batch into its state, or it runs off the
//! end of a transforming chain, which emits the rewritten column. Both
//! mutate the same `StageState`s as the scalar run driver
//! (`StageChain::process_run`, the reference semantics and the
//! fallback for every declined batch), so aggregate flushes and
//! coalescer probes cannot tell which ran.

use crate::columnar;
use crate::error::EngineError;
use crate::funcs;
use crate::ops::{AggKind, CmpOp, InputKind, MapFunc, Pipeline, Stage, StageChain, StageState};
use scsq_ql::column::{Column, SelectionVector, METRIC_COLUMNS};
use scsq_ql::{ColumnarBatch, Value};

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

/// The cost operation a stage compiles to; `None` for stages that charge
/// no CPU time.
pub(crate) fn cost_op(stage: &Stage) -> Option<CostOp> {
    match stage {
        Stage::Map(f) => Some(CostOp::Map(*f)),
        Stage::RadixCombine { .. } => Some(CostOp::Radix),
        Stage::Arith { .. } => Some(CostOp::Arith),
        Stage::Cmp { .. } => Some(CostOp::Cmp),
        Stage::Filter { .. } => Some(CostOp::Filter),
        _ => None,
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

/// A pipeline's compute-cost accounting, compiled once at prepare time
/// to the stages that charge CPU time. Immutable: the plan holds it and
/// every run of the plan reads the same one.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    ops: Vec<CostOp>,
}

impl CostModel {
    /// Lowers a pipeline's stage chain.
    pub fn compile(pipeline: &Pipeline) -> CostModel {
        CostModel {
            ops: pipeline.stages.iter().filter_map(cost_op).collect(),
        }
    }

    /// CPU cost (in byte-equivalents) of pushing one element of
    /// `elem_bytes` marshaled bytes through the chain. Identical to
    /// walking the stage list per element: decimation halves the size
    /// seen by later stages.
    pub fn cost(&self, elem_bytes: u64) -> u64 {
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
        cost
    }
}

/// Where the admission walk ends, and so what an admitted batch leaves
/// behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnEnding {
    /// The walk stops at an absorber (an aggregate, `bandwidth`,
    /// `quantile`): the batch folds into its state and nothing is
    /// emitted before end of stream.
    Fold,
    /// The walk runs off the end of a chain that transforms or filters:
    /// the rewritten column is emitted downstream as shared rows.
    Emit,
}

/// A batch cleared for whole-column execution by
/// [`StageChain::admit_cols`]: the columns, which ending the walk
/// reached, and the two facts the runtime needs to charge the chain's
/// modeled compute cost *before* running the kernels, mirroring the
/// per-element path's charge-then-process order.
#[derive(Debug)]
pub struct ColumnAdmit {
    cols: ColumnarBatch,
    /// Whether the batch folds or emits.
    pub ending: ColumnEnding,
    /// Number of elements in the admitted batch.
    pub rows: usize,
    /// Marshaled size shared by every element, or 0 when the chain
    /// charges no compute cost (then no size is needed — the cost walk
    /// is empty either way).
    pub elem_bytes: u64,
}

/// What an emitting batch leaves the chain as: the surviving rows as a
/// single-column batch, and the map from output rows to input rows
/// (`None` when the output is a prefix of the input).
pub type Emitted = (ColumnarBatch, Option<SelectionVector>);

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
/// opaque fallback (which only `count` absorbs).
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
        return ColType::Record;
    }
    match cols.single() {
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
/// falls back to the per-element path).
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

impl StageChain {
    /// Whether the chain could admit *some* batch. The runtime consults
    /// this before transposing a delivered run, so chains that can never
    /// admit skip the decomposition work entirely.
    pub(crate) fn wants_columnar(&self) -> bool {
        self.ending.is_some()
    }

    /// Decides, without mutating anything, whether a delivered batch
    /// qualifies for whole-column execution, and if so returns it with
    /// the ending the walk reached and the cost-accounting facts.
    ///
    /// The walk runs the type flow the kernels implement: the batch
    /// transposes to a typed column (`Int`/`Float`/`Bool`/`Str`/
    /// `Synthetic`, the three-column metric shape, a multi-column record,
    /// or an opaque fallback), and each stage must have a kernel for the
    /// type flowing into it — `arith` needs a numeric column (an integer
    /// column with a real constant widens to float, as the scalar stage
    /// does), `cmp`/`filter` need a numeric column with a numeric
    /// constant or a string column with a string constant, `map` needs
    /// a synthetic column, aggregates other than `count` need a numeric
    /// column, `bandwidth` needs the metric shape, and `count`
    /// takes any type. The walk stops at the first absorber (stages after
    /// it never see elements mid-stream, only the end-of-stream flush);
    /// without one it runs off the end and the chain emits. Which of the
    /// two a chain can reach is fixed by its stage list
    /// (`column_ending`).
    ///
    /// When any stage charges modeled compute cost the elements must
    /// additionally share one marshaled size, so the runtime can charge
    /// the batch from one `cost(elem_bytes)` — the same total the
    /// per-element walk accrues. `None` means the caller must fall back
    /// to the per-element path (which also reproduces type-error
    /// semantics for ill-typed runs).
    pub fn admit_cols(&self, cols: &ColumnarBatch) -> Option<ColumnAdmit> {
        let ending = self.ending?;
        if cols.is_empty() {
            return None;
        }
        let initial = batch_col_type(cols);
        let mut ty = initial;
        for state in &self.stages {
            let numeric = matches!(ty, ColType::Int | ColType::Float);
            match state {
                StageState::Agg { kind, .. } => {
                    if *kind != AggKind::Count && !numeric {
                        return None;
                    }
                    break;
                }
                StageState::Bandwidth { .. } => {
                    if ty != ColType::Metric {
                        return None;
                    }
                    break;
                }
                StageState::Quantile { .. } => {
                    if !numeric {
                        return None;
                    }
                    break;
                }
                other => ty = transform_type(other, ty)?,
            }
        }
        let elem_bytes = if self.costly {
            uniform_elem_bytes(cols, initial)?
        } else {
            0
        };
        Some(ColumnAdmit {
            cols: cols.clone(),
            ending,
            rows: cols.rows(),
            elem_bytes,
        })
    }

    /// Runs an admitted batch through the chain as whole columns: one
    /// kernel dispatch per stage. Returns `None` when the batch folded
    /// into an absorber, or the emitted rows when it ran off the end of
    /// the chain. The emitted rows come with the map back to the input
    /// rows that produced them ([`Emitted`]): the caller forwards each
    /// survivor at the finish time of its *input* element, exactly as
    /// the per-element path does.
    ///
    /// The caller must have charged the compute cost already (the
    /// per-element path charges each element before it enters the
    /// chain, so charge-then-process keeps the orders aligned).
    ///
    /// Transform stages rewrite the column; `filter` narrows a
    /// selection vector over the *original* row space instead of
    /// gathering survivors, so a chain of filters is mask intersection,
    /// a fold visits survivors by index, and an emitting chain gathers
    /// them once at the end. Dense stages after a filter keep operating
    /// on all rows — dead rows are computed and never read, which is
    /// cheaper than gathering and cannot fail on an admitted type.
    ///
    /// # Errors
    ///
    /// The same error the per-element path would raise on the first
    /// failing element (`bandwidth` over malformed samples or
    /// `quantile` over negative values on an admitted shape).
    pub fn process_cols(&mut self, admit: ColumnAdmit) -> Result<Option<Emitted>, EngineError> {
        let cols = admit.cols;
        if cols.width() != 1 {
            self.process_multi_columns(cols)?;
            return Ok(None);
        }
        let mut cur: Column = cols.single().expect("width checked above");
        let mut sel: Option<SelectionVector> = None;
        let StageChain { stages, tally, .. } = self;
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
                    return Ok(None);
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
                    return Ok(None);
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
        // No absorber: the chain emits. Compact survivors once, here —
        // dense stages upstream computed dead rows but never
        // materialized them.
        let out = match &sel {
            Some(s) => columnar::take(&cur, s),
            None => cur,
        };
        Ok(Some((
            ColumnarBatch::new(vec![("v".to_string(), out)]),
            sel,
        )))
    }

    /// The multi-column walk: parallel columns — the metric triple or a
    /// record batch — flow untransformed (admission declines transform
    /// stages on multi-column batches) through pass-through stages into
    /// `bandwidth` or `count`.
    fn process_multi_columns(&mut self, cols: ColumnarBatch) -> Result<(), EngineError> {
        let mut view = cols;
        let StageChain { stages, tally, .. } = self;
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

/// Whether a stage has a whole-column kernel.
fn vectorizable(s: &Stage) -> bool {
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
}

/// Whether a stage absorbs its input until end of stream.
fn absorber(s: &Stage) -> bool {
    matches!(s, Stage::Agg(_) | Stage::Bandwidth | Stage::Quantile { .. })
}

/// Whether a stage transforms or filters the column it is handed.
fn transform(s: &Stage) -> bool {
    matches!(
        s,
        Stage::Arith { .. } | Stage::Cmp { .. } | Stage::Filter { .. }
    )
}

/// The ending a chain's admission walk can reach, fixed by its stage
/// list. `Fold` when every stage has a kernel and one absorbs; `Emit`
/// when every stage has a kernel, none absorbs, none maps (a `map`'s
/// arrays are left to the per-element path unless a fold consumes
/// them), and one transforms or filters. `None` otherwise — a stage
/// without a kernel, or a chain that only passes rows through (re-emitting
/// them untransformed would rebuild the very tuples the per-element path
/// forwards) — and then no batch is ever admitted.
pub(crate) fn column_ending(stages: &[Stage]) -> Option<ColumnEnding> {
    if !stages.iter().all(vectorizable) {
        None
    } else if stages.iter().any(absorber) {
        Some(ColumnEnding::Fold)
    } else if stages.iter().any(transform) && !stages.iter().any(|s| matches!(s, Stage::Map(_))) {
        Some(ColumnEnding::Emit)
    } else {
        None
    }
}

/// The static columnar-admission verdict for each stage of a chain —
/// what `explain` prints so rejected shapes are diagnosable without
/// reading [`StageChain::admit_cols`]. `"columnar"` marks the stages a
/// folding walk drives (those after the absorber see only the flush),
/// `"columnar (relay)"` the stages of an emitting one, and
/// `"scalar: <reason>"` explains why a stage forces the per-element
/// path. Verdicts are shape-level: per-batch typing (a string column
/// into `sum`, mixed runs) can still demote an admitted shape at
/// delivery time.
pub fn admission_verdicts(stages: &[Stage]) -> Vec<String> {
    let Some(ending) = column_ending(stages) else {
        let all_vectorizable = stages.iter().all(vectorizable);
        return stages
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
            .collect();
    };
    let walked = match ending {
        ColumnEnding::Fold => "columnar",
        ColumnEnding::Emit => "columnar (relay)",
    };
    let mut absorbed = false;
    stages
        .iter()
        .map(|s| {
            if absorbed {
                "scalar: after the absorber (sees only the flush)".to_string()
            } else {
                absorbed = absorber(s);
                walked.to_string()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::InputKind;
    use scsq_ql::SpHandle;

    fn pipeline(stages: Vec<Stage>) -> Pipeline {
        Pipeline {
            input: InputKind::Const {
                values: Vec::new().into(),
            },
            stages,
        }
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
        let model = CostModel::compile(&p);
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
        }
    }

    #[test]
    fn cost_model_is_free_without_costly_stages() {
        let p = pipeline(vec![Stage::Agg(AggKind::Count), Stage::StreamOf]);
        assert_eq!(CostModel::compile(&p).cost(123_456), 0);
    }
}
